"""Every profile-based workload target generates the traces it always did.

``tests/goldens/trace_digests.json`` holds the SHA-256 of the
gap/addr/write columns of every core of every target of every
profile-based registered family, at smoke scale, for seeds 0 and 1.
The golden window and the benchmark build only a few mixes; this
table pins the generator's output on all of them, so a change to the
generator's draw order fails here instead of silently moving results.

A change that *means* to move traces bumps ``GENERATOR_VERSION`` and
re-records the table with ``PYTHONPATH=src python
tests/test_trace_digests.py``, saying why in the commit message.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.experiments.common import SMOKE
from repro.workloads.cache import TRACE_CACHE_ENV, load_or_materialize
from repro.workloads.registry import SyntheticProfileFamily, _FAMILIES, family_names

DIGESTS_PATH = Path(__file__).parent / "goldens" / "trace_digests.json"
SEEDS = (0, 1)


def trace_digest(trace) -> str:
    """Hex SHA-256 over the little-endian gap, addr and write columns."""
    h = hashlib.sha256()
    h.update(np.asarray(trace.gaps, dtype="<u8").tobytes())
    h.update(np.asarray(trace.addrs, dtype="<u8").tobytes())
    h.update(np.asarray(trace.writes, dtype=np.uint8).tobytes())
    return h.hexdigest()


def compute_trace_digests():
    """``{ref: {seed: [digest per core]}}`` for every profile target."""
    memo = {}
    table = {}
    for name in family_names():
        family = _FAMILIES[name]
        if not isinstance(family, SyntheticProfileFamily):
            continue
        for target in family.targets():
            profiles = [p.scaled(SMOKE.factor) for p in family._profiles(target)]
            per_seed = {}
            for seed in SEEDS:
                digests = []
                for core, prof in enumerate(profiles):
                    key = (prof, core, seed)
                    if key not in memo:
                        memo[key] = trace_digest(load_or_materialize(
                            prof, core, seed, SMOKE.trace_records_per_core
                        ))
                    digests.append(memo[key])
                per_seed[str(seed)] = digests
            table[f"{name}:{target}"] = per_seed
    return {
        "scale": SMOKE.name,
        "n_records": SMOKE.trace_records_per_core,
        "traces": table,
    }


def test_traces_match_committed_digests(monkeypatch):
    monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
    committed = json.loads(DIGESTS_PATH.read_text())
    computed = compute_trace_digests()
    assert computed["n_records"] == committed["n_records"]
    assert set(computed["traces"]) == set(committed["traces"])
    mismatches = {
        ref: (committed["traces"][ref], digests)
        for ref, digests in computed["traces"].items()
        if committed["traces"][ref] != digests
    }
    assert not mismatches, (
        "generated traces diverged from the committed digests "
        f"(ref -> (committed, computed)): {mismatches}"
    )


if __name__ == "__main__":
    import os

    os.environ.pop(TRACE_CACHE_ENV, None)
    DIGESTS_PATH.write_text(json.dumps(compute_trace_digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS_PATH}")
