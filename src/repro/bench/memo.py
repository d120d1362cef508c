"""Memoization benchmark: prove the caches are fast *and* honest.

``python -m repro bench --memo`` measures the two memo layers that
PR 4 adds on top of the engine:

* **result cache** — a ``bench_cells`` campaign is run twice against a
  shared content-addressed result cache.  The second pass must be
  served entirely from cache *and* produce byte-identical result
  files; the benchmark raises if either fails, so the recorded speedup
  can never come from a wrong answer.
* **snapshot store** — one (policy, mix) cell is simulated cold and
  then warm-started from the in-process post-warmup snapshot store;
  the warm result's :func:`~repro.bench.golden.simulation_digest` must
  equal the cold one.

The emitted ``BENCH_memo.json`` carries ``cases`` rows shaped like the
engine bench's (``policy``/``mix``/``mcycles_per_s``) so
:func:`~repro.bench.compare.compare_benches` can gate it against the
committed baseline, plus a ``memo`` section with the verified
speedups.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..core import make_policy
from ..experiments.bench_cells import (
    BENCH_CELL_EPOCHS,
    BENCH_CELL_MIXES,
    BENCH_CELL_POLICIES,
    BENCH_CELL_WARMUP_EPOCHS,
)
from ..experiments.common import ExperimentScale, run_one
from ..memo.snapshots import (
    SNAPSHOT_MEMO_ENV,
    reset_shared_snapshot_store,
    shared_snapshot_store,
)
from ..workloads.cache import TRACE_CACHE_ENV
from .golden import simulation_digest
from .runner import BENCH_SCHEMA, _host_metadata

#: Snapshot microbench horizons: a long warmup against a short
#: measured window is the shape the store exists for (figure variants
#: re-measuring past the same warmed state), and it makes the restore
#: win visible rather than amortised away.
SNAPSHOT_WARMUP_EPOCHS = 2.0
SNAPSHOT_MEASURE_EPOCHS = 1.0
SNAPSHOT_POLICY = "cp_sd"


class MemoBenchError(RuntimeError):
    """A memoization correctness check failed during the benchmark."""


def _result_bytes(directory: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in (Path(directory) / "results").glob("*.json")
    }


def _campaign_pass(directory: Path, scale_name: str, settings):
    """Run one timed ``bench_cells`` campaign; returns (report, seconds)."""
    from ..harness import run_campaign

    start = time.perf_counter()
    report = run_campaign(
        directory, scale=scale_name, experiments=["bench_cells"], settings=settings
    )
    seconds = time.perf_counter() - start
    if not report.ok:
        raise MemoBenchError(
            f"bench_cells campaign at {directory} did not complete"
        )
    return report, seconds


def _campaign_phase(scale: ExperimentScale, base: Path, say) -> dict:
    from ..harness import CampaignSettings

    settings = CampaignSettings(
        jobs=2,
        task_timeout=600.0,
        retries=2,
        backoff_base=0.05,
        result_cache_dir=str(base / "result_cache"),
    )
    cold_report, cold_seconds = _campaign_pass(base / "cold", scale.name, settings)
    say(
        f"cold pass: {cold_report.completed} units in {cold_seconds:.2f}s "
        f"({cold_report.cache_hits} cache hits)"
    )
    warm_report, warm_seconds = _campaign_pass(base / "warm", scale.name, settings)
    say(
        f"warm pass: {warm_report.completed} units in {warm_seconds:.2f}s "
        f"({warm_report.cache_hits} cache hits)"
    )

    if warm_report.cache_hits != warm_report.total:
        raise MemoBenchError(
            f"warm pass served {warm_report.cache_hits}/{warm_report.total} "
            "units from cache; expected all of them"
        )
    if _result_bytes(base / "cold") != _result_bytes(base / "warm"):
        raise MemoBenchError(
            "cache-served results are not byte-identical to computed ones"
        )

    units = warm_report.total
    cycles_per_unit = scale.epoch_cycles * (
        BENCH_CELL_WARMUP_EPOCHS + BENCH_CELL_EPOCHS
    )
    simulated_cycles = float(units * cycles_per_unit)
    return {
        "units": units,
        "mixes": list(scale.mixes[:BENCH_CELL_MIXES]),
        "policies": list(BENCH_CELL_POLICIES),
        "simulated_cycles": simulated_cycles,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else 0.0,
        "verified_identical": True,
    }


def _snapshot_phase(scale: ExperimentScale, say) -> dict:
    """Cold vs snapshot-restored ``run_one`` on one cell, digest-gated."""
    mix = scale.mixes[0]
    config = scale.system()
    workload = scale.workload(mix, seed=0)
    cycles = scale.epoch_cycles * (
        SNAPSHOT_WARMUP_EPOCHS + SNAPSHOT_MEASURE_EPOCHS
    )

    def timed_run():
        policy = make_policy(SNAPSHOT_POLICY)
        start = time.perf_counter()
        result = run_one(
            config,
            policy,
            workload,
            warmup_epochs=SNAPSHOT_WARMUP_EPOCHS,
            measure_epochs=SNAPSHOT_MEASURE_EPOCHS,
        )
        return result, time.perf_counter() - start

    old = os.environ.get(SNAPSHOT_MEMO_ENV)
    try:
        os.environ[SNAPSHOT_MEMO_ENV] = "0"
        cold_result, cold_seconds = timed_run()
        os.environ[SNAPSHOT_MEMO_ENV] = "1"
        reset_shared_snapshot_store()
        timed_run()  # populates the store (miss + snapshot cost)
        warm_result, warm_seconds = timed_run()
        again, again_seconds = timed_run()
        warm_seconds = min(warm_seconds, again_seconds)
        store = shared_snapshot_store()
        if store is None or store.hits < 2:
            raise MemoBenchError("snapshot store never served a warm start")
    finally:
        if old is None:
            os.environ.pop(SNAPSHOT_MEMO_ENV, None)
        else:
            os.environ[SNAPSHOT_MEMO_ENV] = old
        reset_shared_snapshot_store()

    cold_digest = simulation_digest(cold_result)
    if simulation_digest(warm_result) != cold_digest:
        raise MemoBenchError("snapshot-restored result diverged from cold run")
    if simulation_digest(again) != cold_digest:
        raise MemoBenchError("second snapshot restore diverged from cold run")
    say(
        f"snapshot cell {SNAPSHOT_POLICY}/{mix}: cold {cold_seconds:.2f}s, "
        f"warm {warm_seconds:.2f}s (digest-identical)"
    )
    return {
        "policy": SNAPSHOT_POLICY,
        "mix": mix,
        "warmup_epochs": SNAPSHOT_WARMUP_EPOCHS,
        "measure_epochs": SNAPSHOT_MEASURE_EPOCHS,
        "simulated_cycles": float(cycles),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else 0.0,
        "verified_identical": True,
    }


def run_memo_bench(
    scale: ExperimentScale,
    label: str = "memo",
    progress=None,
) -> dict:
    """Benchmark both memo layers; raise :class:`MemoBenchError` on any
    correctness defect (wrong bytes, missed hits, digest divergence)."""
    say = progress or (lambda message: None)
    base = Path(tempfile.mkdtemp(prefix="repro_memo_bench_"))
    old_trace_env = os.environ.get(TRACE_CACHE_ENV)
    try:
        # Share one trace cache across both passes and prewarm it, so
        # the cold pass times engine + scheduler work, not one-time
        # trace materialisation.
        os.environ[TRACE_CACHE_ENV] = str(base / "trace_cache")
        for mix in scale.mixes[:BENCH_CELL_MIXES]:
            scale.workload(mix, seed=0)
        campaign = _campaign_phase(scale, base, say)
        snapshot = _snapshot_phase(scale, say)
    finally:
        if old_trace_env is None:
            os.environ.pop(TRACE_CACHE_ENV, None)
        else:
            os.environ[TRACE_CACHE_ENV] = old_trace_env
        shutil.rmtree(base, ignore_errors=True)

    def rate(simulated_cycles: float, seconds: float) -> float:
        return simulated_cycles / 1e6 / seconds if seconds > 0 else 0.0

    cases = [
        {
            "policy": "campaign",
            "mix": "cold",
            "seconds": campaign["cold_seconds"],
            "mcycles_per_s": rate(
                campaign["simulated_cycles"], campaign["cold_seconds"]
            ),
        },
        {
            "policy": "campaign",
            "mix": "cache_served",
            "seconds": campaign["warm_seconds"],
            "mcycles_per_s": rate(
                campaign["simulated_cycles"], campaign["warm_seconds"]
            ),
        },
        {
            "policy": "snapshot",
            "mix": "cold",
            "seconds": snapshot["cold_seconds"],
            "mcycles_per_s": rate(
                snapshot["simulated_cycles"], snapshot["cold_seconds"]
            ),
        },
        {
            "policy": "snapshot",
            "mix": "restored",
            "seconds": snapshot["warm_seconds"],
            "mcycles_per_s": rate(
                snapshot["simulated_cycles"], snapshot["warm_seconds"]
            ),
        },
    ]
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "created_unix": time.time(),
        "host": _host_metadata(),
        "scale": scale.name,
        "memo": {"campaign": campaign, "snapshot": snapshot},
        "cases": cases,
    }
