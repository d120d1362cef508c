"""On-disk trace cache, compressed-size sidecars, scaling-bench units.

The invariant under test throughout: caching layers (mmap-backed disk
hits, preloaded size sidecars, shared workloads) may change *how fast*
a workload materialises, never *what* the engine computes from it.
"""

import struct

import pytest

from repro.workloads.cache import (
    SIZES_VERSION,
    TRACE_CACHE_ENV,
    SidecarError,
    load_or_materialize,
    load_sizes_sidecar,
    save_sizes_sidecar,
    sizes_sidecar_path,
    trace_cache_dir,
    trace_cache_key,
)
from repro.workloads.profiles import profile

PROFILE = profile("mcf17").scaled(1 / 32)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "trace_cache"
    monkeypatch.setenv(TRACE_CACHE_ENV, str(directory))
    return directory


# ----------------------------------------------------------------------
# disk cache hits via the mmap loader

def test_disk_hit_equals_generated(cache_dir):
    generated = load_or_materialize(PROFILE, 0, 0, 300)   # miss: generates
    assert cache_dir.exists()
    cached = load_or_materialize(PROFILE, 0, 0, 300)      # hit: mmap load
    assert cached.records == generated.records
    assert cached.replay_columns() == generated.replay_columns()


def test_corrupt_cache_entry_regenerates(cache_dir):
    generated = load_or_materialize(PROFILE, 0, 0, 50)
    path = cache_dir / f"{trace_cache_key(PROFILE, 0, 0, 50)}.trc"
    assert path.exists()
    path.write_bytes(path.read_bytes()[:-7])              # torn write
    recovered = load_or_materialize(PROFILE, 0, 0, 50)
    assert recovered.records == generated.records


def test_cache_disabled_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
    assert trace_cache_dir() is None
    trace = load_or_materialize(PROFILE, 0, 0, 40)
    assert len(trace) == 40


# ----------------------------------------------------------------------
# compressed-size sidecars

def test_sizes_sidecar_roundtrip(cache_dir):
    entries = {0x1000: (22, 36), 0x40: (64, 72), 0x2000: (8, 14)}
    save_sizes_sidecar(PROFILE, 1, 0, 100, entries)
    loaded = load_sizes_sidecar(PROFILE, 1, 0, 100)
    assert loaded == entries


def test_sizes_sidecar_bytes_are_order_independent(cache_dir):
    entries = {3: (1, 2), 1: (3, 4), 2: (5, 6)}
    save_sizes_sidecar(PROFILE, 0, 0, 10, entries)
    path = sizes_sidecar_path(cache_dir, PROFILE, 0, 0, 10)
    first = path.read_bytes()
    save_sizes_sidecar(PROFILE, 0, 0, 10, dict(reversed(entries.items())))
    assert path.read_bytes() == first


def test_sizes_sidecar_missing_or_disabled(cache_dir, monkeypatch):
    assert load_sizes_sidecar(PROFILE, 0, 0, 999) is None  # missing
    monkeypatch.delenv(TRACE_CACHE_ENV)
    save_sizes_sidecar(PROFILE, 0, 0, 10, {1: (2, 3)})     # no-op
    assert load_sizes_sidecar(PROFILE, 0, 0, 10) is None


def test_sizes_sidecar_rejects_structural_corruption(cache_dir):
    save_sizes_sidecar(PROFILE, 0, 0, 10, {1: (2, 3), 4: (5, 6)})
    path = sizes_sidecar_path(cache_dir, PROFILE, 0, 0, 10)
    good = path.read_bytes()  # a REPROBLB envelope around REPROSZC bytes

    corruptions = [
        b"WRONGMAG" + good[8:],   # clobbered envelope magic -> legacy
                                  # parse sees garbage, not REPROSZC
        good[:-4],                # torn tail -> envelope length mismatch
        good[:10],                # short header
        good[:-2] + bytes([good[-2] ^ 0x40, good[-1]]),  # bit rot
    ]
    for bad in corruptions:
        path.write_bytes(bad)
        with pytest.raises(SidecarError):
            load_sizes_sidecar(PROFILE, 0, 0, 10)
        # corruption is evidence: the bad bytes move to quarantine/
        # (with a reason record) rather than being read again
        assert not path.exists()
        quarantined = list((cache_dir / "quarantine").glob("*.sizes*"))
        assert quarantined
        path.write_bytes(good)  # restore for the next round

    # A legacy (pre-envelope) sidecar with a stale version is rejected.
    inner = struct.pack("<8sII", b"REPROSZC", SIZES_VERSION + 1, 0)
    path.write_bytes(inner)
    with pytest.raises(SidecarError):
        load_sizes_sidecar(PROFILE, 0, 0, 10)

    path.write_bytes(good)                                 # intact again
    assert load_sizes_sidecar(PROFILE, 0, 0, 10) == {1: (2, 3), 4: (5, 6)}


def test_sidecar_preload_is_observationally_identical(cache_dir):
    """A workload whose sizes came from a sidecar reports the same
    (csize, ecb) for every address as one that drew them."""
    from repro.engine import Workload
    from repro.workloads.mixes import mix_profiles

    profiles = [p.scaled(1 / 32) for p in mix_profiles("mix1")]
    first = Workload(profiles, seed=0, trace_records_per_core=2_000)
    # the first build wrote sidecars; the second must preload them
    second = Workload(profiles, seed=0, trace_records_per_core=2_000)
    sidecars = list(cache_dir.glob("*.sizes"))
    assert len(sidecars) == len(profiles)
    for trace in first.traces:
        for addr in set(trace.addrs):
            assert first.data_model.size_fn(addr) == second.data_model.size_fn(addr)


def test_sidecar_never_changes_simulation_results(cache_dir):
    from repro.bench.golden import simulation_digest
    from repro.core import make_policy
    from repro.engine import Simulation, Workload
    from repro.experiments.common import SMOKE
    from repro.workloads.mixes import mix_profiles

    profiles = [p.scaled(SMOKE.factor) for p in mix_profiles("mix1")]
    records = SMOKE.trace_records_per_core
    epoch = SMOKE.system().dueling.epoch_cycles

    def digest():
        workload = Workload(profiles, seed=0, trace_records_per_core=records)
        sim = Simulation(SMOKE.system(), make_policy("ca_rwr"), workload)
        return simulation_digest(sim.run(epoch, 0))

    cold = digest()    # generates traces, draws sizes, writes sidecars
    warm = digest()    # mmap trace hit + sidecar preload
    assert cold == warm


# ----------------------------------------------------------------------
# bench_cells units (the campaign benches' task matrix)

def test_bench_cells_enumeration_and_determinism():
    from repro.experiments import ALL_EXPERIMENT_NAMES, EXPERIMENT_NAMES
    from repro.experiments.bench_cells import (
        BENCH_CELL_POLICIES,
        enumerate_bench_cell_units,
    )
    from repro.experiments.campaign_tasks import run_campaign_task
    from repro.experiments.common import SMOKE
    from repro.harness import dump_json

    units = enumerate_bench_cell_units(SMOKE)
    assert len(units) == 2 * len(BENCH_CELL_POLICIES)
    # registered for campaigns, excluded from the default experiment set
    assert "bench_cells" in ALL_EXPERIMENT_NAMES
    assert "bench_cells" not in EXPERIMENT_NAMES

    one = dump_json(run_campaign_task("bench_cells", units[0], "smoke"))
    two = dump_json(run_campaign_task("bench_cells", units[0], "smoke"))
    assert one == two, "bench cell results must be byte-stable"
