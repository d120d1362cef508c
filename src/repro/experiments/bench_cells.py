"""Benchmark cells: the campaign-schedulable unit of engine work.

``repro bench --memo`` and ``repro bench --service`` time whole
campaigns through the real scheduler.  For that they need a matrix of
*uniform, independently runnable* tasks whose compute is pure engine
work — so this module packages one (policy, mix) simulation cell as a
registered campaign experiment.

Units deliberately report only deterministic counters (accesses,
hits, bytes, IPC) and no wall-clock numbers: the scheduler measures
each successful attempt's duration itself
(:attr:`repro.harness.CampaignReport.durations`), keeping result
files byte-stable across reruns — the property resume verification
relies on.

``bench_cells`` is registered for the campaign runner but excluded
from the default experiment set: it reproduces no paper figure, so a
plain ``repro campaign`` never schedules it unless asked to by name.
"""

from __future__ import annotations

from typing import List

from ..core import make_policy
from .common import ExperimentScale, run_one

#: Policy matrix of one bench campaign: the paper's baselines +
#: proposals (same set the engine bench times), giving several same-mix
#: cells in a row so pool workers' warm caches have something to reuse.
BENCH_CELL_POLICIES = ("bh", "bh_cp", "lhybrid", "tap", "ca", "ca_rwr", "cp_sd")

#: Cells per mix are what matters for warm reuse, not mix variety.
BENCH_CELL_MIXES = 2

#: Deliberately short cells: the campaign benches measure what the
#: *harness* adds per task (dispatch, process setup, cache rebuilds),
#: so the engine work inside each cell is kept small enough not to
#: drown the quantity under measurement.  Engine speed itself has its
#: own benchmark (plain ``repro bench``).
BENCH_CELL_EPOCHS = 1.0
BENCH_CELL_WARMUP_EPOCHS = 0.25


def enumerate_bench_cell_units(scale: ExperimentScale) -> List[dict]:
    """One unit per (mix, policy): every cell of the scaling matrix."""
    return [
        {"mix": mix, "policy": policy, "seed": 0}
        for mix in scale.mixes[:BENCH_CELL_MIXES]
        for policy in BENCH_CELL_POLICIES
    ]


def run_bench_cell_unit(
    scale: ExperimentScale, mix: str, policy: str, seed: int = 0
):
    """Simulate one cell; returns its deterministic RunRecord."""
    workload = scale.workload(mix, seed=seed)
    record = run_one(
        scale.system(),
        make_policy(policy),
        workload,
        warmup_epochs=BENCH_CELL_WARMUP_EPOCHS,
        measure_epochs=BENCH_CELL_EPOCHS,
    )
    record.meta.update(
        {"experiment": "bench_cells", "mix": mix,
         "unit_policy": policy, "seed": seed}
    )
    return record
