"""Engine boundary behaviour: epoch edges, warmup edges, bursts."""

import pytest

from repro.config import SystemConfig
from repro.core import make_policy
from repro.engine import Simulation
from repro.experiments.common import SMOKE, run_one
from repro.memo.snapshots import SNAPSHOT_MEMO_ENV, reset_shared_snapshot_store


def sim_for(policy="cp_sd"):
    scale = SMOKE
    return SMOKE.system(), Simulation(
        SMOKE.system(), make_policy(policy), scale.workload("mix1")
    )


def test_epochs_fire_exactly_once_per_boundary():
    config, sim = sim_for()
    epoch = config.dueling.epoch_cycles
    res = sim.run(cycles=5.5 * epoch, warmup_cycles=0)
    indices = [e.index for e in res.epochs]
    assert indices == sorted(set(indices))  # no duplicates
    assert len(indices) >= 4
    # boundaries are exact multiples of the epoch length
    for e in res.epochs:
        assert e.end_cycle % epoch == pytest.approx(0.0)


def test_epoch_numbering_continues_across_runs():
    config, sim = sim_for()
    epoch = config.dueling.epoch_cycles
    first = sim.run(cycles=2 * epoch, warmup_cycles=0)
    second = sim.run(cycles=2 * epoch, warmup_cycles=0)
    all_indices = [e.index for e in first.epochs + second.epochs]
    assert all_indices == sorted(set(all_indices))


def test_dueling_elections_match_epoch_count():
    config, sim = sim_for()
    epoch = config.dueling.epoch_cycles
    res = sim.run(cycles=4 * epoch, warmup_cycles=0)
    controller = sim.policy.controller
    assert controller.epochs_elapsed == len(res.epochs)


def test_warmup_resets_only_once():
    config, sim = sim_for("bh")
    epoch = config.dueling.epoch_cycles
    res = sim.run(cycles=3 * epoch, warmup_cycles=epoch)
    # measured stats cover roughly two epochs of accesses, not three
    assert res.cycles == pytest.approx(2 * epoch)
    assert res.stats.llc.accesses > 0


def test_epoch_ending_at_warmup_keeps_its_counts(monkeypatch):
    """The last warmup epoch closes on its counters before the reset.

    bh on smoke mix1 with a 2-epoch warmup used to record epoch 1 with
    zero hits and zero NVM bytes: the stats reset at the warmup
    boundary ran before that epoch was closed.  The cold run, the
    split warmup-prefix run and the snapshot-restored run must agree.
    """
    def run():
        return run_one(
            SMOKE.system(), make_policy("bh"), SMOKE.workload("mix1"), 2.0, 2.0
        )

    monkeypatch.setenv(SNAPSHOT_MEMO_ENV, "0")
    cold = run()
    monkeypatch.setenv(SNAPSHOT_MEMO_ENV, "1")
    reset_shared_snapshot_store()
    split, restored = run(), run()
    assert split.epochs == cold.epochs == restored.epochs

    epochs = cold.epochs
    assert [e.after_warmup for e in epochs] == [False, False, True, True]
    assert epochs[1].hits > 0 and epochs[1].nvm_bytes_written > 0
    measured = [e for e in epochs if e.after_warmup]
    assert sum(e.nvm_bytes_written for e in measured) == cold.nvm_bytes_written
    assert sum(e.hits for e in measured) == cold.llc_hits


def test_record_epochs_false_suppresses_records():
    config, sim = sim_for()
    epoch = config.dueling.epoch_cycles
    res = sim.run(cycles=3 * epoch, warmup_cycles=0, record_epochs=False)
    assert res.epochs == []
    # dueling still advanced even without records
    assert sim.policy.controller.epochs_elapsed >= 2


def test_core_clocks_stay_close():
    """Burst interleaving must not let cores drift apart."""
    config, sim = sim_for("bh")
    epoch = config.dueling.epoch_cycles
    sim.run(cycles=2 * epoch, warmup_cycles=0)
    clocks = [core.cycles for core in sim.cores]
    spread = max(clocks) - min(clocks)
    assert spread < 0.05 * max(clocks)
