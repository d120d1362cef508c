"""Tests of the benchmark's own logic: ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Observation, compare, expected_ops  # noqa: E402

MS = 1_000_000  # ns


def _span(sid, parent, name, start_ms, end_ms, pid=1):
    return spans.Span(sid, parent, name, pid, start_ms * MS, end_ms * MS)


@pytest.fixture
def tree():
    # root 0-100 in run.py's process; A 10-40 with child A1 15-20 in process 2;
    # B 30-60 in process 3 runs beside A.
    root = _span("1.1", None, "bench.iteration", 0, 100)
    return root, [
        root,
        _span("2.1", "1.1", "engine.run", 10, 40, pid=2),
        _span("2.2", "2.1", "memo.snapshot", 15, 20, pid=2),
        _span("3.1", "1.1", "fsio.write", 30, 60, pid=3),
    ]


def test_self_time_subtracts_the_union_of_children(tree):
    _, all_spans = tree
    got = spans.self_times(all_spans)
    assert got == pytest.approx({
        "bench.iteration": 0.050,  # 100 - union(10-40, 30-60)
        "engine.run": 0.025,
        "memo.snapshot": 0.005,
        "fsio.write": 0.030,
    })


def test_wall_budget_splits_overlap_and_closes(tree):
    root, all_spans = tree
    budget = spans.wall_budget(all_spans, root, ["engine", "memo", "fsio"])
    # 30-40 has two innermost spans (engine, fsio): 5 ms each.
    assert budget == pytest.approx({"engine": 0.020, "memo": 0.005,
                                    "fsio": 0.025, "other": 0.050})
    assert sum(budget.values()) == pytest.approx(root.duration / 1e9, abs=1e-12)


def test_wall_budget_of_unnamed_layers_is_other(tree):
    root, all_spans = tree
    assert spans.wall_budget(all_spans, root, []) == pytest.approx({"other": 0.1})


def test_chrome_trace_has_one_complete_event_per_span(tree):
    _, all_spans = tree
    doc = spans.chrome_trace(all_spans, {1: "run.py"}, {"k": 1})
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(all_spans)
    assert {e["name"] for e in complete} == {s.name for s in all_spans}
    assert doc["otherData"] == {"k": 1}


def test_recorded_spans_nest():
    with spans.span("outer.a") as outer:
        with spans.span("inner.b") as inner:
            pass
    recorded = {s.id: s for s in spans.recorded().spans}
    assert recorded[inner.id].parent == outer.id
    assert recorded[outer.id].start <= recorded[inner.id].start
    assert recorded[inner.id].end <= recorded[outer.id].end


def test_default_seed_runs_mix1_mix4_and_mapping_is_deterministic():
    assert workloads.campaign_mixes(0) == ("mix1", "mix4")
    assert [workloads.campaign_mixes(s) for s in range(20)] == \
        [workloads.campaign_mixes(s) for s in range(20)]
    assert workloads.campaign_mixes(7) == workloads.campaign_mixes(7 + len(workloads.CAMPAIGN_PAIRS))
    for pair in workloads.CAMPAIGN_PAIRS:
        assert len(set(pair)) == 2
        assert all(mix in {f"mix{i}" for i in range(1, 11)} for mix in pair)


def test_seed_reaches_every_command():
    cli = workloads.WORKLOADS["cli_cold"]
    for cmd in cli.commands(11, Path("w"), 2):
        assert cmd.argv[cmd.argv.index("--seed") + 1] == str(11 % workloads.N_SEEDS)
    campaign = workloads.WORKLOADS["campaign_fig6"]
    cold = campaign.commands(1, Path("w"), 2)[0]
    assert cold.argv[cold.argv.index("--workloads") + 1] == "mix2,mix9"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_expected_value_is_a_failed_operation(name):
    workload = workloads.WORKLOADS[name]
    expected = expected_ops(workload, 0)
    assert expected, f"no expected outputs for {name} seed 0"
    observed = Observation(copy.deepcopy(expected), 1.0, ())
    assert compare(observed, expected) == []

    op = sorted(expected)[0]
    key = sorted(expected[op])[0]
    perturbed = copy.deepcopy(expected)
    perturbed[op][key] = "not-the-expected-value"
    failures = compare(observed, perturbed)
    assert len(failures) == 1 and failures[0].startswith(op + ":")


def test_missing_operation_is_a_failed_operation():
    expected = expected_ops(workloads.WORKLOADS["cli_cold"], 0)
    observed = Observation({op: None for op in expected}, 0.0, ())
    assert len(compare(observed, expected)) == len(expected)


def test_parse_table_reads_the_last_table():
    text = "\n".join([
        "cp_sd on mix1 (smoke scale)",
        "metric             value       ",
        "-----------------  ------------",
        "mean IPC           0.945       ",
        "hits SRAM / NVM    5689 / 14099",
        "",
    ])
    assert workloads.parse_table(text) == [["mean IPC", "0.945"],
                                           ["hits SRAM / NVM", "5689 / 14099"]]


def _declared(section):
    return [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]]


def test_end_to_end_metrics_are_the_declared_ones():
    passes = [run.Iteration(wall, 2 * wall, 50.0, 4, failures, Observation({}, 3e6, ()))
              for wall, failures in ((1.0, []), (3.0, ["x: exit 1"]), (2.0, []))]
    values = run.e2e_values(passes, setup_s=0.5)
    assert list(values) == _declared("end_to_end")
    assert values["wall_s"] == 2.0 and values["cpu_s"] == 4.0
    assert values["sim_minst_per_s"] == pytest.approx(1.5)
    assert values["ops_ok_frac"] == pytest.approx(11 / 12)


def test_per_layer_metrics_are_the_declared_ones(tree):
    root, all_spans = tree
    values, budget = run.layer_metrics(all_spans, root, {}, [], untraced_wall=0.1)
    assert list(values) == _declared("per_layer")
    assert sum(budget.values()) == pytest.approx(0.1)
    assert values["engine.run_s"] == pytest.approx(0.025)
    assert values["trace.coverage"] == pytest.approx(0.5)


def test_every_hook_target_exists():
    sys.path.insert(0, str(run.ROOT / "src"))
    import hooks

    missing = [f"{m}:{a}" for m, a, _, _ in hooks.HOOKS if hooks.resolve(m, a) is None]
    assert missing == []
