"""Re-record ``expected.json``: ``python3 perfbench/bless.py``.

Runs every workload once per workload seed (the campaign once per mix
pair) and stores the after-warm-up headline outputs the checks compare
against.  Re-bless only in a change that means to move simulated
results, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import run
import spans
from workloads import CAMPAIGN_PAIRS, EXPECTED_PATH, N_SEEDS, WORKLOADS, expected_ops


def main() -> int:
    env = run.hermetic_env()
    jobs = min(2, len(os.sched_getaffinity(0)))
    run.WORK.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    cli, campaign, explore = (WORKLOADS[n] for n in ("cli_cold", "campaign_fig6", "explore_tiny"))
    expected = {cli.name: {}, campaign.name: {"units": {}}, explore.name: {}}

    for seed in range(N_SEEDS):
        # The CLI prints no instruction count; the traced run's engine
        # hooks count it.
        trace_dir = Path(tempfile.mkdtemp(dir=run.WORK / "tmp"))
        entry = dict(run.run_iteration(cli, seed, env, jobs, trace_dir).observed.ops)
        entry["instructions"] = sum(spans.load(d).counters.get("engine.sim_instructions", 0)
                                    for d in trace_dir.glob("cmd*"))
        shutil.rmtree(trace_dir)
        expected[cli.name][str(seed)] = entry
        expected[explore.name][str(seed)] = run.run_iteration(
            explore, seed, env, jobs).observed.ops
        print("seed", seed, "done", flush=True)

    for seed in range(len(CAMPAIGN_PAIRS)):
        ops = run.run_iteration(campaign, seed, env, jobs).observed.ops
        expected[campaign.name]["units"].update(
            (op[len("cold "):], values) for op, values in ops.items() if op.startswith("cold "))
        print("campaign pair", seed, "done", flush=True)

    for name, seeds in ((cli.name, N_SEEDS), (explore.name, N_SEEDS),
                        (campaign.name, len(CAMPAIGN_PAIRS))):
        for seed in range(seeds):
            if not all(expected_ops(WORKLOADS[name], seed, expected).values()):
                raise SystemExit(f"bless: {name} seed {seed} produced no outputs")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
