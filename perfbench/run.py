"""Repository benchmark: ``python3 perfbench/run.py --workload NAME [...]``.

Runs one workload (see ``workloads.py``) from the root of a checkout and
prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``.  Untraced (``--trace 0``) it reports the end-to-end
metrics of ``BENCHMARK.json``; traced (``--trace 1``) the per-layer
ones, and writes a Chrome trace to ``.perfbench/traces/``.  See
``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import (WORKLOADS, Observation, Proc, Workload, compare,  # noqa: E402
                       expected_ops)

ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
# No process of a workload takes more than ~20 s here; a hung one is
# killed early enough for the run to end within its 180 s limit.
PROCESS_TIMEOUT_S = 90.0
LAYERS = ("cli", "workloads", "engine", "forecast", "memo", "metrics", "fsio",
          "harness", "analytical", "explore")


def hermetic_env() -> Dict[str, str]:
    """The caller's environment minus ``REPRO_*``, ``PERFBENCH_*`` and ``PYTHON*``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PERFBENCH_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Byte code goes to the work directory, so the source tree stays as
    # checked out and every run imports from the same warm cache.
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_process(argv: Sequence[str], env: Dict[str, str], cwd: Path) -> Proc:
    """Run one process to its end; wall, CPU and peak RSS from ``wait4``.

    The rusage ``wait4`` returns covers the process and every child it
    waited for (campaign workers), with ``ru_maxrss`` the largest of them.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), env=env, cwd=cwd, stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:  # nothing the process started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"))


class Iteration(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float
    attempted: int
    failures: List[str]
    observed: Observation


def run_iteration(workload: Workload, seed: int, env: Dict[str, str], jobs: int,
                  trace_dir: Optional[Path] = None) -> Iteration:
    """One closed-loop pass over the workload's commands in a fresh directory."""
    workdir = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
    try:
        procs: List[Proc] = []
        commands = workload.commands(seed, workdir, jobs)
        start = time.perf_counter()
        for i, cmd in enumerate(commands):
            if trace_dir is None:
                procs.append(run_process([sys.executable, "-m", "repro", *cmd.argv],
                                         env, workdir))
                continue
            with spans.span(f"bench.{cmd.label.replace(' ', '_')}") as s:
                cmd_dir = trace_dir / f"cmd{i}"
                cmd_dir.mkdir(parents=True)
                traced_env = dict(env, **{spans.TRACE_DIR_ENV: str(cmd_dir),
                                          spans.PARENT_ENV: s.id})
                procs.append(run_process(
                    [sys.executable, str(HERE / "child.py"), "cli", *cmd.argv],
                    traced_env, workdir))
        wall = time.perf_counter() - start
        observed = workload.observe(seed, workdir, procs)
        expected = expected_ops(workload, seed)
        failures = compare(observed, expected)
        for cmd, proc in zip(commands, procs):
            if proc.rc != 0:
                tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
                failures.append(f"{cmd.label}: exit {proc.rc}: {tail}")
        return Iteration(wall, sum(p.cpu for p in procs), max(p.rss_mb for p in procs),
                         max(1, len(expected)), failures, observed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: Workload, seed: int, env: Dict[str, str]) -> Tuple[float, dict]:
    """Median wall of fresh processes importing repro.cli and cold-building."""
    walls, info = [], {}
    argv = [sys.executable, str(HERE / "child.py"), "setup", *workload.setup_targets(seed)]
    for _ in range(SETUP_REPEATS):
        proc = run_process(argv, env, ROOT)
        if proc.rc != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        walls.append(proc.wall)
        info = json.loads(proc.stdout.strip().splitlines()[-1])
    return statistics.median(walls), info


def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def host_fingerprint() -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def tally(runs: Sequence[Iteration]) -> Tuple[int, int]:
    """(attempted, failed) operations over ``runs``."""
    attempted = sum(r.attempted for r in runs)
    return attempted, min(attempted, sum(len(r.failures) for r in runs))


def end_to_end(workload: Workload, seed: int, seconds: float, env, jobs):
    """Set-up probes, then passes until ``seconds`` have gone; medians."""
    setup_s, info = measure_setup(workload, seed, env)
    runs: List[Iteration] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(run_iteration(workload, seed, env, jobs))
    print(f"{workload.name} seed {seed}: {len(runs)} runs, walls "
          + " ".join(f"{r.wall:.3f}" for r in runs) + f" s; set-up {setup_s:.3f} s")
    backends = {"backend_configured": info.get("backend"),
                "backend_ran": sorted({b for r in runs for b in r.observed.backends})}
    return runs, e2e_values(runs, setup_s), backends


def e2e_values(runs: Sequence[Iteration], setup_s: float) -> Dict[str, float]:
    attempted, failed = tally(runs)
    return {
        "wall_s": statistics.median(r.wall for r in runs),
        "setup_s": setup_s,
        "cpu_s": statistics.median(r.cpu for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "sim_minst_per_s": statistics.median(r.observed.instructions / r.wall / 1e6 for r in runs),
        "ops_ok_frac": 1.0 - failed / attempted,
    }


def per_layer(workload: Workload, seed: int, env, jobs):
    """One untraced pass, one traced pass; per-layer metrics and a trace file."""
    untraced = run_iteration(workload, seed, env, jobs)
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_dir = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
    try:
        with spans.span("bench.iteration") as root_span:
            traced = run_iteration(workload, seed, env, jobs, trace_dir)
        own = spans.recorded()
        commands = [spans.load(d) for d in sorted(trace_dir.glob("cmd*"))]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    all_spans = own.spans + [s for c in commands for s in c.spans]
    root = next(s for s in own.spans if s.id == root_span.id)
    counters: Dict[str, float] = {}
    for c in commands:
        for key, value in c.counters.items():
            counters[key] = counters.get(key, 0) + value
    reports = [r for c in commands for r in c.notes.get("harness.report", [])]
    values, budget = layer_metrics(all_spans, root, counters, reports, untraced.wall)
    closure = sum(budget.values()) - root.duration / 1e9
    if abs(closure) > 1e-6:
        traced.failures.append(f"trace budget does not close: off by {closure:.9f} s")

    path = WORK / "traces" / f"{workload.name}-seed{seed}.json"
    names = {os.getpid(): "perfbench run.py"}
    for c in commands:
        for s in c.spans:
            names.setdefault(s.pid, f"repro (pid {s.pid})")
    meta = {"workload": workload.name, "seed": seed, "budget_s": budget, "metrics": values}
    path.write_text(json.dumps(spans.chrome_trace(all_spans, names, meta)))
    print(f"trace: {path.relative_to(ROOT)}")
    print("wall budget (s):  " + "  ".join(
        f"{k} {v:.3f}" for k, v in sorted(budget.items(), key=lambda kv: -kv[1])))
    backends = {"backend_ran": sorted({b for c in commands
                                       for b in c.notes.get("engine.backend", [])})}
    return [untraced, traced], values, backends


def declared_units() -> Dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def layer_metrics(all_spans, root, counters, reports, untraced_wall):
    """Per-layer metrics of one traced run, and its wall budget."""
    own = spans.self_times(all_spans)
    total = spans.inclusive_times(all_spans)

    def c(key: str) -> float:
        return counters.get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def layer_self(layer: str) -> float:
        return sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)
    wall = root.duration / 1e9
    budget = spans.wall_budget(all_spans, root, LAYERS)
    cold = reports[0] if reports else None
    campaign_spans = [s for s in all_spans if s.name == "harness.campaign"]
    rerun = [s for s in all_spans if s.name == "bench.campaign_rerun"]
    m = {
        "cli.import_s": own.get("cli.import", 0.0),
        "workloads.build_s": layer_self("workloads"),
        "workloads.builds": c("workloads.builds"),
        "workloads.cold_builds": c("workloads.cold_builds"),
        "workloads.records_per_s": ratio(c("workloads.records"), layer_self("workloads")),
        "engine.run_s": own.get("engine.run", 0.0),
        "engine.runs": c("engine.runs"),
        "engine.ns_per_access": ratio(own.get("engine.run", 0.0) * 1e9,
                                      c("engine.demand_accesses")),
        "engine.sim_cycles": c("engine.sim_cycles"),
        "engine.sim_instructions": c("engine.sim_instructions"),
        "cache.demand_accesses": c("cache.demand_accesses"),
        "cache.llc_accesses": c("cache.llc_accesses"),
        "cache.llc_hit_rate": ratio(c("cache.llc_hits"), c("cache.llc_accesses")),
        "nvm.bytes_written": c("nvm.bytes_written"),
        "forecast.run_s": own.get("forecast.run", 0.0),
        "forecast.aging_s": own.get("forecast.aging", 0.0),
        "memo.snapshot_s": own.get("memo.snapshot", 0.0),
        "memo.snapshots": c("memo.snapshots"),
        "memo.restore_s": own.get("memo.restore", 0.0),
        "memo.snapshot_hits": c("memo.snapshot_hits"),
        "memo.snapshot_hit_ratio": ratio(c("memo.snapshot_hits"), c("memo.snapshot_lookups")),
        "memo.result_cache_hit_ratio": ratio(c("memo.result_cache_hits"),
                                             c("memo.result_cache_lookups")),
        "memo.rerun_s": sum(s.duration for s in rerun) / 1e9,
        "metrics.record_s": layer_self("metrics"),
        "fsio.write_s": own.get("fsio.write", 0.0),
        "fsio.writes": c("fsio.writes"),
        "fsio.bytes_written": c("fsio.bytes_written"),
        "fsio.read_s": own.get("fsio.read", 0.0),
        "harness.unit_p50_s": statistics.median(cold["durations"]) if cold and cold["durations"] else 0.0,
        "harness.unit_max_s": max(cold["durations"]) if cold and cold["durations"] else 0.0,
        "harness.overhead_s": (campaign_spans[0].duration / 1e9
                               - sum(cold["durations"]) / max(1, cold["jobs"] or 1))
                              if cold and campaign_spans else 0.0,
        "harness.retries": sum(r["retries"] for r in reports),
        "harness.failed_units": sum(r["failed"] for r in reports),
        "analytical.stats_s": own.get("analytical.stats", 0.0),
        "analytical.stats_calls": c("analytical.stats_calls"),
        "analytical.estimate_s": own.get("analytical.estimate", 0.0),
        "analytical.estimates": c("analytical.estimates"),
        "explore.rungs_s": total.get("explore.rung", 0.0),
        "explore.confirm_s": total.get("explore.confirm", 0.0),
        "trace.coverage": 1.0 - budget["other"] / wall,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    }
    return m, budget


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    env = hermetic_env()
    jobs = min(2, len(os.sched_getaffinity(0)))
    warm = run_process([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
                        str(HERE)], env, ROOT)
    if warm.rc != 0:
        print(f"perfbench: cannot compile the sources: {warm.stdout[-400:]}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs, values, backends = per_layer(workload, args.seed, env, jobs)
        else:
            runs, values, backends = end_to_end(workload, args.seed, args.seconds, env, jobs)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = tally(runs)
    for r in runs:
        for failure in r.failures:
            print(f"FAILED {workload.name} seed {args.seed}: {failure}")
    print("host: " + json.dumps({**host_fingerprint(), **backends}))
    units = declared_units()
    for name, value in values.items():
        print(f"  {name:30s} {value:18.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
