"""Spans and counts around the public entry points of each ``repro`` layer.

:func:`install` wraps the functions named in :data:`HOOKS` in place,
from the benchmark's side: the program itself is not edited.  A
module-level function is also replaced wherever another ``repro``
module imported it by name.  A hook whose target no longer exists is
skipped and reported, so a refactor of the program degrades the trace
instead of breaking the benchmark.

Span names are ``<layer>.<what>``, the layer being the ``src/repro``
package the function lives in (the snapshot methods of ``Simulation``
belong to ``memo``, whose engine hook they are).  No hook sits inside
the per-access loop: the finest spans are whole ``Simulation.run``
calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from typing import Callable, List, Optional, Tuple

import spans as tracer


def _demand_accesses(hierarchy) -> int:
    return sum(core.accesses for core in hierarchy.stats.cores)


# Demand accesses counted before each warm-up statistics reset; the
# engine hook adds the part of them made inside its own run.
_accesses_before_resets = [0]


def _reset_stats(fn: Callable) -> Callable:
    def wrapper(hierarchy, *args, **kwargs):
        _accesses_before_resets[0] += _demand_accesses(hierarchy)
        return fn(hierarchy, *args, **kwargs)

    return wrapper


def _engine_run(fn: Callable) -> Callable:
    """``Simulation.run``/``run_until``: time, work done, headline counts."""

    def wrapper(sim, *args, **kwargs):
        accesses = _demand_accesses(sim.hierarchy) + _accesses_before_resets[0]
        instructions = sum(core.instructions for core in sim.cores)
        clock = min(core.cycles for core in sim.cores)
        with tracer.span("engine.run"):
            result = fn(sim, *args, **kwargs)
        tracer.count("engine.runs")
        tracer.note("engine.backend", sim.backend_name)
        tracer.count(
            "engine.demand_accesses",
            _demand_accesses(sim.hierarchy) + _accesses_before_resets[0] - accesses,
        )
        tracer.count(
            "engine.sim_instructions",
            sum(core.instructions for core in sim.cores) - instructions,
        )
        tracer.count("engine.sim_cycles", min(core.cycles for core in sim.cores) - clock)
        # Headline counts of each simulation's *last* measured window
        # (what its caller reports): add this window, take back the
        # one this simulation reported before.
        stats = result.stats
        window = {
            "cache.demand_accesses": sum(core.accesses for core in stats.cores),
            "cache.llc_accesses": stats.llc.accesses,
            "cache.llc_hits": stats.llc.hits,
            "nvm.bytes_written": stats.llc.nvm_bytes_written,
        }
        previous = sim.__dict__.get("_perfbench_window", {})
        for key, value in window.items():
            tracer.count(key, value - previous.get(key, 0))
        sim._perfbench_window = window
        return result

    return wrapper


def _counted(name: str) -> Callable:
    def after(result, args, kwargs) -> None:
        tracer.count(name)

    return after


def _lookup(name: str) -> Callable:
    def after(result, args, kwargs) -> None:
        tracer.count(f"{name}_lookups")
        if result is not None:
            tracer.count(f"{name}_hits")

    return after


def _wrote_bytes(result, args, kwargs) -> None:
    tracer.count("fsio.writes")
    tracer.count("fsio.bytes_written", len(args[1]))


def _replaced_file(result, args, kwargs) -> None:
    tracer.count("fsio.writes")
    try:
        tracer.count("fsio.bytes_written", os.path.getsize(args[1]))
    except OSError:
        pass


def _materialized(result, args, kwargs) -> None:
    tracer.count("workloads.materialized")
    tracer.count("workloads.records", len(result))


def _built(fn: Callable) -> Callable:
    """``build_workload``: a build is cold when it generated any trace."""

    def wrapper(*args, **kwargs):
        before = tracer.counter("workloads.materialized")
        with tracer.span("workloads.build"):
            result = fn(*args, **kwargs)
        tracer.count("workloads.builds")
        if tracer.counter("workloads.materialized") > before:
            tracer.count("workloads.cold_builds")
        return result

    return wrapper


def _campaign_report(result, args, kwargs) -> None:
    runner = args[0]
    tracer.note("harness.report", {
        "durations": sorted(result.durations.values()),
        "retries": result.retried_attempts,
        "failed": len(result.failed),
        "cache_hits": result.cache_hits,
        "jobs": runner.settings.jobs,
    })


def _unit_done(result, args, kwargs) -> None:
    # Pool workers are forked and never return to an exit handler, so
    # each unit's spans are written as soon as it ends.
    tracer.flush()


#: (module, attribute, span name or wrapper factory, after-callback).
HOOKS: List[Tuple[str, str, object, Optional[Callable]]] = [
    ("repro.cli", "main", "cli.main", None),
    ("repro.workloads.registry", "build_workload", _built, None),
    ("repro.workloads.trace", "materialize", "workloads.materialize", _materialized),
    ("repro.engine", "Simulation.__init__", "engine.init", None),
    ("repro.engine", "Simulation.run", _engine_run, None),
    ("repro.engine", "Simulation.run_until", _engine_run, None),
    ("repro.cache.hierarchy", "MemoryHierarchy.reset_stats", _reset_stats, None),
    ("repro.engine", "Simulation.snapshot", "memo.snapshot", _counted("memo.snapshots")),
    ("repro.engine", "Simulation.restore", "memo.restore", None),
    ("repro.memo.snapshots", "SnapshotStore.get", "memo.snapshot_lookup", _lookup("memo.snapshot")),
    ("repro.memo.results", "ResultCache.get", "memo.result_lookup", _lookup("memo.result_cache")),
    ("repro.memo.results", "ResultCache.put", "memo.result_store", None),
    ("repro.metrics.record", "RunRecord.from_simulation", "metrics.record", None),
    ("repro.metrics.record", "RunRecord.to_json", "metrics.record", None),
    ("repro.metrics.record", "RunRecord.validate", "metrics.record", None),
    ("repro.fsio.durable", "atomic_write_bytes", "fsio.write", _wrote_bytes),
    ("repro.fsio.durable", "durable_replace", "fsio.write", _replaced_file),
    ("repro.fsio.durable", "read_bytes", "fsio.read", None),
    ("repro.fsio.durable", "unwrap_json", "fsio.read", None),
    ("repro.fsio.durable", "unwrap_bytes", "fsio.read", None),
    ("repro.forecast.forecaster", "Forecaster.run", "forecast.run", None),
    ("repro.forecast.aging", "AgingModel.advance", "forecast.aging", None),
    ("repro.forecast.aging", "AgingModel.time_to_capacity", "forecast.aging", None),
    ("repro.forecast.aging", "AgingModel.capacities", "forecast.aging", None),
    ("repro.forecast.aging", "AgingModel.effective_capacity", "forecast.aging", None),
    ("repro.harness.scheduler", "CampaignRunner.run", "harness.campaign", _campaign_report),
    ("repro.harness.worker", "run_attempt", "harness.unit", _unit_done),
    ("repro.analytical.stats", "workload_statistics", "analytical.stats",
     _counted("analytical.stats_calls")),
    ("repro.analytical.model", "AnalyticalModel.estimate", "analytical.estimate",
     _counted("analytical.estimates")),
    ("repro.explore.explorer", "Explorer.run", "explore.run", None),
    # Stage methods: the explorer exposes no public per-stage entry.
    ("repro.explore.explorer", "Explorer._run_rung", "explore.rung", None),
    ("repro.explore.explorer", "Explorer._confirm", "explore.confirm", None),
]


def _wrap(fn: Callable, how, after: Optional[Callable]) -> Callable:
    if isinstance(how, str):
        return tracer.traced(how, fn, after)
    return functools.update_wrapper(how(fn), fn)


def resolve(module_name: str, attribute: str):
    """``(owner, name, raw attribute)`` of a hook target, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    except (ImportError, AttributeError, KeyError):
        return None
    return owner, name, raw


def install() -> List[str]:
    """Install every hook; returns the ones whose target is missing."""
    missing: List[str] = []
    replaced = {}
    for module_name, attribute, how, after in HOOKS:
        target = resolve(module_name, attribute)
        if target is None:
            missing.append(f"{module_name}:{attribute}")
            continue
        owner, name, raw = target
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(_wrap(raw.__func__, how, after)))
        else:
            wrapper = _wrap(raw, how, after)
            setattr(owner, name, wrapper)
            if not isinstance(owner, type):
                replaced[id(raw)] = (raw, wrapper)
    # Modules that imported a hooked function by name hold the original.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
    return missing
