"""Campaign task registry: every experiment as a list of retryable units.

The monolithic ``run_fig*`` functions are perfect for interactive use
but hostile to fault tolerance: one crash loses hours of completed
work.  This module decomposes each registered experiment into *units*
— the smallest independently-runnable (figure x mix x policy) cells —
so the campaign harness (:mod:`repro.harness`) can execute, retry,
checkpoint and resume them individually.

A unit is a plain JSON-able dict of keyword arguments; running one is
``EXPERIMENTS[name].run(scale, **unit)``, which returns a JSON-able,
*deterministic* result dict (same unit + scale => byte-identical
serialisation — the property the resume machinery checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

from .bench_cells import enumerate_bench_cell_units, run_bench_cell_unit
from .common import ExperimentScale
from .compressibility import enumerate_fig2_units, run_fig2_unit
from .cpth_sweep import enumerate_cpth_units, run_cpth_unit
from .lifetime import enumerate_lifetime_units, run_lifetime_unit
from .optimal_cpth import enumerate_fig8_units, run_fig8_unit
from .tables import enumerate_table_units, run_table_unit
from .th_tradeoff import enumerate_fig9_units, run_fig9_unit


@dataclass(frozen=True)
class ExperimentDef:
    """One campaign-runnable experiment."""

    name: str
    enumerate_units: Callable[[ExperimentScale], List[dict]]
    run_unit: Callable[..., dict]
    description: str = ""


EXPERIMENTS: Dict[str, ExperimentDef] = {
    d.name: d
    for d in (
        ExperimentDef(
            "tables",
            enumerate_table_units,
            run_table_unit,
            "Tables I-V regenerated from the live code",
        ),
        ExperimentDef(
            "fig2",
            enumerate_fig2_units,
            run_fig2_unit,
            "Fig. 2 per-app compressibility split",
        ),
        ExperimentDef(
            "fig6",
            enumerate_cpth_units,
            run_cpth_unit,
            "Figs. 6/7 CP_th sweep (raw per-run counters)",
        ),
        ExperimentDef(
            "fig8a",
            enumerate_fig8_units,
            run_fig8_unit,
            "Fig. 8a winner distribution vs NVM capacity",
        ),
        ExperimentDef(
            "fig9",
            enumerate_fig9_units,
            run_fig9_unit,
            "Fig. 9 Th tradeoff (raw per-run counters)",
        ),
        ExperimentDef(
            "fig10a",
            enumerate_lifetime_units,
            run_lifetime_unit,
            "Fig. 10a performance-vs-lifetime forecasts",
        ),
        ExperimentDef(
            "bench_cells",
            enumerate_bench_cell_units,
            run_bench_cell_unit,
            "uniform (policy x mix) engine cells for scaling benchmarks",
        ),
    )
}

#: Experiments scheduled by a default ``repro campaign`` run: the
#: paper's figures and tables.  ``bench_cells`` reproduces nothing and
#: is deliberately excluded — it runs only when named explicitly
#: (``--experiments bench_cells``, or the ``--memo``/``--service``
#: benches).
EXPERIMENT_NAMES = tuple(sorted(set(EXPERIMENTS) - {"bench_cells"}))

#: Every campaign-runnable experiment, benchmark cells included.
ALL_EXPERIMENT_NAMES = tuple(sorted(EXPERIMENTS))


def unit_id(unit: Mapping) -> str:
    """Stable, filename-safe identifier of one unit's parameters."""
    return ",".join(f"{key}={unit[key]}" for key in sorted(unit))


@dataclass(frozen=True)
class CampaignTask:
    """One schedulable (experiment, unit) cell of a campaign."""

    experiment: str
    unit: Mapping

    @property
    def task_id(self) -> str:
        return f"{self.experiment}/{unit_id(self.unit)}"

    @property
    def filename(self) -> str:
        return self.task_id.replace("/", "__") + ".json"


def enumerate_campaign_tasks(
    experiments: Sequence[str], scale: ExperimentScale
) -> List[CampaignTask]:
    """All units of the named experiments, in a stable order."""
    tasks: List[CampaignTask] = []
    for name in experiments:
        try:
            define = EXPERIMENTS[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}"
            ) from None
        for unit in define.enumerate_units(scale):
            tasks.append(CampaignTask(name, dict(unit)))
    return tasks


def run_campaign_task(experiment: str, unit: Mapping, scale_name: str) -> dict:
    """Execute one unit (inside a campaign worker process).

    Every unit runner returns a :class:`~repro.metrics.RunRecord`;
    the worker envelope stores its validated JSON payload, so campaign
    results, the memo result cache and the exporters all share the one
    versioned record shape.
    """
    from ..metrics import RunRecord
    from ..workloads.registry import WorkloadRefError, parse_workload_ref
    from .common import get_scale

    scale = get_scale(scale_name)
    record = EXPERIMENTS[experiment].run_unit(scale, **dict(unit))
    if isinstance(record, RunRecord):
        record.meta.setdefault("scale", scale.name)
        ref = dict(unit).get("mix")
        if isinstance(ref, str):
            # Stamp the producing workload family so `repro export`
            # and service health records can report it even for units
            # whose runner predates the registry.
            try:
                family, target = parse_workload_ref(ref)
            except WorkloadRefError:
                pass
            else:
                record.meta.setdefault("workload_family", family)
                record.meta.setdefault("workload_target", target)
        return record.to_json()
    return record
