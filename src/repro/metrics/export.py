"""Exporters: one RunRecord, four output formats, one schema check.

Everything behind ``python -m repro export``:

* **json**  — canonical JSON (the repo-wide content-hash rendering);
* **csv**   — flat ``record,metric,value,unit,layer,aggregation`` rows,
  one per registered metric, ready for pandas/spreadsheets;
* **jsonl** — an event stream: one ``task`` line per record (built
  from the campaign scheduler's heartbeat-derived manifest state) and
  one ``epoch`` line per recorded epoch;
* **prom**  — Prometheus text exposition (HELP/TYPE from the registry
  metadata, one labelled sample per record x metric).

``check_artifacts`` is the CI leg (``repro export --check``): every
committed ``BENCH_*.json`` and the golden digests must validate
against the *current* schema version and registry, so a metric rename
or schema bump can never silently orphan committed artefacts.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..manifest import canonical_json
from .record import RunRecord, SchemaError, is_run_record_payload
from .registry import REGISTRY, MetricRegistry

PathLike = Union[str, Path]

EXPORT_FORMATS: Tuple[str, ...] = ("json", "csv", "jsonl", "prom")

#: Committed artefacts ``--check`` validates (repo-root relative).
CHECKED_BENCH_GLOB = "benchmarks/results/BENCH_*.json"
CHECKED_GOLDENS = "tests/goldens/determinism.json"


class ExportError(ValueError):
    """A path that holds no readable RunRecords."""


# ----------------------------------------------------------------------
# Loading: files, worker envelopes, campaign directories.
def _ensure_registrations() -> None:
    """Import every metric-producing module.

    Validation of a detached record checks its metric names against the
    registry, and some registrations live in modules ``import repro``
    does not reach (experiment units, the bench runner).  Loading is
    the one place that must see the full registry, so it imports them.
    """
    from ..analytical import model as _analytical  # noqa: F401
    from ..bench import runner as _bench_runner  # noqa: F401
    from ..experiments import compressibility as _fig2  # noqa: F401
    from ..experiments import lifetime as _lifetime  # noqa: F401
    from ..explore import explorer as _explorer  # noqa: F401
    from ..fsio import health as _storage_health  # noqa: F401
    from ..harness import scheduler as _scheduler  # noqa: F401


def _record_from_payload(data: Any, source: str) -> RunRecord:
    try:
        return RunRecord.from_json(data)
    except SchemaError as exc:
        raise ExportError(f"{source}: {exc}") from None


def _records_from_file(path: Path) -> List[RunRecord]:
    from ..fsio.durable import BlobError, unwrap_json

    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ExportError(f"{path}: unreadable ({exc})") from None
    try:
        # Checksummed repro-blob/1 envelopes (bench artefacts, campaign
        # results) unwrap to their payload; pre-envelope files pass
        # through untouched.
        data = unwrap_json(data, path=path)
    except BlobError as exc:
        raise ExportError(f"{path}: corrupt envelope ({exc.reason})") from None
    if is_run_record_payload(data):
        return [_record_from_payload(data, str(path))]
    if isinstance(data, dict) and is_run_record_payload(data.get("result")):
        # A campaign worker envelope: lift the task identity into meta.
        record = _record_from_payload(data["result"], str(path))
        for key in ("task_id", "experiment", "unit", "scale"):
            if key in data:
                record.meta.setdefault(key, data[key])
        return [record]
    if isinstance(data, list) and data and all(
        is_run_record_payload(item) for item in data
    ):
        return [
            _record_from_payload(item, f"{path}[{i}]")
            for i, item in enumerate(data)
        ]
    raise ExportError(f"{path}: not a RunRecord, envelope, or list of them")


def _records_from_campaign(directory: Path) -> List[RunRecord]:
    # Imported lazily: the harness package is heavier than this module.
    from ..harness.manifest import CampaignManifest

    manifest = CampaignManifest.load(directory)
    records: List[RunRecord] = []
    for task_id, entry in sorted(manifest.tasks.items()):
        if entry.status != "complete" or not entry.result:
            continue
        for record in _records_from_file(directory / entry.result):
            # Scheduler-side state (from the heartbeat-driven manifest)
            # rides along so the JSONL task stream can report it.
            record.meta.setdefault("task_id", task_id)
            record.meta.setdefault("attempts", entry.attempts)
            if entry.sha256:
                record.meta.setdefault("result_sha256", entry.sha256)
            record.meta.setdefault("campaign_scale", manifest.scale)
            records.append(record)
    # The campaign health record (scheduler.* / storage.* counters plus
    # per-shard wall clocks) rides along when present, so the file
    # exporter and the service's /metrics endpoint read the same spine.
    from ..harness.scheduler import HEALTH_RECORD_NAME

    health_path = directory / HEALTH_RECORD_NAME
    if health_path.exists():
        records.extend(_records_from_file(health_path))
    if not records:
        raise ExportError(f"{directory}: campaign has no completed results")
    return records


def load_records(paths: Sequence[PathLike]) -> List[RunRecord]:
    """Every RunRecord found at ``paths`` (files or campaign dirs)."""
    _ensure_registrations()
    records: List[RunRecord] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            records.extend(_records_from_campaign(path))
        else:
            records.extend(_records_from_file(path))
    return records


# ----------------------------------------------------------------------
# Formats.
def record_label(record: RunRecord, index: int) -> str:
    """A stable display label for one record within an export."""
    for key in ("task_id", "label"):
        value = record.meta.get(key)
        if isinstance(value, str) and value:
            return value
    return f"{record.kind}[{index}]"


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # full precision survives the round-trip
    return str(value)


def to_canonical_json(records: Sequence[RunRecord]) -> str:
    """Canonical JSON: one object for one record, else a list."""
    payloads = [r.to_json() for r in records]
    document = payloads[0] if len(payloads) == 1 else payloads
    return canonical_json(document) + "\n"


def to_flat_csv(
    records: Sequence[RunRecord], registry: MetricRegistry = REGISTRY
) -> str:
    """One CSV row per (record, registered metric)."""
    lines = ["record,kind,metric,value,unit,layer,aggregation"]
    for index, record in enumerate(records):
        label = record_label(record, index)
        for name in sorted(record.metrics):
            spec = registry.get(name)
            lines.append(
                ",".join(
                    (
                        label,
                        record.kind,
                        name,
                        _cell(record.metrics[name]),
                        spec.unit,
                        spec.layer,
                        spec.aggregation,
                    )
                )
            )
    return "\n".join(lines) + "\n"


def to_jsonl_events(records: Sequence[RunRecord]) -> str:
    """One ``task`` line per record, one line per recorded event."""
    lines: List[str] = []
    for index, record in enumerate(records):
        label = record_label(record, index)
        lines.append(
            canonical_json(
                {
                    "event": "task",
                    "record": label,
                    "kind": record.kind,
                    "schema": record.schema,
                    "meta": record.meta,
                    "metrics": record.metrics,
                }
            )
        )
        for event in record.events:
            lines.append(canonical_json({"record": label, **event}))
    return "\n".join(lines) + "\n"


def _prom_name(metric_name: str) -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", metric_name)


def to_prometheus(
    records: Sequence[RunRecord], registry: MetricRegistry = REGISTRY
) -> str:
    """Prometheus text exposition format (counters/gauges + labels)."""
    names: List[str] = []
    seen = set()
    for record in records:
        for name in record.metrics:
            if name not in seen:
                seen.add(name)
                names.append(name)
    lines: List[str] = []
    for name in sorted(names):
        spec = registry.get(name)
        prom = _prom_name(name)
        kind = "counter" if spec.aggregation == "sum" else "gauge"
        lines.append(f"# HELP {prom} {spec.doc} [{spec.unit}]")
        lines.append(f"# TYPE {prom} {kind}")
        for index, record in enumerate(records):
            value = record.metrics.get(name)
            if value is None:
                continue
            label = record_label(record, index).replace('"', r"\"")
            lines.append(f'{prom}{{record="{label}"}} {_cell(value)}')
    return "\n".join(lines) + "\n"


_EXPORTERS = {
    "json": to_canonical_json,
    "csv": to_flat_csv,
    "jsonl": to_jsonl_events,
    "prom": to_prometheus,
}


def export_records(records: Sequence[RunRecord], fmt: str) -> str:
    try:
        exporter = _EXPORTERS[fmt]
    except KeyError:
        raise ExportError(
            f"unknown export format {fmt!r}; choose from {EXPORT_FORMATS}"
        ) from None
    return exporter(records)


# ----------------------------------------------------------------------
# --check: committed artefacts vs the current schema version.
def check_artifacts(
    repo_root: PathLike = ".",
    extra_paths: Sequence[PathLike] = (),
) -> Tuple[List[str], List[str]]:
    """Validate committed artefacts; returns (checked, errors)."""
    _ensure_registrations()
    root = Path(repo_root)
    checked: List[str] = []
    errors: List[str] = []

    bench_paths = sorted(root.glob(CHECKED_BENCH_GLOB))
    if not bench_paths:
        errors.append(f"no committed artefacts match {CHECKED_BENCH_GLOB}")
    for path in list(bench_paths) + [Path(p) for p in extra_paths]:
        checked.append(str(path))
        try:
            records = _records_from_file(path)
        except ExportError as exc:
            errors.append(str(exc))
            continue
        for record in records:
            if record.kind == "bench":
                # Matrix benches carry "cases"; the memo, explorer and
                # service benches carry their namesake sections — each
                # must keep its schema-tagged document for the
                # consumers (``compare``, the speedup gates) to read.
                document = record.values.get("document")
                if (
                    not isinstance(document, dict)
                    or "schema" not in document
                    or not ({"cases", "memo", "explore", "service"}
                             & set(document))
                ):
                    errors.append(
                        f"{path}: bench record has no embedded document"
                    )

    goldens_path = root / CHECKED_GOLDENS
    checked.append(str(goldens_path))
    from ..memo.fingerprint import EMBEDDED_GOLDEN_DIGESTS

    try:
        committed = json.loads(goldens_path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{goldens_path}: unreadable ({exc})")
    else:
        if committed != EMBEDDED_GOLDEN_DIGESTS:
            errors.append(
                f"{goldens_path}: digests diverge from the embedded "
                "literal in repro.memo.fingerprint"
            )

    errors.extend(_registry_drift_errors())
    return checked, errors


def _registry_drift_errors(registry: MetricRegistry = REGISTRY) -> List[str]:
    """Declared layers must still match the producing dataclasses."""
    import dataclasses

    from ..cache.stats import CoreStats, LLCStats
    from ..timing.energy import EnergyBreakdown

    errors: List[str] = []
    llc_declared = [s.short_name for s in registry.by_layer("llc")]
    llc_fields = [f.name for f in dataclasses.fields(LLCStats)]
    if llc_declared != llc_fields:
        errors.append(
            "registry drift: llc layer declares "
            f"{llc_declared} but LLCStats has fields {llc_fields}"
        )
    core_declared = {s.short_name for s in registry.by_layer("core")}
    core_fields = {f.name for f in dataclasses.fields(CoreStats)}
    if not core_fields <= core_declared:
        errors.append(
            "registry drift: core layer is missing "
            f"{sorted(core_fields - core_declared)}"
        )
    energy = EnergyBreakdown()
    for spec in registry.by_layer("energy"):
        if not hasattr(energy, spec.source_attr):
            errors.append(
                f"registry drift: EnergyBreakdown has no {spec.source_attr!r}"
            )
    # The campaign health record is built by collect()ing these two
    # layers straight off their producing objects, so a renamed field
    # there must show up here, not as a silent zero in /metrics.
    from ..fsio.health import StorageHealth
    from ..harness.scheduler import CampaignReport

    report = CampaignReport(total=0)
    for spec in registry.by_layer("scheduler"):
        if not hasattr(report, spec.source_attr):
            errors.append(
                f"registry drift: CampaignReport has no {spec.source_attr!r}"
            )
    storage = StorageHealth()
    for spec in registry.by_layer("storage"):
        if not hasattr(storage, spec.source_attr):
            errors.append(
                f"registry drift: StorageHealth has no {spec.source_attr!r}"
            )
    for spec in registry:
        if spec.unit == "" or spec.doc == "":
            errors.append(f"metric {spec.name} lacks unit/doc metadata")
    return errors
