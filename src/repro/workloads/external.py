"""External trace ingestion: imported access traces as a workload family.

The importer converts ChampSim/gem5-style access traces — exported to
the interchange CSV below — into the repo's native ``.trc`` +
``.sizes`` mmap/sidecar formats, checksummed end to end, so imported
workloads inherit zero-copy loading, campaign units, memoization and
RunRecords exactly like the synthetic families.

Interchange format (one access per line)::

    core,gap,addr,is_write

``core`` is the issuing core (0-based, < the declared core count);
``gap`` the non-memory instructions since that core's previous access;
``addr`` a decimal or ``0x``-hex address — block-aligned by default
(``--addr-kind block``), or a raw byte address (``--addr-kind byte``,
shifted by log2(64) on import).  Blank lines, ``#`` comments and an
optional header line are ignored.  Converting a recorded trace to
this shape is a few lines of the recorder's own tooling; the
*validation* lives here.

Imported target layout (under the root named by the
``REPRO_EXTERNAL_WORKLOADS`` environment variable)::

    <root>/<name>/target.json   # checksummed fsio envelope (identity)
    <root>/<name>/core<k>.trc   # one validated binary trace per core
    <root>/<name>/core<k>.sizes # compressed-size sidecar per core

``target.json`` records the source digest, per-file SHA-256s and the
declared compressibility split; :class:`ExternalFamily` re-verifies
every file against it on build.  Malformed records raise
:class:`~repro.workloads.traceio.TraceFormatError` naming the line;
corrupt on-disk artefacts are quarantined through :mod:`repro.fsio`
and either fail the build (traces, manifest) or are deterministically
redrawn and counted (size sidecars) — an imported trace can be
*unusable*, never silently wrong.
"""

from __future__ import annotations

import io
import json
import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import resolve_external_root
from ..fsio.durable import (
    BlobError,
    atomic_write_bytes,
    durable_replace,
    payload_bytes,
    read_bytes,
    unwrap_json,
    wrap_json,
)
from ..fsio.quarantine import quarantine_file
from ..manifest import library_info
from .cache import SidecarError, read_sizes_file, write_sizes_file
from .data import DataModel
from .profiles import AppProfile, make_comp_weights
from .registry import TargetSpec, WorkloadFamily, register_family
from .trace import CORE_ADDR_SHIFT, MaterializedTrace, TraceRecord
from .traceio import (
    MAX_BLOCK_OFFSET,
    TraceFormatError,
    file_sha256,
    load_trace_mmap,
    save_trace,
)

PathLike = Union[str, Path]

#: Envelope schema tag of ``target.json`` identity records.
TARGET_SCHEMA = "repro-workload-target/1"
TARGET_NAME = "target.json"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _parse_addr(text: str) -> int:
    text = text.strip()
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def parse_interchange_csv(
    source: Union[PathLike, io.TextIOBase],
    cores: int,
    addr_kind: str = "block",
) -> List[List[TraceRecord]]:
    """Parse and validate the interchange CSV into per-core records.

    Every structural defect — wrong field count, unparsable numbers,
    a core outside the declared count, an address offset that does
    not fit the per-core address slice, a core with no records —
    raises :class:`TraceFormatError` naming the file and line.  The
    returned records carry the final simulator addresses (core id in
    bits :data:`CORE_ADDR_SHIFT` and up).
    """
    if cores < 1:
        raise ValueError("need at least one core")
    if addr_kind not in ("block", "byte"):
        raise ValueError(f"addr_kind must be 'block' or 'byte', not {addr_kind!r}")
    own = not hasattr(source, "read")
    fh = open(source) if own else source
    path = source if own else getattr(source, "name", "<stream>")
    per_core: List[List[TraceRecord]] = [[] for _ in range(cores)]
    seen_data = False
    try:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # a "core,gap,..." header is legal on the first data-ish
            # line (comments/blanks may precede it), nowhere else
            if not seen_data and line.lower().startswith("core,"):
                continue
            seen_data = True
            parts = line.split(",")
            if len(parts) != 4:
                raise TraceFormatError(
                    path, f"line {line_no}: expected 4 fields, got {len(parts)}"
                )
            try:
                core = int(parts[0])
                gap = int(parts[1])
                addr = _parse_addr(parts[2])
            except ValueError:
                raise TraceFormatError(
                    path, f"line {line_no}: unparsable record {line!r}"
                ) from None
            is_write = parts[3].strip() not in ("0", "", "false", "False")
            if not 0 <= core < cores:
                raise TraceFormatError(
                    path,
                    f"line {line_no}: core {core} out of range "
                    f"(declared {cores} cores)",
                )
            if gap < 0:
                raise TraceFormatError(path, f"line {line_no}: negative gap")
            if addr < 0:
                raise TraceFormatError(path, f"line {line_no}: negative address")
            block = addr >> 6 if addr_kind == "byte" else addr
            if block >= MAX_BLOCK_OFFSET:
                raise TraceFormatError(
                    path,
                    f"line {line_no}: block address {block:#x} does not fit "
                    f"the {CORE_ADDR_SHIFT}-bit per-core address slice",
                )
            per_core[core].append(
                TraceRecord(gap, (core << CORE_ADDR_SHIFT) | block, is_write)
            )
    finally:
        if own:
            fh.close()
    for core, records in enumerate(per_core):
        if not records:
            raise TraceFormatError(
                path, f"core {core} has no records (declared {cores} cores)"
            )
    return per_core


def _surrogate_profile(
    target: str,
    core: int,
    footprint_blocks: int,
    gap_mean: float,
    write_fraction: float,
    hcr: float,
    lcr: float,
) -> AppProfile:
    """A stand-in profile carrying an imported core's *statistics*.

    Imported traces replay as recorded — the profile never generates
    records — but the :class:`DataModel` still needs per-core
    compressibility CDFs and the provenance layers need names,
    footprints and gaps.  All structured-region sizes are zero, so
    every imported address draws from the aggregate (cold) CDF at the
    declared HCR/LCR split.
    """
    return AppProfile(
        name=f"external:{target}:core{core}",
        footprint_blocks=max(1, footprint_blocks),
        loop_weight=0.0,
        loop_blocks=0,
        scan_weight=0.0,
        scan_blocks=0,
        stream_weight=1.0,
        rw_weight=0.0,
        rw_blocks=0,
        random_weight=0.0,
        random_blocks=0,
        stream_write_frac=write_fraction,
        rw_write_frac=0.0,
        random_write_frac=0.0,
        gap_mean=gap_mean,
        comp_weights=make_comp_weights(hcr, lcr),
        n_phases=1,
    )


def import_trace(
    source: PathLike,
    name: str,
    root: Optional[PathLike] = None,
    *,
    cores: int = 4,
    hcr: float = 0.5,
    lcr: float = 0.28,
    addr_kind: str = "block",
    seed: int = 0,
) -> Path:
    """Import an interchange CSV as external target ``name``.

    Writes ``core<k>.trc`` + ``core<k>.sizes`` and the checksummed
    ``target.json`` identity record under ``<root>/<name>``, all
    through atomic replaces so a crashed import can at worst leave
    temp files, never a half-valid target.  Returns the target
    directory.  ``hcr``/``lcr`` declare the aggregate compressibility
    split the data model assigns imported blocks (external recorders
    rarely capture payload bytes, so the split is declared, exactly
    like DESIGN.md's documented substitution for SPEC).
    """
    if not _NAME_RE.match(name or ""):
        raise ValueError(
            f"bad target name {name!r} (want letters/digits/._- only)"
        )
    root_path = resolve_external_root(root)
    if root_path is None:
        raise ValueError(
            "no external workload root: pass root= or set "
            "REPRO_EXTERNAL_WORKLOADS"
        )
    per_core = parse_interchange_csv(source, cores, addr_kind=addr_kind)
    traces = [MaterializedTrace(records) for records in per_core]
    profiles = [
        _surrogate_profile(
            name, core,
            footprint_blocks=trace.footprint(),
            gap_mean=sum(trace.gaps) / len(trace),
            write_fraction=trace.write_fraction(),
            hcr=hcr, lcr=lcr,
        )
        for core, trace in enumerate(traces)
    ]
    model = DataModel(profiles, seed=seed)

    target_dir = root_path / name
    target_dir.mkdir(parents=True, exist_ok=True)
    trace_shas: Dict[str, str] = {}
    sizes_shas: Dict[str, str] = {}
    for core, trace in enumerate(traces):
        trc_path = target_dir / f"core{core}.trc"
        tmp = target_dir / f".core{core}.trc.tmp.{os.getpid()}"
        save_trace(trace, tmp)
        durable_replace(tmp, trc_path)
        trace_shas[trc_path.name] = file_sha256(trc_path)
        sizes_path = target_dir / f"core{core}.sizes"
        write_sizes_file(sizes_path, model.sizes_for(trace.addrs))
        sizes_shas[sizes_path.name] = file_sha256(sizes_path)

    identity = {
        "name": name,
        "family": ExternalFamily.name,
        "cores": cores,
        "seed": seed,
        "addr_kind": addr_kind,
        "comp": {"hcr": hcr, "lcr": lcr},
        "source": {
            "path": str(source),
            "sha256": file_sha256(source),
        },
        "records": [len(t) for t in traces],
        "footprint_blocks": [t.footprint() for t in traces],
        "gap_mean": [p.gap_mean for p in profiles],
        "write_fraction": [p.stream_write_frac for p in profiles],
        "traces": trace_shas,
        "sizes": sizes_shas,
        "library": library_info(),
    }
    atomic_write_bytes(
        target_dir / TARGET_NAME,
        payload_bytes(wrap_json(identity, TARGET_SCHEMA)),
    )
    return target_dir


def load_target_manifest(target_dir: Path) -> Dict[str, object]:
    """Read + verify a target's identity record.

    A manifest that is missing raises :class:`FileNotFoundError`; one
    that exists but fails the envelope checksum or basic shape checks
    is quarantined (evidence for ``repro doctor``) and raises
    :class:`TraceFormatError` — a corrupt identity record must never
    resolve to a buildable target.
    """
    path = Path(target_dir) / TARGET_NAME
    raw = read_bytes(path)
    try:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError(path, f"unparsable target record ({exc})")
        try:
            payload = unwrap_json(data, schema=TARGET_SCHEMA, path=path)
        except BlobError as exc:
            raise TraceFormatError(path, exc.reason) from None
        if payload is data:  # not an envelope at all
            raise TraceFormatError(path, "not a checksummed target record")
        if not isinstance(payload, dict) or not isinstance(
            payload.get("cores"), int
        ):
            raise TraceFormatError(path, "malformed target record")
        return payload
    except TraceFormatError as exc:
        quarantine_file(
            path, exc.reason, "external-target", root=Path(target_dir)
        )
        raise


class ExternalFamily(WorkloadFamily):
    """Imported traces under the external workload root."""

    name = "external"
    description = (
        "imported access traces (ChampSim/gem5-style interchange CSV "
        "-> .trc/.sizes; root: $REPRO_EXTERNAL_WORKLOADS)"
    )

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self._root = Path(root) if root is not None else None

    @property
    def root(self) -> Optional[Path]:
        return self._root if self._root is not None else resolve_external_root()

    # ------------------------------------------------------------------
    def targets(self) -> Tuple[str, ...]:
        root = self.root
        if root is None or not root.is_dir():
            return ()
        return tuple(
            sorted(
                entry.name
                for entry in root.iterdir()
                if (entry / TARGET_NAME).is_file()
            )
        )

    def _target_dir(self, target: str) -> Path:
        self.check_target(target)
        return self.root / target  # type: ignore[operator]  # root checked

    def target_spec(self, target: str) -> TargetSpec:
        manifest = load_target_manifest(self._target_dir(target))
        comp = manifest.get("comp", {})
        hcr = float(comp.get("hcr", 0.0))
        lcr = float(comp.get("lcr", 0.0))
        return TargetSpec(
            family=self.name,
            target=target,
            cores=int(manifest["cores"]),
            description=(
                f"imported from {manifest.get('source', {}).get('path', '?')}"
                f" ({sum(manifest.get('records', []))} records)"
            ),
            footprint_blocks=sum(manifest.get("footprint_blocks", [])),
            hcr_fraction=hcr,
            lcr_fraction=lcr,
            incompressible_fraction=max(0.0, 1.0 - hcr - lcr),
            scalable=False,
        )

    def build(self, target: str, scale, seed: int = 0):
        """Load an imported target, verifying every artefact.

        Fixed-dimension: ``scale`` and ``seed`` are accepted for
        interface parity but the traces replay as recorded and the
        size draws use the seed recorded at import (so every scale and
        seed observes the same imported bytes).  Trace files whose
        content hash diverges from the identity record are quarantined
        and fail the build; corrupt size sidecars are quarantined,
        redrawn deterministically, and counted in
        ``workload.sidecar_redraws``.
        """
        from ..engine import Workload

        target_dir = self._target_dir(target)
        manifest = load_target_manifest(target_dir)
        cores = int(manifest["cores"])
        comp = manifest.get("comp", {})
        import_seed = int(manifest.get("seed", 0))

        traces: List[MaterializedTrace] = []
        profiles: List[AppProfile] = []
        redraws = 0
        sizes_per_core: List[Optional[Dict[int, Tuple[int, int]]]] = []
        for core in range(cores):
            trc_path = target_dir / f"core{core}.trc"
            recorded = manifest.get("traces", {}).get(trc_path.name)
            if not trc_path.is_file():
                raise TraceFormatError(trc_path, "missing trace file")
            if recorded is not None and file_sha256(trc_path) != recorded:
                quarantine_file(
                    trc_path, "trace checksum diverged from target.json",
                    "external-trace", root=target_dir,
                )
                raise TraceFormatError(
                    trc_path, "checksum mismatch against target.json"
                )
            trace = load_trace_mmap(trc_path)  # validates header/size
            traces.append(trace)
            profiles.append(
                _surrogate_profile(
                    target, core,
                    footprint_blocks=int(
                        manifest.get("footprint_blocks", [0] * cores)[core]
                    ),
                    gap_mean=float(
                        manifest.get("gap_mean", [0.0] * cores)[core]
                    ),
                    write_fraction=float(
                        manifest.get("write_fraction", [0.0] * cores)[core]
                    ),
                    hcr=float(comp.get("hcr", 0.0)),
                    lcr=float(comp.get("lcr", 0.0)),
                )
            )
            sizes_path = target_dir / f"core{core}.sizes"
            sizes: Optional[Dict[int, Tuple[int, int]]]
            try:
                sizes = read_sizes_file(sizes_path)
            except FileNotFoundError:
                sizes = None
            except SidecarError as exc:
                quarantine_file(
                    sizes_path, exc.reason, "sizes-sidecar", root=target_dir
                )
                redraws += 1
                sizes = None
            sizes_per_core.append(sizes)

        workload = Workload.from_traces(
            profiles, traces,
            seed=import_seed,
            sizes_per_core=sizes_per_core,
            family=self.name,
            target=target,
        )
        workload.sidecar_redraws = redraws
        return workload


register_family(ExternalFamily())
