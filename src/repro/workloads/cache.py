"""Workload and trace caching: stop regenerating identical inputs.

Synthetic trace generation is pure — the records depend only on the
profile's fields, the owning core, the seed and the record count — so
the same trace is rebuilt from scratch by every simulation, sweep
point and campaign worker that asks for it.  Two caches remove that
waste without ever changing a byte of what the engine replays:

* an **in-process** :class:`WorkloadCache` — a small LRU keyed by the
  exact :class:`~repro.workloads.profiles.AppProfile` tuples (frozen
  dataclasses, so the key *is* the generator input), seed and record
  count.  :meth:`repro.experiments.common.ExperimentScale.workload`
  routes through a shared instance, so a sweep that runs seven
  policies over one mix builds the workload once, not seven times;

* an **on-disk** materialized-trace cache — binary ``.trc`` files
  (the :mod:`repro.workloads.traceio` format) under the directory
  named by the ``REPRO_TRACE_CACHE`` environment variable, keyed by a
  SHA-256 over every generator input plus :data:`GENERATOR_VERSION`.
  ``repro campaign`` points this at ``<campaign_dir>/trace_cache`` by
  default so its worker *processes* share traces across tasks.  Cache
  hits load through :func:`~repro.workloads.traceio.load_trace_mmap`,
  so every worker mapping the same file shares one read-only copy of
  the records via the OS page cache.

Next to each cached trace lives a **compressed-size sidecar**
(``<key>.sizes``): the per-address ``(compressed size, ECB size)``
table the :class:`~repro.workloads.data.DataModel` would otherwise
re-draw — one seeded PRNG per address, repeated by every policy cell
of a campaign matrix replaying the same mix.  The sidecar is keyed by
the *same* content hash as the trace (every draw input is a hash
input) plus :data:`SIZES_VERSION`, and preloading it is
observationally identical to drawing.

Safety properties: cache files are committed through
:mod:`repro.fsio` (tmp + fsync + ``os.replace`` + dir fsync), so
concurrent workers race harmlessly — last writer wins with identical
bytes — and a crash leaves the previous entry intact; a corrupt or
truncated trace entry fails validation and is silently regenerated (a
cache must never be able to poison results); a corrupt *sidecar* is
quarantined and raises :class:`SidecarError` so the owning workload
can count the redraw (``workload.sidecar_redraws``) instead of hiding
it; and :data:`GENERATOR_VERSION` / :data:`SIZES_VERSION` must be
bumped whenever the generator's record stream or the data model's
draw changes, which orphans old entries instead of serving stale
data.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, TypeVar

from ..fsio.durable import (
    BlobError,
    atomic_write_bytes,
    durable_replace,
    is_binary_blob,
    read_bytes,
    unwrap_bytes,
    wrap_bytes,
)
from ..fsio.quarantine import quarantine_file
from .generator import AppTraceGenerator
from .profiles import AppProfile
from .trace import MaterializedTrace, materialize
from .traceio import load_trace_mmap, save_trace

#: Version of the synthetic generator's *output stream*.  Bump this
#: whenever :mod:`repro.workloads.generator` changes the records it
#: emits for a given (profile, core, seed) — old disk-cache entries
#: then stop matching any key instead of being replayed stale.
GENERATOR_VERSION = 1

#: Environment variable naming the on-disk trace cache directory.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"


#: The workload family whose cache keys predate family scoping.  Its
#: keys deliberately omit the family token so every pre-registry
#: on-disk trace/sidecar entry keeps matching.
DEFAULT_KEY_FAMILY = "synthetic"


def trace_cache_key(
    profile: AppProfile,
    core: int,
    seed: int,
    n_records: int,
    family: str = DEFAULT_KEY_FAMILY,
) -> str:
    """Hex SHA-256 over every input that shapes a materialized trace.

    ``family`` scopes keys per workload family so entries can never
    cross families even if two families hand out equal profiles; the
    default (synthetic) family is keyed exactly as before the registry
    existed, preserving every already-materialized cache entry.
    """
    inputs: Dict[str, object] = {
        "generator_version": GENERATOR_VERSION,
        "profile": dataclasses.asdict(profile),
        "core": core,
        "seed": seed,
        "n_records": n_records,
    }
    if family != DEFAULT_KEY_FAMILY:
        inputs["family"] = family
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def trace_cache_dir() -> Optional[Path]:
    """The on-disk cache directory, or None if caching is disabled."""
    value = os.environ.get(TRACE_CACHE_ENV, "").strip()
    return Path(value) if value else None


def load_or_materialize(
    profile: AppProfile,
    core: int,
    seed: int,
    n_records: int,
    family: str = DEFAULT_KEY_FAMILY,
) -> MaterializedTrace:
    """Return the trace for one core, via the disk cache when enabled.

    With ``REPRO_TRACE_CACHE`` unset this is exactly
    ``AppTraceGenerator(...).take(n_records)``; with it set,
    a hit deserialises the identical columns from disk and a miss
    generates then stores them atomically.
    """
    directory = trace_cache_dir()
    if directory is None:
        return materialize(AppTraceGenerator(profile, core, seed=seed), n_records)

    key = trace_cache_key(profile, core, seed, n_records, family=family)
    path = directory / f"{key}.trc"
    if path.exists():
        try:
            return load_trace_mmap(path)
        except (ValueError, OSError):
            # torn/corrupt entry (TraceFormatError is a ValueError):
            # fall through and regenerate
            pass

    trace = materialize(AppTraceGenerator(profile, core, seed=seed), n_records)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f".{path.name}.tmp.{os.getpid()}"
        save_trace(trace, tmp)
        durable_replace(tmp, path)
    except OSError:
        pass  # an unwritable cache slows things down, never fails them
    return trace


# ----------------------------------------------------------------------
# compressed-size sidecars

#: Version of the data model's size *draw*.  Bump whenever
#: :mod:`repro.workloads.data` changes what ``(csize, ecb)`` a given
#: (profile, seed, address) maps to — stale sidecars then stop
#: validating instead of silently poisoning statistics.
SIZES_VERSION = 1

_SIZES_MAGIC = b"REPROSZC"
_SIZES_HEADER = struct.Struct("<8sII")  # magic, version, entry count
_SIZES_RECORD = struct.Struct("<QHH")   # block addr, csize, ecb size

#: Envelope schema tag of ``.sizes`` sidecars.  The legacy REPROSZC
#: layout is kept verbatim as the envelope payload, so pre-envelope
#: sidecars still load (they just lack the checksum protection).
SIDECAR_SCHEMA = "repro-sizes/1"


class SidecarError(ValueError):
    """A sidecar exists but is corrupt (already quarantined).

    Distinct from the ``None`` a *missing or disabled* sidecar
    returns: the caller redraws sizes either way, but corruption is
    counted (``workload.sidecar_redraws``) and the evidence kept.
    """

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = str(path)
        self.reason = reason


def sizes_sidecar_path(
    directory: Path,
    profile: AppProfile,
    core: int,
    seed: int,
    n_records: int,
    family: str = DEFAULT_KEY_FAMILY,
) -> Path:
    """Sidecar path: same content-hash key as the trace, ``.sizes``."""
    key = trace_cache_key(profile, core, seed, n_records, family=family)
    return directory / f"{key}.sizes"


def write_sizes_file(
    path: Path, entries: Dict[int, Tuple[int, int]]
) -> str:
    """Serialise an ``addr -> (csize, ecb)`` table to ``path``.

    The checksummed envelope + REPROSZC layout used by cache sidecars,
    exposed for callers that place size files themselves (the external
    trace importer).  Entries are written sorted by address so
    identical tables serialise to identical bytes; returns the hex
    SHA-256 of the written file.
    """
    pack = _SIZES_RECORD.pack
    inner = _SIZES_HEADER.pack(
        _SIZES_MAGIC, SIZES_VERSION, len(entries)
    ) + b"".join(
        pack(addr, csize, ecb)
        for addr, (csize, ecb) in sorted(entries.items())
    )
    return atomic_write_bytes(path, wrap_bytes(inner, SIDECAR_SCHEMA))


def read_sizes_file(path: Path) -> Dict[int, Tuple[int, int]]:
    """Parse a size table written by :func:`write_sizes_file`.

    Raises :class:`FileNotFoundError` when missing and
    :class:`SidecarError` on any validation failure — quarantining is
    the *caller's* policy (cache sidecars quarantine into the cache
    root, external targets into the target directory).
    """
    blob = read_bytes(path)
    return _parse_sidecar(path, blob)


def save_sizes_sidecar(
    profile: AppProfile,
    core: int,
    seed: int,
    n_records: int,
    entries: Dict[int, Tuple[int, int]],
    family: str = DEFAULT_KEY_FAMILY,
) -> None:
    """Persist an ``addr -> (csize, ecb)`` table next to its trace.

    No-op when the disk cache is disabled or unwritable — sidecars are
    an accelerator, never a requirement.
    """
    directory = trace_cache_dir()
    if directory is None:
        return
    path = sizes_sidecar_path(
        directory, profile, core, seed, n_records, family=family
    )
    try:
        directory.mkdir(parents=True, exist_ok=True)
        write_sizes_file(path, entries)
    except OSError:
        pass


def load_sizes_sidecar(
    profile: AppProfile,
    core: int,
    seed: int,
    n_records: int,
    family: str = DEFAULT_KEY_FAMILY,
) -> Optional[Dict[int, Tuple[int, int]]]:
    """The persisted size table for a trace, ``None``, or an error.

    Returns ``None`` when the disk cache is disabled or the sidecar is
    simply missing.  A sidecar that *exists* but fails validation —
    envelope checksum, magic/version, or a declared entry count
    disagreeing with the bytes present — is moved to the cache's
    ``quarantine/`` and :class:`SidecarError` is raised; the caller
    falls back to drawing sizes, re-persists, and counts the redraw.
    """
    directory = trace_cache_dir()
    if directory is None:
        return None
    path = sizes_sidecar_path(
        directory, profile, core, seed, n_records, family=family
    )
    if not path.exists():
        return None
    try:
        blob = read_bytes(path)
    except FileNotFoundError:
        return None  # raced with a concurrent quarantine/cleanup
    except OSError as exc:
        raise SidecarError(path, f"unreadable ({exc})") from None
    try:
        return _parse_sidecar(path, blob)
    except SidecarError as exc:
        quarantine_file(path, exc.reason, "sizes-sidecar", root=directory)
        raise


def _parse_sidecar(
    path: Path, blob: bytes
) -> Dict[int, Tuple[int, int]]:
    if is_binary_blob(blob):
        try:
            _, blob = unwrap_bytes(blob, schema=SIDECAR_SCHEMA, path=path)
        except BlobError as exc:
            raise SidecarError(path, exc.reason) from None
    if len(blob) < _SIZES_HEADER.size:
        raise SidecarError(path, "truncated header")
    magic, version, count = _SIZES_HEADER.unpack_from(blob)
    if magic != _SIZES_MAGIC:
        raise SidecarError(path, "bad magic")
    if version != SIZES_VERSION:
        raise SidecarError(path, f"unsupported sizes version {version}")
    if len(blob) - _SIZES_HEADER.size != count * _SIZES_RECORD.size:
        raise SidecarError(
            path,
            f"entry count mismatch: header says {count}, "
            f"{len(blob) - _SIZES_HEADER.size} payload bytes",
        )
    return {
        addr: (csize, ecb)
        for addr, csize, ecb in _SIZES_RECORD.iter_unpack(
            blob[_SIZES_HEADER.size:]
        )
    }


WorkloadKey = Tuple[str, Tuple[AppProfile, ...], int, int]
W = TypeVar("W")


class WorkloadCache:
    """Small in-process LRU of built workloads.

    Keys are ``(token, profiles, seed, trace_records_per_core)`` —
    profiles are frozen dataclasses, so equal keys mean byte-identical
    traces, and ``token`` (the workload family name) keeps families
    from sharing entries even when their profiles collide.  Sharing a
    built workload across runs is safe because simulations never
    mutate it: the only state that grows is the data model's size
    memo, whose entries are a pure function of (address, seed) and are
    fully prefetched at construction anyway.

    The cache is deliberately generic over the built value (a
    ``builder`` callable supplies it on miss) so this module does not
    import :class:`repro.engine.Workload` and create an import cycle.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[WorkloadKey, object]" = OrderedDict()

    def get(
        self,
        profiles: Sequence[AppProfile],
        seed: int,
        trace_records_per_core: int,
        builder: Callable[[], W],
        token: str = DEFAULT_KEY_FAMILY,
    ) -> W:
        """Return the cached workload for the key, building on miss."""
        key: WorkloadKey = (token, tuple(profiles), seed, trace_records_per_core)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry  # type: ignore[return-value]
        self.misses += 1
        built = builder()
        self._entries[key] = built
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return built

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide workload cache used by ``ExperimentScale.workload``.
SHARED_WORKLOAD_CACHE = WorkloadCache()
