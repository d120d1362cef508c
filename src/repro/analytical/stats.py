"""Workload statistics for the analytical estimator.

Everything the closed-form model needs is extracted here, once per
workload, from the already-materialised traces and the compressed-size
sidecar the workload cache persists:

* a **reuse-distance histogram** per core (exact Mattson stack
  distances, counted by a vectorised merge-sort tree in O(N log² N)
  time and O(N) memory), bucketed geometrically and jointly classified by

* **reuse class** — the address-level approximation of the LLC's
  READ/WRITE/NONE reuse metadata (an address whose beyond-L2 reuse
  repeats is READ-reused, WRITE-reused if it is ever written), and

* **compressed size** — the (csize, ECB) the data model assigns the
  address, traffic-weighted.

Traces replay cyclically, so distances are measured over two
concatenated passes: pass-1 first touches are genuine cold misses
while pass-2 records the wrapped steady-state distances a multi-epoch
simulation spends most of its time in.

The result is cached on the workload instance (keyed by the reuse
threshold and reach), beside each core's address factorisation and
stack distances, so a sweep evaluating thousands of policies pays the
extraction exactly once per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

#: Reuse classes (mirrors repro.cache.block.ReuseClass semantics).
CLASS_NONE, CLASS_READ, CLASS_WRITE = 0, 1, 2
N_CLASSES = 3

#: Geometric reuse-distance bucket ratio: 4 buckets per octave keeps
#: capacity interpolation within a few percent of exact distances.
_BUCKETS_PER_OCTAVE = 4

_STATS_CACHE_ATTR = "_analytical_stats_cache"


def _bucket_edges(max_rd: int) -> np.ndarray:
    """Sorted unique lower bucket bounds covering 1 .. max_rd."""
    edges = {0}
    k = 0
    while True:
        e = int(round(2.0 ** (k / _BUCKETS_PER_OCTAVE)))
        edges.add(e)
        if e > max_rd:
            break
        k += 1
    return np.array(sorted(edges), dtype=np.float64)


def _reuse_distances(addrs, passes: int = 2) -> np.ndarray:
    """Stack (reuse) distance of every access over ``passes`` cyclic
    replays of the trace; first touches get -1 (cold).

    Exact offline count: access ``i`` with previous occurrence ``p``
    has distance ``#{j in (p, i) : next[j] > i}``, computed as the
    running count ``#{j < i : next[j] > i}`` minus the dominance count
    ``#{j <= p : next[j] > i}``.  A merge-sort tree over positions
    answers the latter: level ``k`` sorts ``next`` within aligned
    blocks of ``2**k`` positions and serves, by binary search, the
    queries whose prefix ``[0, p]`` holds such a block (bit ``k`` of
    ``p + 1``); level 0 (block ``{p}``, ``next[p] == i``) adds nothing.
    O(N log² N) time for N = ``len(addrs) * passes``; int32 positions
    (N < 2**31) and one int64 level at a time peak near 56 bytes per
    position.  Only address equality matters, so per-core ids serve.
    """
    keys = np.tile(np.asarray(addrs), passes)
    total = len(keys)
    # next[j]: the following occurrence of j's address (``total`` if
    # none), from one stable sort grouping each address's positions.
    order = np.argsort(keys, kind="stable").astype(np.int32)
    repeat = keys[order[1:]] == keys[order[:-1]]
    nxt = np.full(total, total, dtype=np.int32)
    nxt[order[:-1][repeat]] = order[1:][repeat]
    del keys, order, repeat
    # Queries (p, i) in order of p: each level's blocks then ascend,
    # which keeps the binary searches cache-friendly.
    prev = np.flatnonzero(nxt < total).astype(np.int32)
    cur = nxt[prev]
    # #{j < i : next[j] > i} = i - 1 - #{k < i : k has a previous occurrence}
    rd = cur - 1 - np.searchsorted(np.sort(cur), cur)
    # The tree is built bottom-up in place over ``nxt`` (each level
    # re-sorts rows of two sorted halves); rows are offset into int64
    # keys (row * stride + next) so one searchsorted serves a level.
    span = prev + 1
    stride = total + 1
    for k in range(1, total.bit_length()):
        width, rows = 1 << k, total >> k
        tree = nxt[: rows * width].reshape(rows, width)
        tree.sort(axis=1, kind="stable")
        offset = np.arange(rows, dtype=np.int64)[:, None] * stride
        flat = (tree + offset).ravel()
        q = np.flatnonzero(span & width)
        start = span[q] & -(2 * width)  # the block [start, start + width)
        key = (start >> k).astype(np.int64) * stride + cur[q]
        rd[q] -= start + width - np.searchsorted(flat, key, side="right")
    out = np.full(total, -1.0)
    out[cur] = rd
    return out


@dataclass
class CoreStatistics:
    """One core's joint (reuse-distance x class x csize) histogram."""

    core: int
    n_accesses: int          # histogram mass (trace records x passes)
    gap_mean: float
    write_fraction: float
    footprint_blocks: int
    edges: np.ndarray        # (B,) bucket lower bounds, ascending
    counts: np.ndarray       # (N_CLASSES, S, B) access counts
    write_counts: np.ndarray  # same shape, write accesses only
    cold: np.ndarray         # (N_CLASSES, S) first-touch accesses
    blocks: np.ndarray       # (N_CLASSES, S) distinct addresses per cell
    sizes: np.ndarray        # (S,) distinct compressed sizes
    ecbs: np.ndarray         # (S,) ECB bytes charged per size

    # ------------------------------------------------------------------
    def below(self, counts: np.ndarray, capacity: float) -> np.ndarray:
        """Per-cell traffic with reuse distance < ``capacity`` blocks.

        ``counts`` is any (..., B) view of the histogram; the
        straddled bucket is linearly interpolated.
        """
        edges = self.edges
        if capacity <= edges[0]:
            return np.zeros(counts.shape[:-1])
        idx = int(np.searchsorted(edges, capacity, side="right")) - 1
        full = counts[..., :idx].sum(axis=-1)
        if idx + 1 < len(edges):
            lo, hi = edges[idx], edges[idx + 1]
            frac = (capacity - lo) / (hi - lo)
            return full + counts[..., idx] * frac
        return full + counts[..., idx]


@dataclass
class WorkloadStatistics:
    """Per-core statistics of one workload (see module docstring)."""

    cores: List[CoreStatistics]
    reuse_threshold_blocks: int
    reach_blocks: int
    passes: int
    #: The workload family these statistics were extracted from
    #: (provenance: estimator validation reports group by family).
    family: str = "synthetic"

    @property
    def n_cores(self) -> int:
        return len(self.cores)


@dataclass
class _CoreTrace:
    """One core's trace factorised once, shared by the distance pass
    and every classification window."""

    ids: np.ndarray        # (n,) int32 distinct-address index per access
    writes: np.ndarray     # (n,) bool
    gap_mean: float
    sizes: np.ndarray      # (S,) distinct compressed sizes
    ecbs: np.ndarray       # (S,) ECB bytes charged per size
    size_of: np.ndarray    # (U,) index into ``sizes`` per distinct address


def _factorise(trace, data_model) -> _CoreTrace:
    uniq, ids = np.unique(np.asarray(trace.addrs), return_inverse=True)
    pairs = np.array([data_model.size_fn(a) for a in uniq.tolist()], np.int64)
    sizes, size_of = np.unique(pairs[:, 0], return_inverse=True)
    ecbs = np.zeros(len(sizes), dtype=np.int64)
    ecbs[size_of] = pairs[:, 1]
    return _CoreTrace(
        ids=ids.astype(np.int32),
        writes=np.asarray(trace.writes) != 0,
        gap_mean=float(np.asarray(trace.gaps, dtype=np.float64).mean()),
        sizes=sizes,
        ecbs=ecbs,
        size_of=size_of,
    )


def _histogram(keys: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Counts of flat cell indices ``keys``, as a float array of ``shape``."""
    return np.bincount(keys, minlength=int(np.prod(shape))).reshape(
        shape).astype(np.float64)


def _extract_core(
    ct: _CoreTrace, core: int, reuse_threshold: int, reach: int,
    passes: int, rds: np.ndarray,
) -> CoreStatistics:
    n = len(ct.ids)
    n_addrs = len(ct.size_of)
    n_sizes = len(ct.sizes)
    inv = np.tile(ct.ids, passes)
    write_rep = np.tile(ct.writes, passes)

    # -- address-level reuse classification ---------------------------
    # The LLC can only classify reuse it *observes*: a block acquires
    # READ/WRITE metadata on an LLC hit, which needs its reuse
    # distance to land beyond the private caches but within the LLC's
    # reach.  Reuse that stays private (rd < threshold) or overshoots
    # the reach misses and teaches the LLC nothing — those addresses
    # keep inserting as NONE.  WRITE if the block is ever written
    # (dirty spills / GetX hits mark it), READ otherwise.
    observable = (rds >= reuse_threshold) & (rds < reuse_threshold + reach)
    reused = np.bincount(inv[observable], minlength=n_addrs) > 0
    written = np.bincount(ct.ids[ct.writes], minlength=n_addrs) > 0
    addr_class = np.full(n_addrs, CLASS_NONE, dtype=np.int64)
    addr_class[reused & written] = CLASS_WRITE
    addr_class[reused & ~written] = CLASS_READ

    # -- joint histogram ----------------------------------------------
    edges = _bucket_edges(max(1, n))
    n_buckets = len(edges)
    cls = addr_class[inv]
    sz = ct.size_of[inv]
    cold = rds < 0
    bucket = np.searchsorted(edges, rds, side="right") - 1
    key = (cls * n_sizes + sz) * n_buckets + np.clip(bucket, 0, None)

    warm = ~cold
    cells = (N_CLASSES, n_sizes, n_buckets)
    return CoreStatistics(
        core=core,
        n_accesses=n * passes,
        gap_mean=ct.gap_mean,
        write_fraction=float(ct.writes.mean()),
        footprint_blocks=n_addrs,
        edges=edges,
        counts=_histogram(key[warm], cells),
        write_counts=_histogram(key[warm & write_rep], cells),
        cold=_histogram(cls[cold] * n_sizes + sz[cold], cells[:2]),
        blocks=_histogram(addr_class * n_sizes + ct.size_of, cells[:2]),
        sizes=ct.sizes,
        ecbs=ct.ecbs,
    )


def workload_statistics(
    workload, reuse_threshold_blocks: int, reach_blocks: int,
    passes: int = 2,
) -> WorkloadStatistics:
    """Extract (or recall) the analytical statistics of a workload.

    ``reuse_threshold_blocks`` is the private-cache capacity in blocks
    (L1 + L2): reuse below it never reaches the LLC.  ``reach_blocks``
    is how far beyond that the LLC can observe (and hence classify)
    reuse — the capacity a policy lets *unqualified* blocks occupy,
    which is why LHybrid/TAP classify through an SRAM-sized window
    while the CA family sees the whole cache.  Cached per workload
    instance and parameter tuple; the per-core address factorisation
    and stack distances depend on neither window, so all variants
    share one of each (the distances per ``passes``).
    """
    cache: Dict[Tuple[Any, ...], Any]
    cache = vars(workload).setdefault(_STATS_CACHE_ATTR, {})
    passes = int(passes)
    key = (int(reuse_threshold_blocks), int(reach_blocks), passes)
    stats = cache.get(key)
    if stats is None:
        cores = []
        for core, trace in enumerate(workload.traces):
            ct = cache.get(("trace", core))
            if ct is None:
                ct = cache[("trace", core)] = _factorise(
                    trace, workload.data_model)
            rds = cache.get(("rd", core, passes))
            if rds is None:
                rds = cache[("rd", core, passes)] = _reuse_distances(
                    ct.ids, passes=passes)
            cores.append(_extract_core(ct, core, reuse_threshold_blocks,
                                       reach_blocks, passes, rds))
        stats = cache[key] = WorkloadStatistics(
            cores=cores,
            reuse_threshold_blocks=int(reuse_threshold_blocks),
            reach_blocks=int(reach_blocks),
            passes=passes,
            family=getattr(workload, "family", "synthetic"),
        )
    return stats
