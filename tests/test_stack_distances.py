"""Differential tests of the vectorised stack-distance pass.

``_reuse_distances`` is checked against a brute-force oracle that
counts the distinct addresses strictly between consecutive occurrences
of an address over ``passes`` cyclic replays of the trace.
"""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical import workload_statistics
from repro.analytical.stats import _reuse_distances
from repro.experiments.common import SMOKE
from repro.workloads.trace import CORE_ADDR_SHIFT

#: The highest block address of core ``c``'s slice is
#: ``(c << CORE_ADDR_SHIFT) | _SLICE_TOP``.
_SLICE_TOP = (1 << CORE_ADDR_SHIFT) - 1


def oracle(addrs, passes):
    seq = list(addrs) * passes
    last = {}
    out = []
    for i, addr in enumerate(seq):
        p = last.get(addr)
        out.append(-1.0 if p is None else float(len(set(seq[p + 1:i]))))
        last[addr] = i
    return np.array(out, dtype=np.float64)


def check(addrs, passes):
    got = _reuse_distances(addrs, passes=passes)
    want = oracle(addrs, passes)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


#: Address bases for the property test: core 0, core 1, and the top
#: of core 255's slice (well past 32 bits).
_BASES = [0, 1 << CORE_ADDR_SHIFT,
          (255 << CORE_ADDR_SHIFT) | (_SLICE_TOP - 12)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 12), max_size=120),
    st.integers(1, 3),
    st.sampled_from(_BASES),
)
def test_matches_set_oracle(offsets, passes, base):
    check([base + o for o in offsets], passes)


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_empty_trace(passes):
    got = _reuse_distances([], passes=passes)
    assert got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_single_record(passes):
    check([7], passes)
    got = _reuse_distances([7], passes=passes)
    assert got.tolist() == [-1.0] + [0.0] * (passes - 1)


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_one_address_repeated(passes):
    got = _reuse_distances([5] * 9, passes=passes)
    assert got.tolist() == [-1.0] + [0.0] * (9 * passes - 1)


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_all_distinct(passes):
    n = 300
    got = _reuse_distances(list(range(n)), passes=passes)
    want = [-1.0] * n + [float(n - 1)] * (n * (passes - 1))
    assert got.tolist() == want


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_top_of_core_slice(passes):
    """Addresses that do not fit 32 bits keep their identity."""
    rng = np.random.default_rng(passes)
    cores = [15, 63, 255]
    addrs = [
        (cores[c] << CORE_ADDR_SHIFT) | (_SLICE_TOP - int(o))
        for c, o in zip(rng.integers(0, 3, 200), rng.integers(0, 4, 200))
    ]
    # The same offset in different cores is equal modulo 2**32 here,
    # so any narrowing of the addresses themselves would merge them.
    check(addrs, passes)
    check(array("Q", addrs), passes)  # the trace's column type


def test_real_trace_prefix():
    trace = SMOKE.workload("mix1", seed=0).traces[1]
    addrs = trace.addrs[:1500]
    check(addrs, 2)


def test_statistics_share_one_factorisation_per_core():
    workload = SMOKE.workload("mix4", seed=1)
    first = workload_statistics(workload, 96, 4096)
    second = workload_statistics(workload, 96, 512)
    cache = workload._analytical_stats_cache
    for core, trace in enumerate(workload.traces):
        ct = cache[("trace", core)]
        # the distances over the per-core ids are the address distances
        assert cache[("rd", core, 2)].tobytes() == _reuse_distances(
            np.asarray(trace.addrs)).tobytes()
        assert first.cores[core].sizes is second.cores[core].sizes is ct.sizes
        assert first.cores[core].footprint_blocks == len(set(trace.addrs))
