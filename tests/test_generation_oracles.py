"""Differential tests: the inlined generator and size draw against oracles.

:meth:`AppTraceGenerator.take` is one inlined loop that must make the
same ``random.Random`` calls in the same order as the original
per-record generator.  That generator's body is kept here verbatim
(:class:`RecordOracle`) and driven through ``randrange``/``expovariate``
exactly as before, so any drift in the draw order — a skipped write
draw, a different rejection loop, a lost owed write at a ``take``
boundary — shows up as a differing record.

The data model's size draw re-seeds one reused PRNG per address; the
oracle builds a fresh ``random.Random`` per address, as it always did.
"""

import random
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compression.encodings import BLOCK_SIZE, ecb_size
from repro.workloads.data import DataModel
from repro.workloads.generator import AppTraceGenerator
from repro.workloads.profiles import AppProfile, make_comp_weights, profile
from repro.workloads.registry import get_family
from repro.workloads.trace import CORE_ADDR_SHIFT, TraceRecord

_LOOP, _SCAN, _STREAM, _RW, _RANDOM = range(5)


class RecordOracle(AppTraceGenerator):
    """The original one-record-per-call generator, body unchanged."""

    def _gap(self) -> int:
        return int(self._rng.expovariate(1.0 / self.profile.gap_mean))

    def __iter__(self):
        return self

    def _advance_phase(self) -> None:
        self._phase = (self._phase + 1) % self.profile.n_phases
        self._accesses_left_in_phase = self.profile.phase_accesses
        self._loop_pos = 0
        self._scan_pos = 0

    def __next__(self) -> TraceRecord:
        rng = self._rng
        profile = self.profile

        self._accesses_left_in_phase -= 1
        if self._accesses_left_in_phase <= 0:
            self._advance_phase()
        phase = self._phase

        if self._rw_pending_write:
            addr = self._rw_pending_write
            self._rw_pending_write = 0
            return TraceRecord(self._gap(), addr, True)

        u = rng.random()
        cum = self._cum
        if u < cum[_LOOP]:
            addr = self._loop_base + phase * profile.loop_blocks + self._loop_pos
            self._loop_pos += 1
            if self._loop_pos >= profile.loop_blocks:
                self._loop_pos = 0
            return TraceRecord(self._gap(), addr, False)
        if u < cum[_SCAN]:
            addr = self._scan_base + phase * profile.scan_blocks + self._scan_pos
            self._scan_pos += 1
            if self._scan_pos >= profile.scan_blocks:
                self._scan_pos = 0
            return TraceRecord(self._gap(), addr, False)
        if u < cum[_STREAM]:
            addr = self._stream_base + self._stream_pos
            self._stream_pos += 1
            if self._stream_pos >= self._stream_blocks:
                self._stream_pos = 0
            is_write = rng.random() < profile.stream_write_frac
            return TraceRecord(self._gap(), addr, is_write)
        if u < cum[_RW]:
            addr = (
                self._rw_base
                + phase * profile.rw_blocks
                + rng.randrange(profile.rw_blocks)
            )
            if rng.random() < profile.rw_write_frac:
                # read-modify-write: the write follows on the next record
                self._rw_pending_write = addr
            return TraceRecord(self._gap(), addr, False)
        addr = self._random_base + rng.randrange(profile.random_blocks)
        is_write = rng.random() < profile.random_write_frac
        return TraceRecord(self._gap(), addr, is_write)


_STATE = (
    "_phase", "_accesses_left_in_phase", "_loop_pos", "_scan_pos",
    "_stream_pos", "_rw_pending_write",
)


def oracle_run(prof, core, seed, n):
    """The oracle's first ``n`` records plus, per record, the owed write."""
    oracle = RecordOracle(prof, core, seed=seed)
    records, owing = [], []
    for _ in range(n):
        records.append(next(oracle))
        owing.append(oracle._rw_pending_write)
    return oracle, records, owing


# Block counts straddling powers of two exercise both the one-draw and
# the rejecting paths of the ``getrandbits`` loop.
_blocks = st.sampled_from([1, 2, 3, 5, 7, 8, 31, 64, 100, 127, 128, 1000, 1024])
_weight = st.sampled_from([0.0, 0.0, 0.05, 0.2, 0.5, 1.0, 3.0])
_frac = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])


@st.composite
def profiles(draw):
    weights = [draw(_weight) for _ in range(5)]
    assume(sum(weights) > 0)
    loop_b, scan_b, rw_b, random_b = (draw(_blocks) for _ in range(4))
    n_phases = draw(st.integers(1, 4))
    phased = n_phases * (loop_b + scan_b + rw_b) + random_b
    return AppProfile(
        name="hypo",
        footprint_blocks=phased + draw(st.sampled_from([0, 10, 5000])),
        loop_weight=weights[0], loop_blocks=loop_b,
        scan_weight=weights[1], scan_blocks=scan_b,
        stream_weight=weights[2],
        rw_weight=weights[3], rw_blocks=rw_b,
        random_weight=weights[4], random_blocks=random_b,
        stream_write_frac=draw(_frac),
        rw_write_frac=draw(_frac),
        random_write_frac=draw(_frac),
        gap_mean=draw(st.sampled_from([0.5, 3.0, 28.0, 150.0])),
        comp_weights=make_comp_weights(0.5, 0.3),
        n_phases=n_phases,
        phase_accesses=draw(st.integers(1, 40)),
    )


_cores = st.integers(0, 3)
_seeds = st.integers(0, 2**40)


@settings(max_examples=80, deadline=None)
@given(profiles(), _cores, _seeds, st.integers(1, 400))
def test_take_matches_record_oracle(prof, core, seed, n):
    oracle, records, _owing = oracle_run(prof, core, seed, n)
    gen = AppTraceGenerator(prof, core, seed=seed)
    assert gen.take(n).records == records
    for name in _STATE:
        assert getattr(gen, name) == getattr(oracle, name), name


@settings(max_examples=80, deadline=None)
@given(profiles(), _cores, _seeds, st.integers(1, 200), st.integers(1, 200))
def test_split_takes_equal_one_take(prof, core, seed, a, b):
    whole = AppTraceGenerator(prof, core, seed=seed).take(a + b).records
    gen = AppTraceGenerator(prof, core, seed=seed)
    assert gen.take(a).records + gen.take(b).records == whole


@settings(max_examples=60, deadline=None)
@given(
    profiles().filter(lambda p: p.rw_weight > 0 and p.rw_write_frac > 0),
    _cores, _seeds, st.data(),
)
def test_split_after_a_read_that_owes_a_write(prof, core, seed, data):
    n = 300
    _oracle, records, owing = oracle_run(prof, core, seed, n)
    splits = [i + 1 for i in range(n - 1) if owing[i]]
    assume(splits)
    split = data.draw(st.sampled_from(splits))

    # The tail case: a trace whose last record is a read owing a write.
    gen = AppTraceGenerator(prof, core, seed=seed)
    head = gen.take(split)
    assert head.records == records[:split]
    assert not head.records[-1].is_write
    assert gen._rw_pending_write == owing[split - 1] == head.records[-1].addr

    # The owed write is the first record of the next take.
    tail = gen.take(n - split)
    assert tail.records[0] == TraceRecord(tail.gaps[0], head.records[-1].addr, True)
    assert head.records + tail.records == records


def test_empty_region_raises_like_randrange():
    prof = profile("mcf17").scaled(1 / 32)
    for region in ("rw", "random"):
        empty = replace(
            prof, loop_weight=0.0, scan_weight=0.0, stream_weight=0.0,
            rw_weight=float(region == "rw"),
            random_weight=float(region == "random"),
            **{f"{region}_blocks": 0},
        )
        with pytest.raises(ValueError):
            next(RecordOracle(empty, 0))
        with pytest.raises(ValueError):
            AppTraceGenerator(empty, 0).take(1)


def test_take_matches_oracle_on_a_calibrated_profile():
    """A real SPEC profile across several phase rotations."""
    prof = profile("soplex06").scaled(1 / 32)
    n = 2 * prof.phase_accesses + 17
    _oracle, records, _owing = oracle_run(prof, 2, 11, n)
    gen = AppTraceGenerator(prof, 2, seed=11)
    assert gen.take(7).records + gen.take(n - 7).records == records


# ----------------------------------------------------------------------
# size draws

def oracle_size(model, addr):
    """The original per-address draw: a fresh ``random.Random`` each."""
    core = addr >> CORE_ADDR_SHIFT
    offset = addr & ((1 << CORE_ADDR_SHIFT) - 1)
    if offset < model._hot_bound[core]:
        slot = model._flip_slot[core]
        if slot and (offset // slot) & 1:
            return BLOCK_SIZE
        cum, sizes = model._hot_cdf[core]
    else:
        cum, sizes = model._cold_cdf[core]
    return sizes[bisect_left(cum, random.Random((addr << 8) ^ model.seed).random())]


_FLIP_PROFILES = [
    p.scaled(1 / 32) for p in get_family("adversarial")._profiles("comp_flip")
]


def _addresses(profiles, rng, n):
    """Hot, flipped-slot and cold addresses on every core."""
    addrs = []
    for core, prof in enumerate(profiles):
        base = core << CORE_ADDR_SHIFT
        addrs += [base + o for o in range(prof.hot_region_blocks)]
        addrs += [base + rng.randrange(prof.footprint_blocks) for _ in range(n)]
    rng.shuffle(addrs)
    return addrs


@settings(max_examples=25, deadline=None)
# Keys (addr << 8) ^ seed span one 32-bit word (small seed, core 0) and
# two or more (large seed, or any core >= 1).
@given(st.one_of(st.integers(0, 2**16), st.integers(2**33, 2**40)), st.integers(0, 2**32))
def test_size_draws_match_fresh_generator_per_address(seed, shuffle_seed):
    model = DataModel(_FLIP_PROFILES, seed=seed)
    addrs = _addresses(_FLIP_PROFILES, random.Random(shuffle_seed), 50)
    assert any(model._flip_slot)
    for addr in addrs:
        csize = oracle_size(model, addr)
        assert model.size_fn(addr) == (csize, ecb_size(csize)), hex(addr)


def test_prefetch_keeps_first_occurrence_order_and_native_keys():
    prof = profile("mcf17").scaled(1 / 32)
    trace = AppTraceGenerator(prof, 0, seed=3).take(5000)
    addrs = list(trace.addrs)
    assert len(set(addrs)) < len(addrs)  # duplicates exist

    model = DataModel([prof], seed=3)
    model.preload_sizes({addrs[100]: model.size_fn(addrs[100])})
    model.prefetch_sizes(trace.addrs)
    assert list(model._sizes) == [addrs[100]] + [
        a for a in dict.fromkeys(addrs) if a != addrs[100]
    ]

    # Mmap-backed columns are NumPy arrays: same memo, native int keys.
    from_numpy = DataModel([prof], seed=3)
    from_numpy.preload_sizes({addrs[100]: model.size_fn(addrs[100])})
    from_numpy.prefetch_sizes(np.asarray(addrs, dtype=np.uint64))
    assert list(from_numpy._sizes.items()) == list(model._sizes.items())
    assert all(type(a) is int for a in from_numpy._sizes)
    exported = from_numpy.sizes_for(set(np.asarray(addrs, dtype=np.uint64)))
    assert exported == {a: model._sizes[a] for a in set(addrs)}
    assert all(type(a) is int for a in exported)


def test_sizes_sidecar_bytes_match_fresh_generator_draws(tmp_path, monkeypatch):
    """A built workload's memo order and sidecar bytes are the original's.

    The memo fills in first-occurrence order across the cores' traces,
    and each sidecar serialises exactly the oracle's draws, for a
    comp-flip mix whose traces touch hot, flipped and cold addresses.
    """
    from repro.engine import Workload
    from repro.workloads.cache import TRACE_CACHE_ENV, sizes_sidecar_path, write_sizes_file

    cache_dir = tmp_path / "trace_cache"
    monkeypatch.setenv(TRACE_CACHE_ENV, str(cache_dir))
    seed, n = 2**35 + 5, 3000
    workload = Workload(_FLIP_PROFILES, seed=seed, trace_records_per_core=n)
    model = workload.data_model
    assert list(model._sizes) == list(
        dict.fromkeys(a for trace in workload.traces for a in trace.addrs)
    )
    for core, (prof, trace) in enumerate(zip(_FLIP_PROFILES, workload.traces)):
        expected = {}
        for addr in trace.addrs:
            csize = oracle_size(model, addr)
            expected[addr] = (csize, ecb_size(csize))
        assert BLOCK_SIZE in {c for c, _ in expected.values()}
        write_sizes_file(tmp_path / "expected.sizes", expected)
        sidecar = sizes_sidecar_path(cache_dir, prof, core, seed, n)
        assert sidecar.read_bytes() == (tmp_path / "expected.sizes").read_bytes()
