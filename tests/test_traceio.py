"""Tests for trace file I/O."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generator import AppTraceGenerator
from repro.workloads.profiles import profile
from repro.workloads.trace import MaterializedTrace, TraceRecord
from repro.workloads.traceio import (
    load_trace,
    load_trace_csv,
    save_trace,
    save_trace_csv,
)


def sample_trace(n=200):
    return AppTraceGenerator(profile("mcf17").scaled(1 / 32), 2, seed=7).take(n)


def test_binary_roundtrip(tmp_path):
    trace = sample_trace()
    path = tmp_path / "t.trc"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.records == trace.records


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.trc"
    path.write_bytes(b"NOTATRACE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a repro trace"):
        load_trace(path)


def test_binary_rejects_truncated(tmp_path):
    trace = sample_trace(10)
    path = tmp_path / "t.trc"
    save_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_trace(path)


def test_binary_rejects_short_header(tmp_path):
    path = tmp_path / "t.trc"
    path.write_bytes(b"RE")
    with pytest.raises(ValueError, match="truncated header"):
        load_trace(path)


def test_csv_roundtrip(tmp_path):
    trace = sample_trace()
    path = tmp_path / "t.csv"
    save_trace_csv(trace, path)
    loaded = load_trace_csv(path)
    assert loaded.records == trace.records


def test_csv_accepts_decimal_and_comments():
    text = io.StringIO("# comment\n5,100,1\n0,0x40,0\n")
    trace = load_trace_csv(text)
    assert trace.records == [TraceRecord(5, 100, True), TraceRecord(0, 64, False)]


def test_csv_rejects_malformed():
    with pytest.raises(ValueError, match="expected 3 fields"):
        load_trace_csv(io.StringIO("1,2\n"))
    with pytest.raises(ValueError, match="negative"):
        load_trace_csv(io.StringIO("-1,5,0\n"))


def test_loaded_trace_drives_simulation(tmp_path):
    """A trace written to disk replays identically through the engine."""
    from repro.core import make_policy
    from repro.engine import Simulation, Workload
    from repro.experiments.common import SMOKE

    scale = SMOKE
    workload = scale.workload("mix1")
    paths = []
    for i, trace in enumerate(workload.traces):
        path = tmp_path / f"core{i}.trc"
        save_trace(trace, path)
        paths.append(path)

    reloaded = scale.workload("mix1")
    reloaded.traces = [load_trace(p) for p in paths]

    epoch = scale.system().dueling.epoch_cycles
    r1 = Simulation(scale.system(), make_policy("bh"), workload).run(epoch, 0)
    r2 = Simulation(scale.system(), make_policy("bh"), reloaded).run(epoch, 0)
    assert r1.stats.llc.hits == r2.stats.llc.hits
    assert r1.stats.llc.nvm_bytes_written == r2.stats.llc.nvm_bytes_written


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**64 - 1),
            st.booleans(),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=40, deadline=None)
def test_binary_roundtrip_arbitrary_records(tmp_path_factory, raw):
    trace = MaterializedTrace([TraceRecord(*r) for r in raw])
    path = tmp_path_factory.mktemp("traces") / "x.trc"
    save_trace(trace, path)
    assert load_trace(path).records == trace.records


# ----------------------------------------------------------------------
# integrity validation (TraceFormatError, validate_trace, file_sha256)

def test_errors_are_trace_format_errors(tmp_path):
    from repro.workloads.traceio import TraceFormatError

    path = tmp_path / "bad.trc"
    path.write_bytes(b"NOTATRACE" + b"\x00" * 32)
    with pytest.raises(TraceFormatError) as excinfo:
        load_trace(path)
    assert excinfo.value.path == str(path)
    assert TraceFormatError.__bases__ == (ValueError,)  # back-compat


def test_rejects_wrong_version(tmp_path):
    import struct

    from repro.workloads.traceio import TraceFormatError

    path = tmp_path / "v9.trc"
    path.write_bytes(struct.pack("<8sII", b"REPROTRC", 9, 0))
    with pytest.raises(TraceFormatError, match="unsupported version"):
        load_trace(path)


def test_rejects_count_bytes_mismatch(tmp_path):
    """The declared record count must match the bytes actually present."""
    import struct

    from repro.workloads.traceio import TraceFormatError, validate_trace

    record = struct.pack("<IQB", 1, 64, 0)
    # header claims 3 records, file holds 2 -> truncated
    short = tmp_path / "short.trc"
    short.write_bytes(struct.pack("<8sII", b"REPROTRC", 1, 3) + record * 2)
    with pytest.raises(TraceFormatError, match="truncated records"):
        validate_trace(short)
    with pytest.raises(TraceFormatError, match="truncated records"):
        load_trace(short)

    # header claims 1 record, file holds 2 -> trailing data is an error
    # too (a silent short read would hide generator/converter bugs)
    extra = tmp_path / "extra.trc"
    extra.write_bytes(struct.pack("<8sII", b"REPROTRC", 1, 1) + record * 2)
    with pytest.raises(TraceFormatError, match="trailing data"):
        validate_trace(extra)


def test_validate_trace_accepts_good_file(tmp_path):
    from repro.workloads.traceio import validate_trace

    trace = sample_trace(25)
    path = tmp_path / "ok.trc"
    save_trace(trace, path)
    version, count = validate_trace(path)
    assert version == 1 and count == 25


def test_file_sha256_matches_hashlib(tmp_path):
    import hashlib

    from repro.workloads.traceio import file_sha256

    path = tmp_path / "blob.bin"
    path.write_bytes(b"x" * 100_000)
    assert file_sha256(path) == hashlib.sha256(b"x" * 100_000).hexdigest()


# ----------------------------------------------------------------------
# stat-keyed sha256 memo

def test_file_sha256_cached_hashes_once_per_stat(tmp_path, monkeypatch):
    import repro.workloads.traceio as traceio

    path = tmp_path / "blob.bin"
    path.write_bytes(b"a" * 1000)
    expected = traceio.file_sha256(path)

    calls = []
    real = traceio.file_sha256

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(traceio, "file_sha256", counting)
    assert traceio.file_sha256_cached(path) == expected
    assert traceio.file_sha256_cached(path) == expected
    assert len(calls) == 1, "second lookup must come from the memo"


def test_file_sha256_cached_invalidates_on_change(tmp_path):
    import os

    from repro.workloads.traceio import file_sha256, file_sha256_cached

    path = tmp_path / "blob.bin"
    path.write_bytes(b"before")
    assert file_sha256_cached(path) == file_sha256(path)

    # same size, different bytes: the mtime_ns change must invalidate
    path.write_bytes(b"after!")
    os.utime(path)  # ensure a strictly newer timestamp either way
    assert file_sha256_cached(path) == file_sha256(path)

    # different size invalidates too
    path.write_bytes(b"a much longer blob")
    assert file_sha256_cached(path) == file_sha256(path)


def test_file_sha256_cached_invalidates_within_one_mtime_tick(tmp_path):
    """An atomic rewrite (same size, same forced mtime) lands on a new
    inode, which alone must bust the memo — the stat key that only
    covered (size, mtime) served stale digests for rewrites faster
    than the filesystem timestamp granularity."""
    import os

    from repro.fsio.durable import atomic_write_bytes
    from repro.workloads.traceio import file_sha256, file_sha256_cached

    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"version-A")
    first = file_sha256_cached(path)
    assert first == file_sha256(path)
    stat = path.stat()

    # rewrite atomically with identical size, then pin mtime back so
    # (size, mtime_ns) is byte-for-byte the same stat key as before
    atomic_write_bytes(path, b"version-B")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = path.stat()
    assert after.st_size == stat.st_size
    assert after.st_mtime_ns == stat.st_mtime_ns
    assert after.st_ino != stat.st_ino, "atomic replace must change inode"

    second = file_sha256_cached(path)
    assert second == file_sha256(path)
    assert second != first


def test_file_sha256_cached_missing_file_raises(tmp_path):
    from repro.workloads.traceio import file_sha256_cached

    with pytest.raises(OSError):
        file_sha256_cached(tmp_path / "nope.bin")


# ----------------------------------------------------------------------
# zero-copy mmap loader

def test_mmap_loader_equivalent_to_struct_loader(tmp_path):
    from repro.workloads.traceio import load_trace_mmap

    trace = sample_trace(500)
    path = tmp_path / "t.trc"
    save_trace(trace, path)
    struct_loaded = load_trace(path)
    mmap_loaded = load_trace_mmap(path)
    assert len(mmap_loaded) == len(struct_loaded)
    assert mmap_loaded.records == struct_loaded.records
    # the replay view the engine indexes must be native Python ints
    gaps, addrs, writes = mmap_loaded.replay_columns()
    assert type(gaps[0]) is int and type(addrs[0]) is int
    assert type(writes[0]) is bool
    assert (gaps, addrs, writes) == struct_loaded.replay_columns()


def test_mmap_loader_rejects_what_struct_loader_rejects(tmp_path):
    import struct

    from repro.workloads.traceio import TraceFormatError, load_trace_mmap

    garbage = tmp_path / "bad.trc"
    garbage.write_bytes(b"NOTATRACE" + b"\x00" * 32)
    with pytest.raises(TraceFormatError, match="not a repro trace"):
        load_trace_mmap(garbage)

    short = tmp_path / "short.trc"
    short.write_bytes(b"RE")
    with pytest.raises(TraceFormatError, match="truncated header"):
        load_trace_mmap(short)

    trace = sample_trace(10)
    truncated = tmp_path / "trunc.trc"
    save_trace(trace, truncated)
    truncated.write_bytes(truncated.read_bytes()[:-5])
    with pytest.raises(TraceFormatError, match="truncated"):
        load_trace_mmap(truncated)

    wrong_version = tmp_path / "v9.trc"
    wrong_version.write_bytes(struct.pack("<8sII", b"REPROTRC", 9, 0))
    with pytest.raises(TraceFormatError, match="unsupported version"):
        load_trace_mmap(wrong_version)


def test_mmap_loaded_trace_drives_simulation_identically(tmp_path):
    """Digest-level equivalence: an mmap-loaded workload produces the
    same simulation statistics as the in-memory one, bit for bit."""
    from repro.bench.golden import simulation_digest
    from repro.core import make_policy
    from repro.engine import Simulation, Workload
    from repro.experiments.common import SMOKE
    from repro.workloads.mixes import mix_profiles
    from repro.workloads.traceio import load_trace_mmap

    # Built directly (not via SMOKE.workload) so the two workloads are
    # distinct objects — the shared cache would alias them.
    profiles = [p.scaled(SMOKE.factor) for p in mix_profiles("mix1")]
    records = SMOKE.trace_records_per_core
    workload = Workload(profiles, seed=0, trace_records_per_core=records)
    paths = []
    for i, trace in enumerate(workload.traces):
        path = tmp_path / f"core{i}.trc"
        save_trace(trace, path)
        paths.append(path)
    reloaded = Workload(profiles, seed=0, trace_records_per_core=records)
    reloaded.traces = [load_trace_mmap(p) for p in paths]

    epoch = SMOKE.system().dueling.epoch_cycles
    r1 = Simulation(SMOKE.system(), make_policy("cp_sd"), workload).run(epoch, 0)
    r2 = Simulation(SMOKE.system(), make_policy("cp_sd"), reloaded).run(epoch, 0)
    assert simulation_digest(r1) == simulation_digest(r2)
