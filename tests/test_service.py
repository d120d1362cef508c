"""Sharded dispatch: wire protocol, shard fleets, chaos, CLI, bench gates."""

import json
import socket

import pytest

from repro.bench.service import (
    SERVICE_SPEEDUP_FLOOR,
    _floor_section,
    _results_digest,
    service_floor_errors,
)
from repro.cli import main
from repro.harness import CampaignSettings, run_campaign
from repro.service.dispatch import (
    SHARD_MANIFEST_NAME,
    ShardedDispatcher,
    ShardError,
)
from repro.service.protocol import (
    LineReader,
    ProtocolError,
    decode_message,
    encode_message,
)
from repro.service.shard import KILL_AT_ENV, LocalShardSet, _KillSwitch, parse_endpoint


# ----------------------------------------------------------------------
# protocol framing

def test_message_roundtrip():
    line = encode_message({"type": "run", "payload": "a"})
    assert line.endswith(b"\n")
    assert decode_message(line.rstrip(b"\n")) == {
        "type": "run", "payload": "a",
    }


@pytest.mark.parametrize("line", [
    b"not json", b"[1, 2]", b'{"no_type": 1}', b'{"type": 7}',
])
def test_decode_rejects_malformed(line):
    with pytest.raises(ProtocolError):
        decode_message(line)


def test_linereader_reassembles_split_lines():
    left, right = socket.socketpair()
    try:
        right.sendall(b'{"type":"a"}\n{"ty')
        reader = LineReader(left)
        assert reader.fill() is True
        assert reader.lines() == [b'{"type":"a"}']
        right.sendall(b'pe":"b"}\n')
        assert reader.fill() is True
        assert reader.lines() == [b'{"type":"b"}']
    finally:
        left.close()
        right.close()


def test_linereader_serves_buffered_lines_after_eof():
    """A 'done' flushed before the peer died must still be delivered."""
    left, right = socket.socketpair()
    try:
        right.sendall(b'{"type":"done"}\n{"type":"tor')
        right.close()
        reader = LineReader(left)
        while reader.fill():
            pass
        assert reader.eof
        assert reader.lines() == [b'{"type":"done"}']
        # The torn tail stays incomplete and is never surfaced.
        assert reader.lines() == []
    finally:
        left.close()


# ----------------------------------------------------------------------
# endpoints and the kill switch

def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    for bad in ("no-port", "host:notnum", "host:0", ":123", "h:-1"):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


def test_kill_switch_parses_and_validates(monkeypatch):
    monkeypatch.setenv(KILL_AT_ENV, "done:3")
    switch = _KillSwitch.from_env()
    assert (switch.stage, switch.nth) == ("done", 3)
    for bad in ("done", "nope:1", "done:0", "done:x"):
        monkeypatch.setenv(KILL_AT_ENV, bad)
        with pytest.raises(ValueError):
            _KillSwitch.from_env()
    monkeypatch.delenv(KILL_AT_ENV)
    assert _KillSwitch.from_env().stage is None


# ----------------------------------------------------------------------
# dispatcher validation

def test_sharded_dispatcher_validates_endpoints():
    with pytest.raises(ShardError):
        ShardedDispatcher([])
    with pytest.raises(ValueError):
        ShardedDispatcher(["not-an-endpoint"])


def test_sharded_dispatch_refuses_unreachable_shard(tmp_path):
    # Grab a port nothing listens on.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ShardError):
        run_campaign(
            tmp_path / "camp",
            scale="smoke",
            experiments=("tables",),
            settings=CampaignSettings(
                shards=[f"127.0.0.1:{port}"], retries=0
            ),
        )


# ----------------------------------------------------------------------
# sharded campaigns against real subprocess shards

def _result_bytes(directory):
    return {
        p.name: p.read_bytes()
        for p in (directory / "results").glob("*.json")
    }


def _reference_run(tmp_path):
    report = run_campaign(
        tmp_path / "reference",
        scale="smoke",
        experiments=("tables",),
        settings=CampaignSettings(jobs=1, retries=0),
    )
    assert report.ok
    return _result_bytes(tmp_path / "reference")


def test_sharded_campaign_byte_identical_with_manifest(tmp_path):
    from repro.fsio.durable import unwrap_json
    from repro.harness import CampaignManifest
    from repro.harness.scheduler import HEALTH_RECORD_NAME

    reference = _reference_run(tmp_path)
    with LocalShardSet(2, tmp_path / "fleet") as fleet:
        report = run_campaign(
            tmp_path / "camp",
            scale="smoke",
            experiments=("tables",),
            settings=CampaignSettings(shards=fleet.endpoints, retries=0),
        )
    assert report.ok and report.shard_deaths == 0
    assert _result_bytes(tmp_path / "camp") == reference

    # Per-shard wall clocks surface in the report...
    assert set(report.shard_walls) == {"shard-0", "shard-1"}
    assert all(w >= 0.0 for w in report.shard_walls.values())

    # ...in the checksummed shard manifest...
    document = json.loads((tmp_path / "camp" / SHARD_MANIFEST_NAME).read_text())
    summary = unwrap_json(document)
    assert summary["total_shards"] == 2 and summary["deaths"] == 0
    assert sum(s["tasks_done"] for s in summary["shards"]) == report.completed

    # ...mirrored into the campaign manifest for `repro status`...
    manifest = CampaignManifest.load(tmp_path / "camp")
    assert manifest.shards == summary

    # ...and in the campaign health record's scheduler metrics.
    health = unwrap_json(
        json.loads((tmp_path / "camp" / HEALTH_RECORD_NAME).read_text())
    )
    assert health["meta"]["mode"] == "sharded"
    assert health["metrics"]["scheduler.completed"] == report.completed
    assert health["metrics"]["scheduler.shard_deaths"] == 0
    assert health["values"]["shard_walls"] == dict(report.shard_walls)


def test_unsharded_campaign_manifest_has_no_shards_key(tmp_path):
    from repro.fsio.durable import unwrap_json

    run_campaign(
        tmp_path / "camp",
        scale="smoke",
        experiments=("tables",),
        settings=CampaignSettings(jobs=1, retries=0),
    )
    document = unwrap_json(
        json.loads((tmp_path / "camp" / "campaign.json").read_text())
    )
    assert "shards" not in document


@pytest.mark.parametrize("stage", ["run", "start", "done"])
def test_kill_shard_at_stage_loses_nothing(tmp_path, stage):
    """A shard dying at any protocol stage costs zero units.

    Unstarted units requeue to the survivor attempt-free, started
    units are charged a crash attempt and retried; either way the
    merged output is byte-identical to a single-pool run.
    """
    reference = _reference_run(tmp_path)
    env = [None, {KILL_AT_ENV: f"{stage}:1"}]
    with LocalShardSet(2, tmp_path / "fleet", extra_env=env) as fleet:
        report = run_campaign(
            tmp_path / "camp",
            scale="smoke",
            experiments=("tables",),
            settings=CampaignSettings(shards=fleet.endpoints, retries=2),
        )
    assert report.ok
    assert report.shard_deaths == 1
    assert report.completed == report.total
    assert _result_bytes(tmp_path / "camp") == reference


def test_kill_shard_at_connect_aborts_then_resumes(tmp_path):
    """A shard dead before hello aborts the fleet; resume completes.

    Connect failures are loud (the fleet was mis-specified or died
    under the controller's feet), but the campaign directory stays
    resumable with whatever fleet survives.
    """
    reference = _reference_run(tmp_path)
    env = [None, {KILL_AT_ENV: "connect:1"}]
    with LocalShardSet(2, tmp_path / "fleet", extra_env=env) as fleet:
        with pytest.raises(ShardError):
            run_campaign(
                tmp_path / "camp",
                scale="smoke",
                experiments=("tables",),
                settings=CampaignSettings(shards=fleet.endpoints, retries=2),
            )
        survivor = fleet.endpoints[0]
        report = run_campaign(
            tmp_path / "camp",
            resume=True,
            settings=CampaignSettings(shards=[survivor], retries=2),
        )
    assert report.ok
    assert _result_bytes(tmp_path / "camp") == reference


def test_two_shard_chaos_with_disk_faults(tmp_path):
    """Deterministic chaos (worker crashes + disk faults) across a
    two-subprocess fleet still converges to byte-identical output."""
    from repro.harness import parse_chaos_spec

    reference = _reference_run(tmp_path)
    # Crash + disk kinds only: a "timeout" fault would hang a shard
    # for the full task deadline, which is pointless wall-clock here.
    chaos = parse_chaos_spec(
        "p=0.3,kinds=crash,corrupt,disk-torn,disk-flip,seed=5"
    )
    with LocalShardSet(2, tmp_path / "fleet") as fleet:
        report = run_campaign(
            tmp_path / "camp",
            scale="smoke",
            experiments=("tables",),
            settings=CampaignSettings(
                shards=fleet.endpoints,
                retries=6,
                backoff_base=0.02,
                chaos=chaos,
            ),
        )
    assert report.ok
    assert report.completed == report.total
    assert _result_bytes(tmp_path / "camp") == reference


# ----------------------------------------------------------------------
# CLI surface

def test_cli_status_reports_campaign_and_shards(tmp_path, capsys):
    with LocalShardSet(2, tmp_path / "fleet") as fleet:
        run_campaign(
            tmp_path / "camp",
            scale="smoke",
            experiments=("tables",),
            settings=CampaignSettings(shards=fleet.endpoints, retries=0),
        )
    assert main(["status", str(tmp_path / "camp")]) == 0
    out = capsys.readouterr().out
    assert "complete" in out
    assert "shard-0" in out and "shard-1" in out
    assert "last run:" in out and "completed=" in out


def test_cli_campaign_rejects_bad_shard_specs(tmp_path):
    assert main([
        "campaign", "--out", str(tmp_path / "camp"),
        "--scale", "smoke",
        "--shards", "nonsense",
    ]) == 2


# ----------------------------------------------------------------------
# service bench gates (unit-level: synthetic documents, no fleets)

def test_results_digest_tracks_bytes(tmp_path):
    for name in ("a", "b"):
        results = tmp_path / name / "results"
        results.mkdir(parents=True)
        (results / "t1.json").write_bytes(b'{"x": 1}')
        (results / "t2.json").write_bytes(b'{"y": 2}')
    assert _results_digest(tmp_path / "a") == _results_digest(tmp_path / "b")
    (tmp_path / "b" / "results" / "t2.json").write_bytes(b'{"y": 3}')
    assert _results_digest(tmp_path / "a") != _results_digest(tmp_path / "b")


def test_floor_section_enforced_only_on_multicore():
    scaling = [
        {"shards": 1, "speedup": 1.0},
        {"shards": 2, "speedup": 1.9},
    ]
    multi = _floor_section(scaling, cpu_count=8)
    assert multi["enforced"] and not multi["degenerate_single_core"]
    assert multi["measured_speedup"] == 1.9
    single = _floor_section(scaling, cpu_count=1)
    assert not single["enforced"] and single["degenerate_single_core"]
    # No 2-shard data point: nothing to enforce even on a big host.
    partial = _floor_section([{"shards": 1, "speedup": 1.0}], cpu_count=8)
    assert not partial["enforced"] and not partial["degenerate_single_core"]


def _service_document(**floor_overrides):
    floor = {
        "min_speedup": SERVICE_SPEEDUP_FLOOR,
        "at_shards": 2,
        "measured_speedup": 1.9,
        "cpu_count": 8,
        "degenerate_single_core": False,
        "enforced": True,
    }
    floor.update(floor_overrides)
    return {"service": {"byte_identical": True, "floor": floor}}


def test_service_floor_gate_passes_and_fails():
    assert service_floor_errors(_service_document()) == []
    errors = service_floor_errors(_service_document(measured_speedup=1.2))
    assert errors and "floor violated" in errors[0]


def test_service_floor_gate_honours_single_core_stamp():
    stamped = _service_document(
        measured_speedup=0.9, degenerate_single_core=True, enforced=False,
        cpu_count=1,
    )
    assert service_floor_errors(stamped) == []


def test_service_floor_gate_rejects_unstamped_unenforced():
    sneaky = _service_document(enforced=False)
    errors = service_floor_errors(sneaky)
    assert errors and "degenerate_single_core" in errors[0]


def test_service_floor_gate_demands_attestations():
    assert service_floor_errors({}) == [
        "document has no 'service' section to gate"
    ]
    document = _service_document()
    document["service"]["byte_identical"] = False
    errors = service_floor_errors(document)
    assert errors and "byte-identical" in errors[0]
