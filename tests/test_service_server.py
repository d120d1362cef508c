"""The standing service: job lifecycle, telemetry, audit, CLI."""

import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.service.client import ServiceClient, ServiceError, resolve_endpoint
from repro.service.server import (
    DONE,
    LEDGER_NAME,
    QUEUED,
    RUNNING,
    ServiceServer,
    read_ledger,
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One server with one completed smoke job, shared by the module.

    Job execution dominates the cost of these tests; everything that
    only *reads* state piggybacks on this fixture.
    """
    root = tmp_path_factory.mktemp("service") / "root"
    server = ServiceServer(root, jobs=1)
    server.start()
    client = ServiceClient(server.endpoint)
    job_id = client.submit(experiments=["tables"], scale="smoke")
    record = client.watch(job_id, timeout=300.0)
    assert record["status"] == DONE, record
    yield server, client, job_id
    server.stop()


# ----------------------------------------------------------------------
# job lifecycle

def test_job_completes_with_full_report(service):
    _server, client, job_id = service
    record = client.status(job_id)
    assert record["status"] == DONE
    report = record["report"]
    assert report["completed"] == report["total"] > 0
    assert report["failed"] == 0
    assert record["started_ts"] >= record["submitted_ts"]
    assert record["finished_ts"] >= record["started_ts"]


def test_watch_streams_unit_events_in_order(service):
    _server, client, job_id = service
    events = []
    client.watch(job_id, on_event=events.append, timeout=60.0)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "job_submitted"
    assert kinds[-1] == "job_done"
    assert kinds.count("unit_done") == client.status(job_id)["report"]["completed"]
    # Events are seq-stamped in order (job_submitted predates the log).
    seqs = [e["seq"] for e in events if "seq" in e]
    assert seqs == sorted(seqs)


def test_watch_from_seq_skips_replayed_events(service):
    _server, client, job_id = service
    events = []
    client.watch(job_id, on_event=events.append, from_seq=3, timeout=60.0)
    full = []
    client.watch(job_id, on_event=full.append, timeout=60.0)
    assert len(full) - len(events) == 3


def test_resume_job_serves_completed_units_from_manifest(service):
    _server, client, job_id = service
    before = client.status(job_id)["report"]
    assert client.resume(job_id) == job_id
    record = client.watch(job_id, timeout=300.0)
    assert record["status"] == DONE
    # Every unit was already complete on disk: nothing recomputed.
    assert record["report"]["skipped"] == before["total"]
    assert record["report"]["completed"] == 0


def test_submit_validates_experiments(service):
    _server, client, _job = service
    with pytest.raises(ServiceError, match="unknown experiments"):
        client.submit(experiments=["not_an_experiment"])


def test_status_unknown_job_is_an_error(service):
    _server, client, _job = service
    with pytest.raises(ServiceError, match="no such job"):
        client.status("job-9999")


def test_status_lists_jobs_and_cache_summary(service):
    server, client, job_id = service
    jobs = client.status()
    assert any(j["job_id"] == job_id for j in jobs)
    # The raw wire response also carries the shared-cache summary.
    import socket as socket_module

    from repro.service.protocol import LineReader, recv_message, send_message

    sock = socket_module.create_connection((server.host, server.port))
    try:
        send_message(sock, {"type": "status"})
        response = recv_message(LineReader(sock), timeout=30.0)
    finally:
        sock.close()
    summary = response["result_cache"]
    assert summary["entries"] > 0 and summary["bytes"] > 0


# ----------------------------------------------------------------------
# telemetry: one metrics spine, two transports

def test_metrics_exposes_scheduler_and_storage_counters(service):
    _server, client, job_id = service
    body = client.metrics()
    assert f'repro_scheduler_completed{{record="{job_id}"}}' in body
    assert "repro_scheduler_shard_deaths" in body
    assert "repro_storage_" in body
    assert "# HELP repro_scheduler_completed" in body


def test_http_metrics_agrees_with_json_protocol(service):
    server, client, _job = service
    http = urllib.request.urlopen(
        f"http://{server.endpoint}/metrics", timeout=30
    )
    assert http.status == 200
    assert http.headers["Content-Type"].startswith("text/plain")
    assert http.read().decode("utf-8") == client.metrics()


def test_http_unknown_path_404s(service):
    server, _client, _job = service
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"http://{server.endpoint}/nope", timeout=30)
    assert excinfo.value.code == 404


def test_metrics_agrees_with_file_exporter(service):
    """The endpoint is load_records+to_prometheus over the job health
    records — the same path `repro export --format prom` takes."""
    from repro.harness.scheduler import HEALTH_RECORD_NAME
    from repro.metrics.export import load_records, to_prometheus

    server, client, job_id = service
    health = server.root / "jobs" / job_id / "campaign" / HEALTH_RECORD_NAME
    records = load_records([health])
    for record in records:
        record.meta.setdefault("task_id", job_id)
    assert to_prometheus(records) == client.metrics()


# ----------------------------------------------------------------------
# crash resume and durability

def test_ledger_is_a_checksummed_envelope(service):
    server, _client, job_id = service
    document = json.loads((server.root / LEDGER_NAME).read_text())
    assert document["schema"] == "repro-service-ledger/1"
    assert read_ledger(server.root)[job_id]["status"] == DONE


def test_server_restart_requeues_running_jobs(tmp_path):
    """A job the server died while RUNNING re-queues at startup."""
    root = tmp_path / "root"
    server = ServiceServer(root)
    job_id = server._submit(["tables"], "smoke")
    with server._lock:
        server._ledger[job_id]["status"] = RUNNING
        server._save_job_locked(job_id)
        server._queue.clear()
    # A fresh server over the same root (no network needed to check).
    reborn = ServiceServer(root)
    assert reborn._ledger[job_id]["status"] == QUEUED
    assert job_id in reborn._queue


def test_watch_after_restart_replays_from_disk(service, tmp_path):
    """Event buffers rebuild from the on-disk log, not process memory."""
    server, client, job_id = service
    fresh = ServiceServer(server.root)
    replayed = fresh._buffer_for(job_id)
    kinds = [e["event"] for e in replayed]
    assert "job_started" in kinds and "job_done" in kinds


def test_resolve_endpoint_accepts_announce_file(service):
    server, _client, _job = service
    announce = server.root / "service.announce.json"
    assert resolve_endpoint(str(announce)) == server.endpoint
    with pytest.raises(ValueError):
        resolve_endpoint("not an endpoint at all")


def test_doctor_audits_service_root_clean(service):
    from repro.fsio.doctor import run_doctor

    server, _client, job_id = service
    report = run_doctor([server.root])
    assert report.ok, [f.line() for f in report.findings]
    checked = "\n".join(report.checked)
    assert LEDGER_NAME in checked
    assert "events.jsonl" in checked
    assert f"{job_id}" in checked


def test_doctor_flags_torn_event_tail_as_warning(service):
    from repro.fsio.doctor import run_doctor

    server, _client, job_id = service
    log = server.root / "jobs" / job_id / "events.jsonl"
    original = log.read_bytes()
    try:
        with open(log, "ab") as fh:
            fh.write(b'{"torn mid-append')
        report = run_doctor([log])
        assert report.ok  # torn tail is survivable, not corruption
        assert any(
            f.defect == "truncated" and f.severity == "warn"
            for f in report.findings
        )
    finally:
        log.write_bytes(original)


def test_doctor_flags_corrupt_ledger(tmp_path):
    from repro.fsio.doctor import run_doctor

    root = tmp_path / "root"
    ServiceServer(root)._save_ledger_locked()
    ledger = root / LEDGER_NAME
    ledger.write_text(ledger.read_text().replace('"jobs"', '"j0bs"'))
    report = run_doctor([root])
    assert not report.ok
    assert any(f.category == "service-ledger" for f in report.errors)


# ----------------------------------------------------------------------
# CLI surface

def test_cli_status_reports_campaign_and_shards(tmp_path, capsys):
    from repro.harness import CampaignSettings, run_campaign
    from repro.service.shard import LocalShardSet

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


def test_cli_serve_submit_watch_roundtrip(tmp_path, capsys):
    """The CLI path end to end: serve in a thread, submit --watch."""
    root = tmp_path / "root"
    server = ServiceServer(root, jobs=1)
    server.start()
    try:
        endpoint = server.endpoint
        rc = main([
            "submit", "--endpoint", endpoint,
            "--experiments", "tables", "--scale", "smoke",
            "--watch",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "job-0001" in out
        assert "done" in out
        assert main(["status", "--endpoint", endpoint]) == 0
        out = capsys.readouterr().out
        assert "job-0001" in out
        assert main(["watch", "job-0001", "--endpoint", endpoint]) == 0
    finally:
        server.stop()
