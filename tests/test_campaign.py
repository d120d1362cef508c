"""Integration tests: campaign lifecycle, resume semantics, chaos.

The acceptance bar (ISSUE 1): a campaign interrupted mid-flight
resumes from its checkpoint and produces results *byte-identical* to
an uninterrupted run, skipping all verified-complete tasks; chaos
mode at p=0.3 completes a smoke campaign with zero lost results.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.fsio.durable import unwrap_json
from repro.harness import (
    COMPLETE,
    FAILED,
    PENDING,
    CampaignManifest,
    CampaignSettings,
    ChaosConfig,
    load_result,
    run_campaign,
)
from repro.harness.scheduler import HEALTH_RECORD_NAME

FAST = CampaignSettings(jobs=2, task_timeout=60, retries=2, backoff_base=0.01)


def result_bytes(directory) -> dict:
    """Map result filename -> raw bytes for byte-identity checks."""
    return {
        p.name: p.read_bytes() for p in (Path(directory) / "results").glob("*.json")
    }


@pytest.fixture(scope="module")
def reference_campaign(tmp_path_factory):
    """One uninterrupted `tables` campaign all tests compare against."""
    directory = tmp_path_factory.mktemp("campaigns") / "reference"
    report = run_campaign(
        directory, scale="smoke", experiments=["tables"], settings=FAST
    )
    assert report.ok and report.completed == 5
    return directory


def test_campaign_completes_and_checkpoints(reference_campaign):
    manifest = CampaignManifest.load(reference_campaign)
    assert len(manifest.tasks) == 5
    assert all(e.status == COMPLETE for e in manifest.tasks.values())
    for task_id, entry in manifest.tasks.items():
        envelope = json.loads(
            (reference_campaign / entry.result).read_text()
        )
        # Results are checksummed repro-blob/1 envelopes on disk.
        assert envelope["format"] == "repro-blob/1"
        assert envelope["schema"] == "repro-task-result/1"
        payload = load_result(reference_campaign / entry.result)
        assert payload["task_id"] == task_id
        assert payload["status"] == "ok"
        assert manifest.verified_complete(task_id)
    # A local campaign always runs on the worker pool.
    health = unwrap_json(
        json.loads((reference_campaign / HEALTH_RECORD_NAME).read_text())
    )
    assert health["meta"]["mode"] == "pool"


def test_interrupted_campaign_marks_incomplete_and_resumes_identically(
    tmp_path, reference_campaign
):
    directory = tmp_path / "interrupted"
    report = run_campaign(
        directory,
        scale="smoke",
        experiments=["tables"],
        settings=FAST,
        stop_after=2,  # die mid-flight after two completions
    )
    assert report.interrupted and not report.ok
    assert report.completed >= 2

    manifest = CampaignManifest.load(directory)
    incomplete = manifest.incomplete_tasks()
    assert incomplete, "interruption must leave tasks marked incomplete"
    for task_id in incomplete:
        assert manifest.tasks[task_id].status == PENDING
        assert not manifest.verified_complete(task_id)

    resumed = run_campaign(directory, resume=True, settings=FAST)
    assert resumed.ok
    assert resumed.skipped == report.completed, "verified tasks must be skipped"
    assert resumed.completed == 5 - report.completed

    assert result_bytes(directory) == result_bytes(reference_campaign)


def test_resume_after_chaos_crashes_is_byte_identical(
    tmp_path, reference_campaign
):
    # Chaos crashes with a zero retry budget permanently fail ~half of
    # the tasks (deterministically, given the seed) ...
    directory = tmp_path / "chaotic"
    chaos = ChaosConfig(p=0.6, kinds=("crash",), seed=5)
    crashed = run_campaign(
        directory,
        scale="smoke",
        experiments=["tables"],
        settings=CampaignSettings(
            jobs=2, task_timeout=60, retries=0, backoff_base=0.01, chaos=chaos
        ),
    )
    assert not crashed.ok and crashed.failed

    manifest = CampaignManifest.load(directory)
    failed = [t for t, e in manifest.tasks.items() if e.status == FAILED]
    assert len(failed) == len(crashed.failed)
    for task_id in failed:
        error = manifest.tasks[task_id].error
        assert error["kind"] == "crash"
    assert (directory / "failures.json").exists()

    # ... and a chaos-free resume completes exactly the failed ones,
    # reproducing the uninterrupted run byte for byte.
    resumed = run_campaign(directory, resume=True, settings=FAST)
    assert resumed.ok
    assert resumed.completed == len(failed)
    assert resumed.skipped == 5 - len(failed)
    assert result_bytes(directory) == result_bytes(reference_campaign)
    assert not (directory / "failures.json").exists()


def test_resume_reruns_corrupted_result(tmp_path, reference_campaign):
    directory = tmp_path / "bitrot"
    report = run_campaign(
        directory, scale="smoke", experiments=["tables"], settings=FAST
    )
    assert report.ok

    # Corrupt one completed result behind the manifest's back.
    victim = sorted((directory / "results").glob("*.json"))[0]
    victim.write_bytes(b'{"status": "ok", "task_id": "trunc')

    resumed = run_campaign(directory, resume=True, settings=FAST)
    assert resumed.ok
    assert resumed.completed == 1, "only the corrupt task re-runs"
    assert resumed.skipped == 4
    assert result_bytes(directory) == result_bytes(reference_campaign)


def test_worker_exception_is_captured_in_failure_report(tmp_path):
    # "table99" passes enumeration only if injected directly; poke the
    # manifest path by running a unit that raises inside the worker.
    from repro.experiments.campaign_tasks import CampaignTask
    from repro.harness.scheduler import CampaignRunner

    directory = tmp_path / "broken"
    runner = CampaignRunner(
        directory,
        scale="smoke",
        experiments=["tables"],
        settings=CampaignSettings(
            jobs=1, task_timeout=60, retries=1, backoff_base=0.01
        ),
    )
    # Sabotage one enumerated unit so the worker raises KeyError.
    import repro.experiments.campaign_tasks as campaign_tasks

    original = campaign_tasks.enumerate_campaign_tasks

    def sabotaged(experiments, scale):
        tasks = original(experiments, scale)
        tasks[0] = CampaignTask("tables", {"table": "table99"})
        return tasks

    import repro.harness.scheduler as scheduler_module

    old = scheduler_module.enumerate_campaign_tasks
    scheduler_module.enumerate_campaign_tasks = sabotaged
    try:
        report = runner.run()
    finally:
        scheduler_module.enumerate_campaign_tasks = old

    assert len(report.failed) == 1
    failure = report.failed[0].failures[-1]
    assert failure.kind == "error"
    assert "KeyError" in (failure.traceback or "")
    manifest = CampaignManifest.load(directory)
    entry = manifest.tasks["tables/table=table99"]
    assert entry.status == FAILED
    assert "KeyError" in entry.error["traceback"]
    failures = json.loads((directory / "failures.json").read_text())
    assert failures["failed_tasks"][0]["task_id"] == "tables/table=table99"


def test_pool_worker_crash_loses_nothing(tmp_path, reference_campaign):
    """Chaos kills persistent workers mid-batch; the scheduler must
    respawn them and finish with results byte-identical to a calm run
    — no task lost, none duplicated."""
    directory = tmp_path / "pool_crash"
    report = run_campaign(
        directory,
        scale="smoke",
        experiments=["tables"],
        settings=CampaignSettings(
            jobs=2, task_timeout=60, retries=8, backoff_base=0.01,
            chaos=ChaosConfig(p=0.5, kinds=("crash",), seed=9),
        ),
    )
    assert report.ok
    assert report.worker_respawns > 0, "the chaos seed must kill workers"
    assert result_bytes(directory) == result_bytes(reference_campaign)
    manifest = CampaignManifest.load(directory)
    assert set(report.durations) == set(manifest.tasks)


def test_pool_corrupt_results_are_caught_and_retried(
    tmp_path, reference_campaign
):
    """A pool worker reporting success over a torn result must be
    caught by verification, not trusted."""
    directory = tmp_path / "pool_corrupt"
    report = run_campaign(
        directory,
        scale="smoke",
        experiments=["tables"],
        settings=CampaignSettings(
            jobs=2, task_timeout=60, retries=8, backoff_base=0.01,
            chaos=ChaosConfig(p=0.5, kinds=("corrupt",), seed=3),
        ),
    )
    assert report.ok
    assert report.retried_attempts > 0, "the chaos seed must tear results"
    assert result_bytes(directory) == result_bytes(reference_campaign)


def test_disk_fault_chaos_is_byte_identical_and_quarantines(
    tmp_path, reference_campaign
):
    """Disk-level chaos (torn result writes, bit flips, ENOSPC) inside
    the workers: every defect must be detected — never served — the
    campaign must lose nothing, the final bytes must match a fault-free
    run, and the corrupt artefacts must sit in quarantine/ with
    structured reason records."""
    from repro.fsio.quarantine import load_reason

    directory = tmp_path / "disk_chaos"
    report = run_campaign(
        directory,
        scale="smoke",
        experiments=["tables"],
        settings=CampaignSettings(
            jobs=2, task_timeout=60, retries=8, backoff_base=0.01,
            chaos=ChaosConfig(
                p=0.5, kinds=("disk-torn", "disk-flip", "disk-enospc"),
                seed=4,
            ),
        ),
    )
    assert report.ok, [f.task_id for f in report.failed]
    assert report.retried_attempts > 0, "the chaos seed must inject faults"
    assert result_bytes(directory) == result_bytes(reference_campaign)

    # Torn/flipped results were scrubbed into quarantine with evidence.
    quarantine = directory / "quarantine"
    assert quarantine.is_dir()
    victims = [
        p for p in quarantine.iterdir()
        if not p.name.endswith(".reason.json")
    ]
    assert victims, "disk faults must leave quarantined artefacts"
    for victim in victims:
        reason = load_reason(quarantine / f"{victim.name}.reason.json")
        assert reason is not None
        assert reason["category"] == "campaign-result"
        assert reason["quarantined_as"] == victim.name
        assert reason["reason"]

    # The campaign directory passes a post-hoc integrity audit.
    from repro.fsio.doctor import run_doctor

    audit = run_doctor([directory])
    assert audit.ok, audit.summary()


def test_smoke_campaign_with_chaos_loses_nothing(tmp_path, capsys):
    """Tier-1 acceptance: chaos at p=0.3 with crash/timeout/corrupt on a
    two-experiment smoke campaign completes with zero lost tasks."""
    directory = tmp_path / "chaos_smoke"
    rc = main(
        [
            "campaign",
            "--scale", "smoke",
            "--out", str(directory),
            "--experiments", "tables,fig2",
            "--chaos", "p=0.3,kinds=crash,timeout,corrupt",
            "--retries", "8",
            "--timeout", "10",
            "--backoff", "0.05",
            "--jobs", "4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "campaign OK" in out

    manifest = CampaignManifest.load(directory)
    assert len(manifest.tasks) == 25  # 5 tables + 20 apps
    lost = [t for t, e in manifest.tasks.items() if e.status != COMPLETE]
    assert lost == []
    for task_id in manifest.tasks:
        assert manifest.verified_complete(task_id)
