"""The fault-tolerant campaign scheduler.

Drives a set of :class:`~repro.experiments.campaign_tasks.CampaignTask`
units to completion on a persistent pool of long-lived worker
processes.  Workers pull tasks over pipes and keep trace/sidecar/
workload caches warm across tasks, so an N-cell policy matrix pays the
interpreter spawn and workload build once per worker instead of once
per cell.  With ``shards`` set, the same task graph is fanned out over
``repro serve-worker`` endpoints by
:class:`~repro.service.dispatch.ShardedDispatcher` instead.

The fault-tolerance guarantees:

* **crash containment** — a dead worker is an event, never an
  exception; its in-flight task requeues and a fresh worker replaces
  it;
* **per-task deadlines** — pool workers heartbeat a ``start`` message
  per task, arming a deadline; a worker that blows it is killed and
  the attempt recorded as a timeout;
* **retry with exponential backoff** — failed attempts re-queue with
  ``base * 2**(tries-1)`` delay (capped), scaled by deterministic
  per-task jitter so simultaneous failures don't retry in lockstep,
  until the retry budget is exhausted;
* **checkpointing** — each verified result updates the atomic
  manifest, so progress survives the scheduler itself dying;
* **resume** — a re-run skips every verified-complete task and
  re-executes only missing, corrupt or failed ones.

The scheduler is single-threaded and event-driven: it blocks in
:func:`multiprocessing.connection.wait` on worker pipes and process
sentinels — completion is observed the instant it happens, not at the
next poll tick — with a bounded timeout so deadline and chaos checks
still fire even when every child is silent.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..experiments.campaign_tasks import CampaignTask, enumerate_campaign_tasks
from ..experiments.common import get_scale
from ..workloads.registry import normalize_workload_ref, workload_ref_fingerprint
from ..fsio.quarantine import quarantine_file
from ..memo.fingerprint import code_fingerprint
from ..memo.results import ResultCache, result_cache_dir, result_cache_key
from ..metrics.registry import register_metric
from .chaos import ChaosConfig, backoff_delay
from .checkpoint import (
    RESULT_SCHEMA,
    load_result,
    verify_result,
    write_json_atomic,
)
from .errors import (
    CRASH,
    CORRUPT,
    ERROR,
    TIMEOUT,
    AttemptFailure,
    CampaignConfigError,
    CorruptResultError,
    TaskFailureReport,
)
from .manifest import FAILURES_NAME, MANIFEST_NAME, CampaignManifest
from .worker import build_payload, pool_worker_entry

PathLike = Union[str, Path]
Progress = Optional[Callable[[str], None]]

#: Upper bound on one event-loop wait: deadline enforcement, backoff
#: release and ``stop_after`` checks can never lag further than this.
_WAIT_CAP = 0.2

#: Name of the per-campaign health record (a ``repro-run/1`` RunRecord
#: in a blob envelope) written after every scheduler invocation, so the
#: file exporter and the service's streaming ``/metrics`` endpoint read
#: the same scheduler/storage counters from the same artefact.
HEALTH_RECORD_NAME = "campaign.health.json"

# Scheduler counters, declared once like every other spine layer; the
# drift check in metrics.export asserts these stay attribute-for-
# attribute in step with CampaignReport.
register_metric("scheduler", "total", "count",
                "Tasks the campaign enumerated this invocation")
register_metric("scheduler", "completed", "count",
                "Tasks run (or cache-served) to verified success")
register_metric("scheduler", "skipped", "count",
                "Tasks already verified complete before the run started")
register_metric("scheduler", "retried_attempts", "count",
                "Failed attempts that were re-queued for another try")
register_metric("scheduler", "failed", "count",
                "Tasks that exhausted their retry budget",
                attr="failed_count")
register_metric("scheduler", "worker_respawns", "count",
                "Pool workers replaced after dying or blowing a deadline")
register_metric("scheduler", "cache_hits", "count",
                "Tasks served from the on-disk result cache")
register_metric("scheduler", "shard_deaths", "count",
                "Remote shards lost mid-campaign (sharded dispatch only)")


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class CampaignSettings:
    """Tunables of one campaign invocation (not persisted)."""

    #: Default to every core: the old ``min(4, cpu_count)`` silently
    #: capped wide machines at 4 workers.  The effective value is
    #: echoed in the campaign banner so the parallelism is visible.
    jobs: int = max(1, os.cpu_count() or 1)
    task_timeout: float = 600.0
    retries: int = 3
    backoff_base: float = 1.0
    backoff_cap: float = 30.0
    chaos: Optional[ChaosConfig] = None
    #: When set, every worker profiles its task attempt with cProfile
    #: and dumps ``<profile_dir>/<task_id>.pstats``.
    profile_dir: Optional[str] = None
    #: The on-disk result cache (:mod:`repro.memo.results`): completed
    #: unit payloads keyed by (fingerprint, experiment, unit, scale).
    #: ``False`` disables both lookup and store; the directory defaults
    #: to the ``REPRO_RESULT_CACHE`` env var (unset ⇒ disabled).
    use_result_cache: bool = True
    result_cache_dir: Optional[str] = None
    #: Shard endpoints (``host:port`` of ``repro serve-worker``
    #: processes).  When set, the campaign runs under the sharded
    #: dispatcher instead of the local pool; ``jobs`` is ignored — the
    #: fleet size is the parallelism.
    shards: Optional[Sequence[str]] = None


@dataclass
class CampaignReport:
    """Outcome of one scheduler invocation."""

    total: int = 0
    completed: int = 0                 # tasks run to success this invocation
    skipped: int = 0                   # verified complete before we started
    retried_attempts: int = 0          # failed attempts that were retried
    failed: List[TaskFailureReport] = field(default_factory=list)
    interrupted: bool = False
    #: Wall seconds of each *successful* attempt, by task id, measured
    #: inside the worker (dispatch overhead excluded).
    durations: Dict[str, float] = field(default_factory=dict)
    #: Pool workers replaced after dying or blowing a deadline.
    worker_respawns: int = 0
    #: Tasks served from the result cache (subset of ``completed``) —
    #: verified, checkpointed and manifested like worker results, but
    #: never dispatched to a worker.
    cache_hits: int = 0
    #: Shards lost mid-run (sharded dispatch; pool deaths are
    #: ``worker_respawns``).  Their unstarted units requeued to
    #: survivors attempt-free.
    shard_deaths: int = 0
    #: Wall seconds each shard spent attached to this run, by shard id
    #: (sharded dispatch only) — mirrored into ``shards.json`` and the
    #: campaign manifest for ``repro status``.
    shard_walls: Dict[str, float] = field(default_factory=dict)

    @property
    def failed_count(self) -> int:
        return len(self.failed)

    @property
    def ok(self) -> bool:
        return (
            not self.failed
            and not self.interrupted
            and self.completed + self.skipped == self.total
        )


@dataclass
class _TaskState:
    task: CampaignTask
    attempts: int = 0                  # lifetime attempts (manifest-seeded)
    tries_this_run: int = 0
    next_eligible: float = 0.0         # monotonic clock
    failures: List[AttemptFailure] = field(default_factory=list)


@dataclass
class _PoolTask:
    """One attempt dispatched to (not necessarily started by) a worker."""

    state: _TaskState
    attempt: int
    started: bool = False              # "start" heartbeat observed


@dataclass
class _PoolWorker:
    """One persistent worker and the task it currently owns."""

    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"
    assigned: List[_PoolTask] = field(default_factory=list)
    deadline: Optional[float] = None   # armed while a task is in flight

    @property
    def idle(self) -> bool:
        return not self.assigned


class CampaignRunner:
    """Execute (or resume) one campaign directory to completion."""

    def __init__(
        self,
        directory: PathLike,
        scale: str = "default",
        experiments: Sequence[str] = ("tables",),
        settings: Optional[CampaignSettings] = None,
        resume: bool = False,
        progress: Progress = None,
        stop_after: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None,
    ):
        self.directory = Path(directory)
        self.settings = settings or CampaignSettings()
        self.progress = progress or (lambda message: None)
        self.stop_after = stop_after
        self._ctx = multiprocessing.get_context(_default_start_method())

        if resume:
            # recover=True: a corrupt manifest is quarantined and
            # rebuilt from campaign.meta.json + surviving verified
            # results instead of aborting the resume.
            self.manifest = CampaignManifest.load(self.directory, recover=True)
            self.scale_name = self.manifest.scale
            self.experiments = self.manifest.experiments
            # Workload identity (like scale and experiments): a resumed
            # campaign runs over the workloads it was created with.
            self.workloads = self.manifest.workloads
            self.manifest.chaos = (
                self.settings.chaos.to_json() if self.settings.chaos else None
            )
            # Like chaos, the engine provenance reflects the *current*
            # run (a manifest written before it was recorded has none).
            from ..config import resolve_backend_name

            self.manifest.backend = resolve_backend_name()
        else:
            if (self.directory / MANIFEST_NAME).exists():
                raise CampaignConfigError(
                    f"{self.directory} already holds a campaign; "
                    f"continue it with --resume {self.directory}"
                )
            self.scale_name = scale
            self.experiments = tuple(experiments)
            # Validated + normalized eagerly (synthetic refs canonical-
            # ize to bare mix names) so unit ids, memo keys and the
            # manifest all agree on one spelling per target.
            self.workloads = (
                tuple(normalize_workload_ref(ref) for ref in workloads)
                if workloads
                else None
            )
            self.manifest = CampaignManifest.create(
                self.directory,
                scale=self.scale_name,
                experiments=self.experiments,
                chaos=self.settings.chaos,
                workloads=self.workloads,
            )
        # Scale names are validated eagerly so a typo fails fast.
        get_scale(self.scale_name)

        # Result cache: explicit dir > REPRO_RESULT_CACHE env > off.
        cache_root = None
        if self.settings.use_result_cache:
            if self.settings.result_cache_dir is not None:
                cache_root = Path(self.settings.result_cache_dir)
            else:
                cache_root = result_cache_dir()
        self.result_cache = (
            ResultCache(cache_root) if cache_root is not None else None
        )
        self._fingerprint = code_fingerprint()
        #: Structured telemetry tap: when set (the service server sets
        #: it to its event log), every unit/shard lifecycle event is
        #: delivered as a dict.  Purely observational — a sink that
        #: raises is disarmed, never the campaign.
        self.event_sink: Optional[Callable[[dict], None]] = None

    def _event(self, kind: str, /, **fields) -> None:
        # Positional-only: events carry a "kind" *field* too (failure
        # kinds), which must not collide with the event name argument.
        if self.event_sink is None:
            return
        event = {"event": kind}
        event.update(fields)
        try:
            self.event_sink(event)
        except Exception:
            self.event_sink = None  # a broken tap must not kill the run

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _clean_stale_tmp(self) -> None:
        for tmp in self.manifest.results_dir.glob(".*.tmp.*"):
            tmp.unlink()

    def _error_path(self, task: CampaignTask, attempt: int) -> Path:
        stem = task.filename[: -len(".json")]
        return self.manifest.errors_dir / f"{stem}.attempt{attempt}.json"

    def _result_path(self, task: CampaignTask) -> Path:
        return self.manifest.results_dir / task.filename

    def _payload(self, state: _TaskState, attempt: int) -> str:
        task = state.task
        return build_payload(
            task_id=task.task_id,
            experiment=task.experiment,
            unit=dict(task.unit),
            scale=self.scale_name,
            result_path=str(self._result_path(task)),
            error_path=str(self._error_path(task, attempt)),
            attempt=attempt,
            chaos=self.settings.chaos,
            hang_seconds=self.settings.task_timeout * 4 + 60.0,
            profile_dir=self.settings.profile_dir,
        )

    def _cache_key(self, task: CampaignTask) -> str:
        # The workload component is None for synthetic units, keeping
        # their keys byte-compatible with the pre-registry key space.
        ref = task.unit.get("mix") if hasattr(task.unit, "get") else None
        workload = (
            workload_ref_fingerprint(ref) if isinstance(ref, str) else None
        )
        return result_cache_key(
            task.experiment, task.unit, self.scale_name, self._fingerprint,
            workload=workload,
        )

    def _serve_from_cache(
        self, queue: List[_TaskState], report: CampaignReport
    ) -> List[_TaskState]:
        """Complete queued tasks whose results the cache already holds.

        A hit flows through the exact machinery a worker result would:
        the payload is written atomically to the task's result path,
        re-verified, and marked in the manifest — so resume, chaos and
        byte-identity guarantees are untouched.  Any defect (corrupt
        entry, unwritable results dir) downgrades to a miss and the
        task runs normally.
        """
        if self.result_cache is None or not queue:
            return queue
        remaining: List[_TaskState] = []
        for state in queue:
            task = state.task
            payload = self.result_cache.get(self._cache_key(task), task.task_id)
            if payload is None:
                remaining.append(state)
                continue
            result_path = self._result_path(task)
            try:
                # Same schema as a worker write: a cache-served result
                # is byte-identical to a freshly computed one.
                write_json_atomic(result_path, payload, schema=RESULT_SCHEMA)
                _, sha256 = verify_result(result_path, task.task_id)
            except (OSError, CorruptResultError):
                self._scrub_bad_result(task)
                remaining.append(state)
                continue
            self.manifest.mark_complete(
                task.task_id,
                f"{self.manifest.results_dir.name}/{task.filename}",
                sha256,
                state.attempts,
            )
            report.completed += 1
            report.cache_hits += 1
            self._event(
                "unit_cached",
                task_id=task.task_id,
                completed=report.completed + report.skipped,
                total=report.total,
            )
            self.progress(
                f"cached {task.task_id} "
                f"({report.completed + report.skipped}/{report.total})"
            )
        if report.cache_hits:
            self.progress(
                f"result cache: served {report.cache_hits} tasks "
                f"from {self.result_cache.root}"
            )
        return remaining

    def _scrub_bad_result(self, task: CampaignTask) -> None:
        """Never leave a bad result file where resume could trip on it.

        The bad bytes move to the campaign's ``quarantine/`` directory
        with a reason record — evidence for ``repro doctor`` — leaving
        ``results/`` holding only verified artefacts.
        """
        result_path = self._result_path(task)
        if result_path.exists():
            try:
                verify_result(result_path, task.task_id)
            except CorruptResultError as exc:
                quarantine_file(
                    result_path,
                    exc.reason,
                    "campaign-result",
                    root=self.directory,
                )
                if result_path.exists():  # quarantine move failed
                    result_path.unlink()

    def _complete(
        self, state: _TaskState, report: CampaignReport, duration: float
    ) -> Optional[AttemptFailure]:
        """Verify and record a reportedly-successful attempt.

        Returns ``None`` on success or the CORRUPT failure to apply.
        """
        task = state.task
        try:
            payload, sha256 = verify_result(
                self._result_path(task), task.task_id
            )
        except CorruptResultError as exc:
            return AttemptFailure(
                task.task_id, state.attempts, CORRUPT, exc.reason
            )
        self.manifest.mark_complete(
            task.task_id,
            f"{self.manifest.results_dir.name}/{task.filename}",
            sha256,
            state.attempts,
        )
        if self.result_cache is not None:
            # Only *verified* payloads enter the cache; put failures
            # (disk full, read-only cache) are silently dropped.  The
            # annotations let ``repro doctor`` audit entries for stale
            # fingerprints without re-deriving every key.
            self.result_cache.put(
                self._cache_key(task),
                payload,
                annotations={
                    "fingerprint": self._fingerprint,
                    "task_id": task.task_id,
                },
            )
        report.completed += 1
        report.durations[task.task_id] = duration
        self._event(
            "unit_done",
            task_id=task.task_id,
            elapsed=duration,
            completed=report.completed + report.skipped,
            total=report.total,
        )
        self.progress(
            f"done {task.task_id} "
            f"({report.completed + report.skipped}/{report.total})"
        )
        return None

    def _fail_attempt(
        self,
        state: _TaskState,
        report: CampaignReport,
        failure: AttemptFailure,
    ) -> Optional[_TaskState]:
        """Record a failed attempt; return the state to requeue, if any."""
        task = state.task
        state.failures.append(failure)
        self._scrub_bad_result(task)
        if state.tries_this_run > self.settings.retries:
            self.manifest.mark_failed(
                task.task_id, state.attempts, failure.to_json()
            )
            report.failed.append(
                TaskFailureReport(task.task_id, state.attempts, state.failures)
            )
            self._event(
                "unit_failed",
                task_id=task.task_id,
                attempts=state.attempts,
                kind=failure.kind,
                detail=failure.detail,
            )
            self.progress(
                f"FAILED {task.task_id} after {state.attempts} attempts "
                f"({failure.kind}: {failure.detail})"
            )
            return None
        # Deterministic jitter (seeded like chaos) decorrelates retry
        # schedules across tasks while keeping them reproducible.
        delay = backoff_delay(
            self.settings.backoff_base,
            self.settings.backoff_cap,
            state.tries_this_run,
            task.task_id,
            seed=self.settings.chaos.seed if self.settings.chaos else 0,
        )
        state.next_eligible = time.monotonic() + delay
        report.retried_attempts += 1
        self._event(
            "unit_retry",
            task_id=task.task_id,
            attempt=state.attempts,
            kind=failure.kind,
            delay=delay,
        )
        self.progress(
            f"retry {task.task_id} in {delay:.2g}s "
            f"(attempt {state.attempts} {failure.kind}: {failure.detail})"
        )
        return state

    def _error_failure(
        self, state: _TaskState, attempt: int, detail: str
    ) -> AttemptFailure:
        """An ERROR failure, with the worker's traceback if recorded."""
        error_path = self._error_path(state.task, attempt)
        trace = None
        if error_path.exists():
            try:
                trace = load_result(error_path).get("traceback")
            except CorruptResultError:
                trace = None
        return AttemptFailure(
            state.task.task_id, attempt, ERROR, detail, traceback=trace
        )

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        scale = get_scale(self.scale_name)
        if self.workloads:
            # An explicit workload list replaces the preset's mixes for
            # unit enumeration; workers resolve each ref through the
            # registry transparently (``scale.workload(ref)``).
            scale = replace(scale, mixes=tuple(self.workloads))
        tasks = enumerate_campaign_tasks(self.experiments, scale)
        self._clean_stale_tmp()

        report = CampaignReport(total=len(tasks))
        queue: List[_TaskState] = []
        for task in tasks:
            if self.manifest.verified_complete(task.task_id):
                report.skipped += 1
                continue
            entry = self.manifest.entry(task.task_id)
            queue.append(_TaskState(task=task, attempts=entry.attempts))
        queue = self._serve_from_cache(queue, report)
        self.manifest.save()
        sharded = None
        if self.settings.shards:
            # Imported lazily: the service package depends on this module.
            from ..service.dispatch import ShardedDispatcher

            sharded = ShardedDispatcher(self.settings.shards)
        mode = "pool" if sharded is None else "sharded"
        self.progress(
            f"campaign: {len(tasks)} tasks, jobs={self.settings.jobs} "
            f"[{mode}] (cpu_count={os.cpu_count() or 1})"
        )
        if report.skipped:
            self.progress(f"resume: skipping {report.skipped} verified tasks")

        try:
            if sharded is None:
                self._run_pool(queue, report)
            else:
                sharded.run(self, queue, report)
        finally:
            # Even an aborted run (all shards lost, Ctrl-C) leaves its
            # failure report and health record behind for resume/audit.
            self._write_failure_report(report)
            self._write_health_record(report, mode)
        return report

    def _stop_requested(self, report: CampaignReport) -> bool:
        if (
            self.stop_after is not None
            and report.completed >= self.stop_after
        ):
            report.interrupted = True
            return True
        return False

    def _wait_timeout(
        self,
        queue: List[_TaskState],
        deadlines: List[float],
        now: float,
    ) -> float:
        """Sleep no longer than the next scheduled event (bounded)."""
        horizon = now + _WAIT_CAP
        for state in queue:
            if state.next_eligible > now:
                horizon = min(horizon, state.next_eligible)
        for deadline in deadlines:
            horizon = min(horizon, deadline)
        return max(0.01, horizon - now)

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=pool_worker_entry, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process=process, conn=parent_conn)

    def _kill(self, process: multiprocessing.process.BaseProcess) -> None:
        if process.is_alive():
            process.terminate()
            process.join(2.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(2.0)

    def _retire_worker(self, worker: _PoolWorker, kill: bool = True) -> None:
        if kill:
            self._kill(worker.process)
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _dispatch(
        self,
        workers: List[_PoolWorker],
        queue: List[_TaskState],
        now: float,
    ) -> None:
        """Hand one eligible task to each idle (or newly spawned) worker."""
        eligible = [s for s in queue if s.next_eligible <= now]
        if not eligible:
            return
        for worker in workers:
            if not eligible:
                return
            if not worker.idle or not worker.process.is_alive():
                continue
            self._assign(worker, eligible, queue, now)
        while eligible and len(workers) < self.settings.jobs:
            worker = self._spawn_worker()
            workers.append(worker)
            self._assign(worker, eligible, queue, now)

    def _assign(
        self,
        worker: _PoolWorker,
        eligible: List[_TaskState],
        queue: List[_TaskState],
        now: float,
    ) -> None:
        state = eligible.pop(0)
        queue.remove(state)
        item = _PoolTask(state=state, attempt=state.attempts + 1)
        try:
            worker.conn.send(("run", [self._payload(state, item.attempt)]))
        except (BrokenPipeError, OSError):
            # Worker died between spawn and dispatch; requeue untouched
            # (no attempt consumed) — the reaper collects the corpse.
            queue.append(state)
            return
        worker.assigned.append(item)
        worker.deadline = now + self.settings.task_timeout

    def _on_message(
        self,
        worker: _PoolWorker,
        message,
        queue: List[_TaskState],
        report: CampaignReport,
    ) -> None:
        kind = message[0]
        if kind == "start":
            _, task_id, _worker_clock = message
            for item in worker.assigned:
                if item.state.task.task_id == task_id:
                    item.started = True
                    break
            worker.deadline = time.monotonic() + self.settings.task_timeout
            return
        if kind != "done":  # pragma: no cover - protocol guard
            return
        _, task_id, status, elapsed = message
        item = next(
            (i for i in worker.assigned if i.state.task.task_id == task_id),
            None,
        )
        if item is None:  # pragma: no cover - protocol guard
            return
        worker.assigned.remove(item)
        worker.deadline = (
            time.monotonic() + self.settings.task_timeout
            if worker.assigned
            else None
        )
        state = item.state
        state.attempts = item.attempt
        state.tries_this_run += 1
        if status == "ok":
            failure = self._complete(state, report, elapsed)
        else:
            failure = self._error_failure(
                state, item.attempt, "worker task raised"
            )
        if failure is not None:
            requeue = self._fail_attempt(state, report, failure)
            if requeue is not None:
                queue.append(requeue)

    def _drain(
        self,
        worker: _PoolWorker,
        queue: List[_TaskState],
        report: CampaignReport,
    ) -> None:
        try:
            while worker.conn.poll():
                self._on_message(worker, worker.conn.recv(), queue, report)
        except (EOFError, OSError):
            pass  # death is settled by the reaper

    def _fail_in_flight(
        self,
        worker: _PoolWorker,
        queue: List[_TaskState],
        report: CampaignReport,
        kind: str,
        detail: str,
    ) -> None:
        """Settle a dead/overdue worker's task: charge it if started,
        requeue it without consuming an attempt if not."""
        for item in worker.assigned:
            state = item.state
            if not item.started:
                queue.append(state)
                continue
            state.attempts = item.attempt
            state.tries_this_run += 1
            failure = AttemptFailure(
                state.task.task_id, item.attempt, kind, detail
            )
            requeue = self._fail_attempt(state, report, failure)
            if requeue is not None:
                queue.append(requeue)
        worker.assigned.clear()
        worker.deadline = None

    def _reap_dead(
        self,
        workers: List[_PoolWorker],
        queue: List[_TaskState],
        report: CampaignReport,
    ) -> None:
        for worker in list(workers):
            if worker.process.is_alive():
                continue
            # Messages sent before death still count.
            self._drain(worker, queue, report)
            if worker.assigned:
                exitcode = worker.process.exitcode
                self._fail_in_flight(
                    worker, queue, report,
                    CRASH, f"pool worker died with exit code {exitcode}",
                )
            workers.remove(worker)
            self._retire_worker(worker, kill=False)
            report.worker_respawns += 1

    def _enforce_deadlines(
        self,
        workers: List[_PoolWorker],
        queue: List[_TaskState],
        report: CampaignReport,
        now: float,
    ) -> None:
        for worker in list(workers):
            if worker.deadline is None or now < worker.deadline:
                continue
            self._drain(worker, queue, report)
            if worker.deadline is None or time.monotonic() < worker.deadline:
                continue  # progress arrived while draining
            self._kill(worker.process)
            self._fail_in_flight(
                worker, queue, report,
                TIMEOUT,
                f"exceeded {self.settings.task_timeout:g}s deadline",
            )
            workers.remove(worker)
            self._retire_worker(worker, kill=False)
            report.worker_respawns += 1

    def _run_pool(
        self, queue: List[_TaskState], report: CampaignReport
    ) -> None:
        workers: List[_PoolWorker] = []
        try:
            while queue or any(w.assigned for w in workers):
                if self._stop_requested(report):
                    break
                now = time.monotonic()
                self._reap_dead(workers, queue, report)
                self._enforce_deadlines(workers, queue, report, now)
                self._dispatch(workers, queue, time.monotonic())
                handles = [w.conn for w in workers] + [
                    w.process.sentinel for w in workers
                ]
                timeout = self._wait_timeout(
                    queue,
                    [w.deadline for w in workers if w.deadline is not None],
                    time.monotonic(),
                )
                if handles:
                    ready = multiprocessing.connection.wait(handles, timeout)
                else:
                    time.sleep(timeout)
                    ready = []
                conns = {w.conn: w for w in workers}
                for handle in ready:
                    worker = conns.get(handle)
                    if worker is not None:
                        self._drain(worker, queue, report)
        finally:
            self._shutdown_pool(workers)

    def _shutdown_pool(self, workers: List[_PoolWorker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(0.5)
            self._retire_worker(worker)

    # ------------------------------------------------------------------
    def _write_health_record(
        self, report: CampaignReport, mode: str
    ) -> None:
        """Persist this invocation's scheduler/storage counters.

        One ``repro-run/1`` RunRecord (kind ``campaign-health``) in a
        checksummed envelope: the exact document ``repro export`` and
        ``repro status`` read back, and the one the service's streaming
        ``/metrics`` endpoint re-exports — file and socket telemetry
        agree because they are the same record.
        """
        from ..fsio.health import HEALTH
        from ..metrics.record import RunRecord
        from ..metrics.registry import REGISTRY

        metrics = {}
        metrics.update(REGISTRY.collect("scheduler", report))
        metrics.update(REGISTRY.collect("storage", HEALTH))
        meta = {
            "scale": self.scale_name,
            "experiments": list(self.experiments),
            "backend": self.manifest.backend,
            "mode": mode,
            "interrupted": report.interrupted,
        }
        # Only campaigns created over an explicit workload list carry
        # the key (byte-stability for default campaigns' records).
        if self.workloads:
            meta["workloads"] = list(self.workloads)
        record = RunRecord(
            kind="campaign-health",
            meta=meta,
            metrics=metrics,
            values={
                "shard_walls": dict(sorted(report.shard_walls.items())),
                "task_seconds": round(sum(report.durations.values()), 6),
            },
        )
        try:
            write_json_atomic(
                self.directory / HEALTH_RECORD_NAME,
                record.to_json(),
                schema=record.schema,
            )
        except OSError:
            pass  # telemetry must never fail the campaign itself

    # ------------------------------------------------------------------
    def _write_failure_report(self, report: CampaignReport) -> None:
        failures_path = self.directory / FAILURES_NAME
        if report.failed:
            write_json_atomic(
                failures_path,
                {
                    "campaign": str(self.directory),
                    "failed_tasks": [f.to_json() for f in report.failed],
                },
            )
            self.progress(f"failure report: {failures_path}")
        elif not report.interrupted and failures_path.exists():
            failures_path.unlink()


def run_campaign(
    directory: PathLike,
    scale: str = "default",
    experiments: Sequence[str] = ("tables",),
    settings: Optional[CampaignSettings] = None,
    resume: bool = False,
    progress: Progress = None,
    stop_after: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> CampaignReport:
    """Convenience wrapper: build a runner and run it."""
    runner = CampaignRunner(
        directory,
        scale=scale,
        experiments=experiments,
        settings=settings,
        resume=resume,
        progress=progress,
        stop_after=stop_after,
        workloads=workloads,
    )
    return runner.run()
