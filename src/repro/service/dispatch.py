"""Sharded dispatch: one campaign's task graph over N shard endpoints.

:class:`~repro.harness.scheduler.CampaignRunner` owns *what* runs —
task enumeration, retry budgets, checkpointing, manifest truth, the
result cache — and runs it on its local worker pool by default.  With
``shards`` set it hands the queue to :class:`ShardedDispatcher`, which
owns only *where* attempts execute: ``repro serve-worker`` processes
reached over sockets, local or remote.

The sharded loop is a line-for-line sibling of the pool loop: the
same ``start``/``done`` contract, the same per-shard deadline arming,
the same settle rules — a dead shard's *started* tasks are charged a
crash attempt and retried, its *unstarted* tasks requeue to survivors
without consuming an attempt.  Completion, verification, caching and
manifest updates all go through the runner's own ``_complete`` /
``_fail_attempt`` helpers, which is why a sharded campaign's results
directory is byte-identical to a single-pool run's.

Every shard outcome is recorded in ``shards.json`` (a checksummed
``repro-shard-manifest/1`` envelope in the campaign directory) and
mirrored into the campaign manifest, so ``repro status`` and ``repro
doctor`` can audit per-shard wall-clock and deaths after the fact.
"""

from __future__ import annotations

import select
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..harness.errors import CRASH, TIMEOUT, AttemptFailure
from .protocol import (
    LineReader,
    ProtocolError,
    decode_message,
    recv_message,
    send_message,
)
from .shard import parse_endpoint

#: Per-shard outcome roster written to ``<campaign>/shards.json``.
SHARD_MANIFEST_SCHEMA = "repro-shard-manifest/1"
SHARD_MANIFEST_NAME = "shards.json"


class ShardError(RuntimeError):
    """The shard fleet cannot make progress (connect failure or
    every shard lost with work remaining)."""


@dataclass
class _Shard:
    """One connected shard and the task it currently owns."""

    shard_id: str
    endpoint: str
    sock: socket.socket
    reader: LineReader
    pid: Optional[int] = None
    assigned: List = field(default_factory=list)  # of scheduler._PoolTask
    deadline: Optional[float] = None
    connected_at: float = 0.0
    released_at: Optional[float] = None
    tasks_done: int = 0
    busy_seconds: float = 0.0          # sum of in-shard task wall times
    died: Optional[str] = None         # loss reason, None while healthy

    @property
    def idle(self) -> bool:
        return not self.assigned

    def wall_seconds(self, now: float) -> float:
        end = self.released_at if self.released_at is not None else now
        return max(0.0, end - self.connected_at)


class ShardedDispatcher:
    """Drive the campaign over N ``serve-worker`` endpoints."""

    def __init__(
        self,
        endpoints: Sequence[str],
        connect_timeout: float = 15.0,
    ):
        if not endpoints:
            raise ShardError("sharded dispatch needs at least one endpoint")
        # Validate eagerly so a typo fails before any work is queued.
        for endpoint in endpoints:
            parse_endpoint(endpoint)
        self.endpoints = list(endpoints)
        self.connect_timeout = connect_timeout

    # -- fleet management ----------------------------------------------
    def _connect(self, endpoint: str, index: int) -> _Shard:
        host, port = parse_endpoint(endpoint)
        try:
            sock = socket.create_connection(
                (host, port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise ShardError(f"cannot reach shard at {endpoint}: {exc}") from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        reader = LineReader(sock)
        try:
            hello = recv_message(reader, timeout=self.connect_timeout)
        except ProtocolError as exc:
            sock.close()
            raise ShardError(f"shard at {endpoint} spoke garbage: {exc}") from None
        if hello is None or hello.get("type") != "hello":
            sock.close()
            raise ShardError(
                f"shard at {endpoint} closed before saying hello"
            )
        return _Shard(
            shard_id=str(hello.get("shard_id") or f"shard-{index}"),
            endpoint=endpoint,
            sock=sock,
            reader=reader,
            pid=hello.get("pid"),
            connected_at=time.monotonic(),
        )

    def _release(self, shard: _Shard, shutdown: bool = False) -> None:
        shard.released_at = time.monotonic()
        try:
            send_message(
                shard.sock, {"type": "exit", "shutdown": bool(shutdown)}
            )
        except OSError:
            pass
        try:
            shard.sock.close()
        except OSError:  # pragma: no cover
            pass

    # -- persistence ----------------------------------------------------
    def _shard_summary(self, fleet: List[_Shard], lost: List[_Shard]) -> dict:
        now = time.monotonic()
        shards = []
        for shard in fleet + lost:
            shards.append(
                {
                    "shard_id": shard.shard_id,
                    "endpoint": shard.endpoint,
                    "pid": shard.pid,
                    "tasks_done": shard.tasks_done,
                    "busy_seconds": round(shard.busy_seconds, 6),
                    "wall_seconds": round(shard.wall_seconds(now), 6),
                    "died": shard.died,
                }
            )
        shards.sort(key=lambda record: record["shard_id"])
        return {
            "shards": shards,
            "total_shards": len(shards),
            "deaths": len(lost),
        }

    def _write_shard_manifest(self, runner, fleet, lost) -> dict:
        from ..fsio.durable import write_blob_json

        summary = self._shard_summary(fleet, lost)
        write_blob_json(
            runner.directory / SHARD_MANIFEST_NAME,
            summary,
            schema=SHARD_MANIFEST_SCHEMA,
        )
        return summary

    # -- per-message settle (the pool's _on_message, dict-framed) -------
    def _on_message(self, runner, shard, message, queue, report) -> None:
        kind = message.get("type")
        if kind == "start":
            task_id = message.get("task_id")
            for item in shard.assigned:
                if item.state.task.task_id == task_id:
                    item.started = True
                    break
            shard.deadline = time.monotonic() + runner.settings.task_timeout
            runner._event(
                "unit_start", task_id=task_id, shard=shard.shard_id
            )
            return
        if kind != "done":  # pragma: no cover - protocol guard
            return
        task_id = message.get("task_id")
        item = next(
            (i for i in shard.assigned if i.state.task.task_id == task_id),
            None,
        )
        if item is None:  # pragma: no cover - protocol guard
            return
        shard.assigned.remove(item)
        shard.deadline = (
            time.monotonic() + runner.settings.task_timeout
            if shard.assigned
            else None
        )
        elapsed = float(message.get("elapsed") or 0.0)
        shard.tasks_done += 1
        shard.busy_seconds += elapsed
        state = item.state
        state.attempts = item.attempt
        state.tries_this_run += 1
        if message.get("status") == "ok":
            failure = runner._complete(state, report, elapsed)
        else:
            failure = runner._error_failure(
                state, item.attempt, "worker task raised"
            )
        if failure is not None:
            requeue = runner._fail_attempt(state, report, failure)
            if requeue is not None:
                queue.append(requeue)

    def _drain(self, runner, shard, queue, report) -> None:
        """Process every complete message this shard has delivered."""
        for line in shard.reader.lines():
            try:
                message = decode_message(line)
            except ProtocolError:
                continue  # torn tail line of a dying shard
            self._on_message(runner, shard, message, queue, report)

    def _lose_shard(
        self, runner, shard, queue, report, kind, detail
    ) -> None:
        """Settle a dead/overdue shard's task with zero loss.

        Exactly the pool's rules: messages flushed before death are
        honoured first (the drain), then *started* tasks are charged a
        failed attempt and retried, *unstarted* tasks requeue with no
        attempt consumed.
        """
        self._drain(runner, shard, queue, report)
        for item in shard.assigned:
            state = item.state
            if not item.started:
                queue.append(state)
                continue
            state.attempts = item.attempt
            state.tries_this_run += 1
            failure = AttemptFailure(
                state.task.task_id, item.attempt, kind, detail
            )
            requeue = runner._fail_attempt(state, report, failure)
            if requeue is not None:
                queue.append(requeue)
        shard.assigned.clear()
        shard.deadline = None
        shard.died = detail
        shard.released_at = time.monotonic()
        report.shard_deaths += 1
        runner._event(
            "shard_dead", shard=shard.shard_id, reason=detail
        )
        runner.progress(f"shard {shard.shard_id} lost ({detail}); requeued")
        try:
            shard.sock.close()
        except OSError:  # pragma: no cover
            pass

    # -- dispatch -------------------------------------------------------
    def _assign(self, runner, shard, eligible, queue, now) -> None:
        from ..harness.scheduler import _PoolTask

        state = eligible.pop(0)
        queue.remove(state)
        item = _PoolTask(state=state, attempt=state.attempts + 1)
        try:
            send_message(
                shard.sock,
                {"type": "run",
                 "payloads": [runner._payload(state, item.attempt)]},
            )
        except OSError:
            # Shard died between accept and first dispatch; requeue
            # untouched — the reaper pass collects the corpse.
            queue.append(state)
            return
        shard.assigned.append(item)
        shard.deadline = now + runner.settings.task_timeout

    def _dispatch(self, runner, fleet, queue, now) -> None:
        eligible = [s for s in queue if s.next_eligible <= now]
        for shard in fleet:
            if not eligible:
                return
            if shard.idle:
                self._assign(runner, shard, eligible, queue, now)

    # -- the loop -------------------------------------------------------
    def run(self, runner, queue, report) -> None:
        fleet: List[_Shard] = [
            self._connect(endpoint, index)
            for index, endpoint in enumerate(self.endpoints)
        ]
        lost: List[_Shard] = []
        runner.progress(
            f"sharded dispatch: {len(fleet)} shards "
            f"({', '.join(s.shard_id for s in fleet)})"
        )
        for shard in fleet:
            runner._event(
                "shard_up",
                shard=shard.shard_id,
                endpoint=shard.endpoint,
                pid=shard.pid,
            )
        self._write_shard_manifest(runner, fleet, lost)
        try:
            while queue or any(s.assigned for s in fleet):
                if runner._stop_requested(report):
                    break
                now = time.monotonic()
                # Overdue shards: drain first — progress that already
                # arrived clears the deadline — then declare the loss.
                for shard in list(fleet):
                    if shard.deadline is None or now < shard.deadline:
                        continue
                    self._drain(runner, shard, queue, report)
                    if (
                        shard.deadline is None
                        or time.monotonic() < shard.deadline
                    ):
                        continue
                    self._lose_shard(
                        runner, shard, queue, report,
                        TIMEOUT,
                        f"exceeded {runner.settings.task_timeout:g}s deadline",
                    )
                    fleet.remove(shard)
                    lost.append(shard)
                if not fleet:
                    remaining = len(queue)
                    self._write_shard_manifest(runner, fleet, lost)
                    raise ShardError(
                        f"all {len(lost)} shards lost with "
                        f"{remaining} tasks incomplete; "
                        f"resume with surviving shards"
                    )
                self._dispatch(runner, fleet, queue, time.monotonic())
                timeout = runner._wait_timeout(
                    queue,
                    [s.deadline for s in fleet if s.deadline is not None],
                    time.monotonic(),
                )
                readable, _, _ = select.select(
                    [s.sock for s in fleet], [], [], timeout
                )
                ready = {id(s.sock): s for s in fleet}
                for sock in readable:
                    shard = ready.get(id(sock))
                    if shard is None:  # pragma: no cover
                        continue
                    alive = True
                    try:
                        alive = shard.reader.fill()
                    except ProtocolError:
                        alive = False
                    self._drain(runner, shard, queue, report)
                    if not alive or shard.reader.eof:
                        self._lose_shard(
                            runner, shard, queue, report,
                            CRASH, "shard connection lost",
                        )
                        fleet.remove(shard)
                        lost.append(shard)
        finally:
            for shard in fleet:
                self._release(shard)
            summary = self._write_shard_manifest(runner, fleet, lost)
            runner.manifest.shards = summary
            runner.manifest.save()
            report.shard_walls = {
                record["shard_id"]: record["wall_seconds"]
                for record in summary["shards"]
            }

