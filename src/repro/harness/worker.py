"""Campaign pool workers and the attempt contract they run.

A pool worker (``pool_worker_entry``) is a long-lived process that
pulls task payloads over a pipe and keeps its trace, sidecar and
workload caches warm across tasks, so a policy matrix stops paying a
fresh interpreter + workload build per cell.  Crash containment holds
all the same: a segfault, OOM kill or runaway loop kills only that
worker, which the scheduler observes via its process sentinel before
requeueing the in-flight task and spawning a replacement.

The attempt contract (:func:`run_attempt`):

* the worker receives one JSON payload (task, scale, paths, chaos);
* on success it writes the task's result *atomically* to
  ``result_path`` and reports ``ok``;
* on a caught exception it writes a traceback record to
  ``error_path`` and reports ``error``;
* anything else — a crash, a kill, a hang — is the scheduler's
  problem to detect from the outside.

Shard processes (``repro serve-worker``, :mod:`repro.service.shard`)
are a second caller of the same contract: they execute
:func:`run_attempt` on payloads received over a socket instead of a
pipe, which is why sharded campaigns inherit every chaos and
durability guarantee the local pool proves.

Pool workers speak a tiny message protocol over their pipe:
``("run", [payload_json])`` (the scheduler sends one task per
message) and ``("exit",)`` inbound;
``("start", task_id, monotonic)`` — the heartbeat that arms the
scheduler's per-task deadline — and ``("done", task_id, status,
elapsed_seconds)`` outbound.

Chaos injection runs *inside* the worker, exactly where real faults
strike: a ``crash`` dies before any work (killing the whole pool
worker — that is the point), a ``timeout`` hangs past the scheduler's
deadline, and a ``corrupt`` bypasses the atomic writer to leave a
truncated result at the final path while reporting success.  The
``disk-*`` kinds arm a one-shot :mod:`repro.fsio.faults` fault on the
attempt's own result write instead, so the storage layer's envelope
checks are exercised by a real task run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback

from ..fsio.faults import DISK_CHAOS_KINDS, OneShotFault
from .chaos import (
    CHAOS_CRASH_EXIT,
    CORRUPT_KIND,
    CRASH_KIND,
    TIMEOUT_KIND,
    ChaosConfig,
)
from .checkpoint import ERROR_SCHEMA, RESULT_SCHEMA, write_json_atomic

#: Bytes a chaos "corrupt" injection leaves at the result path —
#: deliberately truncated JSON that can never parse.
CORRUPT_BYTES = b'{"status": "ok", "task_id": "truncat'


def build_payload(
    task_id: str,
    experiment: str,
    unit: dict,
    scale: str,
    result_path: str,
    error_path: str,
    attempt: int,
    chaos: ChaosConfig = None,
    hang_seconds: float = 3600.0,
    profile_dir: str = None,
) -> str:
    """Serialise one attempt's instructions for a worker."""
    return json.dumps(
        {
            "task_id": task_id,
            "experiment": experiment,
            "unit": unit,
            "scale": scale,
            "result_path": result_path,
            "error_path": error_path,
            "attempt": attempt,
            "chaos": chaos.to_json() if chaos else None,
            "hang_seconds": hang_seconds,
            "profile_dir": profile_dir,
        }
    )


def run_attempt(payload: dict) -> bool:
    """Apply this attempt's (deterministic) injected fault, then run it.

    Task-level chaos kinds act here (crash/timeout die, corrupt plants
    a torn result and reports success without running the task); the
    disk-level kinds instead arm a one-shot filesystem fault on this
    attempt's own result write, so the task runs for real and the
    fault strikes *inside* the storage layer — exactly the failure the
    envelope checks and scheduler verification must catch.
    """
    kind = None
    chaos = None
    if payload.get("chaos"):
        chaos = ChaosConfig.from_json(payload["chaos"])
        kind = chaos.decide(payload["task_id"], payload["attempt"])
    if kind == CRASH_KIND:
        os._exit(CHAOS_CRASH_EXIT)
    if kind == TIMEOUT_KIND:
        time.sleep(payload["hang_seconds"])
        os._exit(CHAOS_CRASH_EXIT)
    if kind == CORRUPT_KIND:
        # A torn write: straight to the final path, no tmp+rename.
        with open(payload["result_path"], "wb") as fh:
            fh.write(CORRUPT_BYTES)
        return True  # report success; the verifier must catch it
    if kind in DISK_CHAOS_KINDS:
        # Tie the fault's data-dependent details (tear offset, flipped
        # byte) to the same digest that picked the kind.
        digest = hashlib.sha256(
            f"repro-chaos:{chaos.seed}:{payload['task_id']}:"
            f"{payload['attempt']}".encode()
        ).digest()
        with OneShotFault(kind, payload["result_path"], digest=digest):
            return _execute_attempt(payload)
    return _execute_attempt(payload)


def _execute_attempt(payload: dict) -> bool:
    """Run one task attempt; write its result or error record.

    Returns ``True`` on a verified-writable success, ``False`` after
    writing the traceback record.  Never exits the process — the
    callers report the outcome over their pipe or socket.
    """
    try:
        from ..config import resolve_backend_name
        from ..experiments.campaign_tasks import run_campaign_task

        profile_dir = payload.get("profile_dir")
        if profile_dir:
            import cProfile
            from pathlib import Path

            profiler = cProfile.Profile()
            try:
                result = profiler.runcall(
                    run_campaign_task,
                    payload["experiment"], payload["unit"], payload["scale"],
                )
            finally:
                out = Path(profile_dir)
                out.mkdir(parents=True, exist_ok=True)
                name = payload["task_id"].replace("/", "_")
                profiler.dump_stats(out / f"{name}.pstats")
        else:
            result = run_campaign_task(
                payload["experiment"], payload["unit"], payload["scale"]
            )
        write_json_atomic(
            payload["result_path"],
            {
                "status": "ok",
                "task_id": payload["task_id"],
                "experiment": payload["experiment"],
                "unit": payload["unit"],
                "scale": payload["scale"],
                "backend": resolve_backend_name(),
                "result": result,
            },
            schema=RESULT_SCHEMA,
        )
        return True
    except BaseException:
        try:
            write_json_atomic(
                payload["error_path"],
                {
                    "task_id": payload["task_id"],
                    "attempt": payload["attempt"],
                    "traceback": traceback.format_exc(),
                },
                schema=ERROR_SCHEMA,
            )
        except OSError:
            pass  # the scheduler still classifies by the missing result
        return False


def pool_worker_entry(conn) -> None:
    """Persistent-pool entry point: serve tasks until told to exit.

    ``conn`` is the worker's end of a ``multiprocessing.Pipe``.  The
    loop is deliberately trusting of nothing: a scheduler that died
    (closed pipe) ends the worker, and any fault *inside* a task is
    either contained by ``_execute_attempt`` or kills this process —
    which the scheduler observes and recovers from.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not message or message[0] == "exit":
            break
        if message[0] != "run":  # pragma: no cover - protocol guard
            continue
        for payload_json in message[1]:
            payload = json.loads(payload_json)
            started = time.monotonic()
            try:
                conn.send(("start", payload["task_id"], started))
            except (BrokenPipeError, OSError):
                return
            ok = run_attempt(payload)
            elapsed = time.monotonic() - started
            try:
                conn.send(
                    ("done", payload["task_id"], "ok" if ok else "error", elapsed)
                )
            except (BrokenPipeError, OSError):
                return
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass
