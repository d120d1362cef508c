"""``repro serve-worker``: a shard process executing campaign payloads.

A shard is a "host" in the dispatcher's sense: a long-lived process that
binds a TCP endpoint, announces itself, and executes campaign task
payloads for whichever controller connects.  N shards on N machines
and N shards as subprocesses of one machine are indistinguishable to
the dispatcher — the tests exploit that with :class:`LocalShardSet`.

A shard's lifecycle:

1. bind ``host:port`` (``port=0`` lets the kernel pick — the chosen
   port is what the announce file is *for*);
2. atomically write the announce file, a checksummed
   ``repro-shard-announce/1`` envelope with the endpoint and pid, so
   controllers (and ``repro doctor``) can find and audit it;
3. accept one controller at a time; speak the line protocol:
   ``hello`` out, then for every ``run`` message (one task payload) a
   ``start`` heartbeat and a ``done`` verdict — the exact contract of
   the local pool's pipe protocol, so the scheduler's deadline, retry
   and zero-loss machinery carries over unchanged;
4. when the controller disconnects, loop back to ``accept`` — a shard
   *outlives* controller sessions, so one standing fleet serves any
   number of ``repro campaign --shards`` runs;
5. exit on an ``exit`` message with ``"shutdown": true`` (or a kill).

Execution reuses :func:`repro.harness.worker.run_attempt` verbatim:
chaos injection, result/error envelope writes and the atomic-write
discipline are identical to the local pool, so a sharded campaign's
artefacts are byte-identical to a single-pool run's.

Fault drills use the ``REPRO_SHARD_KILL_AT`` environment variable —
``<stage>:<n>`` hard-kills the shard at its *n*-th (1-based) passage
through ``connect`` (controller accepted), ``run`` (payload received),
``start`` (heartbeat sent; task charged) or ``done`` (verdict sent).
The kill-at-every-stage test walks all of them and asserts the merged
campaign output stays byte-identical with zero lost units.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..fsio.durable import read_bytes, unwrap_json, write_blob_json
from ..harness.chaos import CHAOS_CRASH_EXIT
from ..harness.worker import run_attempt
from .protocol import LineReader, ProtocolError, recv_message, send_message

#: Announce artefact schema: where a shard listens and who it is.
ANNOUNCE_SCHEMA = "repro-shard-announce/1"

#: ``<stage>:<n>`` — hard-kill this shard at its n-th passage through
#: the named stage.  Stages: connect / run / start / done.
KILL_AT_ENV = "REPRO_SHARD_KILL_AT"
KILL_STAGES = ("connect", "run", "start", "done")


def parse_endpoint(spec: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; raises ``ValueError``."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint {spec!r} is not host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"endpoint {spec!r} has a non-numeric port") from None
    if not 0 < port < 65536:
        raise ValueError(f"endpoint {spec!r} port out of range")
    return host, port


class _KillSwitch:
    """The deterministic shard assassin behind ``REPRO_SHARD_KILL_AT``."""

    def __init__(self, stage: Optional[str] = None, nth: int = 0):
        self.stage = stage
        self.nth = nth
        self.count = 0

    @classmethod
    def from_env(cls) -> "_KillSwitch":
        spec = os.environ.get(KILL_AT_ENV)
        if not spec:
            return cls()
        stage, sep, nth_text = spec.partition(":")
        if not sep or stage not in KILL_STAGES:
            raise ValueError(
                f"{KILL_AT_ENV}={spec!r}: want <stage>:<n> with stage in "
                f"{'/'.join(KILL_STAGES)}"
            )
        nth = int(nth_text)
        if nth < 1:
            raise ValueError(f"{KILL_AT_ENV}={spec!r}: n must be >= 1")
        return cls(stage, nth)

    def passed(self, stage: str) -> None:
        if stage != self.stage:
            return
        self.count += 1
        if self.count >= self.nth:
            # The same hard death a chaos "crash" injects: no cleanup,
            # no flush beyond what already reached the kernel.
            os._exit(CHAOS_CRASH_EXIT)


def write_announce(
    path: Path, shard_id: str, host: str, port: int
) -> None:
    """Atomically publish this shard's endpoint."""
    write_blob_json(
        path,
        {"shard_id": shard_id, "host": host, "port": port, "pid": os.getpid()},
        schema=ANNOUNCE_SCHEMA,
    )


def read_announce(path: Path) -> dict:
    """Load and integrity-check a shard announce file."""
    document = json.loads(read_bytes(path).decode("utf-8"))
    return unwrap_json(document, schema=ANNOUNCE_SCHEMA, path=path)


def _serve_session(
    conn: socket.socket, reader: LineReader, kill: _KillSwitch
) -> bool:
    """Serve one controller until it leaves; True means shut down."""
    while True:
        try:
            message = recv_message(reader)
        except ProtocolError:
            return False  # garbage peer: drop the session, re-accept
        if message is None:
            return False  # controller went away; outlive it
        kind = message["type"]
        if kind == "exit":
            return bool(message.get("shutdown"))
        if kind != "run":
            continue  # future-proofing: unknown types are ignored
        kill.passed("run")
        payload = json.loads(message["payload"])
        started = time.monotonic()
        try:
            send_message(
                conn,
                {
                    "type": "start",
                    "task_id": payload["task_id"],
                    "clock": started,
                },
            )
        except OSError:
            return False
        kill.passed("start")
        ok = run_attempt(payload)
        elapsed = time.monotonic() - started
        try:
            send_message(
                conn,
                {
                    "type": "done",
                    "task_id": payload["task_id"],
                    "status": "ok" if ok else "error",
                    "elapsed": elapsed,
                },
            )
        except OSError:
            return False
        kill.passed("done")


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    announce_path: Optional[Path] = None,
    shard_id: Optional[str] = None,
    progress=None,
) -> None:
    """Run a shard until told to shut down (blocking).

    Binds, announces, then loops ``accept → serve session`` forever:
    a controller disconnecting returns the shard to ``accept``, so one
    standing shard serves any number of campaign runs.
    """
    progress = progress or (lambda message: None)
    kill = _KillSwitch.from_env()
    shard_id = shard_id or f"shard-{os.getpid()}"
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, port))
        sock.listen(8)
        bound_host, bound_port = sock.getsockname()[:2]
        if announce_path is not None:
            write_announce(Path(announce_path), shard_id, bound_host, bound_port)
        progress(f"{shard_id}: serving on {bound_host}:{bound_port}")
        while True:
            conn, peer = sock.accept()
            kill.passed("connect")
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                reader = LineReader(conn)
                try:
                    send_message(
                        conn,
                        {
                            "type": "hello",
                            "shard_id": shard_id,
                            "pid": os.getpid(),
                        },
                    )
                except OSError:
                    continue
                progress(f"{shard_id}: controller {peer[0]}:{peer[1]} connected")
                if _serve_session(conn, reader, kill):
                    progress(f"{shard_id}: shutdown requested")
                    return
                progress(f"{shard_id}: controller left; re-accepting")
            finally:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
    finally:
        sock.close()


# ----------------------------------------------------------------------
# local shard fleets (tests, CI, the service bench)


def _repro_pythonpath() -> str:
    """A PYTHONPATH that makes ``-m repro`` importable in a child."""
    src_root = str(Path(__file__).resolve().parents[2])
    existing = os.environ.get("PYTHONPATH")
    if existing and src_root not in existing.split(os.pathsep):
        return os.pathsep.join([src_root, existing])
    return existing or src_root


class LocalShardSet:
    """Spawn and manage N ``serve-worker`` subprocesses on this host.

    The multi-host topology, shrunk to one machine: each shard is a
    real separate process with its own interpreter and caches, found
    through its announce file exactly as a remote shard would be.

    ``extra_env`` optionally carries a per-shard environment overlay —
    the chaos tests use it to arm ``REPRO_SHARD_KILL_AT`` on exactly
    one shard of the fleet.
    """

    def __init__(
        self,
        count: int,
        root: Path,
        extra_env: Optional[Sequence[Optional[Dict[str, str]]]] = None,
        startup_timeout: float = 30.0,
    ):
        if count < 1:
            raise ValueError("a shard set needs at least one shard")
        if extra_env is not None and len(extra_env) != count:
            raise ValueError("extra_env must have one entry per shard")
        self.count = count
        self.root = Path(root)
        self.extra_env = extra_env or [None] * count
        self.startup_timeout = startup_timeout
        self.processes: List[subprocess.Popen] = []
        self.endpoints: List[str] = []
        self.shard_ids: List[str] = []

    def start(self) -> List[str]:
        """Launch the fleet; return ``host:port`` endpoint specs."""
        self.root.mkdir(parents=True, exist_ok=True)
        announce_paths: List[Path] = []
        for index in range(self.count):
            shard_id = f"shard-{index}"
            announce = self.root / f"{shard_id}.announce.json"
            if announce.exists():
                announce.unlink()
            env = dict(os.environ)
            env["PYTHONPATH"] = _repro_pythonpath()
            if self.extra_env[index]:
                env.update(self.extra_env[index])
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve-worker",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    "0",
                    "--shard-id",
                    shard_id,
                    "--announce",
                    str(announce),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            self.processes.append(process)
            self.shard_ids.append(shard_id)
            announce_paths.append(announce)
        deadline = time.monotonic() + self.startup_timeout
        for index, announce in enumerate(announce_paths):
            while True:
                if announce.exists():
                    try:
                        record = read_announce(announce)
                    except (ValueError, OSError):
                        pass  # mid-write; retry
                    else:
                        self.endpoints.append(
                            f"{record['host']}:{record['port']}"
                        )
                        break
                if self.processes[index].poll() is not None:
                    self.stop()
                    raise RuntimeError(
                        f"shard-{index} died during startup "
                        f"(exit {self.processes[index].returncode})"
                    )
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError(
                        f"shard-{index} did not announce within "
                        f"{self.startup_timeout:g}s"
                    )
                time.sleep(0.01)
        return list(self.endpoints)

    def stop(self) -> None:
        """Terminate every shard still running."""
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                process.wait(timeout=5.0)

    def alive(self) -> List[bool]:
        return [process.poll() is None for process in self.processes]

    def __enter__(self) -> "LocalShardSet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
