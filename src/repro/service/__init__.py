"""Campaign-as-a-service: sharded dispatch and streaming telemetry.

This package promotes the campaign harness from a one-host tool into a
service any number of clients can drive:

* :mod:`~repro.service.protocol` — the newline-delimited JSON message
  framing every socket in the service speaks;
* :mod:`~repro.service.shard` — ``repro serve-worker``: a shard
  process that executes campaign task payloads for a controller,
  testable as N subprocesses on one machine;
* :mod:`~repro.service.dispatch` — :class:`ShardedDispatcher`, which
  fans a campaign's task graph out across shard endpoints with the
  local pool's zero-loss requeue guarantees;
* :mod:`~repro.service.events` — the per-line checksummed JSONL event
  log streamed to ``repro watch`` clients;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  async job API behind ``repro serve`` / ``submit`` / ``status`` /
  ``watch``, plus the Prometheus ``/metrics`` endpoint.

All shards and the server share one artifact store (the campaign
directory tree, the trace cache and the memo result cache), written
exclusively through :mod:`repro.fsio` envelopes so ``repro doctor``
audits service state like any other artefact class.
"""

from .client import ServiceClient, ServiceError
from .dispatch import ShardedDispatcher, ShardError
from .events import EVENT_SCHEMA, EventLog, read_events
from .protocol import ProtocolError, recv_message, send_message
from .server import ServiceServer
from .shard import LocalShardSet, parse_endpoint, serve_worker

__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "LocalShardSet",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardError",
    "ShardedDispatcher",
    "parse_endpoint",
    "read_events",
    "recv_message",
    "send_message",
    "serve_worker",
]
