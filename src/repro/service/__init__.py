"""Sharded dispatch: one campaign over ``repro serve-worker`` processes.

The multi-host seam of the campaign harness, testable as N
subprocesses on one machine:

* :mod:`~repro.service.protocol` — the newline-delimited JSON message
  framing every controller-to-shard socket speaks;
* :mod:`~repro.service.shard` — ``repro serve-worker``: a shard
  process that executes campaign task payloads for a controller;
* :mod:`~repro.service.dispatch` — :class:`ShardedDispatcher`, which
  ``repro campaign --shards`` uses to fan a campaign's task graph out
  across shard endpoints with the local pool's zero-loss requeue
  guarantees.

All shards share one artifact store (the campaign directory tree, the
trace cache and the memo result cache), written exclusively through
:mod:`repro.fsio` envelopes so ``repro doctor`` audits sharded runs
like any other artefact class.
"""

from .dispatch import ShardedDispatcher, ShardError
from .protocol import ProtocolError, recv_message, send_message
from .shard import LocalShardSet, parse_endpoint, serve_worker

__all__ = [
    "LocalShardSet",
    "ProtocolError",
    "ShardError",
    "ShardedDispatcher",
    "parse_endpoint",
    "recv_message",
    "send_message",
    "serve_worker",
]
