"""In-memory span tracer, span-file I/O and the trace arithmetic.

A span is ``(id, parent, name, pid, start_ns, end_ns)``.  Ids carry the
process id (``"<pid>.<n>"``), so spans from ``run.py``, the
CLI processes it starts and the campaign workers those fork can share
one tree: a process learns its parent span from ``PERFBENCH_PARENT``,
and a forked worker inherits the open-span stack of the process that
forked it.  Spans are kept in memory and appended to
``<PERFBENCH_TRACE_DIR>/spans-<pid>.jsonl`` by :func:`flush`, together
with counters (summed over processes) and notes (JSON values kept in
order).

The layer of a span is its name up to the first dot (``engine.run`` ->
``engine``).  Two views are derived from a set of spans:

* :func:`self_times` -- a span's duration minus the part of it its
  child spans cover, in whatever process they ran (a campaign span's
  self time is the time no unit of it was running);
* :func:`wall_budget` -- each instant of the root span split equally
  among the innermost spans open at that instant, in any process, so
  the layer shares plus ``other`` add up to the root's wall exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
PARENT_ENV = "PERFBENCH_PARENT"

now_ns = time.perf_counter_ns


class Span(NamedTuple):
    id: str
    parent: Optional[str]
    name: str
    pid: int
    start: int
    end: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


# ----------------------------------------------------------------------
# recording (one tracer per process)

_pid = os.getpid()
_ids = itertools.count(1)
_stack: List[str] = []
_spans: List[Span] = []
_counters: Dict[str, float] = defaultdict(float)
_notes: Dict[str, list] = defaultdict(list)


def _after_fork() -> None:
    # A forked worker keeps the parent's open-span stack (its spans
    # nest under the span that forked it) but not the parent's
    # unflushed spans or counts, which the parent still owns.
    global _pid, _ids
    _pid = os.getpid()
    _ids = itertools.count(1)
    _spans.clear()
    _counters.clear()
    _notes.clear()


os.register_at_fork(after_in_child=_after_fork)


def current() -> Optional[str]:
    """Id of the innermost open span (or the inherited parent)."""
    return _stack[-1] if _stack else os.environ.get(PARENT_ENV)


class span:
    """Context manager recording one span; ``.id`` names it for children."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.id = f"{_pid}.{next(_ids)}"

    def __enter__(self) -> "span":
        self.parent = current()
        _stack.append(self.id)
        self.start = now_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = now_ns()
        _stack.pop()
        _spans.append(Span(self.id, self.parent, self.name, _pid, self.start, end))


def traced(name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span; ``after(result, args, kwargs)`` then counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def count(name: str, amount: float = 1) -> None:
    _counters[name] += amount


def counter(name: str) -> float:
    return _counters.get(name, 0)


def note(name: str, value) -> None:
    """Keep a JSON value (flushed with the spans) under ``name``."""
    _notes[name].append(value)


class Recording(NamedTuple):
    spans: List[Span]
    counters: Dict[str, float]
    notes: Dict[str, list]


def recorded() -> Recording:
    """This process's closed spans, counters and notes (not yet flushed)."""
    return Recording(list(_spans), dict(_counters), {k: list(v) for k, v in _notes.items()})


def flush() -> None:
    """Append this process's spans, counters and notes to its span file."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory or not (_spans or _counters or _notes):
        return
    lines = [json.dumps(list(s)) for s in _spans]
    lines.append(json.dumps({"counters": _counters, "notes": _notes}))
    with open(Path(directory) / f"spans-{_pid}.jsonl", "a") as fh:
        fh.write("\n".join(lines) + "\n")
    _spans.clear()
    _counters.clear()
    _notes.clear()


def load(directory: Path) -> Recording:
    """Every span, summed counter and note flushed under ``directory``."""
    out = Recording([], defaultdict(float), defaultdict(list))
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            item = json.loads(line)
            if isinstance(item, dict):
                for key, value in item["counters"].items():
                    out.counters[key] += value
                for key, values in item["notes"].items():
                    out.notes[key].extend(values)
            else:
                out.spans.append(Span(*item))
    return out


# ----------------------------------------------------------------------
# arithmetic


def _covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per span name: duration minus children's union."""
    spans = list(spans)
    children: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        inner = [(max(a, s.start), min(b, s.end)) for a, b in children[s.id]]
        out[s.name] += (s.duration - _covered(i for i in inner if i[0] < i[1])) / 1e9
    return dict(out)


def inclusive_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of total duration per span name."""
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration / 1e9
    return dict(out)


def wall_budget(spans: Iterable[Span], root: Span, layers: Iterable[str]) -> Dict[str, float]:
    """Split ``root``'s wall among ``layers`` plus ``other`` (seconds).

    Every instant of the root interval is divided equally among the
    innermost open spans -- open spans none of whose children (in any
    process) are open.  A share goes to the span's layer when that is
    one of ``layers`` and to ``other`` otherwise, so the values sum to
    the root's duration.
    """
    layers = set(layers)
    by_id = {s.id: s for s in spans if s.end > root.start and s.start < root.end}
    by_id[root.id] = root
    depth: Dict[str, int] = {}

    def depth_of(s: Span) -> int:
        if s.id not in depth:
            parent = by_id.get(s.parent) if s.parent != s.id else None
            depth[s.id] = 0 if parent is None else depth_of(parent) + 1
        return depth[s.id]

    # At equal times, closes precede opens; parents open before and
    # close after their children.
    events: List[Tuple[int, int, int, Span]] = []
    for s in by_id.values():
        events.append((max(s.start, root.start), 1, depth_of(s), s))
        events.append((min(s.end, root.end), 0, -depth_of(s), s))
    events.sort(key=lambda e: e[:3])
    budget: Dict[str, float] = defaultdict(float)
    open_children: Dict[str, int] = defaultdict(int)
    is_open: Dict[str, bool] = {}
    innermost: Dict[str, Span] = {}
    last = root.start
    for t, kind, _, s in events:
        if t > last and innermost:
            share = (t - last) / 1e9 / len(innermost)
            for leaf in innermost.values():
                budget[leaf.layer if leaf.layer in layers else "other"] += share
        last = max(last, t)
        parent = s.parent if s.parent in by_id else None
        if kind == 1:
            is_open[s.id] = True
            if open_children[s.id] == 0:
                innermost[s.id] = s
            if parent is not None and is_open.get(parent):
                open_children[parent] += 1
                innermost.pop(parent, None)
        else:
            is_open[s.id] = False
            innermost.pop(s.id, None)
            if parent is not None and is_open.get(parent):
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost[parent] = by_id[parent]
    budget.setdefault("other", 0.0)
    return dict(budget)


def chrome_trace(spans: Iterable[Span], names: Dict[int, str], meta: Dict) -> Dict:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    spans = sorted(spans, key=lambda s: s.start)
    origin = spans[0].start if spans else 0
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
         "args": {"name": label}}
        for pid, label in names.items()
    ]
    for s in spans:
        events.append({
            "name": s.name, "cat": s.layer, "ph": "X", "pid": s.pid, "tid": s.pid,
            "ts": (s.start - origin) / 1e3, "dur": s.duration / 1e3,
            "args": {"id": s.id, "parent": s.parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
