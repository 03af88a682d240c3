"""Per-layer spans for the end-to-end benchmark, recorded from outside
the program.

:class:`Recorder` patches the public entry points of each layer inside
the server process (the table in ``README.md``) with wrappers that
record one span per call: name, start, end, parent and request id. The
parent is the enclosing span of the same logical request, held in a
:class:`contextvars.ContextVar`; ``ThreadPoolExecutor.submit`` is
wrapped so scatter-pool tasks run in the submitting span's context. The
request id is the ``X-Bench-Id`` header the load generator sends. Spans
stay in memory until :meth:`Recorder.dump` writes them as JSONL.

:func:`breakdown` turns the dumped spans plus the client's own
timestamps into per-layer metrics. A span's self time is its duration
minus the union of its children's intervals. Two layers are measured
on the client: ``client.wait`` (due time to send start) and
``serving.wire`` (send-to-read time minus the server's
``serving.request`` span of the same request id).

All timestamps are ``time.monotonic()``, one system-wide clock, so the
client and server records line up.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: (current span id, request id) of the running logical request
_CURRENT: contextvars.ContextVar[Tuple[int, Optional[str]]] = contextvars.ContextVar(
    "bench_span", default=(0, None)
)

#: every layer, outermost first (README.md maps each to the end-to-end
#: metric it should move)
LAYERS: Tuple[str, ...] = (
    "client.wait", "serving.wire", "serving.request", "async_.admission",
    "api.execute", "api.encode", "engine.gather", "serving.rpc", "engine.graph",
    "engine.score", "integration.build", "integration.repair", "storage.probe",
    "storage.write", "core.compile", "core.patch", "core.rank",
)

#: spans recorded off the request path (the writer thread), reported
#: per request of the window they ran in
BACKGROUND = ("storage.write",)

Span = Tuple[int, int, str, Optional[str], float, float, int]


def _rows_of_groups(result: Mapping[object, Sequence]) -> int:
    return sum(len(group) for group in result.values())


class Recorder:
    """Patches the layer entry points and keeps their spans."""

    def __init__(self) -> None:
        #: (id, parent id, name, request id, start, end, rows)
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._installed = False

    def _wrap(
        self,
        name: str,
        fn: Callable,
        rows: Optional[Callable[[object], int]] = None,
        request_of: Optional[Callable[[tuple], Optional[str]]] = None,
    ) -> Callable:
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, request = _CURRENT.get()
            if request_of is not None:
                parent, request = 0, request_of(args)
            span = next(ids)
            token = _CURRENT.set((span, request))
            start = time.monotonic()
            count = 0
            try:
                result = fn(*args, **kwargs)
                if rows is not None:
                    count = rows(result)
                return result
            finally:
                end = time.monotonic()
                _CURRENT.reset(token)
                spans.append((span, parent, name, request, start, end, count))

        return traced

    def install(self) -> None:
        """Patch every layer (idempotent). Call before traffic starts."""
        if self._installed:
            return
        self._installed = True
        import repro.engine.ranking as ranking
        from repro.api.result import ResultSet
        from repro.api.session import Session
        from repro.async_.admission import AdmissionGate
        from repro.engine.sharded import ShardedEngine
        from repro.serving.engine import ProcessShardedEngine, WorkerHandle
        from repro.serving.server import _Handler
        from repro.storage.table import Table

        def bench_id(args: tuple) -> Optional[str]:
            return args[0].headers.get("X-Bench-Id")

        targets = (
            ("serving.request", _Handler, "do_POST", None, bench_id),
            ("async_.admission", AdmissionGate, "__enter__", None, None),
            ("api.execute", Session, "execute", None, None),
            ("api.encode", ResultSet, "to_dict", None, None),
            ("engine.gather", ShardedEngine, "gather", None, None),
            ("engine.gather", ProcessShardedEngine, "gather", None, None),
            ("serving.rpc", WorkerHandle, "call", None, None),
            ("engine.graph", ranking.RankingEngine, "execute_with_stats", None, None),
            ("engine.score", ranking.RankingEngine, "rank_with_stats", None, None),
            ("integration.build", ranking, "record_build", None, None),
            ("integration.repair", ranking, "repair_build", None, None),
            ("storage.probe", Table, "lookup", len, None),
            ("storage.probe", Table, "lookup_many", _rows_of_groups, None),
            ("storage.probe", Table, "probe_positions", _rows_of_groups, None),
            ("storage.probe", Table, "gather", None, None),
            ("storage.write", Table, "update_many", None, None),
            ("core.compile", ranking, "compile_graph", None, None),
            ("core.patch", ranking, "patch_compiled", None, None),
            ("core.rank", ranking, "rank", None, None),
        )
        for name, owner, attribute, rows, request_of in targets:
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(name, original, rows, request_of))

        submit = ThreadPoolExecutor.submit

        @functools.wraps(submit)
        def submit_in_context(pool, fn, /, *args, **kwargs):
            return submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        ThreadPoolExecutor.submit = submit_in_context  # type: ignore[method-assign]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span, parent, name, request, start, end, rows in list(self.spans):
                handle.write(json.dumps({
                    "id": span, "parent": parent, "name": name, "req": request,
                    "t0": start, "t1": end, "rows": rows,
                }) + "\n")


# ------------------------------------------------------------------ #
# analysis (client side)
# ------------------------------------------------------------------ #


def load(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _longest_per_overlap(children: Iterable[Tuple[float, float, float]]) -> float:
    """Sum of ``value`` over ``(start, end, value)`` children, where a
    group of overlapping (concurrent) children counts only its largest."""
    total, reach, largest = 0.0, float("-inf"), 0.0
    for start, end, value in sorted(children):
        if start < reach:
            largest = max(largest, value)
        else:
            total += largest
            largest = value
        reach = max(reach, end)
    return total + largest


def breakdown(
    spans: Sequence[Dict[str, object]],
    requests: Sequence[Mapping[str, object]],
    window: Tuple[float, float],
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """Per-layer metrics over ``requests`` (client records with ``req``,
    ``due``, ``send``, ``end``) and background spans inside ``window``.

    Returns ``(metrics, checks)``: metrics map ``<layer>.<metric>`` to
    ``{"value", "unit", "samples"}``; checks hold ``accounted_pct``,
    per-request self times plus client wait and wire time over summed
    latency, with concurrent shard subtrees counted by their longest
    member. Wire time is the residual around ``serving.request``, so
    this is 100% by construction unless children overlap: it checks
    the overlap handling, not coverage. Server time outside the patched
    layers shows as ``serving.request`` self time."""
    wanted = {record["req"]: record for record in requests}
    children: Dict[int, List[Dict[str, object]]] = {}
    roots: Dict[str, Dict[str, object]] = {}
    background: List[Dict[str, object]] = []
    for span in spans:
        if span["req"] in wanted:
            children.setdefault(span["parent"], []).append(span)
            if span["parent"] == 0 and span["name"] == "serving.request":
                roots[span["req"]] = span
        elif span["req"] is None and span["name"] in BACKGROUND:
            if window[0] <= span["t0"] < window[1]:
                background.append(span)

    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    rows = 0

    def note(name: str, self_time: float, duration: float) -> None:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_time
        durations.setdefault(name, []).append(duration)

    def visit(span: Dict[str, object]) -> float:
        """Record ``span``'s subtree; return its critical self-time sum."""
        nonlocal rows
        kids = children.get(span["id"], [])
        duration = span["t1"] - span["t0"]
        own = duration - _union(
            (max(kid["t0"], span["t0"]), min(kid["t1"], span["t1"])) for kid in kids
        )
        note(span["name"], own, duration)
        rows += span["rows"]
        return own + _longest_per_overlap((kid["t0"], kid["t1"], visit(kid)) for kid in kids)

    accounted = latency = 0.0
    served = 0
    for request_id, record in wanted.items():
        root = roots.get(request_id)
        if root is None:
            continue
        served += 1
        wait = record["send"] - record["due"]
        wire = (record["end"] - record["send"]) - (root["t1"] - root["t0"])
        note("client.wait", wait, wait)
        note("serving.wire", wire, wire)
        accounted += wait + wire + visit(root)
        latency += record["end"] - record["due"]
    for span in background:
        duration = span["t1"] - span["t0"]
        note(span["name"], duration, duration)

    metrics: Dict[str, Dict[str, float]] = {}
    per_request = max(served, 1)
    for name in LAYERS:
        observed = durations.get(name, [])
        metrics[f"{name}.calls_per_req"] = {
            "value": calls.get(name, 0) / per_request, "unit": "count",
            "samples": served,
        }
        metrics[f"{name}.self_ms_per_req"] = {
            "value": self_s.get(name, 0.0) * 1e3 / per_request, "unit": "ms",
            "samples": served,
        }
        metrics[f"{name}.p50_ms"] = {
            "value": statistics.median(observed) * 1e3 if observed else 0.0,
            "unit": "ms", "samples": len(observed),
        }
    metrics["storage.rows_per_req"] = {
        "value": rows / per_request, "unit": "count", "samples": served,
    }
    checks = {
        "accounted_pct": 100.0 * accounted / latency if latency else 0.0,
        "requests": served,
    }
    return metrics, checks
