"""The single-process HTTP load generator of the end-to-end benchmark.

Two client threads each hold one keep-alive ``http.client`` connection.
In an **open** phase they serve a precomputed schedule of Poisson
arrivals: a thread takes the next request, sleeps until it is due (or
sends at once when the schedule has run ahead of it), and the request
is timed from its due time, so a stall also counts the wait it imposes
on later requests. In a **closed** phase each thread sends its next
request as soon as the previous answer is read.

Every request carries an ``X-Bench-Id`` header so server-side spans can
be matched to it. Only every ``SAMPLE_EVERY``-th answer body is kept,
for the correctness check after the phase.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: keep the body of every N-th request for the reference check
SAMPLE_EVERY = 20
_TIMEOUT_S = 60.0


class Connection:
    """One keep-alive HTTP connection (reconnects after a transport error)."""

    def __init__(self, host: str, port: int) -> None:
        self._host, self._port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(
        self, method: str, path: str, payload: Optional[bytes] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        """``(status, body)``; status 0 marks a transport error."""
        headers: Dict[str, str] = {}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Bench-Id"] = request_id
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self._host, self._port, timeout=_TIMEOUT_S)
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, str(exc).encode("utf-8")

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    offsets: List[float] = []
    at = rng.expovariate(rate)
    while at < duration:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


def _drive(
    connections: Sequence[Connection],
    take: Callable[[], Optional[Tuple[int, bytes, Optional[float]]]],
    prefix: str,
) -> List[dict]:
    """Run one thread per connection until ``take`` runs dry."""
    records: List[dict] = []

    def loop(connection: Connection) -> None:
        while True:
            item = take()
            if item is None:
                return
            index, payload, due = item
            if due is not None:
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            send = time.monotonic()
            request_id = f"{prefix}-{index}"
            status, body = connection.request("POST", "/execute", payload, request_id)
            end = time.monotonic()
            records.append({
                "req": request_id, "index": index, "payload": payload,
                "due": send if due is None else due, "send": send, "end": end,
                "status": status,
                "body": body if index % SAMPLE_EVERY == 0 or status != 200 else None,
            })

    threads = [
        threading.Thread(target=loop, args=(connection,), name=f"bench-client-{i}")
        for i, connection in enumerate(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda record: record["index"])
    return records


def run_open(
    connections: Sequence[Connection],
    payloads: Sequence[bytes],
    offsets: Sequence[float],
    prefix: str,
) -> Tuple[List[dict], float, float]:
    """Send ``payloads[i]`` at ``start + offsets[i]``; returns
    ``(records, start, end)``."""
    start = time.monotonic() + 0.05
    lock = threading.Lock()
    cursor = iter(range(len(payloads)))

    def take() -> Optional[Tuple[int, bytes, Optional[float]]]:
        with lock:
            index = next(cursor, None)
        if index is None:
            return None
        return index, payloads[index], start + offsets[index]

    records = _drive(connections, take, prefix)
    return records, start, time.monotonic()


def run_closed(
    connections: Sequence[Connection],
    next_payload: Callable[[], bytes],
    duration: float,
    prefix: str,
) -> Tuple[List[dict], float, float]:
    """Back-to-back requests for ``duration`` seconds; returns
    ``(records, start, end)`` where ``end`` is the last answer's end."""
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    start = time.monotonic()
    deadline = start + duration

    def take() -> Optional[Tuple[int, bytes, Optional[float]]]:
        if time.monotonic() >= deadline:
            return None
        with lock:
            return next(counter), next_payload(), None

    records = _drive(connections, take, prefix)
    end = max((record["end"] for record in records), default=time.monotonic())
    return records, start, end
