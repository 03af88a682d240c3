"""Bounded admission control shared by every caller of a session.

:class:`AdmissionGate` is a thread-safe counting gate with two caps:
``max_in_flight`` requests may *execute* at once and
``max_queue_depth`` more may *wait* (``None``: without bound). An
arrival that finds the queue full is refused at once with an
:class:`~repro.errors.OverloadedError` carrying the ``retry_after``
hint. A freed slot goes to the longest waiter (FIFO), whether a thread
blocks for it (``with gate:``) or queued for it without waiting
(:meth:`AdmissionGate.admit`). The session's gate
(``session.admission``) admits each single-flight leader once;
followers are never admitted, and neither is a call made inside a
``with session.admission:`` block on the same thread.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, Optional

from repro.errors import OverloadedError

__all__ = ["AdmissionGate"]

#: what :meth:`AdmissionGate.admit` returns when a slot is free
_ADMITTED: "Future[None]" = Future()
_ADMITTED.set_result(None)


class AdmissionGate:
    """A bounded admission gate: ``with gate:`` around one request's
    execution, or ``gate.admit()`` … ``gate.release()``.

    ``on_queued`` / ``on_shed`` mirror outcomes onto
    :class:`~repro.engine.EngineStats`; they run under the gate's lock,
    so they must not call back into the gate.
    """

    def __init__(
        self,
        max_in_flight: int,
        max_queue_depth: Optional[int] = None,
        retry_after: float = 1.0,
        on_queued: Optional[Callable[[], None]] = None,
        on_shed: Optional[Callable[[], None]] = None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be a positive integer, got {max_in_flight!r}"
            )
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be None or >= 0, got {max_queue_depth!r}"
            )
        self.max_in_flight = max_in_flight
        self.max_queue_depth = max_queue_depth
        self.retry_after = retry_after
        self._on_queued = on_queued
        self._on_shed = on_shed
        self._lock = threading.Lock()
        self._in_flight = 0
        #: queued requests, oldest first, each resolved by a handed slot
        self._waiters: Deque["Future[None]"] = deque()
        #: per thread: how many ``with gate:`` blocks it is inside
        self._held = threading.local()

    @property
    def in_flight(self) -> int:
        """Requests currently holding an execution slot."""
        with self._lock:
            return self._in_flight

    @property
    def queued(self) -> int:
        """Requests currently waiting for a slot."""
        with self._lock:
            return len(self._waiters)

    def admit(self) -> "Future[None]":
        """Take a slot, or a place in the queue, without waiting: a
        future resolved once the caller holds a slot (already resolved
        if one was free); raises :class:`OverloadedError` when the queue
        is full. The holder must :meth:`release` the slot."""
        with self._lock:
            # slots are handed over while anyone waits: free means empty
            if self._in_flight < self.max_in_flight:
                self._in_flight += 1
                return _ADMITTED
            queued = len(self._waiters)
            if self.max_queue_depth is not None and queued >= self.max_queue_depth:
                if self._on_shed is not None:
                    self._on_shed()
                raise OverloadedError(
                    f"session overloaded: {self._in_flight} request(s) in "
                    f"flight and {queued} queued (caps: "
                    f"max_concurrency={self.max_in_flight}, "
                    f"max_queue_depth={self.max_queue_depth}); retry after "
                    f"{self.retry_after:g}s",
                    retry_after=self.retry_after,
                )
            waiter: "Future[None]" = Future()
            self._waiters.append(waiter)
            if self._on_queued is not None:
                self._on_queued()
            return waiter

    def _abandon(self, waiter: "Future[None]") -> None:
        """Leave the queue after an interrupted wait, giving back the
        slot if one was already handed over."""
        if not waiter.cancel():
            self.release()  # the slot was handed over already
            return
        with self._lock:
            if waiter in self._waiters:
                self._waiters.remove(waiter)

    def acquire(self) -> None:
        """Take one execution slot, blocking in the admission queue if
        none is free; raises :class:`OverloadedError` when the queue is
        full. Every successful acquire must be paired with
        :meth:`release`."""
        waiter = self.admit()
        try:
            waiter.result()
        except BaseException:
            self._abandon(waiter)
            raise

    def release(self) -> None:
        """Give an execution slot back: hand it to the oldest queued
        request, or free it when none waits."""
        while True:
            with self._lock:
                if self._in_flight <= 0:
                    raise RuntimeError("release() without a matching acquire()")
                if not self._waiters:
                    self._in_flight -= 1
                    return
                waiter = self._waiters.popleft()
            # outside the lock: an admit() callback may release in turn;
            # a cancelled waiter is skipped
            if waiter.set_running_or_notify_cancel():
                waiter.set_result(None)
                return

    def held(self) -> bool:
        """Whether the calling thread is inside a ``with gate:`` block
        (the session does not admit its calls a second time)."""
        return getattr(self._held, "depth", 0) > 0

    def __enter__(self) -> "AdmissionGate":
        self.acquire()
        self._held.depth = getattr(self._held, "depth", 0) + 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._held.depth -= 1
        self.release()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<AdmissionGate in_flight={self._in_flight}/"
                f"{self.max_in_flight} queued={len(self._waiters)}"
                f"{'' if self.max_queue_depth is None else f'/{self.max_queue_depth}'}>"
            )
