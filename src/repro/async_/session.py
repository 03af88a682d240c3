"""The asynchronous session facade.

:class:`AsyncSession` wraps a synchronous :class:`~repro.api.Session`
and exposes ``execute`` / ``execute_many`` / ``explain`` as
coroutines. It keeps only an executor hop (``max_concurrency`` wide,
so one request's storage I/O overlaps another's scoring while the loop
stays responsive); the serving policy is the session's. A spec
with a settled answer is answered inline, identical specs join the
session's single-flight with HTTP and direct callers, and each flight
leader queues at the session's admission gate (or an unbounded one of
its own) and then runs on the executor. Results are bit-identical to
the sync path: the same session methods run.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Iterable, List, TypeVar, Union

from repro.api.result import ResultSet
from repro.api.session import Explanation, Session, SpecLike, open_session
from repro.async_.admission import AdmissionGate
from repro.engine.ranking import resolve
from repro.errors import OverloadedError, RankingError, ReproError

__all__ = ["AsyncSession", "open_async_session"]

_T = TypeVar("_T")


class AsyncSession:
    """An asyncio facade over one :class:`~repro.api.Session`.

    Construct via :func:`open_async_session` (which owns the wrapped
    session) or directly around an existing session
    (``AsyncSession(session)`` — the caller keeps ownership unless
    ``own_session=True``). Use as an async context manager; closing
    shuts the executor down and, when owned, closes the session. No
    state binds to an event loop: every wait is on a
    :class:`concurrent.futures.Future`, bridged to the caller's loop.
    """

    def __init__(self, session: Session, own_session: bool = False) -> None:
        self._session = session
        self._own_session = own_session
        config = session.config
        self._gate = session.admission or AdmissionGate(
            config.max_concurrency, on_queued=session.engine.note_queued
        )
        # sized to the concurrency cap, not config.max_workers: the
        # executor is the async session's execution lane, while the
        # session pool keeps its documented execute_many width
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_concurrency,
            thread_name_prefix="repro-async",
        )
        self._closed = False

    # -------------------------------------------------------------- #
    # plumbing
    # -------------------------------------------------------------- #

    @property
    def session(self) -> Session:
        """The wrapped session (its config, caches, stats and flights)."""
        return self._session

    @property
    def in_flight(self) -> int:
        """Requests currently holding an execution slot."""
        return self._gate.in_flight

    @property
    def queued(self) -> int:
        """Requests currently waiting for an execution slot."""
        return self._gate.queued

    def _admitted(
        self, settle: Callable[..., None], fn: Callable[..., Any], *args: Any
    ) -> None:
        """Run ``fn(*args)`` on the executor once the gate admits it,
        then ``settle(result, error)``, slot released. The run belongs to
        no coroutine: cancelling one that awaits it cancels only that
        wait. A shed, or a close while queued, settles as the error."""

        def run() -> None:
            try:
                result, error = fn(*args), None
            except BaseException as exc:
                result, error = None, exc
            self._gate.release()
            settle(result, error)

        def start(_: object) -> None:
            try:
                self._executor.submit(run)
            except RuntimeError:  # the executor shut down while queued
                self._gate.release()
                settle(None, RankingError("this async session is closed"))

        try:
            self._gate.admit().add_done_callback(start)
        except OverloadedError as exc:
            settle(None, exc)

    # -------------------------------------------------------------- #
    # execution
    # -------------------------------------------------------------- #

    async def execute(self, spec: SpecLike) -> ResultSet:
        """Execute one spec; identical concurrent specs share one
        execution (and its :class:`~repro.api.ResultSet`) with every
        other caller of the session, exactly as in
        :meth:`~repro.api.Session.execute`."""
        self._check_open()
        coerced = Session._coerce(spec)
        found, leader = self._session._join(coerced)
        if leader is None:
            return found  # a settled answer, inline: no flight, no slot
        if leader:
            settle = partial(self._session._settle, coerced, found)
            self._admitted(settle, self._session._gather, coerced)
        return await _bridge(found)

    async def execute_many(
        self,
        specs: Iterable[SpecLike],
        return_errors: bool = False,
    ) -> List[Union[ResultSet, ReproError]]:
        """Execute a batch concurrently (bounded by ``max_concurrency``).

        Identical specs coalesce into one execution via the session's
        single-flight. Results come back in spec order; with
        ``return_errors=True`` a failing spec yields its exception in
        place instead of raising — the same contract as the sync
        :meth:`~repro.api.Session.execute_many`.
        """
        self._check_open()
        outcomes = await asyncio.gather(
            *(self.execute(spec) for spec in specs), return_exceptions=True
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not (
                return_errors and isinstance(outcome, ReproError)
            ):
                raise outcome
        return outcomes

    async def explain(self, spec: SpecLike) -> Explanation:
        """Async passthrough to :meth:`~repro.api.Session.explain`
        (admitted; never coalesced — an explanation reports *this
        call's* cache provenance)."""
        self._check_open()
        done: "Future[Explanation]" = Future()
        self._admitted(partial(resolve, done), self._session._explain, spec)
        return await _bridge(done)

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    async def close(self) -> None:
        """Shut the executor down (waiting out in-flight work) and,
        when owned, close the wrapped session. Idempotent."""
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        # shutdown(wait=True) blocks on in-flight work: run it off-loop
        await loop.run_in_executor(
            None, lambda: self._executor.shutdown(wait=True)
        )
        if self._own_session:
            self._session.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RankingError("this async session is closed")

    async def __aenter__(self) -> "AsyncSession":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<AsyncSession {state} {self._gate!r}>"


def _bridge(future: "Future[_T]") -> "asyncio.Future[_T]":
    """An asyncio future on the running loop that takes ``future``'s
    outcome. Cancelling it leaves ``future`` alone, since other callers
    share it."""
    loop = asyncio.get_running_loop()
    waiter: "asyncio.Future[_T]" = loop.create_future()

    def copy(done: "Future[_T]") -> None:
        if not waiter.cancelled():
            error = done.exception()
            if error is None:
                waiter.set_result(done.result())
            else:
                waiter.set_exception(error)

    def relay(done: "Future[_T]") -> None:
        if not loop.is_closed():  # else nobody waits any more
            loop.call_soon_threadsafe(copy, done)

    future.add_done_callback(relay)
    return waiter


def open_async_session(*args: Any, **kwargs: Any) -> AsyncSession:
    """Open an :class:`AsyncSession` that owns its underlying session.

    Accepts exactly the arguments of :func:`repro.api.open_session`::

        async with open_async_session(sources=[...], config=config) as s:
            results = await s.execute(spec)
    """
    return AsyncSession(open_session(*args, **kwargs), own_session=True)
