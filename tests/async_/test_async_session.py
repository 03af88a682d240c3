"""AsyncSession: coalescing, admission, lifecycle, error semantics.

Every overlap in these tests is deterministic: the wrapped session's
``_gather`` (the execution a flight's leader runs once admitted) is
replaced with a gated stub that blocks until the test releases it,
so "identical spec arrives while one is in flight" is a controlled
state, not a race the scheduler may or may not produce.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api import EngineConfig
from repro.api.session import Explanation
from repro.api.spec import QuerySpec
from repro.async_ import AdmissionGate, AsyncSession, open_async_session
from repro.errors import EmptyAnswerError, OverloadedError, RankingError
from repro.workloads import mediated_layers


@pytest.fixture()
def workload():
    generated = mediated_layers(layers=3, width=16, fan_out=3, rng=11)
    yield generated
    generated.close()


@pytest.fixture()
def session(workload):
    opened = workload.open_session()
    yield opened
    opened.close()


def _spec(i=0, method="in_edge"):
    return QuerySpec(
        entity_set="E0",
        attribute="id",
        value=f"E0:{i}",
        outputs=("E1", "E2"),
        method=method,
    )


class _Gate:
    """Replaces ``session._gather``: every call signals ``started``,
    then blocks until ``release``; optionally fails."""

    def __init__(self, session, fail=None):
        self._real = session._gather
        self.started = threading.Event()
        self.release = threading.Event()
        self.fail = fail
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, spec):
        with self._lock:
            self.calls.append(spec)
        self.started.set()
        assert self.release.wait(10), "test never released the gate"
        if self.fail is not None:
            raise self.fail
        return self._real(spec)


async def _spin(predicate, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.001)


class TestCoalescing:
    def test_identical_inflight_specs_share_one_execution(
        self, session, monkeypatch
    ):
        gate = _Gate(session)
        monkeypatch.setattr(session, "_gather", gate)
        spec = _spec()
        n = 8

        async def run():
            async with AsyncSession(session) as s:
                leader = asyncio.create_task(s.execute(spec))
                await _spin(lambda: gate.started.is_set())
                followers = [
                    asyncio.create_task(s.execute(spec)) for _ in range(n - 1)
                ]
                await _spin(
                    lambda: session._inflight._flights.keys() == {spec}
                    and s.in_flight == 1
                )
                # let every follower reach the pending future
                for _ in range(4):
                    await asyncio.sleep(0)
                gate.release.set()
                return await asyncio.gather(leader, *followers)

        before = session.stats_snapshot()
        results = asyncio.run(run())
        after = session.stats_snapshot()

        assert len(gate.calls) == 1  # one traversal for the whole herd
        assert all(result is results[0] for result in results)
        assert after.coalesced_queries - before.coalesced_queries == n - 1
        assert after.graph_misses - before.graph_misses == 1

    def test_failed_execution_reaches_every_waiter_and_evicts(
        self, session, monkeypatch
    ):
        boom = RankingError("backend exploded")
        gate = _Gate(session, fail=boom)
        monkeypatch.setattr(session, "_gather", gate)
        spec = _spec()

        async def run():
            async with AsyncSession(session) as s:
                leader = asyncio.create_task(s.execute(spec))
                await _spin(lambda: gate.started.is_set())
                followers = [
                    asyncio.create_task(s.execute(spec)) for _ in range(2)
                ]
                for _ in range(4):
                    await asyncio.sleep(0)
                gate.release.set()
                outcomes = await asyncio.gather(
                    leader, *followers, return_exceptions=True
                )
                # the dead future is gone: the next identical request
                # retries cold instead of inheriting the stale error
                assert session._inflight._flights == {}
                gate.fail = None
                retry = await s.execute(spec)
                return outcomes, retry

        outcomes, retry = asyncio.run(run())
        assert all(outcome is boom for outcome in outcomes)
        assert retry is not None
        assert len(gate.calls) == 2  # herd, then the cold retry

    def test_a_cancelled_follower_leaves_the_flight_alone(
        self, session, monkeypatch
    ):
        gate = _Gate(session)
        monkeypatch.setattr(session, "_gather", gate)
        spec = _spec()
        before = session.stats_snapshot().coalesced_queries

        async def run():
            async with AsyncSession(session) as s:
                leader = asyncio.create_task(s.execute(spec))
                await _spin(lambda: gate.started.is_set())
                quitter = asyncio.create_task(s.execute(spec))
                stayer = asyncio.create_task(s.execute(spec))
                await _spin(
                    lambda: session.stats_snapshot().coalesced_queries == before + 2
                )
                quitter.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await quitter
                gate.release.set()
                return await asyncio.gather(leader, stayer)

        led, stayed = asyncio.run(run())
        assert stayed is led
        assert len(gate.calls) == 1

    @pytest.mark.parametrize("queued", [False, True], ids=["running", "queued"])
    def test_a_sync_follower_outlives_a_cancelled_async_leader(
        self, workload, monkeypatch, queued
    ):
        # the leader coroutine is cancelled while its flight runs (or
        # while it still waits for the only slot); the flight belongs to
        # every caller, so a thread blocked in Session.execute gets the
        # answer instead of the leader's CancelledError
        session = workload.open_session(config=EngineConfig(max_concurrency=1))
        gate = _Gate(session)
        monkeypatch.setattr(session, "_gather", gate)
        spec = _spec(1)
        follower = {}

        def follow():
            try:
                follower["result"] = session.execute(spec)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                follower["error"] = exc

        async def run():
            async with AsyncSession(session) as s:
                blocker = None
                if queued:
                    blocker = asyncio.create_task(s.execute(_spec(0)))
                    await _spin(lambda: gate.started.is_set())
                before = session.stats_snapshot().coalesced_queries
                leader = asyncio.create_task(s.execute(spec))
                await _spin(lambda: spec in session._inflight._flights)
                if not queued:
                    await _spin(lambda: gate.started.is_set())
                thread = threading.Thread(target=follow, daemon=True)
                thread.start()
                await _spin(
                    lambda: session.stats_snapshot().coalesced_queries == before + 1
                )
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
                gate.release.set()
                await asyncio.get_running_loop().run_in_executor(None, thread.join, 10)
                if blocker is not None:
                    await blocker
                assert s.in_flight == 0 and s.queued == 0

        try:
            asyncio.run(run())
        finally:
            session.close()
        assert "error" not in follower
        assert dict(follower["result"].scores)
        assert gate.calls[-1] == spec and gate.calls.count(spec) == 1

    def test_execute_many_coalesces_duplicates_in_one_batch(self, session):
        specs = [_spec(0), _spec(1), _spec(0)]

        async def run():
            async with AsyncSession(session) as s:
                return await s.execute_many(specs)

        before = session.stats_snapshot()
        results = asyncio.run(run())
        after = session.stats_snapshot()
        assert len(results) == 3
        assert dict(results[0].scores) == dict(results[2].scores)
        # the duplicate was a coalesced wait or a cache hit — never a
        # second traversal
        assert after.graph_misses - before.graph_misses == 2

    def test_execute_many_error_semantics_match_sync(self, session):
        good = _spec(0)
        bad = QuerySpec(
            entity_set="E0",
            attribute="id",
            value="no-such-root",
            outputs=("E1", "E2"),
            method="in_edge",
        )

        async def run(return_errors):
            async with AsyncSession(session) as s:
                return await s.execute_many(
                    [good, bad], return_errors=return_errors
                )

        results = asyncio.run(run(True))
        assert dict(results[0].scores)
        assert isinstance(results[1], EmptyAnswerError)
        with pytest.raises(EmptyAnswerError):
            asyncio.run(run(False))


class TestAdmission:
    def test_queue_then_shed_with_retry_after(self, workload, monkeypatch):
        config = EngineConfig(
            max_concurrency=1, max_queue_depth=1, retry_after=2.0
        )
        session = workload.open_session(config=config)
        gate = _Gate(session)
        monkeypatch.setattr(session, "_gather", gate)

        async def run():
            async with AsyncSession(session) as s:
                first = asyncio.create_task(s.execute(_spec(0)))
                await _spin(lambda: s.in_flight == 1)
                second = asyncio.create_task(s.execute(_spec(1)))
                await _spin(lambda: s.queued == 1)
                with pytest.raises(OverloadedError) as excinfo:
                    await s.execute(_spec(2))
                assert excinfo.value.retry_after == 2.0
                # the shed request left no pending flight behind
                assert len(session._inflight._flights) == 2
                gate.release.set()
                await asyncio.gather(first, second)
                assert s.in_flight == 0 and s.queued == 0
                # with the load gone, the same spec is admitted again
                assert await s.execute(_spec(2)) is not None

        try:
            before = session.stats_snapshot()
            asyncio.run(run())
            after = session.stats_snapshot()
            assert after.queued_queries - before.queued_queries >= 1
            assert after.shed_queries - before.shed_queries == 1
        finally:
            session.close()

    def test_unbounded_queue_never_sheds(self, workload, monkeypatch):
        config = EngineConfig(max_concurrency=1, max_queue_depth=None)
        session = workload.open_session(config=config)
        gate = _Gate(session)
        monkeypatch.setattr(session, "_gather", gate)

        async def run():
            async with AsyncSession(session) as s:
                tasks = [
                    asyncio.create_task(s.execute(_spec(i))) for i in range(4)
                ]
                await _spin(lambda: s.in_flight == 1 and s.queued == 3)
                gate.release.set()
                return await asyncio.gather(*tasks)

        try:
            results = asyncio.run(run())
            assert all(result is not None for result in results)
            assert session.stats_snapshot().shed_queries == 0
        finally:
            session.close()


    def test_closing_with_a_queued_leader_fails_its_flight(
        self, workload, monkeypatch
    ):
        session = workload.open_session(config=EngineConfig(max_concurrency=1))
        gate = _Gate(session)
        monkeypatch.setattr(session, "_gather", gate)

        async def run():
            s = AsyncSession(session)
            first = asyncio.create_task(s.execute(_spec(0)))
            await _spin(lambda: gate.started.is_set())
            second = asyncio.create_task(s.execute(_spec(1)))
            await _spin(lambda: s.queued == 1)
            closing = asyncio.create_task(s.close())
            await _spin(lambda: s._executor._shutdown)
            gate.release.set()
            await closing
            assert dict((await first).scores)
            with pytest.raises(RankingError, match="closed"):
                await second
            assert s.in_flight == 0 and s.queued == 0
            assert session._inflight._flights == {}

        try:
            asyncio.run(run())
        finally:
            session.close()


class TestFastPath:
    def test_warm_spec_served_inline_without_executor(self, session, monkeypatch):
        spec = _spec()
        reference = session.execute(spec)  # settles a retained answer

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm request reached the executor or the gate")

        async def run():
            async with AsyncSession(session) as s:
                monkeypatch.setattr(s._executor, "submit", forbidden)
                monkeypatch.setattr(s._gate, "admit", forbidden)
                result = await s.execute(spec)
                assert s.in_flight == 0 and s.queued == 0
                monkeypatch.undo()
                return result

        result = asyncio.run(run())
        assert dict(result.scores) == dict(reference.scores)
        assert result is not reference


class TestLifecycle:
    def test_explain_passes_through(self, session):
        async def run():
            async with AsyncSession(session) as s:
                return await s.explain(_spec())

        explanation = asyncio.run(run())
        assert isinstance(explanation, Explanation)

    def test_closed_async_session_rejects_calls(self, session):
        async def run():
            s = AsyncSession(session)
            await s.close()
            assert s.closed
            with pytest.raises(RankingError):
                await s.execute(_spec())
            await s.close()  # idempotent

        asyncio.run(run())
        assert not session.closed  # not owned: the sync session survives

    def test_owned_session_closes_with_the_async_facade(self, workload):
        async def run():
            async with open_async_session(
                mediator=workload.mediator
            ) as s:
                result = await s.execute(_spec())
                assert dict(result.scores)
                return s

        s = asyncio.run(run())
        assert s.closed
        assert s.session.closed  # ownership: open_async_session closes it

    def test_serves_successive_event_loops(self, session):
        # no state binds to a loop: flights and admission waits are
        # concurrent futures, awaited on whichever loop runs the call
        s = AsyncSession(session)
        first = asyncio.run(s.execute(_spec()))
        second = asyncio.run(s.execute(_spec(1)))  # a different loop
        assert dict(first.scores) and dict(second.scores)
        asyncio.run(s.close())


class TestAdmissionGate:
    def test_fast_path_and_release(self):
        gate = AdmissionGate(max_in_flight=2, max_queue_depth=0)
        with gate:
            assert gate.in_flight == 1
            with gate:
                assert gate.in_flight == 2
                with pytest.raises(OverloadedError):
                    gate.acquire()
        assert gate.in_flight == 0

    def test_queued_caller_waits_for_a_slot(self):
        queued, shed = [], []
        gate = AdmissionGate(
            max_in_flight=1,
            max_queue_depth=2,
            retry_after=0.5,
            on_queued=lambda: queued.append(1),
            on_shed=lambda: shed.append(1),
        )
        gate.acquire()
        acquired = threading.Event()

        def waiter():
            with gate:
                acquired.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert not acquired.wait(0.05)  # genuinely blocked on the queue
        assert gate.queued == 1
        gate.release()
        assert acquired.wait(5)
        thread.join(5)
        assert queued == [1] and shed == []

    def test_shed_carries_the_retry_hint(self):
        shed = []
        gate = AdmissionGate(
            max_in_flight=1,
            max_queue_depth=0,
            retry_after=2.5,
            on_shed=lambda: shed.append(1),
        )
        gate.acquire()
        with pytest.raises(OverloadedError) as excinfo:
            gate.acquire()
        assert excinfo.value.retry_after == 2.5
        assert shed == [1]
        gate.release()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_in_flight=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_in_flight=1, max_queue_depth=-1)
        gate = AdmissionGate(max_in_flight=1)
        with pytest.raises(RuntimeError):
            gate.release()

    def test_freed_slots_go_to_waiters_in_arrival_order(self):
        gate = AdmissionGate(max_in_flight=1)
        gate.acquire()
        order = []

        def waiter(index):
            with gate:
                order.append(index)

        threads = []
        for index in range(3):
            thread = threading.Thread(target=waiter, args=(index,), daemon=True)
            thread.start()
            threads.append(thread)
            # start the next waiter only once this one is queued
            asyncio.run(_spin(lambda queued=index + 1: gate.queued == queued))
        gate.release()
        for thread in threads:
            thread.join(5)
        assert order == [0, 1, 2]
        assert gate.in_flight == 0 and gate.queued == 0

    def test_admit_hands_a_slot_to_its_future(self):
        gate = AdmissionGate(max_in_flight=1)
        assert gate.admit().done()  # a free slot: admitted at once
        waiting = gate.admit()
        assert not waiting.done() and gate.queued == 1
        seen = []
        # the future resolves outside the gate's lock: a callback that
        # releases in turn does not deadlock
        waiting.add_done_callback(lambda _: (seen.append(gate.in_flight), gate.release()))
        thread = threading.Thread(target=gate.release)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        assert seen == [1]
        assert gate.in_flight == 0 and gate.queued == 0

    def test_interrupted_wait_leaves_the_queue_and_leaks_no_slot(self):
        gate = AdmissionGate(max_in_flight=1, max_queue_depth=2)
        gate.acquire()
        first, second = gate.admit(), gate.admit()
        gate._abandon(first)  # interrupted while queued
        assert gate.queued == 1
        gate.release()  # handed over to the second waiter ...
        gate._abandon(second)  # ... which gives it back
        assert gate.in_flight == 0 and gate.queued == 0
