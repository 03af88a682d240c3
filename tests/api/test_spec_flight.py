"""One single-flight for every front door, and no stale joins.

Herd: identical cold Monte Carlo requests arriving together through
``Session.execute`` or the HTTP server run the kernel once and share
its answer, seeded or not. The kernel is held until every follower has
joined, so the overlap is a controlled state. A failed flight hands
its error to every waiter and is evicted, so the next request retries;
closing the session while a leader waits at the gate fails that
leader and its followers at once, before any slot is given back.

Stale join: a request that starts after a write committed must not
join a flight that read storage before the write. The leader is held
inside ``record_build`` after its reads; the write commits; an
identical request then runs on its own (it finishes while the leader
is still held) and equals a cold, cache-free session. Checked at the
engine's traversal key, at the session's spec key, and
through HTTP.

Admission: a warm request takes neither the flight nor the gate, a
call already inside ``with session.admission:`` is not admitted again
and never follows a flight whose leader is queued behind its slot, and
the followers of a shed leader count as shed.

Retention: a settled answer serves its spec until a write or an
engine's ``invalidate()`` moves the token, in single mode and on two
thread shards. Monte Carlo, seeded or not, caches-off sessions and
failed leaders retain nothing, every hit owns its scores, and at most
``max_cached_graphs`` answers are kept.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.engine.ranking as ranking
from repro.api import EngineConfig, RankingOptions
from repro.engine import RankingEngine
from repro.errors import OverloadedError, RankingError
from repro.serving.server import serve
from repro.workloads import mediated_layers

_HERD = 8
_COLD = EngineConfig(cache_graphs=False, cache_scores=False)


@pytest.fixture()
def workload():
    generated = mediated_layers(layers=3, width=16, fan_out=3, rng=11)
    yield generated
    generated.close()


def _mc_spec(workload, seed):
    return workload.spec(
        method="reliability",
        options=RankingOptions(strategy="mc", trials=300),
        seed=seed,
    )


def _wait_for(predicate, timeout=5.0):
    """Poll ``predicate``; report whether it held before ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class _HeldKernel:
    """Counts ``repro.engine.ranking.rank`` calls; each call waits for
    ``release`` before it scores."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.release = threading.Event()
        self._lock = threading.Lock()
        self._real = ranking.rank
        monkeypatch.setattr(ranking, "rank", self)

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
        assert self.release.wait(30), "the test never released the kernel"
        return self._real(*args, **kwargs)


def _coalesced(session):
    return session.stats_snapshot().coalesced_queries


def _run_herd(session, kernel, call):
    """``_HERD`` threads each run ``call()``; the kernel is released once
    the herd has joined (or after a timeout, so a failing herd fails
    its assertions instead of hanging)."""
    results = [None] * _HERD
    errors = []

    def client(index):
        try:
            results[index] = call()
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(_HERD)]
    before = _coalesced(session)
    for thread in threads:
        thread.start()
    _wait_for(lambda: _coalesced(session) - before >= _HERD - 1)
    kernel.release.set()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive()
    assert errors == []
    return results, _coalesced(session) - before


def _post_execute(url, spec):
    """POST ``spec`` to ``/execute``: ``(status, reply)``, errors too."""
    request = urllib.request.Request(
        url + "/execute",
        data=json.dumps(spec.to_dict()).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.parametrize("seed", [7, None], ids=["seeded", "unseeded"])
class TestHerd:
    def test_session_execute_runs_the_kernel_once(self, workload, seed, monkeypatch):
        kernel = _HeldKernel(monkeypatch)
        spec = _mc_spec(workload, seed)
        with workload.open_session() as session:
            results, coalesced = _run_herd(session, kernel, lambda: session.execute(spec))
        assert kernel.calls == 1
        assert coalesced == _HERD - 1
        # one execution, one shared ResultSet
        assert all(result is results[0] for result in results)

    def test_http_runs_the_kernel_once(self, workload, seed, monkeypatch):
        kernel = _HeldKernel(monkeypatch)
        body = json.dumps(_mc_spec(workload, seed).to_dict()).encode("utf-8")
        with workload.open_session() as session, serve(session) as running:

            def post():
                request = urllib.request.Request(
                    running.url + "/execute",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    return json.loads(response.read())

            results, coalesced = _run_herd(session, kernel, post)
        assert kernel.calls == 1
        assert coalesced == _HERD - 1
        assert all(result == results[0] for result in results)

class _HeldBuild:
    """Wraps ``record_build``: the first build reads storage, then
    signals ``read`` and waits for ``release``; later builds run
    through."""

    def __init__(self, monkeypatch):
        self.read = threading.Event()
        self.release = threading.Event()
        self._first = True
        self._lock = threading.Lock()
        self._real = ranking.record_build
        monkeypatch.setattr(ranking, "record_build", self)

    def __call__(self, *args, **kwargs):
        built = self._real(*args, **kwargs)
        with self._lock:
            hold, self._first = self._first, False
        if hold:
            self.read.set()
            assert self.release.wait(30), "the test never released the build"
        return built


def _in_thread(fn):
    box = {}

    def run():
        box["value"] = fn()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _cold_scores(workload, spec):
    with workload.open_session(config=_COLD) as cold:
        return dict(cold.execute(spec).scores)


_SPEC_METHOD = dict(method="reliability", options=RankingOptions(strategy="closed"))


class TestStaleJoin:
    def test_engine_key_is_not_joined_across_a_write(self, workload, monkeypatch):
        build = _HeldBuild(monkeypatch)
        spec = workload.spec(**_SPEC_METHOD)
        engine = RankingEngine(mediator=workload.mediator)
        query = workload.query

        leader, leader_box = _in_thread(lambda: engine.execute(query))
        try:
            assert build.read.wait(10)
            workload.refresh_entity_weights(count=16, rng=3)
            late, late_box = _in_thread(lambda: engine.execute(query))
            # the late request ran its own traversal while the leader waits
            late.join(10)
            assert not late.is_alive(), "the late request joined the stale flight"
        finally:
            build.release.set()
        leader.join(10)
        assert engine.stats.coalesced_queries == 0

        fresh = _cold_scores(workload, spec)
        late_scores = engine.rank(late_box["value"], "reliability", strategy="closed").scores
        stale_scores = engine.rank(leader_box["value"], "reliability", strategy="closed").scores
        assert dict(late_scores) == fresh
        assert dict(stale_scores) != fresh  # the write did move the answer

    def test_spec_key_is_not_joined_across_a_write(self, workload, monkeypatch):
        build = _HeldBuild(monkeypatch)
        spec = workload.spec(**_SPEC_METHOD)
        with workload.open_session() as session:
            leader, leader_box = _in_thread(lambda: session.execute(spec))
            try:
                assert build.read.wait(10)
                workload.refresh_entity_weights(count=16, rng=3)
                late, late_box = _in_thread(lambda: session.execute(spec))
                late.join(10)
                assert not late.is_alive(), "the late request joined the stale flight"
            finally:
                build.release.set()
            leader.join(10)
            assert session.stats_snapshot().coalesced_queries == 0

        fresh = _cold_scores(workload, spec)
        assert dict(late_box["value"].scores) == fresh
        assert dict(leader_box["value"].scores) != fresh

    def test_http_is_not_joined_across_a_write(self, layered, monkeypatch):
        build = _HeldBuild(monkeypatch)
        spec = layered.spec(**_SPEC_METHOD)
        with _served(layered) as session, serve(session) as running:
            leader, leader_box = _in_thread(lambda: _post_execute(running.url, spec))
            try:
                assert build.read.wait(10)
                layered.refresh_entity_weights(count=16, rng=3)
                late, late_box = _in_thread(lambda: _post_execute(running.url, spec))
                late.join(10)
                assert not late.is_alive(), "the late request joined the stale flight"
            finally:
                build.release.set()
            leader.join(10)
            assert session.stats_snapshot().coalesced_queries == 0

        with layered.open_session(config=_COLD) as cold:
            fresh = json.loads(cold.execute(spec).to_json())
        assert late_box["value"] == (200, fresh)
        assert leader_box["value"][0] == 200
        assert leader_box["value"][1]["entities"] != fresh["entities"]


class TestAdmission:
    """Who the session's gate admits: flight leaders, not warm hits,
    and never twice on one thread."""

    _ONE_SLOT = EngineConfig(max_concurrency=1, max_queue_depth=0)

    def test_warm_request_skips_the_flight_and_the_gate(self, workload):
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=self._ONE_SLOT) as session:
            reference = session.execute(spec)  # warm graph + score caches
            session.admission.acquire()  # a full gate would shed a leader
            try:
                before = session.stats_snapshot()
                warm = session.execute(spec)
                after = session.stats_snapshot()
            finally:
                session.admission.release()
        assert dict(warm.scores) == dict(reference.scores)
        assert after.score_hits - before.score_hits == 1
        assert after.shed_queries == before.shed_queries

    def test_call_inside_with_admission_is_admitted_once(self, workload):
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=self._ONE_SLOT) as session:
            gate = session.admission
            with gate:
                # the caller holds the only slot: a second admission
                # would be shed (or, with a queue, wait on itself)
                results = session.execute(spec)
                batch = session.execute_many([workload.spec(method="path_count")])
                assert gate.in_flight == 1
            assert gate.in_flight == 0
            assert session.stats_snapshot().shed_queries == 0
        assert dict(results.scores) and dict(batch[0].scores)

    def test_followers_of_a_shed_flight_count_as_shed(self, workload, monkeypatch):
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=self._ONE_SLOT) as session:
            gate = session.admission
            gate.acquire()  # the leader will find the gate full
            entered, proceed = threading.Event(), threading.Event()
            acquire = gate.acquire

            def held_acquire():
                # the leader reaches admission only after the followers
                # have joined its flight
                entered.set()
                assert proceed.wait(10)
                acquire()

            monkeypatch.setattr(gate, "acquire", held_acquire)
            errors = []

            def client():
                try:
                    session.execute(spec)
                except OverloadedError as exc:
                    errors.append(exc)

            before = session.stats_snapshot()
            threads = [threading.Thread(target=client, daemon=True) for _ in range(3)]
            threads[0].start()
            assert entered.wait(10)
            for thread in threads[1:]:
                thread.start()
            assert _wait_for(lambda: _coalesced(session) - before.coalesced_queries == 2)
            proceed.set()
            for thread in threads:
                thread.join(10)
            after = session.stats_snapshot()
            monkeypatch.undo()
            gate.release()
        assert len(errors) == 3  # three 503s ...
        assert after.shed_queries - before.shed_queries == 3  # ... three sheds
        assert after.coalesced_queries == before.coalesced_queries


class _CountedKernel(_HeldKernel):
    """Counts ``repro.engine.ranking.rank`` calls without holding them."""

    def __init__(self, monkeypatch):
        super().__init__(monkeypatch)
        self.release.set()


@pytest.fixture(params=[1, 2], ids=["single", "thread-shards"])
def layered(request):
    generated = mediated_layers(layers=3, width=16, fan_out=3, rng=11, shards=request.param)
    yield generated
    generated.close()


def _served(workload, config=None):
    return workload.open_session(config=EngineConfig(shards=workload.shards, **(config or {})))


class TestRetention:
    """A settled answer serves its spec until a write, a registration, a
    confidence change or an engine's ``invalidate()`` moves the token;
    only successful, cacheable answers of caching thread-mode sessions
    are kept, at most ``max_cached_graphs`` of them, and every hit owns
    its scores."""

    def test_a_write_retires_the_settled_answer(self, layered, monkeypatch):
        spec = layered.spec(**_SPEC_METHOD)
        with _served(layered) as session:
            first = dict(session.execute(spec).scores)
            kernel = _CountedKernel(monkeypatch)
            assert dict(session.execute(spec).scores) == first
            assert kernel.calls == 0  # the settled answer
            layered.refresh_entity_weights(count=16, rng=3)
            after = dict(session.execute(spec).scores)
        fresh = _cold_scores(layered, spec)
        assert after == fresh and after != first

    def test_invalidate_retires_the_settled_answer(self, layered, monkeypatch):
        spec = layered.spec(method="in_edge")
        with _served(layered) as session:
            session.execute(spec)
            kernel = _CountedKernel(monkeypatch)
            engines = session.sharded_engine.engines if session.sharded else [session.engine]
            for engine in engines:
                engine.invalidate()
                answer = dict(session.execute(spec).scores)
                assert dict(session.execute(spec).scores) == answer
            assert kernel.calls == len(engines)  # one real execution each
        assert answer == _cold_scores(layered, spec)

    @pytest.mark.parametrize(
        "config, seed",
        [({}, None), (dict(cache_graphs=False, cache_scores=False), 7)],
        ids=["unseeded-mc", "caches-off"],
    )
    def test_unretained_requests_run_the_kernel_every_time(
        self, layered, monkeypatch, config, seed
    ):
        spec = _mc_spec(layered, seed)
        kernel = _CountedKernel(monkeypatch)
        with _served(layered, config) as session:
            for _ in range(3):
                session.execute(spec)
        assert kernel.calls == 3 * layered.shards

    def test_a_failed_leader_retains_nothing(self, layered, monkeypatch):
        spec = layered.spec(method="in_edge")
        with _served(layered) as session:
            gather, calls = session._gather, []

            def failing_once(spec):
                calls.append(spec)
                if len(calls) == 1:
                    raise OverloadedError("refused", retry_after=1.0)
                return gather(spec)

            monkeypatch.setattr(session, "_gather", failing_once)
            with pytest.raises(OverloadedError):
                session.execute(spec)
            answer = session.execute(spec)  # runs: nothing was retained
            again = session.execute(spec)  # the settled answer
        assert len(calls) == 2
        assert dict(again.scores) == dict(answer.scores) == _cold_scores(layered, spec)

    def test_every_hit_owns_its_scores(self, layered):
        spec = layered.spec(method="path_count")
        with _served(layered) as session:
            leader = session.execute(spec)
            expected = dict(leader.scores)
            leader.scores.clear()
            first = session.execute(spec)
            assert first is not leader and dict(first.scores) == expected
            first.scores.clear()
            second = session.execute(spec)
            assert dict(second.scores) == expected
            assert second.to_dict() == session.execute(spec).to_dict()

    def test_retained_answers_never_exceed_max_cached_graphs(self, layered, monkeypatch):
        specs = [layered.spec(method=method) for method in ("in_edge", "path_count", "propagation")]
        with _served(layered, dict(max_cached_graphs=2)) as session:
            for spec in specs:
                session.execute(spec)
            assert len(session._inflight._settled) == 2
            gather, gathered = session._gather, []
            monkeypatch.setattr(session, "_gather", lambda s: gathered.append(s) or gather(s))
            for spec in specs[1:]:
                session.execute(spec)  # still retained
            assert gathered == []
            session.execute(specs[0])  # evicted: it runs again
            assert gathered == [specs[0]]
            assert len(session._inflight._settled) == 2

    def test_seeded_monte_carlo_is_served_by_the_score_cache(self, layered):
        spec = _mc_spec(layered, 7)
        with _served(layered) as session:
            first = session.execute(spec)
            assert not session._inflight._settled
            before = session.stats_snapshot()
            again = session.execute(spec)
            after = session.stats_snapshot()
            assert not session._inflight._settled
        assert after.score_hits - before.score_hits == layered.shards
        assert dict(again.scores) == dict(first.scores)


class _HeldGather:
    """Replaces ``session._gather``: every call gathers and then waits
    for ``release``; the first then raises ``error``, when given,
    instead of returning."""

    def __init__(self, session, error=None):
        self.calls = 0
        self.started = threading.Event()
        self.release = threading.Event()
        self.error = error
        self._real = session._gather
        self._lock = threading.Lock()

    def __call__(self, spec):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        gathered = self._real(spec)
        self.started.set()
        assert self.release.wait(30), "the test never released the gather"
        if first and self.error is not None:
            raise self.error
        return gathered


class TestFailedFlight:
    """A failed flight reaches every waiter and is evicted before they
    wake, so the next identical request runs again."""

    @pytest.mark.parametrize("door", ["execute", "http"])
    def test_every_waiter_gets_the_error_and_the_next_request_retries(
        self, layered, monkeypatch, door
    ):
        spec = layered.spec(method="in_edge")
        with _served(layered) as session, serve(session) as running:
            held = _HeldGather(session, RankingError("the backend exploded"))
            monkeypatch.setattr(session, "_gather", held)

            def call():
                if door == "http":
                    return _post_execute(running.url, spec)
                try:
                    return session.execute(spec)
                except RankingError as exc:
                    return exc

            outcomes, coalesced = _run_herd(session, held, call)
            assert session._inflight._flights == {}
            retry = call()
        assert coalesced == _HERD - 1
        assert held.calls == 2  # the herd's one failed run, then the retry
        if door == "http":
            error = {"error": {"type": "RankingError", "message": "the backend exploded"}}
            assert outcomes == [(400, error)] * _HERD
            assert retry[0] == 200 and retry[1]["total"] > 0
        else:
            assert all(outcome is held.error for outcome in outcomes)
            assert dict(retry.scores) == _cold_scores(layered, spec)


class TestCloseWhileQueued:
    def test_a_queued_leader_and_its_followers_fail(self, layered, monkeypatch):
        running_spec = layered.spec(method="in_edge")
        queued_spec = layered.spec(method="path_count")
        session = _served(layered, dict(max_concurrency=1, max_queue_depth=4))
        gate = session.admission
        held = _HeldGather(session)
        monkeypatch.setattr(session, "_gather", held)
        outcomes = {}

        def client(name, spec):
            try:
                outcomes[name] = session.execute(spec)
            except RankingError as exc:
                outcomes[name] = exc

        try:
            running = threading.Thread(target=client, args=("running", running_spec), daemon=True)
            running.start()
            assert held.started.wait(10)  # holds the only slot
            before = _coalesced(session)
            herd = [
                threading.Thread(target=client, args=(name, queued_spec), daemon=True)
                for name in ("leader", "follower-1", "follower-2")
            ]
            herd[0].start()
            assert _wait_for(lambda: gate.queued == 1)
            for thread in herd[1:]:
                thread.start()
            assert _wait_for(lambda: _coalesced(session) - before == 2)
            session.close()
            held.release.set()
            for thread in [running, *herd]:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            held.release.set()
            session.close()
        assert dict(outcomes.pop("running").scores)
        errors = list(outcomes.values())
        assert len(errors) == 3 and all(error is errors[0] for error in errors)
        assert isinstance(errors[0], RankingError) and "closed" in str(errors[0])
        assert gate.in_flight == 0 and gate.queued == 0

    def test_close_fails_the_queued_before_the_slot_is_given_back(self, layered):
        """A leader queued behind the only slot, and its two followers,
        fail as soon as the session closes, while the slot is still
        held; the gate then ends empty."""
        spec = layered.spec(method="path_count")
        session = _served(layered, dict(max_concurrency=1, max_queue_depth=4))
        gate = session.admission
        outcomes = {}

        def client(name):
            try:
                outcomes[name] = session.execute(spec)
            except RankingError as exc:
                outcomes[name] = exc

        herd = [
            threading.Thread(target=client, args=(name,), daemon=True)
            for name in ("leader", "follower-1", "follower-2")
        ]
        gate.acquire()  # the only slot, held until the herd has failed
        try:
            before = _coalesced(session)
            herd[0].start()
            assert _wait_for(lambda: gate.queued == 1)
            for thread in herd[1:]:
                thread.start()
            assert _wait_for(lambda: _coalesced(session) - before == 2)
            session.close()
            for thread in herd:
                thread.join(5)
                assert not thread.is_alive(), "close() left a request queued"
            assert gate.in_flight == 1 and gate.queued == 0
        finally:
            gate.release()
            session.close()
        errors = list(outcomes.values())
        assert len(errors) == 3 and all(error is errors[0] for error in errors)
        assert isinstance(errors[0], RankingError) and "closed" in str(errors[0])
        assert gate.in_flight == 0 and gate.queued == 0


class TestSlotHolderNeverFollows:
    """A caller inside ``with session.admission:`` leads its own flight
    instead of following one whose leader is queued behind its slot."""

    @pytest.mark.parametrize("call", ["execute", "execute_many"])
    def test_a_slot_holder_does_not_wait_on_its_own_slot(self, layered, call):
        spec = layered.spec(method="path_count")
        sibling = layered.spec(method="in_edge")
        session = _served(layered, dict(max_concurrency=1, max_queue_depth=4))
        gate = session.admission
        holding = threading.Event()
        outcomes = {}

        def queued_leader():
            try:
                outcomes["queued"] = session.execute(spec)
            except RankingError as exc:
                outcomes["queued"] = exc

        def holder():
            try:
                with gate:
                    holding.set()
                    # the leader of spec's flight waits for this slot
                    assert _wait_for(lambda: gate.queued == 1)
                    if call == "execute":
                        outcomes["holder"] = session.execute(spec)
                    else:
                        outcomes["holder"] = session.execute_many([spec, sibling])[0]
            except RankingError as exc:
                outcomes["holder"] = exc

        holding_thread = threading.Thread(target=holder, daemon=True)
        queued_thread = threading.Thread(target=queued_leader, daemon=True)
        holding_thread.start()
        assert holding.wait(10)
        try:
            queued_thread.start()
            holding_thread.join(5)
            deadlocked = holding_thread.is_alive()
        finally:
            if holding_thread.is_alive():
                # failing the queued leader fails the flight the holder
                # follows, so the holder gives its slot back
                session.close()
            for thread in (holding_thread, queued_thread):
                thread.join(10)
                assert not thread.is_alive()
        try:
            assert not deadlocked, "the slot holder followed a flight queued behind its slot"
            assert dict(outcomes["holder"].scores) == dict(outcomes["queued"].scores)
            assert session._inflight._flights == {}
            assert gate.in_flight == 0 and gate.queued == 0
        finally:
            session.close()
