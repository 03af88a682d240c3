"""AdmissionGate: slots, FIFO hand-off, queueing, shedding, release.

The session builds one gate from ``max_concurrency`` /
``max_queue_depth`` / ``retry_after`` when ``max_queue_depth`` is set;
these tests drive a gate on its own.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.async_ import AdmissionGate
from repro.errors import OverloadedError


async def _spin(predicate, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.001)


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
