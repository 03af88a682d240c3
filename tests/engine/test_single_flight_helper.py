"""``SingleFlight`` on its own: who joins, who leads, what is retained.

One table drives ``join`` and ``settle`` through each case. A step is
``("join", key, token, expected)``, where ``expected`` is ``LEAD`` (a
new flight), ``FOLLOW`` (the key's latest flight) or the retained
answer handed back, or ``("settle", key, flight, outcome, retain)``,
which settles the key's ``flight``-th led flight with ``outcome`` (an
exception settles as the error). Afterwards every settled flight holds
its outcome, and the pending and retained keys are as listed.
"""

from __future__ import annotations

import pytest

from repro.engine.ranking import SingleFlight
from repro.errors import RankingError

LEAD, FOLLOW = "lead", "follow"
BOOM = RankingError("boom")

#: case -> (retain bound, steps, pending keys after, retained keys after)
CASES = {
    "equal-token-follows": (4, [
        ("join", "k", 1, LEAD),
        ("join", "k", 1, FOLLOW),
        ("settle", "k", 0, "answer", None),
    ], [], []),
    "other-token-leads-a-new-flight": (4, [
        ("join", "k", 1, LEAD),
        ("join", "k", 2, LEAD),
        ("join", "k", 2, FOLLOW),
    ], ["k"], []),
    "superseded-leader-neither-evicts-nor-retains": (4, [
        ("join", "k", 1, LEAD),
        ("join", "k", 2, LEAD),
        ("settle", "k", 0, "old", "old"),
        ("join", "k", 2, FOLLOW),
    ], ["k"], []),
    "retained-answer-served-for-an-equal-token": (4, [
        ("join", "k", 1, LEAD),
        ("settle", "k", 0, "answer", "kept"),
        ("join", "k", 1, "kept"),
        ("join", "k", 1, "kept"),
    ], [], ["k"]),
    "retained-answer-dropped-for-another-token": (4, [
        ("join", "k", 1, LEAD),
        ("settle", "k", 0, "answer", "kept"),
        ("join", "k", 2, LEAD),
    ], ["k"], []),
    "lru-bound-holds": (2, [
        ("join", "a", 1, LEAD),
        ("settle", "a", 0, "a", "a"),
        ("join", "b", 1, LEAD),
        ("settle", "b", 0, "b", "b"),
        ("join", "a", 1, "a"),  # a is now the most recently used
        ("join", "c", 1, LEAD),
        ("settle", "c", 0, "c", "c"),  # evicts b
        ("join", "b", 1, LEAD),
    ], ["b"], ["a", "c"]),
    "retain-zero-keeps-nothing": (0, [
        ("join", "k", 1, LEAD),
        ("settle", "k", 0, "answer", "kept"),
        ("join", "k", 1, LEAD),
    ], ["k"], []),
    "error-reaches-every-follower-and-retains-nothing": (4, [
        ("join", "k", 1, LEAD),
        ("join", "k", 1, FOLLOW),
        ("join", "k", 1, FOLLOW),
        ("settle", "k", 0, BOOM, None),
        ("join", "k", 1, LEAD),
    ], ["k"], []),
}


@pytest.mark.parametrize("retain, steps, pending, retained", CASES.values(), ids=CASES)
def test_join_and_settle(retain, steps, pending, retained):
    flights = SingleFlight(retain=retain)
    led = {}  # key -> the futures it led, in order
    outcomes = []  # (future, outcome) of every settle
    for step in steps:
        if step[0] == "join":
            _, key, token, expected = step
            found, leader = flights.join(key, token)
            if expected == LEAD:
                assert leader is True and not found.done()
                led.setdefault(key, []).append(found)
            elif expected == FOLLOW:
                assert leader is False and found is led[key][-1]
            else:
                assert leader is None and found == expected
        else:
            _, key, index, outcome, keep = step
            future = led[key][index]
            if isinstance(outcome, BaseException):
                flights.settle(key, future, error=outcome)
            else:
                flights.settle(key, future, outcome, retain=keep)
            outcomes.append((future, outcome))
    for future, outcome in outcomes:
        if isinstance(outcome, BaseException):
            assert future.exception() is outcome
        else:
            assert future.result() == outcome
    assert sorted(flights._flights) == pending
    assert sorted(flights._settled) == retained
