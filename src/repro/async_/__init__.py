"""``repro.async_`` — the asynchronous serving core.

An :mod:`asyncio` surface over the synchronous :class:`~repro.api.Session`
whose serving policy every front door (direct, HTTP, async) shares:
one single-flight key — identical specs started at the same mediator
epochs share one execution, and followers are never admitted — and one
:class:`AdmissionGate` (``max_concurrency`` slots, ``max_queue_depth``
waiters in FIFO order, blocking or queued; overload is an
:class:`~repro.errors.OverloadedError`, HTTP 503 at the front door).
:class:`AsyncSession` adds only the executor hop, so its results are
bit-identical to the sync path.

::

    from repro.async_ import open_async_session

    async def main():
        async with open_async_session(sources=[...]) as session:
            results = await session.execute(spec)
"""

from repro.async_.admission import AdmissionGate
from repro.async_.session import AsyncSession, open_async_session

__all__ = ["AdmissionGate", "AsyncSession", "open_async_session"]
