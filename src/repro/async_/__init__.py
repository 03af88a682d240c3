"""``repro.async_`` — the session's bounded admission gate.

:class:`AdmissionGate` caps how many requests execute at once
(``EngineConfig.max_concurrency``) and how many more may wait
(``max_queue_depth``; overload is an :class:`~repro.errors.OverloadedError`,
HTTP 503 at the front door). Every caller of a
:class:`~repro.api.Session` queues at the same gate, once per
single-flight leader. An asyncio caller takes the same path from the
executor, so it joins the same flight, gate and settled answers::

    results = await loop.run_in_executor(None, session.execute, spec)

The gate lives here, not in :mod:`repro.api`, because this package
once held an asyncio facade over the session and the gate kept its
module path when the facade went: ``benchmarks/e2e/trace.py`` times
admission by patching ``repro.async_.admission.AdmissionGate.__enter__``.
"""

from repro.async_.admission import AdmissionGate

__all__ = ["AdmissionGate"]
