"""Synthetic workloads.

The biology scenarios reproduce the paper's evaluation; this package
generates *abstract* workloads for stress-testing and scaling studies:

* :mod:`~repro.workloads.synthetic` — ready-made layered workflow DAGs
  (query graphs of configurable depth, width and fan-out), bypassing
  the integration layer entirely;
* :mod:`~repro.workloads.mediated` — layered multi-source schemas
  behind a mediator, exercising the full execution pipeline (storage
  lookups, binding plans, graph builders) at any scale;
* :mod:`~repro.workloads.concurrent` — a deterministic
  concurrent-client driver (one thread per client) for serving-style
  load with overlapping identical requests.
"""

from repro.workloads.synthetic import WorkloadSpec, layered_dag
from repro.workloads.mediated import MediatedWorkload, mediated_layers
from repro.workloads.concurrent import (
    ConcurrentRunReport,
    client_streams,
    run_threaded_clients,
)

__all__ = [
    "WorkloadSpec",
    "layered_dag",
    "MediatedWorkload",
    "mediated_layers",
    "ConcurrentRunReport",
    "client_streams",
    "run_threaded_clients",
]
