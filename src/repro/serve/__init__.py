"""The ``repro serve`` daemon: long-lived, crash-isolated query answering.

A scan answers one batch of queries and exits; the daemon stays up,
accepts executions over HTTP, and answers MHB/CHB/CCW/race queries
against them -- engineered so that *nothing a client or a worker does
can take it down or make it lie*:

* :mod:`repro.serve.store` -- the persistent on-disk witness store,
  keyed by execution fingerprint, atomic writes, corruption quarantined
  and rebuilt from source traces;
* :mod:`repro.serve.admission` -- the bounded admission queue: beyond
  capacity clients get a structured 429 with ``Retry-After``, never an
  unbounded queue;
* :mod:`repro.serve.app` -- the daemon's route table on the one HTTP
  server (:class:`~repro.obs.server.HttpServer`) and its lifecycle
  (readiness vs liveness, clean drain on SIGTERM/SIGINT), on top of the
  crash-isolated :class:`~repro.supervise.pool.QueryWorkerPool`.
"""

from repro.serve.admission import AdmissionQueue, Draining, Overloaded
from repro.serve.app import QueryDaemon
from repro.serve.store import WitnessStore

__all__ = [
    "AdmissionQueue",
    "Draining",
    "Overloaded",
    "QueryDaemon",
    "WitnessStore",
]
