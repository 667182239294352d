"""Real-process execution backend: ranks as forked OS processes.

Layering (bottom up):

* :mod:`~repro.parallel.shm` — directed shared-memory ring channels with
  framing, drainer threads, typed timeout/closed errors, and a leak
  registry that lets the next run sweep segments orphaned by abnormal
  exits;
* :mod:`~repro.parallel.pool` — persistent forked worker pools executing
  the ``alltoallv`` and ``allreduce`` choreography, one command frame per
  worker carrying its input row, the diagonal kept on the conductor
  (cached per size, respawned when broken);
* :mod:`~repro.parallel.detector` — heartbeat-based failure detector
  classifying workers ok / slow / stalled / dead;
* :mod:`~repro.parallel.proccomm` — :class:`ProcComm`, the drop-in
  replacement for :class:`~repro.mpisim.comm.SimComm`: the same two
  collectives from :class:`~repro.mpisim.envelope.CommBase` (validation,
  accounting, CRC/retry fault envelope) over the pool's exchange.

Select with ``REPRO_BACKEND=proc`` or
:func:`repro.mpisim.backend.make_comm`; see docs/PARALLELISM.md.
"""

from .detector import TAG_HB, FailureDetector, WorkerStatus, heartbeat_interval
from .pool import WorkerDied, WorkerPool, get_pool, shutdown_pools
from .proccomm import ProcComm
from .shm import (
    ChannelClosed,
    Endpoint,
    ShmTransport,
    TransportError,
    TransportTimeout,
    leaked_segments,
    pack_arrays,
    sweep_leaked_segments,
    unpack_arrays,
)

__all__ = [
    "ProcComm",
    "WorkerPool",
    "WorkerDied",
    "get_pool",
    "shutdown_pools",
    "ShmTransport",
    "Endpoint",
    "TransportError",
    "TransportTimeout",
    "ChannelClosed",
    "pack_arrays",
    "unpack_arrays",
    "FailureDetector",
    "WorkerStatus",
    "TAG_HB",
    "heartbeat_interval",
    "leaked_segments",
    "sweep_leaked_segments",
]
