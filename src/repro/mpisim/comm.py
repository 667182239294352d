"""SimComm — a functional simulated communicator that *actually moves
data* between per-rank NumPy buffers.

The cost-accounted scaling sweeps use the analytic formulas in
:mod:`repro.mpisim.collectives`; this module provides the semantic ground
truth those formulas price.  A :class:`SimComm` holds no processes — each
collective is a pure function from a list of per-rank send buffers to a
list of per-rank receive buffers, mirroring mpi4py's buffer interface
closely enough that the test suite can validate the distributed layer's
ownership arithmetic (who gets which words) against a literal execution.
(:class:`repro.parallel.ProcComm` is the second implementation of this
API, with ranks as real OS processes; :func:`repro.mpisim.backend.make_comm`
selects between them.)

Every collective also reports into the active :mod:`repro.obs` tracer
(category ``"simcomm"``): total words that crossed rank boundaries,
message count, and — for ``alltoallv`` — the full per-rank send/recv word
matrices, which is the per-rank imbalance diagnostic of Figure 3.

Fault injection
---------------
A :class:`~repro.faults.FaultPlan` passed at construction makes the
network imperfect: delivered buffers can be truncated, corrupted,
duplicated or zeroed, collectives can straggle or fail outright.  Every
delivery then runs through a **retry-with-validation envelope**
(:func:`repro.mpisim.envelope.fault_envelope`, shared with the
real-process backend and the analytic collectives): payloads are checksummed at the sender, validated at the
receiver, and damaged deliveries are retransmitted with exponential
backoff (priced in simulated time — through the attached
:class:`~repro.mpisim.costmodel.CostModel` when one is given).  Transient
faults therefore recover transparently; permanent faults exhaust the
bounded retries and raise a typed
:class:`~repro.faults.CollectiveError` instead of ever returning wrong
data.

Used by the distributed-LACC validation tests, the differential fault
harness and the ``examples/simulated_cluster.py`` walk-through.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.obs.tracer import current as _obs

from .envelope import CommBase

__all__ = ["SimComm"]


class SimComm(CommBase):
    """A world of *p* simulated ranks with contiguous ids ``0..p-1``.

    All collectives take ``bufs`` — one entry per rank, ordered by rank
    id — and return one result per rank, performing the same data
    movement their MPI counterparts would.  Constructor parameters
    (``size`` / ``faults`` / ``cost``) are documented on
    :class:`repro.mpisim.envelope.CommBase`.
    """

    # ------------------------------------------------------------------
    def bcast(self, bufs: List[Optional[np.ndarray]], root: int = 0) -> List[np.ndarray]:
        """Every rank receives a copy of the root's buffer."""
        self._check(bufs)
        self._check_root(root)
        with _obs().span("bcast", "simcomm", root=root, ranks=self.size) as sp:
            data = np.asarray(bufs[root])
            words = int(data.size) * (self.size - 1)
            messages = self.size - 1
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            out = [data.copy() for _ in range(self.size)]
            return self._deliver("bcast", out, list, sp, words, messages)

    def allgather(self, bufs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every rank receives the concatenation of all buffers."""
        self._check(bufs)
        with _obs().span("allgather", "simcomm", ranks=self.size) as sp:
            out = np.concatenate([np.asarray(b) for b in bufs])
            words = int(out.size) * (self.size - 1)
            messages = self.size * (self.size - 1)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            res = [out.copy() for _ in range(self.size)]
            return self._deliver("allgather", res, list, sp, words, messages)

    def gather(self, bufs: Sequence[np.ndarray], root: int = 0) -> List[Optional[np.ndarray]]:
        """Root receives the concatenation; others receive ``None``."""
        self._check(bufs)
        self._check_root(root)
        with _obs().span("gather", "simcomm", root=root, ranks=self.size) as sp:
            out: List[Optional[np.ndarray]] = [None] * self.size
            out[root] = np.concatenate([np.asarray(b) for b in bufs])
            own = int(np.asarray(bufs[root]).size)
            words = int(out[root].size) - own
            messages = self.size - 1
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            return self._deliver("gather", out, list, sp, words, messages)

    def scatter(self, chunks: Optional[Sequence], root: int = 0) -> List[np.ndarray]:
        """Root's *chunks* (one per destination rank) are distributed.

        Two accepted forms, mirroring MPI's "sendbuf significant only at
        root" rule:

        * **root form** — *chunks* is the root's list of ``p`` arrays
          (legacy call shape);
        * **per-rank form** — *chunks* has one entry per rank, ``None``
          on every rank except *root*, whose entry is its chunk list
          (symmetric with :meth:`bcast`'s ``bufs``).

        Destination ranks are the contiguous ids ``0..p-1`` in order:
        ``chunks[root][i]`` (per-rank form) or ``chunks[i]`` (root form)
        goes to rank *i*.  A chunk list whose length does not match the
        communicator size is rejected with an explicit error rather than
        silently mis-assigning buffers.
        """
        self._check_root(root)
        chunks = self._normalize_scatter_chunks(chunks, root)
        with _obs().span("scatter", "simcomm", root=root, ranks=self.size) as sp:
            out = [np.asarray(c).copy() for c in chunks]
            words = sum(int(c.size) for r, c in enumerate(out) if r != root)
            messages = self.size - 1
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            return self._deliver("scatter", out, list, sp, words, messages)

    def alltoallv(
        self, send: Sequence[Sequence[np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """``send[i][j]`` is what rank *i* sends to rank *j*; the result's
        ``recv[j][i]`` is what rank *j* received from rank *i*."""
        self._check_alltoallv_rows(send)
        with _obs().span("alltoallv", "simcomm", ranks=self.size) as sp:
            w = [
                [int(np.asarray(send[i][j]).size) for j in range(self.size)]
                for i in range(self.size)
            ]
            off_diag = [
                w[i][j] for i in range(self.size) for j in range(self.size) if i != j
            ]
            words = sum(off_diag)
            messages = sum(1 for x in off_diag if x > 0)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
                sp.set("send_words", w)  # send_words[i][j]; recv is transpose
                sp.set("rank_send_totals", [sum(row) for row in w])
                sp.set(
                    "rank_recv_totals",
                    [sum(w[i][j] for i in range(self.size)) for j in range(self.size)],
                )
            flat = [
                np.asarray(send[i][j]).copy()
                for j in range(self.size)
                for i in range(self.size)
            ]

            def rebuild(leaves):
                p = self.size
                return [list(leaves[j * p : (j + 1) * p]) for j in range(p)]

            return self._deliver("alltoallv", flat, rebuild, sp, words, messages)

    def reduce_scatter_block(
        self, bufs: Sequence[np.ndarray], op: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> List[np.ndarray]:
        """Element-wise reduce all equal-length buffers then split the
        result into *p* contiguous blocks, block *i* to rank *i*."""
        self._check(bufs)
        arrs = [np.asarray(b) for b in bufs]
        length = self._check_reduce_bufs(arrs, block=True)
        with _obs().span("reduce_scatter", "simcomm", ranks=self.size) as sp:
            total = arrs[0]
            for a in arrs[1:]:
                total = op(total, a)
            blk = length // self.size
            words = int(length) * (self.size - 1)
            messages = self.size * (self.size - 1)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            out = [total[r * blk : (r + 1) * blk].copy() for r in range(self.size)]
            return self._deliver("reduce_scatter", out, list, sp, words, messages)

    def allreduce(
        self, bufs: Sequence[np.ndarray], op: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> List[np.ndarray]:
        """Element-wise reduction visible on every rank."""
        self._check(bufs)
        with _obs().span("allreduce", "simcomm", ranks=self.size) as sp:
            total = np.asarray(bufs[0])
            for b in bufs[1:]:
                total = op(total, np.asarray(b))
            words = int(total.size) * 2 * (self.size - 1)
            messages = 2 * self.size * (self.size - 1)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            out = [total.copy() for _ in range(self.size)]
            return self._deliver("allreduce", out, list, sp, words, messages)
