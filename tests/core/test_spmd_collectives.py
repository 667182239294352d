"""The fused-collective SPMD drivers against verbatim copies of the
gather-based ones they replaced.

``lacc_spmd`` and ``lacc_2d`` now request each index set once and answer
it with fused replies, and the shortcut reuses the last starcheck's
grandparents.  None of that may change what they compute: on every
differential corpus graph, fault-free and under the transient ``flaky``
and ``stragglers`` presets, the parents must be byte-identical to the
old drivers' and the iteration counts equal.  ``lacc_spmd`` must also
make exactly 16 ``alltoallv`` calls per iteration plus one per run.

The oracles below (``_Dist``, ``lacc_spmd``, ``lacc_2d``) are the
previous implementations, copied verbatim; the new drivers are imported
as ``new_spmd`` and ``new_2d``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.combblas.distmatrix import DistMatrix
from repro.combblas.spmv import dist_mxv
from repro.core.lacc_2d import Grid2DResult
from repro.core.lacc_2d import lacc_2d as new_2d
from repro.core.lacc_spmd import SPMDResult
from repro.core.lacc_spmd import lacc_spmd as new_spmd
from repro.core.snapshot import IterationHook, IterationSnapshot, validate_initial_parents
from repro.faults import preset
from repro.graphblas import Vector
from repro.graphblas import kernels as _kernels
from repro.graphblas import semirings as sr
from repro.graphblas.monoid import MIN_INT64
from repro.graphblas.sorting import count_distinct, unique_sorted
from repro.graphs.generators import EdgeList
from repro.mpisim import backend
from repro.mpisim.backend import make_comm
from repro.mpisim.comm import SimComm
from repro.mpisim.grid import ProcessGrid
from repro.obs import Tracer, activate
from repro.obs.tracer import flight_recorder as _freg
from repro.obs.tracer import current as _obs

from ..differential.corpus import FAMILIES, SEEDS, make_graph


# ----------------------------------------------------------------------
# oracles: the gather-based drivers, verbatim
# ----------------------------------------------------------------------
class _Dist:
    """Block-distributed int64 vector with request/reply gather.

    :attr:`words` counts the payload words that crossed a rank boundary:
    a rank's requests to itself are routed through the collectives like
    any other but never leave the rank, so they are not counted.
    """

    def __init__(self, comm: SimComm, n: int, init: np.ndarray):
        self.comm = comm
        self.n = n
        self.p = comm.size
        self.block = max(-(-n // self.p), 1)
        self.blocks: List[np.ndarray] = [
            init[self.lo(r) : self.hi(r)].copy() for r in range(self.p)
        ]
        self.words = 0

    def lo(self, r: int) -> int:
        return min(r * self.block, self.n)

    def hi(self, r: int) -> int:
        return min((r + 1) * self.block, self.n)

    def owner(self, idx: np.ndarray) -> np.ndarray:
        return np.minimum(idx // self.block, self.p - 1)

    def gather(self, requests: List[np.ndarray]) -> List[np.ndarray]:
        """``requests[r]`` = global indices rank *r* wants; returns the
        values, positionally aligned, via a two-phase alltoallv."""
        p = self.p
        send_idx = [[None] * p for _ in range(p)]
        send_back = [[None] * p for _ in range(p)]
        for r in range(p):
            req = np.asarray(requests[r], dtype=np.int64)
            owners = self.owner(req) if req.size else req
            for o in range(p):
                sel = np.flatnonzero(owners == o)
                send_idx[r][o] = req[sel]
                send_back[r][o] = sel
        recv_idx = self.comm.alltoallv(send_idx)  # recv_idx[o][r]
        # owners answer with values
        send_val = [[None] * p for _ in range(p)]
        for o in range(p):
            base = self.lo(o)
            for r in range(p):
                idx = recv_idx[o][r]
                send_val[o][r] = self.blocks[o][idx - base] if idx.size else idx
                if o != r:
                    self.words += int(idx.size) * 2  # request + reply payloads
        recv_val = self.comm.alltoallv(send_val)  # recv_val[r][o]
        out = []
        for r in range(p):
            req = np.asarray(requests[r], dtype=np.int64)
            vals = np.empty(req.size, dtype=np.int64)
            for o in range(p):
                sel = send_back[r][o]
                if len(sel):
                    vals[sel] = recv_val[r][o]
            out.append(vals)
        return out

    def _route(self, targets: List[np.ndarray], values: List[np.ndarray]):
        """Send each rank's (index, value) pairs to the indices' owners;
        returns ``(recv_t, recv_v)`` with ``recv_t[o][r]`` the indices
        rank *o* received from rank *r*."""
        p = self.p
        send_t = [[None] * p for _ in range(p)]
        send_v = [[None] * p for _ in range(p)]
        for r in range(p):
            t = np.asarray(targets[r], dtype=np.int64)
            v = np.asarray(values[r], dtype=np.int64)
            owners = self.owner(t) if t.size else t
            for o in range(p):
                sel = owners == o
                send_t[r][o] = t[sel]
                send_v[r][o] = v[sel]
                if o != r:
                    self.words += int(send_t[r][o].size) * 2
        return self.comm.alltoallv(send_t), self.comm.alltoallv(send_v)

    def scatter_min(self, targets: List[np.ndarray], values: List[np.ndarray]) -> int:
        """Route (index, value) pairs to owners; owners apply
        ``block[i] = min(block[i], v)``.  Returns #elements changed."""
        recv_t, recv_v = self._route(targets, values)
        p = self.p
        changed = 0
        for o in range(p):
            base = self.lo(o)
            for r in range(p):
                t, v = recv_t[o][r], recv_v[o][r]
                if t.size:
                    local = t - base
                    before = self.blocks[o][local]
                    np.minimum.at(self.blocks[o], local, v)
                    changed += int(np.count_nonzero(self.blocks[o][local] != before))
        return changed

    def scatter_store(self, targets: List[np.ndarray], values: List[np.ndarray]) -> None:
        """Route (index, value) pairs to owners; owners overwrite."""
        recv_t, recv_v = self._route(targets, values)
        p = self.p
        for o in range(p):
            base = self.lo(o)
            for r in range(p):
                if recv_t[o][r].size:
                    self.blocks[o][recv_t[o][r] - base] = recv_v[o][r]

    def to_array(self) -> np.ndarray:
        return np.concatenate(self.blocks) if self.blocks else np.empty(0, np.int64)


def lacc_spmd(
    g: EdgeList,
    ranks: int = 4,
    max_iterations: int = 10_000,
    faults=None,
    cost=None,
    initial_parents: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> SPMDResult:
    """Run LACC with literal per-rank data and SimComm message passing.

    Parameters
    ----------
    g:
        The undirected input graph (self-loops ignored).
    ranks:
        Number of simulated SPMD ranks (any positive count — this 1D
        layout has no square-grid restriction).
    faults:
        Optional :class:`repro.faults.FaultPlan`.  Transient faults are
        healed by the :class:`SimComm` retry-with-validation envelope, so
        the labels stay exact; a permanent fault raises
        :class:`repro.faults.CollectiveError` — never a wrong answer.
    cost:
        Optional :class:`repro.mpisim.CostModel` that prices fault
        recovery (stragglers, retransmissions, backoff) in honest α–β
        simulated seconds; without one the lost time is summed into
        :attr:`SPMDResult.fault_seconds`.
    initial_parents / start_iteration / on_iteration:
        Checkpoint-resume hooks (:mod:`repro.core.snapshot`): seed the
        block-distributed parent vector from a snapshot and report an
        :class:`~repro.core.snapshot.IterationSnapshot` per iteration.
        Each iteration runs inside an ``iteration`` span, so a
        :class:`~repro.faults.CollectiveError` raised mid-iteration
        carries the iteration number for the supervisor's recovery log.
    """
    if ranks < 1:
        raise ValueError("need at least one rank")
    n = g.n
    comm = make_comm(ranks, faults=faults, cost=cost)
    keep = g.u != g.v
    eu = np.r_[g.u[keep], g.v[keep]]  # both directions: (u, v) means u
    ev = np.r_[g.v[keep], g.u[keep]]  # proposes hooks using v's parent
    # 1D cyclic edge partition (balances skewed inputs)
    part = np.arange(eu.size) % ranks
    ledges: List[Tuple[np.ndarray, np.ndarray]] = [
        (eu[part == r], ev[part == r]) for r in range(ranks)
    ]
    # Endpoint lookup, computed once per run: the edge list never changes,
    # so each rank's sorted endpoint set (its gather request) and every
    # local edge's position in it are fixed.
    req = [unique_sorted(np.r_[u, v]) for u, v in ledges]
    iu = [np.searchsorted(req[r], ledges[r][0]) for r in range(ranks)]
    iv = [np.searchsorted(req[r], ledges[r][1]) for r in range(ranks)]

    if initial_parents is not None:
        f0 = validate_initial_parents(initial_parents, n)
    else:
        f0 = np.arange(n, dtype=np.int64)
    f = _Dist(comm, n, f0)
    star = _Dist(comm, n, np.ones(n, dtype=np.int64))

    def starcheck() -> None:
        """Algorithm 6 with message passing."""
        for r in range(ranks):
            star.blocks[r][:] = 1
        # gf via request of parents-of-parents
        parents = [f.blocks[r] for r in range(ranks)]
        gf = f.gather(parents)
        # vertices with f != gf: mark self + grandparent nonstar
        bad_self: List[np.ndarray] = []
        bad_gp: List[np.ndarray] = []
        for r in range(ranks):
            base = f.lo(r)
            neq = np.flatnonzero(parents[r] != gf[r])
            bad_self.append(neq + base)
            bad_gp.append(gf[r][neq])
        zeros = [np.zeros(b.size, dtype=np.int64) for b in bad_self]
        star.scatter_store(bad_self, zeros)
        zeros = [np.zeros(b.size, dtype=np.int64) for b in bad_gp]
        star.scatter_store(bad_gp, zeros)
        # star[v] &= star[f[v]]
        pstar = star.gather(parents)
        for r in range(ranks):
            star.blocks[r] &= pstar[r]

    def hook(conditional: bool) -> int:
        """One hooking phase; returns #roots whose parent changed.

        Each rank gathers ``f`` and ``star`` at its sorted endpoint set
        ``req`` and reads its edges' endpoints off the reply through
        ``iu``/``iv``.  That endpoint lookup is computed once per run,
        not on every hook call.
        """
        fvals = f.gather(req)
        svals = star.gather(req)
        targets, values = [], []
        for r in range(ranks):
            fu, fv = fvals[r][iu[r]], fvals[r][iv[r]]
            if conditional:
                fire = (svals[r][iu[r]] == 1) & (fv < fu)
            else:
                # star u hooks onto a nonstar neighbour's parent
                fire = (svals[r][iu[r]] == 1) & (svals[r][iv[r]] == 0) & (fv != fu)
            # proposal: f[f[u]] <- f[v], pre-combined locally per root
            roots, proposal, _ = _kernels.impl().reduce_by_rows(
                fv[fire], fu[fire], MIN_INT64, n
            )
            targets.append(roots)
            values.append(proposal)
        return f.scatter_min(targets, values)

    def shortcut() -> int:
        parents = [f.blocks[r] for r in range(ranks)]
        gf = f.gather(parents)
        changed = 0
        for r in range(ranks):
            changed += int(np.count_nonzero(gf[r] != parents[r]))
            f.blocks[r][:] = gf[r]
        return changed

    def snapshot(iteration: int) -> IterationSnapshot:
        plan = faults
        return IterationSnapshot(
            iteration=iteration,
            parents=f.to_array(),
            star=star.to_array() == 1,
            active=None,
            simulated_seconds=(
                cost.total_seconds if cost is not None else comm.fault_seconds
            ),
            plan_cursor=0 if plan is None else plan.cursor,
        )

    fr = _freg()
    if fr:
        fr.record(
            "run_start", driver="spmd", n=n, ranks=ranks,
            preset=faults.name if faults is not None else None,
            seed=faults.seed if faults is not None else None,
        )
    iterations = start_iteration
    if n and eu.size:
        for k in range(1, max_iterations + 1):
            iterations = start_iteration + k
            if fr:
                fr.set_coords(iteration=iterations)
            # step spans (cat "step") name the algorithm phase each
            # collective serves; the proc backend stamps the enclosing
            # step into worker-side spans/flight events for measured
            # per-step attribution
            with _obs().span("iteration", "iteration", iteration=iterations):
                with _obs().span("starcheck", "step"):
                    starcheck()
                with _obs().span("cond_hook", "step"):
                    hooks = hook(conditional=True)
                with _obs().span("starcheck", "step"):
                    starcheck()
                with _obs().span("uncond_hook", "step"):
                    hooks += hook(conditional=False)
                with _obs().span("starcheck", "step"):
                    starcheck()
                with _obs().span("shortcut", "step"):
                    changed = shortcut()
                with _obs().span("convergence", "step"):
                    # allreduce the termination predicate
                    nonstars = comm.allreduce(
                        [
                            np.array([int((star.blocks[r] == 0).sum())])
                            for r in range(ranks)
                        ],
                        np.add,
                    )[0][0]
            if fr:
                fr.record("iteration", iteration=iterations, hooks=hooks,
                          shortcut_changed=changed, nonstars=int(nonstars))
            if hooks == 0 and changed == 0 and nonstars == 0:
                break
            if on_iteration is not None:
                on_iteration(snapshot(iterations))
        else:
            raise RuntimeError("SPMD LACC failed to converge (bug)")

    parents = f.to_array()
    n_components = count_distinct(parents)
    if fr:
        fr.record(
            "run_end", n_iterations=iterations, n_components=n_components
        )
    return SPMDResult(
        parents=parents,
        n_components=n_components,
        n_iterations=iterations,
        ranks=ranks,
        words_sent=f.words + star.words,
        fault_seconds=comm.fault_seconds,
    )


def lacc_2d(
    g: EdgeList,
    nprocs: int = 4,
    max_iterations: int = 10_000,
    faults=None,
    cost=None,
    initial_parents: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> Grid2DResult:
    """Run LACC with the 2D-distributed matrix and literal communication.

    *nprocs* must be a perfect square (the CombBLAS grid restriction the
    paper inherits, §VI-A).  An optional :class:`repro.faults.FaultPlan`
    runs every collective through the :class:`SimComm` retry envelope
    (transient faults recover; permanent ones raise
    :class:`repro.faults.CollectiveError`); an optional
    :class:`repro.mpisim.CostModel` (``cost``) prices recovery time.
    ``initial_parents`` / ``start_iteration`` / ``on_iteration`` are the
    checkpoint-resume hooks of :mod:`repro.core.snapshot`; each iteration
    runs inside an ``iteration`` span so raised
    :class:`~repro.faults.CollectiveError`\\ s carry the iteration number.
    """
    n = g.n
    grid = ProcessGrid(nprocs, n)  # validates squareness
    comm = make_comm(nprocs, faults=faults, cost=cost)
    A = g.to_matrix()
    dmat = DistMatrix(A, grid, permute=False)

    if initial_parents is not None:
        f0 = validate_initial_parents(initial_parents, n)
    else:
        f0 = np.arange(n, dtype=np.int64)
    f = _Dist(comm, n, f0)
    star = _Dist(comm, n, np.ones(n, dtype=np.int64))

    def starcheck() -> None:
        for r in range(nprocs):
            star.blocks[r][:] = 1
        parents = [f.blocks[r] for r in range(nprocs)]
        gf = f.gather(parents)
        bad_self, bad_gp = [], []
        for r in range(nprocs):
            base = f.lo(r)
            neq = np.flatnonzero(parents[r] != gf[r])
            bad_self.append(neq + base)
            bad_gp.append(gf[r][neq])
        star.scatter_store(bad_self, [np.zeros(b.size, np.int64) for b in bad_self])
        star.scatter_store(bad_gp, [np.zeros(b.size, np.int64) for b in bad_gp])
        pstar = star.gather(parents)
        for r in range(nprocs):
            star.blocks[r] &= pstar[r]

    def global_vector(restrict_to_nonstars: bool) -> Vector:
        """Assemble the mxv input from per-rank blocks (each rank
        contributes only its own entries, like the SpMV gather's senders)."""
        idx_parts, val_parts = [], []
        for r in range(nprocs):
            base = f.lo(r)
            if restrict_to_nonstars:
                local = np.flatnonzero(star.blocks[r] == 0)
            else:
                local = np.arange(f.blocks[r].size)
            idx_parts.append(local + base)
            val_parts.append(f.blocks[r][local])
        idx = np.concatenate(idx_parts) if idx_parts else np.empty(0, np.int64)
        vals = np.concatenate(val_parts) if val_parts else np.empty(0, np.int64)
        return Vector.sparse(n, idx, vals)

    def hook(conditional: bool) -> int:
        x = global_vector(restrict_to_nonstars=not conditional)
        if x.nvals == 0:
            return 0
        # the paper's mxv over (Select2nd, min), executed on the 2D grid
        fn = dist_mxv(dmat, x, sr.SEL2ND_MIN_INT64)
        fn_vals, fn_present = fn.dense_arrays()
        targets, values = [], []
        for r in range(nprocs):
            base = f.lo(r)
            size = f.blocks[r].size
            pres = fn_present[base : base + size]
            prop = fn_vals[base : base + size]
            is_star = star.blocks[r] == 1
            if conditional:
                fire = pres & is_star & (prop < f.blocks[r])
            else:
                fire = pres & is_star & (prop != f.blocks[r])
            # pre-combine locally: the smallest proposal per root
            roots, proposal, _ = _kernels.impl().reduce_by_rows(
                prop[fire], f.blocks[r][fire], MIN_INT64, n
            )
            targets.append(roots)
            values.append(proposal)
        return f.scatter_min(targets, values)

    def shortcut() -> int:
        parents = [f.blocks[r] for r in range(nprocs)]
        gf = f.gather(parents)
        changed = 0
        for r in range(nprocs):
            changed += int(np.count_nonzero(gf[r] != parents[r]))
            f.blocks[r][:] = gf[r]
        return changed

    def snapshot(iteration: int) -> IterationSnapshot:
        return IterationSnapshot(
            iteration=iteration,
            parents=f.to_array(),
            star=star.to_array() == 1,
            active=None,
            simulated_seconds=(
                cost.total_seconds if cost is not None else comm.fault_seconds
            ),
            plan_cursor=0 if faults is None else faults.cursor,
        )

    fr = _freg()
    if fr:
        fr.record(
            "run_start", driver="2d", n=n, nnz=A.nvals,
            ranks=nprocs, grid_side=grid.side,
            preset=faults.name if faults is not None else None,
            seed=faults.seed if faults is not None else None,
            partition_lambda=dmat.load_imbalance(),
        )
    iterations = start_iteration
    if n and A.nvals:
        for k in range(1, max_iterations + 1):
            iterations = start_iteration + k
            if fr:
                fr.set_coords(iteration=iterations)
            with _obs().span("iteration", "iteration", iteration=iterations):
                starcheck()
                hooks = hook(conditional=True)
                starcheck()
                hooks += hook(conditional=False)
                starcheck()
                changed = shortcut()
                nonstars = comm.allreduce(
                    [
                        np.array([int((star.blocks[r] == 0).sum())])
                        for r in range(nprocs)
                    ],
                    np.add,
                )[0][0]
            if fr:
                fr.record("iteration", iteration=iterations, hooks=hooks,
                          shortcut_changed=changed, nonstars=int(nonstars))
            if hooks == 0 and changed == 0 and nonstars == 0:
                break
            if on_iteration is not None:
                on_iteration(snapshot(iterations))
        else:
            raise RuntimeError("2D LACC failed to converge (bug)")

    parents = f.to_array()
    n_components = count_distinct(parents)
    if fr:
        fr.record(
            "run_end", n_iterations=iterations, n_components=n_components
        )
    return Grid2DResult(
        parents=parents,
        n_components=n_components,
        n_iterations=iterations,
        nprocs=nprocs,
        grid_side=grid.side,
        words_sent=f.words + star.words,
        fault_seconds=comm.fault_seconds,
    )


# ----------------------------------------------------------------------
# the new drivers against the oracles
# ----------------------------------------------------------------------
CORPUS = [(fam, seed) for fam in FAMILIES for seed in SEEDS]
CORPUS_IDS = [f"{f}-s{s}" for f, s in CORPUS]
PRESETS = [None, "flaky", "stragglers"]


def _plan(name):
    return None if name is None else preset(name, seed=7)


def _assert_same(new, old, plan):
    assert new.parents.dtype == old.parents.dtype
    assert new.parents.tobytes() == old.parents.tobytes()
    assert new.n_iterations == old.n_iterations
    assert plan is None or plan.n_injected > 0  # the faults really fired


@pytest.mark.parametrize("faults", PRESETS, ids=lambda p: p or "clean")
@pytest.mark.parametrize("ranks", [1, 2, 3, 4])
@pytest.mark.parametrize("family,seed", CORPUS, ids=CORPUS_IDS)
def test_spmd_matches_gather_oracle(family, seed, ranks, faults):
    g = make_graph(family, seed)
    tr = Tracer()
    plan = _plan(faults)
    with backend.use("sim"):
        with activate(tr):
            new = new_spmd(g, ranks=ranks, faults=plan)
        old = lacc_spmd(g, ranks=ranks, faults=_plan(faults))
    _assert_same(new, old, plan)
    calls = len(tr.find("alltoallv", "simcomm"))
    assert calls == 16 * new.n_iterations + 1
    assert new.words_sent <= old.words_sent


@pytest.mark.parametrize("faults", PRESETS, ids=lambda p: p or "clean")
@pytest.mark.parametrize("family,seed", CORPUS, ids=CORPUS_IDS)
def test_2d_matches_gather_oracle(family, seed, faults):
    g = make_graph(family, seed)
    plan = _plan(faults)
    with backend.use("sim"):
        new = new_2d(g, nprocs=4, faults=plan)
        old = lacc_2d(g, nprocs=4, faults=_plan(faults))
    _assert_same(new, old, plan)
    assert new.words_sent <= old.words_sent
