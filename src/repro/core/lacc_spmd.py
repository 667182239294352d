"""SPMD LACC: a *literal* distributed execution over SimComm.

The scaling sweeps in :mod:`repro.core.lacc_dist` price LACC analytically;
this module complements them with an execution that is **actually
distributed**: the parent and star vectors live as per-rank blocks, the
edge list is 1D-partitioned, and every step communicates exclusively
through :class:`repro.mpisim.SimComm` collectives — no rank ever touches
another rank's block directly.  Per iteration:

1. **endpoint resolution** — each rank's sorted endpoint set never
   changes, so it is requested from its owners once per run (one
   alltoallv, at the first hook); every hook then takes one fused reply
   that carries both ``f`` and ``star`` for those endpoints, the SPMD
   analogue of the SpMV gather stage;
2. **conditional hooking** — local proposal generation
   (``star[u] ∧ f[v] < f[u]``), min-combined locally, routed to the root
   owners as one (target, value) array per destination in a single
   alltoallv, min-applied there;
3. **unconditional hooking** — same shape with the Lemma-2 condition
   (star hooks onto a *nonstar* neighbour's parent);
4. **shortcut** — ``f ← gf`` from the grandparents the preceding
   starcheck gathered (owner of ``f[v]`` answers with its parent, the
   exact traffic Figure 3 histograms); ``f`` has not changed since, so
   the shortcut itself sends nothing;
5. **starcheck** — Algorithm 6 in four alltoallvs: request the parents,
   reply with ``f`` (the grandparents), mark ``f ≠ gf`` vertices nonstar
   locally (each rank owns them), clear their grandparents with a
   targets-only route, then reply with ``star`` on the same request;
6. **convergence** — an allreduce of the nonstar count; the run ends
   when no root hooked, the shortcut changed nothing and every vertex
   sits in a star.

That is 16 alltoallvs per iteration plus one per run.  The iteration is
one loop, :func:`_run`, with the hooks supplied by the driver;
:func:`repro.core.lacc_2d.lacc_2d` runs it too, with its own setup and
hooks.  The test suite
checks this execution against serial LACC and ground truth on every grid
size, and checks that :attr:`SPMDResult.words_sent` equals the words its
``alltoallv`` spans report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from repro.graphblas import kernels as _kernels
from repro.graphblas.monoid import MIN_INT64
from repro.graphblas.sorting import count_distinct
from repro.graphs.generators import EdgeList
from repro.mpisim.backend import make_comm
from repro.mpisim.comm import SimComm
from repro.obs.tracer import flight_recorder as _freg
from repro.obs.tracer import current as _obs

from .snapshot import IterationHook, IterationSnapshot, validate_initial_parents

__all__ = ["lacc_spmd", "SPMDResult"]


@dataclass
class SPMDResult:
    """Output of a block-distributed LACC run (:func:`lacc_spmd` or
    :func:`repro.core.lacc_2d.lacc_2d`)."""

    parents: np.ndarray
    n_components: int
    n_iterations: int
    ranks: int
    words_sent: int  # vector payload words that crossed rank boundaries
    #: simulated seconds lost to injected faults (backoff/stragglers)
    #: when no cost model was attached to price them properly
    fault_seconds: float = 0.0

    @property
    def labels(self) -> np.ndarray:
        from repro.graphs.validate import canonical_labels

        return canonical_labels(self.parents)


#: a distributed vector: one block per rank
Blocks = List[np.ndarray]


class _Plan(NamedTuple):
    """A request :meth:`_Dist.request` delivered, kept for its replies."""

    sizes: List[int]  # sizes[r]: how many indices rank r asked for
    back: List[Blocks]  # back[r][o]: positions in r's request that o owns
    local: List[Blocks]  # local[o][r]: block offsets o answers r with


class _Dist:
    """Block distribution of length-*n* int64 vectors over *comm*'s ranks.

    A distributed vector is a list of per-rank blocks; block *r* holds
    global indices ``lo(r):hi(r)``.  Every cross-rank access is one
    ``alltoallv``: :meth:`request` ships indices to their owners and
    :meth:`reply` answers them, :meth:`scatter_min` and :meth:`clear`
    route updates to the owners.

    :attr:`words` counts the payload words that crossed a rank boundary,
    as the communicator's ``alltoallv`` spans count them: a rank's
    messages to itself never leave the rank.
    """

    def __init__(self, comm: SimComm, n: int):
        self.comm = comm
        self.n = n
        self.p = comm.size
        self.block = max(-(-n // self.p), 1)
        self.words = 0

    def lo(self, r: int) -> int:
        return min(r * self.block, self.n)

    def hi(self, r: int) -> int:
        return min((r + 1) * self.block, self.n)

    def distribute(self, init: np.ndarray) -> Blocks:
        """Per-rank block copies of the global vector *init*."""
        return [init[self.lo(r) : self.hi(r)].copy() for r in range(self.p)]

    def _alltoallv(self, send: List[Blocks]) -> List[Blocks]:
        p = self.p
        self.words += sum(send[r][o].size for r in range(p) for o in range(p) if o != r)
        return self.comm.alltoallv(send)

    def _by_owner(self, idx: np.ndarray) -> Blocks:
        """Positions of *idx*'s entries, one array per owner rank."""
        owners = np.minimum(idx // self.block, self.p - 1)
        return [np.flatnonzero(owners == o) for o in range(self.p)]

    def request(self, requests: Blocks) -> _Plan:
        """``requests[r]`` = global indices rank *r* wants.  One alltoallv
        ships them to their owners, who keep what they received: the
        returned plan, which every later :meth:`reply` answers."""
        reqs = [np.asarray(q, dtype=np.int64) for q in requests]
        back = [self._by_owner(q) for q in reqs]
        recv = self._alltoallv([[q[s] for s in sel] for q, sel in zip(reqs, back)])
        local = [[idx - self.lo(o) for idx in recv[o]] for o in range(self.p)]
        return _Plan([q.size for q in reqs], back, local)

    def reply(self, plan: _Plan, *vectors: Blocks) -> List[Blocks]:
        """Owners answer *plan* with every vector's values in one
        alltoallv.  Returns, per vector, each rank's values positionally
        aligned with its request."""
        p, k = self.p, len(vectors)
        send = [
            [np.concatenate([v[o][idx] for v in vectors]) for idx in plan.local[o]]
            for o in range(p)
        ]
        recv = self._alltoallv(send)  # recv[r][o]
        out = [[np.empty(size, dtype=np.int64) for size in plan.sizes] for _ in vectors]
        for r in range(p):
            for o, sel in enumerate(plan.back[r]):
                vals = recv[r][o].reshape(k, sel.size)
                for j in range(k):
                    out[j][r][sel] = vals[j]
        return out

    def _route(self, targets: Blocks, values: Optional[Blocks] = None):
        """Ship each rank's targets, with their values in the same array,
        to the targets' owners in one alltoallv.  Returns one
        ``(owner, block offsets, values or None)`` per nonempty message."""
        send = []
        for r in range(self.p):
            t = np.asarray(targets[r], dtype=np.int64)
            sel = self._by_owner(t)
            if values is None:
                send.append([t[s] for s in sel])
            else:
                v = np.asarray(values[r], dtype=np.int64)
                send.append([np.concatenate([t[s], v[s]]) for s in sel])
        out = []
        for o, row in enumerate(self._alltoallv(send)):
            for msg in row:
                if not msg.size:
                    continue
                t, v = (msg, None) if values is None else np.split(msg, 2)
                out.append((o, t - self.lo(o), v))
        return out

    def scatter_min(self, vec: Blocks, targets: Blocks, values: Blocks) -> int:
        """Route (index, value) pairs to owners; owners apply
        ``vec[i] = min(vec[i], v)``.  Returns #elements changed."""
        changed = 0
        for o, local, v in self._route(targets, values):
            before = vec[o][local]
            np.minimum.at(vec[o], local, v)
            changed += int(np.count_nonzero(vec[o][local] != before))
        return changed

    def clear(self, vec: Blocks, targets: Blocks) -> None:
        """Route indices to owners; owners set ``vec[i] = 0``."""
        for o, local, _ in self._route(targets):
            vec[o][local] = 0


def _starcheck(dist: _Dist, f: Blocks, star: Blocks) -> Blocks:
    """Algorithm 6 with message passing, in four alltoallvs.

    Returns the grandparents ``gf``, per rank: while ``f`` is unchanged,
    :func:`_shortcut` reuses them instead of gathering again.
    """
    plan = dist.request(f)
    (gf,) = dist.reply(plan, f)
    # f != gf: the vertex (owned here) and its grandparent are nonstar
    bad_gp = []
    for r in range(dist.p):
        neq = f[r] != gf[r]
        star[r][:] = 1
        star[r][neq] = 0
        bad_gp.append(gf[r][neq])
    dist.clear(star, bad_gp)
    # star[v] &= star[f[v]]
    (pstar,) = dist.reply(plan, star)
    for r in range(dist.p):
        star[r] &= pstar[r]
    return gf


def _shortcut(f: Blocks, gf: Blocks) -> int:
    """``f ← gf`` on every rank, from the grandparents of the starcheck
    run since ``f`` last changed; no communication.  Returns #changed."""
    changed = 0
    for r, g in enumerate(gf):
        changed += int(np.count_nonzero(g != f[r]))
        f[r][:] = g
    return changed


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
    ledges = [(eu[r::ranks], ev[r::ranks]) for r in range(ranks)]
    # Endpoint lookup, computed once per run: the edge list never changes,
    # so each rank's sorted endpoint set (its hook request) and every
    # local edge's position in it are fixed.  A mark over the vertices
    # gives the set, a dense position array the positions.
    mark = np.zeros(n, dtype=bool)
    pos = np.zeros(n, dtype=np.int64)
    req, iu, iv = [], [], []
    for u, v in ledges:
        mark[u] = mark[v] = True
        ends = np.flatnonzero(mark)
        mark[ends] = False
        pos[ends] = np.arange(ends.size)
        req.append(ends)
        iu.append(pos[u])
        iv.append(pos[v])

    if initial_parents is not None:
        f0 = validate_initial_parents(initial_parents, n)
    else:
        f0 = np.arange(n, dtype=np.int64)
    dist = _Dist(comm, n)
    f = dist.distribute(f0)
    star = dist.distribute(np.ones(n, dtype=np.int64))
    hook_plan: Optional[_Plan] = None

    def hook(conditional: bool) -> int:
        """One hooking phase; returns #roots whose parent changed.

        Each rank reads ``f`` and ``star`` at its endpoint set ``req``
        from one fused reply, and its edges' endpoints off that reply
        through ``iu``/``iv``.  The request itself goes out once per
        run, at the first hook.
        """
        nonlocal hook_plan
        if hook_plan is None:
            hook_plan = dist.request(req)
        fvals, svals = dist.reply(hook_plan, f, star)
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
        return dist.scatter_min(f, targets, values)

    return _run(
        dist, f, star, hook, bool(eu.size), max_iterations, start_iteration,
        on_iteration, driver="spmd", n=n, ranks=ranks,
    )


def _run(
    dist: _Dist,
    f: Blocks,
    star: Blocks,
    hook: Callable[[bool], int],
    has_edges: bool,
    max_iterations: int,
    start_iteration: int,
    on_iteration: Optional[IterationHook],
    **run_start,
) -> SPMDResult:
    """The block-distributed LACC loop of :func:`lacc_spmd` and
    :func:`repro.core.lacc_2d.lacc_2d`: the drivers differ only in their
    setup and in ``hook(conditional)``, which runs one hooking phase on
    the blocks *f* and *star* and returns the number of roots whose parent
    changed.  ``run_start`` holds the driver's own fields of the flight
    record's ``run_start`` event."""
    comm, faults = dist.comm, dist.comm.faults
    fr = _freg()
    if fr:
        fr.record(
            "run_start", **run_start,
            preset=faults.name if faults is not None else None,
            seed=faults.seed if faults is not None else None,
        )
    iterations = start_iteration
    if dist.n and has_edges:
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
                    _starcheck(dist, f, star)
                with _obs().span("cond_hook", "step"):
                    hooks = hook(True)
                with _obs().span("starcheck", "step"):
                    _starcheck(dist, f, star)
                with _obs().span("uncond_hook", "step"):
                    hooks += hook(False)
                with _obs().span("starcheck", "step"):
                    gf = _starcheck(dist, f, star)
                with _obs().span("shortcut", "step"):
                    changed = _shortcut(f, gf)
                with _obs().span("convergence", "step"):
                    # allreduce the termination predicate
                    nonstars = comm.allreduce(
                        [np.array([int((s == 0).sum())]) for s in star],
                        np.add,
                    )[0][0]
            if fr:
                fr.record("iteration", iteration=iterations, hooks=hooks,
                          shortcut_changed=changed, nonstars=int(nonstars))
            if hooks == 0 and changed == 0 and nonstars == 0:
                break
            if on_iteration is not None:
                on_iteration(IterationSnapshot(
                    iteration=iterations,
                    parents=np.concatenate(f),
                    star=np.concatenate(star) == 1,
                    active=None,
                    simulated_seconds=(
                        comm.fault_seconds if comm.cost is None
                        else comm.cost.total_seconds
                    ),
                    plan_cursor=0 if faults is None else faults.cursor,
                ))
        else:
            raise RuntimeError("distributed LACC failed to converge (bug)")

    parents = np.concatenate(f)
    n_components = count_distinct(parents)
    if fr:
        fr.record(
            "run_end", n_iterations=iterations, n_components=n_components
        )
    return SPMDResult(
        parents=parents,
        n_components=n_components,
        n_iterations=iterations,
        ranks=dist.p,
        words_sent=dist.words,
        fault_seconds=comm.fault_seconds,
    )
