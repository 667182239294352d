"""SPMD LACC: a *literal* distributed execution over SimComm.

The scaling sweeps in :mod:`repro.core.lacc_dist` price LACC analytically;
this module complements them with an execution that is **actually
distributed**: the parent and star vectors live as per-rank blocks, the
edge list is 1D-partitioned, and every step communicates exclusively
through :class:`repro.mpisim.SimComm` collectives — no rank ever touches
another rank's block directly.  Per iteration:

1. **endpoint resolution** — each rank holds one record per undirected
   edge, cyclic-partitioned, and requests its sorted endpoint set from
   the owners once per iteration (one alltoallv, at the conditional
   hook), over only the edges whose endpoints still differ in parent:
   an edge whose endpoints share a parent can never hook again, so the
   hooks drop it.  Each hook then takes a reply of one word per
   endpoint, ``f`` for a star and ``~f`` for a nonstar, the SPMD
   analogue of the SpMV gather stage;
2. **conditional hooking** — local proposal generation from each edge
   in both directions (``star[u] ∧ f[v] < f[u]``, and ``u``/``v``
   swapped), min-combined locally, routed to the root owners as one
   (target, value) array per destination in a single alltoallv; each
   owner combines what it received with min and assigns it,
   :func:`repro.core.hooking.assign_min` (the root's current parent
   takes no part in the min);
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

That is 17 alltoallvs per iteration.  The iteration is one loop,
:func:`_run`, with the hook proposals supplied by the driver;
:func:`repro.core.lacc_2d.lacc_2d` runs it too, with its own setup and
proposals.  Both return the serial driver's
:class:`~repro.core.lacc.LACCResult` and step record.  The test suite
checks that this execution returns serial LACC's parents, iteration count
and per-iteration hook and star counts on every rank count, and that
``words_sent`` equals the words its ``alltoallv`` spans report.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graphblas import kernels as _kernels
from repro.graphblas.monoid import MIN_INT64
from repro.graphblas.sorting import count_distinct
from repro.graphs.generators import EdgeList
from repro.mpisim.backend import make_comm
from repro.mpisim.comm import SimComm
from repro.obs.tracer import Tracer
from repro.obs.tracer import current as _obs
from repro.obs.tracer import flight_recorder as _freg

from .convergence import iteration_bound
from .hooking import assign_min
from .lacc import LACCResult, _close_iteration
from .snapshot import IterationHook, IterationSnapshot, validate_initial_parents
from .stats import IterationStats, LACCStats

__all__ = ["lacc_spmd"]


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
    :meth:`reply` answers them, :meth:`hook` and :meth:`clear` route
    updates to the owners.  :func:`repro.combblas.spmv.dist_mxv` takes a
    ``_Dist`` as its communicator, so its traffic is counted too.

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

    def alltoallv(self, send: List[Blocks]) -> List[Blocks]:
        """``comm.alltoallv``, counting the off-rank words."""
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
        recv = self.alltoallv([[q[s] for s in sel] for q, sel in zip(reqs, back)])
        local = [[idx - self.lo(o) for idx in recv[o]] for o in range(self.p)]
        return _Plan([q.size for q in reqs], back, local)

    def reply(self, plan: _Plan, vec: Blocks) -> Blocks:
        """Owners answer *plan* with *vec*'s values in one alltoallv.
        Returns each rank's values positionally aligned with its request."""
        recv = self.alltoallv(
            [[vec[o][idx] for idx in plan.local[o]] for o in range(self.p)]
        )  # recv[r][o]
        out = [np.empty(size, dtype=np.int64) for size in plan.sizes]
        for r in range(self.p):
            for o, sel in enumerate(plan.back[r]):
                out[r][sel] = recv[r][o]
        return out

    def _route(self, targets: Blocks, values: Optional[Blocks] = None):
        """Ship each rank's targets, with their values in the same array,
        to the targets' owners in one alltoallv.  Returns, per owner, the
        block offsets it received and their values (``None`` without)."""
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
        for o, row in enumerate(self.alltoallv(send)):
            if values is None:
                t, v = np.concatenate(row), None
            else:
                halves = [np.split(msg, 2) for msg in row]
                t = np.concatenate([h[0] for h in halves])
                v = np.concatenate([h[1] for h in halves])
            out.append((t - self.lo(o), v))
        return out

    def hook(self, f: Blocks, roots: Blocks, proposals: Blocks) -> int:
        """Write hook proposals onto their roots: ``proposals[r][k]`` is
        rank *r*'s offer to root ``roots[r][k]``.  Each rank min-combines
        its offers per root, one alltoallv routes them to the roots'
        owners, and each owner writes what it received with
        :func:`~repro.core.hooking.assign_min`.  Returns the number of
        roots written."""
        combined = [
            _kernels.impl().reduce_by_rows(v, t, MIN_INT64, self.n)
            for t, v in zip(roots, proposals)
        ]
        routed = self._route([c[0] for c in combined], [c[1] for c in combined])
        return sum(int(assign_min(f[o], t, v)[0].size) for o, (t, v) in enumerate(routed))

    def clear(self, vec: Blocks, targets: Blocks) -> None:
        """Route indices to owners; owners set ``vec[i] = 0``."""
        for o, (local, _) in enumerate(self._route(targets)):
            vec[o][local] = 0


def _starcheck(dist: _Dist, f: Blocks, star: Blocks) -> Blocks:
    """Algorithm 6 with message passing, in four alltoallvs.

    Returns the grandparents ``gf``, per rank: while ``f`` is unchanged,
    :func:`_shortcut` reuses them instead of gathering again.
    """
    plan = dist.request(f)
    gf = dist.reply(plan, f)
    # f != gf: the vertex (owned here) and its grandparent are nonstar
    bad_gp = []
    for r in range(dist.p):
        neq = f[r] != gf[r]
        star[r][:] = 1
        star[r][neq] = 0
        bad_gp.append(gf[r][neq])
    dist.clear(star, bad_gp)
    # star[v] &= star[f[v]]
    pstar = dist.reply(plan, star)
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


def _endpoints(
    ends: np.ndarray, iu: np.ndarray, iv: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the entries of *ends* some edge refers to: returns them and
    each edge's endpoint positions (*iu*, *iv* index *ends*) among them."""
    used = np.zeros(ends.size, dtype=bool)
    used[iu] = used[iv] = True
    pos = np.cumsum(used) - 1
    return ends[used], pos[iu], pos[iv]


def lacc_spmd(
    g: EdgeList,
    ranks: int = 4,
    max_iterations: Optional[int] = None,
    faults=None,
    cost=None,
    initial_parents: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> LACCResult:
    """Run LACC with literal per-rank data and SimComm message passing.

    Parameters
    ----------
    g:
        The undirected input graph (self-loops ignored).
    ranks:
        Number of simulated SPMD ranks (any positive count — this 1D
        layout has no square-grid restriction).
    max_iterations:
        Safety bound; defaults to serial LACC's
        :func:`~repro.core.convergence.iteration_bound`, and hitting it
        raises ``RuntimeError``.
    faults:
        Optional :class:`repro.faults.FaultPlan`.  Transient faults are
        healed by the :class:`SimComm` retry-with-validation envelope, so
        the labels stay exact; a permanent fault raises
        :class:`repro.faults.CollectiveError` — never a wrong answer.
    cost:
        Optional :class:`repro.mpisim.CostModel` that prices fault
        recovery (stragglers, retransmissions, backoff) in honest α–β
        simulated seconds, and the result carries it as ``cost``; without
        one the lost time is summed into ``fault_seconds``.
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
    eu, ev = g.u[keep], g.v[keep]  # one record per undirected edge
    has_edges = bool(eu.size)
    # 1D cyclic edge partition (balances skewed inputs).  Each rank's
    # hook request is its sorted endpoint set, and each local edge holds
    # its endpoints' positions in that set.
    req, iu, iv = map(list, zip(*(
        _endpoints(np.arange(n), eu[r::ranks], ev[r::ranks]) for r in range(ranks)
    )))
    del eu, ev  # free the edge copies: the run needs only the positions

    if initial_parents is not None:
        f0 = validate_initial_parents(initial_parents, n)
    else:
        f0 = np.arange(n, dtype=np.int64)
    dist = _Dist(comm, n)
    f = dist.distribute(f0)
    star = dist.distribute(np.ones(n, dtype=np.int64))
    hook_plan: Optional[_Plan] = None

    def hook(conditional: bool) -> Tuple[Blocks, Blocks]:
        """One hooking phase's per-rank ``(roots, proposals)``.

        Each rank reads its endpoint set ``req`` from a reply of one word
        per endpoint, ``f`` for a star and ``~f`` for a nonstar (exact,
        as ``f >= 0``), and each edge, one record hooked in both
        directions, reads its endpoints off it through ``iu``/``iv``.  An
        edge whose endpoints share a parent is dropped for good: trees
        only merge, so its endpoints stay in one tree, and once that tree
        is a star both hold the same parent, so neither hook can fire on
        it again.  The conditional hook, the first of each iteration,
        re-sends the request over the edges still live.
        """
        nonlocal hook_plan
        if conditional:
            if hook_plan is not None:
                for r in range(ranks):
                    req[r], iu[r], iv[r] = _endpoints(req[r], iu[r], iv[r])
            hook_plan = dist.request(req)
        code = [np.where(s == 1, fo, ~fo) for fo, s in zip(f, star)]
        coded = dist.reply(hook_plan, code)
        roots, proposals = [], []
        for r, x in enumerate(coded):
            isstar = x >= 0
            fx = np.where(isstar, x, ~x)
            fu, fv, su, sv = fx[iu[r]], fx[iv[r]], isstar[iu[r]], isstar[iv[r]]
            live = fu != fv
            iu[r], iv[r] = iu[r][live], iv[r][live]
            # an edge fires one way at most: f[f[u]] <- f[v] if up, else f[f[v]] <- f[u]
            if conditional:
                up = fv < fu
                fire = (su & up) | (sv & (fu < fv))
            else:
                # a star hooks onto a nonstar neighbour's parent
                up, fire = su, live & (su != sv)
            up, fu, fv = up[fire], fu[fire], fv[fire]
            roots.append(np.where(up, fu, fv))
            proposals.append(np.where(up, fv, fu))
        return roots, proposals

    return _run(
        dist, f, star, hook, has_edges, max_iterations, start_iteration,
        on_iteration, driver="spmd", n=n, ranks=ranks,
    )


def _run(
    dist: _Dist,
    f: Blocks,
    star: Blocks,
    hook: Callable[[bool], Tuple[Blocks, Blocks]],
    has_edges: bool,
    max_iterations: Optional[int],
    start_iteration: int,
    on_iteration: Optional[IterationHook],
    **run_start,
) -> LACCResult:
    """The block-distributed LACC loop of :func:`lacc_spmd` and
    :func:`repro.core.lacc_2d.lacc_2d`: the drivers differ only in their
    setup and in ``hook(conditional)``, which returns one hooking phase's
    per-rank ``(roots, proposals)`` from the blocks *f* and *star*;
    :meth:`_Dist.hook` writes them.  ``run_start`` holds the driver's own
    fields of the flight record's ``run_start`` event.  The loop keeps no
    Lemma-1 active set, so its stats read as serial LACC's without
    sparsity: every vertex active, none converged."""
    comm, faults, n = dist.comm, dist.comm.faults, dist.n
    # as in lacc(), a private tracer carries the spans LACCStats come from
    tr = _obs() if _obs().enabled else Tracer()
    stats = LACCStats(n_vertices=n)
    fr = _freg()
    if fr:
        fr.record(
            "run_start", **run_start,
            preset=faults.name if faults is not None else None,
            seed=faults.seed if faults is not None else None,
        )
    if max_iterations is None:
        max_iterations = iteration_bound(n)
    iterations = start_iteration
    if n and has_edges:
        for k in range(1, max_iterations + 1):
            iterations = start_iteration + k
            if fr:
                fr.set_coords(iteration=iterations)
            it_stats = IterationStats(iteration=iterations, active_vertices=n)
            # step spans (cat "step") name the algorithm phase each
            # collective serves; the proc backend stamps the enclosing
            # step into worker-side spans/flight events for measured
            # per-step attribution
            with tr.span("iteration", "iteration", iteration=iterations) as it_span:
                with tr.span("starcheck", "step"):
                    _starcheck(dist, f, star)
                with tr.span("cond_hook", "step"):
                    it_stats.cond_hooks = dist.hook(f, *hook(True))
                with tr.span("starcheck", "step"):
                    _starcheck(dist, f, star)
                with tr.span("uncond_hook", "step"):
                    it_stats.uncond_hooks = dist.hook(f, *hook(False))
                with tr.span("starcheck", "step"):
                    gf = _starcheck(dist, f, star)
                with tr.span("shortcut", "step"):
                    changed = _shortcut(f, gf)
                with tr.span("convergence", "step"):
                    # allreduce the termination predicate
                    nonstars = int(comm.allreduce(
                        [np.array([int((s == 0).sum())]) for s in star],
                        np.add,
                    )[0][0])
            it_stats.star_vertices = n - nonstars
            _close_iteration(stats, it_stats, it_span, lemma1=False)
            if not (it_stats.cond_hooks or it_stats.uncond_hooks or changed or nonstars):
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
    return LACCResult(
        parents, n_components, iterations, stats, ranks=dist.p,
        words_sent=dist.words, fault_seconds=comm.fault_seconds, cost=comm.cost,
    )
