"""SPMD LACC: a *literal* distributed execution, one program per rank.

The scaling sweeps in :mod:`repro.core.lacc_dist` price LACC analytically;
this module complements them with an execution that is **actually
distributed**: the parent and star vectors live as per-rank blocks, the
edge list is 1D-partitioned, and the algorithm is written as one rank's
program over its own blocks, as CombBLAS runs it.  The program meets the
other ranks only at collectives: it is a generator that yields at each
one, and :meth:`~repro.mpisim.envelope.CommBase.run_ranks` steps the *p*
programs in lockstep on either backend, :class:`repro.mpisim.SimComm` or
the worker processes of :class:`repro.parallel.ProcComm` — no rank ever
touches another rank's block directly.  Per iteration:

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

That is 17 alltoallvs per iteration.  The iteration is one rank program,
:func:`_iteration`, with the hook proposals supplied by the driver's
per-rank hooking program, and :func:`_run` loops it;
:func:`repro.core.lacc_2d.lacc_2d` runs it too, with its own setup and
proposals.  Both return the serial driver's
:class:`~repro.core.lacc.LACCResult` and step record.  The test suite
checks that this execution returns serial LACC's parents, iteration count
and per-iteration hook and star counts on every rank count, and that
``words_sent`` equals the words its ``alltoallv`` spans report.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graphblas import kernels as _kernels
from repro.graphblas.monoid import MIN_INT64
from repro.graphblas.sorting import count_distinct
from repro.graphs.generators import EdgeList
from repro.mpisim.backend import make_comm
from repro.obs.tracer import Tracer
from repro.obs.tracer import current as _obs
from repro.obs.tracer import flight_recorder as _freg

from .convergence import iteration_bound
from .hooking import assign_min
from .lacc import LACCResult, _close_iteration
from .snapshot import IterationHook, IterationSnapshot, validate_initial_parents
from .stats import IterationStats, LACCStats

__all__ = ["lacc_spmd"]


class _Plan(NamedTuple):
    """A request :meth:`_Block.request` delivered, kept for its replies."""

    size: int  # how many indices this rank asked for
    back: List[np.ndarray]  # back[o]: positions in the request that o owns
    local: List[np.ndarray]  # local[r]: block offsets this rank answers r with


class _Block:
    """Rank *r*'s block of length-*n* int64 vectors over *p* ranks.

    The block holds global indices ``lo:hi``.  Every cross-rank access is
    one ``alltoallv``, and each one is a generator step of a rank program
    (:meth:`~repro.mpisim.envelope.CommBase.run_ranks` steps them): it
    yields this rank's send row, one array per destination, and gets
    back its receive row, one array per source.  :meth:`request` ships
    indices to their owners and :meth:`reply` answers them, :meth:`hook`
    and :meth:`clear` route updates to the owners.
    """

    def __init__(self, n: int, p: int, r: int):
        self.n, self.p = n, p
        self.block = max(-(-n // p), 1)
        self.lo, self.hi = min(r * self.block, n), min((r + 1) * self.block, n)

    def _by_owner(self, idx: np.ndarray) -> List[np.ndarray]:
        """Positions of *idx*'s entries, one array per owner rank."""
        owners = np.minimum(idx // self.block, self.p - 1)
        return [np.flatnonzero(owners == o) for o in range(self.p)]

    def request(self, idx: np.ndarray):
        """Ship the global indices *idx* to their owners, who keep what
        they received: the returned plan, which every later :meth:`reply`
        answers."""
        idx = np.asarray(idx, dtype=np.int64)
        back = self._by_owner(idx)
        recv = yield [idx[s] for s in back]
        return _Plan(idx.size, back, [q - self.lo for q in recv])

    def reply(self, plan: _Plan, vec: np.ndarray):
        """Answer *plan* with this rank's block *vec*.  Returns the values
        this rank asked for, positionally aligned with its request."""
        recv = yield [vec[q] for q in plan.local]
        out = np.empty(plan.size, dtype=np.int64)
        for sel, vals in zip(plan.back, recv):
            out[sel] = vals
        return out

    def _route(self, targets: np.ndarray, values: Optional[np.ndarray] = None):
        """Ship *targets*, with their *values* in the same array, to the
        targets' owners.  Returns the block offsets this rank received and
        their values (``None`` without)."""
        t = np.asarray(targets, dtype=np.int64)
        sel = self._by_owner(t)
        if values is None:
            row = yield [t[s] for s in sel]
            return np.concatenate(row) - self.lo, None
        v = np.asarray(values, dtype=np.int64)
        row = yield [np.concatenate([t[s], v[s]]) for s in sel]
        halves = [np.split(msg, 2) for msg in row]
        return (np.concatenate([h[0] for h in halves]) - self.lo,
                np.concatenate([h[1] for h in halves]))

    def hook(self, f: np.ndarray, roots: np.ndarray, proposals: np.ndarray):
        """Write hook proposals onto their roots: ``proposals[k]`` is this
        rank's offer to root ``roots[k]``.  The rank min-combines its
        offers per root, routes them to the roots' owners, and writes what
        it received into its block *f* with
        :func:`~repro.core.hooking.assign_min`.  Returns the number of
        roots this rank wrote."""
        t, v, _ = _kernels.impl().reduce_by_rows(proposals, roots, MIN_INT64, self.n)
        t, v = yield from self._route(t, v)
        return int(assign_min(f, t, v)[0].size)

    def clear(self, vec: np.ndarray, targets: np.ndarray):
        """Route indices to their owners, who set ``vec[i] = 0``."""
        local, _ = yield from self._route(targets)
        vec[local] = 0


def _starcheck(b: _Block, f: np.ndarray, star: np.ndarray):
    """Algorithm 6 for one rank, in four alltoallvs.

    Returns the grandparents ``gf`` of the rank's vertices: while ``f``
    is unchanged, the shortcut reuses them instead of gathering again.
    """
    plan = yield from b.request(f)
    gf = yield from b.reply(plan, f)
    # f != gf: the vertex (owned here) and its grandparent are nonstar
    neq = f != gf
    star[:] = 1
    star[neq] = 0
    yield from b.clear(star, gf[neq])
    # star[v] &= star[f[v]]
    star &= yield from b.reply(plan, star)
    return gf


def _iteration(b: _Block, f: np.ndarray, star: np.ndarray, hook):
    """One LACC iteration as rank *b*'s program over its blocks *f* and
    *star*, yielding each step's name before its work.  *hook* is the
    driver's per-rank hooking program: ``hook(conditional)`` returns this
    rank's ``(roots, proposals)``.  Returns the rank's conditional and
    unconditional hook counts, its shortcut changes and the allreduced
    nonstar count."""
    hooked = []
    for step, conditional in (("cond_hook", True), ("uncond_hook", False)):
        yield "starcheck"
        yield from _starcheck(b, f, star)
        yield step
        roots, proposals = yield from hook(conditional)
        hooked.append((yield from b.hook(f, roots, proposals)))
        del roots, proposals  # hold no proposals through the next step
    yield "starcheck"
    gf = yield from _starcheck(b, f, star)
    # f <- gf from the last starcheck's grandparents: f has not changed
    # since, so the shortcut sends nothing
    yield "shortcut"
    changed = int(np.count_nonzero(gf != f))
    f[:] = gf
    yield "convergence"
    # allreduce the termination predicate
    nonstars = yield np.array([int((star == 0).sum())])
    return (*hooked, changed, int(nonstars[0]))


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
    """Run LACC with literal per-rank data and message passing.

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
    f0 = validate_initial_parents(initial_parents, n)

    def rank(r: int):
        """Rank *r*'s blocks and hooking program.  The rank holds every
        *ranks*-th edge (a 1D cyclic partition, which balances skewed
        inputs); its hook request is its sorted endpoint set, and each of
        its edges holds its endpoints' positions in that set."""
        b, f, star = _blocks(n, ranks, r, f0)
        req, iu, iv = _endpoints(np.arange(n), eu[r::ranks], ev[r::ranks])
        plan: Optional[_Plan] = None

        def hook(conditional: bool):
            """One hooking phase's ``(roots, proposals)`` on this rank.

            The rank reads its endpoint set ``req`` from a reply of one
            word per endpoint, ``f`` for a star and ``~f`` for a nonstar
            (exact, as ``f >= 0``), and each edge, one record hooked in
            both directions, reads its endpoints off it through
            ``iu``/``iv``.  An edge whose endpoints share a parent is
            dropped for good: trees only merge, so its endpoints stay in
            one tree, and once that tree is a star both hold the same
            parent, so neither hook can fire on it again.  The
            conditional hook, the first of each iteration, re-sends the
            request over the edges still live.
            """
            nonlocal plan, req, iu, iv
            if conditional:
                if plan is not None:
                    req, iu, iv = _endpoints(req, iu, iv)
                plan = yield from b.request(req)
            x = yield from b.reply(plan, np.where(star == 1, f, ~f))
            isstar = x >= 0
            fx = np.where(isstar, x, ~x)
            fu, fv, su, sv = fx[iu], fx[iv], isstar[iu], isstar[iv]
            live = fu != fv
            iu, iv = iu[live], iv[live]
            # an edge fires one way at most: f[f[u]] <- f[v] if up, else f[f[v]] <- f[u]
            if conditional:
                up = fv < fu
                fire = (su & up) | (sv & (fu < fv))
            else:
                # a star hooks onto a nonstar neighbour's parent
                up, fire = su, live & (su != sv)
            up, fu, fv = up[fire], fu[fire], fv[fire]
            return np.where(up, fu, fv), np.where(up, fv, fu)

        return b, f, star, hook

    world = [rank(r) for r in range(ranks)]
    del eu, ev  # free the edge copies: the ranks keep only positions
    return _run(
        comm, world, has_edges, max_iterations, start_iteration, on_iteration,
        driver="spmd", n=n, ranks=ranks,
    )


def _blocks(n: int, p: int, r: int, f0: np.ndarray):
    """Rank *r*'s block, and its blocks of *f0* and of the all-star vector."""
    b = _Block(n, p, r)
    return b, f0[b.lo : b.hi].copy(), np.ones(b.hi - b.lo, dtype=np.int64)


def _run(
    comm,
    world: list,
    has_edges: bool,
    max_iterations: Optional[int],
    start_iteration: int,
    on_iteration: Optional[IterationHook],
    **run_start,
) -> LACCResult:
    """The block-distributed LACC loop of :func:`lacc_spmd` and
    :func:`repro.core.lacc_2d.lacc_2d`: the drivers differ only in their
    setup and in each rank's hooking program.  *world* holds each rank's
    ``(block, f, star, hook)``, and each iteration runs
    :func:`_iteration` on every rank through
    :meth:`~repro.mpisim.envelope.CommBase.run_ranks`, and sums the hook
    and shortcut counts the ranks return.  ``run_start`` holds the
    driver's own fields of the flight record's ``run_start`` event.  The
    loop keeps no Lemma-1 active set, so its stats read as serial LACC's
    without sparsity: every vertex active, none converged."""
    faults, n = comm.faults, world[0][0].n
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
    words_sent = 0
    if n and has_edges:
        for k in range(1, max_iterations + 1):
            iterations = start_iteration + k
            if fr:
                fr.set_coords(iteration=iterations)
            it_stats = IterationStats(iteration=iterations, active_vertices=n)
            # the ranks' step spans (cat "step") name the algorithm phase
            # each collective serves; the proc backend stamps the
            # enclosing step into worker-side spans/flight events for
            # measured per-step attribution
            with tr.span("iteration", "iteration", iteration=iterations) as it_span:
                counts, words = comm.run_ranks(
                    [_iteration(*rank) for rank in world], tr
                )
            words_sent += words
            cond, uncond, changed, _ = map(sum, zip(*counts))
            nonstars = counts[0][3]
            it_stats.cond_hooks, it_stats.uncond_hooks = cond, uncond
            it_stats.star_vertices = n - nonstars
            _close_iteration(stats, it_stats, it_span, lemma1=False)
            if not (cond or uncond or changed or nonstars):
                break
            if on_iteration is not None:
                on_iteration(IterationSnapshot(
                    iteration=iterations,
                    parents=np.concatenate([f for _, f, _, _ in world]),
                    star=np.concatenate([star for _, _, star, _ in world]) == 1,
                    active=None,
                    simulated_seconds=(
                        comm.fault_seconds if comm.cost is None
                        else comm.cost.total_seconds
                    ),
                    plan_cursor=0 if faults is None else faults.cursor,
                ))
        else:
            raise RuntimeError("distributed LACC failed to converge (bug)")

    parents = np.concatenate([f for _, f, _, _ in world])
    n_components = count_distinct(parents)
    if fr:
        fr.record(
            "run_end", n_iterations=iterations, n_components=n_components
        )
    return LACCResult(
        parents, n_components, iterations, stats, ranks=comm.size,
        words_sent=words_sent, fault_seconds=comm.fault_seconds, cost=comm.cost,
    )
