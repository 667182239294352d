"""LACC — the paper's algorithm: Awerbuch–Shiloach connected components in
GraphBLAS primitives, with the sparsity optimisations of §IV-B.

One iteration (Algorithm 1, with the Table I scoping):

1. **conditional hooking** of stars onto smaller-rooted neighbours,
2. **starcheck** (hooked stars became nonstars),
3. **unconditional hooking** of surviving stars onto nonstar neighbours,
4. **starcheck**, then **Lemma 1**: active stars are converged — retire,
5. **shortcut** (pointer jumping) on the remaining nonstars.

Termination: every tree is a star and no hooks fired — equivalently, with
convergence tracking on, the active set is empty.  The iteration count is
``O(log n)``; each iteration's work shrinks with the active set, which is
the behaviour Figures 4–7 measure.

The ``use_sparsity=False`` mode disables all scoping and runs the plain AS
algorithm over dense vectors (every vertex, every iteration) — it is both
the educational LAGraph-style variant and the ablation baseline for the
sparsity benchmarks.

One loop, :func:`_run`, is that program on the parent array: ``f``,
``star`` and the active bitmap stay plain NumPy arrays for the whole run,
and GraphBLAS objects appear only at the hooks' masked ``mxv`` (the
paper's SpMV).  A run from the identity forest skips its opening
starcheck (every vertex is a singleton star), and its first conditional
hook runs no ``mxv`` (each row's minimum neighbour is its first stored
column); a starcheck after a hook that wrote no root is skipped too.
Two drivers run it.  :func:`lacc` passes the no-op
:class:`_Pricer`, the Null object of pricing in the idiom of
``NULL_TRACER``; :func:`repro.core.lacc_dist.lacc_dist` passes one that
charges each step to an α–β machine model and maps the (permuted) working
vertex space back to the input's.  The loop calls its pricer at fixed
points and never asks which driver called it.  The two message-passing
drivers, :func:`~repro.core.lacc_spmd.lacc_spmd` and
:func:`~repro.core.lacc_2d.lacc_2d`, share the other loop, in
:mod:`repro.core.lacc_spmd`.

Binding contract: the loop looks up ``cond_hook``, ``uncond_hook``,
``starcheck`` and ``shortcut`` as globals of *this* module at call time,
so a wrapper patched in here sees every call of both drivers.
:mod:`repro.core.lacc_dist` keeps those four names bound too, plus
``charge_assign``/``charge_extract``, which its pricer calls through its
own module globals: outside-in timers patch every one of these bindings
and expect each to exist.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.graphblas import Matrix
from repro.graphblas.sorting import count_distinct
from repro.obs.tracer import NULL_TRACER, Tracer, current
from repro.obs.tracer import flight_recorder as _freg

from .convergence import ActiveSet, converged_star_vertices, iteration_bound
from .hooking import cond_hook, uncond_hook
from .shortcut import shortcut
from .snapshot import IterationHook, IterationSnapshot, validate_initial_parents
from .starcheck import starcheck
from .stats import IterationStats, LACCStats, steps_from_span

if TYPE_CHECKING:
    from repro.combblas.indexing import RoutingReport
    from repro.mpisim.costmodel import CostModel

__all__ = ["lacc", "LACCResult"]


@dataclass
class LACCResult:
    """Output of a LACC run, from any of the four drivers.

    ``parents[i]`` is the root of *i*'s final star — a canonical
    representative of the component, but (as in the paper) not necessarily
    the minimum vertex id: unconditional hooking merges stars onto nonstars
    regardless of id order.  Use :attr:`labels` for min-id labels.  The
    fields after ``stats`` keep their defaults on a serial run.
    """

    parents: np.ndarray  # parents[i] = root vertex of i's component
    n_components: int
    n_iterations: int
    stats: LACCStats
    ranks: int = 1
    #: vector payload words that crossed rank boundaries (literal runs)
    words_sent: int = 0
    #: simulated seconds lost to injected faults that no cost model priced
    fault_seconds: float = 0.0
    #: the α–β model the run charged (``cost.machine``, ``cost.nodes``)
    cost: Optional["CostModel"] = None
    #: lacc_dist's (iteration, step, report) per distributed extract or
    #: assign — Figure 3 reads the starcheck/shortcut extract entries
    routing: List[Tuple[int, str, "RoutingReport"]] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        return self.fault_seconds if self.cost is None else self.cost.total_seconds

    @property
    def labels(self) -> np.ndarray:
        """Labels renamed so each component is labelled by its smallest
        member vertex (stable across algorithms, handy for comparisons)."""
        from repro.graphs.validate import canonical_labels

        return canonical_labels(self.parents)


class _Pricer:
    """Prices the loop's steps.  This one, the serial driver's, prices
    nothing: a Null object, like ``NULL_TRACER``.

    :func:`_run` calls ``begin_iteration()``/``end_iteration(it_stats)``
    around each iteration (the latter fills the iteration's traffic and
    returns extra flight fields), ``end_step(step_model_seconds)`` as each
    step span closes (adding the step's model seconds by phase), and one
    charge inside each step: ``hook(phase, it, rep, mask, star=None)``
    (whose mxv read the columns in *mask*, only the nonstar ones when
    *star* is given), ``starcheck(f, mask, it)``, ``converged(mask)``
    (Lemma 1) and ``shortcut(f, scope, it)``.  ``labels``, ``snapshot``
    and ``run_fields()`` (extra ``run_end`` fields) report in the input's
    vertex space, here the loop's own.
    """

    def _charge_nothing(self, *args) -> None:
        pass

    def _no_fields(self, *args) -> dict:
        return {}

    begin_iteration = end_step = _charge_nothing
    hook = starcheck = converged = shortcut = _charge_nothing
    end_iteration = run_fields = _no_fields

    def labels(self, f: np.ndarray) -> np.ndarray:
        return f

    def snapshot(self, iteration: int, f, star, active) -> IterationSnapshot:
        return IterationSnapshot(
            iteration=iteration,
            parents=f.copy(),
            star=star.copy(),
            active=None if active is None else active.copy(),
        )


_NULL_PRICER = _Pricer()


class _StepSpan:
    """Step span that records host time as a ``wall_seconds`` counter
    next to the span's extent on the tracer's clock (model vs. actual
    side by side on the simulated clock), and the model seconds the
    pricer charged inside it into ``step_model_seconds``."""

    __slots__ = ("_ctx", "_span", "_t0", "_pricer", "_model")

    def __init__(self, tracer, pricer: _Pricer, it_stats: IterationStats, name: str):
        self._ctx = tracer.span(name, "step")
        self._pricer = pricer
        self._model = it_stats.step_model_seconds

    def __enter__(self):
        self._t0 = time.perf_counter()
        self._span = self._ctx.__enter__()
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._span.add("wall_seconds", time.perf_counter() - self._t0)
        out = self._ctx.__exit__(exc_type, exc, tb)
        self._pricer.end_step(self._model)
        return out


def _start(A: Matrix, initial_parents, initial_active, use_sparsity: bool):
    """Check *A*, then the identity forest with every vertex active, or
    the resume state: ``(f, active)`` in *A*'s vertex space."""
    if A.nrows != A.ncols:
        raise ValueError(f"adjacency matrix must be square, got {A.shape}")
    if not A.is_symmetric:
        raise ValueError("LACC requires an undirected (symmetric) adjacency matrix")
    n = A.nrows
    f = validate_initial_parents(initial_parents, n)
    active = ActiveSet(n, enabled=use_sparsity)
    if initial_active is not None and use_sparsity:
        act0 = np.asarray(initial_active, dtype=bool)
        if act0.shape != (n,):
            raise ValueError(f"initial_active must have shape ({n},)")
        active._active = act0.copy()
    return f, active


def lacc(
    A: Matrix,
    use_sparsity: bool = True,
    max_iterations: Optional[int] = None,
    collect_stats: bool = True,
    initial_parents: Optional[np.ndarray] = None,
    initial_active: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> LACCResult:
    """Run LACC on the adjacency matrix of an undirected graph.

    Parameters
    ----------
    A:
        Symmetric boolean adjacency matrix (see
        :meth:`repro.graphblas.Matrix.adjacency`).  Self-loops are ignored
        by construction there; an asymmetric matrix is rejected.
    use_sparsity:
        Enable the paper's §IV-B optimisations (Lemma 1 convergence
        tracking and Table I scoping).  Off = the unoptimised AS algorithm.
    max_iterations:
        Safety bound; defaults to
        :func:`~repro.core.convergence.iteration_bound`, and hitting it
        raises ``RuntimeError``.
    collect_stats:
        Fill per-iteration counters/timers (cheap; disable only for the
        tightest micro-benchmarks).  Timing rides on iteration/step spans
        and ``LACCStats`` is derived from those spans.  They are recorded
        into the active tracer (:func:`repro.obs.activate`) when one is
        on, nesting each GraphBLAS primitive's span (with nvals/flops
        counters) under its step — the ``python -m repro run --top`` view;
        otherwise into a private step-level tracer (near-zero cost).
    initial_parents / initial_active / start_iteration:
        Resume state (see :mod:`repro.core.snapshot`): start from this
        parent vector / active bitmap instead of the identity forest.
        Awerbuch–Shiloach converges from any in-range parent forest, so
        a run can continue from a checkpoint or an audited-and-repaired
        state.  ``start_iteration`` offsets iteration numbering only.
    on_iteration:
        Callback invoked with an :class:`IterationSnapshot` at each
        iteration boundary — the checkpoint hook of
        :class:`repro.recovery.Supervisor`.  Exceptions it raises
        propagate out of the run.

    Returns
    -------
    LACCResult
        Parents (each vertex's final star root, not necessarily the
        component's minimum id; ``.labels`` gives min-id labels),
        component count, iterations and stats.
    """
    f, active = _start(A, initial_parents, initial_active, use_sparsity)
    # the default private tracer only carries the iteration/step spans
    # LACCStats is derived from
    return _run(
        A, f, active, _NULL_PRICER, Tracer() if collect_stats else NULL_TRACER,
        run_span=("lacc", {}), run_start=dict(driver="serial"),
        max_iterations=max_iterations, start_iteration=start_iteration,
        on_iteration=on_iteration, collect_stats=collect_stats,
    )


def _close_iteration(
    stats: Optional[LACCStats],
    it_stats: IterationStats,
    it_span,
    *,
    lemma1: bool,
    **extra,
) -> None:
    """Close one iteration of either LACC loop: append *it_stats* to
    *stats* (``None``: stats are off), with its step seconds from
    *it_span*, and write the span's attributes and the flight ``iteration``
    event from that same record: ``cond_hooks``, ``uncond_hooks`` and
    ``star_vertices``, plus ``active_vertices`` and ``converged_vertices``
    when the loop keeps a Lemma-1 active set (*lemma1*).  Without one,
    every vertex is in scope every iteration, so the counts would only
    restate ``n``.  *extra* holds the driver's own event fields."""
    record = dict(
        cond_hooks=it_stats.cond_hooks,
        uncond_hooks=it_stats.uncond_hooks,
        star_vertices=it_stats.star_vertices,
    )
    if lemma1:
        record.update(active_vertices=it_stats.active_vertices,
                      converged_vertices=it_stats.converged_vertices)
    if it_span:
        it_stats.step_seconds = steps_from_span(it_span)
        it_span.attrs.update(record)
    if stats is not None:
        stats.iterations.append(it_stats)
    fr = _freg()
    if fr:
        fr.record("iteration", iteration=it_stats.iteration, **record, **extra)


def _run(
    A: Matrix,
    f: np.ndarray,
    active: ActiveSet,
    pricer: _Pricer,
    default_tracer: Tracer,
    *,
    run_span,
    run_start: dict,
    max_iterations: Optional[int],
    start_iteration: int,
    on_iteration: Optional[IterationHook],
    collect_stats: bool = True,
    **result,
) -> LACCResult:
    """The LACC loop on the parent array *f* (updated in place), with
    *pricer* charging each step.  The loop's spans go to the active
    tracer when it is enabled, else to the driver's *default_tracer*.
    ``run_span`` is the run span's
    ``(name, attrs)``, ``run_start`` the driver's own fields of the flight
    record's ``run_start`` event, ``result`` the driver's own
    :class:`LACCResult` fields.  Parents are in the input's vertex space."""
    tr = current() if current().enabled else default_tracer
    n = A.nrows
    stats = LACCStats(n_vertices=n)
    if max_iterations is None:
        max_iterations = iteration_bound(n)
    fr = _freg()
    if fr:
        fr.record("run_start", n=n, nnz=A.nvals, **run_start)
    iteration = start_iteration
    if n and A.nvals:
        # a fresh start: the identity forest, every vertex a singleton
        # star, with every vertex active, so every neighbour of a scoped
        # vertex is scoped once the isolated ones retire
        fresh = active.active_count == n and np.array_equal(f, np.arange(n))
        # isolated vertices are converged components from the start
        if active.enabled:
            active._active &= A.row_degrees() != 0
        name, attrs = run_span
        with tr.span(name, "run", n=n, nnz=A.nvals, **attrs,
                     **({"run_id": fr.run_id} if fr else {})):
            star = np.ones(n, dtype=bool) if fresh else starcheck(f, active.mask)
            while True:
                iteration += 1
                if iteration - start_iteration > max_iterations:
                    raise RuntimeError(
                        f"LACC did not converge within {max_iterations} iterations — "
                        "this indicates a forest-invariant violation"
                    )
                if fr:
                    # faults/retries recorded deep inside the collectives
                    # inherit this coordinate without threading it through
                    # call signatures
                    fr.set_coords(iteration=iteration)
                it_stats = IterationStats(
                    iteration=iteration, active_vertices=active.active_count
                )
                pricer.begin_iteration()

                with tr.span("iteration", "iteration", iteration=iteration) as it_span:
                    with _StepSpan(tr, pricer, it_stats, "cond_hook"):
                        rep = cond_hook(A, f, star, active.mask, fresh=fresh)
                        fresh = False
                        it_stats.cond_hooks = rep.count
                        pricer.hook("cond_hook", iteration, rep, active.mask)
                    # a hook that wrote no root left f unchanged, so the
                    # starcheck after it would return the star bitmap the
                    # loop holds (the active set moves only after both)
                    with _StepSpan(tr, pricer, it_stats, "starcheck"):
                        if rep.count:
                            star = starcheck(f, active.mask)
                        pricer.starcheck(f, active.mask, iteration)
                    with _StepSpan(tr, pricer, it_stats, "uncond_hook"):
                        rep = uncond_hook(A, f, star, active.mask)
                        it_stats.uncond_hooks = rep.count
                        pricer.hook("uncond_hook", iteration, rep, active.mask, star)
                    with _StepSpan(tr, pricer, it_stats, "starcheck"):
                        if rep.count:
                            star = starcheck(f, active.mask)
                        pricer.starcheck(f, active.mask, iteration)
                        # Lemma 1 (strengthened, see convergence module):
                        # stars surviving unconditional hooking with no
                        # external edges are converged.  After a hook-free
                        # iteration that is every active star: a nonstar
                        # neighbour would have hooked it unconditionally, a
                        # star neighbour under another root conditionally
                        if active.enabled:
                            if it_stats.cond_hooks or it_stats.uncond_hooks:
                                conv = converged_star_vertices(A, f, star, active.mask)
                            else:
                                conv = star & active.mask
                            pricer.converged(active.mask)
                            active.retire(conv)
                    it_stats.converged_vertices = active.converged_count
                    it_stats.star_vertices = int(np.count_nonzero(star))
                    with _StepSpan(tr, pricer, it_stats, "shortcut"):
                        nonstar = ~star
                        scope = nonstar if active.mask is None else nonstar & active.mask
                        pricer.shortcut(f, scope, iteration)
                        shortcut(f, scope)

                _close_iteration(
                    stats if collect_stats else None, it_stats, it_span,
                    lemma1=active.enabled, **pricer.end_iteration(it_stats),
                )

                hooked = it_stats.cond_hooks + it_stats.uncond_hooks
                all_stars = not nonstar.any()
                if active.all_converged() or (hooked == 0 and all_stars):
                    break
                # after shortcutting, star memberships may have changed
                star = starcheck(f, active.mask)
                if on_iteration is not None:
                    on_iteration(pricer.snapshot(iteration, f, star, active.mask))

    parents = pricer.labels(f)
    n_components = count_distinct(parents)
    if fr:
        fr.record("run_end", n_iterations=iteration, n_components=n_components,
                  **pricer.run_fields())
    return LACCResult(parents, n_components, iteration, stats, **result)
