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

The driver is a program on the parent array: ``f``, ``star`` and the
active bitmap stay plain NumPy arrays for the whole run, and GraphBLAS
objects appear only at the hooks' masked ``mxv`` (the paper's SpMV).  The
steps are bound at module level and looked up at call time, so a wrapper
patched into this module sees every call.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graphblas import Matrix
from repro.graphblas.sorting import count_distinct
from repro.obs.flight import flight_recorder as _freg
from repro.obs.metrics import metrics_registry as _mreg
from repro.obs.tracer import NULL_TRACER, Tracer, activate

from .convergence import ActiveSet, converged_star_vertices
from .hooking import cond_hook, uncond_hook
from .shortcut import shortcut
from .snapshot import IterationHook, IterationSnapshot, validate_initial_parents
from .starcheck import starcheck
from .stats import IterationStats, LACCStats, steps_from_span

__all__ = ["lacc", "LACCResult"]


@dataclass
class LACCResult:
    """Output of a LACC run.

    ``parents[i]`` is the root of *i*'s final star — a canonical
    representative of the component, but (as in the paper) not necessarily
    the minimum vertex id: unconditional hooking merges stars onto nonstars
    regardless of id order.  Use :attr:`labels` for min-id labels.
    """

    parents: np.ndarray  # parents[i] = root vertex of i's component
    n_components: int
    n_iterations: int
    stats: LACCStats

    @property
    def labels(self) -> np.ndarray:
        """Labels renamed so each component is labelled by its smallest
        member vertex (stable across algorithms, handy for comparisons)."""
        from repro.graphs.validate import canonical_labels

        return canonical_labels(self.parents)

    def component_of(self, v: int) -> int:
        return int(self.parents[v])


def lacc(
    A: Matrix,
    use_sparsity: bool = True,
    max_iterations: Optional[int] = None,
    collect_stats: bool = True,
    tracer: Optional[Tracer] = None,
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
        Safety bound; defaults to ``4·⌈log2 n⌉ + 8``.  AS converges in
        ``O(log n)`` iterations, so hitting the bound indicates a bug and
        raises ``RuntimeError``.
    collect_stats:
        Fill per-iteration counters/timers (cheap; disable only for the
        tightest micro-benchmarks).  Timing rides on iteration/step spans
        of a private :class:`repro.obs.Tracer`; ``LACCStats`` is derived
        from those spans.
    tracer:
        Explicit :class:`repro.obs.Tracer` to record into.  It is
        *activated* for the duration of the run, so every GraphBLAS
        primitive nests its own span (with nvals/flops counters) under
        the step spans — the ``python -m repro profile`` view.  Default:
        a private step-level tracer (no primitive spans, near-zero cost).
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
        Min-id component labels, component count, iterations and stats.
    """
    if A.nrows != A.ncols:
        raise ValueError(f"adjacency matrix must be square, got {A.shape}")
    if not A.is_symmetric:
        raise ValueError("LACC requires an undirected (symmetric) adjacency matrix")
    n = A.nrows
    stats = LACCStats(n_vertices=n)
    if max_iterations is None:
        max_iterations = 4 * max(int(np.ceil(np.log2(max(n, 2)))), 1) + 8

    # initialise: every vertex is its own parent — n single-vertex stars —
    # unless resuming from a checkpointed/repaired forest
    if initial_parents is not None:
        f = validate_initial_parents(initial_parents, n)
    else:
        f = np.arange(n, dtype=np.int64)
    active = ActiveSet(n, enabled=use_sparsity)
    if initial_active is not None and use_sparsity:
        act0 = np.asarray(initial_active, dtype=bool)
        if act0.shape != (n,):
            raise ValueError(f"initial_active must have shape ({n},)")
        active._active = act0.copy()

    fr = _freg()
    if fr:
        fr.record("run_start", driver="serial", n=n, nnz=A.nvals)
    if n == 0 or A.nvals == 0:
        ncomp0 = count_distinct(f)
        if fr:
            fr.record("run_end", n_iterations=start_iteration, n_components=ncomp0)
        return LACCResult(f, ncomp0, start_iteration, stats)

    # isolated vertices are converged components from the start
    if use_sparsity:
        deg = A.row_degrees()
        isolated = deg == 0
        if isolated.any():
            active._active &= ~isolated

    # Tracing: an explicit tracer is activated so GraphBLAS primitives
    # record leaf spans; the default private tracer stays inactive and
    # only carries the iteration/step spans LACCStats is derived from.
    tr = tracer if tracer is not None else (Tracer() if collect_stats else NULL_TRACER)
    run_ctx = activate(tr) if tracer is not None else contextlib.nullcontext()

    iteration = start_iteration
    with run_ctx, tr.span("lacc", "run", n=n, nnz=A.nvals,
                          **({"run_id": fr.run_id} if fr else {})):
        star = starcheck(f, active.mask)
        while True:
            iteration += 1
            if iteration - start_iteration > max_iterations:
                raise RuntimeError(
                    f"LACC did not converge within {max_iterations} iterations — "
                    "this indicates a forest-invariant violation"
                )
            it_stats = IterationStats(
                iteration=iteration, active_vertices=active.active_count
            )

            with tr.span("iteration", "iteration", iteration=iteration) as it_span:
                with tr.span("cond_hook", "step"):
                    it_stats.cond_hooks = cond_hook(A, f, star, active.mask).count
                with tr.span("starcheck", "step"):
                    star = starcheck(f, active.mask)
                with tr.span("uncond_hook", "step"):
                    it_stats.uncond_hooks = uncond_hook(A, f, star, active.mask).count
                with tr.span("starcheck", "step"):
                    star = starcheck(f, active.mask)

                # Lemma 1 (strengthened, see convergence module): stars
                # surviving unconditional hooking with no external edges
                # are converged
                if use_sparsity:
                    active.retire(converged_star_vertices(A, f, star, active.mask))
                it_stats.converged_vertices = active.converged_count
                it_stats.star_vertices = int(np.count_nonzero(star))
                nonstar = ~star

                with tr.span("shortcut", "step"):
                    shortcut(f, nonstar if active.mask is None else nonstar & active.mask)

                if it_span:
                    it_span.set("active_vertices", it_stats.active_vertices)
                    it_span.set("converged_vertices", it_stats.converged_vertices)
                    it_span.set("cond_hooks", it_stats.cond_hooks)
                    it_span.set("uncond_hooks", it_stats.uncond_hooks)

            if it_span:
                it_stats.step_seconds = steps_from_span(it_span)
            if collect_stats:
                stats.iterations.append(it_stats)
            if fr:
                fr.set_coords(iteration=iteration)
                fr.record(
                    "iteration",
                    iteration=iteration,
                    active_vertices=it_stats.active_vertices,
                    cond_hooks=it_stats.cond_hooks,
                    uncond_hooks=it_stats.uncond_hooks,
                    converged_vertices=it_stats.converged_vertices,
                )
            reg = _mreg()
            if reg:
                reg.counter("lacc_iterations_total",
                            "LACC iterations executed", driver="serial").inc()
                reg.counter("lacc_hooks_total", "trees hooked",
                            driver="serial", kind="cond").inc(it_stats.cond_hooks)
                reg.counter("lacc_hooks_total", "trees hooked",
                            driver="serial", kind="uncond").inc(it_stats.uncond_hooks)
                reg.gauge("lacc_active_vertices",
                          "active vertices entering the latest iteration",
                          driver="serial").set(it_stats.active_vertices)

            hooked = it_stats.cond_hooks + it_stats.uncond_hooks
            all_stars = not nonstar.any()
            if active.all_converged() or (hooked == 0 and all_stars):
                break
            # after shortcutting, star memberships may have changed
            star = starcheck(f, active.mask)

            if on_iteration is not None:
                on_iteration(
                    IterationSnapshot(
                        iteration=iteration,
                        parents=f.copy(),
                        star=star.copy(),
                        active=(
                            active._active.copy() if use_sparsity else None
                        ),
                    )
                )

    n_components = count_distinct(f)
    if fr:
        fr.record("run_end", n_iterations=iteration, n_components=n_components)
    return LACCResult(f, n_components, iteration, stats)
