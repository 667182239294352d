"""Outside-in per-layer timing for the traced rep.

:class:`LayerTimer` wraps the public functions of each layer at the
binding its caller looks up, accumulates seconds, calls and computed
sizes, and restores every patched attribute when it exits.  Nothing inside
``src/`` is instrumented.

=========  ==========================================================
layer      wrapped binding
=========  ==========================================================
graphblas  ``repro.graphblas.<op>`` (the core steps call ``gb.<op>``)
           and ``Matrix.adjacency``
kernels    a wrapping tier registered with ``kernels.register_tier``
           and selected with ``kernels.use``
core       ``cond_hook``/``uncond_hook``/``starcheck``/``shortcut`` in
           the ``repro.core.lacc`` and ``repro.core.lacc_dist`` modules
combblas   ``DistMatrix.charge_mxv``; ``charge_assign``/``charge_extract``
           in the ``repro.core.lacc_dist`` module
parallel   ``ProcComm.alltoallv``/``allreduce``, ``WorkerPool.alltoallv``
=========  ==========================================================

Only the outermost call within a layer is timed, so the times of one layer
never overlap and sum to no more than the rep's wall time.  Kernel bytes
are computed from the ndarray arguments and results; matrix and vector
operands are not counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
from collections import defaultdict

import numpy as np

GRAPHBLAS_OPS = ("mxv", "assign", "assign_scalar", "extract", "ewise_mult")
KERNELS = (
    "spmv", "spmv_rows", "spmspv", "intersect_sorted", "lookup_sorted",
    "merge_union", "merge_disjoint", "reduce_by_rows",
)
STEPS = ("cond_hook", "uncond_hook", "starcheck", "shortcut")
CHARGES = ("mxv", "assign", "extract")
TRACED_TIER = "e2e-traced"


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class LayerTimer:
    """Context manager: install the wrappers on enter, remove on exit.

    ``seconds[key]`` and ``calls[key]`` are keyed ``"<layer>.<op>"``;
    ``counts`` holds ``graphblas.<op>_nvals``, ``kernels.<k>_bytes``,
    ``parallel.payload_bytes`` and ``parallel.offrank_words``.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._stack = contextlib.ExitStack()

    # -- wrapping -------------------------------------------------------
    def _wrap(self, layer: str, op: str, fn, count=None):
        key = f"{layer}.{op}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[layer]:
                return fn(*args, **kwargs)
            self._depth[layer] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                self.calls[key] += 1
                self._depth[layer] -= 1
            if count is not None:
                count(key, args, out)
            return out

        return wrapper

    def _patch(self, owner, name: str, layer: str, op: str, count=None) -> None:
        original = vars(owner)[name]
        if isinstance(original, classmethod):
            new = classmethod(self._wrap(layer, op, original.__func__, count))
        else:
            new = self._wrap(layer, op, original, count)
        self._stack.callback(setattr, owner, name, original)
        setattr(owner, name, new)

    # -- counters -------------------------------------------------------
    def _count_nvals(self, key, args, out) -> None:
        self.counts[key + "_nvals"] += out.nvals

    def _count_bytes(self, key, args, out) -> None:
        self.counts[key + "_bytes"] += _nbytes(args) + _nbytes(out)

    def _count_payload(self, key, args, out) -> None:
        for src, row in enumerate(args[1]):
            for dst, buf in enumerate(row):
                buf = np.asarray(buf)
                self.counts["parallel.payload_bytes"] += buf.nbytes
                if src != dst:
                    self.counts["parallel.offrank_words"] += buf.size

    # -- install / uninstall ---------------------------------------------
    def __enter__(self) -> "LayerTimer":
        try:
            self._install()
        except BaseException:
            self._stack.close()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._stack.close()
        return False

    def _install(self) -> None:
        import repro.graphblas as gb
        from repro.combblas.distmatrix import DistMatrix
        from repro.graphblas import kernels
        from repro.parallel.pool import WorkerPool
        from repro.parallel.proccomm import ProcComm

        for op in GRAPHBLAS_OPS:
            self._patch(gb, op, "graphblas", op, self._count_nvals)
        self._patch(gb.Matrix, "adjacency", "graphblas", "adjacency")

        base = kernels.impl()
        tier = types.ModuleType(TRACED_TIER)
        for name in base.__all__:
            setattr(tier, name, getattr(base, name))
        for name in KERNELS:
            setattr(tier, name, self._wrap("kernels", name, getattr(base, name),
                                           self._count_bytes))
        kernels.register_tier(TRACED_TIER, tier)
        # register_tier has no public inverse: drop the entry on exit so
        # the tier list is left as it was found
        self._stack.callback(kernels._TIERS.pop, TRACED_TIER, None)
        self._stack.enter_context(kernels.use(TRACED_TIER))

        # ``repro.core.lacc`` resolves to the function, so take the modules
        # the drivers look their steps up in from the import system
        lacc_mod = importlib.import_module("repro.core.lacc")
        dist_mod = importlib.import_module("repro.core.lacc_dist")
        for mod in (lacc_mod, dist_mod):
            for step in STEPS:
                self._patch(mod, step, "core", step)

        self._patch(DistMatrix, "charge_mxv", "combblas", "charge_mxv")
        for op in ("assign", "extract"):
            self._patch(dist_mod, f"charge_{op}", "combblas", f"charge_{op}")

        self._patch(ProcComm, "alltoallv", "proccomm", "alltoallv",
                    self._count_payload)
        self._patch(ProcComm, "allreduce", "proccomm", "allreduce")
        self._patch(WorkerPool, "alltoallv", "pool", "alltoallv")

    # -- results ------------------------------------------------------------
    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of the rep that took *wall* seconds: times as
        shares of *wall*, plus calls and computed sizes."""
        share = lambda key: self.seconds[key] / wall  # noqa: E731
        out = {"graphblas.adjacency_share": share("graphblas.adjacency")}
        for op in GRAPHBLAS_OPS:
            key = f"graphblas.{op}"
            out[f"{key}_share"] = share(key)
            out[f"{key}_calls"] = self.calls[key]
            out[f"{key}_nvals"] = self.counts[f"{key}_nvals"]
        for name in KERNELS:
            key = f"kernels.{name}"
            out[f"{key}_share"] = share(key)
            out[f"{key}_bytes"] = self.counts[f"{key}_bytes"]
        for step in STEPS:
            out[f"core.{step}_share"] = share(f"core.{step}")
        for op in CHARGES:
            out[f"combblas.charge_{op}_share"] = share(f"combblas.charge_{op}")
        out["parallel.proccomm_alltoallv_share"] = share("proccomm.alltoallv")
        out["parallel.proccomm_allreduce_share"] = share("proccomm.allreduce")
        out["parallel.proccomm_alltoallv_calls"] = self.calls["proccomm.alltoallv"]
        out["parallel.pool_alltoallv_share"] = share("pool.alltoallv")
        # what ProcComm adds around the pool's exchange: validation, word
        # accounting, the span and the CRC/retry envelope
        out["parallel.envelope_share"] = (
            self.seconds["proccomm.alltoallv"] - self.seconds["pool.alltoallv"]
        ) / wall
        out["parallel.payload_bytes"] = self.counts["parallel.payload_bytes"]
        out["parallel.offrank_words"] = self.counts["parallel.offrank_words"]
        return out
