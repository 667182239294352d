"""Span behaviour when the traced body raises.

The contract: a span whose body raises still **closes** (gets an end
time, leaves the stack, exports cleanly) and records the exception on
its ``error`` attribute — at every layer of the stack, from a hand-opened
span down through GraphBLAS primitives, SimComm collectives, and a
diverging LACC driver run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import Tracer, activate, chrome_trace


class TestSpanErrorRecording:
    def test_error_recorded_and_span_closed(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tr.span("work", "test"):
                raise ValueError("boom")
        (sp,) = tr.find("work")
        assert sp.t1 is not None
        assert sp.attrs["error"] == "ValueError: boom"
        assert tr.current is None  # stack fully unwound

    def test_nested_spans_all_close_on_unwind(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer", "test"):
                with tr.span("mid", "test"):
                    with tr.span("inner", "test"):
                        raise RuntimeError("deep failure")
        for name in ("outer", "mid", "inner"):
            (sp,) = tr.find(name)
            assert sp.t1 is not None, f"{name} left open"
            assert sp.attrs["error"].startswith("RuntimeError")
        assert tr.max_depth() == 3
        assert tr.current is None

    def test_success_records_no_error(self):
        tr = Tracer()
        with tr.span("fine", "test"):
            pass
        (sp,) = tr.find("fine")
        assert "error" not in sp.attrs

    def test_sibling_after_failure_nests_correctly(self):
        """A failed span must not corrupt the stack for later spans."""
        tr = Tracer()
        with tr.span("root", "test"):
            with pytest.raises(KeyError):
                with tr.span("bad", "test"):
                    raise KeyError("x")
            with tr.span("good", "test"):
                pass
        (root,) = tr.find("root")
        assert [c.name for c in root.children] == ["bad", "good"]
        assert "error" not in tr.find("good")[0].attrs

    def test_errored_trace_exports_cleanly(self):
        """Chrome export needs balanced B/E events even after a failure."""
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("outer", "test"):
                with tr.span("inner", "test"):
                    raise ValueError("nope")
        events = chrome_trace(tr)["traceEvents"]
        phases = [e["ph"] for e in events if e.get("ph") in "BE"]
        assert phases.count("B") == phases.count("E") == 2


class TestErrorPropagationAcrossLayers:
    def test_graphblas_primitive_error(self):
        """A size-mismatched mask makes mxv raise inside its own span;
        the span closes with the error recorded."""
        from repro.graphblas import Matrix, Vector, ops
        from repro.graphblas import semirings as sr

        A = Matrix.adjacency(4, [0, 1], [1, 2])
        w = Vector.sparse(4, [], [])
        u = Vector.dense(np.arange(4, dtype=np.int64))
        mask = Vector.dense(np.ones(9, dtype=np.int64))  # wrong length
        tr = Tracer()
        with activate(tr):
            with pytest.raises(ValueError, match="mask size"):
                ops.mxv(w, mask, None, sr.SEL2ND_MIN_INT64, A, u)
        (sp,) = tr.find("mxv", "graphblas")
        assert sp.attrs["error"].startswith("ValueError: mask size")
        assert all(s.t1 is not None for s, _ in tr.walk())

    def test_simcomm_collective_error(self):
        """A malformed alltoallv raises inside the collective span."""
        from repro.mpisim import SimComm

        comm = SimComm(3)
        tr = Tracer()
        with activate(tr):
            with pytest.raises(ValueError, match="contiguous ranks"):
                comm.alltoallv([[np.zeros(1)] * 2 for _ in range(3)])
        # validation precedes the span here; what matters is no open spans
        assert tr.current is None
        assert all(s.t1 is not None for s, _ in tr.walk())

    def test_permanent_fault_error_recorded_in_trace(self):
        """A CollectiveError from the fault envelope leaves a well-formed
        trace whose failing span carries the error."""
        from repro.faults import CollectiveError, preset
        from repro.mpisim import SimComm

        comm = SimComm(2, faults=preset("permanent", seed=0, after=1))
        tr = Tracer()
        with activate(tr):
            with pytest.raises(CollectiveError):
                comm.alltoallv([[np.arange(3)] * 2] * 2)
        errored = [s for s, _ in tr.walk() if "error" in s.attrs]
        assert errored
        assert any("CollectiveError" in s.attrs["error"] for s in errored)
        assert tr.current is None

    def test_driver_divergence_closes_iteration_spans(self):
        """lacc_dist with a starvation iteration cap raises RuntimeError;
        every iteration/step span in the trace is closed."""
        from repro.core.lacc_dist import lacc_dist
        from repro.graphs.generators import path_graph
        from repro.mpisim.machine import LAPTOP

        g = path_graph(64)
        tr = Tracer()
        with pytest.raises(RuntimeError, match="converge"), activate(tr):
            lacc_dist(g.to_matrix(), LAPTOP, nodes=1, max_iterations=1)
        assert all(s.t1 is not None for s, _ in tr.walk())
        errored = [s for s, _ in tr.walk() if "error" in s.attrs]
        assert errored, "divergence left no error on any span"
