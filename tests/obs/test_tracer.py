"""Core tracer semantics: span nesting, ordering, counters, the null
objects, and activation scoping."""

import pytest

from repro.obs import (
    NULL_FLIGHT,
    NULL_TRACER,
    FlightRecorder,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    activate,
    current,
    flight_recorder,
)


class FakeClock:
    """Deterministic clock advancing 1.0 s per read."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestSpanNesting:
    def test_children_attach_to_enclosing_span(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("a"):
                with tr.span("leaf"):
                    pass
            with tr.span("b"):
                pass
        assert len(tr.roots) == 1
        outer = tr.roots[0]
        assert [c.name for c in outer.children] == ["a", "b"]
        assert [c.name for c in outer.children[0].children] == ["leaf"]
        assert tr.max_depth() == 3

    def test_sibling_order_is_program_order(self):
        tr = Tracer()
        with tr.span("run"):
            for name in ("first", "second", "third"):
                with tr.span(name):
                    pass
        assert [c.name for c in tr.roots[0].children] == ["first", "second", "third"]

    def test_multiple_roots(self):
        tr = Tracer()
        with tr.span("r1"):
            pass
        with tr.span("r2"):
            pass
        assert [r.name for r in tr.roots] == ["r1", "r2"]

    def test_timestamps_are_ordered(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        assert outer.t0 < inner.t0 < inner.t1 < outer.t1
        assert outer.duration > inner.duration > 0
        assert outer.self_duration == outer.duration - inner.duration

    def test_out_of_order_close_raises(self):
        tr = Tracer()
        c1 = tr.span("a")
        c1.__enter__()
        c2 = tr.span("b")
        c2.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            c1.__exit__(None, None, None)

    def test_current_tracks_innermost_open_span(self):
        tr = Tracer()
        assert tr.current is None
        with tr.span("outer") as outer:
            assert tr.current is outer
            with tr.span("inner") as inner:
                assert tr.current is inner
            assert tr.current is outer
        assert tr.current is None


class TestSpanData:
    def test_counters_accumulate(self):
        sp = Span("x", "", 0.0)
        sp.add("flops", 3)
        sp.add("flops", 4)
        assert sp.counters["flops"] == 7

    def test_attrs_last_write_wins(self):
        sp = Span("x", "", 0.0)
        sp.set("path", "spmv")
        sp.set("path", "spmspv")
        assert sp.attrs["path"] == "spmspv"

    def test_counter_total_sums_subtree(self):
        tr = Tracer()
        with tr.span("run") as run:
            run.add("words", 1)
            with tr.span("a") as a:
                a.add("words", 10)
            with tr.span("b") as b:
                b.add("words", 100)
        assert tr.counter_total("words") == 111
        assert run.counter_total("words") == 111
        assert tr.roots[0].children[0].counter_total("words") == 10

    def test_find_by_name_and_cat(self):
        tr = Tracer()
        with tr.span("it", "iteration"):
            with tr.span("starcheck", "step"):
                pass
            with tr.span("starcheck", "step"):
                pass
            with tr.span("shortcut", "step"):
                pass
        assert len(tr.find("starcheck")) == 2
        assert len(tr.find(cat="step")) == 3
        assert len(tr.find("shortcut", "step")) == 1
        assert tr.find("nope") == []

    def test_span_kwargs_become_attrs(self):
        tr = Tracer()
        with tr.span("mxv", "graphblas", path="spmv", n=5) as sp:
            pass
        assert sp.attrs == {"path": "spmv", "n": 5}

    def test_open_span_duration_is_zero(self):
        tr = Tracer()
        ctx = tr.span("open")
        sp = ctx.__enter__()
        assert sp.duration == 0.0
        ctx.__exit__(None, None, None)
        assert sp.duration >= 0.0


class TestNullObjects:
    def test_null_span_is_falsy_real_span_truthy(self):
        assert not NullSpan()
        assert Span("x", "", 0.0)

    def test_null_tracer_span_is_shared_noop(self):
        t = NullTracer()
        s1 = t.span("a", "cat", attr=1)
        s2 = t.span("b")
        assert s1 is s2  # no allocation per call
        with t.span("c") as sp:
            sp.add("words", 5)  # absorbed
            sp.set("k", "v")
        assert not sp

    def test_null_tracer_reads_are_empty(self):
        t = NULL_TRACER
        assert t.roots == []
        assert list(t.walk()) == []
        assert t.find() == []
        assert t.counter_total("words") == 0.0
        assert t.max_depth() == 0
        assert t.current is None
        assert t.enabled is False

    def test_exceptions_propagate_through_null_span(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("x"):
                raise ValueError("boom")


#: the facets of the one obs scope, by their ``activate`` keyword
FACETS = {"tracer": Tracer, "flight": FlightRecorder}
NULLS = {"tracer": NULL_TRACER, "flight": NULL_FLIGHT}
ALL = ("tracer", "flight")


def _fresh(names):
    return {name: FACETS[name]() for name in names}


def _assert_scope(expected):
    active = {"tracer": current(), "flight": flight_recorder()}
    for name, want in expected.items():
        assert active[name] is want, name


class TestActivation:
    def test_default_is_null_tracer(self):
        assert current() is NULL_TRACER
        _assert_scope(NULLS)

    def test_activate_scopes_and_restores(self):
        tr = Tracer()
        with activate(tr) as got:  # the tracer stays positional
            assert got is tr and current() is tr
        assert current() is NULL_TRACER
        # any subset of the facets; the scope yields the first one given
        for names in [("flight",), ALL]:
            facets = _fresh(names)
            with activate(**facets) as got:
                assert got is facets[names[0]]
                _assert_scope({**NULLS, **facets})
            _assert_scope(NULLS)

    def test_activations_nest(self):
        t1, t2 = Tracer(), Tracer()
        with activate(t1):
            with activate(t2):
                assert current() is t2
            assert current() is t1
        assert current() is NULL_TRACER
        for outer, inner in [
            (("tracer",), ("flight",)),  # a flight-only scope keeps the tracer
            (ALL, ("flight",)),
            (("flight",), ALL),
        ]:
            o, i = _fresh(outer), _fresh(inner)
            with activate(**o):
                _assert_scope({**NULLS, **o})
                with activate(**i):
                    _assert_scope({**NULLS, **o, **i})
                _assert_scope({**NULLS, **o})
            _assert_scope(NULLS)

    def test_restores_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with activate(tr):
                raise RuntimeError("boom")
        assert current() is NULL_TRACER
        for names in [("flight",), ALL]:
            outer = _fresh(["tracer"])
            with activate(**outer):
                with pytest.raises(RuntimeError):
                    with activate(**_fresh(names)):
                        raise RuntimeError("boom")
                _assert_scope({**NULLS, **outer})
            _assert_scope(NULLS)

    def test_instrumented_code_records_only_when_active(self):
        import numpy as np

        import repro.graphblas as gb
        from repro.graphblas import Matrix, Vector, semirings as sr

        A = Matrix.adjacency(3, [0, 1], [1, 2])
        u = Vector.dense(np.ones(3, dtype=np.int64))
        out = Vector.empty(3)

        gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, u)  # not active: no spans
        tr = Tracer()
        with activate(tr):
            gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, u)
        assert [r.name for r in tr.roots] == ["mxv"]
        gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, u)  # deactivated again
        assert len(tr.roots) == 1


class TestSerialization:
    """Span/Tracer dict round-trip — the wire format of the proc obs
    frames."""

    def _tracer(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("collective", "collective", iteration=2, step="shortcut"):
            with tr.span("ring_send", "rank", dst=1) as sp:
                sp.add("bytes", 64)
        with tr.span("cmd_wait", "rank"):
            pass
        return tr

    def test_round_trip_preserves_everything(self):
        tr = self._tracer()
        clone = Tracer.from_dicts(tr.to_dicts())
        assert len(clone.roots) == 2
        a, b = clone.roots
        assert (a.name, a.cat) == ("collective", "collective")
        assert a.attrs == {"iteration": 2, "step": "shortcut"}
        assert a.t0 == tr.roots[0].t0 and a.t1 == tr.roots[0].t1
        (send,) = a.children
        assert send.counters == {"bytes": 64}
        assert send.attrs == {"dst": 1}
        assert (b.name, b.t0) == ("cmd_wait", tr.roots[1].t0)

    def test_round_trip_through_json(self):
        import json as _json

        tr = self._tracer()
        wire = _json.loads(_json.dumps(tr.to_dicts()))
        clone = Tracer.from_dicts(wire)
        assert clone.to_dicts() == tr.to_dicts()

    def test_open_span_round_trips_as_open(self):
        """An open span serializes with ``t1=None`` and stays open after
        the round trip (the exporter skips it)."""
        tr = Tracer(clock=FakeClock())
        with tr.span("closed"):
            pass
        tr.span("open").__enter__()
        clone = Tracer.from_dicts(tr.to_dicts())
        states = {s.name: s.t1 for s in clone.roots}
        assert states["closed"] is not None
        assert states["open"] is None
