"""Tests for the terminal renderers: error-span marking and the
counters-column guard in :mod:`repro.obs.render`."""

import pytest

from repro.obs import Tracer
from repro.obs.render import flamegraph, top_table


def _tracer_with(spans):
    """Build a flat trace; *spans* is a list of (name, counters, error)."""
    tr = Tracer()
    for name, counters, error in spans:
        try:
            with tr.span(name, "step") as sp:
                for k, v in (counters or {}).items():
                    sp.add(k, v)
                if error:
                    raise RuntimeError(error)
        except RuntimeError:
            pass
    return tr


class TestTopTable:
    def test_counterless_rows_show_dash_not_zero(self):
        tr = _tracer_with([
            ("with_counters", {"flops": 100, "words": 5}, None),
            ("no_counters", None, None),
        ])
        lines = top_table(tr).splitlines()
        counted = next(l for l in lines if "with_counters" in l)
        bare = next(l for l in lines if "no_counters" in l)
        assert "100" in counted and "5" in counted
        # a span that never measured is "-", distinct from a measured zero
        assert bare.split()[-3:] == ["-", "-", "-"]

    def test_measured_zero_stays_zero(self):
        tr = _tracer_with([("zero", {"flops": 0}, None)])
        row = next(l for l in top_table(tr).splitlines() if "zero" in l)
        assert row.split()[-3:] == ["0", "0", "0"]

    def test_errored_aggregate_is_marked(self):
        tr = _tracer_with([
            ("flaky", None, "boom"),
            ("flaky", None, None),
            ("clean", None, None),
        ])
        out = top_table(tr)
        header = out.splitlines()[0]
        assert "errs" in header
        flaky = next(l for l in out.splitlines() if "flaky" in l)
        clean = next(l for l in out.splitlines() if "clean" in l)
        assert "flaky!" in flaky
        assert flaky.split()[-1] == "1"  # one of two calls errored
        assert "clean!" not in clean
        assert clean.split()[-1] == "-"

    def test_no_errs_column_without_errors(self):
        tr = _tracer_with([("clean", None, None)])
        assert "errs" not in top_table(tr).splitlines()[0]

    def test_invalid_by_rejected(self):
        with pytest.raises(ValueError):
            top_table(Tracer(), by="calls")

    def test_empty_tracer(self):
        assert top_table(Tracer()) == "(no spans recorded)"


class TestFlamegraph:
    def test_errored_span_annotated_first(self):
        tr = _tracer_with([("doomed", {"flops": 3}, "kaput")])
        line = next(l for l in flamegraph(tr).splitlines() if "doomed" in l)
        assert "ERROR:" in line and "kaput" in line
        # the error note leads the annotation, before counters
        assert line.index("ERROR:") < line.index("flops=3")

    def test_clean_span_not_annotated(self):
        tr = _tracer_with([("fine", None, None)])
        assert "ERROR" not in flamegraph(tr)


class TestHtmlTimeline:
    def _record(self):
        from repro.obs.flight import FlightRecorder

        fr = FlightRecorder(run_id="render-test", clock=lambda: 0.001)
        fr.record("run_start", driver="dist", graph="g", ranks=4)
        fr.record("iteration", iteration=1, active_vertices=100)
        fr.record("step", iteration=1, step="starcheck", lam=1.2,
                  requests=500.0, worst_rank=0)
        fr.record("fault", iteration=1, rank=3, fault_kind="delay",
                  collective="alltoallv", delay_factor=4.0)
        fr.record("run_end", n_iterations=1, n_components=7)
        return fr

    #: the verdict the timeline draws over the record's fault (seq 4)
    STRAGGLER = {"detector": "straggler", "severity": "warning",
                 "message": "rank 3 slow", "first_iteration": 1,
                 "last_iteration": 1, "rank": 3, "evidence": [4]}

    def test_self_contained_document(self):
        from repro.obs.render import html_timeline

        page = html_timeline(self._record().events, [self.STRAGGLER])
        assert page.lstrip().startswith("<!DOCTYPE html")
        assert "</html>" in page and "<svg" in page
        assert "<script" not in page        # no JS: opens anywhere
        assert 'href="http' not in page     # no external fetches
        assert "render-test" in page

    def test_anomaly_table_and_lanes(self):
        from repro.obs.render import html_timeline

        page = html_timeline(self._record().events, [self.STRAGGLER])
        assert "rank 3 slow" in page
        assert "straggler" in page
        for lane in ("iteration", "step", "fault"):
            assert lane in page

    def test_clean_record_says_so(self):
        from repro.obs.flight import FlightRecorder
        from repro.obs.render import html_timeline

        fr = FlightRecorder(clock=lambda: 0.001)
        fr.record("run_start", driver="dist")
        fr.record("run_end", n_iterations=1)
        assert "no anomalies" in html_timeline(fr.events, [])

    def test_html_escapes_event_payloads(self):
        from repro.obs.anomaly import Anomaly
        from repro.obs.flight import FlightRecorder
        from repro.obs.render import html_timeline

        fr = FlightRecorder(clock=lambda: 0.001)
        fr.record("run_start", driver="dist")
        fr.record("iteration", iteration=1, active_vertices=10)
        fr.record("run_end")
        verdict = Anomaly(detector="test", severity="warning",
                          message='<script>alert("x")</script>', evidence=[2])
        page = html_timeline(fr.events, [verdict.to_dict()])
        assert "<script" not in page
        assert "&lt;script&gt;" in page

    def test_write_html_timeline(self, tmp_path):
        from repro.obs.render import write_html_timeline

        path = str(tmp_path / "t.html")
        out = write_html_timeline(self._record().events, [self.STRAGGLER],
                                  path, title="T")
        assert out == path
        assert "<svg" in open(path).read()
