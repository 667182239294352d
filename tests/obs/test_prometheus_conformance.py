"""Prometheus text-exposition conformance (format 0.0.4).

A structural parse of :meth:`MetricRegistry.to_prometheus` output,
including the output of a real instrumented LACC run: every metric
family must carry ``# HELP`` and ``# TYPE`` lines, histograms must
expose cumulative buckets ending in ``+Inf`` plus ``_sum``/``_count``,
and label values must escape backslash, double-quote and newline per
the format (HELP text escapes backslash and newline only).
"""

import re

import pytest

from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import activate

SAMPLE_RE = re.compile(
    r"^(?P<family>[a-zA-Z_:][a-zA-Z0-9_:]*?)"
    r"(?:_(?:bucket|sum|count))?"
    r"(?P<labels>\{.*\})?\s+(?P<value>\S+)$"
)


def parse_exposition(text):
    """Split exposition text into {family: {"help","type","samples"}}."""
    families = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            current = families.setdefault(
                name, {"help": None, "type": None, "samples": []}
            )
            current["help"] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(
                name, {"help": None, "type": None, "samples": []}
            )["type"] = kind
        elif line.startswith("#"):
            continue
        else:
            assert current is not None, f"sample before any family: {line!r}"
            families[max(
                (n for n in families if line.startswith(n)), key=len
            )]["samples"].append(line)
    return families


def _assert_conformant(text):
    families = parse_exposition(text)
    assert families, "no families emitted"
    for name, fam in families.items():
        assert fam["help"], f"{name}: missing # HELP"
        assert fam["type"] in ("counter", "gauge", "histogram"), \
            f"{name}: bad/missing # TYPE ({fam['type']!r})"
        assert fam["samples"], f"{name}: family with no samples"
        for s in fam["samples"]:
            assert SAMPLE_RE.match(s), f"{name}: unparseable sample {s!r}"
        if fam["type"] == "histogram":
            buckets = [s for s in fam["samples"] if s.startswith(f"{name}_bucket")]
            infs = [s for s in buckets if 'le="+Inf"' in s]
            sums = [s for s in fam["samples"] if s.startswith(f"{name}_sum")]
            counts = [s for s in fam["samples"] if s.startswith(f"{name}_count")]
            assert infs, f"{name}: histogram without le=+Inf bucket"
            assert sums and counts, f"{name}: histogram missing _sum/_count"
            # buckets are cumulative: the +Inf bucket equals _count
            inf_val = float(infs[-1].rsplit(" ", 1)[1])
            count_val = float(counts[-1].rsplit(" ", 1)[1])
            assert inf_val == count_val
    return families


def test_synthetic_registry_is_conformant():
    reg = MetricRegistry()
    reg.counter("lacc_words_total", help="words moved").inc(128)
    reg.counter("lacc_words_total", phase="starcheck").inc(64)
    reg.gauge("lacc_active_fraction", help="active vertex share").set(0.25)
    h = reg.histogram("lacc_message_bytes", help="per-message payload")
    for v in (10.0, 100.0, 1000.0, 100000.0):
        h.observe(v)
    families = _assert_conformant(reg.to_prometheus())
    assert set(families) == {
        "lacc_words_total", "lacc_active_fraction", "lacc_message_bytes"
    }
    assert families["lacc_words_total"]["type"] == "counter"
    assert families["lacc_message_bytes"]["type"] == "histogram"


def test_missing_help_gets_generated_fallback():
    reg = MetricRegistry()
    reg.counter("undocumented_total").inc()
    families = _assert_conformant(reg.to_prometheus())
    assert families["undocumented_total"]["help"]  # non-empty fallback


def test_label_values_escape_backslash_quote_and_newline():
    reg = MetricRegistry()
    reg.counter(
        "weird_total",
        path='C:\\graphs\\a "big" one\nline2',
    ).inc()
    text = reg.to_prometheus()
    (sample,) = [
        line for line in text.splitlines() if line.startswith("weird_total{")
    ]
    assert '\\\\' in sample          # backslash doubled
    assert '\\"' in sample           # quote escaped
    assert '\\n' in sample           # newline escaped
    assert "\n" not in sample        # and not literal
    _assert_conformant(text)


def test_help_text_escapes_backslash_and_newline_not_quotes():
    reg = MetricRegistry()
    reg.counter("doc_total", help='a\\b\nsaid "hi"').inc()
    (help_line,) = [
        line for line in reg.to_prometheus().splitlines()
        if line.startswith("# HELP doc_total ")
    ]
    assert "a\\\\b\\nsaid" in help_line
    assert '"hi"' in help_line       # quotes NOT escaped in HELP


def test_real_lacc_dist_run_exposition_is_conformant():
    from repro.core.lacc_dist import lacc_dist
    from repro.graphs import corpus
    from repro.mpisim import EDISON

    A = corpus.load("archaea").to_matrix()
    reg = MetricRegistry()
    with activate(metrics=reg):
        lacc_dist(A, EDISON, nodes=4)
    families = _assert_conformant(reg.to_prometheus())
    assert len(families) >= 3  # the instrumented layers actually emitted


def test_empty_registry_emits_nothing():
    assert MetricRegistry().to_prometheus() == ""
