"""The driver table: lookup by callable, call forms and the shrink rule."""

import subprocess
import sys

import pytest

from repro.core.drivers import DRIVERS, driver_of
from repro.graphs import generators as gen
from repro.graphs.validate import ground_truth, same_partition


class TestShrinkRule:
    @pytest.mark.parametrize("name,old,lost,min_ranks,new", [
        ("spmd", 4, 1, 1, 3),
        ("spmd", 4, 2, 1, 2),
        ("spmd", 4, 1, 4, None),  # already at min_ranks
        ("2d", 4, 1, 1, 1),
        ("2d", 9, 1, 1, 4),
        ("2d", 16, 1, 1, 9),
        ("2d", 4, 1, 2, None),  # no square in [2, 3]
        ("2d", 1, 1, 1, None),
    ])
    def test_new_rank_count(self, name, old, lost, min_ranks, new):
        assert DRIVERS[name].shrink(old, lost, min_ranks) == new

    @pytest.mark.parametrize("name", ["serial", "dist"])
    def test_drivers_without_ranks_never_shrink(self, name):
        assert DRIVERS[name].runs_at is None
        assert DRIVERS[name].shrink(4, 1) is None


class TestLookup:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_driver_of_finds_each_entry(self, name):
        assert driver_of(DRIVERS[name].fn) is DRIVERS[name]

    def test_unknown_callable_is_not_in_the_table(self):
        assert driver_of(lambda g, ranks=4: None) is None
        assert driver_of(sorted) is None

    def test_table_imports_no_driver(self):
        code = (
            "import sys\n"
            "from repro.core.drivers import DRIVERS, driver_of\n"
            "driver_of(print)\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('repro.core.lacc_dist', 'repro.core.lacc_spmd',\n"
            "     'repro.core.lacc_2d', 'scipy'))))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_every_call_form_runs(name):
    g = gen.component_mixture([12, 7, 3], seed=4)
    args, kwargs = DRIVERS[name].call(g, ranks=4, machine="edison", nodes=1)
    res = DRIVERS[name].fn(*args, **kwargs)
    assert same_partition(res.labels, ground_truth(g))
