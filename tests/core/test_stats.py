"""Tests for the statistics/instrumentation module."""

from repro.core.stats import STEPS, IterationStats, LACCStats


class TestIterationStats:
    def test_total_seconds(self):
        it = IterationStats(iteration=1)
        it.step_seconds = {"cond_hook": 0.5, "shortcut": 0.25}
        assert it.total_seconds == 0.75

    def test_defaults(self):
        it = IterationStats(iteration=3)
        assert it.cond_hooks == 0 and it.step_seconds == {}


class TestLACCStats:
    def make(self, convs, n=100):
        s = LACCStats(n_vertices=n)
        for i, c in enumerate(convs, 1):
            it = IterationStats(iteration=i, converged_vertices=c)
            it.step_seconds = {"cond_hook": 1.0, "uncond_hook": 0.5}
            it.step_model_seconds = {"cond_hook": 2.0}
            s.iterations.append(it)
        return s

    def test_converged_fraction(self):
        s = self.make([25, 50, 100])
        assert s.converged_fraction() == [0.25, 0.5, 1.0]

    def test_converged_fraction_zero_vertices(self):
        s = LACCStats(n_vertices=0)
        s.iterations.append(IterationStats(iteration=1))
        assert s.converged_fraction() == [1.0]

    def test_step_totals_wall(self):
        s = self.make([10, 20])
        totals = s.step_totals()
        assert totals["cond_hook"] == 2.0
        assert totals["uncond_hook"] == 1.0
        assert totals["shortcut"] == 0.0

    def test_step_totals_model(self):
        s = self.make([10])
        totals = s.step_totals(model=True)
        assert totals["cond_hook"] == 2.0
        assert totals["uncond_hook"] == 0.0

    def test_total_seconds(self):
        s = self.make([10, 20])
        assert s.total_seconds() == 3.0
        assert s.total_seconds(model=True) == 4.0  # 2.0 per iteration

    def test_n_iterations(self):
        assert self.make([1, 2, 3]).n_iterations == 3

    def test_steps_constant(self):
        assert STEPS == ("cond_hook", "starcheck", "uncond_hook", "shortcut")

