"""Unit tests for the individual LACC steps: hooking, starcheck, shortcut,
and the strengthened convergence check — including the Figure 1/2 worked
examples and the star-extension counterexample that motivated the
semantic Lemma-1 check."""

import numpy as np
import pytest

from repro.core.convergence import ActiveSet, converged_star_vertices
from repro.core.hooking import cond_hook, uncond_hook
from repro.core.shortcut import shortcut
from repro.core.starcheck import starcheck
from repro.graphblas import Matrix
from repro.graphs import generators as gen


def parent_vec(values):
    return np.asarray(values, dtype=np.int64)


class TestStarcheck:
    def test_all_singletons_are_stars(self):
        f = np.arange(5)
        star = starcheck(f)
        assert star.all()

    def test_perfect_star(self):
        # root 0 with children 1..4
        f = parent_vec([0, 0, 0, 0, 0])
        assert starcheck(f).all()

    def test_depth3_chain_is_not_star(self):
        # 2 -> 1 -> 0
        f = parent_vec([0, 0, 1])
        star = starcheck(f)
        assert not star.any()

    def test_depth3_marks_level2_vertices(self):
        """The level-2 fixup (Alg 6 lines 12-14) must not resurrect
        level-3 vertices whose parent is transiently flagged — the bug
        class our reproduction found in the naive overwrite reading."""
        # root 0; children 1, 2; grandchildren 4 (under 1), and 3 (under 2)
        f = parent_vec([0, 0, 0, 2, 1])
        star = starcheck(f)
        assert not star.any()

    def test_mixed_forest(self):
        # star {0,1}; chain 4->3->2
        f = parent_vec([0, 0, 2, 2, 3])
        star = starcheck(f)
        np.testing.assert_array_equal(star, [True, True, False, False, False])

    def test_deep_tree(self):
        # chain of length 6
        f = parent_vec([0, 0, 1, 2, 3, 4])
        assert not starcheck(f).any()

    def test_active_scoping_reports_inactive_as_stars(self):
        f = parent_vec([0, 0, 2, 2, 3])  # vertices 2,3,4 form a chain
        active = np.array([True, True, False, False, False])
        star = starcheck(f, active)
        # inactive vertices are stars by fiat (converged), no work spent
        np.testing.assert_array_equal(star, [True, True, True, True, True])

    def test_empty_vector(self):
        star = starcheck(np.arange(0))
        assert star.size == 0

    def test_no_active_vertices(self):
        f = parent_vec([0, 0, 1])
        star = starcheck(f, np.zeros(3, dtype=bool))
        assert star.all()


class TestCondHook:
    def test_first_iteration_on_path(self):
        g = gen.path_graph(4)
        A = g.to_matrix()
        f = np.arange(4)
        star = starcheck(f)
        hooks = cond_hook(A, f, star)
        # every vertex > 0 hooks onto its smaller neighbour
        np.testing.assert_array_equal(f, [0, 0, 1, 2])
        assert hooks == 3

    def test_no_hook_without_improvement(self):
        # two singletons, no edges between them
        A = Matrix.adjacency(2, [], [])
        f = np.arange(2)
        star = starcheck(f)
        assert cond_hook(A, f, star) == 0

    def test_min_proposal_wins(self):
        # vertex 2 adjacent to 0 and 1: root 2 must hook onto min parent 0
        A = Matrix.adjacency(3, [2, 2], [0, 1])
        f = np.arange(3)
        star = starcheck(f)
        cond_hook(A, f, star)
        assert f[2] == 0

    def test_respects_star_mask(self):
        # chain 2->1->0 is a nonstar: no member may hook
        A = Matrix.adjacency(4, [3], [2])  # vertex 3 (star) adj to 2
        f = parent_vec([0, 0, 1, 3])
        star = starcheck(f)
        hooks = cond_hook(A, f, star)
        # vertex 3's neighbour parent f[2]=1 < 3: hook root 3 onto 1
        assert hooks == 1
        assert f[3] == 1

    def test_roots_strictly_decrease(self):
        rng = np.random.default_rng(3)
        g = gen.erdos_renyi(50, 2.0, seed=3)
        A = g.to_matrix()
        f = np.arange(50)
        star = starcheck(f)
        before = f.copy()
        cond_hook(A, f, star)
        after = f
        changed = before != after
        assert (after[changed] < before[changed]).all()

    def test_active_scope_prevents_hooks(self):
        g = gen.path_graph(4)
        A = g.to_matrix()
        f = np.arange(4)
        star = starcheck(f)
        hooks = cond_hook(A, f, star, active=np.zeros(4, dtype=bool))
        assert hooks == 0
        np.testing.assert_array_equal(f, np.arange(4))


class TestUncondHook:
    def test_vacuous_when_all_stars(self):
        """Iteration-1 guard below Lemma 2: with no nonstars the extract is
        empty and no star-on-star hook can fire."""
        g = gen.path_graph(4)
        A = g.to_matrix()
        f = np.arange(4)
        star = starcheck(f)
        assert uncond_hook(A, f, star) == 0

    def test_star_hooks_onto_nonstar(self):
        # nonstar chain 2->1->0; star {3,4} rooted at 3; edge 4-2
        A = Matrix.adjacency(5, [4], [2])
        f = parent_vec([0, 0, 1, 3, 3])
        star = starcheck(f)
        hooks = uncond_hook(A, f, star)
        assert hooks == 1
        assert f[3] == 1  # root 3 hooked onto f[2] = 1

    def test_hooks_even_against_id_order(self):
        # star {0,1} rooted at 0 (small id); nonstar 4->3->2; edge 1-4
        A = Matrix.adjacency(5, [1], [4])
        f = parent_vec([0, 0, 2, 2, 3])
        star = starcheck(f)
        hooks = uncond_hook(A, f, star)
        assert hooks == 1
        assert f[0] == 3  # root 0 hooked onto f[4]=3 despite 3 > 0

    def test_returns_tree_count_not_vertex_count(self):
        # big star {0..4} rooted 0; nonstar 7->6->5; two edges into it
        A = Matrix.adjacency(8, [1, 2], [7, 7])
        f = parent_vec([0, 0, 0, 0, 0, 5, 5, 6])
        star = starcheck(f)
        assert uncond_hook(A, f, star) == 1  # one tree hooked once


class TestShortcut:
    def test_halves_chain(self):
        f = parent_vec([0, 0, 1, 2, 3])
        changed = shortcut(f)
        np.testing.assert_array_equal(f, [0, 0, 0, 1, 2])
        assert changed == 3

    def test_fixpoint_on_star(self):
        f = parent_vec([0, 0, 0])
        assert shortcut(f) == 0
        np.testing.assert_array_equal(f, [0, 0, 0])

    def test_scope_restricts(self):
        f = parent_vec([0, 0, 1, 2, 3])
        shortcut(f, scope=np.array([False, False, True, False, False]))
        np.testing.assert_array_equal(f, [0, 0, 0, 2, 3])

    def test_empty_scope(self):
        f = parent_vec([0, 0, 1])
        assert shortcut(f, scope=np.zeros(3, dtype=bool)) == 0

    def test_zero_length(self):
        assert shortcut(np.arange(0)) == 0


class TestConvergedStars:
    def test_isolated_star_converged(self):
        # star {0,1}, star {2}: no edges outside either
        A = Matrix.adjacency(3, [0], [1])
        f = parent_vec([0, 0, 2])
        star = starcheck(f)
        conv = converged_star_vertices(A, f, star, None)
        np.testing.assert_array_equal(conv, [True, True, True])

    def test_star_with_external_edge_not_converged(self):
        # star {0,1} has an edge to star {2,3}
        A = Matrix.adjacency(4, [0, 1, 2], [1, 2, 3])
        f = parent_vec([0, 0, 2, 2])
        star = starcheck(f)
        conv = converged_star_vertices(A, f, star, None)
        assert not conv.any()

    def test_extension_counterexample_not_retired(self):
        """The exact scenario that breaks as-published Lemma 1: a star
        extended during conditional hooking leaves a pristine star's edge
        unused; the semantic check must keep that star active."""
        # After cond hooking: star S = {3, 4} (root 3); star R = {0, 1, 2}
        # where 2 just hooked onto 0.  Edge {4, 2} was never used.
        A = Matrix.adjacency(5, [0, 0, 3, 4], [1, 2, 4, 2])
        f = parent_vec([0, 0, 0, 3, 3])
        star = starcheck(f)
        assert star.all()  # both trees structurally stars
        conv = converged_star_vertices(A, f, star, None)
        assert not conv.any()  # neither may retire: they are one component

    def test_scoped_to_active(self):
        A = Matrix.adjacency(4, [0], [1])
        f = parent_vec([0, 0, 2, 3])
        star = starcheck(f)
        active = np.array([False, False, True, True])
        conv = converged_star_vertices(A, f, star, active)
        np.testing.assert_array_equal(conv, [False, False, True, True])


class TestActiveSet:
    def test_disabled_mask_is_none(self):
        a = ActiveSet(5, enabled=False)
        assert a.mask is None
        assert a.active_count == 5
        assert a.converged_count == 0

    def test_retire_counts(self):
        a = ActiveSet(5)
        n = a.retire(np.array([True, False, True, False, False]))
        assert n == 2
        assert a.active_count == 3
        # retiring again is idempotent
        assert a.retire(np.array([True, False, False, False, False])) == 0

    def test_all_converged(self):
        a = ActiveSet(2)
        assert not a.all_converged()
        a.retire(np.ones(2, dtype=bool))
        assert a.all_converged()

    def test_disabled_never_converges(self):
        a = ActiveSet(2, enabled=False)
        assert a.retire(np.ones(2, dtype=bool)) == 0
        assert not a.all_converged()
