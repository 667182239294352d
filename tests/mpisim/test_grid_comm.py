"""Tests for ProcessGrid ownership maps and SimComm data movement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpisim import ProcessGrid, SimComm


class TestProcessGrid:
    def test_square_enforced(self):
        with pytest.raises(ValueError):
            ProcessGrid(6, 100)  # not a perfect square

    def test_valid_sizes(self):
        for p in (1, 4, 9, 16, 1024):
            g = ProcessGrid(p, 100)
            assert g.side ** 2 == p

    def test_coords_roundtrip(self):
        g = ProcessGrid(9, 90)
        for r in range(9):
            i, j = g.coords(r)
            assert g.rank_of(i, j) == r

    def test_coords_out_of_range(self):
        with pytest.raises(ValueError):
            ProcessGrid(4, 10).coords(4)

    def test_vec_owner_blocks(self):
        g = ProcessGrid(4, 100)  # 25 elements per rank
        np.testing.assert_array_equal(
            g.vec_owner(np.array([0, 24, 25, 99])), [0, 0, 1, 3]
        )

    def test_vec_owner_clamped(self):
        # n not divisible by p: trailing elements clamp to the last rank
        g = ProcessGrid(4, 10)  # ceil(10/4)=3 per rank
        assert g.vec_owner(np.array([9]))[0] == 3

    def test_vec_counts(self):
        g = ProcessGrid(4, 8)
        counts = g.vec_counts(np.array([0, 0, 3, 7]))
        np.testing.assert_array_equal(counts, [2, 1, 0, 1])

    def test_edge_owner(self):
        g = ProcessGrid(4, 8)  # 2x2 grid, 4-wide blocks
        # edge (0, 5): block row 0, block col 1 -> rank 1
        assert g.edge_owner(np.array([0]), np.array([5]))[0] == 1
        # edge (6, 6): block (1,1) -> rank 3
        assert g.edge_owner(np.array([6]), np.array([6]))[0] == 3

    def test_local_range_partition(self):
        g = ProcessGrid(4, 10)
        ranges = [g.local_range(r) for r in range(4)]
        covered = []
        for lo, hi in ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(10))

    def test_single_rank(self):
        g = ProcessGrid(1, 5)
        assert g.vec_owner(np.arange(5)).max() == 0
        assert g.local_range(0) == (0, 5)

    @settings(max_examples=25)
    @given(
        st.sampled_from([1, 4, 9, 16, 25]),
        st.integers(min_value=1, max_value=500),
    )
    def test_ownership_total(self, p, n):
        """Every vector element is owned by exactly one rank and the
        bincount over all indices equals the local range sizes."""
        g = ProcessGrid(p, n)
        counts = g.vec_counts(np.arange(n))
        sizes = np.array([hi - lo for lo, hi in (g.local_range(r) for r in range(p))])
        np.testing.assert_array_equal(counts, sizes)


class TestSimComm:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            SimComm(0)

    # The rooted and gathering patterns run through alltoallv, the one
    # personalised collective a communicator has.
    def test_bcast(self):
        c = SimComm(3)
        nothing = np.empty(0, dtype=np.int64)
        send = [[np.array([1, 2])] * 3, [nothing] * 3, [nothing] * 3]
        for row in c.alltoallv(send):
            np.testing.assert_array_equal(row[0], [1, 2])

    def test_bcast_copies(self):
        c = SimComm(2)
        src = np.array([1])
        out = c.alltoallv([[src, src], [np.array([2]), np.array([2])]])
        out[1][0][0] = 99
        assert src[0] == 1

    def test_allgather(self):
        c = SimComm(3)
        bufs = [np.array([0]), np.array([1, 1]), np.array([2])]
        for row in c.alltoallv([[b] * 3 for b in bufs]):
            np.testing.assert_array_equal(np.concatenate(row), [0, 1, 1, 2])

    def test_gather(self):
        c = SimComm(2)
        nothing = np.empty(0, dtype=np.int64)
        out = c.alltoallv([[nothing, np.array([1])], [nothing, np.array([2])]])
        assert sum(b.size for b in out[0]) == 0
        np.testing.assert_array_equal(np.concatenate(out[1]), [1, 2])

    def test_scatter(self):
        c = SimComm(2)
        nothing = np.empty(0, dtype=np.int64)
        out = c.alltoallv([[np.array([1]), np.array([2])], [nothing, nothing]])
        np.testing.assert_array_equal(out[1][0], [2])

    def test_scatter_validation(self):
        """A root row that misses a rank is rejected."""
        nothing = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            SimComm(2).alltoallv([[np.array([1])], [nothing, nothing]])

    def test_alltoallv(self):
        c = SimComm(2)
        send = [
            [np.array([0]), np.array([1])],  # rank0 -> (r0, r1)
            [np.array([10]), np.array([11])],  # rank1 -> (r0, r1)
        ]
        recv = c.alltoallv(send)
        np.testing.assert_array_equal(recv[0][1], [10])  # r0 got from r1
        np.testing.assert_array_equal(recv[1][0], [1])  # r1 got from r0

    def test_alltoallv_validation(self):
        c = SimComm(2)
        with pytest.raises(ValueError):
            c.alltoallv([[np.array([0])], [np.array([1])]])

    def test_buffer_count_validation(self):
        with pytest.raises(ValueError):
            SimComm(3).allreduce([np.array([0])], np.add)

    def test_reduce_scatter_block(self):
        """Reduce-scatter pattern: rank *i* sends block *j* of its buffer
        to rank *j*, which sums what it received."""
        c = SimComm(2)
        bufs = [np.array([1, 2, 3, 4]), np.array([10, 20, 30, 40])]
        out = c.alltoallv([[b[:2], b[2:]] for b in bufs])
        np.testing.assert_array_equal(np.sum(out[0], axis=0), [11, 22])
        np.testing.assert_array_equal(np.sum(out[1], axis=0), [33, 44])

    def test_reduce_scatter_length_checks(self):
        """A reduction over buffers of unequal shape is a caller error."""
        with pytest.raises(ValueError, match="one shape"):
            SimComm(2).allreduce([np.arange(3), np.arange(4)], np.add)

    def test_allreduce(self):
        c = SimComm(3)
        out = c.allreduce([np.array([1]), np.array([2]), np.array([3])], np.maximum)
        for o in out:
            assert o[0] == 3

    def test_distributed_spmv_matches_serial(self):
        """End-to-end SimComm sanity: the literal 2D-distributed SpMV
        (one alltoallv gather, one alltoallv route) equals the serial
        product."""
        import repro.graphblas as gb
        from repro.combblas import DistMatrix
        from repro.combblas.spmv import dist_mxv
        from repro.graphs import generators as gen

        g = gen.erdos_renyi(12, 3.0, seed=0)
        grid = ProcessGrid(4, g.n)
        dm = DistMatrix(g.to_matrix(), grid, permute=False)
        x = np.random.default_rng(0).integers(0, 100, g.n)
        blocks = []
        for r in range(4):
            lo, hi = grid.local_range(r)
            blocks.append((np.arange(hi - lo), x[lo:hi]))
        ring = gb.semirings.SEL2ND_MIN_INT64
        out = dist_mxv(dm, blocks, ring, SimComm(4))
        want = gb.Vector.empty(g.n, np.int64)
        gb.mxv(want, None, None, ring, g.to_matrix(), gb.Vector.dense(x))
        got = gb.Vector.sparse(
            g.n,
            np.concatenate([li + grid.local_range(r)[0] for r, (li, _) in enumerate(out)]),
            np.concatenate([v for _, v in out]),
        )
        assert got.isequal(want)


def _exchange(r, p):
    """A rank program: one named step, one alltoallv sending ``r`` to
    every rank, one allreduce of what arrived; returns both."""
    yield "exchange"
    row = yield [np.full(2, r) for _ in range(p)]
    total = yield np.concatenate(row)
    return [int(m[0]) for m in row], total.tolist()


class TestRunRanks:
    def test_values_words_and_step_spans(self):
        from repro.obs import Tracer, activate

        tr = Tracer()
        with activate(tr):
            values, words = SimComm(3).run_ranks([_exchange(r, 3) for r in range(3)])
        assert values == [([0, 1, 2], [0, 0, 3, 3, 6, 6])] * 3
        assert words == 2 * 3 * 2  # two words to each of the two other ranks
        (step,) = tr.find(cat="step")
        assert step.name == "exchange"
        assert [sp.name for sp in step.find(cat="simcomm")] == ["alltoallv", "allreduce"]

    def test_a_failed_collective_closes_the_step_span(self):
        from repro.faults import CollectiveError, preset
        from repro.obs import Tracer, activate

        tr = Tracer()
        comm = SimComm(2, faults=preset("permanent", seed=0, after=1))
        with activate(tr), pytest.raises(CollectiveError):
            with tr.span("iteration", "iteration", iteration=1):
                comm.run_ranks([_exchange(r, 2) for r in range(2)])
        (it,) = tr.find("iteration")
        (step,) = it.find(cat="step")
        assert "CollectiveError" in step.attrs["error"]
        assert it.t1 is not None and tr.current is None

    def test_programs_out_of_lockstep_raise(self):
        def short(r, p):
            yield "exchange"

        with pytest.raises(RuntimeError, match="lockstep"):
            SimComm(2).run_ranks([_exchange(0, 2), short(1, 2)])
