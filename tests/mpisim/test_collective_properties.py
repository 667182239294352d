"""Property tests on the collective cost formulas: monotonicity,
additivity, and the latency/bandwidth trade-offs the §V-B optimisations
exploit — plus conservation laws on the literal :class:`SimComm`
collectives and the traffic patterns they carry (what goes in comes out,
byte for byte, with or without injected transient faults)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import preset
from repro.mpisim import EDISON, CostModel, SimComm, collectives

ranks = st.sampled_from([2, 4, 16, 64, 256, 1024])
words = st.floats(min_value=1.0, max_value=1e7)


def fresh(p=64):
    return CostModel(EDISON, p, max(p // 4, 2))


class TestMonotonicity:
    @settings(max_examples=30)
    @given(ranks, words)
    def test_more_words_cost_more(self, p, w):
        c1, c2 = fresh(), fresh()
        collectives.allgather(c1, p, w)
        collectives.allgather(c2, p, 2 * w)
        assert c2.total_seconds > c1.total_seconds

    @settings(max_examples=30)
    @given(words)
    def test_more_ranks_cost_more_pairwise(self, w):
        c1, c2 = fresh(), fresh()
        collectives.alltoallv_pairwise(c1, 16, w)
        collectives.alltoallv_pairwise(c2, 1024, w)
        assert c2.total_seconds > c1.total_seconds

    @settings(max_examples=30)
    @given(ranks, words)
    def test_bcast_no_cheaper_than_p2p(self, p, w):
        """A broadcast reaches p ranks; it can't beat one point-to-point
        message of the same payload."""
        c1, c2 = fresh(), fresh()
        collectives.bcast(c1, p, w)
        c2.charge_comm(w, 1)
        assert c1.total_seconds >= c2.total_seconds


class TestAdditivity:
    @settings(max_examples=20)
    @given(ranks, words, words)
    def test_charges_accumulate(self, p, w1, w2):
        c_both = fresh()
        collectives.allgather(c_both, p, w1)
        collectives.allgather(c_both, p, w2)
        c_a, c_b = fresh(), fresh()
        collectives.allgather(c_a, p, w1)
        collectives.allgather(c_b, p, w2)
        assert c_both.total_seconds == pytest.approx(
            c_a.total_seconds + c_b.total_seconds
        )

    @settings(max_examples=20)
    @given(ranks, words)
    def test_words_bookkeeping_matches(self, p, w):
        c = fresh()
        collectives.allgather(c, p, w)
        assert c.total_words == pytest.approx((p - 1) * w)


class TestTradeoffs:
    @settings(max_examples=30)
    @given(words)
    def test_hypercube_vs_pairwise_crossover_in_p(self, w):
        """At large p the hypercube always wins on latency-dominated
        payloads; at tiny payload thresholds this must hold for p=1024."""
        p = 1024
        c_h, c_p = fresh(p), fresh(p)
        collectives.alltoallv_hypercube(c_h, p, 1.0)
        collectives.alltoallv_pairwise(c_p, p, 1.0)
        assert c_h.total_seconds < c_p.total_seconds

    @settings(max_examples=30)
    @given(st.integers(min_value=2, max_value=64))
    def test_sparse_alltoall_never_worse_than_full(self, active):
        c_s, c_f = fresh(), fresh()
        collectives.alltoallv_sparse(c_s, active, 100.0)
        collectives.alltoallv_hypercube(c_f, 64, 100.0)
        assert c_s.total_seconds <= c_f.total_seconds + 1e-12

    def test_allreduce_decomposition_exact(self):
        c1 = fresh()
        collectives.allreduce(c1, 16, 1600.0)
        c2 = fresh()
        collectives.reduce_scatter(c2, 16, 1600.0)
        collectives.allgather(c2, 16, 100.0)
        assert c1.total_seconds == pytest.approx(c2.total_seconds)


# ----------------------------------------------------------------------
# conservation laws on the literal SimComm collectives
# ----------------------------------------------------------------------

comm_sizes = st.sampled_from([2, 3, 4, 5])
data_seeds = st.integers(min_value=0, max_value=2**31 - 1)
fault_plans = st.sampled_from([None, "flaky", "outage"])


def _payloads(rng, p, max_len=8):
    """Random int64 buffers, one per rank, including empties."""
    return [
        rng.integers(-1000, 1000, int(rng.integers(0, max_len))).astype(np.int64)
        for _ in range(p)
    ]


def _comm(p, plan_name, seed):
    plan = preset(plan_name, seed=seed) if plan_name else None
    return SimComm(p, faults=plan)


class TestSimCommConservation:
    """No collective may create, destroy, or reorder payload — even when
    transient faults force retransmissions."""

    @settings(max_examples=25, deadline=None)
    @given(comm_sizes, data_seeds, fault_plans)
    def test_alltoallv_is_exact_transpose(self, p, seed, plan_name):
        rng = np.random.default_rng(seed)
        send = [[np.asarray(b) for b in _payloads(rng, p)] for _ in range(p)]
        recv = _comm(p, plan_name, seed).alltoallv(send)
        for i in range(p):
            for j in range(p):
                np.testing.assert_array_equal(recv[j][i], send[i][j])

    @settings(max_examples=25, deadline=None)
    @given(comm_sizes, data_seeds, fault_plans)
    def test_allgather_is_concatenation_everywhere(self, p, seed, plan_name):
        """Allgather pattern: every rank sends its buffer to every rank."""
        rng = np.random.default_rng(seed)
        bufs = _payloads(rng, p)
        out = _comm(p, plan_name, seed).alltoallv([[b] * p for b in bufs])
        want = np.concatenate(bufs)
        assert len(out) == p
        for got in out:
            np.testing.assert_array_equal(np.concatenate(got), want)

    @settings(max_examples=25, deadline=None)
    @given(comm_sizes, data_seeds, fault_plans)
    def test_bcast_replicates_root(self, p, seed, plan_name):
        """Broadcast pattern: the root sends its buffer to every rank."""
        rng = np.random.default_rng(seed)
        root = int(rng.integers(0, p))
        data = rng.integers(-50, 50, 6).astype(np.int64)
        nothing = np.empty(0, dtype=np.int64)
        send = [[data if i == root else nothing] * p for i in range(p)]
        out = _comm(p, plan_name, seed).alltoallv(send)
        for got in out:
            np.testing.assert_array_equal(got[root], data)
            assert sum(b.size for b in got) == data.size

    @settings(max_examples=25, deadline=None)
    @given(comm_sizes, data_seeds, fault_plans)
    def test_reduce_scatter_is_reduce_then_split(self, p, seed, plan_name):
        """Reduce-scatter pattern: rank *i* sends block *j* of its buffer
        to rank *j*, which sums the blocks it received."""
        rng = np.random.default_rng(seed)
        blk = int(rng.integers(1, 5))
        bufs = [rng.integers(-99, 99, p * blk).astype(np.int64) for _ in range(p)]
        send = [[b[j * blk : (j + 1) * blk] for j in range(p)] for b in bufs]
        out = _comm(p, plan_name, seed).alltoallv(send)
        total = np.sum(bufs, axis=0)
        for r in range(p):
            np.testing.assert_array_equal(
                np.sum(out[r], axis=0), total[r * blk : (r + 1) * blk]
            )

    @settings(max_examples=25, deadline=None)
    @given(comm_sizes, data_seeds, fault_plans)
    def test_allreduce_total_on_every_rank(self, p, seed, plan_name):
        rng = np.random.default_rng(seed)
        bufs = [rng.integers(-99, 99, 4).astype(np.int64) for _ in range(p)]
        out = _comm(p, plan_name, seed).allreduce(bufs, np.add)
        total = np.sum(bufs, axis=0)
        for got in out:
            np.testing.assert_array_equal(got, total)

    @settings(max_examples=25, deadline=None)
    @given(comm_sizes, data_seeds)
    def test_words_sent_equals_words_received(self, p, seed):
        """Bookkeeping conservation: the alltoallv span's per-rank send
        totals and recv totals both sum to the same global word count."""
        from repro.obs import Tracer, activate

        rng = np.random.default_rng(seed)
        send = [[np.asarray(b) for b in _payloads(rng, p)] for _ in range(p)]
        tr = Tracer()
        with activate(tr):
            SimComm(p).alltoallv(send)
        (span,) = tr.find("alltoallv", "simcomm")
        assert sum(span.attrs["rank_send_totals"]) == sum(span.attrs["rank_recv_totals"])

    @settings(max_examples=15, deadline=None)
    @given(comm_sizes, data_seeds)
    def test_faulted_matches_fault_free(self, p, seed):
        """A transient fault plan changes timing, never payload."""
        rng = np.random.default_rng(seed)
        send = [[np.asarray(b) for b in _payloads(rng, p)] for _ in range(p)]
        clean = SimComm(p).alltoallv([[b.copy() for b in row] for row in send])
        faulted = _comm(p, "flaky", seed).alltoallv(send)
        for i in range(p):
            for j in range(p):
                np.testing.assert_array_equal(faulted[i][j], clean[i][j])
