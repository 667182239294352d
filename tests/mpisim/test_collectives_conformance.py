"""Cross-backend collectives conformance: ProcComm must be byte-identical
to SimComm.

The simulated communicator is the semantic reference; the real-process
backend runs the same two collectives, ``alltoallv`` and ``allreduce``,
with ranks as forked workers.  This suite runs both over both backends
across a dtype × shape × rank-count matrix (including empty buffers, 0-d
scalars, 2-D blocks and the rooted, gathering and ragged traffic
patterns of broadcast, allgather, gather, scatterv and reduce-scatter)
and requires the proc results to match the sim reference **byte for
byte** — same dtype, same shape, same bits — and malformed calls to fail
with the same error on both.

A watchdog alarm guards every test: a transport bug must surface as a
failure, never as a hung pytest process (the CI deadlock gate relies on
this).
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.mpisim import SimComm
from repro.mpisim.backend import make_comm, use

pytestmark = pytest.mark.parametrize("ranks", [1, 2, 3, 4])

DTYPES = [np.int64, np.int32, np.float64, np.bool_]

WATCHDOG_S = 60

#: per-rank buffer shapes of the traffic-pattern matrices
SHAPES = [(), (0,), (1,), (17,), (5, 3)]


@pytest.fixture(autouse=True)
def _watchdog():
    def _fire(signum, frame):
        raise TimeoutError(f"collective hung for {WATCHDOG_S}s (deadlock gate)")

    old = signal.signal(signal.SIGALRM, _fire)
    signal.alarm(WATCHDOG_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def fill(shape, dtype, rank, seed=0):
    rng = np.random.default_rng(1000 * seed + rank)
    if dtype is np.bool_:
        return rng.integers(0, 2, size=shape).astype(np.bool_)
    return rng.integers(-50, 50, size=shape).astype(dtype)


def assert_byte_identical(ref, got, ctx):
    assert type(ref) is type(got) or (ref is None) == (got is None), ctx
    if ref is None:
        assert got is None, ctx
        return
    ref, got = np.asarray(ref), np.asarray(got)
    assert ref.dtype == got.dtype, (ctx, ref.dtype, got.dtype)
    assert ref.shape == got.shape, (ctx, ref.shape, got.shape)
    assert ref.tobytes() == got.tobytes(), ctx


def run_both(ranks, call):
    """Invoke *call(comm)* on the sim reference and the proc backend."""
    ref = call(SimComm(ranks))
    with use("proc"):
        got = call(make_comm(ranks))
    return ref, got


def run_alltoallv(ranks, send, ctx):
    """alltoallv *send* on both backends; the proc result must match the
    sim reference byte for byte.  Returns the reference."""
    ref, got = run_both(ranks, lambda c: c.alltoallv(send))
    for j in range(ranks):
        for i in range(ranks):
            assert_byte_identical(ref[j][i], got[j][i], (*ctx, j, i))
    return ref


def nothing(dtype):
    return np.empty(0, dtype=dtype)


# The rooted and gathering traffic patterns below run through alltoallv,
# the one personalised collective a communicator has; they carry the 0-d,
# 2-D, bool and ragged buffers that test_alltoallv_matrix does not.


@pytest.mark.parametrize("dtype", DTYPES)
def test_bcast_matrix(ranks, dtype):
    """Broadcast pattern: the root sends its buffer to every rank."""
    for shape in SHAPES:
        for root in {0, ranks - 1}:
            data = fill(shape, dtype, root)
            send = [
                [data if i == root else nothing(dtype) for _ in range(ranks)]
                for i in range(ranks)
            ]
            ctx = ("bcast", dtype, shape, root)
            recv = run_alltoallv(ranks, send, ctx)
            for j in range(ranks):
                assert_byte_identical(data, recv[j][root], (*ctx, j))


@pytest.mark.parametrize("dtype", DTYPES)
def test_allgather_matrix(ranks, dtype):
    """Allgather pattern: every rank sends its buffer to every rank."""
    for shape in SHAPES:
        bufs = [fill(shape, dtype, r) for r in range(ranks)]
        send = [[bufs[i]] * ranks for i in range(ranks)]
        recv = run_alltoallv(ranks, send, ("allgather", dtype, shape))
        for j in range(ranks):
            for i in range(ranks):
                assert_byte_identical(bufs[i], recv[j][i], ("allgather", dtype, shape, j, i))


@pytest.mark.parametrize("dtype", DTYPES)
def test_gather_matrix(ranks, dtype):
    """Gather pattern: every rank sends its buffer to the root only."""
    for shape in SHAPES:
        for root in {0, ranks - 1}:
            bufs = [fill(shape, dtype, r) for r in range(ranks)]
            send = [
                [bufs[i] if j == root else nothing(dtype) for j in range(ranks)]
                for i in range(ranks)
            ]
            ctx = ("gather", dtype, shape, root)
            recv = run_alltoallv(ranks, send, ctx)
            for i in range(ranks):
                assert_byte_identical(bufs[i], recv[root][i], (*ctx, i))


@pytest.mark.parametrize("dtype", DTYPES)
def test_scatter_uneven_partitions(ranks, dtype):
    """Scatter pattern: the root sends chunk *j* to rank *j*, over ragged
    chunk lists, including empty chunks and 2-D chunks."""
    rng = np.random.default_rng(ranks)
    layouts = [
        [(int(rng.integers(0, 9)),) for _ in range(ranks)],  # ragged
        [(0,)] * ranks,                                      # all empty
        [(r,) for r in range(ranks)],                        # 0,1,2,...
        [(r + 1, 2) for r in range(ranks)],                  # 2-D
    ]
    for shapes in layouts:
        for root in {0, ranks - 1}:
            chunks = [fill(sh, dtype, r) for r, sh in enumerate(shapes)]
            send = [
                list(chunks) if i == root else [nothing(dtype)] * ranks
                for i in range(ranks)
            ]
            ctx = ("scatter", dtype, shapes, root)
            recv = run_alltoallv(ranks, send, ctx)
            for j in range(ranks):
                assert_byte_identical(chunks[j], recv[j][root], (*ctx, j))


@pytest.mark.parametrize("dtype", DTYPES)
def test_alltoallv_matrix(ranks, dtype):
    rng = np.random.default_rng(7 * ranks)
    send = [
        [fill((int(rng.integers(0, 7)),), dtype, i * ranks + j) for j in range(ranks)]
        for i in range(ranks)
    ]
    ref, got = run_both(ranks, lambda c: c.alltoallv(send))
    for i in range(ranks):
        for j in range(ranks):
            assert_byte_identical(ref[i][j], got[i][j], ("alltoallv", dtype, i, j))


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_reduce_scatter_block_matrix(ranks, dtype):
    """Reduce-scatter pattern: rank *i* sends block *j* of its buffer to
    rank *j*, which folds what it received in rank order.  On both
    backends that equals block *j* of the allreduce, bit for bit."""
    length = 12  # divisible by every tested rank count
    blk = length // ranks
    for op in (np.add, np.minimum):
        bufs = [fill((length,), dtype, r) for r in range(ranks)]
        send = [
            [bufs[i][j * blk : (j + 1) * blk] for j in range(ranks)]
            for i in range(ranks)
        ]
        recv = run_alltoallv(ranks, send, ("reduce_scatter", dtype, op))
        ref, got = run_both(ranks, lambda c: c.allreduce(bufs, op))
        for j in range(ranks):
            total = recv[j][0]
            for i in range(1, ranks):
                total = op(total, recv[j][i])
            want = ref[j][j * blk : (j + 1) * blk]
            assert_byte_identical(want, total, ("reduce_scatter", dtype, op, j))
            assert_byte_identical(ref[j], got[j], ("reduce_scatter", dtype, op, j))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
def test_allreduce_matrix(ranks, dtype):
    for shape in [(0,), (13,), (4, 3)]:
        for op in (np.add, np.minimum, np.maximum):
            bufs = [fill(shape, dtype, r) for r in range(ranks)]
            ref, got = run_both(ranks, lambda c: c.allreduce(bufs, op))
            for r in range(ranks):
                assert_byte_identical(ref[r], got[r], ("allreduce", dtype, shape, op, r))


def test_allreduce_float_fold_order_is_rank_order(ranks):
    """Float addition is non-associative: identical bits require the proc
    reducer to fold in SimComm's exact rank order."""
    rng = np.random.default_rng(42)
    bufs = [(rng.random(64) * 10.0 ** rng.integers(-8, 8)) for _ in range(ranks)]
    ref, got = run_both(ranks, lambda c: c.allreduce(bufs, np.add))
    for r in range(ranks):
        assert_byte_identical(ref[r], got[r], ("float-fold", r))


def test_validation_errors_match(ranks):
    """Both backends reject malformed calls with the same message."""
    def capture(call):
        errs = []
        for mk in (lambda: SimComm(ranks),):
            try:
                call(mk())
            except Exception as exc:
                errs.append((type(exc), str(exc)))
            else:
                errs.append(None)
        with use("proc"):
            try:
                call(make_comm(ranks))
            except Exception as exc:
                errs.append((type(exc), str(exc)))
            else:
                errs.append(None)
        return errs

    cases = [
        lambda c: c.allreduce([np.zeros(2)] * (ranks + 1), np.add),
        lambda c: c.alltoallv([[np.zeros(1)] * (ranks + 1)] * ranks),
        lambda c: c.allreduce([np.zeros(2)] * ranks, lambda a, b: a + b),
    ]
    if ranks > 1:
        # unequal shapes: a caller bug, not a lost rank
        cases.append(
            lambda c: c.allreduce([np.arange(3)] + [np.arange(4)] * (ranks - 1), np.add)
        )
    for k, call in enumerate(cases):
        sim_err, proc_err = capture(call)
        assert sim_err is not None, f"case {k} should fail on sim"
        assert proc_err == sim_err, (k, sim_err, proc_err)


def test_make_comm_size_validation(ranks):
    with use("proc"):
        with pytest.raises(ValueError):
            make_comm(0)
        with pytest.raises(ValueError):
            make_comm(2.5)
