"""Property/fuzz tests for the shared-memory transport.

The transport's three delivery guarantees (no deadlock for matched
schedules, FIFO within a (src, dst, tag) stream, conservation of bytes)
are pinned down with randomized concurrent schedules driven by seeded
RNG — every failure reproduces from its seed.  The package-level
watchdog fixture turns any would-be deadlock into a failure.

Endpoints of one :class:`ShmTransport` are exercised intra-process here
(threads play the processes; the rings, conditions and drainers are the
same code the forked workers run) — the cross-process paths are covered
end-to-end by test_pool.py and the conformance suite.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.parallel.shm import (
    DEFAULT_CAPACITY,
    HEADER_BYTES,
    ChannelClosed,
    ShmTransport,
    TransportTimeout,
    pack_arrays,
    unpack_arrays,
)


@pytest.fixture
def fabric():
    """A 3-endpoint transport, all endpoints live in this process."""
    t = ShmTransport(3)
    eps = [t.endpoint(i).start() for i in range(3)]
    yield t, eps
    t.close()
    t.unlink()


# ----------------------------------------------------------------------
# framing round-trips
# ----------------------------------------------------------------------
def test_roundtrip_dtypes_and_shapes(fabric):
    t, (a, b, _) = fabric
    cases = [
        np.arange(10, dtype=np.int64),
        np.arange(6, dtype=np.int32).reshape(2, 3),
        np.array(3.5),                      # 0-d
        np.zeros(0, dtype=np.float64),      # empty
        np.array([True, False, True]),
        np.arange(12, dtype=np.uint8).reshape(2, 2, 3),
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),  # non-contiguous
    ]
    for k, arr in enumerate(cases):
        a.send(1, 100 + k, arr)
    for k, arr in enumerate(cases):
        got = b.recv(0, 100 + k, timeout=10)
        assert got.dtype == arr.dtype, k
        assert got.shape == arr.shape, k
        assert np.ascontiguousarray(arr).tobytes() == got.tobytes(), k


def test_large_frame_streams_through_small_ring():
    t = ShmTransport(2, capacity=HEADER_BYTES * 4)
    a, b = t.endpoint(0).start(), t.endpoint(1).start()
    try:
        big = np.random.default_rng(0).integers(0, 255, 64 * 1024).astype(np.uint8)
        done = threading.Event()

        def pump():
            a.send(1, 7, big, timeout=30)
            done.set()

        th = threading.Thread(target=pump, daemon=True)
        th.start()
        got = b.recv(0, 7, timeout=30)
        th.join(timeout=30)
        assert done.is_set()
        assert np.array_equal(got, big)
    finally:
        t.close()
        t.unlink()


def test_frame_larger_than_ring_does_not_wait_for_poll(monkeypatch):
    """A sender blocked on a full ring must wake the drainer itself: with
    the poll interval at 5 s, a frame of 4x the ring's capacity still
    streams through in well under a second."""
    from repro.parallel import shm

    monkeypatch.setattr(shm, "_POLL_S", 5.0)
    t = ShmTransport(2, capacity=4096)
    a, b = t.endpoint(0).start(), t.endpoint(1).start()
    try:
        big = np.random.default_rng(1).integers(0, 255, 4 * 4096).astype(np.uint8)
        t0 = time.perf_counter()
        a.send(1, 3, big, timeout=30)
        got = b.recv(0, 3, timeout=30)
        elapsed = time.perf_counter() - t0
        assert got.tobytes() == big.tobytes()
        assert elapsed < 1.0, f"frame took {elapsed:.2f}s: the drainer slept"
    finally:
        t.close()
        t.unlink()


#: the dtypes of tests/mpisim/test_collectives_conformance.py
CONFORMANCE_DTYPES = [np.int64, np.int32, np.float64, np.bool_]
_RING = 4096


def _payload(dtype, n, seed):
    rng = np.random.default_rng(seed)
    if dtype is np.bool_:
        return rng.integers(0, 2, n).astype(np.bool_)
    if dtype is np.float64:
        return rng.standard_normal(n)
    return rng.integers(np.iinfo(dtype).min, np.iinfo(dtype).max, n, dtype=dtype)


def _assert_same(got, ref, ctx):
    assert got.dtype == ref.dtype and got.shape == ref.shape, ctx
    assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), ctx


@pytest.mark.parametrize("dtype", CONFORMANCE_DTYPES)
def test_frames_larger_than_three_rings_round_trip(dtype):
    """A frame is a header write and a body write into the ring; bodies
    of more than three ring capacities, 2-D blocks, 0-d scalars and
    empty arrays of every conformance dtype arrive bit-identical."""
    t = ShmTransport(2, capacity=_RING)
    a, b = t.endpoint(0).start(), t.endpoint(1).start()
    try:
        n = 3 * _RING // np.dtype(dtype).itemsize + 13
        cases = [
            _payload(dtype, n, 0),
            _payload(dtype, 6 * n, 1).reshape(2, 3, n),
            _payload(dtype, 1, 2).reshape(()),
            np.empty(0, dtype=dtype),
            np.empty((3, 0), dtype=dtype),
            _payload(dtype, 2 * n, 3)[::2],  # strided
        ]
        assert cases[0].nbytes > 3 * _RING
        for k, arr in enumerate(cases):
            a.send(1, 10 + k, arr, timeout=30)
        for k, arr in enumerate(cases):
            _assert_same(b.recv(0, 10 + k, timeout=30), arr, (dtype, k))
    finally:
        t.close()
        t.unlink()


def test_two_threads_share_one_endpoint():
    """The main and heartbeat threads of a worker share its endpoint: the
    per-destination lock keeps each frame's header and body together, so
    ring-sized frames from one thread and small ones from the other never
    interleave and every frame round-trips bit-identically."""
    t = ShmTransport(2, capacity=_RING)
    a, b = t.endpoint(0).start(), t.endpoint(1).start()
    try:
        big = [_payload(np.int64, 3 * _RING // 8 + 7 * k, k) for k in range(32)]
        small = [np.array([k, 1.5 * k, -k], dtype=np.float64) for k in range(1000)]

        def pump(tag, frames):
            for f in frames:
                a.send(1, tag, f, timeout=30)

        threads = [
            threading.Thread(target=pump, args=(1, big)),
            threading.Thread(target=pump, args=(2, small)),
        ]
        for th in threads:
            th.start()
        got_small = [b.recv(0, 2, timeout=30) for _ in small]
        got_big = [b.recv(0, 1, timeout=30) for _ in big]
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
        for k, (got, ref) in enumerate(zip(got_big + got_small, big + small)):
            _assert_same(got, ref, k)
        assert b._failure is None
        assert a.bytes_sent == b.bytes_received == sum(x.nbytes for x in big + small)
    finally:
        t.close()
        t.unlink()


def test_pack_unpack_roundtrip():
    arrs = [
        np.arange(5, dtype=np.int64),
        None,
        np.array(2.5),
        np.zeros(0, dtype=np.int32),
        np.arange(6, dtype=np.float64).reshape(3, 2),
    ]
    out = unpack_arrays(pack_arrays(arrs))
    assert out[1] is None
    for ref, got in zip(arrs, out):
        if ref is None:
            continue
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_pack_takes_head_words_and_any_strides():
    """Head words come first and unpack skips them; strided, Fortran-
    ordered and byte-swapped inputs pack as their C-ordered values."""
    arrs = [
        np.arange(30, dtype=np.int64)[::3],
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        np.arange(5, dtype=">i4"),
        np.array([True, False, True]),
    ]
    buf = pack_arrays(arrs, head=(7, -1, 3))
    assert buf.dtype == np.uint8 and buf.size % 8 == 0
    words = buf.view(np.int64)
    assert words[:3].tolist() == [7, -1, 3]
    for ref, got in zip(arrs, unpack_arrays(words[3:])):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


# ----------------------------------------------------------------------
# liveness: bounded waiting, typed errors, never a hang
# ----------------------------------------------------------------------
def test_recv_timeout_is_typed(fabric):
    t, (a, _, _) = fabric
    with pytest.raises(TransportTimeout):
        a.recv(1, 5, timeout=0.05)


def test_closed_transport_raises(fabric):
    t, (a, b, _) = fabric
    t.close()
    with pytest.raises(ChannelClosed):
        b.recv(0, 1, timeout=5)
    with pytest.raises(ChannelClosed):
        a.send(1, 1, np.zeros(4))


def test_dead_peer_probe_raises(fabric):
    t, (a, _, _) = fabric
    with pytest.raises(ChannelClosed):
        a.recv(1, 5, timeout=10, alive=lambda: False)


# ----------------------------------------------------------------------
# FIFO ordering within a (src, dst, tag) stream
# ----------------------------------------------------------------------
def test_fifo_order_single_stream(fabric):
    t, (a, b, _) = fabric
    for k in range(200):
        a.send(1, 42, np.array([k], dtype=np.int64))
    got = [int(b.recv(0, 42, timeout=10)[0]) for _ in range(200)]
    assert got == list(range(200))


def test_streams_are_independent_per_tag(fabric):
    t, (a, b, _) = fabric
    # interleave two tags; each stream must stay in its own order even
    # when drained out of order
    for k in range(50):
        a.send(1, 1, np.array([k], dtype=np.int64))
        a.send(1, 2, np.array([1000 + k], dtype=np.int64))
    got2 = [int(b.recv(0, 2, timeout=10)[0]) for _ in range(50)]
    got1 = [int(b.recv(0, 1, timeout=10)[0]) for _ in range(50)]
    assert got1 == list(range(50))
    assert got2 == [1000 + k for k in range(50)]


def test_drained_streams_leave_no_queue_behind(fabric):
    """Collectives tag each message with a fresh sequence number, so an
    endpoint that kept a queue per drained (src, tag) would grow on every
    collective."""
    t, (a, b, _) = fabric
    for tag in range(300):
        a.send(1, tag, np.array([tag], dtype=np.int64))
    for tag in range(300):
        assert int(b.recv(0, tag, timeout=10)[0]) == tag
    a.send(1, 300, np.zeros(1))
    deadline = time.monotonic() + 10
    while b.try_recv(0, 300) is None and time.monotonic() < deadline:
        time.sleep(0.001)
    assert b._pending == {}


# ----------------------------------------------------------------------
# randomized concurrent schedules (seeded fuzz)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fuzz_concurrent_schedules(seed):
    """Random matched send/recv schedules across 3 endpoints and 1-3 tags
    per pair: all messages arrive, in per-stream order, bytes conserved,
    no deadlock (watchdog)."""
    rng = np.random.default_rng(seed)
    n = 3
    t = ShmTransport(n, capacity=4096)  # small ring: forces chunking too
    eps = [t.endpoint(i).start() for i in range(n)]
    try:
        # plan[src][dst] = list of (tag, payload) with FIFO stamps
        plan = {}
        expected_bytes = 0
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                msgs = []
                tags = rng.integers(1, 4)
                stream_seq = {}  # tag -> next sequence number in that stream
                for _ in range(int(rng.integers(5, 25))):
                    tag = int(rng.integers(1, 1 + tags))
                    size = int(rng.integers(0, 600))
                    body = rng.integers(0, 2**31, size).astype(np.int64)
                    seq = stream_seq.get(tag, 0)
                    stream_seq[tag] = seq + 1
                    msgs.append((tag, seq, body))
                    expected_bytes += body.nbytes + 3 * 8
                plan[(src, dst)] = msgs

        # per-stream expected orders
        streams = {}
        for (src, dst), msgs in plan.items():
            for tag, seq, body in msgs:
                streams.setdefault((src, dst, tag), []).append(body)

        # pre-compute each sender's shuffled cross-destination interleave
        # in the main thread (default_rng is not thread-safe), then fire
        # all senders concurrently
        schedules = {}
        for src in range(n):
            todo = []
            for dst in range(n):
                if dst == src:
                    continue
                # a sender must keep each stream's own order; interleaving
                # *across* destinations/tags is free
                todo.extend((dst, tag, seq, body) for tag, seq, body in plan[(src, dst)])
            order = np.argsort(rng.random(len(todo)), kind="stable")
            # stable sort of random keys preserves FIFO within equal keys;
            # per-stream order is restored below by re-sorting seq per stream
            shuffled = [todo[int(i)] for i in order]
            per_stream = {}
            fixed = []
            for dst, tag, seq, body in shuffled:
                nxt = per_stream.setdefault((dst, tag), [0])
                fixed.append((dst, tag, body, nxt[0]))
            # re-walk: emit bodies of each stream in original order while
            # keeping the shuffled cross-stream interleave
            cursors = {}
            final = []
            for dst, tag, _, _ in fixed:
                k = cursors.get((dst, tag), 0)
                cursors[(dst, tag)] = k + 1
                final.append((dst, tag, k, streams[(src, dst, tag)][k]))
            schedules[src] = final

        def sender(src):
            for dst, tag, seq, body in schedules[src]:
                stamp = np.array([src, tag, seq], dtype=np.int64)
                eps[src].send(dst, tag, np.concatenate([stamp, body]), timeout=30)

        threads = [threading.Thread(target=sender, args=(s,)) for s in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive(), "sender thread wedged"

        got_bytes = 0
        for (src, dst, tag), bodies in streams.items():
            for k, body in enumerate(bodies):
                msg = eps[dst].recv(src, tag, timeout=30)
                assert int(msg[0]) == src and int(msg[1]) == tag
                assert int(msg[2]) == k, (
                    f"stream ({src}->{dst}, tag {tag}) reordered: "
                    f"expected seq {k}, got {int(msg[2])}"
                )
                assert np.array_equal(msg[3:], body)
                got_bytes += msg.nbytes

        # conservation ledger: every payload byte sent was received once
        sent = sum(e.bytes_sent for e in eps)
        received = sum(e.bytes_received for e in eps)
        assert sent == received == expected_bytes == got_bytes
        assert sum(e.messages_sent for e in eps) == sum(
            e.messages_received for e in eps
        ) == sum(len(m) for m in plan.values())
    finally:
        t.close()
        t.unlink()


def test_conservation_zero_after_idle(fabric):
    t, eps = fabric
    assert all(e.bytes_sent == e.bytes_received == 0 for e in eps)
    eps[0].send(1, 1, np.arange(4, dtype=np.int64))
    got = eps[1].recv(0, 1, timeout=10)
    assert got.nbytes == 32
    assert eps[0].bytes_sent == 32 and eps[1].bytes_received == 32
    assert eps[0].messages_sent == 1 and eps[1].messages_received == 1


# ----------------------------------------------------------------------
# construction validation
# ----------------------------------------------------------------------
def test_transport_validation():
    with pytest.raises(ValueError):
        ShmTransport(0)
    with pytest.raises(ValueError):
        ShmTransport(2, capacity=8)
    t = ShmTransport(2)
    try:
        with pytest.raises(ValueError):
            t.endpoint(5)
    finally:
        t.close()
        t.unlink()


def test_object_dtype_rejected(fabric):
    t, (a, _, _) = fabric
    with pytest.raises(TypeError):
        a.send(1, 1, np.array([object()], dtype=object))
    with pytest.raises(ValueError):
        a.send(1, 1, np.zeros((2, 2, 2, 2)))  # > 3 dims
