"""Shared-memory message transport between real OS processes.

The lowest layer of the real-process backend (:mod:`repro.parallel`): a
set of **directed point-to-point channels**, one per (src, dst) endpoint
pair, each a fixed-capacity byte ring buffer living in a
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Messages
are NumPy arrays, framed as a fixed 96-byte header (magic, tag, payload
bytes, shape, dtype) followed by the raw payload bytes; payloads larger
than the ring are streamed through it in chunks.

Each hop copies a payload twice: :meth:`Endpoint.send` writes the header
and then the body straight from the sender's array into the ring, and
the receiving drainer reads the body once into the array the receiver
gets.  :func:`pack_arrays` copies each array of a row once into one
buffer, and :func:`unpack_arrays` returns views into the received one.

Delivery guarantees (the contract the property/fuzz suite in
``tests/parallel/test_shm_transport.py`` pins down):

* **FIFO per channel** — a (src, dst) channel is single-producer /
  single-consumer; messages arrive in send order, so ordering within any
  (src, dst, tag) stream is preserved.
* **No deadlock for matched schedules** — every endpoint runs a
  background *drainer thread* that continuously moves complete frames
  out of its inbound rings into process-local queues.  Senders therefore
  only ever wait for *ring space* (which the drainer frees), never for
  the application to call :meth:`Endpoint.recv`; any schedule in which
  each send has a matching receive completes regardless of order.
* **Conservation** — every payload byte sent is received exactly once;
  per-endpoint counters (:attr:`Endpoint.bytes_sent` /
  :attr:`Endpoint.bytes_received`) make the ledger checkable.
* **Bounded waiting** — every blocking operation takes a timeout and
  raises :class:`TransportTimeout` (or :class:`ChannelClosed` after
  shutdown) instead of hanging, which is what lets a dead peer surface
  as a typed error rather than a stuck collective.

Synchronisation is one :class:`multiprocessing.Condition` per channel
(guarding the ring's head/tail counters) plus one *doorbell* semaphore
per endpoint that senders release after completing a frame, so idle
drainers sleep instead of polling.  A sender whose frame does not fit
in the free ring space also rings the doorbell once before it blocks on
the full ring, so the drainer streams the frame out as it is written
rather than waking on its poll timeout.

The transport must be created **before** worker processes are forked:
channels and their synchronisation primitives are inherited through
``fork`` (see docs/PARALLELISM.md for the fork-vs-spawn discussion).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ShmTransport",
    "Endpoint",
    "TransportError",
    "TransportTimeout",
    "ChannelClosed",
    "pack_arrays",
    "unpack_arrays",
    "leaked_segments",
    "sweep_leaked_segments",
]


class TransportError(RuntimeError):
    """Base class for transport failures."""


class TransportTimeout(TransportError):
    """A blocking transport operation exceeded its deadline."""


class ChannelClosed(TransportError):
    """The transport was shut down while an operation was in flight."""


_MAGIC = 0x5AFE_C0DE
_CTRL_BYTES = 32          # int64[4]: head, tail, closed, reserved
_HDR_INT64S = 8           # magic, tag, nbytes, ndim, shape0..2, reserved
_DTYPE_BYTES = 32         # dtype.str, NUL-padded
HEADER_BYTES = _HDR_INT64S * 8 + _DTYPE_BYTES
_MAX_NDIM = 3
_POLL_S = 0.02            # condition-wait granularity for deadline checks

DEFAULT_CAPACITY = 1 << 18  # 256 KiB per directed channel


def _contig(a) -> np.ndarray:
    """C-contiguous view/copy that — unlike ``np.ascontiguousarray``,
    which implies ``ndmin=1`` — preserves 0-d shapes."""
    a = np.asarray(a)
    if not a.flags["C_CONTIGUOUS"]:
        a = np.ascontiguousarray(a).reshape(a.shape)
    return a


def _wire_dtype(arr: np.ndarray) -> bytes:
    """*arr*'s dtype string, once *arr* is known to fit a frame."""
    if arr.ndim > _MAX_NDIM:
        raise ValueError(
            f"transport frames support at most {_MAX_NDIM} dimensions, "
            f"got shape {arr.shape}"
        )
    if arr.dtype.hasobject:
        raise TypeError("object-dtype arrays cannot cross process boundaries")
    dt = arr.dtype.str.encode()
    if len(dt) > _DTYPE_BYTES:
        raise TypeError(f"dtype string {arr.dtype.str!r} too long for a frame")
    return dt


def _encode_header(tag: int, arr: np.ndarray) -> bytes:
    dt = _wire_dtype(arr)
    head = np.zeros(_HDR_INT64S, dtype=np.int64)
    head[0] = _MAGIC
    head[1] = tag
    head[2] = arr.nbytes
    head[3] = arr.ndim
    for d, s in enumerate(arr.shape):
        head[4 + d] = s
    return head.tobytes() + dt.ljust(_DTYPE_BYTES, b"\0")


def _decode_header(raw: bytes) -> Tuple[int, int, Tuple[int, ...], np.dtype]:
    head = np.frombuffer(raw, dtype=np.int64, count=_HDR_INT64S)
    if head[0] != _MAGIC:
        raise TransportError(
            f"corrupt frame header (magic {int(head[0]):#x}); the channel "
            "stream lost sync — this is a transport bug"
        )
    tag = int(head[1])
    nbytes = int(head[2])
    ndim = int(head[3])
    shape = tuple(int(head[4 + d]) for d in range(ndim))
    dt = np.dtype(raw[_HDR_INT64S * 8 :].rstrip(b"\0").decode())
    return tag, nbytes, shape, dt


class _Channel:
    """One directed SPSC byte ring in a SharedMemory segment."""

    def __init__(self, ctx, capacity: int, name: Optional[str] = None):
        from multiprocessing import shared_memory

        self.capacity = int(capacity)
        self._shm = shared_memory.SharedMemory(
            create=True, size=_CTRL_BYTES + self.capacity, name=name
        )
        self.cond = ctx.Condition()
        self._views_pid: Optional[int] = None
        self._ctrl: Optional[np.ndarray] = None
        self._data: Optional[np.ndarray] = None
        self._bind()

    def _bind(self) -> None:
        """(Re)create the NumPy views in the current process.  After a
        ``fork`` the inherited mapping is valid but views are rebuilt per
        process so each side owns its objects."""
        if self._views_pid == os.getpid():
            return
        self._ctrl = np.frombuffer(self._shm.buf, dtype=np.int64, count=4)
        self._data = np.frombuffer(
            self._shm.buf, dtype=np.uint8, offset=_CTRL_BYTES, count=self.capacity
        )
        self._views_pid = os.getpid()

    # head/tail are monotonically increasing byte counters; occupancy is
    # ``tail - head`` and positions are taken modulo capacity
    def _wait(self, deadline: Optional[float], alive: Optional[Callable[[], bool]]):
        if self._ctrl[2]:
            raise ChannelClosed("transport closed")
        if alive is not None and not alive():
            raise ChannelClosed("peer process died")
        remaining = _POLL_S
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout("transport operation timed out")
        self.cond.wait(min(_POLL_S, remaining))

    def write_bytes(
        self,
        *parts,
        deadline: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
        wake: Optional[Callable[[], None]] = None,
    ) -> None:
        """Append *parts* (C-contiguous buffers) to the ring back to back,
        copying straight from each, and publish them with one tail
        update when they fit: a frame that fits is never seen torn, even
        if its writer dies.  Otherwise the written prefix is published
        before each wait for space, so the consumer drains it and the
        rest streams through in chunks.  *wake* (the consumer's
        doorbell) is called once, before the first wait on a full ring."""
        self._bind()
        with self.cond:
            tail = int(self._ctrl[1])
            for part in parts:
                src = np.frombuffer(part, dtype=np.uint8)
                off = 0
                while off < src.size:
                    if self._ctrl[2]:
                        raise ChannelClosed("transport closed")
                    free = self.capacity - (tail - int(self._ctrl[0]))
                    if free == 0:
                        self._ctrl[1] = tail
                        self.cond.notify_all()
                        if wake is not None:
                            wake()
                            wake = None
                        self._wait(deadline, alive)
                        continue
                    k = min(free, src.size - off)
                    pos = tail % self.capacity
                    first = min(k, self.capacity - pos)
                    self._data[pos : pos + first] = src[off : off + first]
                    if k > first:
                        self._data[: k - first] = src[off + first : off + k]
                    tail += k
                    off += k
            self._ctrl[1] = tail
            self.cond.notify_all()

    def available(self) -> int:
        self._bind()
        with self.cond:
            return int(self._ctrl[1]) - int(self._ctrl[0])

    def read_into(
        self,
        out: np.ndarray,
        deadline: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
    ) -> np.ndarray:
        """Fill the uint8 array *out* with the next ``out.size`` bytes,
        copying straight from the ring (blocking until the producer has
        written them); returns *out*."""
        self._bind()
        n = out.size
        got = 0
        with self.cond:
            while got < n:
                head, tail = int(self._ctrl[0]), int(self._ctrl[1])
                avail = tail - head
                if avail == 0:
                    self._wait(deadline, alive)
                    continue
                k = min(avail, n - got)
                pos = head % self.capacity
                first = min(k, self.capacity - pos)
                out[got : got + first] = self._data[pos : pos + first]
                if k > first:
                    out[got + first : got + k] = self._data[: k - first]
                self._ctrl[0] = head + k
                got += k
                self.cond.notify_all()
        return out

    def read_bytes(
        self,
        n: int,
        deadline: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
    ) -> bytes:
        """Consume exactly *n* bytes (blocking until the producer has
        written them)."""
        return self.read_into(np.empty(n, dtype=np.uint8), deadline, alive).tobytes()

    def close(self) -> None:
        """Mark closed and wake any waiter (idempotent, any process).

        Acquires the channel lock with a bounded wait: a SIGSTOPped peer
        may be holding the condition's lock indefinitely, and close()
        must never deadlock on it.  The closed flag is a plain int64
        store, so it is set even without the lock — waiters poll at
        ``_POLL_S`` granularity and observe it promptly.
        """
        self._bind()
        got = self.cond.acquire(timeout=1.0)
        try:
            self._ctrl[2] = 1
            if got:
                self.cond.notify_all()
        finally:
            if got:
                self.cond.release()

    def unlink(self) -> None:
        """Release the segment (call once, in the creating process)."""
        # drop the NumPy views first: SharedMemory.close() raises
        # BufferError while exported pointers into the mapping exist
        self._ctrl = None
        self._data = None
        self._views_pid = None
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, BufferError):  # already gone
            pass


class Endpoint:
    """One communicating party: sends directly, receives via a drainer.

    Created through :meth:`ShmTransport.endpoint` and activated with
    :meth:`start` *in the process that owns it* (the drainer thread must
    be created after ``fork``, never inherited).
    """

    def __init__(self, transport: "ShmTransport", eid: int):
        self.transport = transport
        self.eid = eid
        self._pending: Dict[Tuple[int, int], deque] = {}
        self._cv = threading.Condition()
        # rings are SPSC: when two local threads (e.g. the main thread
        # and the heartbeat thread) share one endpoint, a per-destination
        # lock serialises them so frames never interleave
        self._send_locks: Dict[int, threading.Lock] = {
            d: threading.Lock() for d in range(transport.n)
        }
        self._drainer: Optional[threading.Thread] = None
        self._stop = False
        self._failure: Optional[BaseException] = None
        #: conservation ledger (payload bytes, excluding frame headers)
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        #: wall seconds this endpoint spent inside send()/drain copies
        self.busy_seconds = 0.0

    # -- sending -------------------------------------------------------
    def send(
        self,
        dst: int,
        tag: int,
        arr: np.ndarray,
        timeout: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Frame *arr* and append it to the (self → dst) channel: the
        header, then the body copied straight from *arr* into the ring,
        under the per-destination lock, so a frame is never interleaved
        with another local thread's."""
        t0 = time.perf_counter()
        arr = _contig(arr)
        head = _encode_header(tag, arr)
        deadline = None if timeout is None else time.monotonic() + timeout
        ch = self.transport.channel(self.eid, dst)
        bell = self.transport.doorbell(dst)
        with self._send_locks[dst]:
            ch.write_bytes(head, arr, deadline=deadline, alive=alive, wake=bell.release)
        bell.release()
        self.bytes_sent += arr.nbytes
        self.messages_sent += 1
        self.busy_seconds += time.perf_counter() - t0

    # -- receiving -----------------------------------------------------
    def start(self) -> "Endpoint":
        """Start the drainer thread in the calling process."""
        if self._drainer is not None:
            return self
        self._stop = False
        self._drainer = threading.Thread(
            target=self._drain_loop, name=f"shm-drain-{self.eid}", daemon=True
        )
        self._drainer.start()
        return self

    def stop(self) -> None:
        if self._drainer is None:
            return
        self._stop = True
        self.transport.doorbell(self.eid).release()
        self._drainer.join(timeout=5.0)
        self._drainer = None

    def _drain_one(self, src: int) -> bool:
        """Move one complete frame from the (src → self) ring, if any."""
        ch = self.transport.channel(src, self.eid)
        if ch.available() < HEADER_BYTES:
            return False
        t0 = time.perf_counter()
        raw = ch.read_bytes(HEADER_BYTES)
        tag, nbytes, shape, dt = _decode_header(raw)
        # the sender has committed the header, so the payload is in
        # flight: a bounded blocking read cannot deadlock (the producer
        # finishes the frame independently of this endpoint's sends).
        # It is read once, straight into the array the receiver owns
        payload = ch.read_into(np.empty(nbytes, dtype=np.uint8))
        arr = payload.view(dt).reshape(shape)
        with self._cv:
            self._pending.setdefault((src, tag), deque()).append(arr)
            self.bytes_received += nbytes
            self.messages_received += 1
            self._cv.notify_all()
        self.busy_seconds += time.perf_counter() - t0
        return True

    def _drain_loop(self) -> None:
        bell = self.transport.doorbell(self.eid)
        peers = [p for p in range(self.transport.n) if p != self.eid]
        try:
            while not self._stop:
                moved = False
                for src in peers:
                    while self._drain_one(src):
                        moved = True
                if not moved:
                    bell.acquire(timeout=_POLL_S)
        except ChannelClosed:
            pass
        except BaseException as exc:  # surface in recv() instead of dying mute
            self._failure = exc
        finally:
            with self._cv:
                self._cv.notify_all()

    def _pop(self, key: Tuple[int, int]) -> Optional[np.ndarray]:
        """Next queued message of *key*'s stream, or ``None``; the caller
        holds ``_cv``.  A drained queue is dropped: tags are per-collective
        sequence numbers, so keeping empty queues grows the dict on every
        collective for the life of the endpoint."""
        q = self._pending.get(key)
        if not q:
            return None
        arr = q.popleft()
        if not q:
            del self._pending[key]
        return arr

    def try_recv(self, src: int, tag: int) -> Optional[np.ndarray]:
        """Non-blocking :meth:`recv`: next queued message on the
        (src, tag) stream, or ``None`` if nothing has arrived.  Never
        raises on a closed transport — liveness monitors poll with this
        during teardown."""
        with self._cv:
            return self._pop((src, tag))

    def recv(
        self,
        src: int,
        tag: int,
        timeout: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
    ) -> np.ndarray:
        """Next message on the (src, tag) stream, in send order."""
        deadline = None if timeout is None else time.monotonic() + timeout
        key = (src, tag)
        with self._cv:
            while True:
                arr = self._pop(key)
                if arr is not None:
                    return arr
                if self._failure is not None:
                    raise TransportError(
                        f"drainer of endpoint {self.eid} failed"
                    ) from self._failure
                if self._stop or self.transport.closed:
                    raise ChannelClosed("transport closed")
                if alive is not None and not alive():
                    raise ChannelClosed("peer process died")
                remaining = _POLL_S
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TransportTimeout(
                            f"recv(src={src}, tag={tag}) timed out on "
                            f"endpoint {self.eid}"
                        )
                self._cv.wait(min(_POLL_S, remaining))


class ShmTransport:
    """All-pairs channel fabric for *n* endpoints (ids ``0..n-1``).

    Create in the parent **before** forking; every process then calls
    ``transport.endpoint(my_id).start()`` to activate its endpoint.
    """

    def __init__(self, n: int, capacity: int = DEFAULT_CAPACITY, ctx=None):
        import multiprocessing as mp

        if n < 1:
            raise ValueError("transport needs at least one endpoint")
        if capacity < HEADER_BYTES * 2:
            raise ValueError(f"capacity must be >= {HEADER_BYTES * 2} bytes")
        self.ctx = ctx if ctx is not None else mp.get_context(preferred_start_method())
        self.n = int(n)
        self.capacity = int(capacity)
        self.closed = False
        self._creator_pid = os.getpid()
        # explicit segment names + an on-disk registry make orphaned
        # /dev/shm segments attributable and sweepable after an abnormal
        # exit (SIGKILLed conductor): see sweep_leaked_segments()
        token = os.urandom(4).hex()
        self._channels: Dict[Tuple[int, int], _Channel] = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    self._channels[(i, j)] = _Channel(
                        self.ctx, capacity, name=f"rp{token}c{i}x{j}"
                    )
        self._registry_path = _register_segments(
            token, [ch._shm.name for ch in self._channels.values()]
        )
        self._doorbells = [self.ctx.Semaphore(0) for _ in range(n)]
        self._endpoints: Dict[int, Endpoint] = {}

    def channel(self, src: int, dst: int) -> _Channel:
        return self._channels[(src, dst)]

    def doorbell(self, eid: int):
        return self._doorbells[eid]

    def endpoint(self, eid: int) -> Endpoint:
        if not 0 <= eid < self.n:
            raise ValueError(f"endpoint id {eid} out of range 0..{self.n - 1}")
        if eid not in self._endpoints:
            self._endpoints[eid] = Endpoint(self, eid)
        return self._endpoints[eid]

    def close(self) -> None:
        """Close every channel (any process) and stop local endpoints."""
        self.closed = True
        for ch in self._channels.values():
            ch.close()
        for ep in self._endpoints.values():
            ep.stop()

    def unlink(self) -> None:
        """Release the shared segments (creator process only)."""
        if os.getpid() != self._creator_pid:
            return
        for ch in self._channels.values():
            ch.unlink()
        try:
            os.unlink(self._registry_path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# segment leak guard: every transport registers its segment names in a
# per-transport JSON file under the system tmpdir; if the creator dies
# without unlink() (SIGKILL, OOM), the registry outlives it and the next
# conductor sweeps the orphans before allocating its own rings.
# ----------------------------------------------------------------------
def _registry_dir() -> str:
    d = os.path.join(tempfile.gettempdir(), "repro-shm")
    os.makedirs(d, exist_ok=True)
    return d


def _register_segments(token: str, names: List[str]) -> str:
    path = os.path.join(_registry_dir(), f"{os.getpid()}-{token}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"pid": os.getpid(), "segments": names}, f)
    os.replace(tmp, path)
    return path


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    return True


def leaked_segments() -> Dict[str, List[str]]:
    """Registry files whose creator process is gone, keyed by registry
    path — the segments they name are orphans in ``/dev/shm``."""
    out: Dict[str, List[str]] = {}
    reg = _registry_dir()
    for fname in sorted(os.listdir(reg)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(reg, fname)
        try:
            with open(path) as f:
                rec = json.load(f)
            pid, names = int(rec["pid"]), list(rec["segments"])
        except (OSError, ValueError, KeyError, TypeError):
            continue  # torn write mid-crash: leave for manual inspection
        if not _pid_alive(pid):
            out[path] = names
    return out


def sweep_leaked_segments() -> List[str]:
    """Unlink every orphaned segment found by :func:`leaked_segments`
    and drop its registry file; returns the unlinked segment names.
    Safe to call from any process at any time (idempotent)."""
    from multiprocessing import shared_memory

    removed: List[str] = []
    for path, names in leaked_segments().items():
        for name in names:
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            try:
                seg.close()
                seg.unlink()
                removed.append(name)
            except (FileNotFoundError, BufferError):  # pragma: no cover
                pass
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced with another sweeper
            pass
    return removed


def preferred_start_method() -> str:
    """``fork`` wherever available: channels and conditions are inherited
    by worker processes, and ``spawn`` cannot pickle a live transport
    (docs/PARALLELISM.md discusses the trade-off)."""
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    raise RuntimeError(
        "the real-process backend needs the 'fork' start method (available "
        f"on Linux/macOS); this platform offers only {methods}"
    )


# ----------------------------------------------------------------------
# multi-array packing: one frame for a list of buffers (collectives ship
# whole per-rank rows at once, cutting per-message synchronisation cost).
# Every field is 8-byte aligned: a count word, then per entry either -1
# (``None``) or int64[5] (nbytes, ndim, shape0..2), the dtype string and
# the payload padded to a multiple of 8.
# ----------------------------------------------------------------------
_ENTRY_BYTES = 5 * 8 + _DTYPE_BYTES


def _padded(nbytes: int) -> int:
    return nbytes + (-nbytes) % 8


def pack_arrays(arrs: List[Optional[np.ndarray]], head=()) -> np.ndarray:
    """Serialise a list of arrays (``None`` allowed) into one uint8
    buffer, after the int64 words *head*.  The buffer is sized first and
    each array is copied into it once, whatever its strides."""
    arrs = [None if a is None else np.asarray(a) for a in arrs]
    dts = [None if a is None else _wire_dtype(a) for a in arrs]
    size = 8 * (len(head) + 1) + sum(
        8 if a is None else _ENTRY_BYTES + _padded(a.nbytes) for a in arrs
    )
    buf = np.zeros(size, dtype=np.uint8)
    words = buf.view(np.int64)
    words[: len(head)] = head
    words[len(head)] = len(arrs)
    off = 8 * (len(head) + 1)
    for a, dt in zip(arrs, dts):
        w = off // 8
        if a is None:
            words[w] = -1
            off += 8
            continue
        words[w : w + 2] = a.nbytes, a.ndim
        words[w + 2 : w + 2 + a.ndim] = a.shape
        buf[off + 40 : off + 40 + len(dt)] = np.frombuffer(dt, dtype=np.uint8)
        off += _ENTRY_BYTES
        np.copyto(buf[off : off + a.nbytes].view(a.dtype).reshape(a.shape), a)
        off += _padded(a.nbytes)
    return buf


def unpack_arrays(buf: np.ndarray) -> List[Optional[np.ndarray]]:
    """Inverse of :func:`pack_arrays` without the *head* words.  The
    arrays are views into *buf*, which the caller owns: nothing is
    copied."""
    raw = np.ascontiguousarray(buf).reshape(-1).view(np.uint8)
    words = raw.view(np.int64)
    off = 8
    out: List[Optional[np.ndarray]] = []
    for _ in range(int(words[0])):
        w = off // 8
        nbytes = int(words[w])
        if nbytes == -1:
            out.append(None)
            off += 8
            continue
        shape = tuple(int(s) for s in words[w + 2 : w + 2 + int(words[w + 1])])
        dt = np.dtype(raw[off + 40 : off + _ENTRY_BYTES].tobytes().rstrip(b"\0").decode())
        off += _ENTRY_BYTES
        out.append(raw[off : off + nbytes].view(dt).reshape(shape))
        off += _padded(nbytes)
    return out
