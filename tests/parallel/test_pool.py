"""Worker pool, backend selection, and worker-death semantics.

Three contracts:

* ``REPRO_BACKEND`` selects the communicator at import time exactly like
  ``REPRO_KERNELS`` selects kernel tiers (subprocess probes against a
  fresh interpreter), and :func:`set_backend` / :func:`use` flip it at
  runtime.
* A killed worker process surfaces as a typed
  :class:`~repro.faults.CollectiveError` — never a hang — and the broken
  pool is respawned transparently for the next communicator.
* Random collective sequences on real processes agree byte-for-byte with
  SimComm (the multiprocess end of the transport fuzz).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.faults import CollectiveError
from repro.mpisim import SimComm, backend, make_comm
from repro.parallel import ProcComm, WorkerDied, get_pool
from repro.parallel.pool import _POOLS


# ----------------------------------------------------------------------
# runtime backend switching
# ----------------------------------------------------------------------
class TestBackendSwitching:
    def test_default_is_sim(self):
        assert backend.active() == "sim"
        assert isinstance(make_comm(2), SimComm)

    def test_use_scopes_proc(self):
        with backend.use("proc"):
            assert backend.active() == "proc"
            assert isinstance(make_comm(2), ProcComm)
        assert backend.active() == "sim"

    def test_set_backend_returns_previous(self):
        prev = backend.set_backend("proc")
        try:
            assert prev == "sim" and backend.active() == "proc"
        finally:
            backend.set_backend(prev)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown communicator backend"):
            backend.set_backend("mpi")

    def test_available(self):
        assert backend.available() == ["sim", "proc"]


# ----------------------------------------------------------------------
# REPRO_BACKEND import-time selection (subprocess: fresh interpreter)
# ----------------------------------------------------------------------
_PROBE = """\
from repro.mpisim import backend, make_comm
print(backend.active())
print(type(make_comm(2)).__name__)
"""


def _probe(env_value):
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    if env_value is not None:
        env["REPRO_BACKEND"] = env_value
    src = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True
    )


class TestEnvSelection:
    def test_unset_selects_sim(self):
        out = _probe(None)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["sim", "SimComm"]

    def test_auto_selects_sim(self):
        out = _probe("auto")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["sim", "SimComm"]

    def test_proc_selected(self):
        out = _probe("proc")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["proc", "ProcComm"]

    def test_unknown_backend_raises(self):
        out = _probe("cluster")
        assert out.returncode != 0
        assert "not a known communicator backend" in out.stderr


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    def test_pool_is_cached_per_size(self):
        a, b = get_pool(2), get_pool(2)
        assert a is b
        assert get_pool(3) is not a

    def test_comms_share_the_pool(self):
        c1, c2 = ProcComm(2), ProcComm(2)
        assert c1._pool is c2._pool

    def test_stats_counters_monotone(self):
        comm = ProcComm(2)
        send = [[np.arange(4, dtype=np.int64)] * 2] * 2
        comm.alltoallv(send)
        s1 = comm._pool.stats()
        comm.alltoallv(send)
        s2 = comm._pool.stats()
        for r in range(2):
            assert int(s2[r][0]) > int(s1[r][0])  # bytes_sent grew
            assert int(s2[r][2]) > int(s1[r][2])  # messages_sent grew
            assert int(s1[r][5]) == r             # rank id stamp

    def test_close_is_idempotent(self):
        pool = get_pool(2)
        size_key = 2
        pool.close()
        pool.close()
        _POOLS.pop(size_key, None)
        # next communicator gets a fresh pool
        comm = ProcComm(2)
        out = comm.allreduce([np.arange(3), np.arange(3)], np.add)
        assert np.array_equal(out[1], 2 * np.arange(3))


# ----------------------------------------------------------------------
# worker death: typed error, then transparent respawn
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_killed_worker_is_a_typed_error_not_a_hang(self):
        comm = ProcComm(3)
        pool = comm._pool
        pool.procs[1].kill()
        pool.procs[1].join(timeout=10)
        with pytest.raises(CollectiveError) as ei:
            comm.allreduce([np.arange(4, dtype=np.int64)] * 3, np.add)
        # the failure detector classifies the SIGKILLed worker as
        # permanently dead, so the error is the non-retryable rank_lost
        # (not the generic worker_died of unattributable breakage)
        assert list(ei.value.kinds) == ["rank_lost"]
        assert ei.value.lost_ranks == (1,)
        assert pool.broken

    def test_pool_respawns_after_death(self):
        comm = ProcComm(3)
        comm._pool.procs[0].kill()
        comm._pool.procs[0].join(timeout=10)
        bufs = [np.arange(3)] * 3
        with pytest.raises(CollectiveError):
            comm.allreduce(bufs, np.add)
        # the same communicator recovers on its next collective (fresh pool)
        out = comm.allreduce(bufs, np.add)
        assert all(np.array_equal(o, 3 * np.arange(3)) for o in out)

    def test_worker_died_mid_sequence_leaves_other_sizes_alone(self):
        c2, c3 = ProcComm(2), ProcComm(3)
        c3._pool.procs[2].kill()
        c3._pool.procs[2].join(timeout=10)
        with pytest.raises(CollectiveError):
            c3.alltoallv([[np.arange(2)] * 3] * 3)
        # the size-2 pool is unaffected
        out = c2.alltoallv([[np.arange(2, dtype=np.int64)] * 2] * 2)
        assert np.array_equal(np.concatenate(out[0]), np.array([0, 1, 0, 1]))


# ----------------------------------------------------------------------
# multiprocess fuzz: random collective sequences vs the sim reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_random_collective_sequences(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 5))
    sim, proc = SimComm(p), ProcComm(p)
    dtypes = [np.int64, np.int32, np.float64]
    for step in range(25):
        dt = dtypes[int(rng.integers(0, len(dtypes)))]
        kind = int(rng.integers(0, 2))
        size = int(rng.integers(0, 40))
        bufs = [rng.integers(-99, 99, size).astype(dt) for _ in range(p)]
        if kind == 0:
            send = [
                [rng.integers(-9, 9, int(rng.integers(0, 7))).astype(dt) for _ in range(p)]
                for _ in range(p)
            ]
            ref = [x for row in sim.alltoallv(send) for x in row]
            got = [x for row in proc.alltoallv(send) for x in row]
        else:
            op = (np.add, np.minimum, np.maximum)[int(rng.integers(0, 3))]
            ref, got = sim.allreduce(bufs, op), proc.allreduce(bufs, op)
        for r, (x, y) in enumerate(zip(ref, got)):
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and x.shape == y.shape, (seed, step, r)
            assert x.tobytes() == y.tobytes(), (seed, step, kind, r)
