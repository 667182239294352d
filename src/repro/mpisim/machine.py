"""Machine models — Table II of the paper plus network constants.

The simulator prices an algorithm run with the α–β model the paper's §V-A
analysis uses::

    T  =  F · t_mem  +  β · W  +  α · S

where *F* counts memory-bound scalar operations (sparse graph kernels are
bandwidth-, not flop-limited — §VI-C notes "few faster cores [Ivy Bridge]
are more beneficial than more slower cores [KNL]", which per-core STREAM
bandwidth captures), *W* words moved over the network and *S* messages.

The Edison and Cori-KNL presets take their node parameters from Table II;
the Cray Aries network constants (both machines used Aries dragonfly
interconnects at NERSC) are public numbers: ~1.4 µs MPI latency and
~10 GB/s injection bandwidth per node.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MachineModel",
    "EDISON",
    "CORI_KNL",
    "LAPTOP",
    "from_dict",
    "load_machine",
    "PRESETS",
]


@dataclass(frozen=True)
class MachineModel:
    """Hardware constants needed to price a run.

    All times in seconds, sizes in bytes.
    """

    name: str
    cores_per_node: int
    clock_ghz: float
    dp_gflops_per_core: float
    stream_bw_node: float  # STREAM copy bandwidth per node (B/s), Table II
    mem_per_node: float  # bytes
    net_alpha: float  # point-to-point message latency (s)
    net_bw_node: float  # injection bandwidth per node (B/s)
    word_bytes: int = 8
    #: default threads per MPI process in the paper's runs (§VI-A):
    #: 6 on Edison, 16 on Cori → 4 MPI processes per node on both.
    threads_per_process: int = 1
    #: slowdown of random gather/scatter relative to STREAM — sparse graph
    #: kernels are latency-bound, and KNL's in-order-ish cores fare much
    #: worse on irregular access than Ivy Bridge, which is why "few faster
    #: cores are more beneficial than more slower cores" (§VI-C, [34])
    irregular_access_penalty: float = 1.0
    #: base backoff (seconds) before the first retransmission when a
    #: fault-injected collective fails validation; doubles per retry and
    #: is stretched by a seeded jitter in [1, 2) (repro.mpisim.envelope).
    #: Scaled to ~100 MPI latencies — the order of a Cray retransmit
    #: timeout — so fault recovery is visible but not dominant in traces.
    retry_backoff_base: float = 1e-4

    # ------------------------------------------------------------------
    @property
    def processes_per_node(self) -> int:
        return max(self.cores_per_node // self.threads_per_process, 1)

    def ranks(self, nodes: int, flat_mpi: bool = False) -> int:
        """MPI ranks for a node count — one per core under flat MPI
        (ParConnect's configuration), else one per process."""
        per_node = self.cores_per_node if flat_mpi else self.processes_per_node
        return nodes * per_node

    def mem_time_per_op(self, ranks_per_node: int) -> float:
        """Seconds per memory-bound scalar op for one rank.

        A sparse-kernel 'op' touches ~2 words (index + value); ranks on a
        node share its STREAM bandwidth, degraded by the machine's
        irregular-access penalty (sparse kernels gather, not stream).
        """
        per_rank_bw = self.stream_bw_node / max(ranks_per_node, 1)
        return self.irregular_access_penalty * (2 * self.word_bytes) / per_rank_bw

    def beta(self, ranks_per_node: int) -> float:
        """Seconds per word over the network for one rank (ranks sharing a
        node also share its injection bandwidth)."""
        per_rank_bw = self.net_bw_node / max(ranks_per_node, 1)
        return self.word_bytes / per_rank_bw

    @property
    def alpha(self) -> float:
        return self.net_alpha



#: NERSC Edison: Cray XC30, dual-socket 12-core Ivy Bridge (Table II).
EDISON = MachineModel(
    name="Edison",
    cores_per_node=24,
    clock_ghz=2.4,
    dp_gflops_per_core=19.2,
    stream_bw_node=89e9,
    mem_per_node=64e9,
    net_alpha=1.4e-6,
    net_bw_node=10e9,
    threads_per_process=6,  # paper: 6 threads/process on Edison
)

#: NERSC Cori KNL: Cray XC40, single-socket 68-core Knights Landing.
CORI_KNL = MachineModel(
    name="Cori-KNL",
    cores_per_node=68,
    clock_ghz=1.4,
    dp_gflops_per_core=44.0,
    stream_bw_node=102e9,
    mem_per_node=96e9,
    net_alpha=1.4e-6,
    net_bw_node=10e9,
    threads_per_process=16,  # paper: 16 threads/process on Cori
    irregular_access_penalty=3.0,  # KNL's weak cores on irregular access
)

#: A generic laptop-class model, handy for examples and tests.
LAPTOP = MachineModel(
    name="Laptop",
    cores_per_node=8,
    clock_ghz=3.0,
    dp_gflops_per_core=16.0,
    stream_bw_node=40e9,
    mem_per_node=16e9,
    net_alpha=5e-7,
    net_bw_node=20e9,
    threads_per_process=1,
)


#: named presets for CLI / config lookup
PRESETS = {"edison": EDISON, "cori": CORI_KNL, "cori-knl": CORI_KNL, "laptop": LAPTOP}

_REQUIRED_FIELDS = (
    "name",
    "cores_per_node",
    "clock_ghz",
    "dp_gflops_per_core",
    "stream_bw_node",
    "mem_per_node",
    "net_alpha",
    "net_bw_node",
)


def from_dict(cfg: dict) -> MachineModel:
    """Build a machine model from a plain dict (e.g. parsed JSON).

    Required keys are the Table II-style constants (see
    ``_REQUIRED_FIELDS``); ``word_bytes``, ``threads_per_process`` and
    ``irregular_access_penalty`` are optional.  Unknown keys are rejected
    so configuration typos fail loudly.
    """
    allowed = set(_REQUIRED_FIELDS) | {
        "word_bytes",
        "threads_per_process",
        "irregular_access_penalty",
        "retry_backoff_base",
    }
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown machine config keys: {sorted(unknown)}")
    missing = set(_REQUIRED_FIELDS) - set(cfg)
    if missing:
        raise ValueError(f"missing machine config keys: {sorted(missing)}")
    m = MachineModel(**cfg)
    if m.cores_per_node < 1 or m.stream_bw_node <= 0 or m.net_bw_node <= 0:
        raise ValueError("machine constants must be positive")
    if m.net_alpha < 0:
        raise ValueError("latency must be non-negative")
    if m.retry_backoff_base < 0:
        raise ValueError("retry backoff must be non-negative")
    return m


def load_machine(spec: str) -> MachineModel:
    """Resolve a machine from a preset name or a JSON file path.

    ``spec`` may be one of :data:`PRESETS` (case-insensitive) or a path to
    a JSON file containing :func:`from_dict` keys — the hook for modelling
    machines the paper never ran on (Perlmutter, a departmental cluster…).
    """
    key = spec.lower()
    if key in PRESETS:
        return PRESETS[key]
    import json
    import os

    if os.path.exists(spec):
        with open(spec) as fh:
            return from_dict(json.load(fh))
    raise ValueError(
        f"unknown machine {spec!r}: not a preset ({sorted(set(PRESETS))}) "
        "and not a readable JSON file"
    )
