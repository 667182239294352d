"""Cold start: the drivers' import paths load neither SciPy nor the obs
exporters, and the paths that do need them still load them on first use.

Every case runs in a fresh interpreter, since the test process itself has
long since imported SciPy.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))

#: modules no driver needs: SciPy (any submodule) and the lazy obs exporters
LAZY = ("scipy", "repro.obs.anomaly", "repro.obs.render", "repro.obs.export")

_REPORT = """
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules if m in LAZY or m.startswith("scipy.")
)))
"""


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_KERNELS="numpy")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", f"LAZY = {LAZY!r}\n" + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out


def _loaded_after(code: str) -> list:
    """The watched modules in ``sys.modules`` after *code* ran."""
    return json.loads(_fresh(code + _REPORT).stdout.strip().splitlines()[-1])


_GRAPH = """
from repro.graphs.generators import rmat
g = rmat(scale=8, edge_factor=4, seed=1)
"""


@pytest.mark.parametrize(
    "code",
    [
        "from repro.core import lacc",
        "from repro.core.lacc_dist import lacc_dist\nfrom repro.mpisim import EDISON",
        "from repro.core.lacc_spmd import lacc_spmd\nfrom repro.parallel import get_pool",
        "from repro.core import lacc" + _GRAPH
        + "assert lacc(g.to_matrix()).labels.size == g.n",
        "import repro" + _GRAPH
        + "assert repro.connected_components(g.u, g.v, g.n, method='lacc').size == g.n",
    ],
    ids=["import-lacc", "import-lacc_dist", "import-lacc_spmd", "run-lacc",
         "connected_components"],
)
def test_driver_path_loads_nothing_lazy(code):
    assert _loaded_after(code) == []


# each probe asserts SciPy is absent, does its work, checks the result and
# leaves SciPy loaded
_NEEDS_SCIPY = {
    "to_scipy": """
        import numpy as np
        from repro.graphblas import Matrix
        A = Matrix.adjacency(5, np.array([0, 1, 3]), np.array([1, 2, 4]))
        assert "scipy" not in sys.modules
        B = A.to_scipy()
        assert np.array_equal(B.indptr, A.indptr)
        assert np.array_equal(B.indices, A.indices)
    """,
    "is_symmetric": """
        import numpy as np
        from repro.graphblas import Matrix
        A = Matrix.adjacency(5, np.array([0, 1, 3]), np.array([1, 2, 4]))
        B = Matrix(A.nrows, A.ncols, A.indptr, A.indices, A.values)
        assert "scipy" not in sys.modules
        assert B.is_symmetric
        C = Matrix(2, 2, np.array([0, 1, 1]), np.array([1]), np.array([True]))
        assert not C.is_symmetric
    """,
    "ground_truth": """
        from repro.core import lacc
        from repro.graphs.generators import rmat
        from repro.graphs.validate import ground_truth, same_partition
        g = rmat(scale=8, edge_factor=4, seed=1)
        labels = lacc(g.to_matrix()).labels
        assert "scipy" not in sys.modules
        assert same_partition(ground_truth(g), labels)
    """,
    "lacc_dist": """
        import numpy as np
        from repro.core import lacc
        from repro.core.lacc_dist import lacc_dist
        from repro.graphs.generators import rmat
        from repro.mpisim import EDISON
        g = rmat(scale=8, edge_factor=4, seed=1)
        want = lacc(g.to_matrix()).labels
        assert "scipy" not in sys.modules
        got = lacc_dist(g.to_matrix(), EDISON, nodes=4).labels
        assert np.array_equal(got, want)
    """,
}


@pytest.mark.parametrize("name", sorted(_NEEDS_SCIPY))
def test_lazy_scipy_paths_still_load_it(name):
    code = "import sys\n" + textwrap.dedent(_NEEDS_SCIPY[name])
    assert "scipy.sparse" in _loaded_after(code)


def test_obs_facade_resolves_every_name_lazily():
    _fresh("""
        import sys
        import repro.obs as obs
        assert not any(m in sys.modules for m in LAZY[1:])
        listing = dir(obs)
        for name in obs.__all__:
            assert getattr(obs, name) is not None, name
            assert name in listing, name
        assert obs.export is sys.modules["repro.obs.export"]
        assert obs.top_table is sys.modules["repro.obs.render"].top_table
        assert obs.Anomaly is sys.modules["repro.obs.anomaly"].Anomaly
        ns = {}
        exec("from repro.obs import *", ns)
        assert set(obs.__all__) <= set(ns)
        try:
            obs.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown names must raise AttributeError")
    """)
