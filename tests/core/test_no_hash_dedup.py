"""Guard: the LACC drivers' hot paths never call ``np.unique`` or
``np.lexsort``.

Both are slow on large int64 keys (``np.unique`` hashes, ``np.lexsort``
sorts two keys), so the substrate and the drivers dedup with the
single-key sorts of :mod:`repro.graphblas.sorting`.  This test makes
either call raise while the adjacency build and the serial, analytic
distributed and sim-backend SPMD drivers run, and still demands the
union–find partition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lacc import lacc
from repro.core.lacc_dist import lacc_dist
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs.validate import same_partition
from repro.mpisim import backend
from repro.mpisim.machine import EDISON

from ..differential.corpus import FAMILIES, make_graph, oracle_labels

DRIVERS = {
    "lacc": lambda g: lacc(g.to_matrix()).parents,
    "lacc_dist": lambda g: lacc_dist(g.to_matrix(), EDISON, nodes=4).parents,
    "lacc_spmd": lambda g: lacc_spmd(g, ranks=3).parents,
}


def _forbidden(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"np.{name} called on a LACC hot path")

    return raise_


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_driver_runs_without_unique_or_lexsort(monkeypatch, family, driver):
    g = make_graph(family, 0)
    oracle = oracle_labels(g)
    with backend.use("sim"), monkeypatch.context() as m:
        m.setattr(np, "unique", _forbidden("unique"))
        m.setattr(np, "lexsort", _forbidden("lexsort"))
        parents = DRIVERS[driver](g)
    assert same_partition(parents, oracle)
