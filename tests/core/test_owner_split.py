"""``_Block._by_owner``: the positions of a request, split by owner rank.

For every rank count and vector length the split must be a partition of
the request's positions into one ascending int64 array per rank, each
holding exactly the positions whose index falls in that rank's block
``lo(o):hi(o)``.  Any faster split (a sort by owner, say) must keep it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lacc_spmd import _Block


@pytest.mark.parametrize("p", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("n", [1, 97, 1001])
def test_by_owner_partitions_positions_by_block(p, n):
    blocks = [_Block(n, p, o) for o in range(p)]
    rng = np.random.default_rng(p * 7919 + n)
    for idx in (
        np.empty(0, dtype=np.int64),
        rng.integers(0, n, 5 * n),
        np.arange(n, dtype=np.int64)[::-1].copy(),
        np.full(3, n - 1, dtype=np.int64),  # every entry on the last owner
    ):
        got = blocks[0]._by_owner(idx)
        assert len(got) == p
        for o, sel in enumerate(got):
            assert sel.dtype == np.int64
            assert np.all(np.diff(sel) > 0)
            assert np.all((idx[sel] >= blocks[o].lo) & (idx[sel] < blocks[o].hi))
        np.testing.assert_array_equal(
            np.sort(np.concatenate(got)), np.arange(idx.size)
        )
