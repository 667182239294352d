"""Tests for the sort-based dedup helpers in :mod:`repro.graphblas.sorting`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphblas.sorting import (
    PACK_LIMIT,
    count_distinct,
    pack_pairs,
    run_starts,
    unique_sorted,
)

CASES = {
    "empty": np.empty(0, dtype=np.int64),
    "single": np.array([7], dtype=np.int64),
    "all_duplicates": np.full(9, 3, dtype=np.int64),
    "already_sorted": np.array([0, 1, 1, 4, 4, 4, 9], dtype=np.int64),
    "reversed": np.array([9, 4, 4, 1, 0, 0], dtype=np.int64),
    "wide": np.array([2**62, -(2**63), 2**62, 5, 2**63 - 1], dtype=np.int64),
}


@pytest.mark.parametrize("keys", list(CASES.values()), ids=list(CASES))
def test_unique_sorted_matches_np_unique(keys):
    got = unique_sorted(keys)
    want = np.unique(keys)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("keys", list(CASES.values()), ids=list(CASES))
def test_run_starts_marks_first_of_each_run(keys):
    s = np.sort(keys)
    _, first = np.unique(s, return_index=True)
    np.testing.assert_array_equal(np.flatnonzero(run_starts(s)), first)


def test_unique_sorted_leaves_its_input_alone():
    keys = np.array([3, 1, 3, 2], dtype=np.int64)
    unique_sorted(keys)
    np.testing.assert_array_equal(keys, [3, 1, 3, 2])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=80))
def test_fuzz_against_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    np.testing.assert_array_equal(unique_sorted(keys), np.unique(keys))
    assert count_distinct(keys) == np.unique(keys).size


@pytest.mark.parametrize("keys", [CASES["empty"], CASES["single"],
                                  CASES["all_duplicates"], CASES["already_sorted"]],
                         ids=["empty", "single", "all_duplicates", "already_sorted"])
def test_count_distinct_matches_np_unique(keys):
    assert count_distinct(keys) == np.unique(keys).size


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 2**31 - 1))
def test_pack_pairs_orders_like_lexsort(nmajor, nminor, seed):
    rng = np.random.default_rng(seed)
    major = rng.integers(0, nmajor, 60).astype(np.int64)
    minor = rng.integers(0, nminor, 60).astype(np.int64)
    key = pack_pairs(major, minor, nmajor, nminor)
    np.testing.assert_array_equal(
        np.argsort(key, kind="stable"), np.lexsort((minor, major))
    )


def test_pack_pairs_refuses_keys_that_could_overflow():
    one = np.zeros(1, dtype=np.int64)
    assert pack_pairs(one, one, 2, PACK_LIMIT // 2 - 1) is not None
    assert pack_pairs(one, one, 2, PACK_LIMIT // 2) is None
