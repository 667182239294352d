"""Round-trip tests for .npz serialization of GraphBLAS objects."""

import numpy as np
import pytest

from repro.core import lacc
from repro.graphblas import Matrix, Vector, serialize
from repro.graphs import generators as gen


class TestMatrix:
    def test_roundtrip(self, tmp_path):
        g = gen.erdos_renyi(50, 3.0, seed=1)
        m = g.to_matrix()
        p = tmp_path / "m.npz"
        serialize.save_matrix(p, m)
        back = serialize.load_matrix(p)
        assert back.isequal(m)
        assert back.dtype == m.dtype

    def test_stored_symmetry_flag_is_ignored(self, tmp_path):
        # edge 0 -> 1 stored one way only, in an archive that claims symmetry
        p = tmp_path / "m.npz"
        np.savez_compressed(
            p, kind="matrix", nrows=3, ncols=3,
            indptr=np.array([0, 1, 1, 1]), indices=np.array([1]),
            values=np.array([True]), symmetric=np.int8(1),
        )
        A = serialize.load_matrix(p)
        assert not A.is_symmetric
        with pytest.raises(ValueError, match="symmetric"):
            lacc(A)

    def test_adjacency_reloads_symmetric(self, tmp_path):
        m = Matrix.adjacency(4, [0, 1], [1, 2])
        p = tmp_path / "m.npz"
        serialize.save_matrix(p, m)
        assert serialize.load_matrix(p).is_symmetric is True

    def test_float_values(self, tmp_path):
        m = Matrix.from_edges(2, 3, [0, 1], [2, 0], [0.25, -1.5])
        p = tmp_path / "m.npz"
        serialize.save_matrix(p, m)
        back = serialize.load_matrix(p)
        np.testing.assert_array_equal(back.values, m.values)

    def test_empty_matrix(self, tmp_path):
        m = Matrix.from_edges(5, 5, [], [])
        p = tmp_path / "m.npz"
        serialize.save_matrix(p, m)
        assert serialize.load_matrix(p).nvals == 0

    def test_kind_check(self, tmp_path):
        p = tmp_path / "s.npz"
        serialize.save_state(p, {"v": Vector.iota(3)})
        with pytest.raises(ValueError):
            serialize.load_matrix(p)


def roundtrip(tmp_path, v: Vector) -> Vector:
    """*v* written to a state archive and read back: each vector of a
    checkpoint is stored this way."""
    p = tmp_path / "s.npz"
    serialize.save_state(p, {"v": v})
    vectors, _ = serialize.load_state(p)
    return vectors["v"]


class TestVector:
    def test_roundtrip_sparse(self, tmp_path):
        v = Vector.sparse(100, [3, 50, 99], [7, -2, 9])
        assert roundtrip(tmp_path, v).isequal(v)

    def test_roundtrip_dense(self, tmp_path):
        v = Vector.iota(20)
        assert roundtrip(tmp_path, v).isequal(v)

    def test_bool_vector(self, tmp_path):
        v = Vector.sparse(5, [1, 3], [True, False], dtype=np.bool_)
        back = roundtrip(tmp_path, v)
        assert back.dtype == np.bool_ and back.isequal(v)

    def test_empty(self, tmp_path):
        back = roundtrip(tmp_path, Vector.empty(7))
        assert back.size == 7 and back.nvals == 0

    def test_kind_check(self, tmp_path):
        m = Matrix.from_edges(2, 2, [0], [1], [1])
        p = tmp_path / "m.npz"
        serialize.save_matrix(p, m)
        with pytest.raises(ValueError):
            serialize.load_state(p)


class TestDispatch:
    def test_checkpoint_resume_workflow(self, tmp_path):
        """Save a graph, reload it, run LACC — results unchanged."""
        g = gen.component_mixture([8, 4], seed=2)
        A = g.to_matrix()
        p = tmp_path / "ckpt.npz"
        serialize.save_matrix(p, A)
        r1 = lacc(A)
        r2 = lacc(serialize.load_matrix(p))
        np.testing.assert_array_equal(r1.parents, r2.parents)


DTYPES = [np.bool_, np.int32, np.int64, np.uint64, np.float64]


def _values_for(dtype, rng, k):
    if dtype is np.bool_:
        return rng.integers(0, 2, size=k).astype(np.bool_)
    if dtype is np.uint64:
        return rng.integers(0, 2**63, size=k, dtype=np.uint64)
    if dtype is np.float64:
        return rng.standard_normal(k)
    return rng.integers(-1000, 1000, size=k).astype(dtype)


class TestDtypeMatrix:
    """Round-trips across every dtype the LACC stack stores, in both
    storage modes — the contract checkpointing leans on."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sparse_mode(self, dtype, tmp_path):
        rng = np.random.default_rng(hash(np.dtype(dtype).name) % 2**32)
        idx = np.sort(rng.choice(64, size=17, replace=False))
        v = Vector.sparse(64, idx, _values_for(dtype, rng, 17), dtype=dtype)
        back = roundtrip(tmp_path, v)
        assert back.dtype == np.dtype(dtype)
        assert back.isequal(v)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dense_mode(self, dtype, tmp_path):
        # dense mode marks every position present, so falsy values (bool
        # False, 0) must survive the sparse on-disk layout
        rng = np.random.default_rng(1)
        v = Vector.dense(_values_for(dtype, rng, 40))
        assert v.mode == "dense" and v.nvals == 40
        back = roundtrip(tmp_path, v)
        assert back.dtype == np.dtype(dtype)
        assert back.nvals == 40
        assert back.isequal(v)

    def test_uint64_upper_range_exact(self, tmp_path):
        v = Vector.sparse(
            4, [0, 3], np.array([2**63 + 5, 2**64 - 1], dtype=np.uint64),
            dtype=np.uint64,
        )
        idx, vals = roundtrip(tmp_path, v).sparse_arrays()
        np.testing.assert_array_equal(vals, [2**63 + 5, 2**64 - 1])


class TestStateBundle:
    """save_state/load_state — the checkpoint container."""

    def test_round_trip_vectors_and_meta(self, tmp_path):
        parents = Vector.dense(np.array([0, 0, 2, 2], dtype=np.int64))
        star = Vector.dense(np.array([True, True, False, True]))
        meta = {"iteration": 3, "simulated_seconds": 1.25, "crc": 12345}
        p = tmp_path / "state.npz"
        serialize.save_state(p, {"parents": parents, "star": star}, meta=meta)
        vectors, back_meta = serialize.load_state(p)
        assert set(vectors) == {"parents", "star"}
        np.testing.assert_array_equal(vectors["parents"].to_numpy(), [0, 0, 2, 2])
        np.testing.assert_array_equal(
            vectors["star"].to_numpy().astype(bool), [True, True, False, True]
        )
        assert back_meta == meta

    def test_meta_optional(self, tmp_path):
        p = tmp_path / "state.npz"
        serialize.save_state(p, {"x": Vector.iota(3)})
        vectors, meta = serialize.load_state(p)
        assert meta == {} and vectors["x"].isequal(Vector.iota(3))

    def test_bad_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="identifier"):
            serialize.save_state(tmp_path / "s.npz", {"no-dash": Vector.iota(2)})

    def test_vector_archive_is_not_state(self, tmp_path):
        # the single-vector layout that older versions wrote
        p = tmp_path / "v.npz"
        np.savez_compressed(
            p, kind="vector", size=3, indices=np.arange(3), values=np.arange(3)
        )
        with pytest.raises(ValueError, match="not a serialized state"):
            serialize.load_state(p)
