import dataclasses

import numpy as np
import pytest

from oracle import byte_table_popcounts
from qembed.binary import (
    BinaryMatrix,
    BinaryMatrixError,
    is_binary,
    load_binary_matrix,
    packed_cognitive_load,
    popcounts,
    save_binary_matrix,
)


def random_dense(rng, n, m, p=0.3):
    return (rng.random((n, m)) < p).astype(np.uint8)


class TestPacking:
    def test_dense_roundtrip_exact(self):
        rng = np.random.Generator(np.random.PCG64(0))
        dense = random_dense(rng, 17, 43)
        matrix = BinaryMatrix.from_dense(dense)
        np.testing.assert_array_equal(matrix.to_dense(), dense)

    def test_little_endian_bit_order(self):
        # column j lands in byte j//8, bit j%8
        dense = np.zeros((1, 16), dtype=np.uint8)
        dense[0, 0] = 1
        dense[0, 9] = 1
        matrix = BinaryMatrix.from_dense(dense)
        assert matrix.packed[0, 0] == 1      # bit 0
        assert matrix.packed[0, 1] == 2      # bit 1 of second byte
        np.testing.assert_array_equal(matrix.row(0), dense[0])

    def test_width_not_multiple_of_eight(self):
        dense = np.ones((2, 5), dtype=np.uint8)
        matrix = BinaryMatrix.from_dense(dense)
        assert matrix.packed.shape == (2, 1)
        np.testing.assert_array_equal(matrix.to_dense(), dense)

    def test_rejects_non_binary_values(self):
        with pytest.raises(BinaryMatrixError):
            BinaryMatrix.from_dense(np.array([[0, 2]]))

    @pytest.mark.parametrize("bad, dtype", [(2, np.int8), (-1, np.int8), (2, np.int64),
                                            (-1, np.int64)]
                             + [(bad, dtype) for bad in (2, -1, 0.5, np.nan, np.inf)
                                for dtype in (np.float32, np.float64)])
    def test_rejects_each_non_binary_value(self, bad, dtype):
        dense = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.float64)
        dense[1, 2] = bad
        with pytest.raises(BinaryMatrixError, match="only 0/1"):
            BinaryMatrix.from_dense(dense.astype(dtype))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.uint64, np.int64,
                                       np.float16, np.float64, object])
    def test_accepts_binary_rows_of_every_dtype(self, dtype):
        dense = np.array([[0, 1, 1], [1, 0, 0]]).astype(dtype)
        np.testing.assert_array_equal(BinaryMatrix.from_dense(dense).to_dense(),
                                      dense.astype(np.uint8))

    def test_empty_matrix_with_columns(self):
        matrix = BinaryMatrix.from_dense(np.zeros((0, 12), dtype=np.uint8))
        assert matrix.n == 0 and matrix.m == 12

    def test_row_ids_index(self):
        matrix = BinaryMatrix.from_dense(np.eye(3, dtype=np.uint8), ["a", "b", "c"])
        assert matrix.row_index("b") == 1
        with pytest.raises(KeyError):
            matrix.row_index("z")


class TestIsBinary:
    """is_binary accepts exactly the arrays np.isin(values, (0, 1)).all() does."""

    @pytest.mark.parametrize("values", [
        np.zeros(0), np.zeros((0, 4), dtype=np.int64), np.array([True, False]),
        np.array([0, 1], dtype=np.uint8), np.array([[1, 1], [0, 1]], dtype=np.int64),
        np.array([0, 2], dtype=np.uint8), np.array([-1, 1], dtype=np.int32),
        np.array([1.0, -0.0]), np.array([0.0, 0.5]), np.array([np.nan, 1.0]),
        np.array([1.0, np.inf]), np.array([1, 0], dtype=object), np.array([1, 2], dtype=object),
        np.array([1 + 0j, 0j]), np.array([1j, 0j]), np.iinfo(np.int64).min * np.ones(2, np.int64),
        np.array(["0", "1"]),
    ])
    def test_same_as_elementwise_isin(self, values):
        assert is_binary(values) == bool(np.isin(values, (0, 1)).all())


def assert_same_popcounts(packed):
    got, want = popcounts(packed), byte_table_popcounts(packed)
    assert got.dtype == want.dtype == np.uint64
    assert got.tolist() == want.tolist()


class TestPopcounts:
    """The 16-bit table kernel equals the byte-table kernel exactly."""

    @pytest.mark.parametrize("width", range(18))
    def test_every_width_and_rank(self, width):
        g = np.random.Generator(np.random.PCG64(width))
        for shape in ((width,), (9, width), (3, 4, width)):
            assert_same_popcounts(g.integers(0, 256, size=shape, dtype=np.uint8))

    @pytest.mark.parametrize("width", range(18))
    def test_non_contiguous_row_views(self, width):
        g = np.random.Generator(np.random.PCG64(100 + width))
        rows = g.integers(0, 256, size=(10, width), dtype=np.uint8)
        assert_same_popcounts(rows[0::2])  # as STS takes each pair's first rows
        assert_same_popcounts(rows[1::3])
        assert_same_popcounts(rows.reshape(2, 5, width)[:, ::2])

    @pytest.mark.parametrize("width", range(18))
    def test_all_zero_and_all_one_rows(self, width):
        for fill in (0, 255):
            rows = np.full((4, width), fill, dtype=np.uint8)
            assert_same_popcounts(rows)
            assert popcounts(rows).tolist() == [8 * width if fill else 0] * 4


class TestRowPopcounts:
    """Row popcounts are counted once and equal a fresh count of the rows."""

    def test_from_dense(self):
        dense = random_dense(np.random.Generator(np.random.PCG64(5)), 30, 77)
        matrix = BinaryMatrix.from_dense(dense)
        assert matrix.row_popcounts.tolist() == popcounts(matrix.packed).tolist()
        assert matrix.row_popcounts.tolist() == dense.sum(axis=1).tolist()
        assert matrix.row_popcounts is matrix.row_popcounts

    def test_after_save_and_load(self, tmp_path):
        dense = random_dense(np.random.Generator(np.random.PCG64(6)), 12, 130)
        save_binary_matrix(BinaryMatrix.from_dense(dense), tmp_path / "m.bin")
        loaded = load_binary_matrix(tmp_path / "m.bin")
        assert loaded.row_popcounts.tolist() == popcounts(loaded.packed).tolist()
        assert loaded.row_popcounts.tolist() == dense.sum(axis=1).tolist()

    def test_packed_rows_are_read_only(self, tmp_path):
        matrix = BinaryMatrix.from_dense(np.eye(9, dtype=np.uint8))
        save_binary_matrix(matrix, tmp_path / "m.bin")
        for built in (matrix, load_binary_matrix(tmp_path / "m.bin")):
            with pytest.raises(ValueError, match="read-only"):
                built.packed[0, 0] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                built.packed = np.zeros_like(built.packed)

    def test_constructor_freezes_the_given_rows(self):
        packed = np.array([[3], [1]], dtype=np.uint8)
        matrix = BinaryMatrix(packed=packed, m=2, row_ids=["a", "b"])
        with pytest.raises(ValueError, match="read-only"):
            packed[0, 0] = 0
        assert matrix.row_popcounts.tolist() == [2, 1]


class TestCognitiveLoadPacked:
    def test_matches_loop_oracle_on_random_pairs(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for m in (1, 7, 8, 64, 130, 512):
            dense = random_dense(rng, 20, m)
            matrix = BinaryMatrix.from_dense(dense)
            for _ in range(10):
                i, j = rng.integers(20, size=2)
                expected = int(sum(int(a) * int(b) for a, b in zip(dense[i], dense[j])))
                assert matrix.pair_load(int(i), int(j)) == expected

    def test_symmetry_and_bound(self):
        rng = np.random.Generator(np.random.PCG64(2))
        dense = random_dense(rng, 10, 100)
        matrix = BinaryMatrix.from_dense(dense)
        for i in range(10):
            for j in range(10):
                load = matrix.pair_load(i, j)
                assert load == matrix.pair_load(j, i)
                assert load <= min(dense[i].sum(), dense[j].sum())

    def test_packed_length_mismatch_rejected(self):
        with pytest.raises(BinaryMatrixError):
            packed_cognitive_load(np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.uint8))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        dense = random_dense(rng, 9, 37)
        matrix = BinaryMatrix.from_dense(dense, [f"doc-{i}" for i in range(9)])
        path = tmp_path / "emb.bin"
        save_binary_matrix(matrix, path)
        loaded = load_binary_matrix(path)
        assert loaded.m == 37
        assert loaded.row_ids == matrix.row_ids
        np.testing.assert_array_equal(loaded.to_dense(), dense)

    def test_header_is_two_uint64_le(self, tmp_path):
        matrix = BinaryMatrix.from_dense(np.ones((3, 11), dtype=np.uint8))
        path = tmp_path / "emb.bin"
        save_binary_matrix(matrix, path)
        blob = path.read_bytes()
        assert int.from_bytes(blob[0:8], "little") == 3
        assert int.from_bytes(blob[8:16], "little") == 11

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        save_binary_matrix(BinaryMatrix.from_dense(np.eye(3, 11, dtype=np.uint8),
                                                   ["a", "b\u00e9", "c"]), path)
        blob = path.read_bytes()
        for corrupt in [b"\x01\x02\x03"] + [blob[:cut] for cut in range(len(blob))]:
            path.write_bytes(corrupt)
            with pytest.raises(BinaryMatrixError):
                load_binary_matrix(path)
