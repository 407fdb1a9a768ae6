"""Bit-packed binary embedding matrices: 8 columns per byte, little-endian bit order."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .jsonl import replacing

# popcount of each byte value, and of each pair of bytes read as one uint16 (a
# sum of two byte counts, so either byte order gives the same table); tables
# rather than np.bitwise_count, which numpy 1.24 lacks
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_POPCOUNT16 = (_POPCOUNT8[:, None] + _POPCOUNT8[None, :]).ravel()


class BinaryMatrixError(ValueError):
    """Raised on shape mismatches or corrupt binary matrix files."""


def is_binary(values: np.ndarray) -> bool:
    """True iff every entry equals 0 or 1 (vacuously for no entries): bool and
    integer arrays by their min and max, other dtypes entry by entry."""
    values = np.asarray(values)
    if values.dtype == np.bool_ or values.size == 0:
        return True
    if np.issubdtype(values.dtype, np.integer):
        return bool(values.min() >= 0 and values.max() <= 1)
    return bool(np.isin(values, (0, 1)).all())


@dataclass(frozen=True)
class BinaryMatrix:
    """Packed rows, made read-only when the matrix is built, so the row
    popcounts, counted on first use, cannot go stale."""
    packed: np.ndarray  # (n, ceil(m/8)) uint8
    m: int  # true column count (bank size)
    row_ids: list[str]

    def __post_init__(self):
        n = self.packed.shape[0]
        if len(self.row_ids) != n:
            raise BinaryMatrixError(f"{len(self.row_ids)} row ids for {n} rows")
        if self.packed.shape[1] != (self.m + 7) // 8:
            raise BinaryMatrixError(
                f"packed width {self.packed.shape[1]} does not fit m={self.m}")
        self.packed.flags.writeable = False
        object.__setattr__(self, "_index", {rid: i for i, rid in enumerate(self.row_ids)})

    @cached_property
    def row_popcounts(self) -> np.ndarray:
        """Yes-count (squared norm) of each row, uint64, counted once."""
        return popcounts(self.packed)

    @property
    def n(self) -> int:
        return int(self.packed.shape[0])

    @classmethod
    def from_dense(cls, dense: np.ndarray, row_ids: list[str] | None = None) -> "BinaryMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise BinaryMatrixError(f"dense matrix must be 2-d, got shape {dense.shape}")
        if not is_binary(dense):
            raise BinaryMatrixError("dense matrix must contain only 0/1 values")
        n, m = dense.shape
        if row_ids is None:
            row_ids = [str(i) for i in range(n)]
        packed = np.packbits(dense.astype(np.uint8), axis=1, bitorder="little")
        if m == 0:
            packed = packed.reshape(n, 0)
        return cls(packed=packed, m=m, row_ids=list(row_ids))

    def to_dense(self) -> np.ndarray:
        if self.m == 0:
            return np.zeros((self.n, 0), dtype=np.uint8)
        dense = np.unpackbits(self.packed, axis=1, bitorder="little")
        return dense[:, :self.m]

    def row(self, i: int) -> np.ndarray:
        """Dense 0/1 view of one row."""
        if not 0 <= i < self.n:
            raise BinaryMatrixError(f"row {i} out of range [0, {self.n})")
        if self.m == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.unpackbits(self.packed[i], bitorder="little")[:self.m]

    def row_index(self, row_id: str) -> int:
        return self._index[row_id]

    def row_indices(self, row_ids: list[str]) -> np.ndarray:
        """Row index of each id, in one pass; KeyError names the first id absent."""
        return np.fromiter(map(self._index.__getitem__, row_ids), dtype=np.intp,
                           count=len(row_ids))

    @cached_property
    def _ids_ascending(self) -> bool:
        ids = self.row_ids
        return all(a < b for a, b in zip(ids, ids[1:]))

    def rows_are_sorted(self, ids) -> bool:
        """Whether the row ids are exactly the set-like ids, in ascending order:
        then the rows are those of sorted(ids), in that order. The order is
        checked once per matrix."""
        return self._index.keys() == ids and self._ids_ascending

    def pair_load(self, i: int, j: int) -> int:
        """Shared-yes count of rows i and j via packed popcount."""
        return packed_cognitive_load(self.packed[i], self.packed[j])


def popcounts(packed: np.ndarray) -> np.ndarray:
    """Yes-count of each packed uint8 row, i.e. its squared norm, as uint64.

    The last axis is a row and must be contiguous, as in any row view of a
    packed matrix: byte pairs are read as uint16 and looked up in one table, and
    an odd last byte in the byte table.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    width = packed.shape[-1]
    pairs = packed[..., :width & ~1].view(np.uint16)
    counts = np.take(_POPCOUNT16, pairs).sum(axis=-1, dtype=np.uint64)
    if width & 1:
        counts += _POPCOUNT8[packed[..., -1]]
    return counts


def packed_cognitive_load(pu: np.ndarray, pv: np.ndarray) -> int:
    if pu.shape != pv.shape:
        raise BinaryMatrixError(f"packed length mismatch: {pu.shape} vs {pv.shape}")
    return int(popcounts(np.bitwise_and(pu, pv)))


def save_binary_matrix(matrix: BinaryMatrix, path: str | Path) -> None:
    """Header: n and m as little-endian uint64; then packed rows; then row-id lines."""
    with replacing(path, "wb") as fh:
        fh.write(struct.pack("<QQ", matrix.n, matrix.m))
        fh.write(np.ascontiguousarray(matrix.packed).tobytes())
        fh.write("".join(rid + "\n" for rid in matrix.row_ids).encode("utf-8"))


def load_binary_matrix(path: str | Path) -> BinaryMatrix:
    blob = Path(path).read_bytes()
    if len(blob) < 16:
        raise BinaryMatrixError(f"truncated binary matrix file: {path}")
    n, m = struct.unpack("<QQ", blob[:16])
    width = (m + 7) // 8
    end = 16 + n * width
    if len(blob) < end:
        raise BinaryMatrixError(f"binary matrix file shorter than header claims: {path}")
    packed = np.frombuffer(blob, dtype=np.uint8, count=n * width, offset=16).reshape(n, width)
    try:
        *row_ids, torn = blob[end:].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise BinaryMatrixError(f"row ids are not utf-8: {path}") from exc
    if torn or len(row_ids) != n:  # save writes each id followed by a newline
        raise BinaryMatrixError(f"expected {n} newline-terminated row ids, "
                                f"found {len(row_ids)}: {path}")
    return BinaryMatrix(packed=packed, m=int(m), row_ids=row_ids)
