"""Exact dense linear algebra over GF(2).

All placement, delivery, and decodability computations reduce to matrix
arithmetic mod 2.  Matrices are immutable 0/1 arrays; empty shapes
(0 x k, k x 0) are valid and act as empty linear maps, so degenerate
cases (no cache rows, no delivery rows) need no special handling.

Products and elimination pack each row into a Python integer (bit j =
column j) so that a row operation is a single XOR; pivots are always
the first nonzero column from the left.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Iterable, Sequence

import numpy as np

__all__ = ["BitMatrix", "mat_mul", "rank", "solve_left", "vstack"]


def _as_bits(data, what: str) -> np.ndarray:
    """*data* as a uint8 array of 0/1 entries, uncopied if it is one; else ValueError."""
    given = np.asarray(data)
    # The cast truncates and wraps (0.5 -> 0, 257 -> 1): other dtypes must survive it.
    arr = given if given.dtype == np.uint8 else given.astype(np.uint8)
    if (arr is not given and not np.array_equal(arr, given)) or (arr.size and arr.max() > 1):
        raise ValueError(f"{what} must be 0 or 1")
    return arr


class BitMatrix:
    """Immutable dense matrix over GF(2), backed by a read-only uint8 array."""

    __slots__ = ("_data",)

    def __init__(self, data) -> None:
        arr = np.array(_as_bits(data, "matrix entries"))  # a private copy
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array of bits, got shape {arr.shape}")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @property
    def data(self) -> np.ndarray:
        """Read-only uint8 view of the entries."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def row_texts(self) -> list[str]:
        text = (self._data + ord("0")).tobytes().decode("ascii")
        w = self.cols
        return [text[i * w : (i + 1) * w] for i in range(self.rows)]

    def apply(self, bits) -> np.ndarray:
        """Multiply this matrix by a column bit vector, returning a 1-d array."""
        vec = _as_bits(bits, "vector entries")
        if vec.ndim != 1 or vec.shape[0] != self.cols:
            raise ValueError(
                f"vector of length {vec.shape} does not match {self.cols} columns"
            )
        if self.rows == 0 or self.cols == 0:
            return np.zeros(self.rows, dtype=np.uint8)
        return ((self._data.astype(np.int64) @ vec.astype(np.int64)) % 2).astype(np.uint8)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        return mat_mul(self, other)

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for XOR: {self.shape} vs {other.shape}")
        return BitMatrix(self._data ^ other._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def __hash__(self) -> int:
        return hash((self.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): XOR-accumulate of entrywise ANDs.

    Row i of the product is the XOR of the packed rows of *b* that the
    set entries of row i of *a* select, so a selection row costs one
    lookup and the arithmetic is exact at any size.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    picks = _pack_rows(b.data).__getitem__
    rows, cols = np.nonzero(a.data)
    cols = cols.tolist()
    out, start = [], 0
    for end in np.cumsum(np.bincount(rows, minlength=a.rows)).tolist():
        out.append(reduce(xor, map(picks, cols[start:end]), 0))
        start = end
    return BitMatrix(_unpack_rows(out, b.cols))


def vstack(mats: Iterable[BitMatrix]) -> BitMatrix:
    """Stack matrices vertically; all operands must share a column count."""
    mats = list(mats)
    if not mats:
        raise ValueError("vstack needs at least one matrix")
    cols = mats[0].cols
    for m in mats[1:]:
        if m.cols != cols:
            raise ValueError(f"column mismatch in vstack: {m.cols} vs {cols}")
    return BitMatrix(np.vstack([m.data for m in mats]))


def _pack_rows(arr: np.ndarray) -> list[int]:
    # Bit j of each integer is column j of the row.
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        return [0] * arr.shape[0]
    packed = np.packbits(arr, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack_rows(rows: Sequence[int], cols: int) -> np.ndarray:
    nbytes = (cols + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(
        raw.reshape(len(rows), nbytes), axis=1, count=cols, bitorder="little"
    )


def _lead(r: int) -> int:
    # Index of the first nonzero column (lowest set bit).
    return (r & -r).bit_length() - 1


def _eliminate(rows: Iterable[int]) -> dict[int, tuple[int, int]]:
    """Echelon pivots of packed rows, keyed by leading column.

    Each pivot carries the combination of input rows (bit i = row i)
    that produced it.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for i, r in enumerate(rows):
        combo = 1 << i
        while r:
            lead = _lead(r)
            if lead in pivots:
                pv, pc = pivots[lead]
                r ^= pv
                combo ^= pc
            else:
                pivots[lead] = (r, combo)
                break
    return pivots


def rank(a: BitMatrix) -> int:
    """Row rank over GF(2): the number of pivots; 0 for empty matrices."""
    return len(_eliminate(_pack_rows(a.data)))


def solve_left(g: BitMatrix, e: BitMatrix) -> BitMatrix | None:
    """Find R with R @ g == e, or None when some row of e is outside g's row space.

    Elimination tracks, for every pivot row, the combination of original
    g rows that produced it; reducing a target row to zero yields its
    decoder row directly.
    """
    if g.cols != e.cols:
        raise ValueError(f"dimension mismatch: g is {g.shape}, e is {e.shape}")
    pivots = _eliminate(_pack_rows(g.data))
    out: list[int] = []
    for r in _pack_rows(e.data):
        combo = 0
        while r:
            lead = _lead(r)
            if lead not in pivots:
                return None
            pv, pc = pivots[lead]
            r ^= pv
            combo ^= pc
        out.append(combo)
    return BitMatrix(_unpack_rows(out, g.rows))
