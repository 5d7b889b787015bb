"""Exact sparse linear algebra over GF(2).

All placement, delivery, and decodability computations reduce to matrix
arithmetic mod 2.  A matrix stores only its set entries, as compressed
sparse rows: ``indptr`` and ``indices``, the column indices of each row
sorted and unique.  Empty shapes (0 x k, k x 0) are valid and act as
empty linear maps, so degenerate cases (no cache rows, no delivery rows)
need no special handling.

Sums and stacks are index arithmetic on the entries: an entry that
occurs an odd number of times survives, an even count cancels.  A
product row that selects one row of the right operand copies it; the
other product rows XOR the right operand's rows, packed into Python
integers (bit j = column j), so a dense product costs what it did on
dense storage.
Elimination first splits the columns into the connected components of
the rows that share them, since no row operation crosses a component.
Each row is packed into a Python integer over its component's columns
(bit j = the component's j-th column) so that a row operation is a
single XOR; pivots are always the first nonzero column from the left.
A dense matrix is one component and runs the same code.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Iterable

import numpy as np

__all__ = ["BitMatrix", "mat_mul", "rank", "solve_left", "vstack"]


def _as_bits(data, what: str) -> np.ndarray:
    """*data* as a uint8 array of 0/1 entries, uncopied if it is one; else ValueError."""
    given = np.asarray(data)
    if given.dtype == np.uint8:
        if given.size and given.max() > 1:
            raise ValueError(f"{what} must be 0 or 1")
        return given
    # Compare before casting: a cast truncates and wraps (0.5 -> 0, 257 -> 1)
    # and warns on NaN and complex values.
    if given.dtype.kind not in "biuf" or not ((given == 0) | (given == 1)).all():
        raise ValueError(f"{what} must be 0 or 1")
    return given.astype(np.uint8)


def _csr(keys: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, int]:
    """CSR arrays of the entries whose sorted unique keys are r * cols + c."""
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    return indptr, keys % shape[1], shape[1]


def _odd_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted keys (all >= 0) that occur an odd number of times; pairs cancel."""
    if np.all(keys[1:] > keys[:-1]):
        return keys
    keys = np.sort(keys)
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(first, append=keys.size)
    return keys[first[counts % 2 == 1]]


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges [start, start + length) for each pair."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if ends.size else 0)


def _pack(pieces: np.ndarray, bits: np.ndarray, nbytes: np.ndarray) -> list[int]:
    """One integer per piece, with bit bits[i] set in integer pieces[i].

    Integer p spans nbytes[p] bytes.
    """
    starts = np.concatenate([[0], np.cumsum(nbytes)])
    flags = np.zeros(8 * starts[-1], dtype=bool)
    flags[8 * starts[pieces] + bits] = True
    raw, bounds = np.packbits(flags, bitorder="little").tobytes(), starts.tolist()
    return [int.from_bytes(raw[lo:hi], "little") for lo, hi in zip(bounds, bounds[1:])]


def _unpack(ints: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Index of the integer and position of every set bit, integer by integer."""
    chunks = [r.to_bytes((r.bit_length() + 63) >> 6 << 3, "little") for r in ints]
    starts = np.cumsum([0, *map(len, chunks)]) >> 3
    words = np.frombuffer(b"".join(chunks), dtype=np.uint64)
    at = np.flatnonzero(words)
    owner = np.searchsorted(starts, at, side="right") - 1
    # Each word holds 8 little-endian bytes, whatever the machine's order.
    hit = np.flatnonzero(np.unpackbits(words[at].view(np.uint8), bitorder="little"))
    word = hit >> 6
    return owner[word], 64 * (at - starts[owner])[word] + (hit & 63)


class BitMatrix:
    """Immutable sparse matrix over GF(2).

    Row i's ones are at columns ``indices[indptr[i]:indptr[i + 1]]``,
    sorted and unique; both arrays are read-only.
    """

    __slots__ = ("indptr", "indices", "cols")

    def __init__(self, data) -> None:
        arr = _as_bits(data, "matrix entries")
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array of bits, got shape {arr.shape}")
        self._set(*_csr(np.flatnonzero(arr), arr.shape))

    def _set(self, indptr: np.ndarray, indices: np.ndarray, cols: int) -> None:
        # Canonical arrays only: indices sorted and unique within each row.
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.indptr, self.indices, self.cols = indptr, indices, int(cols)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, shape: tuple[int, int]) -> "BitMatrix":
        out = cls.__new__(cls)
        out._set(*_csr(keys, shape))
        return out

    @classmethod
    def from_entries(cls, rows, cols, shape: tuple[int, int]) -> "BitMatrix":
        """The matrix of *shape* whose entry (r, c) is the parity of the pairs (r, c) given.

        Pairs may come in any order; a pair given twice cancels.
        """
        n_rows, n_cols = (int(x) for x in shape)
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        if rows.shape != cols.shape:
            raise ValueError(f"{rows.size} row indices for {cols.size} column indices")
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"negative shape {shape}")
        for name, idx, bound in (("row", rows, n_rows), ("column", cols, n_cols)):
            if idx.size and (idx.min() < 0 or idx.max() >= bound):
                raise ValueError(f"{name} index out of range for shape {(n_rows, n_cols)}")
        return cls._from_keys(_odd_keys(rows * n_cols + cols), (n_rows, n_cols))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls.from_entries([], [], (rows, cols))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_entries(np.arange(n), np.arange(n), (n, n))

    @property
    def data(self) -> np.ndarray:
        """Dense read-only uint8 copy of the entries, built on each read."""
        dense = np.zeros(self.shape, dtype=np.uint8)
        dense[self.nonzero()] = 1
        dense.setflags(write=False)
        return dense

    @property
    def rows(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the set entries, in row-major order."""
        return np.repeat(np.arange(self.rows), np.diff(self.indptr)), self.indices

    def apply(self, bits) -> np.ndarray:
        """Multiply this matrix by a column bit vector, returning a 1-d array."""
        vec = _as_bits(bits, "vector entries")
        if vec.ndim != 1 or vec.shape[0] != self.cols:
            raise ValueError(
                f"vector of length {vec.shape} does not match {self.cols} columns"
            )
        # Running XOR over the selected bits; each row's parity is the
        # difference of the running values at its two ends.
        running = np.zeros(self.indices.size + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate(vec[self.indices], out=running[1:])
        return running[self.indptr[1:]] ^ running[self.indptr[:-1]]

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        return mat_mul(self, other)

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for XOR: {self.shape} vs {other.shape}")
        (r1, c1), (r2, c2) = self.nonzero(), other.nonzero()
        rows, cols = np.concatenate([r1, r2]), np.concatenate([c1, c2])
        return BitMatrix.from_entries(rows, cols, self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): XOR-accumulate of entrywise ANDs.

    Row i of the product is the XOR of the rows of *b* that the set
    entries of row i of *a* select.  A row that selects one row of *b*
    is a copy of it.  For rows that select more, the rows of *b* are
    packed into Python integers (bit j = column j), so each selection
    costs one integer XOR, however dense the operands.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    picks = np.diff(a.indptr)
    one = np.flatnonzero(picks == 1)
    src = a.indices[a.indptr[one]]
    lengths = np.diff(b.indptr)[src]
    copied = b.indices[_ragged_arange(b.indptr[src], lengths)]
    keys = [np.repeat(one, lengths) * b.cols + copied]
    many = np.flatnonzero(picks > 1)
    if many.size:
        row = _pack(*b.nonzero(), np.full(b.rows, (b.cols + 7) >> 3)).__getitem__
        sel, bounds = a.indices.tolist(), a.indptr.tolist()
        owner, cols = _unpack(
            reduce(xor, map(row, sel[bounds[i] : bounds[i + 1]])) for i in many.tolist()
        )
        keys.append(many[owner] * b.cols + cols)
    return BitMatrix._from_keys(_odd_keys(np.concatenate(keys)), (a.rows, b.cols))


def vstack(mats: Iterable[BitMatrix]) -> BitMatrix:
    """Stack matrices vertically; all operands must share a column count."""
    mats = list(mats)
    if not mats:
        raise ValueError("vstack needs at least one matrix")
    cols = mats[0].cols
    for m in mats[1:]:
        if m.cols != cols:
            raise ValueError(f"column mismatch in vstack: {m.cols} vs {cols}")
    offsets = np.cumsum([0] + [m.indices.size for m in mats])
    out = BitMatrix.__new__(BitMatrix)
    out._set(
        np.concatenate([[0]] + [m.indptr[1:] + off for m, off in zip(mats, offsets)]),
        np.concatenate([m.indices for m in mats]),
        cols,
    )
    return out


def _components(m: BitMatrix) -> np.ndarray:
    """Label of every column: the smallest column of its connected component.

    Columns that share a row are joined: each entry to its row's first
    column, which is the row's smallest.  Every column first points at
    the smallest first column of its rows.  Then each pass jumps
    pointers until every column points at a root, and hooks every root
    onto the smallest root it shares an entry with.
    """
    lengths = np.diff(m.indptr)
    live = lengths > 0
    starts = np.repeat(m.indices[m.indptr[:-1][live]], lengths[live])
    ends = m.indices
    parent = np.arange(m.cols)
    np.minimum.at(parent, ends, starts)
    while True:
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        a, b = parent[starts], parent[ends]
        split = a != b
        if not split.any():
            return parent
        # Joined columns stay joined, so later passes check only the rest.
        starts, ends, a, b = starts[split], ends[split], a[split], b[split]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))


class _Echelon:
    """Echelon pivots of a matrix, eliminated component by component.

    Columns are laid out component by component, each in its original
    order; a pivot is keyed by the layout position of its leading column
    and carries the combination of its component's rows that produced it
    (bit i = the component's i-th row).
    """

    def __init__(self, g: BitMatrix) -> None:
        label = _components(g)
        self.g_rows = g.rows
        layout = np.argsort(label, kind="stable")
        self.position = np.empty(g.cols, dtype=np.intp)
        self.position[layout] = np.arange(g.cols)
        self.label = label
        self.width = np.bincount(label, minlength=g.cols)
        row_lengths = np.diff(g.indptr)
        live = np.flatnonzero(row_lengths)
        comp = label[g.indices[g.indptr[live]]]
        # Rows grouped by component, in row order within each.
        by_comp = np.argsort(comp, kind="stable")
        self.row_count = np.bincount(comp, minlength=g.cols)
        self.row_start = np.concatenate([[0], np.cumsum(self.row_count)])
        self.comp_rows = live[by_comp]
        local_row = np.empty(live.size, dtype=np.intp)
        local_row[by_comp] = np.arange(live.size) - self.row_start[comp[by_comp]]
        rows = self._packed(np.repeat(np.arange(live.size), row_lengths[live]), g.indices, comp)
        self.pivots = pivots = {}
        get = pivots.get
        for r, base, i in zip(rows, self.position[comp].tolist(), local_row.tolist()):
            combo = 1 << i
            while r:
                key = base + (r & -r).bit_length() - 1
                hit = get(key)
                if hit is None:
                    pivots[key] = (r, combo)
                    break
                r ^= hit[0]
                combo ^= hit[1]

    def _packed(self, pieces: np.ndarray, cols: np.ndarray, comp: np.ndarray) -> list[int]:
        """One integer per piece, over the columns of its component *comp*.

        Piece pieces[i] has a one in column cols[i]; bit j is the
        component's j-th column.
        """
        bits = self.position[cols] - self.position[self.label[cols]]
        return _pack(pieces, bits, (self.width[comp] + 7) >> 3)

    def decoder(self, e: BitMatrix) -> BitMatrix | None:
        """R with R @ g == e, or None when some row of e is outside g's row space.

        Each row of e is split into its pieces in each component; every
        piece must reduce to zero, and the combinations that reduce the
        pieces of a row make up its decoder row.
        """
        rows, cols = e.nonzero()
        base = self.position[self.label[cols]]
        key = rows * e.cols + base
        order = np.argsort(key, kind="stable")
        rows, cols, base = rows[order], cols[order], base[order]
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        comp = self.label[cols[first]]
        pieces = np.repeat(np.arange(first.size), np.diff(first, append=rows.size))
        combos = []
        get = self.pivots.get
        for r, b in zip(self._packed(pieces, cols, comp), base[first].tolist()):
            combo = 0
            while r:
                hit = get(b + (r & -r).bit_length() - 1)
                if hit is None:
                    return None
                r ^= hit[0]
                combo ^= hit[1]
            combos.append(combo)
        # Unpack the combinations into the rows of g they select.
        owner, local = _unpack(combos)
        picked = self.comp_rows[self.row_start[comp[owner]] + local]
        return BitMatrix.from_entries(rows[first[owner]], picked, (e.rows, self.g_rows))


def rank(a: BitMatrix) -> int:
    """Row rank over GF(2): the number of pivots; 0 for empty matrices."""
    return len(_Echelon(a).pivots)


def solve_left(g: BitMatrix, e: BitMatrix) -> BitMatrix | None:
    """Find R with R @ g == e, or None when some row of e is outside g's row space.

    Elimination tracks, for every pivot row, the combination of original
    g rows that produced it; reducing a target row to zero yields its
    decoder row directly.
    """
    if g.cols != e.cols:
        raise ValueError(f"dimension mismatch: g is {g.shape}, e is {e.shape}")
    return _Echelon(g).decoder(e)
