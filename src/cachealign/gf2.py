"""Exact sparse linear algebra over GF(2).

All placement, delivery, and decodability computations reduce to matrix
arithmetic mod 2.  A matrix stores only its set entries, as compressed
sparse rows: ``indptr`` and ``indices``, the column indices of each row
sorted and unique.  Empty shapes (0 x k, k x 0) are valid and act as
empty linear maps, so degenerate cases (no cache rows, no delivery rows)
need no special handling.

Bits come in two formats: these sparse rows, and (rows x words) uint64
arrays of word rows, bit j % 64 of word j // 64 standing for bit j of a
row.  Sums and stacks are index arithmetic on the entries: an entry
that occurs an odd number of times survives, an even count cancels.  A
product row that selects one row of the right operand copies it; the
other product rows XOR the right operand's word rows, so a dense
product costs what it would on dense storage.

Elimination first splits the columns into the connected components of
the rows that share them, since no row operation crosses a component.
Components of similar width and row count form a group.  Each is written
as its rows' bits over its own columns, in order, and components with
equal bits, their pattern, eliminate alike: a group eliminates each
distinct pattern once, stored as one (patterns x rows x words) uint64
array whose rows hold their bits, then the combination of the pattern's
rows that produced them, which starts as the identity.  Gauss-Jordan
elimination runs on a whole group in lockstep, one column at a time:
each pattern's pivot row for the column is XORed into its other rows
that hold the bit, all patterns in one numpy pass.  A row of the right
side is likewise split into pieces, one per component, and each
distinct (pattern, piece) pair is reduced once; a piece's combination
is then read over the rows of its own component.  The copies of a
scheme's parts thus cost one elimination per pattern, however many
copies there are.  A dense matrix is one component and runs the same
code.  _Reduced.decode builds the decoder from these combinations.
_solve_stacked solves several systems stacked as one block-diagonal
system, so that they share those passes, and cuts the decoder into
each system's rows; the failing rows of each system give its verdict.
"""

from __future__ import annotations

import itertools
import numbers
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

__all__ = ["BitMatrix", "Solution", "mat_mul", "rank", "solve_left", "vstack"]


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


def _is_integer(x) -> bool:
    # bool is an Integral, but True is no count.
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _rational(x, what: str, refusal: str = "{what} must be a finite number, got {x!r}") -> Fraction:
    """*x* as an exact Fraction; unless it is a finite number, a ValueError worded by *refusal*."""
    # bool is a number, but True is no memory, weight or gain.  Fraction
    # raises OverflowError for an infinity and ZeroDivisionError for "1/0".
    if not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ArithmeticError, TypeError, ValueError):
            pass
    raise ValueError(refusal.format(what=what, x=x))


def _csr(keys: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, int]:
    """CSR arrays of the entries whose sorted unique keys are r * cols + c."""
    rows, cols = shape
    indptr = np.zeros(rows + 1, dtype=np.intp)
    # With no rows or no columns there are no keys, and no row to count.
    if not rows or not cols:
        return indptr, keys.copy(), cols
    row, col = np.divmod(keys, cols)
    np.bincount(row, minlength=rows).cumsum(out=indptr[1:])
    return indptr, col, cols


def _odd_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted keys (all >= 0) that occur an odd number of times; pairs cancel."""
    if np.all(keys[1:] > keys[:-1]):
        return keys
    # Products and sums join sorted runs, which a stable sort merges in
    # linear time.
    keys = np.sort(keys, kind="stable")
    first = _run_starts(keys)
    counts = np.append(first[1:], keys.size) - first
    return keys[first[counts % 2 == 1]]


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges [start, start + length) for each pair."""
    ends = lengths.cumsum(dtype=np.intp)
    out = (starts - ends + lengths).repeat(lengths)
    # Each range's offset is repeated before the ranges are made, and ends
    # let go, so that only two output-sized arrays are alive for the sum.
    del ends
    out += np.arange(out.size)
    return out


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
    def _from_csr(cls, indptr: np.ndarray, indices: np.ndarray, cols: int) -> "BitMatrix":
        """The matrix of canonical CSR arrays, taken as they are."""
        out = cls.__new__(cls)
        out._set(indptr, indices, cols)
        return out

    @classmethod
    def _from_keys(cls, keys: np.ndarray, shape: tuple[int, int]) -> "BitMatrix":
        return cls._from_csr(*_csr(keys, shape))

    def _row_range(self, lo: int, hi: int) -> "BitMatrix":
        """Rows lo to hi - 1, sharing this matrix's column indices."""
        return BitMatrix._from_csr(
            self.indptr[lo : hi + 1] - self.indptr[lo],
            self.indices[self.indptr[lo] : self.indptr[hi]],
            self.cols,
        )

    @classmethod
    def from_entries(cls, rows, cols, shape: tuple[int, int]) -> "BitMatrix":
        """The matrix of *shape* whose entry (r, c) is the parity of the pairs (r, c) given.

        Pairs may come in any order; a pair given twice cancels.
        """
        if not all(_is_integer(x) for x in shape):
            raise ValueError(f"shape entries must be integers, got {shape!r}")
        n_rows, n_cols = (int(x) for x in shape)
        rows, cols = np.asarray(rows).ravel(), np.asarray(cols).ravel()
        if rows.shape != cols.shape:
            raise ValueError(f"{rows.size} row indices for {cols.size} column indices")
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"negative shape {shape}")
        for name, idx, bound in (("row", rows, n_rows), ("column", cols, n_cols)):
            if idx.size and idx.dtype.kind not in "iu":
                raise ValueError(f"{name} indices must be integers, got {idx!r}")
            if idx.size and (idx.min() < 0 or idx.max() >= bound):
                raise ValueError(f"{name} index out of range for shape {(n_rows, n_cols)}")
        keys = rows.astype(np.intp) * n_cols + cols.astype(np.intp)
        return cls._from_keys(_odd_keys(keys), (n_rows, n_cols))

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
        return np.arange(self.rows).repeat(self.indptr[1:] - self.indptr[:-1]), self.indices

    def apply(self, bits) -> np.ndarray:
        """Multiply this matrix by a column bit vector, or by each column of a (cols, k) array.

        Returns a 1-d array for a vector and a (rows, k) array for k columns.
        """
        vec = _as_bits(bits, "vector entries")
        if vec.ndim not in (1, 2) or vec.shape[0] != self.cols:
            raise ValueError(
                f"vector of shape {vec.shape} does not match {self.cols} columns"
            )
        # Running XOR down the selected rows of bits; each row's parity is
        # the difference of the running values at its two ends.  One column
        # is run as a vector: indexing a vector costs less than taking the
        # rows of a (cols, 1) array, and take costs less than indexing the
        # rows of a wider one.
        if vec.ndim == 1 or vec.shape[1] == 1:
            running = np.zeros(self.indices.size + 1, dtype=np.uint8)
            np.bitwise_xor.accumulate(vec.reshape(-1)[self.indices], out=running[1:])
            out = running[self.indptr[1:]] ^ running[self.indptr[:-1]]
            return out if vec.ndim == 1 else out[:, None]
        running = np.zeros((self.indices.size + 1, vec.shape[1]), dtype=np.uint8)
        np.bitwise_xor.accumulate(vec.take(self.indices, axis=0), axis=0, out=running[1:])
        return running.take(self.indptr[1:], axis=0) ^ running.take(self.indptr[:-1], axis=0)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if not isinstance(other, BitMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for XOR: {self.shape} vs {other.shape}")
        keys = [
            (np.arange(m.rows) * m.cols).repeat(m.indptr[1:] - m.indptr[:-1]) + m.indices
            for m in (self, other)
        ]
        return BitMatrix._from_keys(_odd_keys(np.concatenate(keys)), self.shape)

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
    is a copy of it.  For rows that select more, the rows of *b* that
    they select are filled into word rows once, and each such product
    row XORs the word rows that it selects, so a selection costs one XOR
    per word however dense the operands.  _passes cuts the rows into
    passes as it cuts _fill's: a pass gathers whole rows' selections,
    about 5 * _FILL_ENTRIES words, the bytes that a fill pass holds, or
    one row's selections when they are more.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    picks = a.indptr[1:] - a.indptr[:-1]
    one = (picks == 1).nonzero()[0]
    src = a.indices[a.indptr[one]]
    lengths = b.indptr[src + 1] - b.indptr[src]
    copied = b.indices[_ragged_arange(b.indptr[src], lengths)]
    keys = [one.repeat(lengths) * b.cols + copied]
    many = (picks > 1).nonzero()[0]
    words = _words(b.cols)
    if many.size and words:
        picks = picks[many]
        sel = a.indices[_ragged_arange(a.indptr[many], picks)]
        # Only the rows of b that these product rows select become word rows.
        chosen = np.zeros(b.rows, dtype=bool)
        chosen[sel] = True
        used = chosen.nonzero()[0]
        sel = (np.cumsum(chosen) - 1)[sel]
        rows = np.zeros((used.size, words), dtype=np.uint64)
        starts = b.indptr[used]
        count = b.indptr[used + 1] - starts
        _fill(rows, b.indices, starts, count, np.arange(used.size), np.arange(b.cols))
        bounds = np.concatenate([[0], picks.cumsum()])
        out = np.empty((many.size, words), dtype=np.uint64)
        for lo, hi in _passes(picks * words, 5 * _FILL_ENTRIES):
            at = bounds[lo:hi] - bounds[lo]
            out[lo:hi] = np.bitwise_xor.reduceat(rows[sel[bounds[lo] : bounds[hi]]], at)
        del rows, sel
        row, col = _set_bits(out)
        keys.append(many[row] * b.cols + col)
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
    return _stack(mats, cols)


def _stack(mats: list[BitMatrix], cols: int) -> BitMatrix:
    """The rows of *mats* in order, in a cols-wide matrix."""
    offsets = itertools.accumulate((m.indices.size for m in mats), initial=0)
    indptr = np.concatenate([[0]] + [m.indptr[1:] + off for m, off in zip(mats, offsets)])
    return BitMatrix._from_csr(indptr, np.concatenate([m.indices for m in mats]), cols)


def _gather(mats: list[BitMatrix], rows: np.ndarray, shift: np.ndarray, cols: int) -> BitMatrix:
    """Rows *rows* of *mats* stacked, row i moved right by shift[i] columns, in a cols-wide matrix.

    A shift keeps each row's columns sorted, so the rows come out as
    canonical CSR arrays, with no sort.
    """
    pool = _stack(mats, cols)
    lengths = pool.indptr[rows + 1] - pool.indptr[rows]
    indptr = np.zeros(rows.size + 1, dtype=np.intp)
    lengths.cumsum(out=indptr[1:])
    at = _ragged_arange(pool.indptr[rows], lengths)
    return BitMatrix._from_csr(indptr, pool.indices[at] + shift.repeat(lengths), cols)


def _components(m: BitMatrix) -> np.ndarray:
    """Label of every column: the smallest column of its connected component.

    Columns that share a row are joined: each entry to its row's first
    column, which is the row's smallest.  Every column first points at
    the smallest first column of its rows.  Then each pass jumps
    pointers until every column points at a root, and hooks every root
    onto the smallest root it shares an entry with.
    """
    idx = np.int32 if m.cols < 2**31 else np.int64
    lengths = m.indptr[1:] - m.indptr[:-1]
    live = lengths > 0
    ends = m.indices.astype(idx)
    starts = ends[m.indptr[:-1][live]].repeat(lengths[live])
    parent = np.arange(m.cols, dtype=idx)
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


def _rank_within(labels: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each element among the earlier elements with its label, and their order by label.

    *counts* holds each label's element count.  Sorting label * size +
    position, whose values are distinct, orders the elements as a
    stable sort of the labels would, in a fraction of a stable argsort's
    time on labels in no order.
    """
    size = labels.size
    keys = np.sort(labels.astype(np.int64) * size + np.arange(size))
    label, order = np.divmod(keys, size)
    del keys
    out = np.empty_like(labels)
    out[order] = np.arange(size, dtype=labels.dtype) - (counts.cumsum() - counts)[label]
    return out, order


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first of each run of equal neighbouring keys."""
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts.nonzero()[0]


def _words(bits: int) -> int:
    return (bits + 63) >> 6


# Odd multiplier of the row hash that _distinct sorts by (2**64 / golden ratio).
_HASH = np.uint64(0x9E3779B97F4A7C15)


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row of each run of equal rows of a 2-d uint64 array, and the run of every row.

    Rows are sorted by a hash of their words, so equal rows are
    adjacent, and a run ends wherever the next row differs in any word.
    Rows of one run are thus equal whatever the hash; two rows that
    collide only split a run, which costs work, not exactness.
    """
    count, width = rows.shape
    # Stable, so that equal hashes already in runs cost a merge, not a quicksort.
    order = np.argsort(rows @ (np.arange(1, 2 * width, 2, dtype=np.uint64) * _HASH), kind="stable")
    ordered = rows.take(order, axis=0)
    starts = np.zeros(count, dtype=bool)
    starts[:1] = True
    starts[1 + (ordered[1:] != ordered[:-1]).ravel().nonzero()[0] // width] = True
    run = np.empty(count, dtype=np.intp)
    run[order] = starts.cumsum() - 1
    return order[starts], run


# _BITS[i] is the word with bit i alone set.
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)

# Entries that one pass of _fill turns into words.  Its index arrays
# cost about 40 bytes an entry, so a pass holds about 160 KB of them
# however large the matrix.  A pass of mat_mul's XOR rows gathers about
# as many bytes of word rows, 5 * _FILL_ENTRIES words.
_FILL_ENTRIES = 2**12


def _passes(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Runs [lo, hi) of the items that hold about *budget* of their *sizes* each.

    An item ends in the pass of the multiple of *budget* that its running
    total stays below, so a run passes the budget by less than its first
    item's size, and no run is empty.
    """
    ends = sizes.cumsum()
    cuts = np.searchsorted(ends, np.arange(budget, ends[-1] if ends.size else 0, budget))
    bounds = [0, *cuts.tolist(), sizes.size]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _fill(out, cols, starts, count, owner, bit) -> None:
    """Set the bits of cols[starts[i]:starts[i] + count[i]] in row owner[i] of *out*.

    *out* is a (rows x words) uint64 array, zero where the bits go, and
    column c sets bit bit[c]: its position within its component for
    elimination, the column itself for a product.  No two entries set
    one bit of one row, so adding the bits into their words sets them.
    """
    flat = out.reshape(-1)
    words = out.shape[1]
    for lo, hi in _passes(count, _FILL_ENTRIES):
        at = _ragged_arange(starts[lo:hi], count[lo:hi])
        pos = bit[cols[at]]
        key = (owner[lo:hi].astype(np.int64) * words).repeat(count[lo:hi]) + (pos >> 6)
        np.add.at(flat, key, _BITS[pos & 63])


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and position of every set bit of a (rows x words) uint64 array, in row-major order."""
    width = words.shape[1]
    flat = words.ravel()
    at = np.flatnonzero(flat)
    # Only the nonzero words are unpacked, so the set bits set the cost, dense
    # or sparse; as little-endian bytes, so that byte k holds bits 8k to 8k + 7.
    raw = flat[at].astype("<u8").view(np.uint8)
    hit = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
    word = at[hit >> 6]
    return word // width, 64 * (word % width) + (hit & 63)


class _Group:
    """Distinct component patterns of one size class, in reduced row echelon form in lockstep.

    ``a`` is a (patterns x rows x words) uint64 array.  The first
    ``column_words`` words of a row hold its bits over its component's
    columns (bit j = the component's j-th column, bit j % 64 of word
    j // 64); the rest hold the combination of the component's rows that
    produced it (bit i = the component's i-th row), which starts as the
    identity.  Patterns with fewer rows than the group are padded with
    zero rows.

    Gauss-Jordan elimination takes the columns in order.  For column j,
    every pattern picks its first row that holds bit j and is no pivot
    yet, and that row is XORed into every other row of the pattern that
    holds bit j, all patterns in one pass.  Afterwards bit j of a pivot
    column is set in its pivot row alone.  ``pivot[k, j]`` is the pivot
    row of column j in pattern k, or -1.
    """

    def __init__(self, a: np.ndarray, width: int, column_words: int) -> None:
        self.a, self.column_words = a, column_words
        comps, rows, _ = a.shape
        self.pivot = pivot = np.full((comps, width), -1, dtype=np.int32)
        free = np.ones((comps, rows), dtype=bool)
        every = np.arange(comps)
        for j in range(width):
            word = j >> 6
            held = (a[:, :, word] & _BITS[j & 63]) != 0
            candidates = held & free
            at = candidates.argmax(axis=1)
            found = candidates[every, at]
            if found.all():
                pivot[:, j] = at
                free[every, at] = False
            elif found.any():
                pivot[:, j] = np.where(found, at, -1)
                free[every, at] &= ~found
                held &= found[:, None]
            else:
                continue
            held[every, at] = False
            # A pivot row holds no bits before its word: XOR from there on.
            pivots = a[every, at, word:]
            comp, row = held.nonzero()
            a[comp, row, word:] ^= pivots[comp]

    def reduce(self, slots: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduce the word rows *e* in place, row i over the columns of pattern slots[i].

        Returns whether each row is outside its pattern's row space,
        and the combination words of the pivot rows that reduce it.  In
        reduced form a row takes the pivot row of every pivot column it
        holds, and taking one leaves its bits at the other pivot columns
        as they were.
        """
        for j in range(self.pivot.shape[1]):
            word = j >> 6
            at = self.pivot[slots, j]
            hit = (((e[:, word] & _BITS[j & 63]) != 0) & (at >= 0)).nonzero()[0]
            if hit.size:
                e[hit, word:] ^= self.a[slots[hit], at[hit], word:]
        return e[:, : self.column_words].any(axis=1), e[:, self.column_words :]


class _Reduced:
    """Reduced row echelon form of a matrix, eliminated component by component.

    The components with rows are grouped by size class, the classes of
    their width and of their row count: 1 to 4, 5 to 16, and so on by
    powers of four.  Each group is one _Group of its distinct patterns,
    so a group pads its rows at most fourfold and few groups cover many
    small components.  Per-column and per-row tables use int32 indices
    while they fit.
    """

    def __init__(self, g: BitMatrix) -> None:
        self.rows = g.rows
        idx = np.int32 if max(g.rows, g.cols) < 2**31 else np.int64
        label = _components(g)
        root = label == np.arange(g.cols, dtype=idx)
        ranks = root.cumsum(dtype=idx)
        self.comps = comps = int(ranks[-1]) if ranks.size else 0
        self.comp_of_col = comp_of_col = ranks[label] - 1
        del label, root, ranks
        width = np.bincount(comp_of_col, minlength=comps).astype(idx)
        self.local_col = _rank_within(comp_of_col, width)[0]
        live = (g.indptr[1:] != g.indptr[:-1]).nonzero()[0].astype(idx)
        row_comp = comp_of_col[g.indices[g.indptr[live]]]
        row_count = np.bincount(row_comp, minlength=comps).astype(idx)
        local_row, order = _rank_within(row_comp, row_count)
        # The g row of component k's i-th row is comp_rows[row_start[k] + i].
        self.row_start = row_count.cumsum(dtype=idx) - row_count
        self.comp_rows = live[order]
        del order
        with_rows = row_count.nonzero()[0].astype(idx)
        # frexp(x - 1)[1] is the bit length of x - 1: a class spans 1 to 4, 5 to 16, ...
        bits = np.frexp(np.stack([width[with_rows], row_count[with_rows]]) - 1)[1]
        width_class, rows_class = np.maximum(bits - 1, 0) // 2
        size_class = width_class * 64 + rows_class
        present = np.bincount(size_class) > 0
        classes = int(present.sum())
        of_class = (present.cumsum(dtype=idx) - 1)[size_class]
        del size_class, present
        self.group = np.full(comps, -1, dtype=idx)
        self.group[with_rows] = of_class
        # Component k is member[k] of its group, and eliminated as pattern[k].
        member = np.zeros(comps, dtype=idx)
        self.pattern = np.zeros(comps, dtype=idx)
        row_group = self.group[row_comp]
        self.groups = []
        for i in range(classes):
            members = with_rows[of_class == i]
            member[members] = np.arange(members.size, dtype=idx)
            mine = (row_group == i).nonzero()[0]
            rows = int(row_count[members].max())
            span = int(width[members].max())
            cw = _words(span)
            bits = np.zeros((members.size * rows, cw), dtype=np.uint64)
            owner = member[row_comp[mine]].astype(np.int64) * rows + local_row[mine]
            starts = g.indptr[live[mine]]
            _fill(bits, g.indices, starts, g.indptr[live[mine] + 1] - starts, owner, self.local_col)
            # Members with equal bits eliminate alike.  Every row holds a bit
            # and the padding none, so the bits also give the row count.
            first, self.pattern[members] = _distinct(bits.reshape(members.size, -1))
            a = np.zeros((first.size, rows, cw + _words(rows)), dtype=np.uint64)
            a[:, :, :cw] = bits.reshape(members.size, rows, cw).take(first, axis=0)
            del bits
            # The identity combinations of the patterns' rows.
            pattern, local = (row_count[members[first]][:, None] > np.arange(rows)).nonzero()
            a[pattern, local, cw + (local >> 6)] = _BITS[local & 63]
            self.groups.append(_Group(a, span, cw))

    @property
    def rank(self) -> int:
        """The pivots of every component: each pattern's, once per member."""
        rank = 0
        for i, group in enumerate(self.groups):
            members = np.bincount(self.pattern[self.group == i], minlength=group.pivot.shape[0])
            rank += int(np.count_nonzero(group.pivot >= 0, axis=1) @ members)
        return rank

    def decode(self, e: BitMatrix) -> tuple[BitMatrix, np.ndarray]:
        """A decoder R, e.rows x g.rows, and the sorted rows of e outside g's row space.

        Row i of R @ g is row i of e for each row in the row space; a
        failing row of R may hold the entries of its pieces that are in
        it, and no caller reads it.  R is built after _decoder_keys has
        freed its temporaries, by a stable sort of nearly ordered keys.
        """
        keys, failed = self._decoder_keys(e)
        return BitMatrix._from_keys(np.sort(keys, kind="stable"), (e.rows, self.rows)), failed

    def _decoder_keys(self, e: BitMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Keys (e row) * g.rows + (g row) of R's entries, and the failing rows of e.

        A row of e is in the row space when its piece in each component
        is; each distinct (pattern, bits) pair of a piece is reduced once,
        and its combination read over the g rows of each such piece's component.
        """
        rows, cols = e.nonzero()
        comp = self.comp_of_col[cols]
        key = rows * self.comps + comp
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            rows, cols, comp, key = rows[order], cols[order], comp[order], key[order]
        # Piece p holds the entries first[p] to first[p] + count[p] - 1.
        first = _run_starts(key)
        count = np.append(first[1:], key.size) - first
        del key
        piece_row, piece_comp = rows[first], comp[first]
        del rows, comp
        piece_group = self.group[piece_comp]
        # A piece over columns that no row of g touches is outside the row space.
        failed = piece_group < 0
        keys = [np.zeros(0, dtype=np.int64)]
        for i, group in enumerate(self.groups):
            mine = (piece_group == i).nonzero()[0]
            cw = group.column_words
            # A piece's bits, then its component's pattern: equal rows reduce alike.
            bits = np.zeros((mine.size, cw + 1), dtype=np.uint64)
            _fill(bits, cols, first[mine], count[mine], np.arange(mine.size), self.local_col)
            bits[:, cw] = self.pattern[piece_comp[mine]]
            once, alike = _distinct(bits)
            bits = bits.take(once, axis=0)
            pieces = np.zeros((once.size, group.a.shape[2]), dtype=np.uint64)
            pieces[:, :cw] = bits[:, :cw]
            bad, combos = group.reduce(bits[:, cw].astype(np.intp), pieces)
            failed[mine] = bad[alike]
            combos[bad] = 0
            # The combination bits of each distinct piece, then of each piece in turn.
            owner, bit = _set_bits(combos)
            held = np.bincount(owner, minlength=once.size)
            lengths = held[alike]
            bit = bit[_ragged_arange((held.cumsum() - held)[alike], lengths)]
            owner = mine.repeat(lengths)
            g_rows = self.comp_rows[self.row_start[piece_comp[owner]] + bit]
            keys.append(piece_row[owner].astype(np.int64) * self.rows + g_rows)
        failed_rows = piece_row[failed]
        # Pieces come in row order, so a row's failing pieces are adjacent.
        failed_rows = failed_rows[_run_starts(failed_rows)]
        return np.concatenate(keys), failed_rows


class Solution(NamedTuple):
    """One system's answer: a decoder R with R @ g == e, or None; the failing rows of e."""

    decoder: BitMatrix | None
    failed: np.ndarray  # sorted indices of the rows of e outside g's row space


def _solve_stacked(stack, batch: list) -> list[Solution]:
    """The solutions of the systems of *batch*, which stack(batch) gives as one.

    stack returns a block-diagonal g and e and the row counts (of g, of
    e) of each system.  They are built here, not passed in, so that no
    caller holds them while they are solved: each goes once it is read.
    The stack's decoder is cut into each system's rows, over its g rows.
    """
    g, e, shapes = stack(batch)
    reduced = _Reduced(g)
    del g
    decoder, failed = reduced.decode(e)
    del reduced, e
    g_start = list(itertools.accumulate((height for height, _ in shapes), initial=0))
    e_start = list(itertools.accumulate((height for _, height in shapes), initial=0))
    fail_cuts = np.searchsorted(failed, e_start).tolist()
    out = []
    for k, (g_height, _) in enumerate(shapes):
        bad = failed[fail_cuts[k] : fail_cuts[k + 1]] - e_start[k]
        rows = decoder._row_range(e_start[k], e_start[k + 1])
        ours = BitMatrix._from_csr(rows.indptr, rows.indices - g_start[k], g_height)
        out.append(Solution(None if bad.size else ours, bad))
    return out


def rank(a: BitMatrix) -> int:
    """Row rank over GF(2): the number of pivots; 0 for empty matrices."""
    return _Reduced(a).rank


def solve_left(g: BitMatrix, e: BitMatrix) -> BitMatrix | None:
    """Find R with R @ g == e, or None when some row of e is outside g's row space.

    Elimination tracks, for every pivot row, the combination of original
    g rows that produced it; reducing a target row to zero yields its
    decoder row directly.
    """
    if g.cols != e.cols:
        raise ValueError(f"dimension mismatch: g is {g.shape}, e is {e.shape}")
    decoder, failed = _Reduced(g).decode(e)
    return None if failed.size else decoder
