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
Components of similar width and row count form a group, stored as one
(components x rows x words) uint64 array: each row holds its bits over
its component's columns, then the combination of the component's rows
that produced it, which starts as the identity.  Gauss-Jordan
elimination runs on a whole group in lockstep, one column at a time:
each component's pivot row for the column is XORed into its other rows
that hold the bit, all components in one numpy pass.  A dense matrix is
one component and runs the same code.  solve_each stacks several
systems into one block-diagonal system, so that they share those
passes; the failing rows of each system give its own verdict.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

__all__ = ["BitMatrix", "Solution", "mat_mul", "rank", "solve_each", "solve_left", "vstack"]


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
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if not isinstance(other, BitMatrix):
            return NotImplemented
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
    is a copy of it.  For rows that select more, the rows of *b* that
    they select are filled into word rows once, and each such product
    row XORs the word rows that it selects, so a selection costs one XOR
    per word however dense the operands.  A pass gathers at most
    5 * _FILL_ENTRIES words, the bytes that a fill pass holds, so a row
    may span several passes.
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
        step = max(1, 5 * _FILL_ENTRIES // words)
        lows = np.arange(0, sel.size, step)
        # A run of one row's selections within one pass starts at the row's
        # first selection or at the pass's first; pass k holds runs seg[k] on.
        first = picks.cumsum() - picks
        cuts = np.union1d(first, lows)
        seg = [*np.searchsorted(cuts, lows).tolist(), cuts.size]
        row = (np.searchsorted(first, lows, "right") - 1).tolist()
        out = np.zeros((many.size, words), dtype=np.uint64)
        for k, lo in enumerate(lows.tolist()):
            runs = cuts[seg[k] : seg[k + 1]]
            xors = np.bitwise_xor.reduceat(rows[sel[lo : lo + step]], runs - lo)
            out[row[k] : row[k] + runs.size] ^= xors
        del rows, sel
        # Only the nonzero words are unpacked, as little-endian bytes, so that
        # byte k holds bits 8k to 8k + 7 on any machine.
        at = np.flatnonzero(out)
        raw = out.reshape(-1)[at].astype("<u8").view(np.uint8)
        hit = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
        word = at[hit >> 6]
        keys.append(many[word // words] * b.cols + 64 * (word % words) + (hit & 63))
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
    return _stack(mats, [m.indices for m in mats], cols)


def _stack(mats: list[BitMatrix], indices: list[np.ndarray], cols: int) -> BitMatrix:
    """The rows of *mats* in order, with indices[k] as the column indices of mats[k]."""
    offsets = np.cumsum([0] + [m.indices.size for m in mats])
    indptr = np.concatenate([[0]] + [m.indptr[1:] + off for m, off in zip(mats, offsets)])
    return BitMatrix._from_csr(indptr, np.concatenate(indices), cols)


def _components(m: BitMatrix) -> np.ndarray:
    """Label of every column: the smallest column of its connected component.

    Columns that share a row are joined: each entry to its row's first
    column, which is the row's smallest.  Every column first points at
    the smallest first column of its rows.  Then each pass jumps
    pointers until every column points at a root, and hooks every root
    onto the smallest root it shares an entry with.
    """
    idx = np.int32 if m.cols < 2**31 else np.int64
    lengths = np.diff(m.indptr)
    live = lengths > 0
    ends = m.indices.astype(idx)
    starts = np.repeat(ends[m.indptr[:-1][live]], lengths[live])
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


def _rank_within(labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Position of each element among the earlier elements with its label."""
    order = np.argsort(labels, kind="stable")
    out = np.empty_like(labels)
    out[order] = np.arange(labels.size, dtype=labels.dtype) - (np.cumsum(counts) - counts)[
        labels[order]
    ]
    return out


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first of each run of equal neighbouring keys."""
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts.nonzero()[0]


def _words(bits: int) -> int:
    return (bits + 63) >> 6


_ONE = np.uint64(1)

# Entries that one pass of _fill turns into words.  Its index arrays
# cost about 40 bytes an entry, so a pass holds about 160 KB of them
# however large the matrix.  A pass of mat_mul's XOR rows gathers as
# many bytes of word rows, 5 * _FILL_ENTRIES words.
_FILL_ENTRIES = 2**12


def _fill(out, cols, starts, count, owner, bit) -> None:
    """Set the bits of cols[starts[i]:starts[i] + count[i]] in row owner[i] of *out*.

    *out* is a (rows x words) uint64 array and column c sets bit bit[c]:
    its position within its component for elimination, the column
    itself for a product.  Each run of columns is sorted and its bits
    are increasing, so the bits of one word are consecutive and one
    OR-reduction per word sets them.
    """
    flat = out.reshape(-1)
    words = out.shape[1]
    ends = count.cumsum()
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_FILL_ENTRIES, total, _FILL_ENTRIES))
    bounds = [0, *cuts.tolist(), count.size]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        at = _ragged_arange(starts[lo:hi], count[lo:hi])
        pos = bit[cols[at]]
        key = (owner[lo:hi].astype(np.int64) * words).repeat(count[lo:hi]) + (pos >> 6)
        first = _run_starts(key)
        flat[key[first]] = np.bitwise_or.reduceat(_ONE << (pos & 63).astype(np.uint64), first)


def _set_bits(words: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and position of every set bit below *bits* in a (rows x words) uint64 array."""
    # Little-endian words, so that byte k holds bits 8k to 8k + 7 on any machine.
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.nonzero(np.unpackbits(raw, axis=1, count=bits, bitorder="little"))


class _Group:
    """Components of one size class, brought to reduced row echelon form in lockstep.

    ``a`` is a (components x rows x words) uint64 array.  The first
    ``column_words`` words of a row hold its bits over its component's
    columns (bit j = the component's j-th column, bit j % 64 of word
    j // 64); the rest hold the combination of the component's rows that
    produced it (bit i = the component's i-th row), which starts as the
    identity.  Components with fewer rows than the group are padded with
    zero rows.

    Gauss-Jordan elimination takes the columns in order.  For column j,
    every component picks its first row that holds bit j and is no pivot
    yet, and that row is XORed into every other row of the component
    that holds bit j, all components in one pass.  Afterwards bit j of a
    pivot column is set in its pivot row alone.  ``pivot[k, j]`` is the
    pivot row of column j in component k, or -1.
    """

    def __init__(self, a: np.ndarray, width: int, column_words: int) -> None:
        self.a, self.column_words = a, column_words
        comps, rows, _ = a.shape
        self.pivot = pivot = np.full((comps, width), -1, dtype=np.int32)
        free = np.ones((comps, rows), dtype=bool)
        every = np.arange(comps)
        for j in range(width):
            word = j >> 6
            held = (a[:, :, word] & (_ONE << np.uint64(j & 63))) != 0
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
            comp, row = np.nonzero(held)
            a[comp, row, word:] ^= pivots[comp]
        self.rank = int(np.count_nonzero(pivot >= 0))

    def reduce(self, slots: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduce the word rows *e* in place, row i over the columns of component slots[i].

        Returns whether each row is outside its component's row space,
        and the combination words of the pivot rows that reduce it.  In
        reduced form a row takes the pivot row of every pivot column it
        holds, and taking one leaves its bits at the other pivot columns
        as they were.
        """
        for j in range(self.pivot.shape[1]):
            word = j >> 6
            at = self.pivot[slots, j]
            hit = (((e[:, word] & (_ONE << np.uint64(j & 63))) != 0) & (at >= 0)).nonzero()[0]
            if hit.size:
                e[hit, word:] ^= self.a[slots[hit], at[hit], word:]
        return e[:, : self.column_words].any(axis=1), e[:, self.column_words :]


class _Reduced:
    """Reduced row echelon form of a matrix, eliminated component by component.

    The components with rows are grouped by size class, the classes of
    their width and of their row count: 1 to 4, 5 to 16, and so on by
    powers of four.  Each group is one _Group, so a group pads its rows
    at most fourfold and few groups cover many small components.
    Per-column and per-row tables use int32 indices while they fit.
    """

    def __init__(self, g: BitMatrix) -> None:
        idx = np.int32 if max(g.rows, g.cols) < 2**31 else np.int64
        label = _components(g)
        root = label == np.arange(g.cols, dtype=idx)
        self.comps = comps = int(np.count_nonzero(root))
        self.comp_of_col = comp_of_col = np.cumsum(root, dtype=idx)[label] - 1
        del label, root
        width = np.bincount(comp_of_col, minlength=comps).astype(idx)
        self.local_col = _rank_within(comp_of_col, width)
        live = (g.indptr[1:] != g.indptr[:-1]).nonzero()[0].astype(idx)
        row_comp = comp_of_col[g.indices[g.indptr[live]]]
        row_count = np.bincount(row_comp, minlength=comps).astype(idx)
        local_row = _rank_within(row_comp, row_count)
        # The g row of component k's i-th row is comp_rows[row_start[k] + i].
        self.row_start = np.cumsum(row_count, dtype=idx) - row_count
        self.comp_rows = np.empty_like(live)
        self.comp_rows[self.row_start[row_comp] + local_row] = live
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
        self.slot = np.zeros(comps, dtype=idx)
        self.slot[with_rows] = _rank_within(of_class, np.bincount(of_class))
        row_group = self.group[row_comp]
        self.groups = []
        for i in range(classes):
            members = with_rows[of_class == i]
            mine = (row_group == i).nonzero()[0]
            rows = int(row_count[members].max())
            span = int(width[members].max())
            cw = _words(span)
            a = np.zeros((members.size * rows, cw + _words(rows)), dtype=np.uint64)
            owner = self.slot[row_comp[mine]].astype(np.int64) * rows + local_row[mine]
            starts = g.indptr[live[mine]]
            _fill(a, g.indices, starts, g.indptr[live[mine] + 1] - starts, owner, self.local_col)
            local = local_row[mine]
            a[owner, cw + (local >> 6)] = _ONE << (local & 63).astype(np.uint64)
            self.groups.append(_Group(a.reshape(members.size, rows, -1), span, cw))
        self.rank = sum(group.rank for group in self.groups)

    def decode(self, e: BitMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries (e row, g row) of a decoder R, and the rows of e outside g's row space.

        Each row of e is split into its pieces in each component.  A row
        is in the row space when every piece is; the combinations that
        reduce its pieces make up its decoder row.  Failing rows get no
        entries.
        """
        rows, cols = e.nonzero()
        comp = self.comp_of_col[cols]
        key = rows * self.comps + comp
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            rows, cols, comp, key = rows[order], cols[order], comp[order], key[order]
        # Piece p holds the entries first[p] to first[p] + count[p] - 1.
        first = _run_starts(key)
        count = np.diff(first, append=key.size)
        del key
        piece_row, piece_comp = rows[first], comp[first]
        del rows, comp
        piece_group = self.group[piece_comp]
        # A piece over columns that no row of g touches is outside the row space.
        failed = piece_group < 0
        out_rows, out_cols = [], []
        for i, group in enumerate(self.groups):
            mine = (piece_group == i).nonzero()[0]
            pieces = np.zeros((mine.size, group.a.shape[2]), dtype=np.uint64)
            _fill(pieces, cols, first[mine], count[mine], np.arange(mine.size), self.local_col)
            bad, combos = group.reduce(self.slot[piece_comp[mine]], pieces)
            failed[mine] = bad
            owner, bit = _set_bits(combos, group.a.shape[1])
            good = ~bad[owner]
            owner, bit = mine[owner[good]], bit[good]
            out_rows.append(piece_row[owner])
            out_cols.append(self.comp_rows[self.row_start[piece_comp[owner]] + bit])
        failed_rows = piece_row[failed]
        # Pieces come in row order, so a row's failing pieces are adjacent.
        failed_rows = failed_rows[_run_starts(failed_rows)]
        if out_rows:
            return np.concatenate(out_rows), np.concatenate(out_cols), failed_rows
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, failed_rows


def _diagonal(mats: list[BitMatrix]) -> BitMatrix:
    """The block-diagonal matrix with *mats* on its diagonal, in order."""
    if len(mats) == 1:
        return mats[0]
    shifts = np.cumsum([0] + [m.cols for m in mats])
    return _stack(mats, [m.indices + s for m, s in zip(mats, shifts)], shifts[-1])


class Solution(NamedTuple):
    """One system's answer: a decoder R with R @ g == e, or None; the failing rows of e."""

    decoder: BitMatrix | None
    failed: np.ndarray  # sorted indices of the rows of e outside g's row space


# Most entries of g and e that one block-diagonal solve takes.  Systems
# are solved together up to this size, so that small ones share the
# lockstep passes; a larger system is solved on its own, so that its
# per-entry index arrays are not those of several systems at once.
_BATCH_ENTRIES = 2**16


def solve_each(systems: Iterable[tuple[BitMatrix, BitMatrix]]) -> list[Solution]:
    """Solve R @ g == e for every (g, e), several systems as one block-diagonal system.

    No row operation crosses a component, so no operation crosses a
    system, and each system's verdict comes from its own failing rows.
    Consecutive systems are stacked up to _BATCH_ENTRIES entries, and
    *systems* is read only as far as the batch being solved.
    """
    out: list[Solution] = []
    batch: list[tuple[BitMatrix, BitMatrix]] = []
    size = 0
    for g, e in systems:
        if g.cols != e.cols:
            raise ValueError(f"dimension mismatch: g is {g.shape}, e is {e.shape}")
        entries = g.indices.size + e.indices.size
        if batch and size + entries > _BATCH_ENTRIES:
            out.extend(_solve_diagonal(batch))
            size = 0
        batch.append((g, e))
        size += entries
    # The last system lives on only in its batch, which the solve lets go.
    g = e = None
    if batch:
        out.extend(_solve_diagonal(batch))
    return out


def _solve_diagonal(systems: list[tuple[BitMatrix, BitMatrix]]) -> list[Solution]:
    """solve_each of *systems* as one block-diagonal system; empties the list."""
    shapes = [(g.rows, e.rows) for g, e in systems]
    g = _diagonal([g for g, _ in systems])
    e = _diagonal([e for _, e in systems])
    # The inputs live on only as their stacked copies, and those only while used.
    systems.clear()
    reduced = _Reduced(g)
    del g
    e_rows, g_rows, failed = reduced.decode(e)
    del reduced, e
    g_start = np.cumsum([0] + [height for height, _ in shapes])
    e_start = np.cumsum([0] + [height for _, height in shapes])
    order = np.lexsort((g_rows, e_rows))
    e_rows, g_rows = e_rows[order], g_rows[order]
    cuts = np.searchsorted(e_rows, e_start)
    fail_cuts = np.searchsorted(failed, e_start)
    out = []
    for k, (g_height, e_height) in enumerate(shapes):
        bad = failed[fail_cuts[k] : fail_cuts[k + 1]] - e_start[k]
        decoder = None
        if not bad.size:
            span = slice(cuts[k], cuts[k + 1])
            keys = (e_rows[span] - e_start[k]) * g_height + (g_rows[span] - g_start[k])
            decoder = BitMatrix._from_keys(keys.astype(np.int64), (e_height, g_height))
        out.append(Solution(decoder, bad))
    return out


def rank(a: BitMatrix) -> int:
    """Row rank over GF(2): the number of pivots; 0 for empty matrices."""
    return _Reduced(a).rank


def solve_left(g: BitMatrix, e: BitMatrix) -> BitMatrix | None:
    """Find R with R @ g == e, or None when some row of e is outside g's row space.

    Elimination tracks, for every pivot row, the combination of original
    g rows that produced it; reducing a target row to zero yields its
    decoder row directly.  See solve_each for several systems at once.
    """
    return solve_each([(g, e)])[0].decoder
