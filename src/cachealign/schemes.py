"""Linear caching schemes: construction, composition, and serialization.

A scheme fixes a granularity n (parts per file), places linear
combinations of the 2n file bits into the transmitter and receiver
caches, and for each demand selects the four messages as linear maps of
the transmitter cache bits.  Column convention throughout: columns
0..n-1 are file A's parts, columns n..2n-1 are file B's parts.

A memory share is a description: its operands (s1, k1, s2, k2), n, M
and c.  memory_share builds no n-sized array, and the share's flat form,
its 20 blocks, is built from its flat leaves on first read (see
_leaves and _flatten).  The verifier certifies, decodes and delivers a
share by its leaves, so only write_scheme, observation_matrix,
equality, hashing, repr, pickling and dataclasses.replace read that
form.

Schemes are immutable after construction and safe for concurrent use.
What is filled in later only ever gains values equal to those a fresh
build would give: a share's flat form, which two threads may build twice
and store alike, and two private stores, in which the verifier keeps the
systems it has solved for a scheme and the maps it delivers a flat
scheme's messages by.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .gf2 import BitMatrix, _is_integer, _ragged_arange, _rational
from .netchannel import FILES, Demand

__all__ = [
    "DeliveryQuad",
    "LinearScheme",
    "SchemeFormatError",
    "CORNER_NAMES",
    "MAX_GRANULARITY",
    "corner_scheme",
    "file_selector",
    "memory_share",
    "read_scheme",
    "scheme_for_memory",
    "write_scheme",
]

# Largest granularity memory_share builds and read_scheme accepts: it
# bounds the flat rows that a built scheme's flat form holds and a file
# spells out.  Built schemes are sparse, with at most 3 ones in a
# placement row.  At n = 4093 scheme_for_memory describes a share in
# about 15 us, and its flat form takes 1 to 2.5 ms to build on first
# read; verify_all certifies the share by its parts in about 0.04 ms once
# its corners are solved, or its flat copy read from a file in 0.06 to
# 0.08 s.  Their scheme file spells rows as terms in 235 KB, which
# write_scheme writes in 3 to 4 ms and read_scheme reads in 5 to 7 ms.
# A file that spells every row out in full, 2n characters each, takes
# about 200 MB at this limit.
MAX_GRANULARITY = 4096


def _granularity(n) -> int:
    """*n* as an int; a ValueError unless it is a positive integer."""
    if not _is_integer(n):
        raise ValueError(f"granularity must be an integer, got {n!r}")
    if n <= 0:
        raise ValueError(f"granularity must be positive, got {n}")
    return int(n)


class DeliveryQuad(NamedTuple):
    """Per-demand delivery maps; d1,d2 act on cache 1's bits, d3,d4 on cache 2's."""

    d1: BitMatrix
    d2: BitMatrix
    d3: BitMatrix
    d4: BitMatrix


# A scheme's blocks in the order of its file, each with what its columns
# span: a placement spans "AB", the 2n file parts, and each demand's
# delivery maps V1 and V2 act on U1's rows, V3 and V4 on U2's.
_BLOCKS = (
    ("Z1", "AB"), ("Z2", "AB"), ("U1", "AB"), ("U2", "AB"),
    *((f"D {d} V{i}", "U1" if i < 3 else "U2") for d in Demand for i in range(1, 5)),
)


# The fields of a scheme's flat form, which a memory share builds on first read.
_FLAT = ("z1", "z2", "u1", "u2", "delivery")


@dataclass(frozen=True)
class LinearScheme:
    """A complete caching strategy with exact-rational metrics.

    memory*n and load*n must be integers: they are the receiver cache row
    count and the per-message row count respectively.
    """

    n: int
    memory: Fraction
    load: Fraction
    z1: BitMatrix
    z2: BitMatrix
    u1: BitMatrix
    u2: BitMatrix
    # Compared but not hashed, since a mapping has no hash; equal schemes
    # still hash equal.  Stored as a read-only view of a copy.
    delivery: Mapping[Demand, DeliveryQuad] = field(repr=False, hash=False)
    # The operands of a memory share, set by memory_share alone.  It is not
    # an argument, so dataclasses.replace, read_scheme and hand-built
    # schemes give flat schemes, with no parts.
    parts: _Parts | None = field(default=None, init=False, compare=False, repr=False)
    # Rows of each receiver cache placement, memory * n, and of each
    # delivered message, load * n, counted once when the scheme is made.
    cache_rows: int = field(init=False, compare=False, repr=False)
    message_rows: int = field(init=False, compare=False, repr=False)
    # The systems verifier._solved has solved for this scheme, by (routing,
    # demand, user).  Like parts it is not an argument, so replace, pickle
    # and copy start with an empty store.
    _solutions: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # The maps verifier._sender has built to deliver this flat scheme's
    # messages: U1 stacked on U2 under "U", and each demand's block map
    # over it under the demand.  A share's store stays empty, and like
    # _solutions it starts empty after replace, pickle and copy.
    _maps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "memory", Fraction(self.memory))
        object.__setattr__(self, "load", Fraction(self.load))
        # As DeliveryQuads, so that each demand gives exactly four maps.
        delivery = MappingProxyType({d: DeliveryQuad(*q) for d, q in self.delivery.items()})
        object.__setattr__(self, "delivery", delivery)
        object.__setattr__(self, "n", _granularity(self.n))
        if not 0 <= self.memory <= 2:
            raise ValueError(f"memory {self.memory} out of range [0, 2]")
        if self.load < 0:
            raise ValueError(f"load {self.load} must be nonnegative")
        cache_rows, message_rows = self.memory * self.n, self.load * self.n
        if cache_rows.denominator != 1:
            raise ValueError(f"memory*n = {cache_rows} is not an integer")
        if message_rows.denominator != 1:
            raise ValueError(f"load*n = {message_rows} is not an integer")
        if set(self.delivery) != set(Demand):
            raise ValueError("delivery must cover exactly the four demands")
        n, cache_rows, message_rows = self.n, int(cache_rows), int(message_rows)
        object.__setattr__(self, "cache_rows", cache_rows)
        object.__setattr__(self, "message_rows", message_rows)
        rows = {"Z": cache_rows, "D": message_rows}
        cols = {"AB": 2 * n, "U1": self.u1.rows, "U2": self.u2.rows}
        for (tag, over), mat in zip(_BLOCKS, self.blocks):
            name = f"delivery d{tag[-1]} for {tag[2:4]}" if tag[0] == "D" else tag.lower()
            if tag[0] != "U" and mat.shape != (rows[tag[0]], cols[over]):
                raise ValueError(f"{name} must be {rows[tag[0]]}x{cols[over]}, got {mat.shape}")
            if tag[0] == "U" and (mat.cols != cols[over] or mat.rows > n):
                raise ValueError(
                    f"{name} must have at most {n} rows and {2 * n} columns, got {mat.shape}"
                )
            # Such rows carry no bits, and a scheme file cannot spell them.
            if tag[0] == "U" and message_rows and not mat.rows:
                raise ValueError(
                    f"load*n = {message_rows} message rows over an empty {name} carry no bits"
                )

    def __getattr__(self, name: str):
        # Called only for an attribute not set: a memory share's flat form
        # before its first read.
        if name not in _FLAT or self.parts is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        _flatten(self)
        return object.__getattribute__(self, name)

    def __reduce__(self):
        # A mapping proxy cannot be pickled, so pickle and copy rebuild the
        # scheme from its blocks, as a flat scheme.
        return _from_blocks, (self.n, self.memory, self.load, self.blocks)

    @property
    def blocks(self) -> tuple[BitMatrix, ...]:
        """The scheme's 20 matrices, in the order of _BLOCKS."""
        return (self.z1, self.z2, self.u1, self.u2, *(m for d in Demand for m in self.delivery[d]))

    @property
    def rho(self) -> Fraction:
        """Sum network load over the four messages."""
        return 4 * self.load


def _quads(maps) -> dict[Demand, DeliveryQuad]:
    """The 16 delivery maps *maps*, in the order of _BLOCKS, by demand."""
    return {d: DeliveryQuad(*maps[4 * i : 4 * i + 4]) for i, d in enumerate(Demand)}


def _from_blocks(n: int, memory: Fraction, load: Fraction, blocks) -> LinearScheme:
    """The scheme of the 20 matrices *blocks*, in the order of _BLOCKS."""
    z1, z2, u1, u2, *maps = blocks
    return LinearScheme(n, memory, load, z1, z2, u1, u2, _quads(maps))


class _Parts(NamedTuple):
    """A memory share's operands: k1 scaled copies of s1 beside k2 of s2 (see _copy_bases)."""

    s1: LinearScheme
    k1: int
    s2: LinearScheme
    k2: int


def _leaves(s: LinearScheme) -> list[tuple[LinearScheme, int]]:
    """The flat schemes that *s* shares, in the order of their parts, each with its copy count.

    The copy rule composes: copy j' of a leaf's item i in s1, copied again
    as copy j, is item (i*k' + j')*k1 + j, or copy j'*k1 + j under the
    same rule with k'*k1 copies, after the copies of the leaves before.
    The shares are walked on an explicit stack, so that no depth of
    nesting reaches Python's recursion limit.
    """
    leaves, stack = [], [(s, 1)]
    while stack:
        s, k = stack.pop()
        if s.parts is None:
            leaves.append((s, k))
        else:
            s1, k1, s2, k2 = s.parts
            stack += [(s2, k * k2), (s1, k * k1)]
    return leaves


def _copy_bases(copied, size: str = "n") -> list[np.ndarray]:
    """For each (scheme, k) of *copied*, where copy 0 of each of its items lands.

    Copy j of item i is item start + i*k + j, and the next scheme starts
    after these copies.  Items are counted by the attribute *size*: "n",
    "cache_rows", "message_rows", "u1.rows" or "u2.rows".
    """
    count, bases, start = attrgetter(size), [], 0
    for s, k in copied:
        bases.append(start + k * np.arange(count(s)))
        start += k * count(s)
    return bases


def file_selector(n: int, file_id: str) -> BitMatrix:
    """n x 2n matrix picking out one file's parts from the stacked file bits."""
    n = _granularity(n)
    if file_id not in FILES:
        raise ValueError(f"unknown file id {file_id!r}")
    offset = 0 if file_id == "A" else n
    return BitMatrix.from_entries(np.arange(n), offset + np.arange(n), (n, 2 * n))


class _Corner(NamedTuple):
    """A built-in scheme as data.

    Placement rows are XOR terms: "B5 B2 A4" is part 5 of B XOR part 2 of
    B XOR part 4 of A, parts counted from 1.  *picks* gives, for each
    demand in the order AA, AB, BA, BB, the U row each message sends: v1
    and v2 from U1, v3 and v4 from U2.
    """

    n: int
    memory: Fraction
    load: Fraction
    z1: tuple[str, ...]
    z2: tuple[str, ...]
    u1: tuple[str, ...]
    u2: tuple[str, ...]
    picks: tuple[tuple[int, int, int, int], ...]


# In increasing memory, which scheme_for_memory bisects.
_CORNERS = {
    # Split files in halves; cache 1 holds the first halves, cache 2 the
    # second.  Each demand is served by sending the four demanded halves.
    "M0": _Corner(
        2, Fraction(0), Fraction(1, 2), (), (), ("A1", "B1"), ("A2", "B2"),
        ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)),
    ),
    "M13": _Corner(
        3, Fraction(1, 3), Fraction(1, 3), ("A1 B1",), ("A2 B2",),
        ("A3", "B1 B3", "B2 B3"), ("B3", "A1 A3", "A2 A3"),
        ((0, 0, 1, 2), (0, 1, 2, 0), (2, 0, 0, 1), (1, 2, 0, 0)),
    ),
    # Cache 1 row i>0 is B5 XOR S_i, cache 2 row i>0 is A5 XOR T_i, with
    # the S/T pair combinations placed whether or not a demand uses them.
    "M45": _Corner(
        5, Fraction(4, 5), Fraction(1, 5), ("A1", "A2", "B1", "B2"), ("A3", "A4", "B3", "B4"),
        ("A5", "B5 B2 A4", "B5 A1 B3", "B5 B1 B3", "B5 B2 B4"),
        ("B5", "A5 A1 A3", "A5 A2 A4", "A5 B1 A3", "A5 A2 B4"),
        ((0, 0, 1, 2), (0, 1, 3, 0), (2, 0, 0, 4), (3, 4, 0, 0)),
    ),
    # Both files fit in each receiver cache; nothing is ever transmitted.
    "M2": _Corner(1, Fraction(2), Fraction(0), ("A1", "B1"), ("A1", "B1"), (), (), ()),
}

CORNER_NAMES = tuple(_CORNERS)


def _placement(rows: tuple[str, ...], n: int) -> BitMatrix:
    """A corner's placement, from its rows of terms."""
    cols = [_row_columns(row, "AB", n) for row in rows]
    return BitMatrix.from_entries(
        np.repeat(np.arange(len(cols)), [len(c) for c in cols]),
        [c for row in cols for c in row],
        (len(rows), 2 * n),
    )


@functools.cache
def corner_scheme(name: str) -> LinearScheme:
    """One of the four built-in schemes at memory 0, 1/3, 4/5, or 2.

    Schemes are immutable, so every call for a name returns one object,
    and the memory shares built on it hold that object as a part.
    """
    try:
        corner = _CORNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown corner scheme {name!r}: expected one of {', '.join(CORNER_NAMES)}"
        ) from None
    placements = [_placement(t, corner.n) for t in (corner.z1, corner.z2, corner.u1, corner.u2)]
    # Each message is one U row.  U1 and U2 have as many rows, so one set
    # of unit rows serves both; BitMatrix is immutable, so they are shared.
    units = [BitMatrix.from_entries([0], [i], (1, len(corner.u1))) for i in range(len(corner.u1))]
    maps = [units[i] for p in corner.picks for i in p] or [BitMatrix.zeros(0, 0)] * 16
    return _from_blocks(corner.n, corner.memory, corner.load, placements + maps)


def _scaled(blocks) -> list[BitMatrix]:
    """Matrices that each stack k scaled copies of their pieces, in one pass.

    *blocks* holds (cols, pieces) per matrix, with pieces (m, k, base):
    row r of m gives rows r*k + i, and column c of m lands, in copy i, on
    column base[c] + i.  base rises by at least k from one column to the
    next, so each row's columns stay sorted: the rows come out as
    canonical CSR arrays, with no sort.
    """
    pieces = [piece for _, block in blocks for piece in block]
    mats = [m for m, _, _ in pieces]
    sizes = [m.indices.size for m in mats]
    k = np.array([k for _, k, _ in pieces], dtype=np.intp)
    # Each entry of every piece, as in copy 0.
    bases = [base for _, _, base in pieces]
    starts = np.cumsum([0] + [base.size for base in bases[:-1]])
    cols = np.concatenate([m.indices for m in mats]) + np.repeat(starts, sizes)
    cols = np.concatenate(bases)[cols]
    lengths = np.concatenate([np.diff(m.indptr) for m in mats])
    copies = np.repeat(k, [m.rows for m in mats])
    # Each row of every piece, k times over, is a row of the output in order.
    out_lengths = np.repeat(lengths, copies)
    cols = cols[_ragged_arange(np.repeat(np.cumsum(lengths) - lengths, copies), out_lengths)]
    cols += np.repeat(_ragged_arange(np.zeros_like(copies), copies), out_lengths)
    indptr = np.concatenate([np.zeros(1, np.intp), np.cumsum(out_lengths)])
    heights = [sum(m.rows * k for m, k, _ in block) for _, block in blocks]
    bounds = np.cumsum([0] + heights).tolist()
    return [
        BitMatrix._from_csr(indptr[lo : hi + 1] - indptr[lo], cols[indptr[lo] : indptr[hi]], width)
        for (width, _), lo, hi in zip(blocks, bounds, bounds[1:])
    ]


def memory_share(s1: LinearScheme, s2: LinearScheme, lam: Fraction) -> LinearScheme:
    """Convex combination of two schemes by splitting the files.

    A lam-fraction of every file is served by k1 scaled copies of s1 on
    the low-index parts and the rest by k2 scaled copies of s2, on
    disjoint bit ranges, with block-diagonal delivery maps, all copied by
    the rule of _copy_bases.  Metrics combine exactly: memory = lam*M1 +
    (1-lam)*M2 and load = lam*c1 + (1-lam)*c2.  The result is a
    description, (s1, k1, s2, k2) as its ``parts`` with n, M and c; its
    flat form is built on first read (see _flatten).
    """
    for s in (s1, s2):
        if not isinstance(s, LinearScheme):
            raise TypeError(f"memory_share shares LinearScheme operands, got {type(s).__name__}")
    lam = _rational(lam, "sharing coefficient")
    if not 0 <= lam <= 1:
        raise ValueError(f"sharing coefficient {lam} out of range [0, 1]")
    if lam == 1:
        return s1
    if lam == 0:
        return s2
    p, q = lam.numerator, lam.denominator
    # Smallest granularity aligning both sub-schemes to whole parts.
    t = lcm(s1.n // gcd(p, s1.n), s2.n // gcd(q - p, s2.n))
    n = q * t
    if n > MAX_GRANULARITY:
        memory = lam * s1.memory + (1 - lam) * s2.memory
        raise ValueError(
            f"M = {memory} needs granularity n = {n}, above the limit "
            f"of {MAX_GRANULARITY} parts per file"
        )
    k1 = p * t // s1.n
    k2 = (q - p) * t // s2.n
    # k1*s1.n = lam*n, so lam*M1*n = k1*s1.cache_rows, and so on.  The
    # operands were checked, so the share's blocks have the shapes these
    # rows give them.
    cache_rows = k1 * s1.cache_rows + k2 * s2.cache_rows
    message_rows = k1 * s1.message_rows + k2 * s2.message_rows
    shared = object.__new__(LinearScheme)
    vars(shared).update(
        n=n,
        memory=Fraction(cache_rows, n),
        load=Fraction(message_rows, n),
        parts=_Parts(s1, k1, s2, k2),
        cache_rows=cache_rows,
        message_rows=message_rows,
        _solutions={},
        _maps={},
    )
    return shared


def _flatten(s: LinearScheme) -> None:
    """Build and keep a memory share's flat form, its 20 blocks, from its flat leaves.

    One _scaled pass copies each leaf's blocks onto its parts and rows by
    the copy rule, so a nested share neither recurses nor builds the
    flat form of its inner shares.  Two threads may both build it; they
    store equal blocks.
    """
    leaves = _leaves(s)
    # The columns of each span and, per leaf, where copy 0 of each of its
    # columns lands: a part's A column, and its B column n on; the share's
    # U rows copy the leaves' U rows as its parts copy theirs.
    spans = {"AB": (2 * s.n, [np.concatenate([b, s.n + b]) for b in _copy_bases(leaves)])}
    for over in ("U1", "U2"):
        bases = _copy_bases(leaves, f"{over.lower()}.rows")
        spans[over] = (sum(k * b.size for (_, k), b in zip(leaves, bases)), bases)
    blocks = [leaf.blocks for leaf, _ in leaves]
    pieces = []
    for i, (_, over) in enumerate(_BLOCKS):
        cols, bases = spans[over]
        pieces.append((cols, [(b[i], k, base) for b, (_, k), base in zip(blocks, leaves, bases)]))
    z1, z2, u1, u2, *maps = _scaled(pieces)
    vars(s).update(zip(_FLAT, (z1, z2, u1, u2, MappingProxyType(_quads(maps)))))


def scheme_for_memory(m: Fraction) -> LinearScheme:
    """Scheme achieving the optimal load at the given memory in [0, 2].

    Locates the segment of the optimal trade-off containing m and
    memory-shares the two bracketing built-in schemes.
    """
    m = _rational(m, "M")
    if not 0 <= m <= 2:
        raise ValueError(f"M out of range [0, 2]: {m}")
    memories = [_CORNERS[name].memory for name in CORNER_NAMES]
    hi = bisect_left(memories, m)
    if memories[hi] == m:
        return corner_scheme(CORNER_NAMES[hi])
    lam = (memories[hi] - m) / (memories[hi] - memories[hi - 1])
    return memory_share(corner_scheme(CORNER_NAMES[hi - 1]), corner_scheme(CORNER_NAMES[hi]), lam)


class SchemeFormatError(ValueError):
    """Scheme file violates the line-oriented format."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# Most characters that an error message spends on quoting a piece of the
# text it refuses, marks included: a one-line file of 235 KB is not
# written back whole.
QUOTE_WIDTH = 80


def _quoted(text: str) -> str:
    """repr(text), or, wider than QUOTE_WIDTH, its start's repr, "…" and the text's size."""
    head = repr(text[:QUOTE_WIDTH])
    if len(text) <= QUOTE_WIDTH and len(head) <= QUOTE_WIDTH:
        return head
    size = f"… ({len(text.encode('utf-8', 'surrogatepass'))} bytes)"
    cut = QUOTE_WIDTH - len(size) - 2
    # Escapes make a repr wider than its text, so the start may shrink further.
    while len(head := repr(text[:cut])) + len(size) > QUOTE_WIDTH:
        cut -= 1
    return head + size


def _frac_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _is_space(x: np.ndarray) -> np.ndarray:
    """Whether each byte of a uint8 array is ASCII whitespace, as str.isspace sees it.

    These separate a row's terms: "\t" to "\r" and "\x1c" to " ".  Below
    9, x - 9 wraps around in uint8, so that x - 9 <= 4 holds for 9 to 13
    alone.
    """
    return (x - np.uint8(9) <= 4) | (x - np.uint8(28) <= 4)


def _is_digit(x: np.ndarray) -> np.ndarray:
    """Whether each byte of a uint8 array is an ASCII digit."""
    return x - np.uint8(ord("0")) <= 9


_TERMS = "terms"
# Bytes that one pass of the line index scans, so that its temporaries
# stay small however large the text.
_PASS_BYTES = 2**20


def _rows_text(mat: BitMatrix) -> np.ndarray:
    """The rows of *mat* as lines of 0/1 characters, in one uint8 buffer."""
    text = np.full((mat.rows, mat.cols + 1), ord("0"), dtype=np.uint8)
    text[:, -1] = ord("\n")
    text[mat.nonzero()] = ord("1")
    return text


def _terms_texts(mats: list[BitMatrix], ns: list[int]) -> list[np.ndarray]:
    """The rows of each matrix as lines of terms, all in one pass.

    With n > 0, placement rows spell column c as A<c + 1> or B<c - n + 1>;
    with n = 0, delivery rows spell it U<c + 1>.  An empty row is "-".
    """
    heights = np.array([mat.rows for mat in mats], dtype=np.intp)
    # Positions are int32 while the text fits: a term takes at most 12 bytes
    # and an empty row 2.
    terms = sum(mat.indices.size for mat in mats)
    idx = np.int32 if 12 * terms + 2 * int(heights.sum()) < 2**31 else np.int64
    # The rows of all matrices as the rows of one.
    counts = np.concatenate([np.zeros(0, idx)] + [np.diff(mat.indptr) for mat in mats], dtype=idx)
    # Columns stay below 2 * MAX_GRANULARITY, term numbers below 10**9.
    number = np.concatenate([np.zeros(0, np.int32)] + [m.indices.astype(np.int32) for m in mats])
    letter = np.full(number.size, ord("U"), dtype=np.uint8)
    lo = 0
    for mat, n in zip(mats, ns):
        hi = lo + mat.indices.size
        if n:
            letter[lo:hi] = ord("A") + (number[lo:hi] >= n)
            number[lo:hi] %= n
        lo = hi
    number += 1
    digits = np.searchsorted(10 ** np.arange(1, 10), number, "right").astype(np.int32) + 1
    # A term is its letter, its digits and a space, or a line end after
    # its row's last term; an empty row is "-" and a line end.
    at = np.cumsum(digits + 2, dtype=idx)
    size = int(at[-1]) if terms else 0
    at -= digits + 2
    empty = counts == 0
    empty_before = 2 * (np.cumsum(empty, dtype=idx) - empty)
    first = np.cumsum(counts, dtype=idx) - counts
    row_at = np.append(at, idx(size))[first] + empty_before
    at += np.repeat(empty_before, counts)
    del empty_before
    out = np.full(size + 2 * np.count_nonzero(empty), ord(" "), np.uint8)
    out[at] = letter
    del letter
    for j in range(int(digits.max(initial=0))):
        has = (digits > j).nonzero()[0]
        out[at[has] + 1 + j] = number[has] // 10 ** (digits[has] - 1 - j) % 10 + ord("0")
    last = (first + counts - 1)[~empty]
    del first
    out[at[last] + 1 + digits[last]] = ord("\n")
    out[row_at[empty]] = ord("-")
    out[row_at[empty] + 1] = ord("\n")
    bounds = np.append(row_at, out.size)[np.cumsum(np.append(0, heights))].tolist()
    return [out[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def write_scheme(s: LinearScheme) -> str:
    """Serialize to the scheme file format (round-trips with read_scheme).

    Each block takes whichever spelling is shorter, dense rows or terms,
    its header's terms word counted; a tie stays dense.
    """
    mats = s.blocks
    ns = [s.n if over == "AB" else 0 for _, over in _BLOCKS]
    dense = [mat.rows * (mat.cols + 1) for mat in mats]
    # A term takes at least 3 bytes, so only these blocks may come out shorter.
    maybe = [k for k, mat in enumerate(mats) if len(_TERMS) + 1 + 3 * mat.indices.size < dense[k]]
    terms = dict(zip(maybe, _terms_texts([mats[k] for k in maybe], [ns[k] for k in maybe])))
    parts = [f"n {s.n}\nM {_frac_text(s.memory)}\nc {_frac_text(s.load)}\n".encode("ascii")]
    for k, ((tag, _), mat) in enumerate(zip(_BLOCKS, mats)):
        if k in terms and len(_TERMS) + 1 + terms[k].size < dense[k]:
            parts += [f"{tag} {mat.rows} {_TERMS}\n".encode("ascii"), terms[k]]
        else:
            parts += [f"{tag} {mat.rows}\n".encode("ascii"), _rows_text(mat)]
    del terms
    text = b"".join(parts)
    del parts  # so that only the bytes and the text are alive at once
    return text.decode("ascii")


# ASCII digits only: int(), float() and Fraction() also take other Unicode
# digits and underscores between digits.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_FRACTION_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_FLOAT_RE = re.compile(
    r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?|[+-]?(inf|infinity|nan)", re.IGNORECASE
)


def parse_integer(text: str) -> int:
    """Parse an integer written in ASCII digits, with an optional sign."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"expected an integer, got {_quoted(text)}")
    return int(text)


def parse_float(text: str) -> float:
    """Parse a decimal or exponent form written in ASCII, such as 40000, 2.5 or 1e3."""
    if not _FLOAT_RE.fullmatch(text):
        raise ValueError(f"expected a number, got {_quoted(text)}")
    return float(text)


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or a bare integer; floating-point forms are rejected."""
    if not _FRACTION_RE.fullmatch(text):
        raise ValueError(f"expected a rational like 'p/q' or an integer, got {_quoted(text)}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_quoted(text)}") from None


class _Lines:
    """The content lines of a text: lines whose stripped text is not empty
    and does not start with "#".

    Lines end at "\\n" only, and a line's text is stripped of the
    whitespace around it as str.strip strips it.  ``a`` and ``b`` are the
    byte extents of the content lines' texts in ``data``, the text's
    UTF-8 bytes, ``no`` their line numbers, counted from 1, and ``end``
    the number after the last.  The lines are indexed in numpy passes,
    and only a line whose first or last byte is ASCII whitespace or
    non-ASCII is stripped in Python: a non-ASCII character has only bytes
    >= 0x80, so str.strip leaves every other line as it is.
    """

    def __init__(self, text: str) -> None:
        self.data = data = text.encode("utf-8", "surrogatepass")
        self.buf = buf = np.frombuffer(data, dtype=np.uint8)
        idx = np.int32 if buf.size < 2**31 - 1 else np.int64
        passes = [(lo, buf[lo : lo + _PASS_BYTES]) for lo in range(0, buf.size, _PASS_BYTES)]
        ends = [(part == ord("\n")).nonzero()[0].astype(idx) + lo for lo, part in passes]
        breaks = np.concatenate([np.zeros(0, idx), *ends])
        del ends
        a = np.concatenate([np.zeros(1, idx), breaks + 1])
        b = np.append(breaks, idx(buf.size))
        edged = (a < b).nonzero()[0]
        first, last = buf[a[edged]], buf[b[edged] - 1]
        slow = edged[_is_space(first) | _is_space(last) | (first >= 0x80) | (last >= 0x80)]
        del edged, first, last
        for i in slow.tolist():
            line = data[a[i] : b[i]].decode("utf-8", "surrogatepass")
            lead = len(line) - len(line.lstrip())
            a[i] += len(line[:lead].encode("utf-8", "surrogatepass"))
            b[i] = a[i] + len(line.strip().encode("utf-8", "surrogatepass"))
        del breaks
        live = a < b
        live[live] = buf[a[live]] != ord("#")
        keep = live.nonzero()[0]
        self.a, self.b, self.no = a[keep], b[keep], (keep + 1).astype(idx)
        self.count = int(keep.size)
        self.end = int(keep[-1]) + 2 if keep.size else 1

    def text(self, i: int) -> str:
        """The stripped text of content line i."""
        return self.data[self.a[i] : self.b[i]].decode("utf-8", "surrogatepass")

    def grid(self, first: int, count: int, width: int) -> np.ndarray:
        """The texts of content lines first.. as a (count x width) uint8 array.

        Each text must be *width* bytes long.  When the lines are evenly
        spaced, as written, the array is a view of the bytes.
        """
        a = self.a[first : first + count]
        step = int(a[1] - a[0]) if count > 1 else width
        if count and np.all(np.diff(a) == step):
            return np.lib.stride_tricks.as_strided(
                self.buf[a[0] :], (count, width), (step, 1), writeable=False
            )
        rows = b"".join(self.data[x : x + width] for x in a.tolist())
        return np.frombuffer(rows, dtype=np.uint8).reshape(count, width)


def _read_dense(lines: _Lines, first: int, count: int, width: int) -> BitMatrix:
    """Content lines first.. as a matrix, each a row of *width* characters over 0/1.

    All rows are checked at once; the first bad row is reported with
    its line number.
    """
    lengths = lines.b[first : first + count] - lines.a[first : first + count]
    wrong = (lengths != width).nonzero()[0]
    sized = int(wrong[0]) if wrong.size else count
    bits = lines.grid(first, sized, width)
    # "0" and "1" are 0x30 and 0x31.
    bad = ((bits | 1) != ord("1")).any(axis=1).nonzero()[0]
    if bad.size or wrong.size:
        at = first + int(bad[0] if bad.size else sized)
        raise SchemeFormatError(
            int(lines.no[at]),
            f"expected a row of exactly {width} characters over 0/1, "
            f"got {_quoted(lines.text(at))}",
        )
    # The offset of a "1" in the (count x width) rows is its key r * width + c.
    return BitMatrix._from_keys(np.flatnonzero(bits == ord("1")), (count, width))


class _TermBlock(NamedTuple):
    """*count* rows of terms from content line *first* on.

    Over "AB", a term is A<k> or B<k>, part k of a file, and k runs from
    1 to *limit* = n; over "U1" or "U2", it is U<k>, row k of that block,
    and k runs from 1 to *limit*, its row count.
    """

    first: int
    count: int
    over: str
    limit: int

    @property
    def width(self) -> int:
        return 2 * self.limit if self.over == "AB" else self.limit


# A term is its letter and its number, in ASCII digits without a leading zero.
_PART_TERM_RE = re.compile(r"([AB])([0-9]|[1-9][0-9]+)")
_ROW_TERM_RE = re.compile(r"(U)([0-9]|[1-9][0-9]+)")
# Terms are separated by ASCII whitespace alone, the bytes _is_space accepts.
_TERM_GAP_RE = re.compile(r"[\t-\r\x1c- ]+")


def _row_columns(row: str, over: str, limit: int) -> list[int]:
    """The columns of one stripped row of terms over *over* (see _TermBlock).

    A ValueError names the row's first bad term: malformed, out of range
    or given twice.  _term_entries checks rows the same way in numpy passes,
    and calls this to describe the first row it refuses.
    """
    words = _TERM_GAP_RE.split(row)
    if words == ["-"]:
        return []
    pattern, spelling = (_PART_TERM_RE, "A<k> or B<k>") if over == "AB" else (_ROW_TERM_RE, "U<k>")
    cols: dict[int, None] = {}
    for word in words:
        if word == "-":
            raise ValueError(f"'-' marks an empty row and takes no terms, got {_quoted(row)}")
        match = pattern.fullmatch(word)
        if match is None:
            raise ValueError(f"expected terms {spelling} or '-', got {_quoted(word)}")
        k = int(match[2])
        if not 1 <= k <= limit:
            if over == "AB":
                raise ValueError(
                    f"term {_quoted(word)} names no part: parts run from 1 to {limit}"
                )
            raise ValueError(
                f"term {_quoted(word)} names no row of {over}, which has {limit} rows"
            )
        col = k - 1 + limit * (match[1] == "B")
        if col in cols:
            raise ValueError(f"term {_quoted(word)} appears twice in the row")
        cols[col] = None
    return list(cols)


def _read_terms(lines: _Lines, blocks: list[_TermBlock]) -> list[BitMatrix]:
    """The matrices of term blocks, all their rows tokenized together.

    A row is its terms separated by ASCII whitespace, or "-" for an empty
    row.  The first row in file order that holds a malformed term, a term
    out of range or a term twice is reported with its line number.
    """
    if not blocks:
        return []
    row, col = _term_entries(lines, blocks)
    # Rows are numbered across the blocks in file order, and the entries
    # of row r are col[indptr[r]:indptr[r + 1]].
    tops = np.cumsum([0] + [blk.count for blk in blocks]).tolist()
    indptr = np.zeros(tops[-1] + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=tops[-1]), out=indptr[1:])
    del row
    return [
        BitMatrix._from_csr(indptr[a : b + 1] - indptr[a], col[indptr[a] : indptr[b]], blk.width)
        for blk, a, b in zip(blocks, tops, tops[1:])
    ]


def _term_entries(lines: _Lines, blocks: list[_TermBlock]) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of the term blocks' entries, sorted by row, then column.

    Rows are numbered across all blocks in file order.  Rows are checked
    as _row_columns checks them, which describes the first bad one.
    """
    count = np.array([blk.count for blk in blocks], dtype=np.intp)
    # Part and row numbers stay below 10**9, in int32 with a digit to spare.
    limit = np.array([blk.limit for blk in blocks], dtype=np.int32)
    placement = np.array([blk.over == "AB" for blk in blocks])
    # The bytes of each block from its first row's text to its last row's,
    # each after a line end and the last before one, so that no row's text
    # touches another's and a byte follows every token.
    spans = [
        (int(lines.a[blk.first]), int(lines.b[blk.first + blk.count - 1])) if blk.count else (0, 0)
        for blk in blocks
    ]
    end = np.array([ord("\n")], dtype=np.uint8)
    seg = np.concatenate([end] + [part for lo, hi in spans for part in (lines.buf[lo:hi], end)])
    # Rows of all blocks in file order: the content line of each, and its
    # text's start in seg.  Their numbers here are the entries' rows.
    shift = np.cumsum([1] + [hi - lo + 1 for lo, hi in spans])[:-1] - [lo for lo, _ in spans]
    rows = _ragged_arange(np.array([blk.first for blk in blocks], dtype=np.intp), count)
    shift = np.repeat(shift.astype(lines.a.dtype), count)
    ra = lines.a[rows] + shift
    # Only the rows' texts hold terms: not comments between the rows, nor
    # Unicode whitespace stripped off a row.
    inside = np.zeros(seg.size + 1, dtype=np.int8)
    inside[ra], inside[lines.b[rows] + shift] = 1, -1
    term = ~_is_space(seg) & np.cumsum(inside[:-1], dtype=np.int8).view(bool)
    del inside, rows, shift
    # seg starts and ends with a line end, so tokens start and end in turn.
    edges = ((term[1:] != term[:-1]).nonzero()[0] + 1).astype(ra.dtype)
    ts, te = edges[0::2], edges[1::2]
    del edges
    # A character after a term's first one must be a digit.
    term &= ~_is_digit(seg)
    term[ts] = False
    stray = term.nonzero()[0]
    del term
    row = (np.searchsorted(ra, ts, "right") - 1).astype(ra.dtype)
    del ra
    first, size = seg[ts], te - ts
    # Each term's block's limit and spelling, through its row.
    plc = np.repeat(placement, count)[row]
    letter = np.where(plc, (first == ord("A")) | (first == ord("B")), first == ord("U"))
    bad = ~letter | (size < 2) | ((size > 2) & (seg[ts + 1] == ord("0")))
    del letter
    bad[np.searchsorted(ts, stray, "right") - 1] = True
    # "-" stands alone in its row: neither neighbouring token is in the row.
    dash = (first == ord("-")) & (size == 1)
    shared = np.zeros(ts.size + 1, dtype=bool)
    shared[1:-1] = row[1:] == row[:-1]
    bad[dash] = (shared[:-1] | shared[1:])[dash]
    del shared
    digits = len(str(int(limit.max())))
    col = np.zeros(ts.size, dtype=np.int32)
    last = seg.size - 1
    for j in range(1, digits + 1):
        digit = seg[np.minimum(ts + j, last)] - np.int32(ord("0"))
        col = np.where(size > j, col * 10 + digit, col)
    del seg, ts, te, digit
    lim = np.repeat(limit, count)[row]
    bad |= ~dash & ((size > digits + 1) | (col < 1) | (col > lim))
    col -= 1
    b_terms = plc & (first == ord("B"))
    col[b_terms] += lim[b_terms]
    good = ~(bad | dash)
    del first, size, plc, lim, b_terms, dash
    row, col, wrong = row[good], col[good], row[bad]
    del good, bad
    # Twice the largest limit is above every column, so these keys order
    # the entries by row, then column.
    key = row.astype(np.int64)
    key *= 2 * int(limit.max())
    key += col
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key)
        key = key[order]
        # Equal keys are one entry twice in a row.
        wrong = np.append(wrong, row[order[1:][key[1:] == key[:-1]]])
        row, col = row[order], col[order]
    del key
    if not wrong.size:
        return row, col.astype(np.int64)
    r = int(wrong.min())
    k = int(np.searchsorted(np.cumsum(count), r, "right"))
    blk = blocks[k]
    at = blk.first + r - int(count[:k].sum())  # the content line of the row
    try:
        _row_columns(lines.text(at), blk.over, blk.limit)
    except ValueError as exc:
        raise SchemeFormatError(int(lines.no[at]), str(exc)) from None
    raise AssertionError(f"line {lines.no[at]}: a row refused in numpy passes reads in Python")


def read_scheme(text: str) -> LinearScheme:
    """Parse a scheme file; raises SchemeFormatError with a line number.

    Python reads the header lines alone.  Dense blocks are checked as
    they come, and the term blocks are tokenized together once every
    header is read, or before a later error is raised, so that the
    first bad line of the file is the one reported.
    """
    lines = _Lines(text)
    at = 0  # the next content line
    pending: list[_TermBlock] = []

    def header(tag: str, value: str, spellings: bool = False) -> tuple[int, str, bool]:
        """Number, value and spelling of the next line, which must read '<tag> <value>'.

        With *spellings*, the line may end in the word terms.
        """
        nonlocal at
        if at == lines.count:
            shown = value if tag[0] == "D" else "..."
            raise SchemeFormatError(
                lines.end, f"unexpected end of file: expected header '{tag} {shown}'"
            )
        no, line = int(lines.no[at]), lines.text(at)
        at += 1
        words = line.split()
        terms = spellings and len(words) > 2 and words[-1] == _TERMS
        *words, raw = words[:-1] if terms else words
        if words != tag.split():
            raise SchemeFormatError(
                no, f"expected header '{tag} {value}', got {_quoted(line)}"
            )
        return no, raw, terms

    def integer(no: int, raw: str, what: str) -> int:
        try:
            return parse_integer(raw)
        except ValueError:
            message = f"{what} must be an integer, got {_quoted(raw)}"
            raise SchemeFormatError(no, message) from None

    try:
        no, raw, _ = header("n", "<value>")
        n = integer(no, raw, "granularity")
        if n <= 0:
            raise SchemeFormatError(no, f"granularity must be positive, got {n}")
        if n > MAX_GRANULARITY:
            raise SchemeFormatError(
                no, f"n = {n}, above the limit of {MAX_GRANULARITY} parts per file"
            )

        def rational(tag: str) -> tuple[int, Fraction]:
            no, raw, _ = header(tag, "<value>")
            try:
                value = parse_fraction(raw)
            except ValueError as exc:
                raise SchemeFormatError(no, str(exc)) from None
            if (value * n).denominator != 1:
                raise SchemeFormatError(no, f"{tag}*n = {value * n} is not an integer")
            return no, value

        no, memory = rational("M")
        if not 0 <= memory <= 2:
            raise SchemeFormatError(no, f"memory {memory} out of range [0, 2]")
        no, load = rational("c")
        if load < 0:
            raise SchemeFormatError(no, f"load {load} must be nonnegative")

        declared: dict[str, int] = {}
        expected = {"Z": int(memory * n), "D": int(load * n)}
        mats: list[BitMatrix | None] = []
        for tag, over in _BLOCKS:
            no, raw, terms = header(tag, "<rows>", spellings=True)
            count = declared[tag] = integer(no, raw, f"{tag} row count")
            if tag[0] == "U":
                if not 0 <= count <= n:
                    raise SchemeFormatError(no, f"{tag} must declare at most {n} rows, got {count}")
            elif count != expected[tag[0]]:
                raise SchemeFormatError(
                    no, f"{tag} must declare {expected[tag[0]]} rows, got {count}"
                )
            rows = min(count, lines.count - at)
            block = _TermBlock(at, rows, over, n if over == "AB" else declared[over])
            if terms and rows and not block.limit:
                # The dense spelling cannot write such rows either.
                raise SchemeFormatError(
                    int(lines.no[at]),
                    f"{tag} rows over an empty {over} carry no bits, "
                    f"got {_quoted(lines.text(at))}",
                )
            if terms:
                pending.append(block)
                mats.append(None)
            else:
                mats.append(_read_dense(lines, at, rows, block.width))
            at += rows
            if rows < count:
                raise SchemeFormatError(lines.end, "unexpected end of file: expected a matrix row")
        if at < lines.count:
            raise SchemeFormatError(int(lines.no[at]), "unexpected content after the last block")
    except SchemeFormatError:
        _read_terms(lines, pending)  # a bad term row before this error is reported first
        raise
    read = iter(_read_terms(lines, pending))
    return _from_blocks(n, memory, load, [next(read) if mat is None else mat for mat in mats])
