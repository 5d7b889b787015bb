"""Linear caching schemes: construction, composition, and serialization.

A scheme fixes a granularity n (parts per file), places linear
combinations of the 2n file bits into the transmitter and receiver
caches, and for each demand selects the four messages as linear maps of
the transmitter cache bits.  Column convention throughout: columns
0..n-1 are file A's parts, columns n..2n-1 are file B's parts.

Schemes are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import numbers
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, NamedTuple

import numpy as np

from .gf2 import BitMatrix, _ragged_arange, _run_starts
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

# Largest granularity memory_share builds and read_scheme accepts.  Built
# schemes are sparse, with at most 3 ones in a placement row.  At n = 4093
# they certify in about 0.02 to 0.05 s, and their scheme file spells rows
# as terms in 235 KB, which write_scheme writes in 3 to 4 ms and
# read_scheme reads in 5 to 7 ms.  A file that spells every row out in
# full, 2n characters each, takes about 200 MB at this limit.
MAX_GRANULARITY = 4096


def _is_integer(x) -> bool:
    # bool is an Integral, but True is no count.
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


class DeliveryQuad(NamedTuple):
    """Per-demand delivery maps; d1,d2 act on cache 1's bits, d3,d4 on cache 2's."""

    d1: BitMatrix
    d2: BitMatrix
    d3: BitMatrix
    d4: BitMatrix


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
    # Compared but not hashed, since a dict has no hash; equal schemes
    # still hash equal.
    delivery: Mapping[Demand, DeliveryQuad] = field(repr=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "memory", Fraction(self.memory))
        object.__setattr__(self, "load", Fraction(self.load))
        object.__setattr__(self, "delivery", dict(self.delivery))
        if not _is_integer(self.n):
            raise ValueError(f"granularity must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n <= 0:
            raise ValueError(f"granularity must be positive, got {self.n}")
        if not 0 <= self.memory <= 2:
            raise ValueError(f"memory {self.memory} out of range [0, 2]")
        if self.load < 0:
            raise ValueError(f"load {self.load} must be nonnegative")
        if (self.memory * self.n).denominator != 1:
            raise ValueError(f"memory*n = {self.memory * self.n} is not an integer")
        if (self.load * self.n).denominator != 1:
            raise ValueError(f"load*n = {self.load * self.n} is not an integer")
        width = 2 * self.n
        for name, mat in (("z1", self.z1), ("z2", self.z2)):
            if mat.shape != (self.cache_rows, width):
                raise ValueError(f"{name} must be {self.cache_rows}x{width}, got {mat.shape}")
        for name, mat in (("u1", self.u1), ("u2", self.u2)):
            if mat.cols != width or mat.rows > self.n:
                raise ValueError(
                    f"{name} must have at most {self.n} rows and {width} columns, "
                    f"got {mat.shape}"
                )
        message_rows = self.message_rows
        for name, mat in (("u1", self.u1), ("u2", self.u2)):
            # Such rows carry no bits, and a scheme file cannot spell them.
            if message_rows and not mat.rows:
                raise ValueError(
                    f"load*n = {message_rows} message rows over an empty {name} carry no bits"
                )
        if set(self.delivery) != set(Demand):
            raise ValueError("delivery must cover exactly the four demands")
        for d, quad in self.delivery.items():
            for tag, mat, src in zip(quad._fields, quad, (self.u1, self.u1, self.u2, self.u2)):
                if mat.shape != (message_rows, src.rows):
                    raise ValueError(
                        f"delivery {tag} for {d} must be "
                        f"{message_rows}x{src.rows}, got {mat.shape}"
                    )

    @property
    def cache_rows(self) -> int:
        """Rows of each receiver cache placement: memory * n."""
        return int(self.memory * self.n)

    @property
    def message_rows(self) -> int:
        """Rows of each delivered message: load * n."""
        return int(self.load * self.n)

    @property
    def rho(self) -> Fraction:
        """Sum network load over the four messages."""
        return 4 * self.load


def file_selector(n: int, file_id: str) -> BitMatrix:
    """n x 2n matrix picking out one file's parts from the stacked file bits."""
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


def corner_scheme(name: str) -> LinearScheme:
    """One of the four built-in schemes at memory 0, 1/3, 4/5, or 2."""
    try:
        corner = _CORNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown corner scheme {name!r}: expected one of {', '.join(CORNER_NAMES)}"
        ) from None
    z1, z2, u1, u2 = (_placement(t, corner.n) for t in (corner.z1, corner.z2, corner.u1, corner.u2))
    # Each message is one U row.  U1 and U2 have as many rows, so one set
    # of unit rows serves both; BitMatrix is immutable, so they are shared.
    units = [BitMatrix.from_entries([0], [i], (1, u1.rows)) for i in range(u1.rows)]
    if corner.picks:
        delivery = {d: DeliveryQuad(*(units[i] for i in p)) for d, p in zip(Demand, corner.picks)}
    else:
        delivery = dict.fromkeys(Demand, DeliveryQuad(*[BitMatrix.zeros(0, 0)] * 4))
    return LinearScheme(corner.n, corner.memory, corner.load, z1, z2, u1, u2, delivery)


def _scaled(x: BitMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries of the Kronecker product of *x* with I_k: (r, c) becomes (r*k + i, c*k + i)."""
    rows, cols = x.nonzero()
    i = np.arange(k)
    return (rows[:, None] * k + i).ravel(), (cols[:, None] * k + i).ravel()


def _stacked(blocks, cols: int) -> BitMatrix:
    """Stack the scaled copies kron(m, I_k) of (m, k, place) blocks vertically.

    *place* maps each copy's column indices to columns of the result.
    """
    rows, out_cols, top = [], [], 0
    for m, k, place in blocks:
        r, c = _scaled(m, k)
        rows.append(r + top)
        out_cols.append(place(c))
        top += m.rows * k
    return BitMatrix.from_entries(np.concatenate(rows), np.concatenate(out_cols), (top, cols))


def memory_share(s1: LinearScheme, s2: LinearScheme, lam: Fraction) -> LinearScheme:
    """Convex combination of two schemes by splitting the files.

    A lam-fraction of every file is served by a scaled copy of s1 on the
    low-index parts and the rest by a scaled copy of s2, on disjoint bit
    ranges.  Metrics combine exactly: memory = lam*M1 + (1-lam)*M2 and
    load = lam*c1 + (1-lam)*c2.
    """
    lam = Fraction(lam)
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
        raise ValueError(
            f"memory sharing at {lam} needs granularity n = {n}, above the limit "
            f"of {MAX_GRANULARITY} parts per file"
        )
    k1 = p * t // s1.n
    k2 = (q - p) * t // s2.n

    def parts(offset: int, width: int):
        # A sub-scheme's columns [0, width) and [width, 2*width) are its
        # A and B parts; they land on parts [offset, offset + width).
        return lambda c: np.where(c < width, offset + c, n + offset + c - width)

    place1, place2 = parts(0, s1.n * k1), parts(s1.n * k1, s2.n * k2)

    def stack(m1: BitMatrix, m2: BitMatrix) -> BitMatrix:
        return _stacked([(m1, k1, place1), (m2, k2, place2)], 2 * n)

    def block_diagonal(a: BitMatrix, b: BitMatrix) -> BitMatrix:
        shift = a.cols * k1
        return _stacked([(a, k1, lambda c: c), (b, k2, lambda c: c + shift)], shift + b.cols * k2)

    delivery = {
        d: DeliveryQuad(*map(block_diagonal, s1.delivery[d], s2.delivery[d])) for d in Demand
    }
    return LinearScheme(
        n=n,
        memory=lam * s1.memory + (1 - lam) * s2.memory,
        load=lam * s1.load + (1 - lam) * s2.load,
        z1=stack(s1.z1, s2.z1),
        z2=stack(s1.z2, s2.z2),
        u1=stack(s1.u1, s2.u1),
        u2=stack(s1.u2, s2.u2),
        delivery=delivery,
    )


def scheme_for_memory(m: Fraction) -> LinearScheme:
    """Scheme achieving the optimal load at the given memory in [0, 2].

    Locates the segment of the optimal trade-off containing m and
    memory-shares the two bracketing built-in schemes.
    """
    m = Fraction(m)
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
    # The rows of all matrices as the rows of one: the steps between one
    # matrix's indptr and the next are no rows.
    counts = np.delete(
        np.diff(np.concatenate([np.zeros(0, np.intp)] + [mat.indptr for mat in mats])),
        np.cumsum(heights + 1)[:-1] - 1,
    )
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
    ends = np.cumsum(digits + 2)
    empty = counts == 0
    empty_before = 2 * (np.cumsum(empty) - empty)
    row_at = np.concatenate([[0], ends])[np.cumsum(counts) - counts] + empty_before
    at = ends - (digits + 2)
    at += np.repeat(empty_before, counts)
    out = np.full(ends[-1:].sum() + 2 * np.count_nonzero(empty), ord(" "), np.uint8)
    del ends
    out[at] = letter
    del letter
    for j in range(int(digits.max(initial=0))):
        has = (digits > j).nonzero()[0]
        out[at[has] + 1 + j] = number[has] // 10 ** (digits[has] - 1 - j) % 10 + ord("0")
    last = np.cumsum(counts)[~empty] - 1
    out[at[last] + 1 + digits[last]] = ord("\n")
    out[row_at[empty]] = ord("-")
    out[row_at[empty] + 1] = ord("\n")
    bounds = np.append(row_at, out.size)[np.cumsum(np.append(0, heights))].tolist()
    return [out[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# The blocks of a scheme file in file order: the placements, then the
# delivery maps V1..V4 of each demand in turn.
_BLOCKS = ("Z1", "Z2", "U1", "U2", *(f"D {d} V{i}" for d in Demand for i in range(1, 5)))


def write_scheme(s: LinearScheme) -> str:
    """Serialize to the scheme file format (round-trips with read_scheme).

    Each block takes whichever spelling is shorter, dense rows or terms,
    its header's terms word counted; a tie stays dense.
    """
    mats = (s.z1, s.z2, s.u1, s.u2, *(mat for d in Demand for mat in s.delivery[d]))
    ns = [s.n if tag[0] in "ZU" else 0 for tag in _BLOCKS]
    dense = [mat.rows * (mat.cols + 1) for mat in mats]
    # A term takes at least 3 bytes, so only these blocks may come out shorter.
    maybe = [k for k, mat in enumerate(mats) if len(_TERMS) + 1 + 3 * mat.indices.size < dense[k]]
    terms = dict(zip(maybe, _terms_texts([mats[k] for k in maybe], [ns[k] for k in maybe])))
    parts = [f"n {s.n}\nM {_frac_text(s.memory)}\nc {_frac_text(s.load)}\n".encode("ascii")]
    for k, (tag, mat) in enumerate(zip(_BLOCKS, mats)):
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
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """Parse a decimal or exponent form written in ASCII, such as 40000, 2.5 or 1e3."""
    if not _FLOAT_RE.fullmatch(text):
        raise ValueError(f"expected a number, got {text!r}")
    return float(text)


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or a bare integer; floating-point forms are rejected."""
    if not _FRACTION_RE.fullmatch(text):
        raise ValueError(f"expected a rational like 'p/q' or an integer, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class _Lines:
    """The content lines of a text: lines whose stripped text is not empty
    and does not start with "#".

    Lines end at "\\n" only, and a line's text is stripped of the
    whitespace around it as str.strip strips it.  ``a`` and ``b`` are the
    byte extents of the content lines' texts in ``data``, the text's
    UTF-8 bytes, ``no`` their line numbers, counted from 1, and ``end``
    the number after the last.  The lines are indexed in numpy passes;
    only a line that starts or ends with whitespace, or holds a non-ASCII
    character, is stripped in Python.
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
        slow = edged[_is_space(buf[a[edged]]) | _is_space(buf[b[edged] - 1])]
        del edged
        if not text.isascii():
            for lo, part in passes:
                # The line of a byte is the number of line ends before it.
                wide = np.searchsorted(breaks, (part >= 0x80).nonzero()[0] + lo)
                slow = np.concatenate([slow, wide[_run_starts(wide)]])
        # np.unique would import numpy.ma, about 7 ms at start-up.
        slow = np.sort(slow)
        for i in slow[_run_starts(slow)].tolist():
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
            f"expected a row of exactly {width} characters over 0/1, got {lines.text(at)!r}",
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
    or given twice.  _term_keys checks rows the same way in numpy passes,
    and calls this to describe the first row it refuses.
    """
    words = _TERM_GAP_RE.split(row)
    if words == ["-"]:
        return []
    pattern, spelling = (_PART_TERM_RE, "A<k> or B<k>") if over == "AB" else (_ROW_TERM_RE, "U<k>")
    cols: dict[int, None] = {}
    for word in words:
        if word == "-":
            raise ValueError(f"'-' marks an empty row and takes no terms, got {row!r}")
        match = pattern.fullmatch(word)
        if match is None:
            raise ValueError(f"expected terms {spelling} or '-', got {word!r}")
        k = int(match[2])
        if not 1 <= k <= limit:
            if over == "AB":
                raise ValueError(f"term {word!r} names no part: parts run from 1 to {limit}")
            raise ValueError(f"term {word!r} names no row of {over}, which has {limit} rows")
        col = k - 1 + limit * (match[1] == "B")
        if col in cols:
            raise ValueError(f"term {word!r} appears twice in the row")
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
    key, key_base = _term_keys(lines, blocks)
    count = np.array([blk.count for blk in blocks], dtype=np.int64)
    width = np.array([blk.width for blk in blocks], dtype=np.int64)
    # The CSR arrays of all blocks at once: row r of block k starts at the
    # first key from key_base[k] + r * width[k] on.
    steps = count + 1
    row_keys = np.repeat(key_base, steps)
    row_keys += _ragged_arange(np.zeros_like(count), steps) * np.repeat(width, steps)
    indptr = np.searchsorted(key, row_keys)
    del row_keys
    tops = np.cumsum(steps) - steps
    firsts = indptr[tops]
    indptr -= np.repeat(firsts, steps)
    block = np.repeat(np.arange(len(blocks)), np.diff(np.append(firsts, key.size)))
    indices = (key - key_base[block]) % width[block]
    del key, block
    cuts = np.append(firsts, indices.size).tolist()
    return [
        BitMatrix._from_csr(indptr[top : top + blk.count + 1], indices[lo:hi], blk.width)
        for blk, top, lo, hi in zip(blocks, tops.tolist(), cuts, cuts[1:])
    ]


def _term_keys(lines: _Lines, blocks: list[_TermBlock]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted keys of the term blocks' entries, and each block's first key.

    Entry (r, c) of block k has the key key_base[k] + r * width + c, so
    that one sort orders every block.  Rows are checked as _row_columns
    checks them, which describes the first bad one.
    """
    count = np.array([blk.count for blk in blocks], dtype=np.int64)
    width = np.array([blk.width for blk in blocks], dtype=np.int64)
    # Part and row numbers stay below 10**9, in int32 with a digit to spare.
    limit = np.array([blk.limit for blk in blocks], dtype=np.int32)
    placement = np.array([blk.over == "AB" for blk in blocks])
    row_first = np.cumsum(count) - count
    key_base = np.cumsum(count * width) - count * width
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
    # text's start in seg.
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
    row_block = np.repeat(np.arange(len(blocks), dtype=np.min_scalar_type(len(blocks))), count)
    block = row_block[row]
    first, size = seg[ts], te - ts
    plc = placement[block]
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
    lim = limit[block]
    bad |= ~dash & ((size > digits + 1) | (col < 1) | (col > lim))
    col -= 1
    b_terms = plc & (first == ord("B"))
    col[b_terms] += lim[b_terms]
    good = ~(bad | dash)
    del first, size, plc, lim, b_terms, dash
    key = row.astype(np.int64)
    key -= row_first[block]
    key *= width[block]
    key += key_base[block]
    key += col
    del col, block
    key = key[good]
    wrong = row[bad]
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key)
        key = key[order]
        # Equal keys are one entry twice in a row.
        twice = order[1:][key[1:] == key[:-1]]
        wrong = np.append(wrong, row[good][twice])
    if not wrong.size:
        return key, key_base
    r = int(wrong.min())
    blk = blocks[row_block[r]]
    at = blk.first + r - int(row_first[row_block[r]])  # the content line of the row
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
            raise SchemeFormatError(no, f"expected header '{tag} {value}', got {line!r}")
        return no, raw, terms

    def integer(no: int, raw: str, what: str) -> int:
        try:
            return parse_integer(raw)
        except ValueError:
            raise SchemeFormatError(no, f"{what} must be an integer, got {raw!r}") from None

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
        for tag in _BLOCKS:
            no, raw, terms = header(tag, "<rows>", spellings=True)
            count = declared[tag] = integer(no, raw, f"{tag} row count")
            if tag[0] == "U":
                if not 0 <= count <= n:
                    raise SchemeFormatError(no, f"{tag} must declare at most {n} rows, got {count}")
            elif count != expected[tag[0]]:
                raise SchemeFormatError(
                    no, f"{tag} must declare {expected[tag[0]]} rows, got {count}"
                )
            # Placement rows span the 2n file parts; V1 and V2 act on U1's
            # rows, V3 and V4 on U2's.
            over = ("U1" if tag[-1] in "12" else "U2") if tag[0] == "D" else "AB"
            rows = min(count, lines.count - at)
            block = _TermBlock(at, rows, over, n if over == "AB" else declared[over])
            if terms and rows and not block.limit:
                # The dense spelling cannot write such rows either.
                raise SchemeFormatError(
                    int(lines.no[at]),
                    f"{tag} rows over an empty {over} carry no bits, got {lines.text(at)!r}",
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
    z1, z2, u1, u2, *maps = [next(read) if mat is None else mat for mat in mats]
    delivery = {d: DeliveryQuad(*maps[4 * i : 4 * i + 4]) for i, d in enumerate(Demand)}
    return LinearScheme(n, memory, load, z1, z2, u1, u2, delivery)
