"""Linear caching schemes: construction, composition, and serialization.

A scheme fixes a granularity n (parts per file), places linear
combinations of the 2n file bits into the transmitter and receiver
caches, and for each demand selects the four messages as linear maps of
the transmitter cache bits.  Column convention throughout: columns
0..n-1 are file A's parts, columns n..2n-1 are file B's parts.

Schemes are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .gf2 import BitMatrix
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
# schemes are sparse, with at most 3 ones in a placement row, and certify
# in about 0.1 s at n = 4093.  The scheme file still spells every row out
# in full, 2n characters each, which is about 200 MB at this limit.
MAX_GRANULARITY = 4096

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


def _term_column(n: int, term: str) -> int:
    """Column of a term like "B3", part 3 of file B (parts counted from 1)."""
    return (0 if term[0] == "A" else n) + int(term[1:]) - 1


def _placement(n: int, rows: tuple[str, ...]) -> BitMatrix:
    """Placement rows given as XOR terms, as a len(rows) x 2n matrix."""
    terms = [(i, term) for i, row in enumerate(rows) for term in row.split()]
    return BitMatrix.from_entries(
        [i for i, _ in terms], [_term_column(n, term) for _, term in terms], (len(rows), 2 * n)
    )


def corner_scheme(name: str) -> LinearScheme:
    """One of the four built-in schemes at memory 0, 1/3, 4/5, or 2."""
    try:
        corner = _CORNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown corner scheme {name!r}: expected one of {', '.join(CORNER_NAMES)}"
        ) from None
    n = corner.n
    z1, z2, u1, u2 = (_placement(n, rows) for rows in (corner.z1, corner.z2, corner.u1, corner.u2))
    # Each message is one U row.  U1 and U2 have as many rows, so one set
    # of unit rows serves both; BitMatrix is immutable, so they are shared.
    units = [BitMatrix.from_entries([0], [i], (1, u1.rows)) for i in range(u1.rows)]
    if corner.picks:
        delivery = {d: DeliveryQuad(*(units[i] for i in p)) for d, p in zip(Demand, corner.picks)}
    else:
        delivery = dict.fromkeys(Demand, DeliveryQuad(*[BitMatrix.zeros(0, 0)] * 4))
    return LinearScheme(n, corner.memory, corner.load, z1, z2, u1, u2, delivery)


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


def _rows_text(mat: BitMatrix) -> np.ndarray:
    """The rows of *mat* as lines of 0/1 characters, in one uint8 buffer."""
    text = np.full((mat.rows, mat.cols + 1), ord("0"), dtype=np.uint8)
    text[:, -1] = ord("\n")
    text[mat.nonzero()] = ord("1")
    return text


# The blocks of a scheme file in file order: the placements, then the
# delivery maps V1..V4 of each demand in turn.
_BLOCKS = ("Z1", "Z2", "U1", "U2", *(f"D {d} V{i}" for d in Demand for i in range(1, 5)))


def write_scheme(s: LinearScheme) -> str:
    """Serialize to the scheme file format (round-trips with read_scheme)."""
    mats = (s.z1, s.z2, s.u1, s.u2, *(mat for d in Demand for mat in s.delivery[d]))
    parts = [f"n {s.n}\nM {_frac_text(s.memory)}\nc {_frac_text(s.load)}\n".encode("ascii")]
    for tag, mat in zip(_BLOCKS, mats):
        parts += [f"{tag} {mat.rows}\n".encode("ascii"), _rows_text(mat)]
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


def _content_lines(text: str) -> Iterator[tuple[int, str | None]]:
    """(number, stripped text) of each line that is not blank or a comment, then (end, None)."""
    no = 0
    # Lines end at "\n" only; strip() drops the "\r" of a "\r\n" line end.
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            no = i
            yield no, line
    yield no + 1, None


def _read_block(lines: Iterator[tuple[int, str | None]], count: int, width: int) -> BitMatrix:
    """The next *count* lines as a matrix, each a row of *width* characters over 0/1.

    All rows are checked at once over their joined bytes; the first bad
    row, or else the end of the file, is reported with its line number.
    """
    rows = list(islice(lines, count))
    end = rows.pop()[0] if rows and rows[-1][1] is None else None
    texts = [line for _, line in rows]
    # One byte per character, so that byte offsets are character offsets;
    # a non-ASCII character becomes "?", which is not a bit.
    data = "".join(texts).encode("ascii", "replace")
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    wrong = np.flatnonzero(lengths != width)
    if wrong.size or data.translate(None, b"01"):
        raw = np.frombuffer(data, dtype=np.uint8)
        chars = np.flatnonzero((raw != ord("0")) & (raw != ord("1")))[:1]
        no, line = rows[min([*wrong[:1], *np.searchsorted(np.cumsum(lengths), chars, "right")])]
        raise SchemeFormatError(
            no, f"expected a row of exactly {width} characters over 0/1, got {line!r}"
        )
    if end is not None:
        raise SchemeFormatError(end, "unexpected end of file: expected a matrix row")
    # Every row has *width* characters, so the offset of a "1" in the
    # joined rows is its key r * width + c, and the offsets come sorted.
    ones = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("1"))
    return BitMatrix._from_keys(ones, (count, width))


def read_scheme(text: str) -> LinearScheme:
    """Parse a scheme file; raises SchemeFormatError with a line number."""
    lines = _content_lines(text)

    def header(tag: str, value: str) -> tuple[int, str]:
        """Number and value of the next line, which must read '<tag> <value>'."""
        no, line = next(lines)
        if line is None:
            shown = value if tag[0] == "D" else "..."
            raise SchemeFormatError(no, f"unexpected end of file: expected header '{tag} {shown}'")
        *words, raw = line.split()
        if words != tag.split():
            raise SchemeFormatError(no, f"expected header '{tag} {value}', got {line!r}")
        return no, raw

    def integer(no: int, raw: str, what: str) -> int:
        try:
            return parse_integer(raw)
        except ValueError:
            raise SchemeFormatError(no, f"{what} must be an integer, got {raw!r}") from None

    no, raw = header("n", "<value>")
    n = integer(no, raw, "granularity")
    if n <= 0:
        raise SchemeFormatError(no, f"granularity must be positive, got {n}")
    if n > MAX_GRANULARITY:
        raise SchemeFormatError(no, f"n = {n}, above the limit of {MAX_GRANULARITY} parts per file")

    def rational(tag: str) -> tuple[int, Fraction]:
        no, raw = header(tag, "<value>")
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

    mats = []
    for tag in _BLOCKS:
        no, raw = header(tag, "<rows>")
        count = integer(no, raw, f"{tag} row count")
        if tag[0] == "U":
            if not 0 <= count <= n:
                raise SchemeFormatError(no, f"{tag} must declare at most {n} rows, got {count}")
        else:
            expected = int((memory if tag[0] == "Z" else load) * n)
            if count != expected:
                raise SchemeFormatError(no, f"{tag} must declare {expected} rows, got {count}")
        # Placement rows span the 2n file parts; V1 and V2 act on U1's
        # rows, V3 and V4 on U2's.
        width = mats[2 if tag[-1] in "12" else 3].rows if tag[0] == "D" else 2 * n
        mats.append(_read_block(lines, count, width))
    no, line = next(lines)
    if line is not None:
        raise SchemeFormatError(no, "unexpected content after the last block")
    z1, z2, u1, u2, *maps = mats
    delivery = {d: DeliveryQuad(*maps[4 * i : 4 * i + 4]) for i, d in enumerate(Demand)}
    return LinearScheme(n, memory, load, z1, z2, u1, u2, delivery)
