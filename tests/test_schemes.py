"""Corner schemes, memory sharing, and the scheme file format."""

from __future__ import annotations

import dataclasses
import pickle
import re
import tracemalloc
from copy import deepcopy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scheme_oracle
from cachealign import (
    BitMatrix,
    DeliveryQuad,
    Demand,
    MAX_GRANULARITY,
    LinearScheme,
    SchemeFormatError,
    corner_scheme,
    file_selector,
    mat_mul,
    memory_share,
    read_scheme,
    rho_star,
    scheme_for_memory,
    verify_all,
    write_scheme,
)
from cachealign.cli import main
from cachealign.schemes import _Lines, _from_blocks, _row_columns

F = Fraction

CORNER_METRICS = {
    "M0": (F(0), F(2)),
    "M13": (F(1, 3), F(4, 3)),
    "M45": (F(4, 5), F(4, 5)),
    "M2": (F(2), F(0)),
}

# Expected message contents per demand, as XOR combinations of file
# parts ("A3+B1" means part 3 of A XOR part 1 of B).  Transcribed by
# hand from the four delivery strategies.
M0_MESSAGES = {
    "AA": ("A1", "A1", "A2", "A2"),
    "AB": ("A1", "B1", "A2", "B2"),
    "BA": ("B1", "A1", "B2", "A2"),
    "BB": ("B1", "B1", "B2", "B2"),
}
M13_MESSAGES = {
    "AA": ("A3", "A3", "A1+A3", "A2+A3"),
    "AB": ("A3", "B1+B3", "A2+A3", "B3"),
    "BA": ("B2+B3", "A3", "B3", "A1+A3"),
    "BB": ("B1+B3", "B2+B3", "B3", "B3"),
}
M45_MESSAGES = {
    "AA": ("A5", "A5", "A5+A1+A3", "A5+A2+A4"),
    "AB": ("A5", "B5+B2+A4", "A5+B1+A3", "B5"),
    "BA": ("B5+A1+B3", "A5", "B5", "A5+A2+B4"),
    "BB": ("B5+B1+B3", "B5+B2+B4", "B5", "B5"),
}

# Placement rows Z1, Z2, U1, U2 of each corner, transcribed by hand in the
# same notation.
PLACEMENTS = {
    "M0": ((), (), ("A1", "B1"), ("A2", "B2")),
    "M13": (("A1+B1",), ("A2+B2",), ("A3", "B1+B3", "B2+B3"), ("B3", "A1+A3", "A2+A3")),
    "M45": (
        ("A1", "A2", "B1", "B2"),
        ("A3", "A4", "B3", "B4"),
        ("A5", "B5+B2+A4", "B5+A1+B3", "B5+B1+B3", "B5+B2+B4"),
        ("B5", "A5+A1+A3", "A5+A2+A4", "A5+B1+A3", "A5+A2+B4"),
    ),
    "M2": (("A1", "B1"), ("A1", "B1"), (), ()),
}


def combo_row(n: int, expr: str) -> np.ndarray:
    row = np.zeros(2 * n, dtype=np.uint8)
    for term in expr.split("+"):
        offset = 0 if term[0] == "A" else n
        row[offset + int(term[1:]) - 1] ^= 1
    return row


def delivered_maps(scheme: LinearScheme, demand: Demand) -> list[BitMatrix]:
    quad = scheme.delivery[demand]
    return [
        mat_mul(quad.d1, scheme.u1),
        mat_mul(quad.d2, scheme.u1),
        mat_mul(quad.d3, scheme.u2),
        mat_mul(quad.d4, scheme.u2),
    ]


@pytest.mark.parametrize("name", list(CORNER_METRICS))
def test_corner_metrics_exact(name):
    scheme = corner_scheme(name)
    memory, rho = CORNER_METRICS[name]
    assert scheme.memory == memory
    assert scheme.rho == rho
    assert scheme.load == rho / 4


@pytest.mark.parametrize(
    "name,expected",
    [("M0", M0_MESSAGES), ("M13", M13_MESSAGES), ("M45", M45_MESSAGES)],
)
def test_delivery_matches_transcribed_tables(name, expected):
    scheme = corner_scheme(name)
    for demand in Demand:
        maps = delivered_maps(scheme, demand)
        for actual, expr in zip(maps, expected[str(demand)]):
            want = BitMatrix(combo_row(scheme.n, expr).reshape(1, -1))
            assert actual == want, f"{name} {demand} expected {expr}"


@pytest.mark.parametrize("name", list(PLACEMENTS))
def test_placements_match_transcribed_tables(name):
    scheme = corner_scheme(name)
    width = 2 * scheme.n
    for mat, exprs in zip((scheme.z1, scheme.z2, scheme.u1, scheme.u2), PLACEMENTS[name]):
        rows = [combo_row(scheme.n, expr) for expr in exprs]
        assert mat == BitMatrix(np.array(rows, dtype=np.uint8).reshape(len(rows), width)), name


def test_m13_delivery_for_split_demand():
    scheme = corner_scheme("M13")
    v1, v2, v3, v4 = delivered_maps(scheme, Demand.AB)
    n = scheme.n
    assert v1 == BitMatrix(combo_row(n, "A3").reshape(1, -1))
    assert v2 == BitMatrix(combo_row(n, "B1+B3").reshape(1, -1))
    assert v3 == BitMatrix(combo_row(n, "A2+A3").reshape(1, -1))
    assert v4 == BitMatrix(combo_row(n, "B3").reshape(1, -1))


def test_m45_delivery_for_swapped_demand():
    scheme = corner_scheme("M45")
    v1, v2, v3, v4 = delivered_maps(scheme, Demand.BA)
    n = scheme.n
    assert v1 == BitMatrix(combo_row(n, "B5+A1+B3").reshape(1, -1))
    assert v2 == BitMatrix(combo_row(n, "A5").reshape(1, -1))
    assert v3 == BitMatrix(combo_row(n, "B5").reshape(1, -1))
    assert v4 == BitMatrix(combo_row(n, "A5+A2+B4").reshape(1, -1))


def test_m2_sends_nothing():
    scheme = corner_scheme("M2")
    assert scheme.load == 0
    for quad in scheme.delivery.values():
        assert all(mat.rows == 0 for mat in quad)


def test_unknown_corner_name():
    with pytest.raises(ValueError, match="unknown corner scheme"):
        corner_scheme("M11")


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"memory": F(7, 3)}, "memory 7/3 out of range [0, 2]"),
        ({"load": F(-1, 3)}, "load -1/3 must be nonnegative"),
        ({"load": F(1, 2)}, "load*n = 3/2 is not an integer"),
        (
            {"delivery": {Demand.AA: corner_scheme("M13").delivery[Demand.AA]}},
            "delivery must cover exactly the four demands",
        ),
    ],
    ids=["memory", "negative_load", "fractional_rows", "one_demand"],
)
def test_scheme_fields_are_checked(changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(corner_scheme("M13"), **changes)


def test_unknown_file_id():
    with pytest.raises(ValueError, match="^unknown file id 'C'$"):
        file_selector(3, "C")


def test_memory_share_degenerate_endpoints():
    s13 = corner_scheme("M13")
    s45 = corner_scheme("M45")
    assert memory_share(s13, s45, F(1)) is s13
    assert memory_share(s13, s45, F(0)) is s45
    with pytest.raises(ValueError, match="out of range"):
        memory_share(s13, s45, F(3, 2))


def test_memory_share_halfway_between_coded_corners():
    shared = memory_share(corner_scheme("M13"), corner_scheme("M45"), F(1, 2))
    assert shared.memory == F(17, 30)
    assert shared.load == F(4, 15)
    assert verify_all(shared).passed


def test_memory_share_reaches_the_optimal_line():
    shared = memory_share(corner_scheme("M0"), corner_scheme("M13"), F(1, 2))
    assert shared.memory == F(1, 6)
    assert shared.load == F(5, 12)
    assert shared.rho == rho_star(F(1, 6))


def test_memory_share_metric_identity_exhaustive():
    corners = {name: corner_scheme(name) for name in CORNER_METRICS}
    lambdas = sorted({F(p, q) for q in range(1, 13) for p in range(0, q + 1)})
    for s1 in corners.values():
        for s2 in corners.values():
            for lam in lambdas:
                shared = memory_share(s1, s2, lam)
                assert shared.memory == lam * s1.memory + (1 - lam) * s2.memory
                assert shared.load == lam * s1.load + (1 - lam) * s2.load


def test_memory_share_granularity_limit():
    # The limit admits the granularities the benchmark and the timing notes use.
    assert MAX_GRANULARITY >= 2000
    s0, s13 = corner_scheme("M0"), corner_scheme("M13")
    with pytest.raises(ValueError, match=rf"n = 100003, above the limit of {MAX_GRANULARITY}"):
        memory_share(s0, s13, F(100000, 100003))
    # Sharing two n = 1 schemes at weight 1/q needs exactly n = q.
    s2 = corner_scheme("M2")
    with pytest.raises(ValueError, match=f"n = {MAX_GRANULARITY + 1},"):
        memory_share(s2, s2, F(1, MAX_GRANULARITY + 1))
    assert memory_share(s2, s2, F(1, 7)).n == 7


@pytest.mark.parametrize("name,n", [("M13", 3.0), ("M13", "3"), ("M13", F(3)), ("M2", True)])
def test_granularity_must_be_an_integer(name, n):
    # 3.0 raised AttributeError, "3" raised TypeError, and True was kept and
    # written as "n True", which read_scheme refuses.
    message = f"granularity must be an integer, got {re.escape(repr(n))}"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(corner_scheme(name), n=n)


@pytest.mark.parametrize(
    "n,message",
    [
        (True, "granularity must be an integer, got True"),
        (2.5, "granularity must be an integer, got 2.5"),
        ("3", "granularity must be an integer, got '3'"),
        (0, "granularity must be positive, got 0"),
        (-2, "granularity must be positive, got -2"),
    ],
)
def test_file_selector_takes_a_positive_integer_granularity(n, message):
    # True gave a 1 x 2 selector, and 2.5 failed inside BitMatrix.from_entries.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        file_selector(n, "A")
    assert file_selector(np.int64(3), "B") == file_selector(3, "B")


def test_numpy_granularity_is_stored_as_an_int():
    scheme = dataclasses.replace(corner_scheme("M13"), n=np.int64(3))
    assert type(scheme.n) is int
    assert read_scheme(write_scheme(scheme)) == corner_scheme("M13")


BAD_WEIGHTS = [True, False, float("nan"), float("inf"), float("-inf"), None, "x", 1j, "1/0"]


@pytest.mark.parametrize("value", BAD_WEIGHTS, ids=repr)
@pytest.mark.parametrize("share", [True, False], ids=["memory_share", "scheme_for_memory"])
def test_bad_weights_and_memories_are_refused(share, value):
    # True returned s1 from memory_share and built M = 1 in scheme_for_memory;
    # NaN, inf and None failed inside Fraction, and "1/0" raised ZeroDivisionError.
    what = "sharing coefficient" if share else "M"
    message = f"{what} must be a finite number, got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=message):
        if share:
            memory_share(corner_scheme("M13"), corner_scheme("M45"), value)
        else:
            scheme_for_memory(value)


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("other", [None, 3, "M45"])
def test_memory_share_refuses_what_is_not_a_scheme(first, other):
    # These raised AttributeError.
    pair = (other, corner_scheme("M45")) if first else (corner_scheme("M13"), other)
    with pytest.raises(TypeError, match="memory_share shares LinearScheme operands, got"):
        memory_share(*pair, F(1, 2))


def test_shares_keep_their_parts_and_flat_schemes_have_none():
    s13, s45 = corner_scheme("M13"), corner_scheme("M45")
    # Schemes are immutable, so every call returns one object per corner.
    assert s13 is corner_scheme("M13") and s13.parts is None
    shared = memory_share(s13, s45, F(2, 7))
    assert shared.parts == (s13, 2, s45, 3) and shared.n == 21
    assert shared.parts.s1 is s13 and shared.parts.s2 is s45
    nested = memory_share(shared, corner_scheme("M0"), F(1, 3))
    assert nested.parts.s1 is shared
    # replace, read_scheme and hand-built schemes are flat.
    assert dataclasses.replace(shared).parts is None
    assert read_scheme(write_scheme(shared)).parts is None
    fields = {f.name: getattr(shared, f.name) for f in dataclasses.fields(shared) if f.init}
    assert LinearScheme(**fields).parts is None
    # Parts are not compared, hashed or shown.
    assert dataclasses.replace(shared) == shared
    assert hash(dataclasses.replace(shared)) == hash(shared)
    assert "parts" not in repr(shared)


def test_delivery_is_read_only():
    scheme = corner_scheme("M13")
    before = hash(scheme)
    with pytest.raises(TypeError):
        scheme.delivery[Demand.AA] = scheme.delivery[Demand.AB]
    with pytest.raises(TypeError):
        del scheme.delivery[Demand.AA]
    assert scheme.delivery[Demand.AA] != scheme.delivery[Demand.AB]
    # The scheme keeps a copy: changing the mapping it was built from
    # changes nothing.
    given = dict(scheme.delivery)
    copy = dataclasses.replace(scheme, delivery=given)
    given[Demand.AA] = scheme.delivery[Demand.AB]
    assert copy == scheme and hash(copy) == hash(scheme) == before
    assert read_scheme(write_scheme(copy)) == scheme
    assert hash(read_scheme(write_scheme(copy))) == before
    # Pickle and deepcopy worked on the dict and still do.
    assert pickle.loads(pickle.dumps(scheme)) == scheme
    shared = memory_share(scheme, corner_scheme("M45"), F(1, 2))
    assert deepcopy(shared) == shared and deepcopy(shared).parts is None


def test_scheme_for_memory_at_corner_is_the_corner():
    assert scheme_for_memory(F(1, 3)) == corner_scheme("M13")
    assert scheme_for_memory(F(2)) == corner_scheme("M2")


def test_scheme_for_memory_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        scheme_for_memory(F(5, 2))
    with pytest.raises(ValueError, match="out of range"):
        scheme_for_memory(F(-1, 3))


def test_scheme_for_memory_verifies_on_coarse_grid():
    for k in range(61):
        m = F(k, 30)
        scheme = scheme_for_memory(m)
        assert scheme.memory == m
        assert scheme.rho == rho_star(m)
        assert verify_all(scheme).passed, m


def random_dense_scheme(n: int, seed: int) -> LinearScheme:
    """M = c = 1/2 and n rows in each U, every block uniform random bits."""
    rng = np.random.default_rng(seed)

    def bits(rows: int, cols: int) -> BitMatrix:
        return BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))

    h = n // 2
    placements = bits(h, 2 * n), bits(h, 2 * n), bits(n, 2 * n), bits(n, 2 * n)
    delivery = {d: DeliveryQuad(*(bits(h, n) for _ in range(4))) for d in Demand}
    return LinearScheme(n, F(1, 2), F(1, 2), *placements, delivery)


def entries(scheme: LinearScheme) -> int:
    mats = (scheme.z1, scheme.z2, scheme.u1, scheme.u2)
    return sum(m.indices.size for m in (*mats, *(m for q in scheme.delivery.values() for m in q)))


def traced_peak(fn, *args):
    """fn(*args) and the peak of the Python allocations it made."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_write_scheme_peak_memory_stays_near_the_text_size():
    # Dense blocks: at most the text and one byte buffer of it are alive at once.
    scheme = random_dense_scheme(256, seed=5)
    text, peak = traced_peak(write_scheme, scheme)
    assert " terms\n" not in text
    assert read_scheme(text) == scheme
    assert peak <= 2.5 * len(text)


def test_read_scheme_peak_memory_stays_near_the_text_size():
    # The text's bytes, its line index and one block's check, never a dense
    # matrix per block.
    scheme = scheme_for_memory(F(1, 1021))
    text = scheme_oracle.write_dense(scheme)
    read, peak = traced_peak(read_scheme, text)
    assert read == scheme
    assert peak <= 2 * len(text)


# Term text costs per term about a letter, its digits and a space, and its
# index arrays about 8 bytes a term.  At M = 1/1021 (n = 1021, a 50 KB text
# of 10 210 terms) the peaks measured 5.5 (write, the share's flat form
# built within it; 4.2 once built) and 4.9 (read) times the text's bytes
# plus 8 bytes per entry.
TERM_WRITE_PEAK = 6.5
TERM_READ_PEAK = 6.5


def test_write_scheme_peak_memory_on_term_text():
    scheme = scheme_for_memory(F(1, 1021))
    text, peak = traced_peak(write_scheme, scheme)
    assert text.count(" terms\n") == 20
    assert peak <= TERM_WRITE_PEAK * (len(text) + 8 * entries(scheme))


def test_read_scheme_peak_memory_on_term_text():
    scheme = scheme_for_memory(F(1, 1021))
    text = write_scheme(scheme)
    read, peak = traced_peak(read_scheme, text)
    assert read == scheme
    assert peak <= TERM_READ_PEAK * (len(text) + 8 * entries(scheme))


def test_write_header_lines():
    text = write_scheme(corner_scheme("M13"))
    assert text.splitlines()[:3] == ["n 3", "M 1/3", "c 1/3"]
    assert text.endswith("\n")


@pytest.mark.parametrize("name", list(CORNER_METRICS))
def test_round_trip_corners(name):
    scheme = corner_scheme(name)
    assert read_scheme(write_scheme(scheme)) == scheme
    assert hash(read_scheme(write_scheme(scheme))) == hash(scheme)


def test_round_trip_shared_scheme():
    shared = memory_share(corner_scheme("M13"), corner_scheme("M45"), F(2, 7))
    assert read_scheme(write_scheme(shared)) == shared


@pytest.mark.parametrize("name", ["M0", "M13", "M2"])
def test_corners_whose_blocks_stay_dense_are_written_as_before(name):
    # Terms would take as many bytes or more in every block of these corners.
    assert write_scheme(corner_scheme(name)) == scheme_oracle.write_dense(corner_scheme(name))


def test_blocks_take_the_shorter_spelling():
    text = write_scheme(corner_scheme("M45"))
    headers = [line for line in text.splitlines() if line[0] in "ZUD"]
    assert headers[:4] == ["Z1 4 terms", "Z2 4 terms", "U1 5 terms", "U2 5 terms"]
    assert all(not line.endswith("terms") for line in headers[4:])
    assert "U1 5 terms\nA5\nA4 B2 B5\nA1 B3 B5\n" in text
    shared = write_scheme(scheme_for_memory(F(1, 6)))
    assert shared.count(" terms\n") == 20
    assert "D AA V1 5 terms\nU1\nU2\nU3\nU7\nU8\n" in shared
    for scheme in (corner_scheme("M45"), scheme_for_memory(F(1, 6)), scheme_for_memory(F(5, 7))):
        assert len(write_scheme(scheme)) <= len(scheme_oracle.write_dense(scheme))


@pytest.mark.parametrize(
    "u_rows,picks,spelled",
    [
        (8, [[0]], None),  # 9 bytes either way
        (9, [[0]], "U1\n"),  # 9 bytes against 10
        (6, [[0, 1], []], None),  # 14 bytes either way
        (7, [[0, 1], []], "U1 U2\n-\n"),  # 14 bytes against 16
    ],
)
def test_a_tie_stays_dense(u_rows, picks, spelled):
    # Delivery rows over U rows: dense takes u_rows + 1 bytes a row, terms
    # " terms" and the rows' terms.
    u = BitMatrix.from_entries(np.arange(u_rows), np.arange(u_rows), (u_rows, 18))
    rows = [r for r, row in enumerate(picks) for _ in row]
    pick = BitMatrix.from_entries(rows, [c for row in picks for c in row], (len(picks), u_rows))
    empty = BitMatrix.zeros(0, 18)
    delivery = {d: DeliveryQuad(*[pick] * 4) for d in Demand}
    scheme = LinearScheme(9, F(0), F(len(picks), 9), empty, empty, u, u, delivery)
    text = write_scheme(scheme)
    header = f"D AA V1 {len(picks)}"
    if spelled is None:
        assert f"{header}\n" in text and f"{header} terms" not in text
    else:
        assert f"{header} terms\n{spelled}" in text
    assert read_scheme(text) == scheme


def test_both_spellings_read_the_same_scheme():
    # Dense and term spellings, line ends \r\n, comments between rows, and
    # terms in any order with any whitespace between them.
    for scheme in [corner_scheme(name) for name in CORNER_METRICS] + [
        scheme_for_memory(m) for m in (F(1, 6), F(17, 30), F(5, 7), F(13, 10))
    ]:
        for text in (write_scheme(scheme), scheme_oracle.write_dense(scheme)):
            assert read_scheme(text) == scheme
            assert read_scheme(text.replace("\n", "\r\n")) == scheme
    text = write_scheme(corner_scheme("M45")).replace("A4 B2 B5", " B5\tA4   B2 ")
    assert read_scheme(text) == corner_scheme("M45")
    assert read_scheme(text.replace("A1\nA2\n", "A1\n# between rows\n\n  \nA2\n")) == (
        corner_scheme("M45")
    )
    # Lines are stripped as str.strip strips them, Unicode spaces and long
    # runs of whitespace included.
    for row in ("A4 B2 B5", "10000"):
        for pad, end in (("\u3000", "\u2003"), (" \t" * 12, "\x1c " * 12)):
            spaced = write_scheme(corner_scheme("M45")).replace(row, f"{pad}{row}{end}", 1)
            assert read_scheme(spaced) == corner_scheme("M45")


# Whitespace at a line's edges: \r\n line ends, ASCII runs, "\x1c" to
# "\x1f", and Unicode spaces.
EDGE = st.text(st.sampled_from("\r \t\x0b\x1c\x1f\xa0\x85\u3000"))
BODY = st.lists(st.sampled_from(["A1", "B22", " ", "\t", "#", "\r", "\x1e", "\u2003", "\xe9"])).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(EDGE, BODY, EDGE)), st.booleans())
@example([(" " * 5, "A1", "\r" * 6)], True)
def test_line_index_strips_lines_as_str_strip(lines, newline):
    text = "\n".join(lead + body + trail for lead, body, trail in lines) + "\n" * newline
    content = [
        (no, line.strip())
        for no, line in enumerate(text.split("\n"), 1)
        if line.strip() and not line.strip().startswith("#")
    ]
    index = _Lines(text)
    assert [(int(no), index.text(i)) for i, no in enumerate(index.no)] == content
    assert index.count == len(content) and index.end == (content[-1][0] + 1 if content else 1)


def test_an_empty_row_is_a_dash():
    m45 = corner_scheme("M45")
    blank = m45.u1 ^ BitMatrix.from_entries([1, 1, 1], [3, 6, 9], m45.u1.shape)
    scheme = dataclasses.replace(m45, u1=blank)
    text = write_scheme(scheme)
    assert "U1 5 terms\nA5\n-\nA1 B3 B5\n" in text
    assert read_scheme(text) == scheme


@st.composite
def small_schemes(draw) -> LinearScheme:
    """Schemes with few rows over 1 to 4096 parts, at densities from empty to full."""
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from([99, 100, 1000, 4096])))
    z, u1, u2 = (draw(st.integers(0, min(n, 4))) for _ in range(3))
    c = draw(st.integers(0, 3)) if u1 and u2 else 0
    density = draw(st.sampled_from([0.0, 0.002, 0.05, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def bits(rows: int, cols: int) -> BitMatrix:
        return BitMatrix((rng.random((rows, cols)) < density).astype(np.uint8))

    delivery = {
        d: DeliveryQuad(bits(c, u1), bits(c, u1), bits(c, u2), bits(c, u2)) for d in Demand
    }
    placements = bits(z, 2 * n), bits(z, 2 * n), bits(u1, 2 * n), bits(u2, 2 * n)
    return LinearScheme(n, F(z, n), F(c, n), *placements, delivery)


# Runs of ASCII whitespace that may stand between, before or after terms.
GAPS = [" ", "  ", "\t", " \x0b ", "\x0c", "\r", "\x1c\x1d", "\x1e \x1f"]


def scrambled_terms(scheme: LinearScheme, rng: np.random.Generator) -> str:
    """*scheme* with every block spelled as terms, written here and not by write_scheme.

    Each row's terms come in random order, with random ASCII whitespace
    between and around them, and a comment or a blank line follows some
    rows.
    """
    mats = [scheme.z1, scheme.z2, scheme.u1, scheme.u2]
    mats += [mat for d in Demand for mat in scheme.delivery[d]]
    n, (m, c) = scheme.n, (f"{x.numerator}/{x.denominator}" for x in (scheme.memory, scheme.load))
    lines = [f"n {n}", f"M {m}", f"c {c}"]
    for tag, mat in zip(scheme_oracle.BLOCKS, mats):
        lines.append(f"{tag} {mat.rows} terms")
        for r in range(mat.rows):
            cols = mat.indices[mat.indptr[r] : mat.indptr[r + 1]].tolist()
            if tag[0] == "D":
                words = [f"U{k + 1}" for k in cols]
            else:
                words = [f"A{k + 1}" if k < n else f"B{k - n + 1}" for k in cols]
            words = [words[i] for i in rng.permutation(len(words))] or ["-"]
            gaps = [GAPS[i] for i in rng.integers(0, len(GAPS), len(words) + 1)]
            if rng.random() < 0.5:
                gaps[0] = gaps[-1] = ""
            lines.append(gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:])))
            if rng.random() < 0.2:
                lines.append(["# between rows", "", " \t"][rng.integers(0, 3)])
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(small_schemes(), st.integers(0, 2**32 - 1))
def test_random_schemes_round_trip_in_both_spellings(scheme, seed):
    text = write_scheme(scheme)
    dense = scheme_oracle.write_dense(scheme)
    assert read_scheme(text) == scheme
    assert read_scheme(dense) == scheme
    assert len(text) <= len(dense)
    # The reader sorts rows whose terms come out of order, and numbers the
    # rows of all term blocks in file order past comments and blank lines.
    assert read_scheme(scrambled_terms(scheme, np.random.default_rng(seed))) == scheme


def test_read_accepts_comments_and_blank_lines():
    text = write_scheme(corner_scheme("M13"))
    decorated = "# a caching scheme\n\n" + text.replace("n 3", "n 3\n# granularity above")
    assert read_scheme(decorated) == corner_scheme("M13")


def test_tampered_row_width_reports_line():
    lines = write_scheme(corner_scheme("M13")).splitlines()
    idx = next(i for i, line in enumerate(lines) if line == "Z1 1") + 1
    lines[idx] = lines[idx] + "1"
    with pytest.raises(SchemeFormatError, match=f"line {idx + 1}"):
        read_scheme("\n".join(lines) + "\n")


def test_malformed_header_rejected():
    with pytest.raises(SchemeFormatError, match="line 1"):
        read_scheme("granularity 3\n")


def test_non_integer_cache_size_rejected():
    text = write_scheme(corner_scheme("M13")).replace("M 1/3", "M 1/4")
    with pytest.raises(SchemeFormatError, match="line 2.*not an integer"):
        read_scheme(text)


@pytest.mark.parametrize(
    "old,new,expected",
    [
        ("n 3", "n \uff13", "line 1: granularity must be an integer"),
        ("n 3", "n 0_3", "line 1: granularity must be an integer"),
        ("n 3", "n 3.0", "line 1: granularity must be an integer"),
        ("Z1 1", "Z1 0_1", "line 4: Z1 row count must be an integer"),
        ("Z1 1", "Z1 \u0661", "line 4: Z1 row count must be an integer"),
        ("D AA V1 1", "D AA V1 \uff11", "D AA V1 row count must be an integer"),
        ("M 1/3", "M \uff11/3", "line 2: expected a rational"),
        ("M 1/3", "M 1/3_0", "line 2: expected a rational"),
    ],
)
def test_headers_take_ascii_integers_only(old, new, expected):
    # int() and Fraction() would read each of these as the plain value.
    lines = write_scheme(corner_scheme("M13")).splitlines()
    lines[lines.index(old)] = new
    with pytest.raises(SchemeFormatError, match=expected):
        read_scheme("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "old,new,expected",
    [
        ("M 1/3", "M -1/3", "line 2: memory -1/3 out of range [0, 2]"),
        ("M 1/3", "M 7/3", "line 2: memory 7/3 out of range [0, 2]"),
        ("c 1/3", "c -1/3", "line 3: load -1/3 must be nonnegative"),
        ("U1 3", "U1 4", "line 8: U1 must declare at most 3 rows, got 4"),
    ],
)
def test_memory_and_load_ranges_checked_at_their_header(old, new, expected):
    # Each is a whole number of rows, so only the range can refuse it.
    lines = write_scheme(corner_scheme("M13")).splitlines()
    lines[lines.index(old)] = new
    with pytest.raises(SchemeFormatError, match=f"^{re.escape(expected)}$"):
        read_scheme("\n".join(lines) + "\n")


def m13_lines(edits: dict[int, str]) -> list[str]:
    """The M13 file's lines, with line number -> new text replacements."""
    lines = write_scheme(corner_scheme("M13")).splitlines()
    for no, text in edits.items():
        lines[no - 1] = text
    return lines


def row_error(no: int, row: str) -> str:
    message = f"line {no}: expected a row of exactly 6 characters over 0/1, got {row!r}"
    return f"^{re.escape(message)}$"


# Lines 9, 10 and 11 of the M13 file are U1's rows 001000, 000101 and 000011.
@pytest.mark.parametrize(
    "edits,no,row",
    [
        ({9: "001020", 10: "0001011"}, 9, "001020"),  # a bad character, then a bad length
        ({9: "0010001", 10: "000121"}, 9, "0010001"),  # a bad length, then a bad character
        ({10: "00010\u00e9", 11: "\uff1300011"}, 10, "00010\u00e9"),
        ({9: "00100", 11: "0000111"}, 9, "00100"),
        ({11: "\uff1300011"}, 11, "\uff1300011"),
        ({10: "000 01"}, 10, "000 01"),
    ],
)
def test_first_bad_row_of_a_block_is_reported(edits, no, row):
    text = "\n".join(m13_lines(edits)) + "\n"
    with pytest.raises(SchemeFormatError, match=row_error(no, row)):
        read_scheme(text)
    with pytest.raises(SchemeFormatError, match=row_error(no, row)):
        read_scheme(text.replace("\n", "\r\n"))


def test_comments_and_blank_lines_inside_a_block_keep_line_numbers():
    lines = m13_lines({})
    lines[9:9] = ["# inside U1", "   "]
    assert read_scheme("\n".join(lines) + "\n") == corner_scheme("M13")
    lines[12] = "0000x1"  # U1's last row, now on line 13
    with pytest.raises(SchemeFormatError, match=row_error(13, "0000x1")):
        read_scheme("\n".join(lines) + "\n")


# Characters that str.splitlines also breaks at; the file format ends lines at "\n".
@pytest.mark.parametrize("ch", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newline_ends_a_line(ch):
    text = write_scheme(corner_scheme("M13"))
    assert read_scheme(f"# note{ch}more\n" + text) == corner_scheme("M13")
    row = f"001000{ch}000101"  # U1's first two rows, on line 9
    with pytest.raises(SchemeFormatError, match=row_error(9, row)):
        read_scheme("\n".join(m13_lines({9: row})) + "\n")


def test_crlf_line_ends_read_the_same_scheme():
    for name in CORNER_METRICS:
        text = write_scheme(corner_scheme(name))
        assert read_scheme(text.replace("\n", "\r\n")) == corner_scheme(name)


def test_delivery_rows_over_an_empty_u_block_are_refused():
    # M2 has no U rows, so a declared delivery row has width 0; an empty
    # row is a blank line and is skipped, so the next header is read as a row.
    text = write_scheme(corner_scheme("M2")).replace("c 0/1", "c 1/1")
    text = text.replace("D AA V1 0", "D AA V1 1")
    with pytest.raises(
        SchemeFormatError,
        match="^line 13: expected a row of exactly 0 characters over 0/1, got 'D AA V2 0'$",
    ):
        read_scheme(text)


def test_scheme_refuses_message_rows_over_an_empty_u_block():
    # M2's placements with one message row per demand over its empty U
    # blocks: such rows carry no bits, and their text would not read back.
    m2 = corner_scheme("M2")
    empty = DeliveryQuad(*(BitMatrix.zeros(1, 0) for _ in range(4)))
    with pytest.raises(ValueError, match=r"^load\*n = 1 message rows over an empty u1 carry"):
        LinearScheme(1, F(2), F(1), m2.z1, m2.z2, m2.u1, m2.u2, {d: empty for d in Demand})
    # No built scheme hits the refusal.
    for m in [F(p, 60) for p in range(121)]:
        scheme_for_memory(m)


# Lines of the M = 1/6 file (n = 12): line 4 is "Z1 2 terms", line 5 its
# first row "A7 B7", and lines 36 and 37 are "D AA V1 5 terms" and "U1".
@pytest.mark.parametrize(
    "no,new,expected",
    [
        (5, "A0 B7", "line 5: term 'A0' names no part: parts run from 1 to 12"),
        (5, "A7 B13", "line 5: term 'B13' names no part: parts run from 1 to 12"),
        (5, "A7 B1000000000000", "line 5: term 'B1000000000000' names no part"),
        (37, "U13", "line 37: term 'U13' names no row of U1, which has 12 rows"),
        (5, "A1 A1", "line 5: term 'A1' appears twice in the row"),
        (5, "B7 A7 B7", "line 5: term 'B7' appears twice in the row"),
        (5, "A1x", "line 5: expected terms A<k> or B<k> or '-', got 'A1x'"),
        (5, "A07", "line 5: expected terms A<k> or B<k> or '-', got 'A07'"),
        (5, "A7 U1", "line 5: expected terms A<k> or B<k> or '-', got 'U1'"),
        (5, "A \uff17", "line 5: expected terms A<k> or B<k> or '-', got 'A'"),
        # Only ASCII whitespace separates terms; str.strip's other spaces do not.
        (5, "A7\u3000B7", "line 5: expected terms A<k> or B<k> or '-', got 'A7\\u3000B7'"),
        (37, "A1", "line 37: expected terms U<k> or '-', got 'A1'"),
        (5, "- A1", "line 5: '-' marks an empty row and takes no terms, got '- A1'"),
        (5, "- -", "line 5: '-' marks an empty row and takes no terms, got '- -'"),
        (4, "Z1 2 term", "line 4: expected header 'Z1 <rows>', got 'Z1 2 term'"),
        (4, "Z1 2 terms terms", "line 4: expected header 'Z1 <rows>', got 'Z1 2 terms terms'"),
        (1, "n 12 terms", "line 1: expected header 'n <value>', got 'n 12 terms'"),
    ],
)
def test_bad_term_rows_are_refused_at_their_line(tmp_path, capsys, no, new, expected):
    lines = write_scheme(scheme_for_memory(F(1, 6))).splitlines()
    lines[no - 1] = new
    # A later error does not hide the earlier one.
    lines[-1] = "U99"
    text = "\n".join(lines) + "\n"
    for variant in (text, text.replace("\n", "\r\n")):
        with pytest.raises(SchemeFormatError, match=f"^{re.escape(expected)}"):
            read_scheme(variant)
    path = tmp_path / "bad.scheme"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: {expected}")


def test_term_rows_over_an_empty_u_block_are_refused(tmp_path, capsys):
    # A term row can spell an empty delivery row over M2's empty U blocks,
    # which the dense spelling cannot; such rows carry no bits.
    text = write_scheme(corner_scheme("M2")).replace("c 0/1", "c 1/1")
    text = text.replace("D AA V1 0\n", "D AA V1 1 terms\n-\n")
    expected = "line 13: D AA V1 rows over an empty U1 carry no bits, got '-'"
    with pytest.raises(SchemeFormatError, match=f"^{re.escape(expected)}$"):
        read_scheme(text)
    path = tmp_path / "bad.scheme"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


# Z1's first row (line 5, parts 1 to 12) and D AA V1's first (line 37,
# over U1's 12 rows) of the M = 1/6 file.
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(5, "AB", 12), (37, "U1", 12)]),
    st.text(alphabet="ABU-0123789/:x \t\u3000", min_size=1, max_size=10),
)
@example((5, "AB", 12), "A1 -")
@example((5, "AB", 12), "A1/")  # "/" is "0" - 1, so 1 * 10 - 1 would read as part 9
@example((37, "U1", 12), "U1:")
def test_term_rows_read_as_row_columns_reads_them(line, row):
    no, over, limit = line
    lines = write_scheme(scheme_for_memory(F(1, 6))).splitlines()
    lines[no - 1] = row
    text = "\n".join(lines) + "\n"
    if not row.strip():
        return  # a blank line is no row
    try:
        cols = _row_columns(row.strip(), over, limit)
    except ValueError as exc:
        with pytest.raises(SchemeFormatError, match=f"^line {no}: {re.escape(str(exc))}$"):
            read_scheme(text)
        return
    scheme = read_scheme(text)
    mat = scheme.z1 if over == "AB" else scheme.delivery[Demand.AA].d1
    assert mat.indices[mat.indptr[0] : mat.indptr[1]].tolist() == sorted(cols)


def test_truncated_term_block_reports_the_end_of_file():
    lines = write_scheme(scheme_for_memory(F(1, 6))).splitlines()
    end = "^line 40: unexpected end of file: expected a matrix row$"
    with pytest.raises(SchemeFormatError, match=end):
        read_scheme("\n".join(lines[:39]) + "\n# trailing comment\n")
    lines[36] = "U0"
    with pytest.raises(SchemeFormatError, match="^line 37: term 'U0'"):
        read_scheme("\n".join(lines[:39]) + "\n")


def test_truncated_file_rejected():
    lines = write_scheme(corner_scheme("M13")).splitlines()
    with pytest.raises(SchemeFormatError, match="unexpected end of file"):
        read_scheme("\n".join(lines[:-2]) + "\n")


def test_trailing_garbage_rejected():
    text = write_scheme(corner_scheme("M13")) + "extra\n"
    with pytest.raises(SchemeFormatError, match="unexpected content"):
        read_scheme(text)


def test_wrong_delivery_order_rejected():
    text = write_scheme(corner_scheme("M13"))
    swapped = text.replace("D AA V1 1", "D AB V1 1", 1)
    with pytest.raises(SchemeFormatError, match="expected header 'D AA V1"):
        read_scheme(swapped)


# M45's 20 blocks in file order, each by the name its shape errors give.
M45_BLOCK_NAMES = ["z1", "z2", "u1", "u2"] + [
    f"delivery d{i} for {d}" for d in Demand for i in range(1, 5)
]


@pytest.mark.parametrize("k,name", list(enumerate(M45_BLOCK_NAMES)), ids=M45_BLOCK_NAMES)
def test_every_block_shape_is_checked(k, name):
    # One loop over the block table checks all 20 blocks; a wrongly shaped
    # block is named, with the shape it must have.
    blocks = list(corner_scheme("M45").blocks)
    if name[0] == "z":
        blocks[k], message = BitMatrix.zeros(3, 10), f"{name} must be 4x10, got (3, 10)"
    elif name[0] == "u":
        blocks[k] = BitMatrix.zeros(6, 10)
        message = f"{name} must have at most 5 rows and 10 columns, got (6, 10)"
    else:
        blocks[k], message = BitMatrix.zeros(1, 4), f"{name} must be 1x5, got (1, 4)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _from_blocks(5, F(4, 5), F(1, 5), blocks)
    assert _from_blocks(5, F(4, 5), F(1, 5), corner_scheme("M45").blocks) == corner_scheme("M45")


def test_delivery_maps_come_four_to_a_demand():
    # The blocks are read in table order, so a demand with three maps and
    # one with five would shift every block after them.
    m45 = corner_scheme("M45")
    quads = [tuple(m45.delivery[d]) for d in Demand]
    uneven = dict(zip(Demand, [quads[0][:3], quads[1], quads[2], quads[3] + quads[0][3:]]))
    with pytest.raises(TypeError):
        dataclasses.replace(m45, delivery=uneven)
    plain = dataclasses.replace(m45, delivery=dict(zip(Demand, quads)))
    assert plain == m45 and all(type(q) is DeliveryQuad for q in plain.delivery.values())


def test_scheme_invariants_enforced():
    scheme = corner_scheme("M13")
    with pytest.raises(ValueError, match="z1"):
        LinearScheme(
            n=3,
            memory=F(1, 3),
            load=F(1, 3),
            z1=BitMatrix.zeros(2, 6),
            z2=scheme.z2,
            u1=scheme.u1,
            u2=scheme.u2,
            delivery=scheme.delivery,
        )
    with pytest.raises(ValueError, match="not an integer"):
        LinearScheme(
            n=3,
            memory=F(1, 4),
            load=F(1, 3),
            z1=scheme.z1,
            z2=scheme.z2,
            u1=scheme.u1,
            u2=scheme.u2,
            delivery=scheme.delivery,
        )
