"""GF(2) core checked against brute-force oracles."""

from __future__ import annotations

import itertools
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_oracle as oracle
from cachealign import BitMatrix, mat_mul, rank, solve_left, vstack
from cachealign import gf2
from cachealign import read_scheme, scheme_for_memory, verify_all, write_scheme


def oracle_mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Entry-by-entry XOR-sum over all index triples."""
    out = np.zeros((a.rows, b.cols), dtype=np.uint8)
    a_bits, b_bits = a.data.tolist(), b.data.tolist()
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc ^= a_bits[i][k] & b_bits[k][j]
            out[i, j] = acc
    return BitMatrix(out)


def row_span(m: BitMatrix) -> set[tuple[int, ...]]:
    """All XOR combinations of the rows, as tuples."""
    span = set()
    for picks in itertools.product((0, 1), repeat=m.rows):
        acc = np.zeros(m.cols, dtype=np.uint8)
        for take, row in zip(picks, m.data):
            if take:
                acc ^= row
        span.add(tuple(int(b) for b in acc))
    return span


def oracle_rank(m: BitMatrix) -> int:
    """Rank r iff the row space has exactly 2**r elements."""
    return len(row_span(m)).bit_length() - 1


def random_matrix(rng: np.random.Generator, rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def bits(draw, rows: int, cols: int) -> BitMatrix:
    data = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return BitMatrix(np.array(data, dtype=np.uint8).reshape(rows, cols))


@st.composite
def matrices(draw, max_dim: int = 5):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return bits(draw, rows, cols)


@st.composite
def conformable_triples(draw, max_dim: int = 4):
    dims = [draw(st.integers(1, max_dim)) for _ in range(4)]
    a = bits(draw, dims[0], dims[1])
    b = bits(draw, dims[1], dims[2])
    c = bits(draw, dims[2], dims[3])
    return a, b, c


def test_mat_mul_identity_is_neutral():
    rng = np.random.default_rng(1)
    m = random_matrix(rng, 3, 7)
    assert mat_mul(BitMatrix.identity(3), m) == m


def test_mat_mul_xor_arithmetic():
    a = BitMatrix([[1, 1], [0, 1]])
    b = BitMatrix([[1], [1]])
    assert mat_mul(a, b) == BitMatrix([[0], [1]])


def test_mat_mul_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    cases = [(random_matrix(rng, 4, 4), random_matrix(rng, 4, 4)) for _ in range(25)]
    # Widths around the 8-bit and 64-bit packing boundaries, on both
    # sides, and word rows of two to four words.
    for inner in (1, 7, 9, 63, 65):
        for width in (1, 7, 9, 63, 65, 127, 128, 129, 193):
            cases.append((random_matrix(rng, 3, inner), random_matrix(rng, inner, width)))
        cases.append((BitMatrix(np.ones((2, inner), dtype=np.uint8)), random_matrix(rng, inner, 9)))
    for inner, width in ((9, 65), (65, 7)):
        b = random_matrix(rng, inner, width)
        zero_rows = random_matrix(rng, 5, inner).data.copy()
        zero_rows[[0, 2, 4]] = 0
        cases.append((BitMatrix(zero_rows), b))
        picks = rng.integers(0, inner, size=6)
        selection = np.zeros((6, inner), dtype=np.uint8)
        selection[np.arange(6), picks] = 1
        cases.append((BitMatrix(selection), b))
        assert mat_mul(BitMatrix(selection), b) == BitMatrix(b.data[picks])
    for a, b in cases:
        assert mat_mul(a, b) == oracle_mat_mul(a, b)
        assert np.array_equal(mat_mul(a, b).data, oracle.mat_mul(a.data, b.data))


def test_mat_mul_xor_rows_across_passes(monkeypatch):
    # With fill passes of 1 to 3 entries, a pass gathers about 5 to 15
    # words, so the XOR rows of these products are cut into several
    # passes, some of one row that passes the budget, some of several rows.
    rng = np.random.default_rng(11)
    cases = [
        (shaped_bits(rng, kind, rows, inner), shaped_bits(rng, kind, inner, width))
        for kind, rows, inner, width in (
            ("dense", 9, 40, 129), ("dense", 7, 33, 193), ("sparse", 12, 60, 128),
            ("blocks", 10, 30, 65), ("dense", 5, 12, 1),
        )
    ]
    for entries in (1, 2, 3):
        monkeypatch.setattr(gf2, "_FILL_ENTRIES", entries)
        for a, b in cases:
            a = with_cancelling_rows(rng, a)
            assert np.array_equal(mat_mul(BitMatrix(a), BitMatrix(b)).data, oracle.mat_mul(a, b))


def test_mat_mul_dimension_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        mat_mul(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 3))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: BitMatrix(np.zeros(3)), "expected a 2-d array of bits, got shape (3,)"),
        (
            lambda: BitMatrix.identity(3).apply([0, 1]),
            "vector of shape (2,) does not match 3 columns",
        ),
        (
            lambda: BitMatrix.identity(2).apply([[0, 1]]),
            "vector of shape (1, 2) does not match 2 columns",
        ),
        (
            lambda: BitMatrix.zeros(2, 3) ^ BitMatrix.zeros(3, 2),
            "shape mismatch for XOR: (2, 3) vs (3, 2)",
        ),
        (lambda: vstack([]), "vstack needs at least one matrix"),
        (
            lambda: vstack([BitMatrix.zeros(1, 2), BitMatrix.zeros(1, 3)]),
            "column mismatch in vstack: 3 vs 2",
        ),
    ],
    ids=["not_2d", "apply_length", "apply_2d", "xor", "vstack_empty", "vstack_columns"],
)
def test_shape_errors_name_the_shapes(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_rank_identity_and_zero():
    assert rank(BitMatrix.identity(5)) == 5
    assert rank(BitMatrix.zeros(3, 7)) == 0
    assert rank(BitMatrix.zeros(0, 4)) == 0
    assert rank(BitMatrix.zeros(4, 0)) == 0


def test_rank_all_2x2_matches_span_oracle():
    for entries in itertools.product((0, 1), repeat=4):
        m = BitMatrix(np.array(entries, dtype=np.uint8).reshape(2, 2))
        assert rank(m) == oracle_rank(m)


def test_solve_left_identity_gram():
    rng = np.random.default_rng(3)
    e = random_matrix(rng, 2, 4)
    assert solve_left(BitMatrix.identity(4), e) == e


def test_solve_left_infeasible():
    g = BitMatrix([[1, 1]])
    e = BitMatrix([[1, 0]])
    assert solve_left(g, e) is None


def test_solve_left_recovers_selector():
    rng = np.random.default_rng(9)
    while True:
        g = random_matrix(rng, 5, 8)
        if rank(g) == 5:
            break
    e = BitMatrix(g.data[:3])
    r = solve_left(g, e)
    assert r is not None
    assert mat_mul(r, g) == e
    selector = np.zeros((3, 5), dtype=np.uint8)
    selector[np.arange(3), np.arange(3)] = 1
    assert r == BitMatrix(selector)


def test_solve_left_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_left(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 4))


@settings(max_examples=60, deadline=None)
@given(conformable_triples())
def test_mat_mul_associative(abc):
    a, b, c = abc
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
    assert a @ b == mat_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_bounds_and_duplication(m):
    r = rank(m)
    assert r <= min(m.rows, m.cols)
    assert rank(vstack([m, m])) == r


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_xor_self_inverse(m):
    assert (m ^ m) == BitMatrix.zeros(m.rows, m.cols)


@pytest.mark.parametrize("other", [1, np.uint8(1), "1", None])
def test_xor_and_product_refuse_what_is_not_a_bit_matrix(other):
    # Both used to raise AttributeError on other.shape or other.rows.
    m = BitMatrix.identity(2)
    with pytest.raises(TypeError, match="unsupported operand"):
        m ^ other
    with pytest.raises(TypeError, match="unsupported operand"):
        m @ other
    assert not m == other and m != other


@st.composite
def systems_with_solution(draw, max_dim: int = 5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    g = bits(draw, rows, cols)
    n_targets = draw(st.integers(1, 3))
    masks = [
        draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
        for _ in range(n_targets)
    ]
    e_rows = []
    for mask in masks:
        acc = np.zeros(cols, dtype=np.uint8)
        for take, row in zip(mask, g.data):
            if take:
                acc ^= row
        e_rows.append(acc)
    return g, BitMatrix(np.array(e_rows, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(systems_with_solution())
def test_solve_left_sound_and_complete(system):
    g, e = system
    r = solve_left(g, e)
    assert r is not None
    assert mat_mul(r, g) == e


def test_entries_must_be_bits():
    odd = ([None, 0], [np.nan, 0], [1 + 1j, 0], [1 + 0j, 0], ["1", "0"], [object(), 1])
    with warnings.catch_warnings():
        # Refused before any cast: no RuntimeWarning or ComplexWarning.
        warnings.simplefilter("error")
        uint8 = np.array([[2]], dtype=np.uint8)
        for data in ([[0.5, 1.7]], [[2, 0]], [[-1, 0]], [[257, 0]], uint8, *([row] for row in odd)):
            with pytest.raises(ValueError, match="^matrix entries must be 0 or 1$"):
                BitMatrix(data)
        # apply checks its vector the same way: a cast would give [0 1] for each.
        for vec in ([2, 3], [0.5, 1.7], [257, 0], [-1, 0], *odd):
            with pytest.raises(ValueError, match="0 or 1"):
                BitMatrix.identity(2).apply(vec)
        assert BitMatrix([[True, False]]) == BitMatrix([[1.0, 0.0]]) == BitMatrix([[1, 0]])


def test_empty_matrices_are_first_class():
    empty = BitMatrix.zeros(0, 4)
    assert BitMatrix(np.array([])).shape == (0, 0)
    assert mat_mul(empty, BitMatrix.zeros(4, 2)) == BitMatrix.zeros(0, 2)
    assert vstack([empty, BitMatrix.identity(4)]) == BitMatrix.identity(4)


# --- The sparse kernel against the dense packed-row reference -------------


def shaped_bits(rng: np.random.Generator, kind: str, rows: int, cols: int) -> np.ndarray:
    """A 0/1 array of one kind: dense, sparse, or block-diagonal up to permutations."""
    if kind == "dense":
        return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    if kind == "sparse":
        return (rng.random((rows, cols)) < 0.12).astype(np.uint8)
    # Blocks of about three columns, each row inside one block; columns
    # and rows are shuffled so that components interleave.
    out = np.zeros((rows, cols), dtype=np.uint8)
    cuts = rng.choice(np.arange(1, cols), size=cols // 3, replace=False) if cols > 1 else []
    bounds = [0, *np.sort(cuts), cols]
    for i in range(rows):
        b = int(rng.integers(len(bounds) - 1))
        lo, hi = bounds[b], bounds[b + 1]
        out[i, lo:hi] = rng.integers(0, 2, size=hi - lo)
    return out[rng.permutation(rows)][:, rng.permutation(cols)]


def with_cancelling_rows(rng: np.random.Generator, arr: np.ndarray) -> np.ndarray:
    """Zero some rows, and overwrite the last two with a repeat and a pair XOR."""
    arr = arr.copy()
    rows = arr.shape[0]
    arr[rng.random(rows) < 0.2] = 0
    if rows >= 3:
        i, j, k = rng.integers(0, rows - 2, size=3)
        arr[-2], arr[-1] = arr[i], arr[j] ^ arr[k]
    return arr


@st.composite
def bit_arrays(draw, rows=None, cols=None, max_dim: int = 12):
    rows = draw(st.integers(0, max_dim)) if rows is None else rows
    cols = draw(st.integers(0, max_dim)) if cols is None else cols
    kind = draw(st.sampled_from(["dense", "sparse", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = shaped_bits(rng, kind, rows, cols)
    if draw(st.booleans()):
        arr = with_cancelling_rows(rng, arr)
    return arr


@st.composite
def systems(draw):
    """(g, e): rows of e from g's row space, random rows, and zero rows."""
    g = draw(bit_arrays())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_targets = draw(st.integers(0, 6))
    mix = rng.integers(0, 2, size=(n_targets, g.shape[0]), dtype=np.uint8)
    e = oracle.mat_mul(mix, g)
    if n_targets and draw(st.booleans()):
        e[rng.integers(n_targets)] = rng.integers(0, 2, size=g.shape[1])  # maybe unsolvable
    if n_targets and draw(st.booleans()):
        e[rng.integers(n_targets)] = 0
    return g, e


def check_solve_left(g: np.ndarray, e: np.ndarray) -> None:
    r = solve_left(BitMatrix(g), BitMatrix(e))
    expected = oracle.solve_left(g, e)
    assert (r is None) == (expected is None)
    if r is not None:
        # Decoders are not unique; each witness must satisfy R g = e.
        assert r.shape == (e.shape[0], g.shape[0])
        assert np.array_equal(oracle.mat_mul(r.data, g), e)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_left_matches_dense_reference(system):
    check_solve_left(*system)


@settings(max_examples=150, deadline=None)
@given(bit_arrays())
def test_rank_matches_dense_reference(arr):
    assert rank(BitMatrix(arr)) == oracle.rank(arr)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_products_sums_and_stacks_match_dense_reference(data):
    a = data.draw(bit_arrays())
    b = data.draw(bit_arrays(rows=a.shape[1]))
    c = data.draw(bit_arrays(cols=a.shape[1]))
    twin = data.draw(bit_arrays(rows=a.shape[0], cols=a.shape[1]))
    v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=a.shape[1], max_size=a.shape[1])))
    ma = BitMatrix(a)
    assert np.array_equal(mat_mul(ma, BitMatrix(b)).data, oracle.mat_mul(a, b))
    assert np.array_equal(vstack([ma, BitMatrix(c)]).data, np.vstack([a, c]))
    assert np.array_equal((ma ^ BitMatrix(twin)).data, a ^ twin)
    assert np.array_equal(ma.apply(v), oracle.apply(a, v))
    assert BitMatrix(ma.data) == ma and hash(BitMatrix(ma.data)) == hash(ma)


def test_wide_components_match_dense_reference():
    # Rows and components wider than 64 bits, where packed rows span many bytes.
    rng = np.random.default_rng(11)
    for kind, rows, cols in (("dense", 70, 140), ("blocks", 90, 300), ("sparse", 120, 200)):
        g = with_cancelling_rows(rng, shaped_bits(rng, kind, rows, cols))
        assert rank(BitMatrix(g)) == oracle.rank(g)
        mix = rng.integers(0, 2, size=(9, g.shape[0]), dtype=np.uint8)
        e = oracle.mat_mul(mix, g)
        check_solve_left(g, e)
        e[4] ^= rng.integers(0, 2, size=cols, dtype=np.uint8)
        check_solve_left(g, e)
        b = shaped_bits(rng, kind, cols, 65)
        assert np.array_equal(mat_mul(BitMatrix(g), BitMatrix(b)).data, oracle.mat_mul(g, b))


def test_mat_mul_copies_single_selections_and_xors_the_rest():
    # Rows of a that select nothing, one row of b, or several rows of b
    # (two equal rows cancel), interleaved, with b wider than 64 columns.
    rng = np.random.default_rng(3)
    b = with_cancelling_rows(rng, shaped_bits(rng, "sparse", 12, 130))
    b[0] = 0
    a = np.zeros((7, 12), dtype=np.uint8)
    a[1, 3] = a[2, [3, 5]] = a[3, 0] = a[4, [0, 4, 5, 9, 10, 11]] = a[6, 11] = 1
    b[4] = b[9]
    a[5, [4, 9]] = 1
    product = mat_mul(BitMatrix(a), BitMatrix(b))
    assert np.array_equal(product.data, oracle.mat_mul(a, b))
    assert not product.data[[0, 3, 5]].any()
    assert np.array_equal(product.data[[1, 6]], b[[3, 11]])


def test_mat_mul_fills_only_the_rows_that_xor_rows_select():
    # A 10^4 x 10^4 product at 3 bits a row whose rows copy one row of b,
    # but for one that XORs two: b's other rows never become word rows.
    rng = np.random.default_rng(7)
    n = 10**4
    b = BitMatrix.from_entries(np.repeat(np.arange(n), 3), rng.integers(0, n, size=3 * n), (n, n))
    picks = rng.permutation(n)
    a = BitMatrix.from_entries([*range(n), 0], [*picks, (picks[0] + 1) % n], (n, n))
    tracemalloc.start()
    try:
        product = mat_mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    # The same rows through the copy path: row 0 XORs its second row in.
    second = BitMatrix.from_entries([0], [(picks[0] + 1) % n], (n, n))
    copies = BitMatrix.from_entries(np.arange(n), picks, (n, n))
    assert product == mat_mul(copies, b) ^ mat_mul(second, b)


@st.composite
def few_xor_rows(draw):
    """(a, b): b wide and sparse; a's rows select nothing, one row, or a few rows of b."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = draw(st.integers(1, 40))
    width = draw(st.sampled_from([65, 200, 640, 1000]))
    b = (rng.random((inner, width)) < draw(st.sampled_from([0.01, 0.1, 0.5]))).astype(np.uint8)
    rows = draw(st.integers(1, 30))
    a = np.zeros((rows, inner), dtype=np.uint8)
    a[np.arange(rows), rng.integers(0, inner, size=rows)] = 1
    for i in rng.choice(rows, size=min(rows, draw(st.integers(0, 3))), replace=False):
        a[i, rng.integers(0, inner, size=draw(st.integers(2, 5)))] ^= 1
    return a, b


@settings(max_examples=100, deadline=None)
@given(few_xor_rows())
def test_mat_mul_with_few_xor_rows_matches_dense_reference(ab):
    a, b = ab
    assert np.array_equal(mat_mul(BitMatrix(a), BitMatrix(b)).data, oracle.mat_mul(a, b))


def test_from_entries_keeps_odd_counts():
    m = BitMatrix.from_entries([2, 0, 2, 0, 0], [1, 3, 1, 0, 3], (3, 4))
    assert m == BitMatrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert m.indptr.tolist() == [0, 1, 1, 1] and m.indices.tolist() == [0]
    with pytest.raises(ValueError):
        m.indices[0] = 1
    # Empty lists are float64, and the corners' empty rows pass them.
    assert BitMatrix.from_entries([], [], (np.int64(2), 3)) == BitMatrix.zeros(2, 3)
    refused = [
        ([3], [0], (3, 4), "row index out of range for shape (3, 4)"),
        ([0], [4], (3, 4), "column index out of range for shape (3, 4)"),
        ([-1], [0], (3, 4), "row index out of range for shape (3, 4)"),
        ([0, 1], [0], (3, 4), "2 row indices for 1 column indices"),
        ([], [], (-1, 2), "negative shape (-1, 2)"),
        # A cast truncated these: [0.5] set entry (0, 0), [1.7] row 1, and
        # the shape (1.5, 1) read as (1, 1).
        ([0.5], [0], (1, 1), "row indices must be integers, got array([0.5])"),
        ([1.7], [0], (2, 1), "row indices must be integers, got array([1.7])"),
        ([True], [0], (1, 1), "row indices must be integers, got array([ True])"),
        ([0], [1.0], (1, 2), "column indices must be integers, got array([1.])"),
        ([0], [0], (1.5, 1), "shape entries must be integers, got (1.5, 1)"),
        ([0], [0], (1, True), "shape entries must be integers, got (1, True)"),
    ]
    for rows, cols, shape, message in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BitMatrix.from_entries(rows, cols, shape)


# --- Several systems solved as one block-diagonal system -------------------


def in_row_space(g: np.ndarray, row: np.ndarray) -> bool:
    return oracle.rank(np.vstack([g, row[None]])) == oracle.rank(g)


def block_diagonal(systems: list[tuple[np.ndarray, np.ndarray]]):
    """The systems' g and e on the diagonals of dense arrays, and each system's row counts."""
    shapes = [(g.shape[0], e.shape[0]) for g, e in systems]
    rows = np.cumsum([(0, 0), *shapes], axis=0)
    cols = np.cumsum([0, *(g.shape[1] for g, _ in systems)])
    g_all = np.zeros((rows[-1, 0], cols[-1]), dtype=np.uint8)
    e_all = np.zeros((rows[-1, 1], cols[-1]), dtype=np.uint8)
    for k, (g, e) in enumerate(systems):
        g_all[rows[k, 0] : rows[k + 1, 0], cols[k] : cols[k + 1]] = g
        e_all[rows[k, 1] : rows[k + 1, 1], cols[k] : cols[k + 1]] = e
    return BitMatrix(g_all), BitMatrix(e_all), shapes


def check_solve_each(systems: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """The batch solve of the systems against the dense reference, system by system and row by row."""
    results = gf2._solve_stacked(block_diagonal, systems)
    assert len(results) == len(systems)
    for (g, e), result in zip(systems, results):
        failing = [i for i in range(e.shape[0]) if not in_row_space(g, e[i])]
        assert result.failed.tolist() == failing
        assert (result.decoder is None) == bool(failing) == (oracle.solve_left(g, e) is None)
        if result.decoder is not None:
            assert result.decoder.shape == (e.shape[0], g.shape[0])
            assert np.array_equal(oracle.mat_mul(result.decoder.data, g), e)


@st.composite
def unsolvable_systems(draw):
    """A system with a row of e over a column that no row of g touches."""
    g, e = draw(systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = np.hstack([g, np.zeros((g.shape[0], 1), dtype=np.uint8)])
    e = np.hstack([e, np.zeros((e.shape[0], 1), dtype=np.uint8)])
    bad = rng.integers(0, 2, size=(1, g.shape[1]), dtype=np.uint8)
    bad[0, -1] = 1
    at = int(rng.integers(e.shape[0] + 1))
    return g, np.vstack([e[:at], bad, e[at:]])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(systems(), max_size=3), unsolvable_systems(), st.lists(systems(), max_size=3)
)
def test_solve_each_matches_per_case_oracle_verdicts(before, bad, after):
    check_solve_each([*before, bad, *after])


def test_solve_each_on_multiword_rows_and_combinations():
    # Components over more than 64 and 128 columns, with more than 64 and
    # 128 rows, so that both the bits and the combinations span several
    # words; the 400 x 400 system has more entries than one fill pass takes.
    rng = np.random.default_rng(17)
    cases = []
    for kind, rows, cols in (
        ("dense", 150, 70), ("dense", 70, 150), ("dense", 200, 200),
        ("blocks", 260, 400), ("sparse", 130, 129), ("dense", 400, 400),
    ):
        g = with_cancelling_rows(rng, shaped_bits(rng, kind, rows, cols))
        e = oracle.mat_mul(rng.integers(0, 2, size=(5, rows), dtype=np.uint8), g)
        e[2] ^= rng.integers(0, 2, size=cols, dtype=np.uint8)
        cases.append((g, e))
        assert rank(BitMatrix(g)) == oracle.rank(g)
    # All systems together, and each system alone.
    check_solve_each(cases)
    for case in cases:
        check_solve_each([case])


def test_solve_each_edge_shapes():
    rng = np.random.default_rng(5)
    g = shaped_bits(rng, "sparse", 6, 9)
    g[:, [2, 7]] = 0
    untouched = np.zeros((3, 9), dtype=np.uint8)
    untouched[0, 2] = untouched[1, [2, 7]] = 1
    untouched[2] = g[1] ^ g[4]
    unit = np.zeros((1, 5), dtype=np.uint8)
    unit[0, 3] = 1
    check_solve_each(
        [
            (np.zeros((0, 5), dtype=np.uint8), np.zeros((2, 5), dtype=np.uint8)),
            (np.zeros((0, 5), dtype=np.uint8), unit),
            (np.zeros((0, 0), dtype=np.uint8), np.zeros((3, 0), dtype=np.uint8)),
            (np.zeros((4, 0), dtype=np.uint8), np.zeros((0, 0), dtype=np.uint8)),
            (g, np.zeros((0, 9), dtype=np.uint8)),
            (g, untouched),
        ]
    )
    assert gf2._solve_stacked(block_diagonal, []) == []
    with pytest.raises(ValueError, match=r"dimension mismatch: g is \(2, 3\), e is \(1, 4\)"):
        solve_left(BitMatrix.zeros(2, 3), BitMatrix.zeros(1, 4))


@settings(max_examples=80, deadline=None)
@given(unsolvable_systems())
def test_decode_builds_a_canonical_decoder(system):
    g, e = system
    decoder, failed = gf2._Reduced(BitMatrix(g)).decode(BitMatrix(e))
    assert failed.tolist() == [i for i in range(e.shape[0]) if not in_row_space(g, e[i])]
    assert decoder.shape == (e.shape[0], g.shape[0]) and decoder == BitMatrix(decoder.data)
    product = oracle.mat_mul(decoder.data, g)
    for i in set(range(e.shape[0])) - set(failed.tolist()):
        assert np.array_equal(product[i], e[i])


# --- Products with several columns of bits at once -------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_to_columns_matches_dense_reference_column_by_column(data):
    a = data.draw(bit_arrays())
    k = data.draw(st.integers(0, 6))
    block = data.draw(bit_arrays(rows=a.shape[1], cols=k))
    out = BitMatrix(a).apply(block)
    assert out.shape == (a.shape[0], k) and out.dtype == np.uint8
    for j in range(k):
        assert np.array_equal(out[:, j], oracle.apply(a, block[:, j]))
        assert np.array_equal(out[:, j], BitMatrix(a).apply(block[:, j]))


@pytest.mark.parametrize(
    "a,k",
    [
        (np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=np.uint8), 1),
        (np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=np.uint8), 4),
        (np.zeros((3, 3), dtype=np.uint8), 2),
        (np.zeros((0, 3), dtype=np.uint8), 1),
        (np.zeros((0, 3), dtype=np.uint8), 5),
        (np.zeros((2, 0), dtype=np.uint8), 3),
        (np.zeros((0, 0), dtype=np.uint8), 2),
    ],
    ids=["k=1", "k=4", "empty_rows", "zero_rows_k=1", "zero_rows", "zero_cols", "empty"],
)
def test_apply_to_columns_edge_shapes(a, k):
    block = np.random.default_rng(k).integers(0, 2, size=(a.shape[1], k), dtype=np.uint8)
    out = BitMatrix(a).apply(block)
    assert out.shape == (a.shape[0], k) and out.dtype == np.uint8
    for j in range(k):
        assert np.array_equal(out[:, j], oracle.apply(a, block[:, j]))


def test_apply_refuses_columns_that_do_not_fit():
    m = BitMatrix.identity(3)
    for bad in (np.zeros((2, 4), dtype=np.uint8), np.zeros((3, 1, 1), dtype=np.uint8), np.uint8(1)):
        message = f"vector of shape {bad.shape} does not match 3 columns"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            m.apply(bad)
    with pytest.raises(ValueError, match="vector entries must be 0 or 1"):
        m.apply(np.full((3, 2), 2))


# --- CSR rows from row counts ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csr_from_row_counts_matches_the_row_start_search(data):
    # Sorted unique keys r * cols + c, empty rows and zero shapes included,
    # against the construction that searched for every row's start.
    rows, cols = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
    picked = data.draw(st.sets(st.integers(0, max(rows * cols - 1, 0)), max_size=rows * cols))
    keys = np.array(sorted(picked), dtype=np.intp)
    indptr, indices, width = gf2._csr(keys, (rows, cols))
    assert indptr.dtype == np.intp and width == cols
    assert indptr.tolist() == np.searchsorted(keys, np.arange(rows + 1) * cols).tolist()
    assert indices.tolist() == [key % cols for key in keys.tolist()]
    m = BitMatrix._from_keys(keys, (rows, cols))
    assert m.shape == (rows, cols) and {(r * cols + c) for r, c in zip(*m.nonzero())} == picked


# --- Elimination once per distinct component pattern ------------------------


@st.composite
def copied_patterns(draw):
    """A system of many copies of 1 to 4 small patterns beside a few unique blocks.

    Returns g and e as dense arrays, and for each e row that is one copy
    of a template row, (pattern, template, the copy's g rows in order).
    Each block keeps its own row and column order, while the blocks'
    rows and columns are interleaved.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []  # (pattern or None, g block, e templates)
    for p in range(draw(st.integers(1, 4))):
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        g = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        if rows > 1 and draw(st.booleans()):
            g[-1] = g[0]  # a repeated row: rank-deficient
        inside = oracle.mat_mul(rng.integers(0, 2, size=(2, rows), dtype=np.uint8), g)
        outside = rng.integers(0, 2, size=(2, cols), dtype=np.uint8)
        templates = np.vstack([inside, outside])
        blocks += [(p, g, templates)] * draw(st.integers(1, 12))
    for _ in range(draw(st.integers(0, 3))):
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        g = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        blocks.append((None, g, rng.integers(0, 2, size=(2, cols), dtype=np.uint8)))
    # Interleave: each block takes a sorted random subset of the rows and columns.
    n_rows, n_cols = sum(b[1].shape[0] for b in blocks), sum(b[1].shape[1] for b in blocks)
    row_perm, col_perm = rng.permutation(n_rows), rng.permutation(n_cols)
    g = np.zeros((n_rows, n_cols), dtype=np.uint8)
    e_rows, copies = [], []
    r = c = 0
    for p, block, templates in blocks:
        at_rows = np.sort(row_perm[r : r + block.shape[0]])
        at_cols = np.sort(col_perm[c : c + block.shape[1]])
        r, c = r + block.shape[0], c + block.shape[1]
        g[np.ix_(at_rows, at_cols)] = block
        for t, template in enumerate(templates):
            row_ = np.zeros(n_cols, dtype=np.uint8)
            row_[at_cols] = template
            if p is not None:
                copies.append((p, t, at_rows))
            e_rows.append(row_)
    e = np.array(e_rows).reshape(-1, n_cols)
    # Rows over two blocks, split into one piece per block.
    pairs = rng.integers(0, e.shape[0], size=(draw(st.integers(0, 3)), 2))
    e = np.vstack([e, *(e[a] ^ e[b] for a, b in pairs if a != b)]).astype(np.uint8)
    return g, e, copies


@settings(max_examples=60, deadline=None)
@given(st.lists(copied_patterns(), min_size=1, max_size=3))
def test_copied_patterns_solve_as_the_dense_reference(drawn):
    check_solve_each([(g, e) for g, e, _ in drawn])
    # The rows that reduce, solved again: equal copies of a template row get
    # equal decoder rows, read over each copy's own rows, since a pattern's
    # copies share its one elimination.
    for g, e, copies in drawn:
        ok = [i for i in range(e.shape[0]) if in_row_space(g, e[i])]
        decoder = solve_left(BitMatrix(g), BitMatrix(e[ok].reshape(-1, g.shape[1])))
        assert decoder is not None
        decoder = decoder.data
        seen = {}
        for i, (p, t, at_rows) in enumerate(copies):
            if i in ok:
                row_ = decoder[ok.index(i)]
                assert not np.delete(row_, at_rows).any()
                seen.setdefault((p, t), set()).add(tuple(row_[at_rows].tolist()))
        assert all(len(rows) == 1 for rows in seen.values())


def test_flat_copy_eliminates_only_its_distinct_patterns(monkeypatch):
    members = []

    class Counted(gf2._Group):
        def __init__(self, a, width, column_words):
            members.append(a.shape[0])
            super().__init__(a, width, column_words)

    flat = read_scheme(write_scheme(scheme_for_memory(Fraction(59, 293))))
    components = []
    reduced = gf2._Reduced

    class Seen(reduced):
        def __init__(self, g):
            super().__init__(g)
            components.append(self.comps)

    monkeypatch.setattr(gf2, "_Group", Counted)
    monkeypatch.setattr(gf2, "_Reduced", Seen)
    assert verify_all(flat).passed
    # 8 distinct patterns among thousands of components.
    assert sum(components) > 1000 and 0 < sum(members) <= 8
