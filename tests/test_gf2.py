"""GF(2) core checked against brute-force oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachealign import BitMatrix, mat_mul, rank, solve_left, vstack


def oracle_mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Entry-by-entry XOR-sum over all index triples."""
    out = np.zeros((a.rows, b.cols), dtype=np.uint8)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc ^= int(a.data[i, k]) & int(b.data[k, j])
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
    # Widths around the 8-bit and 64-bit packing boundaries, on both sides.
    for inner in (1, 7, 9, 63, 65):
        for width in (1, 7, 9, 63, 65):
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


def test_mat_mul_dimension_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        mat_mul(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 3))


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
    for data in ([[0.5, 1.7]], [[2, 0]], [[-1, 0]], [[257, 0]]):
        with pytest.raises(ValueError, match="0 or 1"):
            BitMatrix(data)
    # apply checks its vector the same way: a cast would give [0 1] for each.
    for vec in ([2, 3], [0.5, 1.7], [257, 0], [-1, 0]):
        with pytest.raises(ValueError, match="0 or 1"):
            BitMatrix.identity(2).apply(vec)
    assert BitMatrix([[True, False]]) == BitMatrix([[1.0, 0.0]]) == BitMatrix([[1, 0]])


def test_empty_matrices_are_first_class():
    empty = BitMatrix.zeros(0, 4)
    assert mat_mul(empty, BitMatrix.zeros(4, 2)) == BitMatrix.zeros(0, 2)
    assert vstack([empty, BitMatrix.identity(4)]) == BitMatrix.identity(4)
