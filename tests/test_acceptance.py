"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All numeric checks are exact rational or bit-exact comparisons
except the two statistical Monte Carlo properties in criterion 9.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from cachealign import (
    BitMatrix,
    Demand,
    PhyConfig,
    baseline_comparison,
    check_converse,
    corner_scheme,
    decode_bits,
    demodulate,
    e2e_run,
    file_selector,
    inverse_dof,
    mat_mul,
    monte_carlo,
    optimality_gap,
    power_for_min_gap,
    rank,
    rho_star,
    scheme_for_memory,
    solve_left,
    verify_all,
)
from test_phy import oracle_received
from tradeoff_oracle import inverse_dof_direct

F = Fraction

GRID = [F(k, 60) for k in range(121)]
CORNERS = ("M0", "M13", "M45", "M2")
PHY = PhyConfig(2, 3, 5, 7)
ALL_CASES = [(d, user) for d in Demand for user in (1, 2)]


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num} PASS - {text}")


def test_criterion_1_corner_point_reproduction():
    expected = {
        "M0": (F(0), F(2)),
        "M13": (F(1, 3), F(4, 3)),
        "M45": (F(4, 5), F(4, 5)),
        "M2": (F(2), F(0)),
    }
    for name in CORNERS:
        scheme = corner_scheme(name)
        report = verify_all(scheme)
        assert report.passed, name
        assert len(report.cases) == 8
        assert (scheme.memory, scheme.rho) == expected[name], name
    _report(1, "four built-in schemes verify with exact (M, rho) corner metrics")


def test_criterion_2_curve_consistency():
    for m in GRID:
        assert F(3, 4) * rho_star(m) == inverse_dof_direct(m), m
        assert inverse_dof(m) == inverse_dof_direct(m), m
    values = [rho_star(m) for m in GRID]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(a - 2 * b + c >= 0 for a, b, c in zip(values, values[1:], values[2:]))
    _report(2, "both inverse-DoF routes agree on the 1/60 grid; rho* convex, nonincreasing")


def test_criterion_3_converse_tightness():
    for m in GRID:
        report = check_converse(m, rho_star(m))
        assert report.satisfied, m
        assert report.tight_labels, m
    kink = check_converse(F(1, 3), F(4, 3))
    assert "7c+2M >= 3" in kink.tight_labels
    _report(3, "optimal curve satisfies all converse inequalities, one tight per point")


def test_criterion_4_achievability_matches_formula():
    for m in GRID:
        scheme = scheme_for_memory(m)
        assert scheme.rho == rho_star(m), m
        assert verify_all(scheme).passed, m
    _report(4, "constructed scheme verifies with rho = rho*(m) at all 121 grid points")


def test_criterion_5_optimality_regime():
    for m in GRID:
        gap = optimality_gap(m)
        if m >= F(4, 5):
            assert gap == 0, m
        else:
            assert gap > 0, m
    _report(5, "optimality gap is zero exactly on the high-memory regime m >= 4/5")


def test_criterion_6_baseline_ratios():
    _, at_heavy = baseline_comparison()
    assert at_heavy.layered == F(10, 3)
    assert at_heavy.xchannel == F(20, 9)
    assert at_heavy.interference == F(5, 3)
    assert at_heavy.ratio_vs_xchannel == F(3, 2)
    assert at_heavy.ratio_vs_interference == F(2)
    _report(6, "recorded sum-DoF comparison reproduces the 3/2 and 2 ratios at m = 4/5")


def test_criterion_7_alignment_round_trip():
    for g in itertools.product((0, 1), repeat=4):
        y1, y2 = oracle_received(PHY, g)
        assert demodulate(PHY, y1, 1) == (g[0], g[2], g[1] + g[3])
        assert demodulate(PHY, y2, 2) == (g[1], g[3], g[0] + g[2])
    _report(7, "all 16 symbol quadruples round-trip through the aligned channel exactly")


def test_criterion_8_end_to_end_integration():
    rng = np.random.default_rng(2718)
    for name in ("M0", "M13", "M45"):
        scheme = corner_scheme(name)
        assert scheme.load > 0
        for demand in Demand:
            for _ in range(50):
                bits = rng.integers(0, 2, size=2 * scheme.n, dtype=np.uint8)
                outputs = e2e_run(scheme, demand, PHY, bits)
                for user, decoded in zip((1, 2), outputs):
                    wanted = file_selector(scheme.n, demand.requested(user)).apply(bits)
                    assert np.array_equal(decoded, wanted)
                    assert np.array_equal(
                        decoded, decode_bits(scheme, demand, user, bits)
                    )
    _report(8, "600 random deliveries decode bit-exactly and match the network-layer path")


def test_criterion_9_monte_carlo_sanity():
    high_power = power_for_min_gap(PHY, 20.0)
    low_power = power_for_min_gap(PHY, 2.0)
    high = monte_carlo(PhyConfig(2, 3, 5, 7, power=high_power), trials=10_000, seed=424242)
    low = monte_carlo(PhyConfig(2, 3, 5, 7, power=low_power), trials=10_000, seed=424242)
    assert high.ser_user1 <= 1e-3
    assert high.ser_user2 <= 1e-3
    assert high.ser_user1 <= low.ser_user1
    assert high.ser_user2 <= low.ser_user2
    _report(9, "seeded SER <= 1e-3 at a 20-sigma gap and nonincreasing across powers")


def _row_span(m: BitMatrix) -> set[tuple[int, ...]]:
    span = set()
    for picks in itertools.product((0, 1), repeat=m.rows):
        acc = np.zeros(m.cols, dtype=np.uint8)
        for take, row in zip(picks, m.data):
            if take:
                acc ^= row
        span.add(tuple(int(b) for b in acc))
    return span


def test_criterion_10_oracle_cross_checks():
    rng = np.random.default_rng(31337)
    for _ in range(500):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        g = BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))
        span = _row_span(g)
        assert rank(g) == len(span).bit_length() - 1

        e_rows = int(rng.integers(1, 5))
        e = BitMatrix(rng.integers(0, 2, size=(e_rows, cols), dtype=np.uint8))
        feasible = all(tuple(int(b) for b in row) in span for row in e.data)
        decoder = solve_left(g, e)
        assert (decoder is not None) == feasible
        if decoder is not None:
            assert mat_mul(decoder, g) == e

    scheme = corner_scheme("M13")
    for values in itertools.product((0, 1), repeat=6):
        bits = np.array(values, dtype=np.uint8)
        for demand, user in ALL_CASES:
            wanted = file_selector(3, demand.requested(user)).apply(bits)
            assert np.array_equal(decode_bits(scheme, demand, user, bits), wanted)
    _report(10, "rank/solvability match span enumeration; decoding equals selector maps")
