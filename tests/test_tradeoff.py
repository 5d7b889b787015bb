"""Trade-off curves, converse slacks, bounds, and CSV export."""

from __future__ import annotations

from fractions import Fraction

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachealign import (
    MAX_SWEEP_ROWS,
    PhyConfig,
    TradeoffPoint,
    baseline_comparison,
    breakpoints,
    check_converse,
    curve_corners,
    demodulate,
    dof_lower_bound,
    inverse_dof,
    optimality_gap,
    rho_star,
    sweep,
    sweep_csv,
)
from cachealign.tradeoff import _INT64_MAX_DENOMINATOR, _SWEEP_SCALE
from tradeoff_oracle import assert_same_csv, inverse_dof_direct, sweep_rows
from tradeoff_oracle import sweep_csv as oracle_sweep_csv

F = Fraction

GRID = [F(k, 60) for k in range(121)]

NOT_FINITE = [True, False, None, 1j, "1/0", "x", math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NOT_FINITE, ids=repr)
@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(rho_star, "M must be a finite number, got {}", id="rho_star"),
        pytest.param(inverse_dof, "M must be a finite number, got {}", id="inverse_dof"),
        pytest.param(optimality_gap, "M must be a finite number, got {}", id="gap"),
        pytest.param(dof_lower_bound, "memory must be a finite number, got {}", id="dof_bound"),
        pytest.param(
            lambda x: check_converse(x, 1), "memory must be a finite number, got {}", id="conv_m"
        ),
        pytest.param(
            lambda x: check_converse(0, x), "rho must be a finite number, got {}", id="conv_rho"
        ),
        pytest.param(
            lambda x: TradeoffPoint(x, 1), "memory must be a finite number, got {}", id="point"
        ),
        pytest.param(lambda x: sweep(x, 2, 1), "from must be a finite number, got {}", id="from"),
        pytest.param(lambda x: sweep(0, x, 1), "to must be a finite number, got {}", id="to"),
        pytest.param(lambda x: sweep(0, 2, x), "step must be a finite number, got {}", id="step"),
        pytest.param(
            lambda x: demodulate(PhyConfig(2, 3, 5, 7), x, 1),
            "observation {} is not a finite number",
            id="demodulate",
        ),
    ],
)
def test_exact_entry_points_refuse_what_is_no_finite_number(call, message, value):
    # rho_star(True) gave 2/3 and sweep(0, 2, True) 3 rows; "1/0" raised
    # ZeroDivisionError, None and 1j TypeError and an infinity OverflowError.
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(repr(value)))}$"):
        call(value)


@pytest.mark.parametrize(
    "m,expected",
    [
        (F(0), F(2)),
        (F(1, 3), F(4, 3)),
        (F(4, 5), F(4, 5)),
        (F(2), F(0)),
        (F(1), F(2, 3)),
        (F(1, 6), F(5, 3)),
        (F(1, 2), F(8, 7)),
    ],
)
def test_rho_star_values(m, expected):
    assert rho_star(m) == expected


def test_rho_star_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        rho_star(F(3))
    with pytest.raises(ValueError, match="out of range"):
        rho_star(F(-1, 2))


def test_negative_memory_is_refused():
    message = "memory and rho must be nonnegative, got (-1, 0)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_converse(-1, 0)
    with pytest.raises(ValueError, match="^memory must be nonnegative, got -1$"):
        dof_lower_bound(-1)


def test_breakpoints_from_intersections():
    assert breakpoints() == [F(0), F(1, 3), F(4, 5), F(2)]


def test_curve_corners():
    corners = curve_corners()
    assert [(p.memory, p.value) for p in corners] == [
        (F(0), F(2)),
        (F(1, 3), F(4, 3)),
        (F(4, 5), F(4, 5)),
        (F(2), F(0)),
    ]
    with pytest.raises(ValueError, match="out of range"):
        TradeoffPoint(F(5, 2), F(0))
    with pytest.raises(ValueError, match="nonnegative"):
        TradeoffPoint(F(1), F(-1))


@pytest.mark.parametrize(
    "m,expected",
    [(F(0), F(3, 2)), (F(4, 5), F(3, 5)), (F(2), F(0)), (F(1), F(1, 2))],
)
def test_inverse_dof_values(m, expected):
    assert inverse_dof(m) == expected


def test_two_inverse_dof_routes_agree_on_dense_rationals():
    points = {F(p, q) for q in range(1, 61) for p in range(0, 2 * q + 1)}
    for m in points:
        assert inverse_dof(m) == inverse_dof_direct(m)


def test_rho_star_convex_and_nonincreasing():
    values = [rho_star(m) for m in GRID]
    for prev, curr in zip(values, values[1:]):
        assert curr <= prev
    for a, b, c in zip(values, values[1:], values[2:]):
        assert a - 2 * b + c >= 0


def test_converse_at_first_kink():
    report = check_converse(F(1, 3), F(4, 3))
    assert report.satisfied
    by_label = {check.label: check for check in report.checks}
    assert by_label["7c+2M >= 3"].tight
    assert by_label["4c+2M >= 2"].tight  # both active pieces meet here
    assert by_label["6c+M >= 2"].slack == F(1, 3)


def test_converse_at_second_kink():
    report = check_converse(F(4, 5), F(4, 5))
    assert report.tight_labels == ("7c+2M >= 3", "6c+M >= 2")
    assert report.satisfied


def test_converse_violation_below_cut_set_line():
    report = check_converse(F(0), F(1))
    assert report.violated
    by_label = {check.label: check for check in report.checks}
    assert by_label["4c+2M >= 2"].slack == F(-1)
    assert not by_label["4c+2M >= 2"].satisfied


def test_optimal_curve_satisfies_converse_with_tightness():
    for m in (F(k, 2520) for k in range(5041)):
        report = check_converse(m, rho_star(m))
        assert report.satisfied, m
        assert report.tight_labels, m


@pytest.mark.parametrize(
    "m,expected", [(F(0), F(1)), (F(4, 5), F(3, 5)), (F(2), F(0)), (F(3), F(0))]
)
def test_dof_lower_bound_values(m, expected):
    assert dof_lower_bound(m) == expected


@pytest.mark.parametrize(
    "m,expected", [(F(1), F(0)), (F(0), F(1, 2)), (F(4, 5), F(0))]
)
def test_optimality_gap_values(m, expected):
    assert optimality_gap(m) == expected


def test_gap_sign_splits_at_four_fifths():
    for m in GRID:
        gap = optimality_gap(m)
        if m >= F(4, 5):
            assert gap == 0, m
        else:
            assert gap > 0, m


def test_baseline_points_and_ratios():
    at_zero, at_heavy = baseline_comparison()
    assert at_zero.memory == 0
    assert (at_zero.layered, at_zero.xchannel, at_zero.interference) == (
        F(4, 3),
        F(4, 3),
        F(1),
    )
    assert at_heavy.memory == F(4, 5)
    assert (at_heavy.layered, at_heavy.xchannel, at_heavy.interference) == (
        F(10, 3),
        F(20, 9),
        F(5, 3),
    )
    assert at_heavy.ratio_vs_xchannel == F(3, 2)
    assert at_heavy.ratio_vs_interference == F(2)


def test_sweep_single_point():
    (point,) = sweep(F(4, 5), F(4, 5), F(1))
    assert (point.memory, point.rho, point.inv_dof, point.lower_bound, point.gap) == (
        F(4, 5),
        F(4, 5),
        F(3, 5),
        F(3, 5),
        F(0),
    )


def test_sweep_endpoints():
    rows = sweep(F(0), F(2), F(2))
    assert [(r.memory, r.rho) for r in rows] == [(F(0), F(2)), (F(2), F(0))]


def test_sweep_hits_kink_exactly():
    rows = sweep(F(0), F(1), F(1, 3))
    kink = rows[1]
    assert kink.memory == F(1, 3)
    assert kink.rho == F(4, 3)


def test_sweep_rejects_bad_ranges():
    with pytest.raises(ValueError, match="bad range"):
        sweep(F(1), F(1, 2), F(1, 4))
    with pytest.raises(ValueError, match="step"):
        sweep(F(0), F(1), F(0))
    # The row count is exact and checked before any row is built.
    for start, stop, step, count in (
        (F(0), F(2), F(2, MAX_SWEEP_ROWS), MAX_SWEEP_ROWS + 1),
        (F(0), F(2), F(1, 10**8), 2 * 10**8 + 1),
    ):
        with pytest.raises(ValueError, match=f"sweep of {count} rows is above the limit"):
            sweep(start, stop, step)


# The largest lcm(den(from), den(step)) whose sweep columns are int64.
INT64_LCM = _INT64_MAX_DENOMINATOR // _SWEEP_SCALE

SWEEP_GRIDS = [
    (F(0), F(2), F(1, 60)),
    (F(1, 7), F(13, 7), F(3, 11)),
    (F(0), F(1), F(1, 3)),
    # M = 1/128 = 0.0078125 is an exact binary tie at the 7th decimal.
    (F(0), F(2), F(1, 128)),
    (F(0), F(0), F(1)),
    (F(2), F(2), F(1)),
    # lcm just below and just above the int64 threshold.
    (F(1, INT64_LCM), F(2), F(1, 60)),
    (F(1, INT64_LCM + 1), F(2), F(INT64_LCM // 60, INT64_LCM + 1)),
    (F(1, 10**30 + 7), F(2), F(1, 7)),
]


@pytest.mark.parametrize("start,stop,step", SWEEP_GRIDS)
def test_sweep_rows_match_the_curve_functions(start, stop, step):
    rows = sweep(start, stop, step)
    assert len(rows) == (stop - start) // step + 1
    assert [r.memory for r in rows] == [start + i * step for i in range(len(rows))]
    assert rows[-1].memory <= stop < rows[-1].memory + step
    first, *rest = rows
    assert [first, *rest] == [rows[i] for i in range(len(rows))]
    assert rows[-1] == rows[len(rows) - 1] and rows[-len(rows)] == first
    assert rows == sweep(start, stop, step) == sweep_rows(start, stop, step)
    assert rows != rest and rows != tuple(rows)
    with pytest.raises(TypeError):
        rows[:1]
    for r in rows:
        assert (r.rho, r.inv_dof, r.lower_bound, r.gap) == (
            rho_star(r.memory),
            inverse_dof(r.memory),
            dof_lower_bound(r.memory),
            optimality_gap(r.memory),
        )


def test_sweep_csv_decimal_and_exact():
    rows = sweep(F(4, 5), F(4, 5), F(1))
    decimal = sweep_csv(rows)
    assert decimal.splitlines()[0] == "M,rho_star,inv_dof,lower_bound,gap"
    assert decimal.splitlines()[1] == "0.800000,0.800000,0.600000,0.600000,0.000000"
    exact = sweep_csv(rows, exact=True)
    assert exact.splitlines()[1] == "4/5,4/5,3/5,3/5,0"


def test_sweep_columns_switch_to_python_ints_above_the_int64_threshold():
    below = sweep(F(1, INT64_LCM), F(2), F(1, 60))
    above = sweep(F(1, INT64_LCM + 1), F(2), F(INT64_LCM // 60, INT64_LCM + 1))
    assert below.denominator == _SWEEP_SCALE * INT64_LCM <= _INT64_MAX_DENOMINATOR
    assert above.denominator == _SWEEP_SCALE * (INT64_LCM + 1) > _INT64_MAX_DENOMINATOR
    assert {column.dtype for column in below.columns} == {np.dtype(np.int64)}
    assert {column.dtype for column in above.columns} == {np.dtype(object)}


@pytest.mark.parametrize("start,stop,step", SWEEP_GRIDS)
@pytest.mark.parametrize("exact", [False, True])
def test_sweep_csv_matches_the_fraction_oracle(start, stop, step, exact):
    expected = oracle_sweep_csv(sweep_rows(start, stop, step), exact=exact)
    assert_same_csv(sweep_csv(sweep(start, stop, step), exact=exact), expected)


DENOMINATORS = st.one_of(
    st.integers(1, 10**6),
    st.integers(INT64_LCM - 10**3, INT64_LCM + 10**3),
    st.integers(INT64_LCM + 1, 10**30),
)


@st.composite
def rational_grids(draw):
    """from <= to in [0, 2] and a positive step, giving at most 300 rows."""
    b, e, d = draw(DENOMINATORS), draw(DENOMINATORS), draw(DENOMINATORS)
    start = F(draw(st.integers(0, 2 * b)), b)
    stop = start + F(draw(st.integers(0, int((2 - start) * e))), e)
    # A step of at least (to - from) / intervals gives at most intervals + 1 rows.
    intervals = draw(st.integers(1, 299))
    step = F(max(1, -(-(stop - start) * d // intervals)), d)
    # A step above 2, up to far beyond int64, gives one row.
    step = draw(st.sampled_from([step, step + 2, step + 10**20]))
    return start, stop, step


@settings(max_examples=200, deadline=None)
@given(rational_grids())
def test_sweep_csv_matches_the_fraction_oracle_on_random_grids(grid):
    rows = sweep_rows(*grid)
    columnar = sweep(*grid)
    assert len(columnar) == len(rows)
    for exact in (False, True):
        assert_same_csv(sweep_csv(columnar, exact=exact), oracle_sweep_csv(rows, exact=exact))
