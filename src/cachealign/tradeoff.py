"""Closed-form trade-off curves, converse checks, and comparison constants.

Everything here is exact rational arithmetic; floats appear only when
rendering.  The optimal sum network load is the least one that one table
of converse inequalities allows at each memory; the end-to-end inverse
degrees of freedom is 3/4 of it and is matched by a cut-set style lower
bound once the receiver caches hold at least 4/5 of a file.  A sweep
evaluates the curve on a whole grid at once, as integer numerators over
one common denominator.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import lcm

import numpy as np

from .gf2 import _rational

__all__ = [
    "BaselinePoint",
    "ConverseReport",
    "InequalityCheck",
    "MAX_SWEEP_ROWS",
    "Sweep",
    "SweepRow",
    "TradeoffPoint",
    "baseline_comparison",
    "breakpoints",
    "check_converse",
    "curve_corners",
    "dof_lower_bound",
    "inverse_dof",
    "optimality_gap",
    "rho_star",
    "sweep",
    "sweep_csv",
]

# The converse, one row (a, b, r) per inequality a*c + b*M >= r on the
# per-user load c = rho/4: one cut-set bound per pair of users, the merged
# non-cut-set bound, and the single-user two-request cut-set bound.  The
# optimal load is their envelope together with c >= 0, the row (1, 0, 0).
_CONVERSE: tuple[tuple[int, int, int], ...] = ((4, 2, 2), (7, 2, 3), (6, 1, 2))
_LOAD_ROWS = _CONVERSE + ((1, 0, 0),)

# A sweep's common denominator is this times lcm(den(from), den(step)):
# 84 = lcm(2, 4, 7, 6) clears the 2 of M/2 and each row's division by a.
_SWEEP_SCALE = lcm(2, *(a for a, _, _ in _CONVERSE))

# Largest common denominator d whose sweep columns are int64.  Every
# numerator is at most 2d <= 2**53, so numerators and d convert to float64
# exactly and numpy's division rounds as float(Fraction) does; every
# product in the kernel is at most 4d < 2**63.  Above it the same
# expressions run on object arrays of Python ints.
_INT64_MAX_DENOMINATOR = 2**52

# Most rows one sweep builds: at 10^5 rows, `cachealign sweep` writes the
# CSV in about 0.5 s with 67 MB peak RSS (91 MB with exact cells).
MAX_SWEEP_ROWS = 100_000


def _check_memory(m: Fraction) -> Fraction:
    m = _rational(m, "M")
    if not 0 <= m <= 2:
        raise ValueError(f"M out of range [0, 2]: {m}")
    return m


def rho_star(m: Fraction) -> Fraction:
    """Optimal sum network load at memory m, exactly."""
    m = _check_memory(m)
    return 4 * max((r - b * m) / a for a, b, r in _LOAD_ROWS)


def breakpoints() -> list[Fraction]:
    """Memory values where the optimal load changes slope, plus the origin.

    Computed as crossings of consecutive load rows in slope order, not
    hard-coded.
    """
    rows = sorted(_LOAD_ROWS, key=lambda row: Fraction(-row[1], row[0]))
    points = [Fraction(0)]
    for (a1, b1, r1), (a2, b2, r2) in pairwise(rows):
        points.append(Fraction(a1 * r2 - a2 * r1, a1 * b2 - a2 * b1))
    return points


@dataclass(frozen=True)
class TradeoffPoint:
    """Exact point on a trade-off curve: memory paired with a load or inverse-DoF."""

    memory: Fraction
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "memory", _rational(self.memory, "memory"))
        object.__setattr__(self, "value", _rational(self.value, "value"))
        if not 0 <= self.memory <= 2:
            raise ValueError(f"memory {self.memory} out of range [0, 2]")
        if self.value < 0:
            raise ValueError(f"value {self.value} must be nonnegative")


def curve_corners() -> list[TradeoffPoint]:
    """The optimal load curve's corner points, one per breakpoint memory."""
    return [TradeoffPoint(m, rho_star(m)) for m in breakpoints()]


def inverse_dof(m: Fraction) -> Fraction:
    """Achievable end-to-end inverse degrees of freedom: (3/4) * rho_star(m)."""
    return Fraction(3, 4) * rho_star(m)


@dataclass(frozen=True)
class InequalityCheck:
    """One converse inequality with its exact slack (LHS - RHS)."""

    label: str
    slack: Fraction

    @property
    def satisfied(self) -> bool:
        return self.slack >= 0

    @property
    def tight(self) -> bool:
        return self.slack == 0


@dataclass(frozen=True)
class ConverseReport:
    memory: Fraction
    rho: Fraction
    checks: tuple[InequalityCheck, ...]

    @property
    def satisfied(self) -> bool:
        return all(check.satisfied for check in self.checks)

    @property
    def violated(self) -> bool:
        return not self.satisfied

    @property
    def tight_labels(self) -> tuple[str, ...]:
        return tuple(check.label for check in self.checks if check.tight)


def check_converse(m: Fraction, rho: Fraction) -> ConverseReport:
    """Slacks of the converse inequalities at a candidate (M, rho) pair, with c = rho/4."""
    m = _rational(m, "memory")
    rho = _rational(rho, "rho")
    if m < 0 or rho < 0:
        raise ValueError(f"memory and rho must be nonnegative, got ({m}, {rho})")
    c = rho / 4
    checks = tuple(
        InequalityCheck(f"{a}c+{'' if b == 1 else b}M >= {r}", a * c + b * m - r)
        for a, b, r in _CONVERSE
    )
    return ConverseReport(memory=m, rho=rho, checks=checks)


def dof_lower_bound(m: Fraction) -> Fraction:
    """Lower bound on the optimal inverse-DoF over all strategies: max(1 - M/2, 0)."""
    m = _rational(m, "memory")
    if m < 0:
        raise ValueError(f"memory must be nonnegative, got {m}")
    return max(1 - m / 2, Fraction(0))


def optimality_gap(m: Fraction) -> Fraction:
    """Achievable inverse-DoF minus the lower bound; zero means end-to-end optimal."""
    m = _check_memory(m)
    return inverse_dof(m) - dof_lower_bound(m)


@dataclass(frozen=True)
class BaselinePoint:
    """Recorded sum-DoF comparison at one memory value.

    The layered value follows from the achievable inverse-DoF (two users
    at DoF d each); the single-channel and crossed-channel abstractions
    are recorded constants, not computed curves.
    """

    memory: Fraction
    layered: Fraction
    xchannel: Fraction
    interference: Fraction

    @property
    def ratio_vs_xchannel(self) -> Fraction:
        return self.layered / self.xchannel

    @property
    def ratio_vs_interference(self) -> Fraction:
        return self.layered / self.interference


def _layered_sum_dof(m: Fraction) -> Fraction:
    return 2 / inverse_dof(m)


def baseline_comparison() -> tuple[BaselinePoint, BaselinePoint]:
    """Sample comparison points at memory 0 and 4/5."""
    return (
        BaselinePoint(
            memory=Fraction(0),
            layered=_layered_sum_dof(Fraction(0)),
            xchannel=Fraction(4, 3),
            interference=Fraction(1),
        ),
        BaselinePoint(
            memory=Fraction(4, 5),
            layered=_layered_sum_dof(Fraction(4, 5)),
            xchannel=Fraction(20, 9),
            interference=Fraction(5, 3),
        ),
    )


@dataclass(frozen=True)
class SweepRow:
    memory: Fraction
    rho: Fraction
    inv_dof: Fraction
    lower_bound: Fraction
    gap: Fraction


@dataclass(frozen=True, eq=False)
class Sweep(Sequence[SweepRow]):
    """Sweep rows as five numerator columns over one common denominator.

    Row i is the memory, rho, inv_dof, lower_bound and gap numerators at
    index i over ``denominator``; its ``SweepRow`` of Fractions is built
    only when the row is read.  The columns are int64 arrays, or object
    arrays of Python ints when the denominator is too large for int64.
    """

    denominator: int
    memory: np.ndarray
    rho: np.ndarray
    inv_dof: np.ndarray
    lower_bound: np.ndarray
    gap: np.ndarray

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.memory, self.rho, self.inv_dof, self.lower_bound, self.gap)

    def __len__(self) -> int:
        return len(self.memory)

    def __getitem__(self, index: int) -> SweepRow:
        # One row per integer index; a slice is refused, not read as a row.
        index = operator.index(index)
        values = (int(column[index]) for column in self.columns)
        return SweepRow(*(Fraction(value, self.denominator) for value in values))

    def __eq__(self, other: object) -> bool:
        # Equal to a sweep or a list with the same rows, as a list of rows is.
        if not isinstance(other, (Sweep, list)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)


def sweep(start: Fraction, stop: Fraction, step: Fraction) -> Sweep:
    """Curve rows on the rational grid start, start+step, ... up to stop."""
    start, stop, step = _rational(start, "from"), _rational(stop, "to"), _rational(step, "step")
    if not 0 <= start <= stop <= 2:
        raise ValueError(f"bad range [{start}, {stop}]: need 0 <= from <= to <= 2")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    count = (stop - start) // step + 1
    if count > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep of {count} rows is above the limit of {MAX_SWEEP_ROWS}")
    # A step above 2 gives one row whatever its value; capping it keeps
    # step * d, like every numerator, within 2d.
    step = min(step, Fraction(2))
    d = _SWEEP_SCALE * lcm(start.denominator, step.denominator)
    index = np.arange(count, dtype=np.int64 if d <= _INT64_MAX_DENOMINATOR else object)
    memory = int(start * d) + index * int(step * d)
    # d and every memory numerator are multiples of each a, so each load
    # numerator divides exactly.
    load = np.maximum.reduce([(r * d - b * memory) // a for a, b, r in _LOAD_ROWS])
    rho = 4 * load
    inv_dof = 3 * load
    # max(1 - M/2, 0) is 1 - M/2, since M <= 2.
    lower_bound = d - memory // 2
    return Sweep(d, memory, rho, inv_dof, lower_bound, inv_dof - lower_bound)


def sweep_csv(rows: Sweep, exact: bool = False) -> str:
    """Render sweep rows as CSV; decimal cells by default, p/q with exact=True.

    Cells read as str(Fraction) and f"{float(Fraction):.6f}" would: exact
    cells are reduced by their gcd with the denominator, and decimal cells
    are numerator / denominator, correctly rounded on either dtype.
    """
    d = rows.denominator
    if exact:
        cells = []
        for column in rows.columns:
            g = np.gcd(column, d)
            reduced = zip((column // g).tolist(), (d // g).tolist())
            cells.append([f"{p}/{q}" if q != 1 else str(p) for p, q in reduced])
        lines = map(",".join, zip(*cells))
    else:
        values = zip(*((column / d).tolist() for column in rows.columns))
        lines = map("%.6f,%.6f,%.6f,%.6f,%.6f".__mod__, values)
    return "\n".join(["M,rho_star,inv_dof,lower_bound,gap", *lines]) + "\n"
