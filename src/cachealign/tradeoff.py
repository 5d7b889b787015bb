"""Closed-form trade-off curves, converse checks, and comparison constants.

Everything here is exact rational arithmetic; floats appear only when
rendering.  The optimal sum network load is the upper envelope of four
affine pieces of memory; the end-to-end inverse degrees of freedom is
3/4 of it and is matched by a cut-set style lower bound once the
receiver caches hold at least 4/5 of a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "BaselinePoint",
    "ConverseReport",
    "InequalityCheck",
    "MAX_SWEEP_ROWS",
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

# Affine pieces (intercept, slope) whose pointwise max is the optimal
# sum network load as a function of receiver memory.
_RHO_PIECES: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(2), Fraction(-2)),
    (Fraction(12, 7), Fraction(-8, 7)),
    (Fraction(4, 3), Fraction(-2, 3)),
    (Fraction(0), Fraction(0)),
)

# Most rows one sweep builds: 10^5 exact rows take several seconds and
# about 100 MB.
MAX_SWEEP_ROWS = 100_000


def _check_memory(m: Fraction) -> Fraction:
    m = Fraction(m)
    if not 0 <= m <= 2:
        raise ValueError(f"M out of range [0, 2]: {m}")
    return m


def rho_star(m: Fraction) -> Fraction:
    """Optimal sum network load at memory m, exactly."""
    m = _check_memory(m)
    return max(intercept + slope * m for intercept, slope in _RHO_PIECES)


def breakpoints() -> list[Fraction]:
    """Memory values where the optimal load changes slope, plus the origin.

    Computed as intersections of consecutive pieces in slope order, not
    hard-coded.
    """
    pieces = sorted(_RHO_PIECES, key=lambda piece: piece[1])
    points = [Fraction(0)]
    for (b1, s1), (b2, s2) in zip(pieces, pieces[1:]):
        points.append((b1 - b2) / (s2 - s1))
    return points


@dataclass(frozen=True)
class TradeoffPoint:
    """Exact point on a trade-off curve: memory paired with a load or inverse-DoF."""

    memory: Fraction
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "memory", Fraction(self.memory))
        object.__setattr__(self, "value", Fraction(self.value))
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
    """Slacks of the three lower-bound inequalities at a candidate (M, rho) pair.

    With c = rho/4: one cut-set bound per pair of users (4c + 2M >= 2),
    the merged non-cut-set bound (7c + 2M >= 3), and the single-user
    two-request cut-set bound (6c + M >= 2).
    """
    m = Fraction(m)
    rho = Fraction(rho)
    if m < 0 or rho < 0:
        raise ValueError(f"memory and rho must be nonnegative, got ({m}, {rho})")
    c = rho / 4
    checks = (
        InequalityCheck("4c+2M >= 2", 4 * c + 2 * m - 2),
        InequalityCheck("7c+2M >= 3", 7 * c + 2 * m - 3),
        InequalityCheck("6c+M >= 2", 6 * c + m - 2),
    )
    return ConverseReport(memory=m, rho=rho, checks=checks)


def dof_lower_bound(m: Fraction) -> Fraction:
    """Lower bound on the optimal inverse-DoF over all strategies: max(1 - M/2, 0)."""
    m = Fraction(m)
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


def sweep(start: Fraction, stop: Fraction, step: Fraction) -> list[SweepRow]:
    """Curve rows on the rational grid start, start+step, ... up to stop."""
    start, stop, step = Fraction(start), Fraction(stop), Fraction(step)
    if not 0 <= start <= stop <= 2:
        raise ValueError(f"bad range [{start}, {stop}]: need 0 <= from <= to <= 2")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    count = (stop - start) // step + 1
    if count > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep of {count} rows is above the limit of {MAX_SWEEP_ROWS}")
    rows = []
    for i in range(count):
        m = start + i * step
        rho = rho_star(m)
        lower_bound = dof_lower_bound(m)
        # inverse_dof and optimality_gap, from the one rho_star evaluation.
        inv_dof = Fraction(3, 4) * rho
        rows.append(SweepRow(m, rho, inv_dof, lower_bound, inv_dof - lower_bound))
    return rows


def sweep_csv(rows: list[SweepRow], exact: bool = False) -> str:
    """Render sweep rows as CSV; decimal cells by default, p/q with exact=True."""

    def cell(f: Fraction) -> str:
        return str(f) if exact else f"{float(f):.6f}"

    lines = ["M,rho_star,inv_dof,lower_bound,gap"]
    for row in rows:
        lines.append(
            ",".join(
                cell(v)
                for v in (row.memory, row.rho, row.inv_dof, row.lower_bound, row.gap)
            )
        )
    return "\n".join(lines) + "\n"
