"""Test oracles for the trade-off curve, shared by the tradeoff, CLI and acceptance tests.

The achievable inverse-DoF envelope is transcribed here from its own
affine pieces, independently of ``tradeoff.inverse_dof`` (which scales
the optimal load by 3/4), so that the two routes can be checked against
each other.

``sweep_rows`` and ``sweep_csv`` are the row-by-row ``Fraction`` sweep:
one ``SweepRow`` per grid point from the scalar curve functions, and
cells rendered by ``str(Fraction)`` and ``float(Fraction)``.  The
package's columnar sweep must reproduce their CSV byte for byte, which
``assert_same_csv`` checks.
"""

from __future__ import annotations

from fractions import Fraction

from cachealign import SweepRow, dof_lower_bound, rho_star

INV_DOF_PIECES: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(3, 2), Fraction(-3, 2)),
    (Fraction(9, 7), Fraction(-6, 7)),
    (Fraction(1), Fraction(-1, 2)),
    (Fraction(0), Fraction(0)),
)


def inverse_dof_direct(m: Fraction) -> Fraction:
    """The inverse-DoF envelope evaluated from its own pieces, for m in [0, 2]."""
    m = Fraction(m)
    if not 0 <= m <= 2:
        raise ValueError(f"M out of range [0, 2]: {m}")
    return max(intercept + slope * m for intercept, slope in INV_DOF_PIECES)


def sweep_rows(start: Fraction, stop: Fraction, step: Fraction) -> list[SweepRow]:
    """Curve rows on the grid start, start+step, ... up to stop, one Fraction row at a time."""
    start, stop, step = Fraction(start), Fraction(stop), Fraction(step)
    rows = []
    for i in range((stop - start) // step + 1):
        m = start + i * step
        rho = rho_star(m)
        lower_bound = dof_lower_bound(m)
        inv_dof = Fraction(3, 4) * rho
        rows.append(SweepRow(m, rho, inv_dof, lower_bound, inv_dof - lower_bound))
    return rows


def sweep_csv(rows: list[SweepRow], exact: bool = False) -> str:
    """Render rows as CSV; decimal cells by default, p/q with exact=True."""

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


def assert_same_csv(actual: str, expected: str) -> None:
    """Fail unless the two texts are equal, naming the first line that differs.

    Exactly as strict as ``actual == expected``.  A plain ``==`` on two long
    texts makes pytest diff them in full when they differ, which took
    minutes for a wrong sweep; this reports one line instead.
    """
    got, want = actual.split("\n"), expected.split("\n")
    for number, (line, wanted) in enumerate(zip(got, want), start=1):
        if line != wanted:
            raise AssertionError(f"line {number} is {line!r}, expected {wanted!r}")
    if len(got) != len(want):
        raise AssertionError(f"{len(got)} lines, expected {len(want)}")
