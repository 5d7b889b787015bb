"""Test oracle for the trade-off curve, shared by the tradeoff and acceptance tests.

The achievable inverse-DoF envelope is transcribed here from its own
affine pieces, independently of ``tradeoff.inverse_dof`` (which scales
the optimal load by 3/4), so that the two routes can be checked against
each other.
"""

from __future__ import annotations

from fractions import Fraction

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
