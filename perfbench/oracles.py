"""Reference computations for the benchmark's correctness checks.

Nothing here calls the package.  Each function recomputes a property
from the paper's definitions, so that a wrong answer from the program is
caught instead of being compared with a copy of itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import erfc, lcm, sqrt

import numpy as np

# Sigma width of the binomial acceptance interval for Monte Carlo rates.
SER_SIGMAS = 5.0


class CheckFailed(AssertionError):
    """A program output disagrees with the reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rho_envelope(m: Fraction) -> Fraction:
    """Optimal sum network load: the paper's four-piece envelope."""
    m = Fraction(m)
    return max(
        2 - 2 * m,
        Fraction(12, 7) - Fraction(8, 7) * m,
        Fraction(4, 3) - Fraction(2, 3) * m,
        Fraction(0),
    )


def gap_is_zero(m: Fraction) -> bool:
    """The paper's end-to-end optimality statement: the DoF gap closes at M >= 4/5."""
    return Fraction(m) >= Fraction(4, 5)


def demanded_bits(file_bits: np.ndarray, n: int, file_id: str) -> np.ndarray:
    """File A is the first n stacked bits, file B the last n."""
    return file_bits[:n] if file_id == "A" else file_bits[n:]


def check_decoded(decoded: np.ndarray, file_bits: np.ndarray, n: int, file_id: str) -> None:
    expected = demanded_bits(file_bits, n, file_id)
    require(
        np.array_equal(np.asarray(decoded, dtype=np.uint8), expected),
        f"decoded bits differ from file {file_id}",
    )


# Physical layer.  Transmitter mixing and channel, straight from the
# model: x1 = h22*g1 + h12*g2, x2 = h21*g3 + h11*g4, y1 = h11*x1 + h12*x2,
# y2 = h21*x1 + h22*x2.  User 1 separates (g1, g3) and the pair sum g2+g4,
# user 2 separates (g2, g4) and g1+g3.
_PAIRS = {1: ((0, 2), (1, 3)), 2: ((1, 3), (0, 2))}


def _symbol_coefficients(gains) -> dict[int, tuple[Fraction, ...]]:
    h11, h12, h21, h22 = (Fraction(h) for h in gains)
    mix = ((h22, h12, 0, 0), (0, 0, h21, h11))  # x = mix @ g
    chan = {1: (h11, h12), 2: (h21, h22)}  # y_u = chan[u] @ x
    return {
        u: tuple(chan[u][0] * mix[0][j] + chan[u][1] * mix[1][j] for j in range(4))
        for u in (1, 2)
    }


def aligned_triple(gains, user: int) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients of (direct symbol, direct symbol, pair sum) seen by the user."""
    coeff = _symbol_coefficients(gains)[user]
    (d1, d2), (p1, p2) = _PAIRS[user]
    require(coeff[p1] == coeff[p2], f"user {user}: interfering streams are not aligned")
    return coeff[d1], coeff[d2], coeff[p1]


def _aligned_values(gains, user: int, q: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer values, probabilities and denominator of every aligned point.

    Denominators are cleared, so the point (a, b, s) with a, b in [0, q)
    and s in [0, 2q-1) has value values[i] / denominator.  a and b are
    uniform; the pair sum s of two uniform symbols is triangular.
    """
    triple = aligned_triple(gains, user)
    denominator = lcm(*(c.denominator for c in triple))
    ca, cb, cs = (int(c * denominator) for c in triple)
    a, b, s = np.meshgrid(np.arange(q), np.arange(q), np.arange(2 * q - 1), indexing="ij")
    values = (ca * a + cb * b + cs * s).ravel().astype(np.int64)
    probs = ((np.minimum(s, 2 * q - 2 - s) + 1) / q**4).ravel()
    return values, probs, denominator


def integer_certificate(gains, q: int) -> bool:
    """Both users' aligned forms are injective, checked on cleared integers."""
    return all(
        np.unique(_aligned_values(gains, u, q)[0]).size == q * q * (2 * q - 1) for u in (1, 2)
    )


def _transmit_peak(gains, q: int) -> Fraction:
    h11, h12, h21, h22 = (Fraction(h) for h in gains)
    return max(
        max(abs(h22 * a + h12 * b), abs(h21 * a + h11 * b)) for a in range(q) for b in range(q)
    )


def min_gap(gains, q: int) -> Fraction:
    """Smallest distance between two aligned points of either user."""
    gaps = []
    for u in (1, 2):
        values, _, denominator = _aligned_values(gains, u, q)
        gaps.append(Fraction(int(np.diff(np.sort(values)).min()), denominator))
    return min(gaps)


def power_for_sigmas(gains, q: int, sigmas: float) -> float:
    """Power that puts the smallest received gap at *sigmas* noise deviations."""
    return (sigmas * float(_transmit_peak(gains, q)) / float(min_gap(gains, q))) ** 2


def _q_tail(x: float) -> float:
    return 0.5 * erfc(x / sqrt(2.0))


def exact_ser(gains, q: int, power: float) -> tuple[float, float]:
    """Nearest-point symbol error probability per user, unit-variance noise.

    Transmit values are scaled so the largest transmit point sits at
    sqrt(power).  A point is decoded wrongly when the noise crosses the
    midpoint to a neighbour: a Gaussian tail at half of each scaled gap.
    """
    scale = sqrt(power) / float(_transmit_peak(gains, q))
    rates = []
    for u in (1, 2):
        values, probs, denominator = _aligned_values(gains, u, q)
        order = np.argsort(values)
        half_gaps = np.diff(values[order]) * (scale / denominator / 2)
        tails = np.array([_q_tail(x) for x in half_gaps])
        # A point errs past its left gap and past its right gap.
        err = np.zeros(values.size)
        err[1:] += tails
        err[:-1] += tails
        rates.append(float(np.dot(probs[order], err)))
    return rates[0], rates[1]


def check_ser(ser: float, trials: int, p: float, label: str) -> None:
    """The observed error count lies within SER_SIGMAS binomial deviations of trials*p.

    One extra count of slack covers the discreteness of small counts.
    """
    errors = round(ser * trials)
    half_width = SER_SIGMAS * sqrt(trials * p * (1 - p)) + 1
    require(
        abs(errors - trials * p) <= half_width,
        f"{label}: {errors} errors in {trials} trials, "
        f"expected {trials * p:.1f} +- {half_width:.1f}",
    )
