"""Desk-scale physical layer: lattice symbols, fixed linear front-end, alignment.

Each transmitter mixes its two symbol streams with the *other* link's
gains, so that at each receiver the two interfering streams land on a
common coefficient and arrive as their integer sum:

    x1 = h22*g1 + h12*g2        y1 = h11*h22*g1 + h12*h21*g3 + h11*h12*(g2+g4)
    x2 = h21*g3 + h11*g4        y2 = h12*h21*g2 + h11*h22*g4 + h21*h22*(g1+g3)

Gains are exact rationals and a uniqueness certificate replaces the
usual "generic gains" assumption: demodulation is offered only when the
aligned linear form is injective over the full symbol range.

The front end, channel and aligned form run only on the cleared integer
gains D*h (D the lcm of the denominators), so received values are
integers over D^2.  Fractions appear only at the boundary: the input of
demodulate and the values aligned_coefficients and
enumerate_constellation render.  Floats appear only in Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gf2 import _as_bits
from .netchannel import Demand, _check_user
from .schemes import LinearScheme
from .verifier import decoders, message_bits, observed_bits

__all__ = [
    "DemodError",
    "MonteCarloResult",
    "PhyConfig",
    "MAX_ALPHABET",
    "MAX_TRIALS",
    "MC_CSV_HEADER",
    "NOISE_SIGMA",
    "aligned_coefficients",
    "demodulate",
    "e2e_run",
    "enumerate_constellation",
    "monte_carlo",
    "power_for_min_gap",
    "uniqueness_certificate",
]

NOISE_SIGMA = 1.0  # unit-variance additive Gaussian noise

# Largest symbol alphabet.  The certificate enumerates q^2 (2q-1) points
# per user: about 5*10^5 at q = 64.
MAX_ALPHABET = 64

# Most Monte Carlo trials in one run.  A run holds a trials x 4 int64
# symbol array and a few per-user arrays: 10^6 trials peak near 135 MB.
MAX_TRIALS = 10**6

MC_CSV_HEADER = "P,trials,ser_user1,ser_user2,seed"


class DemodError(ValueError):
    """Noiseless observation is not an enumerated constellation value."""


@dataclass(frozen=True)
class PhyConfig:
    """Channel gains, symbol alphabet, and (for Monte Carlo) the power budget."""

    h11: Fraction
    h12: Fraction
    h21: Fraction
    h22: Fraction
    q: int = 2
    power: float | None = None

    def __post_init__(self) -> None:
        for name in ("h11", "h12", "h21", "h22"):
            gain = Fraction(getattr(self, name))
            if gain == 0:
                raise ValueError(f"gain {name} must be nonzero")
            object.__setattr__(self, name, gain)
        if not 2 <= self.q <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {self.q}")
        if self.power is not None and not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"power must be positive and finite, got {self.power}")
        # A received value is a sum of four products of two cleared gains,
        # each times a symbol below q; below this bound every value and
        # every gap between two values fits in int64.
        peak = max(abs(h) for h in _cleared(self)[1])
        if 8 * peak * peak * (self.q - 1) >= 2**63:
            raise ValueError(f"gains too large: cleared integer gains overflow int64 at q={self.q}")

    @property
    def gains(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.h11, self.h12, self.h21, self.h22)


class AlignedTriple(NamedTuple):
    """Coefficients multiplying (direct from tx1, direct from tx2, pair sum)."""

    direct_a: Fraction
    direct_b: Fraction
    pair_sum: Fraction


def _front_end(h, g1, g2, g3, g4):
    h11, h12, h21, h22 = h
    return h22 * g1 + h12 * g2, h21 * g3 + h11 * g4


def _channel(h, x1, x2):
    h11, h12, h21, h22 = h
    return h11 * x1 + h12 * x2, h21 * x1 + h22 * x2


def _aligned(h):
    # User 1 sees (g1, g3, g2+g4), user 2 sees (g2, g4, g1+g3).
    h11, h12, h21, h22 = h
    return (h11 * h22, h12 * h21, h11 * h12), (h12 * h21, h11 * h22, h21 * h22)


@lru_cache(maxsize=64)
def _cleared(cfg: PhyConfig) -> tuple[int, tuple[int, int, int, int]]:
    """D, the lcm of the gain denominators, and the integer gains D*h."""
    d = math.lcm(*(h.denominator for h in cfg.gains))
    return d, tuple(int(h * d) for h in cfg.gains)


def _received(cfg: PhyConfig, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both users' noiseless observations, times D^2, of symbol rows (frames x 4)."""
    h = _cleared(cfg)[1]
    return _channel(h, *_front_end(h, *symbols.T))


def aligned_coefficients(cfg: PhyConfig) -> tuple[AlignedTriple, AlignedTriple]:
    """Per-user coefficients of the aligned observation linear form.

    User 1's observation is c.direct_a*g1 + c.direct_b*g3 + c.pair_sum*(g2+g4);
    user 2's is the mirror on (g2, g4, g1+g3).
    """
    d, h = _cleared(cfg)
    return tuple(AlignedTriple(*(Fraction(c, d * d) for c in user)) for user in _aligned(h))


@lru_cache(maxsize=64)
def _constellation(cfg: PhyConfig, user: int) -> tuple[np.ndarray, np.ndarray]:
    """Every aligned point's integer value (times D^2), sorted, and its (a, b, s) row.

    Equal values keep the enumeration order: a, then b, then s.
    """
    _check_user(user)
    q = cfg.q
    grid = np.meshgrid(np.arange(q), np.arange(q), np.arange(2 * q - 1), indexing="ij")
    triples = np.stack([axis.ravel() for axis in grid], axis=1).astype(np.int64)
    values = triples @ np.array(_aligned(_cleared(cfg)[1])[user - 1], dtype=np.int64)
    order = np.argsort(values, kind="stable")
    values, triples = values[order], triples[order]
    values.setflags(write=False)
    triples.setflags(write=False)
    return values, triples


def enumerate_constellation(
    cfg: PhyConfig, user: int
) -> list[tuple[Fraction, tuple[int, int, int]]]:
    """All (value, (direct_a, direct_b, pair_sum)) points, sorted by value."""
    values, triples = _constellation(cfg, user)
    d2 = _cleared(cfg)[0] ** 2
    return [(Fraction(v, d2), tuple(t)) for v, t in zip(values.tolist(), triples.tolist())]


def uniqueness_certificate(cfg: PhyConfig) -> bool:
    """True iff both users' aligned forms are injective over the symbol range.

    Exhaustive over all (a, b, s) with a, b in [0, Q) and s in [0, 2Q-1).
    """
    return all(bool(np.diff(_constellation(cfg, user)[0]).all()) for user in (1, 2))


@lru_cache(maxsize=64)
def _demod_table(cfg: PhyConfig, user: int) -> tuple[np.ndarray, np.ndarray]:
    # A refusal raises, and lru_cache does not cache exceptions, so gains
    # failing the certificate are refused on every call.
    if not uniqueness_certificate(cfg):
        raise ValueError("gains fail the uniqueness certificate; demodulation is ambiguous")
    return _constellation(cfg, user)


def _nearest(values: np.ndarray, y):
    """Index of the value nearest to each y, ties going to the smaller value."""
    right = np.minimum(np.searchsorted(values, y), len(values) - 1)
    left = np.maximum(right - 1, 0)
    return np.where(y - values[left] <= values[right] - y, left, right)


def _demod(cfg: PhyConfig, user: int, y: np.ndarray, noisy: bool) -> np.ndarray:
    """(a, b, s) rows of observations y in received integer units (times D^2)."""
    values, triples = _demod_table(cfg, user)
    idx = _nearest(values, y)
    missing = np.flatnonzero(values[idx] != y)
    if missing.size and not noisy:
        bad = Fraction(y[missing[0]]) / _cleared(cfg)[0] ** 2
        raise DemodError(f"observation {bad} is not a constellation value for user {user}")
    return triples[idx]


def demodulate(cfg: PhyConfig, y, user: int, noisy: bool = False) -> tuple[int, int, int]:
    """Invert one aligned observation to (direct_a, direct_b, pair_sum).

    Noiseless mode demands an exact constellation value; noisy mode takes
    the nearest value, ties going to the smaller one.  Both are exact.
    """
    scaled = np.array([Fraction(y) * _cleared(cfg)[0] ** 2])
    return tuple(_demod(cfg, user, scaled, noisy)[0].tolist())


def e2e_run(
    s: LinearScheme, d: Demand, cfg: PhyConfig, file_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deliver the demanded files over the noiseless aligned channel.

    One frame carries one bit of each message; integer pair sums reduce
    mod 2 to the XOR stream, after which the scheme's witness decoders
    apply.  Returns the decoded file bits for both users.
    """
    if cfg.q != 2:
        raise ValueError("end-to-end runs use one bit per frame and need q == 2")
    witnesses = decoders(s, d)
    for user, decoder in zip((1, 2), witnesses):
        if decoder is None:
            raise ValueError(f"scheme is not decodable for demand {d}, user {user}")
    x = _as_bits(file_bits, "file bits")
    symbols = np.column_stack(message_bits(s, d, x)).astype(np.int64)
    outputs = []
    for user, y, witness in zip((1, 2), _received(cfg, symbols), witnesses):
        triples = _demod(cfg, user, y, noisy=False)
        blocks = (triples % 2).astype(np.uint8).T
        outputs.append(witness.apply(observed_bits(s, user, blocks, x)))
    return outputs[0], outputs[1]


def _transmit_peak(cfg: PhyConfig) -> int:
    """Largest transmit magnitude over the alphabet, times D^2 like received values."""
    d, h = _cleared(cfg)
    a, b = np.meshgrid(np.arange(cfg.q), np.arange(cfg.q))
    return d * int(max(np.abs(x).max() for x in _front_end(h, a, b, a, b)))


def power_for_min_gap(cfg: PhyConfig, sigmas: float) -> float:
    """Power that puts the smallest received constellation gap at sigmas * noise."""
    if not uniqueness_certificate(cfg):
        raise ValueError("gains fail the uniqueness certificate")
    gap = min(int(np.diff(_constellation(cfg, user)[0]).min()) for user in (1, 2))
    return (sigmas * NOISE_SIGMA * _transmit_peak(cfg) / gap) ** 2


@dataclass(frozen=True)
class MonteCarloResult:
    power: float
    trials: int
    ser_user1: float
    ser_user2: float
    seed: int

    def csv_row(self) -> str:
        return (
            f"{self.power:g},{self.trials},"
            f"{self.ser_user1:.6f},{self.ser_user2:.6f},{self.seed}"
        )


def monte_carlo(cfg: PhyConfig, trials: int, seed: int) -> MonteCarloResult:
    """Symbol error rate per user under unit-variance Gaussian noise.

    Uniform symbols, transmit values scaled to the power budget, nearest
    constellation value decoding.  A frame counts as an error for a user
    when any component of its demodulated triple is wrong.  Deterministic
    given the seed.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    if cfg.power is None:
        raise ValueError("config has no power budget set")
    tables = [_demod_table(cfg, user)[0] for user in (1, 2)]
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, cfg.q, size=(trials, 4))
    # The largest transmit point sits on the power budget (the average
    # power constraint follows a fortiori): noise deviation in integer units.
    noise = NOISE_SIGMA * _transmit_peak(cfg) / float(cfg.power) ** 0.5
    rates = []
    for values, y in zip(tables, _received(cfg, symbols)):
        # Certified values are distinct, so a wrong index is a wrong triple.
        errors = _nearest(values, y + noise * rng.standard_normal(trials)) != _nearest(values, y)
        rates.append(float(np.mean(errors)))
    return MonteCarloResult(
        power=float(cfg.power),
        trials=trials,
        ser_user1=rates[0],
        ser_user2=rates[1],
        seed=seed,
    )
