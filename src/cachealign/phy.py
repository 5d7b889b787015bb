"""Desk-scale physical layer: lattice symbols, fixed linear front-end, alignment.

Each transmitter mixes its two symbol streams with the *other* link's
gains, so that at each receiver the two interfering streams land on a
common coefficient and arrive as their integer sum:

    x1 = h22*g1 + h12*g2        y1 = h11*h22*g1 + h12*h21*g3 + h11*h12*(g2+g4)
    x2 = h21*g3 + h11*g4        y2 = h12*h21*g2 + h11*h22*g4 + h21*h22*(g1+g3)

Gains are exact rationals and a uniqueness certificate replaces the
usual "generic gains" assumption: demodulation is offered only when the
aligned linear form is injective over the full symbol range.  All
noiseless arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .netchannel import Demand, ReceiverObservation
from .schemes import LinearScheme
from .verifier import decoders, message_bits, observed_bits

__all__ = [
    "DemodError",
    "MonteCarloResult",
    "PhyConfig",
    "PhyFrame",
    "MC_CSV_HEADER",
    "NOISE_SIGMA",
    "aligned_coefficients",
    "channel_out",
    "demodulate",
    "e2e_run",
    "enumerate_constellation",
    "front_end",
    "monte_carlo",
    "power_for_min_gap",
    "send_frame",
    "uniqueness_certificate",
]

NOISE_SIGMA = 1.0  # unit-variance additive Gaussian noise

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
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        if self.power is not None and not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"power must be positive and finite, got {self.power}")

    @property
    def gains(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.h11, self.h12, self.h21, self.h22)


class PhyFrame(NamedTuple):
    """One transmission of four symbols and the two receiver observations."""

    g1: int
    g2: int
    g3: int
    g4: int
    y1: Fraction | float
    y2: Fraction | float


class AlignedTriple(NamedTuple):
    """Coefficients multiplying (direct from tx1, direct from tx2, pair sum)."""

    direct_a: Fraction
    direct_b: Fraction
    pair_sum: Fraction


def _check_symbols(cfg: PhyConfig, symbols: tuple[int, ...]) -> None:
    for g in symbols:
        if not 0 <= g < cfg.q:
            raise ValueError(f"symbol {g} outside alphabet [0, {cfg.q})")


def front_end(cfg: PhyConfig, g1: int, g2: int, g3: int, g4: int) -> tuple[Fraction, Fraction]:
    """Fixed linear mixing at the transmitters, exact."""
    _check_symbols(cfg, (g1, g2, g3, g4))
    x1 = cfg.h22 * g1 + cfg.h12 * g2
    x2 = cfg.h21 * g3 + cfg.h11 * g4
    return x1, x2


def channel_out(cfg, x1, x2, rng: np.random.Generator | None = None):
    """Channel observations; exact when rng is None, else with N(0,1) noise."""
    y1 = cfg.h11 * x1 + cfg.h12 * x2
    y2 = cfg.h21 * x1 + cfg.h22 * x2
    if rng is None:
        return y1, y2
    return (
        float(y1) + NOISE_SIGMA * rng.standard_normal(),
        float(y2) + NOISE_SIGMA * rng.standard_normal(),
    )


def send_frame(
    cfg: PhyConfig, g1: int, g2: int, g3: int, g4: int, rng: np.random.Generator | None = None
) -> PhyFrame:
    y1, y2 = channel_out(cfg, *front_end(cfg, g1, g2, g3, g4), rng=rng)
    return PhyFrame(g1, g2, g3, g4, y1, y2)


def aligned_coefficients(cfg: PhyConfig) -> tuple[AlignedTriple, AlignedTriple]:
    """Per-user coefficients of the aligned observation linear form.

    User 1's observation is c.direct_a*g1 + c.direct_b*g3 + c.pair_sum*(g2+g4);
    user 2's is the mirror on (g2, g4, g1+g3).
    """
    user1 = AlignedTriple(cfg.h11 * cfg.h22, cfg.h12 * cfg.h21, cfg.h11 * cfg.h12)
    user2 = AlignedTriple(cfg.h12 * cfg.h21, cfg.h11 * cfg.h22, cfg.h21 * cfg.h22)
    return user1, user2


@lru_cache(maxsize=64)
def _constellation(cfg: PhyConfig, user: int) -> tuple[tuple[Fraction, tuple[int, int, int]], ...]:
    coeff = aligned_coefficients(cfg)[user - 1]
    entries = []
    for a in range(cfg.q):
        for b in range(cfg.q):
            for s in range(2 * cfg.q - 1):
                value = coeff.direct_a * a + coeff.direct_b * b + coeff.pair_sum * s
                entries.append((value, (a, b, s)))
    entries.sort(key=lambda item: item[0])
    return tuple(entries)


def enumerate_constellation(
    cfg: PhyConfig, user: int
) -> list[tuple[Fraction, tuple[int, int, int]]]:
    """All (value, (direct_a, direct_b, pair_sum)) points, sorted by value."""
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")
    return list(_constellation(cfg, user))


def uniqueness_certificate(cfg: PhyConfig) -> bool:
    """True iff both users' aligned forms are injective over the symbol range.

    Exhaustive over all (a, b, s) with a, b in [0, Q) and s in [0, 2Q-1).
    """
    for user in (1, 2):
        entries = _constellation(cfg, user)
        if len({value for value, _ in entries}) != len(entries):
            return False
    return True


@lru_cache(maxsize=64)
def _demod_table(cfg: PhyConfig, user: int) -> Mapping[Fraction, tuple[int, int, int]]:
    # A refusal raises, and lru_cache does not cache exceptions, so gains
    # failing the certificate are refused on every call.
    if not uniqueness_certificate(cfg):
        raise ValueError("gains fail the uniqueness certificate; demodulation is ambiguous")
    return MappingProxyType(dict(_constellation(cfg, user)))


def demodulate(cfg: PhyConfig, y, user: int, noisy: bool = False) -> tuple[int, int, int]:
    """Invert one aligned observation to (direct_a, direct_b, pair_sum).

    Noiseless mode demands an exact constellation value; noisy mode takes
    the nearest value, ties going to the smaller one.
    """
    table = _demod_table(cfg, user)
    if not noisy:
        triple = table.get(Fraction(y))
        if triple is None:
            raise DemodError(f"observation {y} is not a constellation value for user {user}")
        return triple
    entries = _constellation(cfg, user)
    values = np.array([float(v) for v, _ in entries])
    idx = int(np.searchsorted(values, float(y)))
    left = max(idx - 1, 0)
    right = min(idx, len(values) - 1)
    if abs(float(y) - values[left]) <= abs(values[right] - float(y)):
        return entries[left][1]
    return entries[right][1]


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
    x = np.asarray(file_bits, dtype=np.uint8)
    quad = message_bits(s, d, x)
    demod = {1: [], 2: []}
    for t in range(quad.length):
        frame = send_frame(
            cfg, int(quad.v1[t]), int(quad.v2[t]), int(quad.v3[t]), int(quad.v4[t])
        )
        demod[1].append(demodulate(cfg, frame.y1, 1))
        demod[2].append(demodulate(cfg, frame.y2, 2))
    outputs = []
    for user in (1, 2):
        triples = np.array(demod[user], dtype=np.int64).reshape(-1, 3)
        obs = ReceiverObservation(
            direct_a=triples[:, 0].astype(np.uint8),
            direct_b=triples[:, 1].astype(np.uint8),
            xor_sum=(triples[:, 2] % 2).astype(np.uint8),
        )
        outputs.append(witnesses[user - 1].apply(observed_bits(s, user, obs, x)))
    return outputs[0], outputs[1]


def _transmit_peak(cfg: PhyConfig) -> Fraction:
    return max(
        abs(value)
        for a in range(cfg.q)
        for b in range(cfg.q)
        for value in (cfg.h22 * a + cfg.h12 * b, cfg.h21 * a + cfg.h11 * b)
    )


def _transmit_scale(cfg: PhyConfig, power: float) -> float:
    # Common factor putting the largest transmit constellation point on
    # the power budget; the average power constraint follows a fortiori.
    return float(power) ** 0.5 / float(_transmit_peak(cfg))


def min_constellation_gap(cfg: PhyConfig) -> Fraction:
    """Smallest spacing between distinct aligned values over both users."""
    gaps = []
    for user in (1, 2):
        values = [v for v, _ in _constellation(cfg, user)]
        gaps.extend(b - a for a, b in zip(values, values[1:]) if b != a)
    if not gaps:
        raise ValueError("degenerate constellation")
    return min(gaps)


def power_for_min_gap(cfg: PhyConfig, sigmas: float) -> float:
    """Power that puts the smallest received constellation gap at sigmas * noise."""
    if not uniqueness_certificate(cfg):
        raise ValueError("gains fail the uniqueness certificate")
    gap = min_constellation_gap(cfg)
    return (sigmas * NOISE_SIGMA * float(_transmit_peak(cfg)) / float(gap)) ** 2


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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if cfg.power is None:
        raise ValueError("config has no power budget set")
    if not uniqueness_certificate(cfg):
        raise ValueError("gains fail the uniqueness certificate")
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, cfg.q, size=(trials, 4))
    scale = _transmit_scale(cfg, cfg.power)

    h11, h12, h21, h22 = (float(h) for h in cfg.gains)
    x1 = scale * (h22 * symbols[:, 0] + h12 * symbols[:, 1])
    x2 = scale * (h21 * symbols[:, 2] + h11 * symbols[:, 3])
    y1 = h11 * x1 + h12 * x2 + NOISE_SIGMA * rng.standard_normal(trials)
    y2 = h21 * x1 + h22 * x2 + NOISE_SIGMA * rng.standard_normal(trials)

    true_triples = {
        1: np.column_stack([symbols[:, 0], symbols[:, 2], symbols[:, 1] + symbols[:, 3]]),
        2: np.column_stack([symbols[:, 1], symbols[:, 3], symbols[:, 0] + symbols[:, 2]]),
    }
    rates = {}
    for user, y in ((1, y1), (2, y2)):
        entries = _constellation(cfg, user)
        values = scale * np.array([float(v) for v, _ in entries])
        triples = np.array([t for _, t in entries], dtype=np.int64)
        idx = np.searchsorted(values, y)
        left = np.clip(idx - 1, 0, len(values) - 1)
        right = np.clip(idx, 0, len(values) - 1)
        # Ties go to the smaller constellation value (the left candidate).
        take_left = np.abs(y - values[left]) <= np.abs(values[right] - y)
        chosen = np.where(take_left, left, right)
        decoded = triples[chosen]
        errors = np.any(decoded != true_triples[user], axis=1)
        rates[user] = float(np.mean(errors))
    return MonteCarloResult(
        power=float(cfg.power),
        trials=trials,
        ser_user1=rates[1],
        ser_user2=rates[2],
        seed=seed,
    )
