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
gains D*h (D the lcm of the denominators), which PhyConfig computes once,
so received values are integers over D^2.  Fractions appear only at the
boundary: the input of demodulate and the values aligned_coefficients
and enumerate_constellation render.  Floats appear only in Monte Carlo
noise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .gf2 import _is_integer, _rational
from .netchannel import Demand, _check_user
from .schemes import LinearScheme
from .verifier import _deliver

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
# per user: about 5*10^5 at q = 64, held as one sorted int64 value and one
# int64 point index each.  `phy cert --q 64` takes about 0.3 to 0.45 s and
# peaks near 54 MB RSS, interpreter start included, against 77 to 97 MB
# when every point was also stored as an (a, b, s) row (medians of 5
# fresh processes on a shared 2-core VM, Python 3.11, numpy 2.4).
MAX_ALPHABET = 64

# Most Monte Carlo trials in one run.  A run holds a trials x 4 int64
# symbol array and one user's float64 noise at a time: at 10^6 trials and
# q = 2 it takes about 0.08 s, and the process peaks near 82 MB RSS
# (shared 2-core VM, Python 3.11, numpy 2.4).
MAX_TRIALS = 10**6

# Trials per block of Monte Carlo decisions.  A block's float64
# temporaries stay in cache and are reused from block to block; whole
# arrays of 2*10^5 trials took about 1.5 times as long.
_MC_BLOCK = 2**14

MC_CSV_HEADER = "P,trials,ser_user1,ser_user2,seed"


def _check_seed(seed) -> int:
    """*seed* as a Python int, refusing anything but a non-negative integer."""
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _positive_float(value, what: str) -> float:
    """*value* as a float, refusing anything but a positive finite real number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int or Fraction beyond the float range
            number = math.inf
        if math.isfinite(number) and number > 0:
            return number
    raise ValueError(f"{what} must be positive and finite, got {value!r}")


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
    # D, the lcm of the gain denominators, and the integer gains D*h: the
    # only gains that the lattice below runs on.
    cleared: tuple[int, tuple[int, int, int, int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("h11", "h12", "h21", "h22"):
            gain = _rational(getattr(self, name), f"gain {name}")
            if gain == 0:
                raise ValueError(f"gain {name} must be nonzero")
            object.__setattr__(self, name, gain)
        if not _is_integer(self.q):
            raise ValueError(f"alphabet size must be an integer, got {self.q!r}")
        # A numpy integer q would make the int64 bound below wrap around.
        object.__setattr__(self, "q", int(self.q))
        if not 2 <= self.q <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}], got {self.q}")
        if self.power is not None:
            object.__setattr__(self, "power", _positive_float(self.power, "power"))
        d = math.lcm(*(g.denominator for g in self.gains))
        h = tuple(g.numerator * (d // g.denominator) for g in self.gains)
        object.__setattr__(self, "cleared", (d, h))
        # A received value is a sum of four products of two cleared gains,
        # each times a symbol below q; below this bound every value and
        # every gap between two values fits in int64.
        peak = max(map(abs, h))
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


def _channel(h, x1, x2, user):
    h11, h12, h21, h22 = h
    return h11 * x1 + h12 * x2 if user == 1 else h21 * x1 + h22 * x2


def _aligned(h):
    # User 1 sees (g1, g3, g2+g4), user 2 sees (g2, g4, g1+g3).
    h11, h12, h21, h22 = h
    return (h11 * h22, h12 * h21, h11 * h12), (h12 * h21, h11 * h22, h21 * h22)


def _received(cfg: PhyConfig, symbols: np.ndarray, user: int) -> np.ndarray:
    """The user's noiseless observations, times D^2, of symbol rows (frames x 4)."""
    h = cfg.cleared[1]
    return _channel(h, *_front_end(h, *symbols.T), user)


def aligned_coefficients(cfg: PhyConfig) -> tuple[AlignedTriple, AlignedTriple]:
    """Per-user coefficients of the aligned observation linear form.

    User 1's observation is c.direct_a*g1 + c.direct_b*g3 + c.pair_sum*(g2+g4);
    user 2's is the mirror on (g2, g4, g1+g3).
    """
    d, h = cfg.cleared
    return tuple(AlignedTriple(*(Fraction(c, d * d) for c in user)) for user in _aligned(h))


class _Constellation:
    """Both users' aligned points for one cleared integer gain set and alphabet.

    A point is its index: (a, b, s) with a, b in [0, q) and s in [0, 2q-1)
    is point i = (a*q + b)*(2q-1) + s, and np.unravel_index reads the
    triple back; the index fixes the triple, so one table of triples or
    of their bits serves both users.  Per user, values holds every
    point's integer value (in units of 1/D^2) in ascending order, equal
    values in index order, and points the index of the point at each
    position.  gap is the smallest difference between neighbouring
    values over both users, so the uniqueness certificate holds exactly
    when gap > 0.  The table is made from D*h alone, so gain sets that
    clear to the same integers share one, and each renders it with its
    own D.
    """

    def __init__(self, h: tuple[int, int, int, int], q: int) -> None:
        self.shape = (q, q, 2 * q - 1)
        users = []
        for form in _aligned(h):
            a, b, s = (c * np.arange(n, dtype=np.int64) for c, n in zip(form, self.shape))
            by_index = (a[:, None, None] + b[:, None] + s).ravel()
            order = np.argsort(by_index, kind="stable")
            values = by_index[order]
            for array in (values, order):
                array.setflags(write=False)
            users.append((values, order))
        self.values, self.points = zip(*users)
        self.gap = min(int(np.diff(values).min()) for values in self.values)

    def for_user(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """The user's sorted values and the index of the point at each position."""
        _check_user(user)
        return self.values[user - 1], self.points[user - 1]

    def triples(self, points: np.ndarray) -> np.ndarray:
        """The (a, b, s) columns of an array of point indices."""
        return np.array(np.unravel_index(points, self.shape))

    @cached_property
    def parity(self) -> np.ndarray:
        """Each point's (a, b, s) mod 2, as uint8 rows: column i belongs to point i."""
        table = (self.triples(np.arange(math.prod(self.shape))) % 2).astype(np.uint8)
        table.setflags(write=False)
        return table

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Per user, each point's decision cell: float64 rows (lo, v, hi).

        Column i belongs to point i, so the columns undo the sort.  v is
        the point's value and lo and hi are the adjacent sorted values,
        with -inf and +inf past the two ends.
        """
        tables = []
        for values, points in zip(self.values, self.points):
            padded = np.concatenate(([-np.inf], values.astype(np.float64), [np.inf]))
            cells = np.empty((3, len(values)))
            cells[:, points] = padded[:-2], padded[1:-1], padded[2:]
            cells.setflags(write=False)
            tables.append(cells)
        return tables[0], tables[1]


# The one cache of this module, keyed on the cleared integer gains and the
# alphabet, never on the power budget, which changes neither: a power sweep
# builds each table once.  A certified q = 64 entry holds about 41.6 MB once
# Monte Carlo has built its decision cells, 40 bytes a point, so three
# entries stay under 125 MB.
@lru_cache(maxsize=3)
def _constellation(h: tuple[int, int, int, int], q: int) -> _Constellation:
    """The integer gain set's constellation, the least recently used of three evicted first."""
    return _Constellation(h, q)


def _certified(cfg: PhyConfig) -> _Constellation:
    """cfg's constellation; gains that fail the uniqueness certificate are refused.

    The constellation is cached and the refusal is not, so failing gains
    are refused on every call.
    """
    table = _constellation(cfg.cleared[1], cfg.q)
    if table.gap == 0:
        raise ValueError("gains fail the uniqueness certificate; demodulation is ambiguous")
    return table


def enumerate_constellation(
    cfg: PhyConfig, user: int
) -> list[tuple[Fraction, tuple[int, int, int]]]:
    """All (value, (direct_a, direct_b, pair_sum)) points, sorted by value.

    Equal values keep the enumeration order: a, then b, then s.
    """
    table = _constellation(cfg.cleared[1], cfg.q)
    values, points = table.for_user(user)
    d2 = cfg.cleared[0] ** 2
    triples = zip(*table.triples(points).tolist())
    return [(Fraction(v, d2), t) for v, t in zip(values.tolist(), triples)]


def uniqueness_certificate(cfg: PhyConfig) -> bool:
    """True iff both users' aligned forms are injective over the symbol range.

    Exhaustive over all (a, b, s) with a, b in [0, Q) and s in [0, 2Q-1).
    """
    return _constellation(cfg.cleared[1], cfg.q).gap > 0


def _nearest(values: np.ndarray, y, key=None):
    """Index of the value nearest to each y, ties going to the smaller value.

    The values are searched for *key*, y itself unless given.  For y an
    object array of Fractions, key is each one's ceiling as an int64,
    clipped to the int64 range where all values lie: the values are
    integers, so the first one at or above the ceiling and the one
    before it bracket y, and the comparison between them is exact.
    """
    right = np.searchsorted(values, y if key is None else key)
    right = np.minimum(right, len(values) - 1)
    left = np.maximum(right - 1, 0)
    return np.where(y - values[left] <= values[right] - y, left, right)


def _in_cell(lo, v, hi, y):
    """Where y demodulates to the point of value v, whose sorted neighbours are lo and hi.

    The two comparisons _nearest makes between the same float64 values:
    y lies above the midpoint with lo and not above the midpoint with hi.
    """
    return (y - lo > v - y) & (y - v <= hi - y)


def _demod(cfg: PhyConfig, user: int, y: np.ndarray, noisy: bool, key=None) -> np.ndarray:
    """Point indices of exact observations y in received integer units (times D^2).

    y is an int64 array, or an object array of Fractions searched for
    *key* (see _nearest).  Noiseless mode demands exact values.
    """
    values, points = _certified(cfg).for_user(user)
    idx = _nearest(values, y, key)
    missing = np.flatnonzero(values[idx] != y)
    if missing.size and not noisy:
        bad = Fraction(y[missing[0]]) / cfg.cleared[0] ** 2
        raise DemodError(f"observation {bad} is not a constellation value for user {user}")
    return points[idx]


def demodulate(cfg: PhyConfig, y, user: int, noisy: bool = False) -> tuple[int, int, int]:
    """Invert one aligned observation to (direct_a, direct_b, pair_sum).

    Noiseless mode demands an exact constellation value; noisy mode takes
    the nearest value, ties going to the smaller one.  Both are exact.
    """
    y = _rational(y, "observation", "{what} {x!r} is not a finite number")
    scaled = y * cfg.cleared[0] ** 2
    # A search of the Fraction would turn every int64 value into a Python
    # object; its ceiling is searched for among the int64 values instead.
    bound = np.iinfo(np.int64)
    key = min(max(math.ceil(scaled), bound.min), bound.max)
    point = _demod(cfg, user, np.array([scaled], dtype=object), noisy, np.array([key]))
    return tuple(_certified(cfg).triples(point)[:, 0].tolist())


def e2e_run(
    s: LinearScheme, d: Demand, cfg: PhyConfig, file_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deliver the demanded files over the noiseless aligned channel.

    The aligned lattice serves as the bit pipes of the delivery pipeline
    that decode_bits also runs: one frame carries one bit of each
    message, and integer pair sums reduce mod 2 to the XOR stream, after
    which the scheme's witness decoders apply.  Returns the decoded file
    bits for both users.
    """
    if cfg.q != 2:
        raise ValueError("end-to-end runs use one bit per frame and need q == 2")

    def lattice(user, *messages):
        y = _received(cfg, np.array(messages, dtype=np.int64).T, user)
        return _certified(cfg).parity[:, _demod(cfg, user, y, noisy=False)]

    return tuple(_deliver(s, d, file_bits, lattice, (1, 2)))


def _transmit_peak(cfg: PhyConfig) -> int:
    """Largest transmit magnitude over the alphabet, times D^2 like received values."""
    d, h = cfg.cleared
    a, b = np.meshgrid(np.arange(cfg.q), np.arange(cfg.q))
    return d * int(max(np.abs(x).max() for x in _front_end(h, a, b, a, b)))


def power_for_min_gap(cfg: PhyConfig, sigmas: float) -> float:
    """Power that puts the smallest received constellation gap at sigmas * noise."""
    sigmas = _positive_float(sigmas, "sigmas")
    return (sigmas * NOISE_SIGMA * _transmit_peak(cfg) / _certified(cfg).gap) ** 2


@dataclass(frozen=True)
class MonteCarloResult:
    power: float
    trials: int
    ser_user1: float
    ser_user2: float
    seed: int

    def csv_row(self) -> str:
        # Six significant digits when they read back as the power, else the
        # shortest decimal that does.
        power = f"{self.power:g}"
        if float(power) != self.power:
            power = repr(self.power).removesuffix(".0")
        return (
            f"{power},{self.trials},"
            f"{self.ser_user1:.6f},{self.ser_user2:.6f},{self.seed}"
        )


def monte_carlo(cfg: PhyConfig, trials: int, seed: int) -> MonteCarloResult:
    """Symbol error rate per user under unit-variance Gaussian noise.

    Uniform symbols, transmit values scaled to the power budget, nearest
    constellation value decoding.  A frame counts as an error for a user
    when any component of its demodulated triple is wrong.  Deterministic
    given the seed: symbols are drawn first, then user 1's noise, then
    user 2's.

    No search runs.  The sent point (a, b, s) is known, and its received
    value v is that point's aligned value, so each trial is decided by
    the point's decision cell: with lo and hi the neighbouring sorted
    values and y = v + noise, the frame is decoded right exactly when

        y - lo > v - y   and   y - v <= hi - y.

    Nearest-point decoding of y brackets it between adjacent sorted
    values and makes one such comparison with the same float64 values.
    Rounding is monotone and keeps the sign of a difference, so y
    demodulates to the sent point exactly when both comparisons hold, a
    tie going to the smaller value; neighbours that round to one float64
    split as the search splits them.  The error rates are therefore those
    of demodulating every noisy observation, bit for bit.
    """
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    # A numpy integer would make the rates numpy floats, which json refuses.
    trials = int(trials)
    seed = _check_seed(seed)
    if cfg.power is None:
        raise ValueError("config has no power budget set")
    q = cfg.q
    tables = _certified(cfg).cells
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, q, size=(trials, 4))
    # User 1 sees (g1, g3, g2 + g4) and user 2 sees (g2, g4, g1 + g3), so the
    # column (a*q + b)*(2q-1) + s of each user's point is a linear form in g.
    span = 2 * q - 1
    forms = np.array([(q * span, 1, span, 1), (1, q * span, 1, span)])
    # The largest transmit point sits on the power budget (the average
    # power constraint follows a fortiori): noise deviation in integer units.
    noise = NOISE_SIGMA * _transmit_peak(cfg) / cfg.power**0.5
    rates = []
    for cells, form in zip(tables, forms):
        z = rng.standard_normal(trials)
        right = 0
        for start in range(0, trials, _MC_BLOCK):
            block = slice(start, start + _MC_BLOCK)
            lo, v, hi = cells.take(symbols[block] @ form, axis=1)
            right += int(np.count_nonzero(_in_cell(lo, v, hi, v + noise * z[block])))
        # One division of two exact integers: the mean of the error flags.
        rates.append((trials - right) / trials)
    return MonteCarloResult(
        power=cfg.power,
        trials=trials,
        ser_user1=rates[0],
        ser_user2=rates[1],
        seed=seed,
    )
