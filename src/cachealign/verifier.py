"""Decodability certification and bit-level decoding for linear schemes.

A user decodes its requested file iff every row of that file's selector
lies in the row space of the matrix stacking the user's cache placement
on top of its three channel observation blocks.  Certification is exact
(zero-error linear recoverability); the witness is the decoder matrix
produced by elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf2 import BitMatrix, _as_bits, mat_mul, solve_left, vstack
from .netchannel import Demand, observe
from .schemes import LinearScheme, file_selector

__all__ = [
    "CaseResult",
    "VerificationReport",
    "decodable",
    "decode_bits",
    "decoders",
    "message_bits",
    "observation_matrix",
    "verify_all",
]


def _messages(s: LinearScheme, d: Demand) -> tuple[BitMatrix, BitMatrix, BitMatrix, BitMatrix]:
    # The four transmitted messages as linear maps of the 2n file bits.
    quad = s.delivery[d]
    return (
        mat_mul(quad.d1, s.u1),
        mat_mul(quad.d2, s.u1),
        mat_mul(quad.d3, s.u2),
        mat_mul(quad.d4, s.u2),
    )


def _observations(s: LinearScheme, user: int, messages) -> BitMatrix:
    cache = s.z1 if user == 1 else s.z2
    return vstack([cache, *observe(user, *messages)])


def observation_matrix(s: LinearScheme, d: Demand, user: int) -> BitMatrix:
    """Everything the user learns, as linear functionals of the 2n file bits.

    Rows: the receiver cache placement, then the three observation blocks
    (direct from transmitter 1, direct from transmitter 2, XOR).
    """
    return _observations(s, user, _messages(s, d))


def _witness(s: LinearScheme, d: Demand, user: int, messages) -> BitMatrix | None:
    target = file_selector(s.n, d.requested(user))
    return solve_left(_observations(s, user, messages), target)


def decodable(s: LinearScheme, d: Demand, user: int) -> BitMatrix | None:
    """Decoder matrix witnessing recoverability of the demanded file, else None."""
    return _witness(s, d, user, _messages(s, d))


def decoders(s: LinearScheme, d: Demand) -> tuple[BitMatrix | None, BitMatrix | None]:
    """The :func:`decodable` witnesses of users 1 and 2, sharing one set of messages."""
    messages = _messages(s, d)
    return _witness(s, d, 1, messages), _witness(s, d, 2, messages)


@dataclass(frozen=True)
class CaseResult:
    demand: Demand
    user: int
    ok: bool

    def line(self) -> str:
        return f"CASE {self.demand} {self.user} {'PASS' if self.ok else 'FAIL'}"


@dataclass(frozen=True)
class VerificationReport:
    memory: Fraction
    load: Fraction
    cases: tuple[CaseResult, ...]

    @property
    def rho(self) -> Fraction:
        return 4 * self.load

    @property
    def passed(self) -> bool:
        return all(case.ok for case in self.cases)

    def render(self) -> str:
        lines = [f"scheme M={self.memory} c={self.load} rho={self.rho}"]
        lines.extend(case.line() for case in self.cases)
        lines.append(f"OVERALL {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_all(s: LinearScheme) -> VerificationReport:
    """Check all 4 demands x 2 users; pure, order-independent per case."""
    cases = tuple(
        CaseResult(d, user, decoder is not None)
        for d in Demand
        for user, decoder in zip((1, 2), decoders(s, d))
    )
    return VerificationReport(memory=s.memory, load=s.load, cases=cases)


def message_bits(
    s: LinearScheme, d: Demand, file_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Realize the four transmitted messages (v1, v2, v3, v4) for concrete file bits."""
    x = _as_bits(file_bits, "file bits")
    if x.shape != (2 * s.n,):
        raise ValueError(f"file bits must have length {2 * s.n}, got shape {x.shape}")
    u1_bits = s.u1.apply(x)
    u2_bits = s.u2.apply(x)
    quad = s.delivery[d]
    return (
        quad.d1.apply(u1_bits),
        quad.d2.apply(u1_bits),
        quad.d3.apply(u2_bits),
        quad.d4.apply(u2_bits),
    )


def observed_bits(s: LinearScheme, user: int, blocks, file_bits: np.ndarray) -> np.ndarray:
    """Stack the user's realized cache bits on top of its three observed blocks."""
    cache = s.z1 if user == 1 else s.z2
    return np.concatenate([cache.apply(file_bits), *blocks])


def decode_bits(
    s: LinearScheme, d: Demand, user: int, file_bits: np.ndarray
) -> np.ndarray:
    """Simulate placement, delivery, and transmission, then apply the witness decoder.

    Raises ValueError when the scheme is not decodable for this case.
    """
    decoder = decodable(s, d, user)
    if decoder is None:
        raise ValueError(f"scheme is not decodable for demand {d}, user {user}")
    x = _as_bits(file_bits, "file bits")
    return decoder.apply(observed_bits(s, user, observe(user, *message_bits(s, d, x)), x))
