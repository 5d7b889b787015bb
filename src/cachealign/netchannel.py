"""Noiseless network-layer channel with interacting bit pipes.

Two transmitters send four equal-length messages; each user observes the
two messages addressed to it directly plus the XOR of the other two.
User 1 sees (v1, v3, v2 XOR v4), user 2 sees (v2, v4, v1 XOR v3).  All
functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Demand",
    "MessageQuad",
    "ReceiverObservation",
    "observe",
    "transmit",
]

FILES = ("A", "B")


class Demand(Enum):
    """Ordered pair of file requests, one per user.  Exactly four values exist."""

    AA = ("A", "A")
    AB = ("A", "B")
    BA = ("B", "A")
    BB = ("B", "B")

    @property
    def w1(self) -> str:
        return self.value[0]

    @property
    def w2(self) -> str:
        return self.value[1]

    def requested(self, user: int) -> str:
        """File id requested by the given user (1 or 2)."""
        _check_user(user)
        return self.w1 if user == 1 else self.w2

    @classmethod
    def from_string(cls, text: str) -> "Demand":
        try:
            return cls[text]
        except KeyError:
            raise ValueError(
                f"unknown demand {text!r}: expected one of AA, AB, BA, BB"
            ) from None

    def __str__(self) -> str:
        return self.name


def _check_user(user: int) -> None:
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")


def _as_bits(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d bit vector")
    if arr.size and int(arr.max()) > 1:
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr


@dataclass(frozen=True, eq=False)
class MessageQuad:
    """The four transmitted messages; all vectors share one length."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray

    def __post_init__(self) -> None:
        for name in ("v1", "v2", "v3", "v4"):
            object.__setattr__(self, name, _as_bits(getattr(self, name), name))
        lengths = {self.v1.size, self.v2.size, self.v3.size, self.v4.size}
        if len(lengths) != 1:
            raise ValueError(f"message lengths differ: {sorted(lengths)}")

    @property
    def length(self) -> int:
        return self.v1.size

    def __xor__(self, other: "MessageQuad") -> "MessageQuad":
        return MessageQuad(
            self.v1 ^ other.v1, self.v2 ^ other.v2, self.v3 ^ other.v3, self.v4 ^ other.v4
        )


@dataclass(frozen=True, eq=False)
class ReceiverObservation:
    """One user's channel output: two direct streams and the XOR stream."""

    direct_a: np.ndarray  # message from transmitter 1 addressed to this user
    direct_b: np.ndarray  # message from transmitter 2 addressed to this user
    xor_sum: np.ndarray  # XOR of the two messages addressed to the other user

    def __post_init__(self) -> None:
        for name in ("direct_a", "direct_b", "xor_sum"):
            object.__setattr__(self, name, _as_bits(getattr(self, name), name))
        if not (self.direct_a.size == self.direct_b.size == self.xor_sum.size):
            raise ValueError("observation vectors must share the message length")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.direct_a, self.direct_b, self.xor_sum])

    def __xor__(self, other: "ReceiverObservation") -> "ReceiverObservation":
        return ReceiverObservation(
            self.direct_a ^ other.direct_a,
            self.direct_b ^ other.direct_b,
            self.xor_sum ^ other.xor_sum,
        )


def observe(user: int, v1, v2, v3, v4):
    """The three blocks one user observes: (v1, v3, v2 ^ v4) or (v2, v4, v1 ^ v3).

    The routing is linear over GF(2), so the same map serves message bit
    vectors and row blocks of linear maps (BitMatrix), one row per bit.
    """
    _check_user(user)
    if user == 1:
        return v1, v3, v2 ^ v4
    return v2, v4, v1 ^ v3


def transmit(m: MessageQuad) -> tuple[ReceiverObservation, ReceiverObservation]:
    """Deterministic, noiseless channel map from messages to both observations."""
    return tuple(
        ReceiverObservation(*observe(user, m.v1, m.v2, m.v3, m.v4)) for user in (1, 2)
    )
