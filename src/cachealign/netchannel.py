"""Noiseless network-layer channel with interacting bit pipes.

Two transmitters send four equal-length messages; each user observes the
two messages addressed to it directly plus the XOR of the other two.
User 1 sees (v1, v3, v2 XOR v4), user 2 sees (v2, v4, v1 XOR v3).  All
functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from enum import Enum

from .gf2 import BitMatrix, _as_bits, _is_integer

__all__ = ["Demand", "observe"]

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
    # Integers only: True and 1.0 also equal 1.
    if not _is_integer(user) or user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")


def _bits(block):
    # BitMatrix blocks are bits already; plain arrays must hold only 0 and 1.
    if isinstance(block, BitMatrix):
        return block
    return _as_bits(block, "message entries")


def observe(user: int, v1, v2, v3, v4):
    """The three blocks one user observes: (v1, v3, v2 ^ v4) or (v2, v4, v1 ^ v3).

    The routing is linear over GF(2), so the same map serves message bit
    vectors and row blocks of linear maps (BitMatrix), one row per bit.
    The four blocks must be of one kind and share one shape.
    """
    _check_user(user)
    blocks = [_bits(v) for v in (v1, v2, v3, v4)]
    if len({type(block) for block in blocks}) != 1:
        raise ValueError("messages mix BitMatrix blocks and plain arrays")
    shapes = {block.shape for block in blocks}
    if len(shapes) != 1:
        raise ValueError(f"message lengths differ: {sorted(shapes)}")
    v1, v2, v3, v4 = blocks
    if user == 1:
        return v1, v3, v2 ^ v4
    return v2, v4, v1 ^ v3
