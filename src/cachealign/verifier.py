"""Decodability certification and bit-level decoding for linear schemes.

A user decodes its requested file iff every row of that file's selector
lies in the row space of the matrix stacking the user's cache placement
on top of its three channel observation blocks.  Certification is exact
(zero-error linear recoverability); the witness is the decoder matrix
produced by elimination.

A memory share is certified by its parts.  memory_share puts k1 scaled
copies of s1 and k2 of s2 on disjoint file parts, with block-diagonal
delivery maps, so each user's system is, up to a row and column order,
k1 copies of s1's system beside k2 copies of s2's.  A case then passes
exactly when it passes on s1 and on s2, and the parts it misses are the
copies of the parts they miss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf2 import BitMatrix, _as_bits, mat_mul, solve_each, solve_left, vstack
from .netchannel import Demand, observe
from .schemes import LinearScheme, file_selector

__all__ = [
    "CaseResult",
    "VerificationReport",
    "decodable",
    "decode_bits",
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


def _system(s: LinearScheme, d: Demand, user: int, messages) -> tuple[BitMatrix, BitMatrix]:
    # The user's observations and the selector of the file it requests.
    cache = s.z1 if user == 1 else s.z2
    return vstack([cache, *observe(user, *messages)]), file_selector(s.n, d.requested(user))


def observation_matrix(s: LinearScheme, d: Demand, user: int) -> BitMatrix:
    """Everything the user learns, as linear functionals of the 2n file bits.

    Rows: the receiver cache placement, then the three observation blocks
    (direct from transmitter 1, direct from transmitter 2, XOR).
    """
    return _system(s, d, user, _messages(s, d))[0]


def decodable(s: LinearScheme, d: Demand, user: int) -> BitMatrix | None:
    """Decoder matrix witnessing recoverability of the demanded file, else None."""
    return solve_left(*_system(s, d, user, _messages(s, d)))


@dataclass(frozen=True)
class CaseResult:
    """One (demand, user) verdict; *missing* names the requested parts not recovered."""

    demand: Demand
    user: int
    missing: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.missing

    def line(self) -> str:
        if self.ok:
            return f"CASE {self.demand} {self.user} PASS"
        return f"CASE {self.demand} {self.user} FAIL missing {','.join(self.missing)}"


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


def _all_systems(s: LinearScheme):
    # Lazily, so that the solver builds each system only when it takes it.
    for d in Demand:
        messages = _messages(s, d)
        for user in (1, 2):
            yield _system(s, d, user, messages)


def _leaves(s: LinearScheme) -> list[tuple[LinearScheme, np.ndarray]]:
    """The flat schemes that *s* shares, each with the parts of *s* that copy its parts.

    Row i of a leaf's array lists the parts of *s* that are copies of the
    leaf's part i; a flat scheme is its own leaf.  A share's copy map,
    from its operands' parts to its own, composes with theirs.
    """
    if s.parts is None:
        return [(s, np.arange(s.n)[:, None])]
    return [
        (leaf, copies[where].reshape(leaf.n, -1))
        for sub, copies in zip((s.parts.s1, s.parts.s2), s.parts.copies())
        for leaf, where in _leaves(sub)
    ]


def verify_all(s: LinearScheme) -> VerificationReport:
    """Check all 4 demands x 2 users, solved as one system; each case's verdict is its own.

    Row i of a requested file's selector picks part i + 1 of the file, so
    the failing rows of a case name the parts its user cannot recover.
    A memory share solves the systems of the flat schemes it shares, and
    its failing rows are the copies of theirs.
    """
    keys = [(d, user) for d in Demand for user in (1, 2)]
    leaves = _leaves(s)
    solutions = solve_each(itertools.chain.from_iterable(_all_systems(leaf) for leaf, _ in leaves))
    # Leaf by leaf, each leaf's systems in the order of keys.
    per_leaf = [solutions[j : j + len(keys)] for j in range(0, len(solutions), len(keys))]
    cases = []
    for k, (d, user) in enumerate(keys):
        # Leaves come in the order of their parts, and a leaf's rows in the
        # order of its copies' parts, so the failing parts come sorted.
        failed = np.concatenate(
            [where[ours[k].failed].ravel() for (_, where), ours in zip(leaves, per_leaf)]
        )
        names = (f"{d.requested(user)}{i + 1}" for i in failed.tolist())
        cases.append(CaseResult(d, user, tuple(names)))
    return VerificationReport(memory=s.memory, load=s.load, cases=tuple(cases))


def _file_bits(s: LinearScheme, file_bits: np.ndarray) -> np.ndarray:
    x = _as_bits(file_bits, "file bits")
    if x.shape != (2 * s.n,):
        raise ValueError(f"file bits must have length {2 * s.n}, got shape {x.shape}")
    return x


def message_bits(
    s: LinearScheme, d: Demand, file_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Realize the four transmitted messages (v1, v2, v3, v4) for concrete file bits."""
    x = _file_bits(s, file_bits)
    return tuple(m.apply(x) for m in _messages(s, d))


def _deliver(s: LinearScheme, d: Demand, file_bits: np.ndarray, pipes, users) -> list[np.ndarray]:
    """The file bits that each of *users* decodes when the messages reach it through *pipes*.

    pipes(user, v1, v2, v3, v4) gives the three blocks of bits the user
    observes.  The users' systems are solved together, and each user
    applies its witness decoder to its cache bits stacked on its blocks.
    Raises ValueError for the first user that cannot decode.
    """
    messages = _messages(s, d)
    solutions = solve_each(_system(s, d, user, messages) for user in users)
    for user, solution in zip(users, solutions):
        if solution.decoder is None:
            raise ValueError(f"scheme is not decodable for demand {d}, user {user}")
    x = _file_bits(s, file_bits)
    sent = [m.apply(x) for m in messages]
    return [
        solution.decoder.apply(
            np.concatenate([(s.z1 if user == 1 else s.z2).apply(x), *pipes(user, *sent)])
        )
        for user, solution in zip(users, solutions)
    ]


def decode_bits(
    s: LinearScheme, d: Demand, user: int, file_bits: np.ndarray
) -> np.ndarray:
    """Simulate placement, delivery, and transmission, then apply the witness decoder.

    Raises ValueError when the scheme is not decodable for this case.
    """
    return _deliver(s, d, file_bits, observe, (user,))[0]
