"""Decodability certification and bit-level decoding for linear schemes.

A user decodes its requested file iff every row of that file's selector
lies in the row space of the matrix stacking the user's cache placement
on top of its three channel observation blocks.  Certification is exact
(zero-error linear recoverability); the witness is the decoder matrix
produced by elimination.

A memory share is certified, decoded and delivered by its parts.
memory_share puts k1 scaled copies of s1 and k2 of s2 on disjoint file
parts, with block-diagonal delivery maps, so each user's system is, up
to a row and column order, k1 copies of s1's system beside k2 copies of
s2's.  A case then passes exactly when it passes on s1 and on s2, the
parts it misses are the copies of the parts they miss, and its decoder
is the block sum of their decoders.  The copy rule composes, so a
nested share is read as its flat leaves, each with a copy count
(schemes._leaves).

Each flat scheme keeps the systems solved for it, by routing, demand
and user.  verify_all, decodable, decode_bits and phy.e2e_run of a
share read its leaves' kept solutions, so a share runs no elimination
of its own, and the corners that every built scheme shares are solved
once per routing.

Bits are delivered by strides.  A leaf with n_l parts and k copies owns
n_l*k consecutive parts of each file, copy j of part i at i*k + j, so
as an (n_l, k) block its bits are one column per copy: one product with
each of the leaf's maps and its kept decoder serves all k copies.  A
flat scheme is its own leaf with k = 1.  So message_bits, decode_bits
and e2e_run of a share build neither its flat form nor a block-sum
decoder; only decodable returns one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf2 import BitMatrix, Solution, _as_bits, mat_mul, solve_each, vstack
from .netchannel import Demand, _check_user, observe
from .schemes import DeliveryQuad, LinearScheme, _copy_bases, _leaves, _scaled, file_selector

__all__ = [
    "CaseResult",
    "VerificationReport",
    "decodable",
    "decode_bits",
    "message_bits",
    "observation_matrix",
    "verify_all",
]


def _delivery(s: LinearScheme, d: Demand) -> DeliveryQuad:
    """The scheme's delivery maps for demand *d*; a ValueError unless *d* is a Demand."""
    if not isinstance(d, Demand):
        raise ValueError(f"demand must be one of AA, AB, BA, BB, got {d!r}")
    return s.delivery[d]


def _messages(s: LinearScheme, d: Demand) -> tuple[BitMatrix, BitMatrix, BitMatrix, BitMatrix]:
    # The four transmitted messages as linear maps of the 2n file bits.
    quad = _delivery(s, d)
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


def _solved(leaves, keys) -> list[list[Solution]]:
    """For each (demand, user) pair of *keys*, the solutions of _leaves' *leaves*, in order.

    A scheme keeps the systems solved for it, by routing, demand and
    user, where the routing is the observe function that _system reads.
    The pairs not kept yet are solved together in one solve_each, each
    leaf once however often it comes.  Two threads can at worst solve the
    same key twice and store equal solutions, so no lock is taken.
    """
    for _, user in keys:  # before the store is read: True would find user 1's entries
        _check_user(user)
    routing = observe
    todo = [
        (leaf, d, user)
        for leaf in {id(leaf): leaf for leaf, _ in leaves}.values()
        for d, user in keys
        if (routing, d, user) not in leaf._solutions
    ]

    def systems():
        # Lazily, so that the solver builds each system only when it takes
        # it; the cases of one leaf and demand share its messages.
        for (_, d), cases in itertools.groupby(todo, key=lambda case: (id(case[0]), case[1])):
            cases = list(cases)
            messages = _messages(cases[0][0], d)
            for leaf, _, user in cases:
                yield _system(leaf, d, user, messages)

    for (leaf, d, user), solution in zip(todo, solve_each(systems())):
        leaf._solutions[routing, d, user] = solution
    return [[leaf._solutions[routing, d, user] for leaf, _ in leaves] for d, user in keys]


def _decoder(s: LinearScheme, leaves, solutions: list[Solution]) -> BitMatrix | None:
    """The decoder of *s* for one case, the block sum of its leaves' decoders, or None.

    Built as a share's flat form is built, in one _scaled pass: a leaf's
    decoder is copied onto its parts and the copies of its cache rows and
    then its three message blocks, canonical with no sort.
    """
    if any(solution.decoder is None for solution in solutions):
        return None
    if s.parts is None:
        return solutions[0].decoder
    cache, message = _copy_bases(leaves, "cache_rows"), _copy_bases(leaves, "message_rows")
    pieces = []
    for (_, k), c, m, solution in zip(leaves, cache, message, solutions):
        obs = np.concatenate([c] + [s.cache_rows + b * s.message_rows + m for b in range(3)])
        pieces.append((solution.decoder, k, obs))
    return _scaled([(s.cache_rows + 3 * s.message_rows, pieces)])[0]


def decodable(s: LinearScheme, d: Demand, user: int) -> BitMatrix | None:
    """Decoder matrix witnessing recoverability of the demanded file, else None.

    A memory share's decoder is the block sum of its leaves' decoders.
    """
    leaves = _leaves(s)
    return _decoder(s, leaves, _solved(leaves, [(d, user)])[0])


def verify_all(s: LinearScheme) -> VerificationReport:
    """Check all 4 demands x 2 users, solved as one system; each case's verdict is its own.

    Row i of a requested file's selector picks part i + 1 of the file, so
    the failing rows of a case name the parts its user cannot recover.
    A memory share solves the systems of the flat schemes it shares, and
    its failing rows are the copies of theirs.
    """
    keys = [(d, user) for d in Demand for user in (1, 2)]
    leaves = _leaves(s)
    bases = _copy_bases(leaves)
    cases = []
    for (d, user), ours in zip(keys, _solved(leaves, keys)):
        # Leaves come in the order of their parts, and a leaf's rows in the
        # order of its copies' parts, so the failing parts come sorted.
        names = tuple(
            f"{d.requested(user)}{i + 1}"
            for (_, k), base, solution in zip(leaves, bases, ours)
            if solution.failed.size
            for i in (base[solution.failed, None] + np.arange(k)).ravel().tolist()
        )
        cases.append(CaseResult(d, user, names))
    return VerificationReport(memory=s.memory, load=s.load, cases=tuple(cases))


def _file_bits(s: LinearScheme, file_bits: np.ndarray) -> np.ndarray:
    x = _as_bits(file_bits, "file bits")
    if x.shape != (2 * s.n,):
        raise ValueError(f"file bits must have length {2 * s.n}, got shape {x.shape}")
    return x


def _strided(leaves, x: np.ndarray) -> list[np.ndarray]:
    """Each leaf's file bits, as a (2 n_l, k) block: column j holds copy j.

    By the copy rule, a leaf with n_l parts and k copies owns the n_l*k
    parts from its start on of each file, copy j of part i at i*k + j.
    """
    files, blocks, start = x.reshape(2, -1), [], 0
    for leaf, k in leaves:
        blocks.append(files[:, start : start + leaf.n * k].reshape(2 * leaf.n, k))
        start += leaf.n * k
    return blocks


def message_bits(
    s: LinearScheme, d: Demand, file_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Realize the four transmitted messages (v1, v2, v3, v4) for concrete file bits.

    Each leaf's maps act on all its copies at once, and the messages'
    rows are its leaves' rows, copied by the same rule as their parts.
    """
    leaves = _leaves(s)
    sent = []
    for (leaf, _), bits in zip(leaves, _strided(leaves, _file_bits(s, file_bits))):
        quad = _delivery(leaf, d)
        y1, y2 = leaf.u1.apply(bits), leaf.u2.apply(bits)
        sent.append((quad.d1.apply(y1), quad.d2.apply(y1), quad.d3.apply(y2), quad.d4.apply(y2)))
    return tuple(np.concatenate([leaf[i].ravel() for leaf in sent]) for i in range(4))


def _deliver(s: LinearScheme, d: Demand, file_bits: np.ndarray, pipes, users) -> list[np.ndarray]:
    """The file bits that each of *users* decodes when the messages reach it through *pipes*.

    pipes(user, v1, v2, v3, v4) gives the three blocks of bits the user
    observes.  The users' systems are solved together.  Each leaf's
    witness decoder then acts on its cache bits stacked on its rows of the
    three blocks, all its copies at once, and gives its parts of the
    requested file.  Raises ValueError for the first user that cannot
    decode.
    """
    leaves = _leaves(s)
    solved = _solved(leaves, [(d, user) for user in users])
    for user, ours in zip(users, solved):
        if any(solution.decoder is None for solution in ours):
            raise ValueError(f"scheme is not decodable for demand {d}, user {user}")
    x = _file_bits(s, file_bits)
    sent, blocks = message_bits(s, d, x), _strided(leaves, x)
    decoded = []
    for user, ours in zip(users, solved):
        observed, parts, start = pipes(user, *sent), [], 0
        for (leaf, k), bits, solution in zip(leaves, blocks, ours):
            rows = leaf.message_rows
            seen = [block[start : start + rows * k].reshape(rows, k) for block in observed]
            cache = (leaf.z1 if user == 1 else leaf.z2).apply(bits)
            parts.append(solution.decoder.apply(np.concatenate([cache, *seen])).ravel())
            start += rows * k
        decoded.append(np.concatenate(parts))
    return decoded


def decode_bits(
    s: LinearScheme, d: Demand, user: int, file_bits: np.ndarray
) -> np.ndarray:
    """Simulate placement, delivery, and transmission, then apply the witness decoder.

    Raises ValueError when the scheme is not decodable for this case.
    """
    return _deliver(s, d, file_bits, observe, (user,))[0]
