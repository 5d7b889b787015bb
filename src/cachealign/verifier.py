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
once per routing.  The systems not kept yet are solved in batches of
about verifier._BATCH_ENTRIES entries, each assembled in one pass of
index arithmetic (_assemble), and gf2 eliminates each distinct pattern
once, so a flat scheme's copies of its parts cost little more than one.

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
from functools import partial
from fractions import Fraction

import numpy as np

from .gf2 import (
    BitMatrix,
    Solution,
    _as_bits,
    _gather,
    _ragged_arange,
    _solve_stacked,
    mat_mul,
    vstack,
)
from .netchannel import Demand, _check_user, observe
from .schemes import DeliveryQuad, LinearScheme, _copy_bases, _leaves, _scaled

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


def _assemble(routing, kept: dict, cases) -> tuple[BitMatrix, BitMatrix, list[tuple[int, int]]]:
    """The systems of *cases*, (scheme, demand, user) triples, as one block-diagonal system.

    Returns g, e and each case's (g rows, e rows).  A case's g is its
    user's cache placement on top of the blocks routing(user, v1, v2,
    v3, v4) that it observes, and its e selects the file its user
    requests; its columns are its scheme's 2n file bits, after those of
    the cases before it.  A scheme's cases must be adjacent.  Per
    scheme, one product per U side gives the messages of all its
    demands here, demand after demand, and one routing call per user
    observes them all: the routing is row-wise linear, so each observed
    block holds the demands' rows in that order.  The rows of g are
    gathered from these blocks, and e is index arithmetic.  *kept* holds
    the last scheme's messages, so that the next batch of the same
    scheme and demands, such as the other user's, takes them again.
    """
    mats, starts, lengths, shapes, wants_b = [], [], [], [], []
    pool = 0
    for _, run in itertools.groupby(cases, key=lambda case: id(case[0])):
        run = list(run)
        s, m = run[0][0], run[0][0].message_rows
        # Each demand's first row in the messages.
        at = {d: i * m for i, d in enumerate(dict.fromkeys(d for _, d, _ in run))}
        key = (id(s), *at)
        if key not in kept:
            quads = [_delivery(s, d) for d in at]
            half = len(quads) * m
            d12 = mat_mul(vstack([q.d1 for q in quads] + [q.d2 for q in quads]), s.u1)
            d34 = mat_mul(vstack([q.d3 for q in quads] + [q.d4 for q in quads]), s.u2)
            kept.clear()
            kept[key] = [p._row_range(lo, lo + half) for p in (d12, d34) for lo in (0, half)]
        messages = kept[key]
        # Where each user's cache rows and observed blocks start among the rows of mats.
        firsts = {}
        for user in dict.fromkeys(user for _, _, user in run):
            blocks = [s.z1 if user == 1 else s.z2, *routing(user, *messages)]
            firsts[user] = list(itertools.accumulate((b.rows for b in blocks), initial=pool))
            pool = firsts[user].pop()
            mats += blocks
        for _, d, user in run:
            cache, *observed = firsts[user]
            starts += [cache, *(first + at[d] for first in observed)]
            lengths += [s.cache_rows, *[m] * len(observed)]
            shapes.append((s.cache_rows + m * len(observed), s.n))
            wants_b.append((d.w1 if user == 1 else d.w2) == "B")
    heights, n = np.array(shapes, dtype=np.intp).reshape(-1, 2).T
    shifts = (2 * n).cumsum() - 2 * n
    cols = int(2 * n.sum())
    rows = _ragged_arange(np.array(starts, dtype=np.intp), np.array(lengths, dtype=np.intp))
    g = _gather(mats, rows, shifts.repeat(heights), cols)
    e_cols = _ragged_arange(shifts + n * np.array(wants_b), n)
    e = BitMatrix._from_csr(np.arange(e_cols.size + 1), e_cols, cols)
    return g, e, shapes


def _entries(case) -> int:
    """About the entries of a case's system, g and e, from its scheme's sizes alone.

    A message row is taken to hold a mean row of its U block, which is
    what it holds when its map's rows pick single rows of U, as built
    schemes' do, and about what it holds when they pick many.  A user
    observes three blocks made of the four messages, with at most their
    entries.
    """
    s, _, user = case
    u1, u2, cache = s.u1, s.u2, s.z1 if user == 1 else s.z2
    weight = u1.indices.size / (u1.rows or 1) + u2.indices.size / (u2.rows or 1)
    return cache.indices.size + int(2 * s.message_rows * weight) + s.n


# Most entries of g and e, by _entries' count, that one solve takes: small
# cases are solved together and share gf2's lockstep passes, and a larger
# case alone, so that its per-entry index arrays are not several cases'.
_BATCH_ENTRIES = 2**16


def _runs(cases: list) -> list[list]:
    """Consecutive runs of *cases* with at most _BATCH_ENTRIES entries together, or one larger case."""
    runs, size = [], 0
    for case in cases:
        count = _entries(case)
        if not runs or size + count > _BATCH_ENTRIES:
            runs.append([])
            size = 0
        runs[-1].append(case)
        size += count
    return runs


def observation_matrix(s: LinearScheme, d: Demand, user: int) -> BitMatrix:
    """Everything the user learns, as linear functionals of the 2n file bits.

    Rows: the receiver cache placement, then the three observation blocks
    (direct from transmitter 1, direct from transmitter 2, XOR).
    """
    return _assemble(observe, {}, [(s, d, user)])[0]


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
    user, where the routing is the observe function read at call time.
    The pairs not kept yet are solved together, each leaf once however
    often it comes, in _runs' batches of about verifier._BATCH_ENTRIES
    entries by _entries' count, each assembled in one _assemble pass.
    Two threads can at worst solve the same key twice and store equal
    solutions, so no lock is taken.
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
    assemble = partial(_assemble, routing, {})
    for batch in _runs(todo):
        for (leaf, d, user), solution in zip(batch, _solve_stacked(assemble, batch)):
            leaf._solutions[routing, d, user] = solution
    return [[leaf._solutions[routing, d, user] for leaf, _ in leaves] for d, user in keys]


def _decoder(s: LinearScheme, leaves, solutions: list[Solution]) -> BitMatrix | None:
    """The decoder of *s* for one case, the block sum of its leaves' decoders, or None.

    Built as a share's flat form is built, in one _scaled pass: a leaf's
    decoder is copied onto its parts and the copies of its cache rows and
    then of each block it observes, canonical with no sort.  A leaf's
    decoder spans its cache rows and its message rows once per block.
    """
    if any(solution.decoder is None for solution in solutions):
        return None
    if s.parts is None:
        return solutions[0].decoder
    cache, message = _copy_bases(leaves, "cache_rows"), _copy_bases(leaves, "message_rows")
    pieces, width = [], 0
    for (leaf, k), c, m, (decoder, _) in zip(leaves, cache, message, solutions):
        blocks = (decoder.cols - leaf.cache_rows) // leaf.message_rows if leaf.message_rows else 0
        obs = np.concatenate([c] + [s.cache_rows + b * s.message_rows + m for b in range(blocks)])
        pieces.append((decoder, k, obs))
        width += k * decoder.cols
    return _scaled([(width, pieces)])[0]


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


def _block_map(leaf: LinearScheme, d: Demand) -> BitMatrix:
    """Demand d's delivery maps as one map over U1 stacked on U2.

    Its blocks are [[D1, 0], [D2, 0], [0, D3], [0, D4]].
    """
    quad, r1, m = _delivery(leaf, d), leaf.u1.rows, leaf.message_rows
    shift = np.repeat(np.array([0, r1], dtype=np.intp), 2 * m)
    return _gather(list(quad), np.arange(4 * m), shift, r1 + leaf.u2.rows)


def _sender(leaf: LinearScheme, d: Demand) -> tuple[BitMatrix, BitMatrix]:
    """A flat scheme's maps from its file bits to its messages for demand *d*: U and D.

    U is U1 stacked on U2 and D the demand's _block_map over it, so that
    D·(U·x) stacks v1, v2, v3 and v4.  The leaf keeps them in its store,
    U built once and D once per demand; the product D·U is not formed,
    since on dense schemes it fills in.  Two threads can at worst build
    a map twice and keep equal ones, so no lock is taken.
    """
    kept = leaf._maps
    # Only a Demand is looked up, so nothing else can read U as a D.
    block = kept.get(d) if isinstance(d, Demand) else None
    if block is None:
        block = kept[d] = _block_map(leaf, d)
    u = kept.get("U")
    if u is None:
        u = kept["U"] = vstack([leaf.u1, leaf.u2])
    return u, block


def message_bits(
    s: LinearScheme, d: Demand, file_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Realize the four transmitted messages (v1, v2, v3, v4) for concrete file bits.

    Each leaf's two kept maps (_sender) act on all its copies at once,
    and the messages' rows are its leaves' rows, copied by the same rule
    as their parts.
    """
    leaves = _leaves(s)
    sent = []
    for (leaf, k), bits in zip(leaves, _strided(leaves, _file_bits(s, file_bits))):
        u, block = _sender(leaf, d)
        sent.append(block._apply(u._apply(bits)).reshape(4, leaf.message_rows * k))
    return tuple(sent[0] if len(sent) == 1 else np.concatenate(sent, axis=1))


def _joined(pieces) -> np.ndarray:
    """The 1-d *pieces* end to end: the only piece itself, uncopied, or their concatenation."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _deliver(s: LinearScheme, d: Demand, file_bits: np.ndarray, pipes, users) -> list[np.ndarray]:
    """The file bits that each of *users* decodes when the messages reach it through *pipes*.

    pipes(user, v1, v2, v3, v4) gives the three blocks of bits the user
    observes, as three equal vectors or one (3, frames) array.  The users'
    systems are solved together.  Each leaf's witness decoder then acts
    on its cache bits stacked on its rows of the three blocks, all its
    copies at once, and gives its parts of the requested file.  Raises
    ValueError for the first user that cannot decode.  The file bits are
    checked, and every map then applies unchecked.
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
        observed, parts, start = np.asarray(pipes(user, *sent)), [], 0
        for (leaf, k), bits, solution in zip(leaves, blocks, ours):
            end = start + leaf.message_rows * k
            seen = observed[:, start:end].reshape(-1, k)
            cache = (leaf.z1 if user == 1 else leaf.z2)._apply(bits)
            parts.append(solution.decoder._apply(np.concatenate([cache, seen])).ravel())
            start = end
        decoded.append(_joined(parts))
    return decoded


def decode_bits(
    s: LinearScheme, d: Demand, user: int, file_bits: np.ndarray
) -> np.ndarray:
    """Simulate placement, delivery, and transmission, then apply the witness decoder.

    Raises ValueError when the scheme is not decodable for this case.
    """
    return _deliver(s, d, file_bits, observe, (user,))[0]
