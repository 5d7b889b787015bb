"""Network-layer channel behavior.

The channel routing is checked against ``oracle_channel``, an independent
Kronecker-product matrix of the same map.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachealign import (
    CORNER_NAMES,
    BitMatrix,
    DeliveryQuad,
    Demand,
    LinearScheme,
    PhyConfig,
    corner_scheme,
    decodable,
    decode_bits,
    e2e_run,
    enumerate_constellation,
    file_selector,
    observation_matrix,
    observe,
    rank,
    scheme_for_memory,
    verify_all,
    vstack,
)
from cachealign.verifier import message_bits

# Selector/XOR patterns mapping stacked (v1; v2; v3; v4) to one user's
# stacked observation, one row per output block.
ORACLE_PATTERNS = {
    1: ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)),
    2: ((0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0)),
}


def oracle_channel(user: int, k: int) -> BitMatrix:
    """3k x 4k channel matrix built independently as kron(pattern, I_k)."""
    pattern = np.array(ORACLE_PATTERNS[user], dtype=np.uint8)
    return BitMatrix(np.kron(pattern, np.eye(k, dtype=np.uint8)))


def oracle_product(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) product through exact integer arithmetic, independent of gf2.mat_mul."""
    return BitMatrix((a.data.astype(np.int64) @ b.data.astype(np.int64)) % 2)


def routed_channel_matrix(user: int, k: int) -> BitMatrix:
    """The package routing applied to the four k-row blocks of I_4k."""
    eye = np.eye(4 * k, dtype=np.uint8)
    blocks = [BitMatrix(eye[i * k : (i + 1) * k]) for i in range(4)]
    return vstack(observe(user, *blocks))


def random_messages(rng: np.random.Generator, k: int) -> tuple[np.ndarray, ...]:
    return tuple(rng.integers(0, 2, size=k, dtype=np.uint8) for _ in range(4))


def observed(user: int, *messages) -> np.ndarray:
    """One user's three observed blocks of four bit vectors, stacked."""
    return np.concatenate(observe(user, *messages))


def test_demand_has_exactly_four_values():
    assert [str(d) for d in Demand] == ["AA", "AB", "BA", "BB"]
    assert Demand.from_string("BA").w1 == "B"
    assert Demand.from_string("BA").w2 == "A"
    assert Demand.AB.requested(1) == "A"
    assert Demand.AB.requested(2) == "B"
    with pytest.raises(ValueError, match="unknown demand"):
        Demand.from_string("AX")


def test_zero_messages_give_zero_observations():
    zero = np.zeros(3, dtype=np.uint8)
    for user in (1, 2):
        assert not observed(user, zero, zero, zero, zero).any()


def test_xor_stream_cancels_shared_term():
    # With v2 = b1 ^ b3 and v4 = b3, user 1's XOR stream is b1 alone.
    rng = np.random.default_rng(11)
    b1, b3 = rng.integers(0, 2, size=(2, 6), dtype=np.uint8)
    _, _, xor_sum = observe(1, rng.integers(0, 2, size=6), b1 ^ b3, rng.integers(0, 2, size=6), b3)
    assert np.array_equal(xor_sum, b1)


def test_xor_stream_strips_common_message():
    # v2 = b5 ^ s and v4 = b5 leave exactly s on user 1's XOR stream.
    rng = np.random.default_rng(12)
    b5, s = rng.integers(0, 2, size=(2, 4), dtype=np.uint8)
    _, _, xor_sum = observe(1, rng.integers(0, 2, size=4), b5 ^ s, rng.integers(0, 2, size=4), b5)
    assert np.array_equal(xor_sum, s)


def test_observation_routing():
    assert observed(1, [1], [0], [1], [1]).tolist() == [1, 1, 1]
    assert observed(2, [1], [0], [1], [1]).tolist() == [0, 1, 0]


def test_unequal_lengths_rejected():
    with pytest.raises(ValueError, match="lengths differ"):
        observe(1, [1, 0], [1], [0], [1])
    blocks = [BitMatrix.zeros(2, 3)] * 3 + [BitMatrix.zeros(2, 4)]
    with pytest.raises(ValueError, match="lengths differ"):
        observe(2, *blocks)


@pytest.mark.parametrize("bad", [[2], [-1], [0.5], [257], ["1"]])
def test_non_bit_entries_rejected(bad):
    with pytest.raises(ValueError, match="0 or 1"):
        observe(1, [1], bad, [0], [1])
    # File bits are checked where they enter, never cast.
    scheme, file_bits = corner_scheme("M13"), bad + [0] * 5
    for run in (
        lambda: message_bits(scheme, Demand.AB, file_bits),
        lambda: decode_bits(scheme, Demand.AB, 1, file_bits),
        lambda: e2e_run(scheme, Demand.AB, PhyConfig(2, 3, 5, 7), file_bits),
    ):
        with pytest.raises(ValueError, match="0 or 1"):
            run()


def test_file_bits_must_be_two_files_long():
    scheme, file_bits = corner_scheme("M13"), np.zeros(5, dtype=np.uint8)
    for run in (
        lambda: message_bits(scheme, Demand.AB, file_bits),
        lambda: decode_bits(scheme, Demand.AB, 1, file_bits),
        lambda: e2e_run(scheme, Demand.AB, PhyConfig(2, 3, 5, 7), file_bits),
    ):
        with pytest.raises(ValueError, match=r"^file bits must have length 6, got shape \(5,\)$"):
            run()


def test_mixed_block_kinds_rejected():
    bits = np.zeros((1, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="mix"):
        observe(1, BitMatrix(bits), bits, BitMatrix(bits), BitMatrix(bits))


def test_observe_is_linear():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m1 = random_messages(rng, 5)
        m2 = random_messages(rng, 5)
        for user in (1, 2):
            left = observed(user, *(a ^ b for a, b in zip(m1, m2)))
            right = observed(user, *m1) ^ observed(user, *m2)
            assert np.array_equal(left, right)


def test_channel_matrix_k1_rows():
    for channel in (routed_channel_matrix, oracle_channel):
        assert channel(1, 1).data.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]]
        assert channel(2, 1).data.tolist() == [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]]


def test_channel_matrix_agrees_with_observe_exhaustively_at_k1():
    for bits in itertools.product((0, 1), repeat=4):
        stacked_in = np.array(bits, dtype=np.uint8)
        for user in (1, 2):
            out = oracle_channel(user, 1).apply(stacked_in)
            assert np.array_equal(out, observed(user, *([b] for b in bits)))


def test_channel_matrix_agrees_with_observe_at_k2():
    rng = np.random.default_rng(17)
    for _ in range(100):
        messages = random_messages(rng, 2)
        stacked_in = np.concatenate(messages)
        for user in (1, 2):
            out = oracle_channel(user, 2).apply(stacked_in)
            assert np.array_equal(out, observed(user, *messages))


@settings(max_examples=60, deadline=None)
@given(
    user=st.sampled_from((1, 2)),
    k=st.integers(0, 6),
    width=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_routing_matches_oracle_channel(user, k, width, seed):
    # Routing row blocks equals multiplying their stack by the kron channel.
    rng = np.random.default_rng(seed)
    blocks = [BitMatrix(rng.integers(0, 2, size=(k, width), dtype=np.uint8)) for _ in range(4)]
    routed = vstack(observe(user, *blocks))
    assert routed == oracle_product(oracle_channel(user, k), vstack(blocks))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_both_users_jointly_see_everything(k):
    # Each user alone observes 3 of the 4 degrees of information;
    # together they determine all messages.
    for user in (1, 2):
        assert routed_channel_matrix(user, k) == oracle_channel(user, k)
        assert rank(routed_channel_matrix(user, k)) == 3 * k
    stacked = vstack([routed_channel_matrix(1, k), routed_channel_matrix(2, k)])
    assert stacked.shape == (6 * k, 4 * k)
    assert rank(stacked) == 4 * k


def test_bad_user_rejected():
    blocks = [BitMatrix.zeros(1, 1)] * 4
    with pytest.raises(ValueError, match="user"):
        observe(3, *blocks)


def oracle_observation_matrix(s: LinearScheme, d: Demand, user: int) -> BitMatrix:
    """Cache rows over oracle_channel(user, k) . vstack(d_i . u), all in integers."""
    quad = s.delivery[d]
    messages = [
        oracle_product(m, u).data
        for m, u in zip(quad, (s.u1, s.u1, s.u2, s.u2))
    ]
    stacked = BitMatrix(np.vstack(messages))
    received = oracle_product(oracle_channel(user, s.message_rows), stacked)
    cache = s.z1 if user == 1 else s.z2
    return BitMatrix(np.vstack([cache.data, received.data]))


@st.composite
def dense_schemes(draw, max_n: int = 5):
    """Random schemes whose delivery maps are dense bit matrices, not row selections."""
    n = draw(st.integers(1, max_n))
    cache_rows = draw(st.integers(0, 2 * n))
    k = draw(st.integers(0, n))
    # A scheme refuses message rows over an empty U block.
    rows_u1, rows_u2 = (draw(st.integers(1 if k else 0, n)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def bits(rows: int, cols: int) -> BitMatrix:
        return BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))

    return LinearScheme(
        n=n,
        memory=Fraction(cache_rows, n),
        load=Fraction(k, n),
        z1=bits(cache_rows, 2 * n),
        z2=bits(cache_rows, 2 * n),
        u1=bits(rows_u1, 2 * n),
        u2=bits(rows_u2, 2 * n),
        delivery={
            d: DeliveryQuad(bits(k, rows_u1), bits(k, rows_u1), bits(k, rows_u2), bits(k, rows_u2))
            for d in Demand
        },
    )


def assert_observations_match_oracle(scheme: LinearScheme) -> None:
    verdicts = {(case.demand, case.user): case.ok for case in verify_all(scheme).cases}
    for d in Demand:
        for user in (1, 2):
            expected = oracle_observation_matrix(scheme, d, user)
            assert observation_matrix(scheme, d, user) == expected
            # Decodable iff the demanded selector adds no rank.
            target = file_selector(scheme.n, d.requested(user))
            assert verdicts[d, user] == (rank(vstack([expected, target])) == rank(expected))


@settings(max_examples=80, deadline=None)
@given(dense_schemes())
def test_observation_matrix_matches_oracle_channel(scheme):
    assert_observations_match_oracle(scheme)


@pytest.mark.parametrize(
    "scheme",
    [corner_scheme(name) for name in CORNER_NAMES]
    + [scheme_for_memory(Fraction(*m)) for m in ((1, 7), (7, 10), (59, 60), (3, 2))],
    ids=lambda s: f"M={s.memory}",
)
def test_observation_matrix_matches_oracle_channel_on_built_schemes(scheme):
    assert_observations_match_oracle(scheme)


@pytest.mark.parametrize("user", [True, 1.0, 2.0])
def test_users_that_are_not_the_integer_1_or_2_are_refused(user):
    # Each equals 1 or 2, and hashes as it does, so a store or table keyed
    # by user would find user 1's or 2's entry.  The scheme is solved for
    # both users first, so that decodable refuses before reading its store.
    scheme = corner_scheme("M13")
    assert all(decodable(scheme, Demand.AB, u) is not None for u in (1, 2))
    zero = np.zeros(3, dtype=np.uint8)
    calls = [
        lambda: decodable(scheme, Demand.AB, user),
        lambda: observe(user, zero, zero, zero, zero),
        lambda: Demand.AB.requested(user),
        lambda: enumerate_constellation(PhyConfig(2, 3, 5, 7), user),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"user must be 1 or 2, got {user!r}")):
            call()
    # Numpy integers stay users.
    two = np.int64(2)
    assert decodable(scheme, Demand.AB, two) == decodable(scheme, Demand.AB, 2)
    messages = random_messages(np.random.default_rng(1), 3)
    assert all(map(np.array_equal, observe(two, *messages), observe(2, *messages)))
    assert Demand.AB.requested(two) == "B"
    cfg = PhyConfig(2, 3, 5, 7)
    assert enumerate_constellation(cfg, two) == enumerate_constellation(cfg, 2)
