"""Decodability certification and bit-level decoding."""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import itertools
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_oracle as oracle
import scheme_oracle
from test_netchannel import dense_schemes
from cachealign import gf2, schemes, verifier
from cachealign import (
    BitMatrix,
    Demand,
    corner_scheme,
    decodable,
    decode_bits,
    file_selector,
    mat_mul,
    memory_share,
    observation_matrix,
    rank,
    read_scheme,
    scheme_for_memory,
    solve_left,
    verify_all,
    vstack,
    write_scheme,
)
from cachealign.netchannel import observe
from cachealign.verifier import message_bits
from cachealign.phy import PhyConfig, e2e_run

F = Fraction
ALL_CASES = [(d, user) for d in Demand for user in (1, 2)]


def row(n: int, expr: str) -> np.ndarray:
    out = np.zeros(2 * n, dtype=np.uint8)
    for term in expr.split("+"):
        offset = 0 if term[0] == "A" else n
        out[offset + int(term[1:]) - 1] ^= 1
    return out


def zero_cache_variant(scheme):
    blank = BitMatrix.zeros(scheme.cache_rows, 2 * scheme.n)
    return dataclasses.replace(scheme, z1=blank, z2=blank)


def test_full_cache_scheme_observes_only_its_cache():
    scheme = corner_scheme("M2")
    for demand, user in ALL_CASES:
        obs = observation_matrix(scheme, demand, user)
        assert obs == (scheme.z1 if user == 1 else scheme.z2)
        assert rank(obs) == 2 * scheme.n


def test_observation_xor_block_cancels_to_single_part():
    scheme = corner_scheme("M13")
    obs = observation_matrix(scheme, Demand.AB, 1)
    # Rows: 1 cache row, then one row per observation block.
    assert obs.shape == (4, 6)
    assert np.array_equal(obs.data[3], row(3, "B1"))


def test_observation_xor_block_reveals_pair_combination():
    scheme = corner_scheme("M45")
    obs = observation_matrix(scheme, Demand.AA, 1)
    assert np.array_equal(obs.data[-1], row(5, "A2+A4"))


@pytest.mark.parametrize("name", ["M0", "M13", "M45", "M2"])
def test_corner_schemes_decodable_everywhere(name):
    scheme = corner_scheme(name)
    for demand, user in ALL_CASES:
        assert decodable(scheme, demand, user) is not None


@pytest.mark.parametrize("name", ["M0", "M13", "M45", "M2"])
def test_witness_soundness(name):
    scheme = corner_scheme(name)
    for demand, user in ALL_CASES:
        decoder = decodable(scheme, demand, user)
        selector = file_selector(scheme.n, demand.requested(user))
        assert mat_mul(decoder, observation_matrix(scheme, demand, user)) == selector


def test_blanked_caches_break_cache_dependent_demands():
    # Without its cache, user 1 still recovers from the all-A and all-B
    # demands (its three observations span the file), but the split
    # demands leave one part unreachable.
    crippled = zero_cache_variant(corner_scheme("M13"))
    assert decodable(crippled, Demand.AB, 1) is None
    assert decodable(crippled, Demand.BA, 1) is None
    assert decodable(crippled, Demand.AA, 1) is not None
    assert decodable(crippled, Demand.BB, 1) is not None
    assert not verify_all(crippled).passed


def test_blanked_cache_rank_drop_matches_span_oracle():
    crippled = zero_cache_variant(corner_scheme("M13"))
    obs = observation_matrix(crippled, Demand.AB, 1)
    stacked = vstack([obs, file_selector(3, "A")])
    # The demanded selector adds a dimension beyond the observations.
    assert rank(stacked) > rank(obs)


def test_verify_all_reports_metrics_and_cases():
    report = verify_all(corner_scheme("M45"))
    assert report.passed
    assert report.rho == F(4, 5)
    text = report.render()
    assert "CASE AB 1 PASS" in text
    assert text.endswith("OVERALL PASS")
    assert len(report.cases) == 8


def test_verify_all_fails_without_delivery():
    scheme = corner_scheme("M13")
    blank = BitMatrix.zeros(1, 3)
    delivery = {
        d: type(quad)(blank, blank, blank, blank) for d, quad in scheme.delivery.items()
    }
    broken = dataclasses.replace(scheme, delivery=delivery)
    report = verify_all(broken)
    assert not report.passed
    assert all(not case.ok for case in report.cases)
    assert "FAIL" in report.render()


def test_decode_bits_worked_example():
    scheme = corner_scheme("M13")
    bits = np.array([1, 0, 1, 1, 1, 0], dtype=np.uint8)  # A=101, B=110
    assert decode_bits(scheme, Demand.AB, 1, bits).tolist() == [1, 0, 1]
    assert decode_bits(scheme, Demand.AB, 2, bits).tolist() == [1, 1, 0]


def test_decode_bits_zero_files():
    scheme = corner_scheme("M45")
    zero = np.zeros(10, dtype=np.uint8)
    for demand, user in ALL_CASES:
        assert not decode_bits(scheme, demand, user, zero).any()


def test_decode_bits_random_end_to_end():
    scheme = corner_scheme("M45")
    rng = np.random.default_rng(2024)
    for _ in range(200):
        bits = rng.integers(0, 2, size=10, dtype=np.uint8)
        for demand, user in ALL_CASES:
            expected = file_selector(5, demand.requested(user)).apply(bits)
            assert np.array_equal(decode_bits(scheme, demand, user, bits), expected)


def test_decode_bits_is_selector_multiplication():
    scheme = corner_scheme("M13")
    for values in itertools.product((0, 1), repeat=6):
        bits = np.array(values, dtype=np.uint8)
        for demand, user in ALL_CASES:
            expected = file_selector(3, demand.requested(user)).apply(bits)
            assert np.array_equal(decode_bits(scheme, demand, user, bits), expected)


def test_decode_bits_requires_decodability():
    crippled = zero_cache_variant(corner_scheme("M13"))
    with pytest.raises(ValueError, match="not decodable"):
        decode_bits(crippled, Demand.AB, 1, np.zeros(6, dtype=np.uint8))


@pytest.mark.parametrize("name", ["M0", "M13", "M45"])
def test_extra_cache_rows_never_hurt(name):
    scheme = corner_scheme(name)
    rng = np.random.default_rng(31)
    extra1 = rng.integers(0, 2, size=(1, 2 * scheme.n), dtype=np.uint8)
    extra2 = rng.integers(0, 2, size=(1, 2 * scheme.n), dtype=np.uint8)
    grown = dataclasses.replace(
        scheme,
        memory=scheme.memory + F(1, scheme.n),
        z1=vstack([scheme.z1, BitMatrix(extra1)]),
        z2=vstack([scheme.z2, BitMatrix(extra2)]),
    )
    for demand, user in ALL_CASES:
        assert decodable(grown, demand, user) is not None


# Budget for the traced peak allocation of building and certifying the
# n = 4093 scheme.  Sparse rows peak under 4 MB; dense blocks took about
# 450 MB.
SCALING_WALL_BUDGET = 24 * 2**20


def test_scaling_wall_certifies_within_memory_budget():
    tracemalloc.start()
    try:
        scheme = scheme_for_memory(F(1, 4093))
        report = verify_all(scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scheme.n == 4093
    assert report.passed and len(report.cases) == 8
    assert peak < SCALING_WALL_BUDGET, f"peak {peak / 2**20:.1f} MB"


def test_scaling_wall_certifies_its_flat_copy_within_memory_budget():
    # The flat path at the cap: a scheme read from a file has no parts, so
    # verify_all eliminates its n-part systems.
    tracemalloc.start()
    try:
        flat = read_scheme(write_scheme(scheme_for_memory(F(1, 4093))))
        report = verify_all(flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flat.n == 4093 and flat.parts is None
    assert report.passed and len(report.cases) == 8
    assert peak < SCALING_WALL_BUDGET, f"peak {peak / 2**20:.1f} MB"


def test_certification_imports_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import cachealign\n"
        "report = cachealign.verify_all(cachealign.scheme_for_memory(Fraction(1, 7)))\n"
        "assert report.passed\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_corners_keep_their_solutions_for_interacting_pipes():
    # Runs before the test below, which certifies the same corner objects
    # with other pipes: the solutions kept here must not answer for those.
    for name in ("M13", "M45"):
        scheme = corner_scheme(name)
        assert verify_all(scheme).passed
        assert {(observe, d, user) for d, user in ALL_CASES} <= scheme._solutions.keys()


def test_fail_lines_name_the_parts_the_xor_block_carried(monkeypatch):
    # Independent bit pipes: without the XOR block each user sees only its
    # two direct messages.  The parts a case then misses are those outside
    # the span of its cache and direct blocks, found here by the dense
    # reference; every one of them came through the XOR block.
    carried = {}
    for name in ("M13", "M45"):
        scheme = corner_scheme(name)
        for demand, user in ALL_CASES:
            direct = observation_matrix(scheme, demand, user).data[: -scheme.message_rows]
            selector = file_selector(scheme.n, demand.requested(user)).data
            carried[name, demand, user] = tuple(
                f"{demand.requested(user)}{i + 1}"
                for i, row in enumerate(selector)
                if oracle.rank(np.vstack([direct, row[None]])) > oracle.rank(direct)
            )
    monkeypatch.setattr(verifier, "observe", lambda user, *messages: observe(user, *messages)[:2])
    for name in ("M13", "M45"):
        report = verify_all(corner_scheme(name))
        assert not report.passed
        for case in report.cases:
            missing = carried[name, case.demand, case.user]
            assert missing and case.missing == missing
            assert case.line() == f"CASE {case.demand} {case.user} FAIL missing {','.join(missing)}"
    assert "CASE AB 1 FAIL missing A1" in verify_all(corner_scheme("M13")).render()
    assert verify_all(corner_scheme("M0")).passed


# Built schemes at four granularities, one memory value per segment of the
# curve, and the sha256 of their dense text (every block spelled dense,
# as write_scheme spelled it before term rows) for the smaller two
# granularities, recorded before elimination moved to word rows.
BUILT = {
    F(93, 557): "1dcf7ba8ad3064a0616bea5ca235fc97840b08599e07cf9ad4e6d7a3e2a7bf50",
    F(314, 557): "56fd46c27c84a89fd7336534e306094910d5f27f9cd540b2e214f01dd5fc7507",
    F(778, 557): "9fb4de8d36b9904229e958bbb0a04ad96a06a083d58cb5f84a41ef5f4b09ddce",
    F(96, 571): "adb78abaaea645a948162ca0ed46dac530e8c98c4280d6065844281288b80e78",
    F(649, 1142): "a34a8c8c50bf73deeec7543a46f603b431fda6d05a84107d36ebaf63ed0809b2",
    F(797, 571): "2727f3963b1b9b87ed40eeab398853b8b62af2603455f3536d7173898602d8c5",
    F(355, 2127): None,
    F(1199, 2127): None,
    F(994, 709): None,
    F(683, 4093): None,
    F(2321, 4093): None,
    F(5732, 4093): None,
}


@pytest.mark.parametrize("memory", list(BUILT))
def test_built_schemes_certify_with_witnesses(memory):
    scheme = scheme_for_memory(memory)
    assert scheme.n in (557, 1142, 2127, 4093) and scheme.parts is not None
    report = verify_all(scheme)
    assert report.passed and [case.line() for case in report.cases] == [
        f"CASE {d} {user} PASS" for d, user in ALL_CASES
    ]
    systems = [
        (observation_matrix(scheme, d, user), file_selector(scheme.n, d.requested(user)))
        for d, user in ALL_CASES
    ]
    rng = np.random.default_rng(scheme.n)
    bits = rng.integers(0, 2, size=2 * scheme.n, dtype=np.uint8)
    for (d, user), (g, e) in zip(ALL_CASES, systems):
        assert mat_mul(solve_left(g, e), g) == e
        assert np.array_equal(decode_bits(scheme, d, user, bits), e.apply(bits))
    dense = scheme_oracle.write_dense(scheme)
    if BUILT[memory] is not None:
        assert hashlib.sha256(dense.encode()).hexdigest() == BUILT[memory]
    assert read_scheme(dense) == scheme
    del dense
    flat = read_scheme(write_scheme(scheme))
    assert flat == scheme and flat.parts is None
    # By parts and flat, the reports agree field for field.
    assert verify_all(flat) == report


# One memory value from each band of the benchmark's certify workload.
CERTIFY_BANDS = [F(141, 569), F(87, 577), F(53, 563), F(480, 719), F(404, 701), F(326, 719)]


@pytest.mark.parametrize("memory", CERTIFY_BANDS)
def test_certify_bands_agree_by_parts_and_flat(memory):
    scheme = scheme_for_memory(memory)
    assert 560 <= scheme.n <= 725 and scheme.parts is not None
    flat = read_scheme(write_scheme(scheme))
    assert flat.parts is None
    report = verify_all(scheme)
    assert report.passed and verify_all(flat) == report


def test_zeroed_deliveries_of_a_share_are_flat_and_fail():
    # The benchmark's negative control: replace gives a flat scheme, so its
    # parts cannot vouch for it.
    shared = scheme_for_memory(F(141, 569))
    zeroed = dataclasses.replace(
        shared,
        delivery={
            d: type(quad)(*(BitMatrix.zeros(*mat.shape) for mat in quad))
            for d, quad in shared.delivery.items()
        },
    )
    assert shared.parts is not None and zeroed.parts is None
    report = verify_all(zeroed)
    assert not report.passed and not any(case.ok for case in report.cases)
    assert all(decodable(zeroed, d, user) is None for d, user in ALL_CASES)


@st.composite
def shares(draw):
    """A memory share of two random dense schemes at a random weight, sometimes shared again."""

    def weight(most: int) -> Fraction:
        q = draw(st.integers(2, most))
        return F(draw(st.integers(1, q - 1)), q)

    shared = memory_share(draw(dense_schemes(max_n=4)), draw(dense_schemes(max_n=4)), weight(5))
    if draw(st.booleans()):
        other = draw(dense_schemes(max_n=3))
        pair = (shared, other) if draw(st.booleans()) else (other, shared)
        shared = memory_share(*pair, weight(3))
    return shared


@settings(max_examples=60, deadline=None)
@given(shares())
def test_shares_certify_by_parts_as_their_flat_copies(shared):
    s1, k1, s2, k2 = shared.parts
    mats = [shared.z1, shared.z2, shared.u1, shared.u2]
    mats += [mat for d in Demand for mat in shared.delivery[d]]
    assert mats == scheme_oracle.shared_dense(s1, k1, s2, k2)
    flat = read_scheme(write_scheme(shared))
    assert flat == shared and flat.parts is None
    # Failing cases included: their missing parts must agree name for name.
    assert verify_all(shared) == verify_all(flat)


def flat_copy(scheme):
    """The scheme read back from its file: equal rows, no parts, an empty store."""
    flat = read_scheme(write_scheme(scheme))
    assert flat == scheme and flat.parts is None and not flat._solutions
    return flat


def assert_decodes_as_its_flat_copy(shared, flat) -> None:
    bits = np.random.default_rng(shared.n).integers(0, 2, size=2 * shared.n, dtype=np.uint8)
    for d, user in ALL_CASES:
        decoder = decodable(shared, d, user)
        assert (decoder is None) == (decodable(flat, d, user) is None)
        if decoder is None:
            for scheme in (shared, flat):
                with pytest.raises(ValueError, match="not decodable"):
                    decode_bits(scheme, d, user, bits)
            continue
        # The share's witness may differ from the flat one, but it is exact.
        selector = file_selector(shared.n, d.requested(user))
        assert mat_mul(decoder, observation_matrix(shared, d, user)) == selector
        assert np.array_equal(decode_bits(shared, d, user, bits), decode_bits(flat, d, user, bits))


@settings(max_examples=60, deadline=None)
@given(shares())
def test_shares_decode_by_parts_as_their_flat_copies(shared):
    assert_decodes_as_its_flat_copy(shared, flat_copy(shared))


# Shares with an empty row block: M0 has no cache rows and M2 no message
# rows, and each is shared once flat and once inside a nested share.
EMPTY_BLOCK_SHARES = {
    "M0 and M13": lambda: scheme_for_memory(F(1, 7)),
    "M45 and M2": lambda: scheme_for_memory(F(9, 7)),
    "nested over M0": lambda: memory_share(
        scheme_for_memory(F(1, 5)), corner_scheme("M13"), F(1, 2)
    ),
    "nested over M2": lambda: memory_share(
        corner_scheme("M45"), scheme_for_memory(F(3, 2)), F(2, 3)
    ),
}


@pytest.mark.parametrize("name", list(EMPTY_BLOCK_SHARES))
def test_shares_with_an_empty_row_block_decode_and_deliver(name):
    shared = EMPTY_BLOCK_SHARES[name]()
    flat = flat_copy(shared)
    assert verify_all(shared).passed
    assert_decodes_as_its_flat_copy(shared, flat)
    bits = np.random.default_rng(7).integers(0, 2, size=2 * shared.n, dtype=np.uint8)
    for d in Demand:
        delivered = e2e_run(shared, d, PhyConfig(2, 3, 5, 7), bits)
        assert all(map(np.array_equal, delivered, e2e_run(flat, d, PhyConfig(2, 3, 5, 7), bits)))
        for user, got in zip((1, 2), delivered):
            assert np.array_equal(got, file_selector(shared.n, d.requested(user)).apply(bits))


@pytest.mark.parametrize("memory", list(BUILT))
def test_built_schemes_deliver_as_their_flat_copies(memory):
    shared = scheme_for_memory(memory)
    flat = flat_copy(shared)
    bits = np.random.default_rng(shared.n).integers(0, 2, size=2 * shared.n, dtype=np.uint8)
    cfg = PhyConfig(2, 3, 5, 7)
    for d in Demand:
        by_parts, by_rows = e2e_run(shared, d, cfg, bits), e2e_run(flat, d, cfg, bits)
        assert all(map(np.array_equal, by_parts, by_rows))


@pytest.fixture
def eliminations(monkeypatch):
    """The row count of every matrix that gf2 eliminates while the test runs."""
    rows = []

    class Counted(gf2._Reduced):
        def __init__(self, g):
            rows.append(g.rows)
            super().__init__(g)

    monkeypatch.setattr(gf2, "_Reduced", Counted)
    return rows


def test_shares_of_solved_corners_run_no_elimination(eliminations, monkeypatch):
    verify_all(scheme_for_memory(F(1, 7)))
    eliminations.clear()
    # A second share of the same corners, M0 and M13, by every entry point.
    shared = scheme_for_memory(F(2, 7))
    assert shared.parts.s1 is corner_scheme("M0") and shared.parts.s2 is corner_scheme("M13")
    assert verify_all(shared).passed
    assert decodable(shared, Demand.AB, 1) is not None
    decode_bits(shared, Demand.BA, 2, np.zeros(2 * shared.n, dtype=np.uint8))
    e2e_run(shared, Demand.BB, PhyConfig(2, 3, 5, 7), np.zeros(2 * shared.n, dtype=np.uint8))
    assert eliminations == []
    # Other pipes solve the corners again, once: their 16 systems in one
    # elimination, 8 of M13 with 1 + 3 rows and 8 of M0 with 0 + 3.
    monkeypatch.setattr(verifier, "observe", lambda user, *messages: observe(user, *messages))
    assert verify_all(shared).passed and verify_all(shared).passed
    assert eliminations == [8 * 4 + 8 * 3]


def test_flat_schemes_solve_only_the_cases_asked_for(eliminations):
    flat = flat_copy(scheme_for_memory(F(1, 7)))
    rows = flat.cache_rows + 3 * flat.message_rows
    e2e_run(flat, Demand.AB, PhyConfig(2, 3, 5, 7), np.zeros(2 * flat.n, dtype=np.uint8))
    assert eliminations == [2 * rows]
    # verify_all solves the six cases not kept yet, decode_bits then none.
    assert verify_all(flat).passed
    decode_bits(flat, Demand.AB, 1, np.zeros(2 * flat.n, dtype=np.uint8))
    assert eliminations == [2 * rows, 6 * rows]


def test_kept_solutions_are_not_compared_copied_or_pickled():
    shared = scheme_for_memory(F(2, 7))
    flat = flat_copy(shared)
    verify_all(flat)
    assert len(flat._solutions) == 8 and flat == read_scheme(write_scheme(flat))
    for other in (dataclasses.replace(flat), copy.copy(flat), pickle.loads(pickle.dumps(flat))):
        assert other == flat and not other._solutions and hash(other) == hash(flat)
    assert "_solutions" not in repr(flat)


def test_threads_sharing_leaves_agree():
    # Four threads certify and decode shares of two fresh flat schemes at
    # once, switching often: a lost store only costs a second solve.
    s1, s2 = flat_copy(corner_scheme("M13")), flat_copy(corner_scheme("M45"))
    memories = [F(1, 2), F(2, 3), F(3, 5), F(7, 10)]
    shares_ = [memory_share(s1, s2, (F(4, 5) - m) / (F(4, 5) - F(1, 3))) for m in memories]
    results, errors = {}, []

    def work(k):
        try:
            shared = shares_[k]
            bits = np.ones(2 * shared.n, dtype=np.uint8)
            results[k] = (verify_all(shared), decode_bits(shared, Demand.AB, 2, bits))
        except Exception as exc:  # reported below, on the test's own thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(shares_))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for k, shared in enumerate(shares_):
        report, decoded = results[k]
        assert report.passed and report == verify_all(flat_copy(shared))
        assert np.array_equal(decoded, np.ones(shared.n, dtype=np.uint8))


@pytest.mark.parametrize("demand", ["AA", ("A", "A"), None])
def test_demands_that_are_not_a_demand_are_refused(demand):
    # Refused by a flat scheme and by a share, both with every case solved.
    refusal = re.escape(f"demand must be one of AA, AB, BA, BB, got {demand!r}")
    shared = scheme_for_memory(F(1, 7))
    for scheme in (shared, flat_copy(shared)):
        assert verify_all(scheme).passed
        bits = np.zeros(2 * scheme.n, dtype=np.uint8)
        calls = [
            lambda: decodable(scheme, demand, 1),
            lambda: decode_bits(scheme, demand, 1, bits),
            lambda: message_bits(scheme, demand, bits),
            lambda: observation_matrix(scheme, demand, 1),
            lambda: e2e_run(scheme, demand, PhyConfig(2, 3, 5, 7), bits),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=refusal):
                call()


# Shares whose leaves repeat or nest deeper than the shares() strategy draws.
DEEP_SHARES = {
    "n = 1001, M13 twice": lambda: memory_share(
        scheme_for_memory(F(1, 11)), scheme_for_memory(F(1, 2)), F(1, 13)
    ),
    "three levels": lambda: memory_share(
        memory_share(corner_scheme("M45"), EMPTY_BLOCK_SHARES["nested over M0"](), F(1, 3)),
        scheme_for_memory(F(3, 2)),
        F(2, 5),
    ),
}


@pytest.mark.parametrize("name", list(DEEP_SHARES))
def test_deep_and_repeated_leaves_decode_and_deliver_as_their_flat_copies(name):
    shared = DEEP_SHARES[name]()
    leaves = schemes._leaves(shared)
    if shared.n == 1001:
        m0, m13, m45 = map(corner_scheme, ("M0", "M13", "M45"))
        assert leaves == [(m0, 28), (m13, 7), (m13, 198), (m45, 66)]
        assert leaves[1][0] is leaves[2][0]
    else:
        assert shared.parts.s1.parts.s2.parts is not None
    assert sum(leaf.n * k for leaf, k in leaves) == shared.n
    flat = flat_copy(shared)
    assert verify_all(shared) == verify_all(flat)
    assert_decodes_as_its_flat_copy(shared, flat)
    bits = np.random.default_rng(11).integers(0, 2, size=2 * shared.n, dtype=np.uint8)
    cfg = PhyConfig(2, 3, 5, 7)
    for d in Demand:
        by_parts, by_rows = e2e_run(shared, d, cfg, bits), e2e_run(flat, d, cfg, bits)
        assert all(map(np.array_equal, by_parts, by_rows))


def assert_decoders_are_canonical(shared) -> None:
    # Sorted columns in every row, as from_entries gives them.
    for d, user in ALL_CASES:
        decoder = decodable(shared, d, user)
        if decoder is not None:
            assert BitMatrix.from_entries(*decoder.nonzero(), decoder.shape) == decoder


@pytest.mark.parametrize(
    "make",
    [*DEEP_SHARES.values(), *EMPTY_BLOCK_SHARES.values()]
    + [functools.partial(scheme_for_memory, memory) for memory in BUILT],
)
def test_share_decoders_are_canonical(make):
    shared = make()
    assert shared.parts is not None
    assert_decoders_are_canonical(shared)


@settings(max_examples=40, deadline=None)
@given(shares())
def test_decoders_of_drawn_shares_are_canonical(shared):
    assert_decoders_are_canonical(shared)


def outcome(call):
    """What a call gives: its arrays, or the ValueError it raises."""
    try:
        out = call()
    except ValueError as exc:
        return "ValueError", str(exc)
    arrays = out if isinstance(out, (tuple, list)) else [out]
    return "ok", [np.asarray(v).tolist() for v in arrays]


def share_outcomes(scheme, bits) -> list:
    """message_bits, decode_bits and e2e_run (gains 2,3,5,7) of *scheme* for all four demands."""
    cfg = PhyConfig(2, 3, 5, 7)
    out = []
    for d in Demand:
        out.append(outcome(lambda: message_bits(scheme, d, bits)))
        out += [outcome(lambda: decode_bits(scheme, d, user, bits)) for user in (1, 2)]
        out.append(outcome(lambda: e2e_run(scheme, d, cfg, bits)))
    return out


def has_flat_form(scheme) -> bool:
    return any(name in vars(scheme) for name in schemes._FLAT)


@settings(max_examples=60, deadline=None)
@given(shares(), st.integers(0, 2**32 - 1))
def test_shares_deliver_by_strides_as_their_flat_copies(shared, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=2 * shared.n, dtype=np.uint8)
    by_parts = share_outcomes(shared, bits)
    assert not has_flat_form(shared)
    # Failing shares included: they must raise the same ValueError.
    assert by_parts == share_outcomes(flat_copy(shared), bits)


@pytest.fixture
def scaled_calls(monkeypatch):
    """The block sums schemes._scaled builds while the test runs, under both of its names."""
    calls = []
    scaled = schemes._scaled

    def counted(blocks):
        calls.append(len(blocks))
        return scaled(blocks)

    monkeypatch.setattr(schemes, "_scaled", counted)
    monkeypatch.setattr(verifier, "_scaled", counted)
    return calls


@pytest.mark.parametrize(
    "make",
    [*DEEP_SHARES.values(), *EMPTY_BLOCK_SHARES.values(), lambda: scheme_for_memory(F(1, 4093))],
)
def test_share_paths_build_no_flat_form_and_no_block_sum(make, scaled_calls):
    shared = make()
    bits = np.random.default_rng(shared.n).integers(0, 2, size=2 * shared.n, dtype=np.uint8)
    assert verify_all(shared).passed
    for d in Demand:
        message_bits(shared, d, bits)
        decode_bits(shared, d, 1, bits)
        e2e_run(shared, d, PhyConfig(2, 3, 5, 7), bits)
    assert scaled_calls == [] and not has_flat_form(shared)
    # Only a decoder asked for is summed from its leaves', in one pass.
    assert decodable(shared, Demand.AB, 2) is not None
    assert scaled_calls == [1] and not has_flat_form(shared)


def test_failing_share_verdicts_build_no_flat_form_and_no_block_sum(scaled_calls):
    shared = memory_share(corner_scheme("M45"), zero_cache_variant(corner_scheme("M13")), F(2, 5))
    bits = np.ones(2 * shared.n, dtype=np.uint8)
    report = verify_all(shared)
    failing = [(case.demand, case.user) for case in report.cases if not case.ok]
    assert failing and not report.passed
    for d, user in failing:
        assert decodable(shared, d, user) is None
        with pytest.raises(ValueError, match=f"not decodable for demand {d}, user {user}"):
            decode_bits(shared, d, user, bits)
    assert scaled_calls == [] and not has_flat_form(shared)


def eager_blocks(s) -> list[BitMatrix]:
    """The blocks of *s* as memory_share built them eagerly, each share from its operands'."""
    if s.parts is None:
        return list(s.blocks)
    s1, k1, s2, k2 = s.parts
    ours, theirs = eager_blocks(s1), eager_blocks(s2)
    # Copy j of item i of an operand with k copies lands on start + i*k + j.
    counts = {"AB": (s1.n, s2.n), "U1": (ours[2].rows, theirs[2].rows)}
    counts["U2"] = (ours[3].rows, theirs[3].rows)
    pieces = []
    for (_, over), a, b in zip(schemes._BLOCKS, ours, theirs):
        c1, c2 = counts[over]
        base1, base2 = k1 * np.arange(c1), k1 * c1 + k2 * np.arange(c2)
        if over == "AB":
            base1, base2 = (np.concatenate([base, s.n + base]) for base in (base1, base2))
        cols = 2 * s.n if over == "AB" else k1 * c1 + k2 * c2
        pieces.append((cols, [(a, k1, base1), (b, k2, base2)]))
    return schemes._scaled(pieces)


@pytest.mark.parametrize(
    "make",
    [*DEEP_SHARES.values(), *EMPTY_BLOCK_SHARES.values()]
    + [functools.partial(scheme_for_memory, memory) for memory in BUILT],
)
def test_lazy_blocks_equal_the_eager_build(make):
    shared = make()
    expected = eager_blocks(shared)
    assert not has_flat_form(shared)
    assert list(shared.blocks) == expected and has_flat_form(shared)
    # Kept: a second read gives the same objects.
    assert all(a is b for a, b in zip(shared.blocks, shared.blocks))


@settings(max_examples=60, deadline=None)
@given(shares())
def test_lazy_blocks_of_drawn_shares_equal_the_eager_build(shared):
    assert list(shared.blocks) == eager_blocks(shared)


def test_memory_share_allocates_nothing_sized_by_n():
    corners = [corner_scheme(name) for name in ("M0", "M13", "M45", "M2")]
    for memory in (F(683, 4093), F(2321, 4093), F(5732, 4093)):
        tracemalloc.start()
        try:
            shared = scheme_for_memory(memory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One n-sized array of indices alone would take 32 KB.
        assert shared.n == 4093 and peak < 4096, f"peak {peak} bytes"
        assert shared.parts.s1 in corners and not has_flat_form(shared)


@pytest.mark.parametrize(
    "make",
    [lambda: corner_scheme("M45"), lambda: flat_copy(scheme_for_memory(F(2, 7)))]
    + [*DEEP_SHARES.values(), *EMPTY_BLOCK_SHARES.values()],
)
def test_row_counts_are_kept_ints(make):
    s = make()
    for name, value in (("cache_rows", s.memory * s.n), ("message_rows", s.load * s.n)):
        assert type(vars(s)[name]) is int and getattr(s, name) == value


def chained_shares(levels: int):
    """M13 shared with M2 again and again, one level deeper each time: n = 3 + levels."""
    s = corner_scheme("M13")
    for _ in range(levels):
        s = memory_share(s, corner_scheme("M2"), F(s.n, s.n + 1))
    return s


def test_shares_chained_past_the_recursion_limit():
    # Deeper than Python's default recursion limit of 1000 frames.
    shared = chained_shares(2000)
    assert shared.n == 2003
    leaves = schemes._leaves(shared)
    assert leaves == [(corner_scheme("M13"), 1)] + [(corner_scheme("M2"), 1)] * 2000
    report = verify_all(shared)
    assert report.passed
    bits = np.random.default_rng(2003).integers(0, 2, size=2 * shared.n, dtype=np.uint8)
    decoded = decode_bits(shared, Demand.BA, 1, bits)
    assert np.array_equal(decoded, bits[shared.n :])
    flat = read_scheme(write_scheme(shared))
    assert flat == shared and verify_all(flat) == report


def test_threads_building_one_flat_form_agree():
    # Eight threads read the flat form of fresh shares at once, switching
    # often: a form built twice is stored twice, equal both times.
    memories = [F(2, 7), F(1, 11), F(3, 5), F(9, 7)]
    fresh = [scheme_for_memory(m) for m in memories]
    expected = [write_scheme(flat_copy(scheme_for_memory(m))) for m in memories]
    results, errors = {}, []

    def work(k):
        try:
            shared = fresh[k % len(fresh)]
            results[k] = (write_scheme(shared), list(shared.blocks) == eager_blocks(shared))
        except Exception as exc:  # reported below, on the test's own thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for k in range(8):
        text, equal = results[k]
        assert text == expected[k % len(fresh)] and equal


# --- One assembly pass per batch --------------------------------------------


def two_blocks(user, *messages):
    """Independent bit pipes: each user's two direct messages, no XOR block."""
    return observe(user, *messages)[:2]


def reference_system(s, demand, user, routing):
    """A case's g and e built block by block: four products, the routing, a stack."""
    quad = s.delivery[demand]
    messages = [mat_mul(quad.d1, s.u1), mat_mul(quad.d2, s.u1), mat_mul(quad.d3, s.u2), mat_mul(quad.d4, s.u2)]
    g = vstack([s.z1 if user == 1 else s.z2, *routing(user, *messages)])
    return g, file_selector(s.n, demand.requested(user))


def diagonal_block(m, rows, cols):
    """Rows rows[0]:rows[1] of m, which must hold entries only in columns cols[0]:cols[1]."""
    part = m._row_range(*rows)
    assert part.indices.size == 0 or (part.indices.min() >= cols[0] and part.indices.max() < cols[1])
    return BitMatrix._from_csr(part.indptr, part.indices - cols[0], cols[1] - cols[0])


ASSEMBLED = {
    **{name: (lambda name=name: [corner_scheme(name)]) for name in ("M0", "M13", "M45", "M2")},
    **{f"flat {m}": (lambda m=m: [flat_copy(scheme_for_memory(m))]) for m in BUILT},
    "nested leaves": lambda: [
        leaf
        for leaf, _ in schemes._leaves(
            memory_share(scheme_for_memory(F(1, 11)), scheme_for_memory(F(1, 2)), F(1, 13))
        )
    ],
}


@pytest.mark.parametrize("routing", [observe, two_blocks], ids=["observe", "two_blocks"])
@pytest.mark.parametrize("make", list(ASSEMBLED.values()), ids=list(ASSEMBLED))
def test_assembled_batch_splits_into_each_case_system(make, routing, monkeypatch):
    monkeypatch.setattr(verifier, "observe", routing)
    leaves = list({id(leaf): leaf for leaf in make()}.values())
    rng = np.random.default_rng(len(leaves))
    # Every case of every leaf, then a few cases of each, so that a user
    # misses demands that the other user has.
    picks = [ALL_CASES, [ALL_CASES[i] for i in sorted(rng.choice(8, size=3, replace=False))]]
    for chosen in picks:
        cases = [(leaf, d, user) for leaf in leaves for d, user in chosen]
        g, e, shapes = verifier._assemble(routing, {}, cases)
        rows = np.cumsum([0] + [height for height, _ in shapes])
        parts = np.cumsum([0] + [n for _, n in shapes])
        assert g.shape == (rows[-1], 2 * parts[-1]) and e.shape == (parts[-1], 2 * parts[-1])
        for k, (leaf, d, user) in enumerate(cases):
            cols = (2 * parts[k], 2 * parts[k + 1])
            ours = diagonal_block(g, rows[k : k + 2], cols), diagonal_block(e, parts[k : k + 2], cols)
            assert ours == reference_system(leaf, d, user, routing)
            assert ours == (observation_matrix(leaf, d, user), file_selector(leaf.n, d.requested(user)))


def test_share_decoder_spans_the_blocks_the_routing_gives(monkeypatch):
    monkeypatch.setattr(verifier, "observe", two_blocks)
    shared = memory_share(corner_scheme("M0"), corner_scheme("M2"), F(1, 2))
    g = observation_matrix(shared, Demand.AA, 1)
    decoder = decodable(shared, Demand.AA, 1)
    assert g.shape == (6, 8) and decoder.shape == (4, 6)
    assert mat_mul(decoder, g) == file_selector(shared.n, "A")


@settings(max_examples=40, deadline=None)
@given(shares(), st.sampled_from([observe, two_blocks]))
def test_share_decoders_match_their_flat_copies_under_each_routing(shared, routing):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "observe", routing)
        flat = read_scheme(write_scheme(shared))
        for d, user in ALL_CASES:
            decoder = decodable(shared, d, user)
            assert (decoder is None) == (decodable(flat, d, user) is None)
            if decoder is not None:
                g = observation_matrix(shared, d, user)
                assert mat_mul(decoder, g) == file_selector(shared.n, d.requested(user))


def test_flat_batches_hold_about_batch_entries_at_the_cap(monkeypatch):
    batches = []
    assemble = verifier._assemble

    def counted(routing, kept, cases):
        g, e, shapes = assemble(routing, kept, cases)
        batches.append((len(cases), g.indices.size + e.indices.size))
        return g, e, shapes

    monkeypatch.setattr(verifier, "_assemble", counted)
    flat = flat_copy(scheme_for_memory(F(1, 4093)))
    assert flat.n == 4093 and verify_all(flat).passed
    assert sum(count for count, _ in batches) == 8 and len(batches) > 1
    assert all(count == 1 or size <= verifier._BATCH_ENTRIES for count, size in batches)
