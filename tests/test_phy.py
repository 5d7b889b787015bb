"""Physical layer: alignment algebra, demodulation, end-to-end, Monte Carlo."""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phy_oracle
from cachealign import phy
from cachealign import (
    MAX_ALPHABET,
    MAX_TRIALS,
    BitMatrix,
    DeliveryQuad,
    Demand,
    DemodError,
    PhyConfig,
    aligned_coefficients,
    corner_scheme,
    decode_bits,
    demodulate,
    e2e_run,
    enumerate_constellation,
    file_selector,
    monte_carlo,
    power_for_min_gap,
    scheme_for_memory,
    uniqueness_certificate,
)

F = Fraction

CFG = PhyConfig(2, 3, 5, 7)
DEGENERATE = PhyConfig(1, 1, 1, 1)

# Near the int64 limit the received values pass 2^53, where float64
# rounding can merge neighbouring values.  INT64_LIMIT's points stay apart
# in float64.  In MERGING, one direct symbol weighs 10^18, the pair sum
# 10^9 and the other direct symbol 1, so two points that differ only in
# that last symbol round to one float64 value.
INT64_LIMIT = PhyConfig(10**9 + 9, 10**9 - 7, 3, 10**9 + 3)
MERGING = PhyConfig(10**9, 1, 1, 10**9)


# Oracles for the integer pipeline: the Fraction channel model, a Fraction
# constellation, an exact nearest point and a float Monte Carlo.  Values
# are read off the model (y = H x, x the front-end mix), not the
# package's formulas.


def oracle_model(cfg):
    """The channel matrix H and the front-end mix X, so that y = H X g."""
    h11, h12, h21, h22 = cfg.gains
    return ((h11, h12), (h21, h22)), ((h22, h12, 0, 0), (0, 0, h21, h11))


def oracle_received(cfg, g):
    """Both users' noiseless observations (y1, y2) of symbols g, in Fractions."""
    chan, mix = oracle_model(cfg)
    x = [sum(m * gi for m, gi in zip(row, g)) for row in mix]
    return tuple(sum(h * xi for h, xi in zip(row, x)) for row in chan)


def oracle_coefficients(cfg):
    """Per user, the Fraction coefficients of (direct, direct, pair sum)."""
    chan, mix = oracle_model(cfg)
    c1, c2 = ([ch[0] * mix[0][j] + ch[1] * mix[1][j] for j in range(4)] for ch in chan)
    assert c1[1] == c1[3] and c2[0] == c2[2], "interfering streams are not aligned"
    return (c1[0], c1[2], c1[1]), (c2[1], c2[3], c2[0])


def oracle_constellation(cfg, user):
    """Every (value, (a, b, s)), stable-sorted by value."""
    ca, cb, cs = oracle_coefficients(cfg)[user - 1]
    q = cfg.q
    entries = [
        (ca * a + cb * b + cs * s, (a, b, s))
        for a in range(q)
        for b in range(q)
        for s in range(2 * q - 1)
    ]
    entries.sort(key=lambda e: e[0])
    return entries


def oracle_nearest(entries, y):
    """Exact nearest point; of two at equal distance, the smaller value."""
    y = Fraction(y)
    return min(entries, key=lambda e: (abs(e[0] - y), e[0]))[1]


def oracle_monte_carlo_errors(cfg, trials, seed):
    """Error counts per user of the float Monte Carlo: same draws, float channel."""
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, cfg.q, size=(trials, 4))
    h11, h12, h21, h22 = cfg.gains
    grid = range(cfg.q)
    peak = max(
        max(abs(h22 * a + h12 * b), abs(h21 * a + h11 * b)) for a in grid for b in grid
    )
    scale = float(cfg.power) ** 0.5 / float(peak)
    h11, h12, h21, h22 = (float(h) for h in cfg.gains)
    x1 = scale * (h22 * symbols[:, 0] + h12 * symbols[:, 1])
    x2 = scale * (h21 * symbols[:, 2] + h11 * symbols[:, 3])
    y1 = h11 * x1 + h12 * x2 + rng.standard_normal(trials)
    y2 = h21 * x1 + h22 * x2 + rng.standard_normal(trials)
    sent = {
        1: np.column_stack([symbols[:, 0], symbols[:, 2], symbols[:, 1] + symbols[:, 3]]),
        2: np.column_stack([symbols[:, 1], symbols[:, 3], symbols[:, 0] + symbols[:, 2]]),
    }
    counts = []
    for user, y in ((1, y1), (2, y2)):
        entries = oracle_constellation(cfg, user)
        values = scale * np.array([float(v) for v, _ in entries])
        triples = np.array([t for _, t in entries])
        idx = np.searchsorted(values, y)
        left = np.clip(idx - 1, 0, len(values) - 1)
        right = np.clip(idx, 0, len(values) - 1)
        chosen = np.where(np.abs(y - values[left]) <= np.abs(values[right] - y), left, right)
        counts.append(int(np.any(triples[chosen] != sent[user], axis=1).sum()))
    return counts


def test_config_validation():
    with pytest.raises(ValueError, match="nonzero"):
        PhyConfig(0, 1, 1, 1)
    with pytest.raises(ValueError, match="alphabet"):
        PhyConfig(2, 3, 5, 7, q=1)
    for power in (-1.0, float("nan"), float("inf"), True, "5", 1j, 10**400):
        with pytest.raises(ValueError, match=f"power must be positive and finite, got {power!r}"):
            PhyConfig(2, 3, 5, 7, power=power)
    # power=True used to be accepted, "5" and 1j raised TypeError.
    for power in (100, F(1, 4), np.float32(2.5), 3.0):
        assert type(PhyConfig(2, 3, 5, 7, power=power).power) is float
    # An infinite gain raised OverflowError, "1/0" ZeroDivisionError and None
    # TypeError from Fraction, and True was a gain of 1.
    for gain in (math.inf, -math.inf, math.nan, "1/0", None, True, "x"):
        with pytest.raises(ValueError, match=f"gain h12 must be a finite number, got {gain!r}"):
            PhyConfig(2, gain, 5, 7)
    assert PhyConfig(2, 3, 5, 7, q=MAX_ALPHABET).q == MAX_ALPHABET
    with pytest.raises(ValueError, match="alphabet"):
        PhyConfig(2, 3, 5, 7, q=MAX_ALPHABET + 1)
    for gains in ((10**10, 1, 1, 1), (F(1, 1000003), F(1, 1000033), F(1, 1000037), 1)):
        with pytest.raises(ValueError, match="overflow int64"):
            PhyConfig(*gains)


@pytest.mark.parametrize("q", [2.5, 2.0, "4", True, F(3), None])
def test_config_refuses_an_alphabet_size_that_is_not_an_integer(q):
    # q = 2.5 used to be accepted, and the constellation mixed arange(2.5)
    # with arange(4).
    with pytest.raises(ValueError, match="alphabet size must be an integer"):
        PhyConfig(2, 3, 5, 7, q=q)


def test_config_takes_numpy_integer_alphabet_sizes():
    cfg = PhyConfig(2, 3, 5, 7, q=np.int64(3))
    assert type(cfg.q) is int and cfg == PhyConfig(2, 3, 5, 7, q=3)
    # With q an np.int64, 8 * peak^2 * (q - 1) wrapped around and this
    # overflowing config was accepted.
    with pytest.raises(ValueError, match="overflow int64"):
        PhyConfig(10**9, 1, 1, 10**9, q=np.int64(3))


def test_monte_carlo_takes_a_numpy_integer_trial_count():
    # With trials an np.int64, trials and both rates came back as numpy
    # scalars, and json.dumps refused the result.
    result = monte_carlo(PhyConfig(2, 3, 5, 7, power=100.0), np.int64(10), 1)
    assert result == monte_carlo(PhyConfig(2, 3, 5, 7, power=100.0), 10, 1)
    assert [type(v) for v in vars(result).values()] == [float, int, float, float, int]
    json.dumps(vars(result))


# CFG's gains are integers, so its cleared gains are the gains themselves.


def test_front_end_single_stream():
    assert phy._front_end(CFG.cleared[1], 1, 0, 0, 0) == (7, 0)


def test_front_end_all_streams():
    assert phy._front_end(CFG.cleared[1], 1, 1, 1, 1) == (10, 7)


def test_channel_out_aligned_values():
    symbols = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0]])
    y1, y2 = (phy._received(CFG, symbols, user) for user in (1, 2))
    assert y1.tolist() == [29, 12, 0]
    assert y2.tolist() == [70, 29, 0]


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        PhyConfig(1, -2, 3, -5, q=3),
        PhyConfig(F(1, 2), F(3, 7), F(-2, 5), F(11, 3), q=3),
        PhyConfig(F(7, 3), F(5, 11), 13, F(3, 4), q=4),
        PhyConfig(10**9 + 9, 10**9 - 7, 3, 10**9 + 3),
    ],
)
def test_received_matches_fraction_model(cfg):
    # Every symbol quadruple: the integer channel over D^2 is y = H x exactly.
    d = math.lcm(*(h.denominator for h in cfg.gains))
    quads = list(itertools.product(range(cfg.q), repeat=4))
    y1, y2 = (phy._received(cfg, np.array(quads, dtype=np.int64), user) for user in (1, 2))
    for g, v1, v2 in zip(quads, y1.tolist(), y2.tolist()):
        assert (F(v1, d * d), F(v2, d * d)) == oracle_received(cfg, g), g


def test_aligned_coefficients():
    user1, user2 = aligned_coefficients(CFG)
    assert tuple(user1) == (F(14), F(15), F(6))
    assert tuple(user2) == (F(15), F(14), F(35))


def test_aligned_coefficients_degenerate():
    user1, _ = aligned_coefficients(DEGENERATE)
    assert tuple(user1) == (F(1), F(1), F(1))
    assert not uniqueness_certificate(DEGENERATE)


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        DEGENERATE,
        PhyConfig(1, -2, 3, -5),
        PhyConfig(F(1, 2), F(3, 7), F(-2, 5), F(11, 3)),
    ],
)
def test_alignment_identity_exhaustive(cfg):
    user1, user2 = aligned_coefficients(cfg)
    for g in itertools.product((0, 1), repeat=4):
        y1, y2 = oracle_received(cfg, g)
        assert y1 == user1.direct_a * g[0] + user1.direct_b * g[2] + user1.pair_sum * (g[1] + g[3])
        assert y2 == user2.direct_a * g[1] + user2.direct_b * g[3] + user2.pair_sum * (g[0] + g[2])


def test_certificate_passes_with_expected_values():
    assert uniqueness_certificate(CFG)
    values = [v for v, _ in enumerate_constellation(CFG, 1)]
    assert values == [0, 6, 12, 14, 15, 20, 21, 26, 27, 29, 35, 41]
    assert len(values) == 12


def test_certificate_fails_on_collision():
    # With unit gains, (1,0,0) and (0,1,0) both land on value 1.
    assert not uniqueness_certificate(DEGENERATE)


def test_certificate_wider_alphabet():
    assert uniqueness_certificate(PhyConfig(2, 3, 5, 7, q=3))
    entries = enumerate_constellation(PhyConfig(2, 3, 5, 7, q=3), 1)
    assert len(entries) == 3 * 3 * 5  # a, b in [0,3), pair sum in [0,5)


@pytest.mark.parametrize(
    "y,expected", [(F(29), (1, 1, 0)), (F(0), (0, 0, 0)), (F(21), (0, 1, 1))]
)
def test_demodulate_exact(y, expected):
    assert demodulate(CFG, y, 1) == expected


def test_demodulate_rejects_non_constellation_value():
    with pytest.raises(DemodError):
        demodulate(CFG, F(1), 1)


def test_demodulate_requires_certificate():
    # Refused on every call, not only the first: refusals are never cached.
    for _ in range(2):
        with pytest.raises(ValueError, match="uniqueness certificate"):
            demodulate(DEGENERATE, F(0), 1)


@pytest.mark.parametrize("user", [0, 3, -1])
def test_user_outside_1_and_2_rejected(user):
    # Unchecked, user 0 would read user 2's constellation through index user - 1.
    with pytest.raises(ValueError, match="user must be 1 or 2"):
        demodulate(CFG, F(15), user)
    with pytest.raises(ValueError, match="user must be 1 or 2"):
        enumerate_constellation(CFG, user)


@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan, np.float64("inf")])
@pytest.mark.parametrize("noisy", [False, True])
def test_demodulate_refuses_observations_that_are_not_finite(y, noisy):
    # Fraction(inf) raised OverflowError, which callers catching ValueError missed.
    with pytest.raises(ValueError, match=r"observation .* is not a finite number"):
        demodulate(CFG, y, 1, noisy=noisy)


def test_demodulate_noisy_nearest_and_ties():
    # 16 is nearer to 15 than to 14; 14.5 ties and goes to the smaller value.
    assert demodulate(CFG, 16.0, 1, noisy=True) == demodulate(CFG, F(15), 1)
    assert demodulate(CFG, 14.5, 1, noisy=True) == demodulate(CFG, F(14), 1)


def test_round_trip_all_quadruples():
    for g in itertools.product((0, 1), repeat=4):
        y1, y2 = oracle_received(CFG, g)
        assert demodulate(CFG, y1, 1) == (g[0], g[2], g[1] + g[3])
        assert demodulate(CFG, y2, 2) == (g[1], g[3], g[0] + g[2])
        # Integer pair sums reduce mod 2 to the XOR the network layer needs.
        assert (g[1] + g[3]) % 2 == g[1] ^ g[3]


def test_e2e_matches_network_layer_decode():
    scheme = corner_scheme("M13")
    rng = np.random.default_rng(77)
    bits = rng.integers(0, 2, size=6, dtype=np.uint8)
    out1, out2 = e2e_run(scheme, Demand.AB, CFG, bits)
    assert np.array_equal(out1, decode_bits(scheme, Demand.AB, 1, bits))
    assert np.array_equal(out2, decode_bits(scheme, Demand.AB, 2, bits))
    assert np.array_equal(out1, file_selector(3, "A").apply(bits))
    assert np.array_equal(out2, file_selector(3, "B").apply(bits))


@pytest.fixture
def builds(monkeypatch):
    """The (cleared gains, q) of each constellation built in the test, from an empty cache."""
    built = []

    class Counted(phy._Constellation):
        def __init__(self, h, q):
            built.append((h, q))
            super().__init__(h, q)

    monkeypatch.setattr(phy, "_Constellation", Counted)
    phy._constellation.cache_clear()
    yield built
    phy._constellation.cache_clear()


def test_constellation_cache_keeps_to_its_byte_budget(builds):
    # Four certified q = 64 gain sets, each with the decision cells that
    # Monte Carlo builds: about 41.6 MB apiece, so the three kept stay
    # under 125 MB.
    configs = [PhyConfig(1000 + k, 1, 1, 1000, q=64) for k in range(4)]
    tables = []
    for cfg in configs:
        assert uniqueness_certificate(cfg)
        tables.append(phy._constellation(cfg.cleared[1], cfg.q))
        assert tables[-1].cells[0].shape == (3, 64 * 64 * 127)
    assert phy._constellation.cache_info().currsize == 3
    held = sum(
        array.nbytes
        for table in tables[-3:]
        for array in (*table.values, *table.points, *table.cells)
    )
    assert held <= 125 * 10**6
    assert phy._constellation(cfg.cleared[1], cfg.q) is tables[-1]
    assert uniqueness_certificate(configs[0])
    assert builds == [(cfg.cleared[1], 64) for cfg in configs + configs[:1]]


def test_fresh_gain_sets_leave_at_most_three_constellations(builds):
    # The noise workload's shape: each operation draws new gains, certifies
    # them at q = 16 and runs Monte Carlo at q = 2, 4 and 8, and no entry is
    # looked up again once the next gain set comes.
    rng = np.random.default_rng(11)
    for _ in range(10):
        gains = [F(int(p), int(d)) for p, d in rng.integers(1, 50, size=(4, 2))]
        uniqueness_certificate(PhyConfig(*gains, q=16))
        for q in (2, 4, 8):
            cfg = PhyConfig(*gains, q=q)
            if uniqueness_certificate(cfg):
                monte_carlo(PhyConfig(*gains, q=q, power=power_for_min_gap(cfg, 2.0)), 100, 1)
    assert len(builds) == 40
    assert phy._constellation.cache_info().currsize <= 3


def test_e2e_builds_the_constellation_once(builds):
    scheme = scheme_for_memory(F(7, 10))
    rng = np.random.default_rng(5)
    for demand in Demand:
        bits = rng.integers(0, 2, size=2 * scheme.n, dtype=np.uint8)
        out1, out2 = e2e_run(scheme, demand, CFG, bits)
        assert np.array_equal(out1, decode_bits(scheme, demand, 1, bits))
        assert np.array_equal(out2, decode_bits(scheme, demand, 2, bits))
        assert builds == [(CFG.cleared[1], 2)]


def test_proportional_gain_sets_share_one_table(builds):
    # Both clear to the integers (2, 3, 5, 7), with D = 1 and D = 2; each
    # renders the shared table, and sets its power, with its own D.
    whole, halves = PhyConfig(2, 3, 5, 7), PhyConfig(1, F(3, 2), F(5, 2), F(7, 2))
    assert (whole.cleared, halves.cleared) == ((1, (2, 3, 5, 7)), (2, (2, 3, 5, 7)))
    for cfg in (whole, halves):
        assert uniqueness_certificate(cfg)
        for user in (1, 2):
            entries = oracle_constellation(cfg, user)
            assert enumerate_constellation(cfg, user) == entries
            for (lo, triple), (hi, _) in zip(entries, entries[1:]):
                assert demodulate(cfg, lo, user) == triple
                assert demodulate(cfg, (lo + hi) / 2, user, noisy=True) == triple
    assert aligned_coefficients(whole) == ((14, 15, 6), (15, 14, 35))
    assert aligned_coefficients(halves) == (
        (F(7, 2), F(15, 4), F(3, 2)),
        (F(15, 4), F(7, 2), F(35, 4)),
    )
    assert (power_for_min_gap(whole, 2.0), power_for_min_gap(halves, 2.0)) == (400.0, 1600.0)
    assert builds == [((2, 3, 5, 7), 2)]


def test_config_compares_hashes_and_shows_only_its_arguments():
    cfg = PhyConfig(F(1, 2), 3, F(5, 4), 7, q=4, power=2.5)
    assert cfg.cleared == (4, (2, 12, 5, 28))
    fields = {f.name: f for f in dataclasses.fields(PhyConfig)}
    assert not (fields["cleared"].init or fields["cleared"].compare or fields["cleared"].repr)
    assert cfg == PhyConfig(F(2, 4), F(6, 2), F(5, 4), 7, q=4, power=2.5)
    assert cfg != PhyConfig(1, 6, F(5, 2), 14, q=4, power=2.5)  # twice the gains
    assert hash(cfg) == hash((*cfg.gains, 4, 2.5))
    assert repr(cfg) == (
        "PhyConfig(h11=Fraction(1, 2), h12=Fraction(3, 1), h21=Fraction(5, 4), "
        "h22=Fraction(7, 1), q=4, power=2.5)"
    )
    back = pickle.loads(pickle.dumps(cfg))
    assert (back, back.cleared, hash(back)) == (cfg, cfg.cleared, hash(cfg))
    louder = dataclasses.replace(cfg, power=9.0)
    assert (louder.power, louder.cleared) == (9.0, cfg.cleared) and louder != cfg
    # replace builds a new config, so the cleared gains are computed again.
    assert dataclasses.replace(cfg, h11=F(1, 3)).cleared == (12, (4, 36, 15, 84))
    with pytest.raises(ValueError, match="cleared"):
        dataclasses.replace(cfg, cleared=(1, (1, 1, 1, 1)))


def test_e2e_zero_files():
    scheme = corner_scheme("M45")
    zero = np.zeros(10, dtype=np.uint8)
    for demand in Demand:
        out1, out2 = e2e_run(scheme, demand, CFG, zero)
        assert not out1.any() and not out2.any()


def test_e2e_random_files_all_demands():
    scheme = corner_scheme("M45")
    rng = np.random.default_rng(123)
    for demand in Demand:
        for _ in range(50):
            bits = rng.integers(0, 2, size=10, dtype=np.uint8)
            out1, out2 = e2e_run(scheme, demand, CFG, bits)
            assert np.array_equal(out1, file_selector(5, demand.requested(1)).apply(bits))
            assert np.array_equal(out2, file_selector(5, demand.requested(2)).apply(bits))


def test_e2e_requires_binary_alphabet():
    with pytest.raises(ValueError, match="q == 2"):
        e2e_run(corner_scheme("M13"), Demand.AB, PhyConfig(2, 3, 5, 7, q=3), np.zeros(6))


def test_e2e_requires_decodability():
    m13 = corner_scheme("M13")
    silent = {
        d: DeliveryQuad(*(BitMatrix.zeros(*m.shape) for m in quad))
        for d, quad in m13.delivery.items()
    }
    with pytest.raises(ValueError, match="^scheme is not decodable for demand AB, user 1$"):
        e2e_run(dataclasses.replace(m13, delivery=silent), Demand.AB, CFG, np.zeros(6))


def test_power_calibration():
    # Smallest aligned gap is 1 and the transmit peak is 10, so a 20-sigma
    # gap needs sqrt(P) = 200.
    assert power_for_min_gap(CFG, 20.0) == pytest.approx(40000.0)


@pytest.mark.parametrize(
    "sigmas", [-20.0, -1e-300, 0.0, float("nan"), float("inf"), -math.inf, True, "5", 1j]
)
def test_power_for_min_gap_refuses_sigmas_not_positive_and_finite(sigmas):
    # Squaring used to hide the sign: -20 gave the power of +20.  True gave
    # the power of 1 sigma, and "5" and 1j raised TypeError.
    with pytest.raises(ValueError, match="sigmas must be positive and finite"):
        power_for_min_gap(CFG, sigmas)


def test_monte_carlo_deterministic():
    cfg = PhyConfig(2, 3, 5, 7, power=400.0)
    one = monte_carlo(cfg, trials=1, seed=5)
    again = monte_carlo(cfg, trials=1, seed=5)
    assert (one.ser_user1, one.ser_user2) == (again.ser_user1, again.ser_user2)


def test_monte_carlo_low_error_at_high_power():
    cfg = PhyConfig(2, 3, 5, 7, power=power_for_min_gap(CFG, 20.0))
    result = monte_carlo(cfg, trials=10_000, seed=99)
    assert result.ser_user1 <= 1e-3
    assert result.ser_user2 <= 1e-3


def test_monte_carlo_monotone_in_power():
    low = monte_carlo(
        PhyConfig(2, 3, 5, 7, power=power_for_min_gap(CFG, 2.0)), trials=10_000, seed=8
    )
    high = monte_carlo(
        PhyConfig(2, 3, 5, 7, power=power_for_min_gap(CFG, 20.0)), trials=10_000, seed=8
    )
    assert high.ser_user1 <= low.ser_user1
    assert high.ser_user2 <= low.ser_user2
    assert low.ser_user1 > 0  # the low-power point actually exercises errors


def test_monte_carlo_csv_row():
    cfg = PhyConfig(2, 3, 5, 7, power=400.0)
    row = monte_carlo(cfg, trials=10, seed=3).csv_row()
    assert row.startswith("400,10,")
    assert row.endswith(",3")


def test_monte_carlo_requires_power_and_trials(monkeypatch):
    def no_draws(seed):
        raise AssertionError("symbols drawn before the input was checked")

    # Every refusal comes before the generator is made, so nothing is drawn.
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="power"):
        monte_carlo(CFG, trials=10, seed=0)
    for trials in (0, MAX_TRIALS + 1, 10**8):
        with pytest.raises(ValueError, match=rf"trials must be in \[1, {MAX_TRIALS}\]"):
            monte_carlo(PhyConfig(2, 3, 5, 7, power=1.0), trials=trials, seed=0)
    for trials in (1000.0, 2.5, "10", True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            monte_carlo(PhyConfig(2, 3, 5, 7, power=1.0), trials=trials, seed=0)
    with pytest.raises(ValueError, match="uniqueness certificate"):
        monte_carlo(PhyConfig(1, 1, 1, 1, power=1.0), trials=10, seed=0)
    # numpy would raise TypeError for 1.5 and "3", and run True as seed 1.
    for seed in (1.5, "3", True, -1, None):
        with pytest.raises(ValueError, match=rf"seed must be a non-negative integer, got {seed!r}"):
            monte_carlo(PhyConfig(2, 3, 5, 7, power=1.0), trials=10, seed=seed)


gain = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(gains=st.tuples(gain, gain, gain, gain), q=st.integers(2, 8), data=st.data())
def test_integer_pipeline_matches_fraction_oracle(gains, q, data):
    cfg = PhyConfig(*gains, q=q)
    oracles = {user: oracle_constellation(cfg, user) for user in (1, 2)}
    certified = all(len({v for v, _ in e}) == len(e) for e in oracles.values())
    assert uniqueness_certificate(cfg) == certified
    for user, entries in oracles.items():
        assert enumerate_constellation(cfg, user) == entries
        if not certified:
            with pytest.raises(ValueError, match="uniqueness certificate"):
                demodulate(cfg, entries[0][0], user)
            continue
        i = data.draw(st.integers(0, len(entries) - 2))
        (lo, lo_triple), (hi, hi_triple) = entries[i], entries[i + 1]
        assert demodulate(cfg, lo, user) == lo_triple
        assert demodulate(cfg, hi, user) == hi_triple
        mid = (lo + hi) / 2
        with pytest.raises(DemodError):
            demodulate(cfg, mid, user)
        assert demodulate(cfg, mid, user, noisy=True) == lo_triple  # a tie
        t = data.draw(st.fractions(-2, 3, max_denominator=50))
        for y in (lo + t * (hi - lo), float(lo + t * (hi - lo)), entries[0][0] - 1):
            assert demodulate(cfg, y, user, noisy=True) == oracle_nearest(entries, y)


def test_demodulate_at_q64_matches_the_exact_oracle():
    # The largest alphabet, 520 192 points a user, on sampled values,
    # midpoints and points between them.  Integer gains keep the oracle's
    # values integers, so it enumerates and sorts in Python ints, and
    # oracle_nearest sees the sorted entries around y, among which the
    # nearest one lies.
    cfg = PhyConfig(1000, 1, 1, 1000, q=64)
    q, rng = cfg.q, np.random.default_rng(64)
    for user in (1, 2):
        ca, cb, cs = (int(c) for c in oracle_coefficients(cfg)[user - 1])
        entries = sorted(
            (ca * a + cb * b + cs * s, (a, b, s))
            for a in range(q)
            for b in range(q)
            for s in range(2 * q - 1)
        )
        values = [v for v, _ in entries]
        assert len(set(values)) == len(values)
        for i in rng.choice(len(entries) - 1, 25).tolist():
            (lo, triple), hi = entries[i], values[i + 1]
            mid = Fraction(lo + hi, 2)
            assert demodulate(cfg, lo, user) == triple
            with pytest.raises(DemodError, match=f"observation {mid} is not a constellation"):
                demodulate(cfg, mid, user)
            above = (mid + Fraction(1, 10**9), hi + Fraction(3, 4), float(hi) + 0.25)
            for y in (mid, lo - Fraction(1, 3), *above):
                at = bisect.bisect_left(values, y)
                nearest = oracle_nearest(entries[max(at - 2, 0) : at + 2], y)
                assert demodulate(cfg, y, user, noisy=True) == nearest
        ends = entries[:2] + entries[-2:]
        for y in (values[0] - 10**30, values[-1] + Fraction(10**30, 7)):
            assert demodulate(cfg, y, user, noisy=True) == oracle_nearest(ends, y)


def test_pipeline_exact_near_the_int64_limit():
    # 8 * peak^2 * (q - 1) = 8.0e18, close under the 2^63 = 9.2e18 limit.
    cfg = INT64_LIMIT
    for user in (1, 2):
        assert enumerate_constellation(cfg, user) == oracle_constellation(cfg, user)
    assert uniqueness_certificate(cfg)
    for g in itertools.product((0, 1), repeat=4):
        y1, y2 = oracle_received(cfg, g)
        assert demodulate(cfg, y1, 1) == (g[0], g[2], g[1] + g[3])
        assert demodulate(cfg, y2, 2) == (g[1], g[3], g[0] + g[2])


@pytest.mark.parametrize(
    "gains,q",
    [
        ((2, 3, 5, 7), 2),
        ((F(1, 2), F(3, 7), F(-2, 5), F(11, 3)), 2),
        ((F(7, 3), F(5, 11), 13, F(3, 4)), 4),
    ],
)
def test_monte_carlo_matches_float_oracle(gains, q):
    cfg = PhyConfig(*gains, q=q)
    power = power_for_min_gap(cfg, 1.5)
    for seed in (1, 2, 3):
        result = monte_carlo(PhyConfig(*gains, q=q, power=power), trials=4000, seed=seed)
        expected = oracle_monte_carlo_errors(PhyConfig(*gains, q=q, power=power), 4000, seed)
        counts = [round(result.ser_user1 * 4000), round(result.ser_user2 * 4000)]
        assert all(abs(c - e) <= 1 for c, e in zip(counts, expected)), (counts, expected)
        assert min(expected) > 0  # the noise actually causes errors


def test_merging_config_has_neighbours_equal_in_float64():
    for user in (1, 2):
        values = phy._constellation(MERGING.cleared[1], MERGING.q).values[user - 1]
        assert np.diff(values).all() and not np.diff(values.astype(np.float64)).all()


def sorted_cells(cfg, user):
    """The cell table's (lo, v, hi) rows, in the order of the sorted values."""
    table = phy._certified(cfg)
    values, points = table.for_user(user)
    return values, table.cells[user - 1][:, points]


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        PhyConfig(F(1, 2), F(3, 7), F(-2, 5), F(11, 3), q=4),
        PhyConfig(F(7, 3), F(5, 11), 13, F(3, 4), q=8),
        INT64_LIMIT,
        MERGING,
    ],
)
def test_cell_rule_matches_nearest_on_crafted_points(cfg):
    for user in (1, 2):
        values, (lo, v, hi) = sorted_cells(cfg, user)
        f = values.astype(np.float64)
        assert np.array_equal(v, f)
        assert np.array_equal(lo, np.concatenate(([-np.inf], f[:-1])))
        assert np.array_equal(hi, np.concatenate((f[1:], [np.inf])))
        # Every value, every midpoint (an exact tie below 2^52), the floats
        # on either side of each midpoint and of each value, and points
        # beyond both ends.
        mid = f[:-1] + (f[1:] - f[:-1]) / 2
        span = f[-1] - f[0] + 1
        y = np.concatenate(
            (
                f,
                mid,
                np.nextafter(mid, -np.inf),
                np.nextafter(mid, np.inf),
                np.nextafter(f, -np.inf),
                np.nextafter(f, np.inf),
                [f[0] - span, f[-1] + span],
            )
        )
        inside = phy._in_cell(lo[:, None], v[:, None], hi[:, None], y[None, :])
        nearest = phy._nearest(values, y)
        assert np.array_equal(inside, np.arange(len(values))[:, None] == nearest[None, :])
        # Exact midpoints of small values are ties, and go to the lower point.
        if f[-1] < 2**52:
            assert np.array_equal(phy._nearest(values, mid), np.arange(len(values) - 1))


def assert_same_as_oracle(cfg, trials, seed):
    result, expected = monte_carlo(cfg, trials, seed), phy_oracle.monte_carlo(cfg, trials, seed)
    assert result == expected
    # == compares the rates as floats; their bits must be equal too.
    rates = (result.ser_user1, result.ser_user2, expected.ser_user1, expected.ser_user2)
    assert [r.hex() for r in rates[:2]] == [r.hex() for r in rates[2:]]


@settings(max_examples=100, deadline=None)
@given(
    gains=st.tuples(gain, gain, gain, gain),
    q=st.integers(2, 8),
    sigmas=st.floats(0.5, 20.0),
    trials=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
)
def test_monte_carlo_equals_the_two_search_oracle(gains, q, sigmas, trials, seed):
    cfg = PhyConfig(*gains, q=q)
    assume(uniqueness_certificate(cfg))
    power = power_for_min_gap(cfg, sigmas)
    assert_same_as_oracle(PhyConfig(*gains, q=q, power=power), trials, seed)


@pytest.mark.parametrize("cfg", [INT64_LIMIT, MERGING])
@pytest.mark.parametrize("sigmas", [0.5, 1.0, 3.0])
def test_monte_carlo_equals_the_oracle_near_the_int64_limit(cfg, sigmas):
    power = power_for_min_gap(cfg, sigmas)
    for seed, trials in ((1, 1), (2, 4999), (3, 3 * 2**14 + 5)):
        assert_same_as_oracle(PhyConfig(*cfg.gains, q=cfg.q, power=power), trials, seed)


def test_power_sweep_builds_each_constellation_once(builds):
    gains = (F(13, 5), F(-7, 3), F(11, 2), F(5, 9))
    base = PhyConfig(*gains, q=8)
    for sigmas in (0.5, 1.0, 2.0, 4.0, 8.0):
        cfg = PhyConfig(*gains, q=8, power=power_for_min_gap(base, sigmas))
        assert uniqueness_certificate(cfg)
        monte_carlo(cfg, trials=1000, seed=1)
        monte_carlo(PhyConfig(*gains, q=4, power=cfg.power), trials=1000, seed=1)
    assert builds == [(base.cleared[1], 8), (base.cleared[1], 4)]


def test_certificate_then_monte_carlo_builds_once(builds):
    cfg = PhyConfig(F(7, 3), F(5, 11), 13, F(3, 4), q=4)
    assert uniqueness_certificate(cfg)
    result = monte_carlo(PhyConfig(*cfg.gains, q=4, power=power_for_min_gap(cfg, 2.0)), 1000, 3)
    assert result.trials == 1000
    assert enumerate_constellation(cfg, 2)
    assert demodulate(cfg, 0, 1) == (0, 0, 0)
    assert builds == [(cfg.cleared[1], 4)]


def test_uncertified_gains_are_built_once_and_refused_every_time(builds):
    for _ in range(2):
        assert not uniqueness_certificate(DEGENERATE)
        with pytest.raises(ValueError, match="uniqueness certificate"):
            power_for_min_gap(DEGENERATE, 1.0)
        with pytest.raises(ValueError, match="uniqueness certificate"):
            monte_carlo(PhyConfig(1, 1, 1, 1, power=1.0), trials=10, seed=0)
    assert builds == [(DEGENERATE.cleared[1], 2)]


@pytest.mark.parametrize("cfg", [CFG, PhyConfig(F(7, 3), F(5, 11), 13, F(3, 4), q=8)])
def test_cached_tables_are_read_only(cfg):
    table = phy._certified(cfg)
    arrays = [*table.values, *table.points, *table.cells]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
