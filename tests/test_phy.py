"""Physical layer: alignment algebra, demodulation, end-to-end, Monte Carlo."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from cachealign import phy
from cachealign import (
    Demand,
    DemodError,
    PhyConfig,
    aligned_coefficients,
    channel_out,
    corner_scheme,
    decode_bits,
    demodulate,
    e2e_run,
    enumerate_constellation,
    file_selector,
    front_end,
    monte_carlo,
    power_for_min_gap,
    scheme_for_memory,
    send_frame,
    uniqueness_certificate,
)

F = Fraction

CFG = PhyConfig(2, 3, 5, 7)
DEGENERATE = PhyConfig(1, 1, 1, 1)


def test_config_validation():
    with pytest.raises(ValueError, match="nonzero"):
        PhyConfig(0, 1, 1, 1)
    with pytest.raises(ValueError, match="alphabet"):
        PhyConfig(2, 3, 5, 7, q=1)
    for power in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="power"):
            PhyConfig(2, 3, 5, 7, power=power)


def test_front_end_single_stream():
    assert front_end(CFG, 1, 0, 0, 0) == (F(7), F(0))


def test_front_end_all_streams():
    assert front_end(CFG, 1, 1, 1, 1) == (F(10), F(7))


def test_front_end_zeros_and_alphabet():
    assert front_end(CFG, 0, 0, 0, 0) == (F(0), F(0))
    with pytest.raises(ValueError, match="alphabet"):
        front_end(CFG, 2, 0, 0, 0)


def test_channel_out_aligned_values():
    assert channel_out(CFG, *front_end(CFG, 1, 0, 1, 0))[0] == F(29)
    assert channel_out(CFG, *front_end(CFG, 0, 1, 0, 1))[0] == F(12)
    assert channel_out(CFG, F(0), F(0)) == (F(0), F(0))


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
        y1, y2 = channel_out(cfg, *front_end(cfg, *g))
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


def test_demodulate_noisy_nearest_and_ties():
    # 16 is nearer to 15 than to 14; 14.5 ties and goes to the smaller value.
    assert demodulate(CFG, 16.0, 1, noisy=True) == demodulate(CFG, F(15), 1)
    assert demodulate(CFG, 14.5, 1, noisy=True) == demodulate(CFG, F(14), 1)


def test_round_trip_all_quadruples():
    for g in itertools.product((0, 1), repeat=4):
        frame = send_frame(CFG, *g)
        assert demodulate(CFG, frame.y1, 1) == (g[0], g[2], g[1] + g[3])
        assert demodulate(CFG, frame.y2, 2) == (g[1], g[3], g[0] + g[2])
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


def test_e2e_certifies_each_demod_table_once(monkeypatch):
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return uniqueness_certificate(cfg)

    monkeypatch.setattr(phy, "uniqueness_certificate", counted)
    phy._demod_table.cache_clear()
    scheme = scheme_for_memory(F(7, 10))
    rng = np.random.default_rng(5)
    for demand in Demand:
        bits = rng.integers(0, 2, size=2 * scheme.n, dtype=np.uint8)
        before = len(calls)
        out1, out2 = e2e_run(scheme, demand, CFG, bits)
        assert len(calls) - before <= 2
        assert np.array_equal(out1, decode_bits(scheme, demand, 1, bits))
        assert np.array_equal(out2, decode_bits(scheme, demand, 2, bits))
    assert len(calls) <= 2


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


def test_power_calibration():
    # Smallest aligned gap is 1 and the transmit peak is 10, so a 20-sigma
    # gap needs sqrt(P) = 200.
    assert power_for_min_gap(CFG, 20.0) == pytest.approx(40000.0)


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


def test_monte_carlo_requires_power_and_trials():
    with pytest.raises(ValueError, match="power"):
        monte_carlo(CFG, trials=10, seed=0)
    with pytest.raises(ValueError, match="trials"):
        monte_carlo(PhyConfig(2, 3, 5, 7, power=1.0), trials=0, seed=0)
