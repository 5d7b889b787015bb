"""Fast checks of the benchmark's own machinery: span arithmetic and the checkers.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import dataclasses
import types
from fractions import Fraction

import numpy as np
import pytest

import cachealign
import cachealign.cli  # noqa: F401  (CliSession calls cachealign.cli.main)
from oracles import (
    CheckFailed,
    check_ser,
    exact_ser,
    integer_certificate,
    power_for_sigmas,
    rho_envelope,
)
from spans import OP, Tracer, calls_under, install, self_times
from workloads import Certify, CliSession, Deliver, Malformed, memory_in_slot, Slot


def test_self_time_subtracts_direct_children() -> None:
    spans = [
        [OP, 0.0, 10.0, None, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 4.0, 1, 0],
        ["c", 7.0, 9.0, 0, 0],
        ["b", 7.5, 8.0, 3, 0],
    ]
    times = self_times(spans)
    assert times[OP] == (1, pytest.approx(3.0))
    assert times["a"] == (1, pytest.approx(3.0))
    assert times["b"] == (2, pytest.approx(2.5))
    assert times["c"] == (1, pytest.approx(1.5))
    assert sum(s for _, s in times.values()) == pytest.approx(10.0)
    assert calls_under(spans, "a", "b") == 1
    assert calls_under(spans, OP, "b") == 2


def test_install_wraps_every_binding_and_counts() -> None:
    lib = types.SimpleNamespace()
    lib.inner = lambda x: x + 1
    user = types.SimpleNamespace(inner=lib.inner)  # bound by name, as `from lib import inner`
    lib.outer = lambda x: user.inner(x) * 2
    tracer = Tracer()
    installed = install(
        tracer,
        {"lib": lib, "user": user},
        {
            "lib.inner": lambda args, kwargs, result: {"lib.inner.sum": args[0]},
            "lib.outer": None,
            "lib.absent": None,
        },
    )
    assert installed == ["lib.inner", "lib.outer"]
    assert lib.outer(3) == 8  # no operation open: nothing recorded
    assert tracer.spans == []
    tracer.begin_op(0)
    assert lib.outer(3) == 8
    tracer.end_op()
    names = [span[0] for span in tracer.spans]
    assert names == [OP, "lib.outer", "lib.inner"]
    assert tracer.spans[2][3] == 1  # inner's parent is outer
    assert tracer.counts["lib.inner.sum"] == 3


def test_certify_check_rejects_a_wrong_rho() -> None:
    wl = Certify(cachealign, "")
    m = memory_in_slot(np.random.default_rng(0), Slot(0, (0.4, 0.6), (20, 30)))
    op = (m, 1, 2, 5)
    scheme, report = wl.run(op)
    wl.check(op, (scheme, report))
    wrong = dataclasses.replace(report, load=report.load + Fraction(1, scheme.n))
    with pytest.raises(CheckFailed, match="rho"):
        wl.check(op, (scheme, wrong))


def test_rho_envelope_corners() -> None:
    assert [rho_envelope(m) for m in (0, Fraction(1, 3), Fraction(4, 5), 2)] == [
        2,
        Fraction(4, 3),
        Fraction(4, 5),
        0,
    ]


def test_deliver_check_rejects_a_flipped_bit() -> None:
    wl = Deliver(cachealign, "")
    op = wl._ops_for(np.random.default_rng(1), Fraction(31, 179))[1]
    decoded = wl.run(op)
    wl.check(op, decoded)
    flipped = decoded[1].copy()
    flipped[3] ^= 1
    with pytest.raises(CheckFailed, match="decoded bits"):
        wl.check(op, (decoded[0], flipped))


# Passes the certificate at q = 16.
GAINS = (Fraction(7, 9), Fraction(16, 3), Fraction(11), Fraction(17, 11))


def test_ser_check_rejects_a_rate_outside_its_interval() -> None:
    p1, _ = exact_ser(GAINS, 4, power_for_sigmas(GAINS, 4, 2.0))
    check_ser(p1, 100_000, p1, "exact")
    with pytest.raises(CheckFailed):
        check_ser(p1 + 0.01, 100_000, p1, "off")


def test_exact_ser_agrees_with_the_program_monte_carlo() -> None:
    gains, q = GAINS, 4
    power = power_for_sigmas(gains, q, 2.0)
    result = cachealign.monte_carlo(cachealign.PhyConfig(*gains, q=q, power=power), 50_000, 3)
    p1, p2 = exact_ser(gains, q, power)
    check_ser(result.ser_user1, 50_000, p1, "user 1")
    check_ser(result.ser_user2, 50_000, p2, "user 2")


def test_integer_certificate_matches_known_verdicts() -> None:
    assert integer_certificate((1, 1, 1, 1), 2) is False
    assert integer_certificate((2, 3, 5, 7), 2) is True
    assert integer_certificate((2, 3, 5, 7), 4) is False
    assert integer_certificate(GAINS, 16) is True
    for q in (4, 8):
        assert integer_certificate((2, 3, 5, 7), q) == cachealign.uniqueness_certificate(
            cachealign.PhyConfig(2, 3, 5, 7, q=q)
        )


def test_malformed_check_wants_exit_2_and_one_error_line(tmp_path) -> None:
    wl = CliSession(cachealign, str(tmp_path))
    try:
        wl.check(Malformed(3), (2, "", "error: bad memory\n"))
        with pytest.raises(CheckFailed):
            wl.check(Malformed(3), (1, "", "Traceback (most recent call last):\n  ...\n"))
    finally:
        wl.close()
