"""The four benchmark workloads: seeded inputs, one timed operation, its checks.

Each workload builds rounds of operations from a seeded generator.  A
round holds one operation per *slot*, and every slot draws from a
narrow band of memory values, granularities and loads, so that the
same kinds of operation make up every run whatever the seed.  Checks
compare outputs with the reference computations in ``oracles`` and run
outside the timed section.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import tempfile
from fractions import Fraction
from math import ceil, floor, isqrt

import numpy as np

from oracles import (
    check_decoded,
    check_ser,
    exact_ser,
    gap_is_zero,
    integer_certificate,
    power_for_sigmas,
    require,
    rho_envelope,
)

# The paper's corner schemes as (memory, granularity).  Used only to pick
# memory values whose optimal scheme has a chosen granularity.
CORNERS = ((Fraction(0), 2), (Fraction(1, 3), 3), (Fraction(4, 5), 5), (Fraction(2), 1))


@dataclasses.dataclass(frozen=True)
class Slot:
    """Memory values on one segment of the trade-off curve.

    *lam* is the band of the sharing weight of the segment's low corner;
    *n* the band of the granularity.
    """

    segment: int
    lam: tuple[float, float]
    n: tuple[int, int]


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 7), hi + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


def memory_in_slot(rng: np.random.Generator, slot: Slot) -> Fraction:
    """A memory value on the slot's segment whose optimal scheme has n in the band.

    Memory sharing of corners with granularities n1, n2 at weight p/q, q
    prime, gives granularity q exactly when n1 divides p and n2 divides
    q - p.
    """
    (m_lo, n1), (m_hi, n2) = CORNERS[slot.segment], CORNERS[slot.segment + 1]
    primes = _primes(*slot.n)
    while True:
        q = int(rng.choice(primes))
        picks = [
            p
            for p in range(max(1, ceil(slot.lam[0] * q)), min(q - 1, floor(slot.lam[1] * q)) + 1)
            if p % n1 == 0 and (q - p) % n2 == 0
        ]
        if picks:
            p = int(rng.choice(picks))
            return m_hi - (m_hi - m_lo) * Fraction(p, q)


def random_gains(rng: np.random.Generator, q: int, certified: bool = True) -> tuple[Fraction, ...]:
    """Small rational gains that pass (or, with certified=False, fail) the certificate at q."""
    while True:
        gains = tuple(
            Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 12))) for _ in range(4)
        )
        if integer_certificate(gains, q) == certified:
            return gains


def gains_arg(gains) -> str:
    return ",".join(f"{g.numerator}/{g.denominator}" for g in gains)


class Workload:
    """One seeded workload; subclasses define the round, the operation and its checks."""

    name: str
    round_s: float  # nominal seconds one round takes; sets the rounds per run

    def __init__(self, pkg, workdir: str) -> None:
        self.pkg = pkg
        self.workdir = workdir

    def close(self) -> None:
        pass


class Certify(Workload):
    """scheme_for_memory then verify_all at granularity n of several hundred.

    The dense observation-matrix products grow as n^3; segment 1 has a
    lower load than segment 0, so its band sits at larger n to give
    operations of similar cost.
    """

    name = "certify"
    round_s = 4.5
    slots = [Slot(0, lam, (560, 580)) for lam in ((0.2, 0.3), (0.45, 0.55), (0.7, 0.8))] + [
        Slot(1, lam, (700, 725)) for lam in ((0.2, 0.3), (0.45, 0.55), (0.7, 0.8))
    ]

    def make_round(self, rng):
        # (memory, demand index, user, file-bits seed); the last three pick
        # the case that the checks decode.
        return [
            (
                memory_in_slot(rng, slot),
                int(rng.integers(4)),
                int(rng.integers(1, 3)),
                int(rng.integers(2**31)),
            )
            for slot in self.slots
        ]

    def warm_up(self) -> None:
        self.run((Fraction(59, 557), 0, 1, 0))

    def run(self, op):
        scheme = self.pkg.schemes.scheme_for_memory(op[0])
        return scheme, self.pkg.verifier.verify_all(scheme)

    def check(self, op, out) -> None:
        m, demand_index, user, bits_seed = op
        scheme, report = out
        pkg = self.pkg
        require(scheme.memory == m and report.memory == m, f"M={m}: scheme memory {scheme.memory}")
        require(report.rho == rho_envelope(m), f"M={m}: rho {report.rho} != {rho_envelope(m)}")
        require(len(report.cases) == 8 and report.passed, f"M={m}: not all 8 cases PASS")
        demand = list(pkg.netchannel.Demand)[demand_index]
        bits = np.random.default_rng(bits_seed).integers(0, 2, 2 * scheme.n).astype(np.uint8)
        decoded = pkg.verifier.decode_bits(scheme, demand, user, bits)
        check_decoded(decoded, bits, scheme.n, demand.requested(user))
        # Negative control: with every delivery zeroed, a cache below one
        # file cannot hold the demanded file.
        zeroed = dataclasses.replace(
            scheme,
            delivery={
                d: type(quad)(*(pkg.gf2.BitMatrix.zeros(*mat.shape) for mat in quad))
                for d, quad in scheme.delivery.items()
            },
        )
        require(
            pkg.verifier.decodable(zeroed, demand, user) is None,
            f"M={m}: scheme with zeroed deliveries still decodes",
        )


class Deliver(Workload):
    """e2e_run over the noiseless aligned channel, all four demands, small n."""

    name = "deliver"
    round_s = 0.38
    slots = [Slot(s, lam, (120, 200)) for s in (0, 1, 2) for lam in ((0.1, 0.5), (0.5, 0.9))]

    def _ops_for(self, rng, m):
        pkg = self.pkg
        scheme = pkg.schemes.scheme_for_memory(m)
        cfg = pkg.phy.PhyConfig(*random_gains(rng, 2), q=2)
        bits = rng.integers(0, 2, 2 * scheme.n).astype(np.uint8)
        return [(scheme, d, cfg, bits) for d in pkg.netchannel.Demand]

    def make_round(self, rng):
        return [op for slot in self.slots for op in self._ops_for(rng, memory_in_slot(rng, slot))]

    def warm_up(self) -> None:
        for op in self._ops_for(np.random.default_rng(0), Fraction(31, 179))[:1]:
            self.run(op)

    def run(self, op):
        return self.pkg.phy.e2e_run(*op)

    def check(self, op, out) -> None:
        scheme, demand, _, bits = op
        for user, decoded in zip((1, 2), out):
            check_decoded(decoded, bits, scheme.n, demand.requested(user))


class Noise(Workload):
    """A cold q=16 certificate, then Monte Carlo at q = 2, 4, 8, per fresh gain set."""

    name = "noise"
    round_s = 0.9
    trials = 200_000
    cert_q = 16
    mc_q = (2, 4, 8)
    # Noise deviations at the smallest received gap: symbol error rates
    # from about 0.9 down to about 1e-2.
    sigmas = (0.8, 5.0)

    def _op(self, rng):
        gains = random_gains(rng, self.cert_q)
        mc = [
            (q, power_for_sigmas(gains, q, rng.uniform(*self.sigmas)), int(rng.integers(2**31)))
            for q in self.mc_q
        ]
        return gains, mc, random_gains(rng, 8, certified=False)

    def make_round(self, rng):
        return [self._op(rng)]

    def warm_up(self) -> None:
        self.run(self._op(np.random.default_rng(0)))

    def run(self, op):
        gains, mc, _ = op
        phy = self.pkg.phy
        verdict = phy.uniqueness_certificate(phy.PhyConfig(*gains, q=self.cert_q))
        results = [
            phy.monte_carlo(phy.PhyConfig(*gains, q=q, power=power), self.trials, seed)
            for q, power, seed in mc
        ]
        return verdict, results

    def check(self, op, out) -> None:
        gains, mc, failing = op
        verdict, results = out
        phy = self.pkg.phy
        require(
            verdict == integer_certificate(gains, self.cert_q),
            f"gains {gains}: certificate verdict {verdict}",
        )
        for bad in (failing, (1, 1, 1, 1)):
            require(
                phy.uniqueness_certificate(phy.PhyConfig(*bad, q=8)) == integer_certificate(bad, 8),
                f"gains {bad}: certificate verdict disagrees with the integer re-check",
            )
        for (q, power, _), result in zip(mc, results):
            p1, p2 = exact_ser(gains, q, power)
            check_ser(result.ser_user1, result.trials, p1, f"q={q} P={power:.4g} user 1")
            check_ser(result.ser_user2, result.trials, p2, f"q={q} P={power:.4g} user 2")


@dataclasses.dataclass(frozen=True)
class Session:
    m: Fraction
    demand: str
    gains: tuple
    seed: int


@dataclasses.dataclass(frozen=True)
class Malformed:
    numerator: int


class CliSession(Workload):
    """User sessions through cli.main, in-process, plus one malformed command per round.

    ``construct --m p/0`` must exit 2 with one ``error:`` line; today it
    raises ZeroDivisionError, so it counts as a failed operation.
    """

    name = "cli-session"
    round_s = 4.0
    slots = [
        Slot(0, (0.3, 0.5), (286, 298)),
        Slot(0, (0.5, 0.7), (286, 298)),
        Slot(1, (0.3, 0.7), (336, 348)),
        Slot(2, (0.3, 0.7), (386, 398)),
    ]

    def __init__(self, pkg, workdir: str) -> None:
        super().__init__(pkg, workdir)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.scheme_path = os.path.join(self.dir, "s.scheme")
        self.csv_path = os.path.join(self.dir, "curve.csv")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _session(self, rng, m):
        demand = ("AA", "AB", "BA", "BB")[int(rng.integers(4))]
        return Session(m, demand, random_gains(rng, 2), int(rng.integers(2**31)))

    def make_round(self, rng):
        ops = [self._session(rng, memory_in_slot(rng, slot)) for slot in self.slots]
        return ops + [Malformed(int(rng.integers(1, 100)))]

    def warm_up(self) -> None:
        self.run(self._session(np.random.default_rng(0), Fraction(37, 151)))

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def commands(self, op) -> list[list[str]]:
        m = f"{op.m.numerator}/{op.m.denominator}"
        return [
            ["construct", "--m", m, "-o", self.scheme_path],
            ["verify", self.scheme_path],
            ["tradeoff", "--m", m],
            ["e2e", "--scheme", self.scheme_path, "--demand", op.demand,
             "--gains", gains_arg(op.gains), "--seed", str(op.seed)],
            ["sweep", "--from", "0", "--to", "2", "--step", f"1/{op.m.denominator}",
             "--exact", "--csv", self.csv_path],
        ]

    def run(self, op):
        if isinstance(op, Malformed):
            return self._cli(["construct", "--m", f"{op.numerator}/0"])
        return [self._cli(argv) for argv in self.commands(op)]

    def check(self, op, out) -> None:
        if isinstance(op, Malformed):
            code, _, err = out
            lines = err.strip().splitlines()
            require(code == 2, f"construct --m {op.numerator}/0 exited {code}, expected 2")
            require(
                len(lines) == 1 and lines[0].startswith("error:"),
                f"expected one error line, got {err!r}",
            )
            return
        _, verify, trade, e2e, _ = out
        m = op.m
        for label, (code, _, err) in zip(("construct", "verify", "tradeoff", "e2e", "sweep"), out):
            require(code == 0, f"M={m}: {label} exited {code}: {err.strip()[-200:]}")
        require("OVERALL PASS" in verify[1], f"M={m}: verify did not PASS")
        require("USER 1 PASS" in e2e[1] and "USER 2 PASS" in e2e[1], f"M={m}: e2e did not PASS")
        rho = [ln.split()[1] for ln in trade[1].splitlines() if ln.startswith("rho_star")]
        require(rho == [str(rho_envelope(m))], f"M={m}: tradeoff rho_star {rho}")
        with open(self.csv_path) as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()[1:]]
        q = m.denominator
        require(len(rows) == 2 * q + 1, f"sweep step 1/{q}: {len(rows)} rows, expected {2 * q + 1}")
        for i, row in enumerate(rows):
            mem = Fraction(row[0])
            require(mem == Fraction(i, q), f"sweep row {i}: M {row[0]}")
            require(Fraction(row[1]) == rho_envelope(mem), f"sweep M={mem}: rho_star {row[1]}")
            require((Fraction(row[4]) == 0) == gap_is_zero(mem), f"sweep M={mem}: gap {row[4]}")


WORKLOADS = {w.name: w for w in (Certify, Deliver, Noise, CliSession)}
