"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 verification failure (a
FAIL line of verify, phy cert or e2e), 2 usage error (bad flags,
malformed files, out-of-range values).
Rational arguments are written as 'p/q' or bare integers.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import tradeoff
from .netchannel import Demand
from .phy import (
    MC_CSV_HEADER,
    PhyConfig,
    _check_seed,
    e2e_run,
    monte_carlo,
    uniqueness_certificate,
)
from .schemes import (
    CORNER_NAMES,
    corner_scheme,
    file_selector,
    parse_float,
    parse_fraction,
    parse_integer,
    read_scheme,
    scheme_for_memory,
    write_scheme,
)
from .verifier import decodable, verify_all

__all__ = ["main"]


def _fmt(f: Fraction) -> str:
    return f"{f} ({float(f):.6f})"


def _gains(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated gains, got {text!r}")
    return tuple(parse_fraction(p) for p in parts)


def _read(path: str) -> str:
    """The file's text as written: UTF-8, with no newline translation."""
    with open(path, encoding="utf-8", newline="") as file:
        return file.read()


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_corner(args) -> int:
    _write_or_print(write_scheme(corner_scheme(args.name)), args.output)
    return 0


def _cmd_verify(args) -> int:
    report = verify_all(read_scheme(_read(args.file)))
    print(report.render())
    return 0 if report.passed else 1


def _cmd_construct(args) -> int:
    m = parse_fraction(args.m)
    scheme = scheme_for_memory(m)
    metrics = (
        f"M {_fmt(scheme.memory)}  c {_fmt(scheme.load)}  rho {_fmt(scheme.rho)}  "
        f"rho_star {_fmt(tradeoff.rho_star(m))}"
    )
    _write_or_print(write_scheme(scheme), args.output)
    # The metrics stay off stdout while stdout carries the scheme.
    print(metrics, file=sys.stderr if args.output is None else sys.stdout)
    return 0


def _cmd_tradeoff(args) -> int:
    m = parse_fraction(args.m)
    rho = tradeoff.rho_star(m)
    print(f"M           {_fmt(m)}")
    print(f"rho_star    {_fmt(rho)}")
    print(f"inv_dof     {_fmt(tradeoff.inverse_dof(m))}")
    print(f"lower_bound {_fmt(tradeoff.dof_lower_bound(m))}")
    print(f"gap         {_fmt(tradeoff.optimality_gap(m))}")
    for check in tradeoff.check_converse(m, rho).checks:
        state = "tight" if check.tight else ("satisfied" if check.satisfied else "violated")
        print(f"converse {check.label}: slack {_fmt(check.slack)} {state}")
    return 0


def _cmd_sweep(args) -> int:
    rows = tradeoff.sweep(
        parse_fraction(args.start), parse_fraction(args.stop), parse_fraction(args.step)
    )
    csv_text = tradeoff.sweep_csv(rows, exact=args.exact)
    if args.csv is None:
        sys.stdout.write(csv_text)
    else:
        Path(args.csv).write_text(csv_text)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def _cmd_phy_cert(args) -> int:
    cfg = PhyConfig(*_gains(args.gains), q=parse_integer(args.q))
    if uniqueness_certificate(cfg):
        print("CERTIFICATE PASS")
        return 0
    print("CERTIFICATE FAIL")
    return 1


def _cmd_phy_mc(args) -> int:
    cfg = PhyConfig(*_gains(args.gains), q=parse_integer(args.q), power=parse_float(args.power))
    result = monte_carlo(cfg, trials=parse_integer(args.trials), seed=parse_integer(args.seed))
    print(MC_CSV_HEADER)
    print(result.csv_row())
    return 0


def _cmd_e2e(args) -> int:
    scheme = read_scheme(_read(args.scheme))
    demand = Demand.from_string(args.demand)
    cfg = PhyConfig(*_gains(args.gains))
    rng = np.random.default_rng(_check_seed(parse_integer(args.seed)))
    file_bits = rng.integers(0, 2, size=2 * scheme.n).astype(np.uint8)
    try:
        decoded = e2e_run(scheme, demand, cfg, file_bits)
    except ValueError:
        # e2e_run solves both users' cases before it refuses, so decodable
        # reads the kept solutions and solves nothing again.
        failing = [user for user in (1, 2) if decodable(scheme, demand, user) is None]
        if not failing:
            raise
        for user in failing:
            print(f"USER {user} FAIL not decodable")
        return 1
    ok = True
    for user, bits in zip((1, 2), decoded):
        expected = file_selector(scheme.n, demand.requested(user)).apply(file_bits)
        user_ok = bool(np.array_equal(bits, expected))
        ok = ok and user_ok
        print(f"USER {user} {'PASS' if user_ok else 'FAIL'}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="cachealign",
        description="Caching schemes and trade-off curves for the two-user "
        "interference network with an aligned physical layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corner", help="write one of the built-in schemes")
    p.add_argument("name", choices=CORNER_NAMES)
    p.add_argument("-o", "--output", default=None, help="scheme file (default: stdout)")
    p.set_defaults(func=_cmd_corner)

    p = sub.add_parser("verify", help="certify a scheme file for all demands and users")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="build the optimal scheme for a memory value")
    p.add_argument("--m", required=True, help="memory as p/q in [0, 2]")
    p.add_argument("-o", "--output", default=None, help="scheme file (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("tradeoff", help="curve values and converse slacks at one memory")
    p.add_argument("--m", required=True, help="memory as p/q in [0, 2]")
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("sweep", help="export curve rows over a memory grid")
    p.add_argument("--from", dest="start", required=True)
    p.add_argument("--to", dest="stop", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.add_argument("--exact", action="store_true", help="p/q cells instead of decimals")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("phy", help="physical-layer checks")
    phy_sub = p.add_subparsers(dest="phy_command", required=True)

    pc = phy_sub.add_parser("cert", help="uniqueness certificate for a gain/alphabet choice")
    pc.add_argument("--gains", required=True, help="h11,h12,h21,h22 as rationals")
    pc.add_argument("--q", default="2")
    pc.set_defaults(func=_cmd_phy_cert)

    pm = phy_sub.add_parser("mc", help="Monte Carlo symbol error rate")
    pm.add_argument("--gains", required=True, help="h11,h12,h21,h22 as rationals")
    pm.add_argument("--q", default="2")
    pm.add_argument("--power", required=True)
    pm.add_argument("--trials", required=True)
    pm.add_argument("--seed", default="0")
    pm.set_defaults(func=_cmd_phy_mc)

    p = sub.add_parser("e2e", help="deliver random files over the noiseless phy path")
    p.add_argument("--scheme", required=True)
    p.add_argument("--demand", required=True, help="one of AA, AB, BA, BB")
    p.add_argument("--gains", required=True, help="h11,h12,h21,h22 as rationals")
    p.add_argument("--seed", default="0")
    p.set_defaults(func=_cmd_e2e)

    # argparse reads a token that starts with "-" as a flag unless its
    # negative-number matcher takes it.  No option here starts with a digit
    # or a point, so a token that does, such as -1/2 or -1e3, is a value:
    # the value of the flag before it.
    for p in (parser, *sub.choices.values(), *phy_sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
