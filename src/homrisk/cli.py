"""Command-line front end.

Subcommands cover pack construction, occupancy queries, exact and Monte
Carlo risk, sample-size sweeps with CSV output, sample-complexity search,
and standalone homology of a point file.  Numeric output uses repr of
floats, so values round-trip exactly.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import geometry, harness, homology, lrt, occupancy

# Printed above every measured-risk result: the measurement is over the
# constructed pack-versus-deletion pair only, not any wider model class.
RISK_NOTE = "# risk measured over the constructed sphere-pack hypothesis pair only"

_MAX_CENTERS_SHOWN = 8


def _fmt(value: float) -> str:
    return repr(float(value))


def _cmd_pack(args: argparse.Namespace) -> int:
    pack = geometry.build_pack(args.d, args.D, args.tau)
    print(f"d={pack.intrinsic_dim}")
    print(f"D={pack.ambient_dim}")
    print(f"tau={_fmt(pack.radius)}")
    print(f"g={pack.grid_size}")
    print(f"m={pack.count}")
    print(f"total_volume={_fmt(pack.total_volume)}")
    print(f"density_floor={_fmt(geometry.density_floor(pack))}")
    ball = pack.count * geometry.unit_ball_volume(pack.intrinsic_dim) * pack.radius**pack.intrinsic_dim
    print(f"density_floor_ball_convention={_fmt(1.0 / ball)}")
    shown = min(pack.count, _MAX_CENTERS_SHOWN)
    print(f"centers (first {shown} of {pack.count}):")
    for row in pack.centers[:shown]:
        print("  " + ",".join(_fmt(v) for v in row))
    report = geometry.validate_pack(pack)
    for check in report.checks:
        state = "pass" if check.passed else "FAIL"
        print(f"check {check.name}: {state} ({check.detail})")
    return 0


def _cmd_coupon(args: argparse.Namespace) -> int:
    if args.asymptotic:
        if args.c is None:
            raise ValueError("--asymptotic needs --c")
        print(f"miss_prob_limit={_fmt(occupancy.coupon_limit(args.c))}")
        return 0
    if args.m is None or args.n is None:
        raise ValueError("exact mode needs --m and --n")
    hit = occupancy.prob_all_occupied(args.m, args.n)
    print(f"all_occupied={_fmt(hit)}")
    print(f"miss_prob={_fmt(1.0 - hit)}")
    return 0


def _cmd_risk_exact(args: argparse.Namespace) -> int:
    report = lrt.exact_lrt_risk(args.m, args.n)
    print(f"m={report.m}")
    print(f"n={report.n}")
    print(f"k_threshold={_fmt(report.k_threshold)}")
    print(f"type_I={_fmt(report.type_I)}")
    print(f"type_II={_fmt(report.type_II)}")
    print(f"total={_fmt(report.total)}")
    return 0


def _trial_config(args: argparse.Namespace, n: int) -> harness.TrialConfig:
    return harness.TrialConfig(
        intrinsic_dim=args.d,
        ambient_dim=args.D,
        radius=args.tau,
        n=n,
        trials=args.trials,
        master_seed=args.seed,
        test_kind=args.test,
        scale=getattr(args, "scale", None),
        delta=getattr(args, "delta", None),
    )


def _cmd_risk_mc(args: argparse.Namespace) -> int:
    estimate = harness.mc_risk(_trial_config(args, args.n))
    print(RISK_NOTE)
    print(f"test={args.test}")
    print(f"n={args.n}")
    print(f"trials={estimate.trials}")
    print(f"type_I_hat={_fmt(estimate.type_I_hat)}")
    print(f"type_II_hat={_fmt(estimate.type_II_hat)}")
    print(f"risk_hat={_fmt(estimate.risk_hat)}")
    print(f"stderr={_fmt(estimate.stderr)}")
    if estimate.exact_type_I is not None:
        print(f"exact_type_I={_fmt(estimate.exact_type_I)}")
        print(f"exact_type_II={_fmt(estimate.exact_type_II)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.n_step < 1:
        raise ValueError("--n-step must be >= 1")
    sizes = list(range(args.n_min, args.n_max + 1, args.n_step))
    rows = harness.sweep_n(_trial_config(args, args.n_min), sizes)
    harness.emit_csv(rows, args.out)
    print(RISK_NOTE)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    config = harness.TrialConfig(
        intrinsic_dim=args.d,
        ambient_dim=args.D,
        radius=args.tau,
        n=0,
        trials=1,
        master_seed=0,
        test_kind="lrt",
    )
    n = harness.sample_complexity(config, args.epsilon, range(args.n_max + 1))
    print(f"n_epsilon={n}")
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    points = geometry.load_points(args.input)
    budget = homology.DEFAULT_POINT_BUDGET
    profile = homology._budgeted_profile(points, args.scale, args.max_dim, budget)
    count = points.shape[0]
    print(f"points={count}")
    print(f"scale={_fmt(args.scale)}")
    for q, b in enumerate(profile.betti):
        print(f"betti_{q}={b}")
    if len(profile.betti) > 1:
        print(f"euler_characteristic={profile.euler_characteristic}")
    else:
        print(f"# {count} points exceed the full-complex budget of {budget}; higher degrees skipped")
    return 0


def _add_pack_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d", type=int, required=True, help="sphere dimension")
    sub.add_argument("--D", type=int, required=True, help="ambient dimension")
    sub.add_argument("--tau", type=float, required=True, help="sphere radius (give -inf as --tau=-inf)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homrisk",
        description="Sphere-pack testing bench: exact occupancy risk, Monte Carlo, homology.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("pack", help="build a pack and print its validation report")
    _add_pack_args(sub)
    sub.set_defaults(func=_cmd_pack)

    sub = subs.add_parser("coupon", help="probability that some sphere stays unsampled")
    sub.add_argument("--m", type=int, help="number of spheres (exact mode)")
    sub.add_argument("--n", type=int, help="number of points (exact mode)")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact finite-sample law (default)")
    mode.add_argument("--asymptotic", action="store_true", help="limit value 1 - exp(-exp(c))")
    sub.add_argument("--c", type=float, help="offset for the asymptotic form (give -inf as --c=-inf)")
    sub.set_defaults(func=_cmd_coupon)

    sub = subs.add_parser("risk-exact", help="exact likelihood-ratio risk at (m, n)")
    sub.add_argument("--m", type=int, required=True, help="number of spheres")
    sub.add_argument("--n", type=int, required=True, help="number of points")
    sub.set_defaults(func=_cmd_risk_exact)

    sub = subs.add_parser("risk-mc", help="Monte Carlo risk of a configured test")
    _add_pack_args(sub)
    sub.add_argument("--n", type=int, required=True, help="points per trial")
    sub.add_argument("--trials", type=int, required=True, help="trials per hypothesis side")
    sub.add_argument("--seed", type=int, required=True, help="master seed")
    sub.add_argument("--test", choices=harness.TEST_KINDS, required=True, help="test to run")
    sub.add_argument("--scale", type=float, help="estimator connectivity scale (default: tau)")
    sub.set_defaults(func=_cmd_risk_mc)

    sub = subs.add_parser("sweep", help="risk across sample sizes, written as CSV")
    _add_pack_args(sub)
    sub.add_argument("--n-min", type=int, required=True, help="first sample size")
    sub.add_argument("--n-max", type=int, required=True, help="last sample size (inclusive)")
    sub.add_argument("--n-step", type=int, required=True, help="sample size step")
    sub.add_argument("--trials", type=int, required=True, help="trials per hypothesis side")
    sub.add_argument("--seed", type=int, required=True, help="master seed")
    sub.add_argument("--test", choices=harness.TEST_KINDS, required=True, help="test to run")
    sub.add_argument("--delta", type=float, required=True, help="envelope cap level")
    sub.add_argument("--scale", type=float, help="estimator connectivity scale (default: tau)")
    sub.add_argument("--out", required=True, help="CSV output path")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("complexity", help="smallest n whose exact risk is <= epsilon")
    _add_pack_args(sub)
    sub.add_argument("--epsilon", type=float, required=True, help="risk target in (0, 1]")
    sub.add_argument("--n-max", type=int, required=True, help="largest n to scan")
    sub.set_defaults(func=_cmd_complexity)

    sub = subs.add_parser("homology", help="Betti profile of a point file")
    sub.add_argument("--input", required=True, help="point file, one comma-separated point per line")
    sub.add_argument("--scale", type=float, required=True, help="connectivity scale")
    sub.add_argument("--max-dim", type=int, required=True, help="top simplex dimension (<= 3)")
    sub.set_defaults(func=_cmd_homology)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
