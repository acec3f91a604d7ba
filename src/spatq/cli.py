"""Command-line entry points: gen, analyze, simulate, compare, reproduce."""
from __future__ import annotations

import argparse
import sys

from . import harness
from .geometry import (
    EUCLIDEAN,
    TOROIDAL,
    PcpParams,
    Window,
    sample_pcp,
    sample_ppp,
    write_pattern,
)


def _add_override_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config entry (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="override [simulation] seed")
    parser.add_argument("--theta-db", type=float, help="SIR threshold in dB")
    parser.add_argument("--lambda-b", type=float, help="station intensity")
    parser.add_argument("--lambda-u", type=float, help="user intensity")
    parser.add_argument("--alpha", type=float, help="path loss exponent")
    parser.add_argument("--outdir", help="output directory (default $SPATQ_OUTPUT_DIR)")


def _collect_overrides(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in args.overrides:
        if "=" not in item:
            raise SystemExit(f"bad --set {item!r}; expected SECTION.KEY=VALUE")
        dotted, value = item.split("=", 1)
        overrides[dotted.strip()] = value.strip()
    if args.seed is not None:
        overrides["simulation.seed"] = str(args.seed)
    if args.theta_db is not None:
        overrides["network.theta_db"] = str(args.theta_db)
    if args.lambda_b is not None:
        overrides["network.lambda_b"] = str(args.lambda_b)
    if args.lambda_u is not None:
        overrides["network.lambda_u"] = str(args.lambda_u)
    if args.alpha is not None:
        overrides["network.alpha"] = str(args.alpha)
    return overrides


def _cmd_gen(args) -> int:
    window = Window(args.width, args.height, args.metric)
    if args.mode == "ppp":
        pattern = sample_ppp(args.intensity, window, args.seed)
    else:
        params = PcpParams(lambda_p=args.lambda_p, lambda_c=args.lambda_c, r_c=args.r_c)
        pattern = sample_pcp(params, window, args.seed)
    write_pattern(pattern, args.out)
    print(f"wrote {len(pattern)} points to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    config = harness.load_config(args.config, _collect_overrides(args))
    path = harness.run_analytic_sweep(config, args.outdir)
    print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    config = harness.load_config(args.config, _collect_overrides(args))
    path = harness.run_simulation_sweep(config, args.outdir)
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    tolerances = harness.parse_tolerances(args.tolerances) if args.tolerances else {}
    report = harness.compare(args.analytic, args.simulated, tolerances, args.out)
    sys.stdout.write(report.summary())
    if args.out:
        print(f"wrote {args.out}")
    return 0 if report.passed else 1


def _cmd_reproduce(args) -> int:
    paths = harness.reproduce(args.figure, args.outdir, simulate=args.simulate)
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatq",
        description="Spatio-temporal traffic model: analytics, simulation, and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a point pattern and write it as a table")
    gen.add_argument("--mode", choices=["ppp", "pcp"], default="ppp")
    gen.add_argument("--intensity", type=float, default=1.0, help="ppp intensity")
    gen.add_argument("--lambda-p", type=float, help="pcp parent intensity")
    gen.add_argument("--lambda-c", type=float, help="pcp daughter intensity")
    gen.add_argument("--r-c", type=float, help="pcp cluster radius")
    gen.add_argument("--width", type=float, default=10.0)
    gen.add_argument("--height", type=float, default=10.0)
    gen.add_argument("--metric", choices=[TOROIDAL, EUCLIDEAN], default=TOROIDAL)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    analyze = sub.add_parser("analyze", help="evaluate closed forms over a sweep")
    _add_override_options(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    simulate = sub.add_parser("simulate", help="run the Monte Carlo engine over a sweep")
    _add_override_options(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    cmp_parser = sub.add_parser("compare", help="compare analytic and simulated CSVs")
    cmp_parser.add_argument("--analytic", required=True)
    cmp_parser.add_argument("--simulated", required=True)
    cmp_parser.add_argument(
        "--tolerances",
        default="",
        help="metric:tol[:informational],... ; unlisted metrics are informational",
    )
    cmp_parser.add_argument("--out", help="write the comparison table as CSV")
    cmp_parser.set_defaults(func=_cmd_compare)

    rep = sub.add_parser("reproduce", help="write canned figure sweep data")
    rep.add_argument("figure", choices=sorted(harness.FIGURES))
    rep.add_argument("--outdir", help="output directory (default $SPATQ_OUTPUT_DIR)")
    rep.add_argument(
        "--simulate",
        action="store_true",
        help="also run the Monte Carlo counterpart where the scenario defines one",
    )
    rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
