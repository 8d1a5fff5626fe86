"""Command line front end.

Two subcommands::

    polycycle analyze SYSTEM.json [--alpha A] [options]
    polycycle sweep SYSTEM.json --alphas SPEC [options]

Exit status: 0 when the analysis ran (whatever the verdict, including
"no change of variables found"), 1 on bad input (unreadable file,
invalid definition, origin without a complex pair, bad flags), 2 on
an internal failure.

Alpha values are passed as strings so exact arithmetic can honor them
literally: "0.05" means 1/20, and plain fractions like "1/20" work
too.  --alphas accepts either a comma list ("0.01,0.04,0.09") or a
linear grid "start:stop:count".
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .oracle import samples_to_csv
from .pipeline import AnalysisOptions, run_analyze, run_sweep, sweep_to_csv

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; here those are input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_shared(sub):
    sub.add_argument("system", help="path to a system definition (JSON)")
    sub.add_argument(
        "--variant",
        choices=("scaled", "unscaled"),
        default="scaled",
        help="amplitude formula variant (default: scaled)",
    )
    sub.add_argument(
        "--float",
        action="store_true",
        dest="use_float",
        help="solve the reduction in floating point instead of exact rationals",
    )
    sub.add_argument("--m", type=int, default=None, help="override the reduction degree m")
    sub.add_argument(
        "--no-measure", action="store_true", help="skip the numerical cross-check"
    )
    sub.add_argument("--seed-radius", type=float, default=None, help="oracle seed radius")
    sub.add_argument("--rtol", type=float, default=1e-10, help="integrator relative tolerance")
    sub.add_argument("--atol", type=float, default=1e-10, help="integrator absolute tolerance")
    sub.add_argument(
        "--amp-tol", type=float, default=0.1, help="relative amplitude tolerance for agreement"
    )
    sub.add_argument(
        "--period-tol", type=float, default=0.1, help="relative period tolerance for agreement"
    )
    sub.add_argument("--out", type=Path, default=None, help="directory for output files")


def _options(args, alpha) -> AnalysisOptions:
    return AnalysisOptions(
        alpha=alpha,
        exact=not args.use_float,
        variant=args.variant,
        m=args.m,
        measure=not args.no_measure,
        seed_radius=args.seed_radius,
        rtol=args.rtol,
        atol=args.atol,
        amp_tol=args.amp_tol,
        period_tol=args.period_tol,
    )


def _cmd_analyze(args) -> int:
    report = run_analyze(args.system, _options(args, args.alpha))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.json").write_text(report.to_json())
        (args.out / "report.txt").write_text(report.to_text())
        if report.predicted_curve is not None:
            (args.out / "predicted_cycle.csv").write_text(
                samples_to_csv(report.predicted_curve)
            )
        if report.measured_samples is not None:
            (args.out / "measured_cycle.csv").write_text(
                samples_to_csv(report.measured_samples)
            )
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return 0


def _parse_alphas(spec: str):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:count, got {spec!r}")
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be >= 1, got {count}")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    values = [v.strip() for v in spec.split(",") if v.strip()]
    if not values:
        raise ValueError("no alpha values given")
    return values


def _cmd_sweep(args) -> int:
    rows = run_sweep(args.system, _parse_alphas(args.alphas), _options(args, None))
    csv = sweep_to_csv(rows)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "sweep.csv"
        path.write_text(csv)
        sys.stdout.write(f"wrote {path}\n")
    else:
        sys.stdout.write(csv)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polycycle",
        description="Detect and size Hopf limit cycles of planar polynomial systems "
        "by polynomial reduction and averaging, cross-checked numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="analyze one system at one parameter value")
    _add_shared(analyze)
    analyze.add_argument("--alpha", default=None, help="parameter value (string, kept exact)")
    analyze.add_argument("--json", action="store_true", help="print the JSON report")
    analyze.set_defaults(func=_cmd_analyze)

    sweep = sub.add_parser("sweep", help="analyze a family over a parameter grid")
    _add_shared(sweep)
    sweep.add_argument(
        "--alphas", required=True, help='comma list "0.01,0.04" or grid "0.01:0.09:5"'
    )
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
