"""Command line interface.

Subcommands:
    analyze            constants, class bounds, decay checks (no solve)
    solve              Picard fixed points with residual certificates
    verify             solve + oracle cross-validation
    report             the full pipeline incl. synthesis, envelopes, Wronskian
    preset-biharmonic  emit a problem file for the radial biharmonic reduction

Exit codes: 0 all checks pass, 1 numerical failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from .errors import ConfigError, SolverError
from .problem import biharmonic_preset, dump_problem_spec, load_problem_spec
from .report import run_report


def _add_run_arguments(sub):
    sub.add_argument("--config", required=True, help="problem file (INI sections "
                     "[equation], [domain], [solver])")
    sub.add_argument("--roots", default="1,2,3,4",
                     help="comma-separated root indices to process")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--trace", action="store_true",
                     help="write per-iteration snapshots (iter,t,z,dz,d2z)")
    sub.add_argument("--fp-tol", type=float, default=None)
    sub.add_argument("--quad-tol", type=float, default=None)
    sub.add_argument("--root-tol", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riccati4",
        description="Asymptotics of perturbed fourth-order linear ODEs via "
                    "third-order Riccati reduction and Green-kernel iteration",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "hypothesis checks and contraction constants only"),
        ("solve", "Picard fixed points with residual certificates"),
        ("verify", "solve plus oracle cross-validation"),
        ("report", "full pipeline with synthesis and Wronskian"),
    ):
        _add_run_arguments(subs.add_parser(name, help=help_text))

    preset = subs.add_parser("preset-biharmonic",
                             help="emit a problem file for the radial "
                                  "biharmonic reduction")
    preset.add_argument("--n", type=int, required=True, help="space dimension (>= 5)")
    preset.add_argument("--p", type=float, required=True,
                        help="exponent p > (n+4)/(n-4)")
    preset.add_argument("--out", default=None,
                        help="write the problem file here (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "preset-biharmonic":
            spec = biharmonic_preset(args.n, args.p)
            text = dump_problem_spec(spec)
            if args.out:
                with open(args.out, "w") as handle:
                    handle.write(text)
            else:
                _sys.stdout.write(text)
            return 0

        spec = load_problem_spec(args.config)
        overrides = {}
        if args.fp_tol is not None:
            overrides["fp_tol"] = args.fp_tol
        if args.quad_tol is not None:
            overrides["quad_tol"] = args.quad_tol
        if args.root_tol is not None:
            overrides["root_tol"] = args.root_tol
        if args.trace:
            overrides["trace"] = True
        if overrides:
            from dataclasses import replace
            spec = replace(spec, **overrides).validate()
        roots = tuple(int(tok) for tok in args.roots.split(",") if tok.strip())
        if not roots or any(i not in (1, 2, 3, 4) for i in roots):
            raise ConfigError("--roots must list indices from 1..4")

        report, code = run_report(spec, roots=roots, out_dir=args.out,
                                  mode=args.command)
        summary = {
            "overall_pass": report["overall_pass"],
            "roots": {
                k: {"status": v["status"], "pass": v["pass"]}
                for k, v in report["roots"].items()
            },
        }
        print(json.dumps(summary, indent=2))
        return code
    except ConfigError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
