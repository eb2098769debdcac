#!/usr/bin/env python3
"""Write the full report of each benchmark workload, to compare two checkouts
byte for byte.

Usage:
    python3 scripts/dump_reports.py OUT
    python3 scripts/dump_reports.py OUT --workloads standard --seeds 0

For every workload and seed it runs `run_report` on the problem that
`perfbench/workloads.py` builds and writes its files (report.json and every
CSV series) to OUT/<workload>-seed<s>/.  The defaults are all three
workloads at seeds 0 and 3.  It also writes three more runs of the standard
workload at seed 0: one with `trace=True`, to OUT/standard-seed0-trace/, so
that the per-iteration `trace_root{i}.csv` series are compared too, and one
each in modes solve and verify, to OUT/standard-seed0-solve/ and
OUT/standard-seed0-verify/, so that the report.json those modes write is
compared as well; and the analyze-mode reports of four problems whose
roots fail, to OUT/fail-<name>/, so that the status and error of each
failing root are compared too: the standard spectrum with
r0 = 0.001 sin(2t)/(1+t)^3 (root 4's transform rises on the rho sample
window), the hard spectrum with r0 = 0.001 sin(t) e^-t (root 1's does), the
standard spectrum with r0 = 0.001 log(t - 1) (no root can evaluate it at
t0 = 0) and the standard spectrum with r0 = 0.001 e^(3t) (the rho tail seed
of roots 1-3 does not settle, and root 4's transform rises on the sample
window).  It also
writes the analyze-mode report of the standard spectrum with
r0 = 0.001/(1+t)^2, whose H2 functional decays like a power law and ends
within a factor 5 of H2_TOL, to OUT/analyze-h2-powerlaw/, and the full
report of the standard spectrum with r0..r3 = 0, to OUT/zero-report/, so
that the path of a zero forcing is compared too, and the full report of the
spectrum (40, 1, -1, -40) with r0 = 0.001 e^-t on 256 nodes, to
OUT/stiff-coarse/: there the fastest kernel rate times the widest panel is
8.65, so the run grid keeps the 16-point rule, and that branch is compared
too.  The library and the workloads are imported from the checkout that
holds this script.
Run it in two checkouts and compare the outputs with `diff -r`, or with
scripts/compare_reports.py when numbers are expected to move.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (the benchmark's problem builder, read-only)
from riccati4.report import run_report  # noqa: E402
from riccati4.spectra import vieta_coefficients  # noqa: E402

SEEDS = (0, 3)
# runs of the standard workload at seed 0 besides its report: tree suffix ->
# (trace, mode)
STANDARD_SEED0 = {"trace": (True, "report"), "solve": (False, "solve"),
                  "verify": (False, "verify")}
# problems with r1..r3 = 0: tree name -> (workload spectrum, r0, mode); the
# roots of the fail- trees fail; FIELDS overrides more of a problem's spec
PROBLEMS = {
    "fail-window-root4": ("standard", "0.001*sin(2*t)/(1+t)^3", "analyze"),
    "fail-window-root1": ("hard", "0.001*sin(t)*exp(-t)", "analyze"),
    "fail-domain-all": ("standard", "0.001*log(t-1)", "analyze"),
    "fail-seed-roots123": ("standard", "0.001*exp(3*t)", "analyze"),
    "analyze-h2-powerlaw": ("standard", "0.001/(1+t)^2", "analyze"),
    "zero-report": ("standard", "0", "report"),
    "stiff-coarse": ("standard", "0.001*exp(-t)", "report"),
}
FIELDS = {"stiff-coarse": dict(zip(("a3", "a2", "a1", "a0"),
                                   vieta_coefficients((40.0, 1.0, -1.0, -40.0))),
                               nodes=256)}


def dump(out, names=tuple(workloads.WORKLOADS), seeds=SEEDS):
    """Write OUT/<name>-seed<s>/ for every pair, then the trees
    OUT/standard-seed0-<suffix>/ of STANDARD_SEED0 and the trees of
    PROBLEMS; returns the directories."""
    runs = [(f"{name}-seed{seed}", name, seed, False, "report")
            for name in names for seed in seeds]
    runs += [(f"standard-seed0-{suffix}", "standard", 0, trace, mode)
             for suffix, (trace, mode) in STANDARD_SEED0.items()]
    dirs = []
    for tree, name, seed, trace, mode in runs:
        target = Path(out) / tree
        spec = replace(workloads.build_spec(name, seed), trace=trace)
        run_report(spec, out_dir=str(target), mode=mode)
        dirs.append(target)
    for name, (spectrum, r0, mode) in PROBLEMS.items():
        target = Path(out) / name
        spec = replace(workloads.build_spec(spectrum, 0), r0=r0, r1="0", r2="0", r3="0",
                       **FIELDS.get(name, {}))
        run_report(spec, out_dir=str(target), mode=mode)
        dirs.append(target)
    return dirs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    args = parser.parse_args(argv)
    for target in dump(args.out, args.workloads, args.seeds):
        print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
