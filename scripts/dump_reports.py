#!/usr/bin/env python3
"""Write the full report of each benchmark workload, to compare two checkouts
byte for byte.

Usage:
    python3 scripts/dump_reports.py OUT
    python3 scripts/dump_reports.py OUT --workloads standard --seeds 0

For every workload and seed it runs `run_report` on the problem that
`perfbench/workloads.py` builds and writes its files (report.json and every
CSV series) to OUT/<workload>-seed<s>/.  The defaults are all three
workloads at seeds 0 and 3.  The library and the workloads are imported from
the checkout that holds this script.  Run it in two checkouts and compare
the outputs with `diff -r`.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (the benchmark's problem builder, read-only)
from riccati4.report import run_report  # noqa: E402

SEEDS = (0, 3)


def dump(out, names=tuple(workloads.WORKLOADS), seeds=SEEDS):
    """Write OUT/<name>-seed<s>/ for every pair; returns the directories."""
    dirs = []
    for name in names:
        for seed in seeds:
            target = Path(out) / f"{name}-seed{seed}"
            run_report(workloads.build_spec(name, seed), out_dir=str(target))
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
