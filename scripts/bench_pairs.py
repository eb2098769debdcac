#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload with alternating pairs.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload hard --pairs 10 --seconds 8
    python3 scripts/bench_pairs.py PARENT CHANGE --workload hard --record bench
    python3 scripts/bench_pairs.py PARENT CHANGE --workload hard --seed 3

Each pair runs `perfbench/run.py --workload W --seed S --trace 0` once in
each checkout, one after the other; S is `--seed`, 0 by default, and another
seed is a held-out check of a gain measured at seed 0.  The side that runs
first alternates from pair to pair, so a drift in the machine's speed hits
both alike.  The
end-to-end metrics and the direction in which each is better are read from
PARENT's BENCHMARK.json, the declaration the change is judged by.  For
each metric the script prints both sides' median and quartiles, how many
pairs the change wins, and a verdict: "gain holds" when a claimed gain
would hold (at least nine tenths of 10 or more pairs won, and a median gap
in the better direction larger than the parent's interquartile range),
"regressed" when the change's median is worse than the parent's by more
than the parent's interquartile range, and "no claimable gain" otherwise.
Next to it, the no-regression rule: "within bound" or "beyond bound" as
the change's median is worse than the parent's by at most, or by more
than, the metric's `bound` in PARENT's BENCHMARK.json times the parent's
median.
A run that is not `correct`, or that exits nonzero, stops the script with
exit status 1; for a run that exits nonzero it first prints the last lines
of its stderr.

With `--record DIR` the script also writes DIR/BENCH_<n>.json, n the
first number not taken there: both checkouts' commits (HEAD's hash, with
"-dirty" when tracked files differ from it, null outside a git checkout),
the workload, the seed, the pair count, the seconds per run, the host's CPU count and
Python version, and for each end-to-end metric the per-pair values of both
sides, their quartiles, the wins and both verdicts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
MIN_WIN_FRAC = 0.9
STDERR_LINES = 10


def end_to_end_metrics(checkout):
    """[(name, better, bound)] of the end-to-end metrics in
    checkout/BENCHMARK.json."""
    bench = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]


def parse_result(line, label):
    """The metric values {name: value} of one run's final JSON line;
    ValueError when the run is not correct."""
    result = json.loads(line)
    if not result.get("correct"):
        raise ValueError(f"{label}: run not correct "
                         f"({result.get('failed')} of {result.get('attempted')} root runs failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(metrics, pairs):
    """One row per metric from pairs of (parent values, change values).

    A pair is won when the change is strictly better.  `holds` is the rule
    for a claimed gain: at least MIN_PAIRS pairs, at least MIN_WIN_FRAC of
    them won, and the median gap in the better direction larger than the
    parent's interquartile range.  `regressed` is the mirror test on the
    median alone: a median gap in the worse direction larger than that
    range.  `beyond_bound` is the no-regression rule: a median gap in the
    worse direction larger than bound times the parent's median."""
    rows = []
    for name, better, bound in metrics:
        sign = 1.0 if better == "lower" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gap = sign * (pq[1] - cq[1])
        iqr = pq[2] - pq[0]
        holds = (len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_FRAC * len(pairs)
                 and gap > iqr)
        rows.append({"name": name, "better": better, "parent": pq, "change": cq,
                     "wins": wins, "pairs": len(pairs), "gap": gap, "iqr": iqr,
                     "holds": holds, "regressed": -gap > iqr,
                     "bound": bound, "beyond_bound": -gap > bound * abs(pq[1])})
    return rows


def verdicts(row):
    """(IQR verdict, bound verdict) of one summarize row."""
    gain = ("gain holds" if row["holds"] else
            "regressed" if row["regressed"] else "no claimable gain")
    return gain, f"{'beyond' if row['beyond_bound'] else 'within'} bound"


def format_row(row):
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    gain, bound = verdicts(row)
    return (f"{row['name']} ({row['better']} is better): parent {side(row['parent'])}, "
            f"change {side(row['change'])}, wins {row['wins']}/{row['pairs']}, "
            f"gap {row['gap']:+.4g} vs parent IQR {row['iqr']:.4g}: {gain}; "
            f"{bound} {row['bound']:g}")


def commit_of(checkout):
    """HEAD's hash in checkout, with "-dirty" when tracked files differ from
    it; None when checkout is not the top of a git checkout."""
    if not (Path(checkout) / ".git").exists():
        return None

    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def bench_entry(workload, commits, seconds, metrics, pairs, seed=0):
    """The BENCH_<n>.json record of one workload's pairs at one seed;
    commits is {"parent": hash, "change": hash}."""
    metric_rows = {}
    for row in summarize(metrics, pairs):
        name = row["name"]
        gain, bound = verdicts(row)
        metric_rows[name] = {
            "better": row["better"], "bound": row["bound"],
            "parent": [p[name] for p, _ in pairs], "change": [c[name] for _, c in pairs],
            "parent_quartiles": list(row["parent"]), "change_quartiles": list(row["change"]),
            "wins": row["wins"], "gap": row["gap"], "parent_iqr": row["iqr"],
            "verdict": gain, "bound_verdict": bound,
        }
    return {"workload": workload, "seed": seed,
            "parent": commits["parent"], "change": commits["change"],
            "pairs": len(pairs), "seconds_per_run": seconds,
            "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
            "metrics": metric_rows}


def record(directory, entry):
    """Write entry to directory/BENCH_<n>.json, n the first number not taken
    there; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = 1
    while (directory / f"BENCH_{n}.json").exists():
        n += 1
    path = directory / f"BENCH_{n}.json"
    path.write_text(json.dumps(entry, indent=2) + "\n")
    return path


def run_once(checkout, workload, seconds, seed=0):
    """The final JSON line of one untraced perfbench run in checkout."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0", "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0,
                        help="the workload seed of every run (default 0)")
    parser.add_argument("--record", metavar="DIR",
                        help="also write the pairs to DIR/BENCH_<n>.json")
    args = parser.parse_args(argv)

    metrics = end_to_end_metrics(args.parent)
    first = metrics[0][0]
    sides = {"parent": args.parent, "change": args.change}
    # the commits that run, read before the first run
    commits = {label: commit_of(where) for label, where in sides.items()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        values = {}
        for label in order:
            where = f"pair {i + 1} {label}"
            try:
                line = run_once(sides[label], args.workload, args.seconds, args.seed)
                values[label] = parse_result(line, where)
            except subprocess.CalledProcessError as exc:
                tail = exc.stderr.strip().splitlines()[-STDERR_LINES:]
                print(f"{where}: run exited with status {exc.returncode}",
                      *tail, sep="\n", file=sys.stderr)
                return 1
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 1
        pairs.append((values["parent"], values["change"]))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
            f"{label} {first} {values[label][first]:.4g}" for label in sides),
            flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {len(pairs)} pairs, "
          f"{args.seconds:g} s per run")
    for row in summarize(metrics, pairs):
        print(format_row(row))
    if args.record:
        path = record(args.record, bench_entry(args.workload, commits, args.seconds,
                                               metrics, pairs, args.seed))
        print(f"recorded {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
