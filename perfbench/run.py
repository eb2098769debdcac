#!/usr/bin/env python3
"""Benchmark of `riccati4.report.run_report` on three workloads.

    python3 perfbench/run.py --workload standard --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Each workload's problem is generated from the seed,
written to an INI file and loaded with `load_problem_spec`, then passed to
`run_report` the way `riccati4 report` passes it: library defaults, mode
`report`, roots 1..4, a fresh output directory per call and no `jobs`
argument.  One client calls it back to back in a closed loop after one
untimed warm-up call, for `--seconds` seconds.  Every call's report is
checked (see `check_report`).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half traced and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object.
Exit status 2 means the benchmark could not run (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module)

ROOTS = (1, 2, 3, 4)
RESIDUAL_MAX = 1e-6
REFERENCE_TOL = 10.0     # reference tolerance in units of the spec's fp_tol
SETUP_REPEATS = 3

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import riccati4
from riccati4.problem import load_problem_spec
from riccati4.spectra import characteristic_data
spec = load_problem_spec(sys.argv[2])
characteristic_data(spec.a, root_tol=spec.root_tol, gap_tol=spec.gap_tol)
"""


def import_library():
    """Import riccati4 from the checkout's src/, never from elsewhere."""
    if not (SRC / "riccati4" / "__init__.py").is_file():
        raise ImportError(f"no riccati4 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import riccati4
    if Path(riccati4.__file__).resolve().parent != SRC / "riccati4":
        raise ImportError(f"riccati4 imported from {riccati4.__file__}, not {SRC}")
    return riccati4


# --- answer check ---------------------------------------------------------------

def check_report(report, reference, fp_tol):
    """Failed root runs of one call (0..4) and the reasons.

    A root run fails when its root does not pass, its status is not ok, its
    Riccati residual exceeds RESIDUAL_MAX, or (with a reference) its z_norm
    misses the reference.  When every root looks right but the call does
    not (overall_pass false, or the Wronskian missing its reference), all
    four root runs of the call fail.
    """
    if report is None:
        return len(ROOTS), ["run_report raised"]
    reasons = {}

    def close(value, expected):
        return value is not None and abs(value - expected) <= (
            REFERENCE_TOL * fp_tol * max(1.0, abs(expected)))

    for i in ROOTS:
        root = report["roots"].get(str(i))
        solve = (root or {}).get("solve") or {}
        residual = solve.get("riccati_residual_max")
        if root is None:
            reasons[i] = "missing"
        elif root["status"] != "ok" or root["pass"] is not True:
            reasons[i] = f"status {root['status']}, pass {root['pass']}"
        elif residual is None or residual > RESIDUAL_MAX:
            reasons[i] = f"residual {residual}"
        elif reference and not close(solve.get("z_norm"), reference["z_norm"][str(i)]):
            reasons[i] = (f"z_norm {solve.get('z_norm')!r} != "
                          f"{reference['z_norm'][str(i)]!r}")
    if reasons:
        return len(reasons), [f"root {i}: {r}" for i, r in reasons.items()]
    wronskian = (report.get("wronskian") or {}).get("normalized_at_tmax")
    if not report.get("overall_pass"):
        return len(ROOTS), ["overall_pass false"]
    if reference and not close(wronskian, reference["wronskian"]):
        return len(ROOTS), [f"wronskian {wronskian!r} != {reference['wronskian']!r}"]
    return 0, []


class Session:
    """Back-to-back run_report calls on one spec, each checked."""

    def __init__(self, spec, reference, work_dir):
        from riccati4 import report as report_module
        self.report_module = report_module
        self.spec = spec
        self.reference = reference
        self.work_dir = work_dir
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.problems = []      # benchmark-level faults (not root runs)

    def call(self, timed=True):
        """One run_report call; returns (wall s, process CPU s)."""
        out_dir = self.work_dir / f"call-{self.calls}"
        self.calls += 1
        out_dir.mkdir(parents=True)
        report = None
        start_cpu = time.process_time()
        start = time.perf_counter()
        try:
            # module attribute lookup at call time, so a traced run sees the patch
            report, _ = self.report_module.run_report(
                self.spec, roots=ROOTS, out_dir=str(out_dir), mode="report")
        except Exception:    # a crashing call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        shutil.rmtree(out_dir)
        if timed:
            failed, reasons = check_report(report, self.reference, self.spec.fp_tol)
            self.attempted += len(ROOTS)
            self.failed += failed
            self.reasons.extend(reasons)
        return wall, cpu

    def loop(self, seconds):
        """Timed calls for `seconds`: at least one, and no call that would
        be expected (at the median call time so far) to end past it."""
        samples = []
        deadline = time.perf_counter() + seconds
        while True:
            samples.append(self.call())
            typical = statistics.median(wall for wall, _ in samples)
            if time.perf_counter() + typical > deadline:
                return samples


# --- measurements -----------------------------------------------------------------

def measure_setup(ini):
    """Median wall seconds for a fresh interpreter to import riccati4, load
    the INI and compute the characteristic data."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(ini)],
                       check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def describe_samples(walls):
    n = len(walls)
    line = f"report_s: median {statistics.median(walls):.4f} s over n={n} calls"
    q = 1.0 - 10.0 / n
    if q > 0.5:
        pct = statistics.quantiles(walls, n=100, method="inclusive")[int(100 * q) - 1]
        return line + f"; p{int(100 * q)} {pct:.4f} s (>= 10 samples beyond it)"
    return line + "; no percentile above the median has 10 samples beyond it"


def untraced(session, seconds, ini):
    setup = measure_setup(ini)
    session.call(timed=False)
    samples = session.loop(seconds)
    walls = [w for w, _ in samples]
    print(describe_samples(walls))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "report_s": (statistics.median(walls), "s"),
        "report_cpu_s": (statistics.median(c for _, c in samples), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced(session, seconds, spans_path):
    import layers
    from tracer import Tracer

    session.call(timed=False)
    plain = [w for w, _ in session.loop(seconds / 2.0)]
    tracer = Tracer()
    tracer.install(layers.trace_targets(tracer), layers.PATCHED_OWNERS)
    try:
        walls = [w for w, _ in session.loop(seconds / 2.0)]
    finally:
        tracer.restore()
    spans = tracer.spans()
    write_spans(spans, spans_path)
    per_call = {}
    for span in spans:
        per_call.setdefault(span.call_id, []).append(span)
    rows = [layers.call_metrics(group) for group in per_call.values()]
    metrics = {name: (statistics.median(row[name] for row in rows), unit)
               for name, unit in layers.UNITS.items()}
    overhead = statistics.median(walls) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    balance = max(layers.root_balance(group) for group in per_call.values())
    shares = layers.layer_shares(spans)
    print(f"traced calls {len(walls)}, untraced calls {len(plain)}, "
          f"spans {len(spans)} -> {spans_path.name}")
    print("layer shares of self busy time: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in shares.items()))
    print(f"root-span balance (|sum of self times - span|, worst): {balance:.3g} s")
    if balance > 1e-6:
        session.problems.append(f"self times miss a root span by {balance} s")
    return metrics


def write_spans(spans, path):
    with open(path, "w") as handle:
        handle.write("span_id,parent_id,call_id,name,thread,start,end,"
                     "self_s,self_busy_s,count\n")
        for s in spans:
            handle.write(f"{s.span_id},{s.parent_id or ''},{s.call_id},{s.name},"
                         f"{s.thread},{s.start!r},{s.end!r},{s.self_s!r},"
                         f"{s.self_busy_s!r},{s.count}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_library()
    except ImportError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    from riccati4.problem import dump_problem_spec, load_problem_spec

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK / f"{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        ini = work_dir / "problem.ini"
        ini.write_text(dump_problem_spec(workloads.build_spec(args.workload, args.seed)))
        spec = load_problem_spec(ini)
        reference = None
        if args.seed == 0:
            with open(HERE / "reference.json") as handle:
                reference = json.load(handle)["workloads"][args.workload]
        session = Session(spec, reference, work_dir)
        if args.trace:
            metrics = traced(session, args.seconds, WORK / f"spans-{tag}.csv")
        else:
            metrics = untraced(session, args.seconds, ini)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"roots_failed_frac = {session.failed / session.attempted:.6g} ratio "
          f"({session.failed} of {session.attempted} root runs failed)")
    for reason in session.reasons[:20] + session.problems:
        print(f"check failed: {reason}")
    print(json.dumps({
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
