#!/usr/bin/env python3
"""Compare two output trees of scripts/dump_reports.py.

Usage:
    python3 scripts/compare_reports.py A B

Every file other than report.json (the CSV series) must be byte-identical.
When two CSV files differ but have the same header and row count, the
drift is printed under the mismatch, per column that moved: the number of
rows whose text differs and their largest relative difference, e.g.
`  w_normalized  4 of 256 rows  1.8e-15`.  Each pair of report.json files is walked in parallel: different keys, list
lengths or types, or a different string, boolean or null, is a mismatch.
Numbers may differ.  For each JSON path, with root keys and list indices
collapsed to *, the largest relative difference |a - b| / max(|a|, |b|) is
printed, e.g. `roots.*.h2.samples[*][*]  1.0e-14`.  The exit code is 0 only
when both trees hold the same files, every CSV is identical and every
report.json pair has the same structure.
"""

import argparse
import json
import math
import sys
from pathlib import Path


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative(a, b):
    """|a - b| / max(|a|, |b|): 0 for equal numbers (two nans included), inf
    when they differ and one of them is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) / max(abs(a), abs(b))
    return math.inf


def _number(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def csv_drift(path_a, path_b):
    """(rows, [(column, rows that differ, largest relative difference)] over
    the columns that moved) of two CSV files with the same header and row
    count; None when those differ.  A field that is not a number reads as
    nan."""
    rows_a = [line.split(",") for line in path_a.read_text().splitlines()]
    rows_b = [line.split(",") for line in path_b.read_text().splitlines()]
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return None
    drift = []
    for name, col_a, col_b in zip(rows_a[0], zip(*rows_a[1:]), zip(*rows_b[1:])):
        moved = [relative(_number(x), _number(y)) for x, y in zip(col_a, col_b) if x != y]
        if moved:
            drift.append((name, len(moved), max(moved)))
    return len(rows_a) - 1, drift


def walk(a, b, path, shifts, mismatches):
    """Walk two JSON values in parallel: the largest relative difference of
    the numbers under each path goes to shifts, any other difference to
    mismatches."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            mismatches.append(f"{path}: keys differ: {sorted(a.keys() ^ b.keys())}")
            return
        for key in a:
            child = "roots.*" if path == "roots" else f"{path}.{key}" if path else key
            walk(a[key], b[key], child, shifts, mismatches)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            mismatches.append(f"{path}: lengths {len(a)} != {len(b)}")
            return
        for x, y in zip(a, b):
            walk(x, y, f"{path}[*]", shifts, mismatches)
    elif _is_number(a) and _is_number(b):
        shift = relative(a, b)
        if shift == math.inf:
            mismatches.append(f"{path}: {a!r} != {b!r}")
            return
        shifts[path] = max(shifts.get(path, 0.0), shift)
    elif type(a) is not type(b) or a != b:
        mismatches.append(f"{path}: {a!r} != {b!r}")


def compare(a, b):
    """(shifts, mismatches) of trees a and b: shifts maps each report.json
    (relative path) to {JSON path: largest relative difference}, mismatches
    lists every difference that fails the comparison."""
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    mismatches = [f"only in {a}: {p}" for p in sorted(files_a - files_b)]
    mismatches += [f"only in {b}: {p}" for p in sorted(files_b - files_a)]
    shifts = {}
    for rel in sorted(files_a & files_b):
        if rel.name != "report.json":
            if (a / rel).read_bytes() != (b / rel).read_bytes():
                rows, drift = csv_drift(a / rel, b / rel) or (0, ())
                mismatches.append(f"{rel}: bytes differ" + "".join(
                    f"\n  {name}  {n} of {rows} rows  {shift:.1e}"
                    for name, n, shift in drift))
            continue
        found = []
        shifts[rel] = {}
        walk(json.loads((a / rel).read_text()), json.loads((b / rel).read_text()), "",
             shifts[rel], found)
        mismatches += [f"{rel}: {m}" for m in found]
    return shifts, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    shifts, mismatches = compare(args.a, args.b)
    for rel, per_path in shifts.items():
        moved = {path: shift for path, shift in per_path.items() if shift > 0.0}
        print(f"{rel}: differs at {len(moved)} of {len(per_path)} paths" if moved
              else f"{rel}: no difference")
        for path, shift in sorted(moved.items(), key=lambda item: -item[1]):
            print(f"  {path}  {shift:.1e}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
