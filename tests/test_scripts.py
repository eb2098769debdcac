import importlib.util
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_epsilon_study_smoke(capsys):
    load_script("run_epsilon_study").study([1e-3])
    row = capsys.readouterr().out.strip().splitlines()[-1].split()
    # eps, rho1, rho*A*vs, Phi, iters, residual, env ratio
    assert len(row) == 7
    assert row[1] == "5.000e-04"
    assert row[3] == "20.2312"
    assert float(row[6]) <= 1.0


def test_dump_reports_is_reproducible(tmp_path):
    dump = load_script("dump_reports").dump
    trees = []
    for name in ("a", "b"):
        targets = dump(tmp_path / name, ["standard"], [0])
        assert [t.name for t in targets] == ["standard-seed0", "standard-seed0-trace",
                                             "standard-seed0-solve", "standard-seed0-verify",
                                             "fail-window-root4", "fail-window-root1",
                                             "fail-domain-all", "fail-seed-roots123",
                                             "analyze-h2-powerlaw", "zero-report",
                                             "stiff-coarse"]
        trees.append({(t.name, p.name): p.read_bytes()
                      for t in targets for p in t.iterdir()})
    assert ("standard-seed0", "report.json") in trees[0]
    assert ("standard-seed0", "wronskian.csv") in trees[0]
    assert ("standard-seed0", "trace_root1.csv") not in trees[0]
    assert ("standard-seed0-trace", "trace_root1.csv") in trees[0]
    # the solve- and verify-mode trees: report.json and the z series, no
    # ratios_root*.csv and no wronskian.csv
    for mode in ("solve", "verify"):
        tree = f"standard-seed0-{mode}"
        assert sorted(p for t, p in trees[0] if t == tree) == (
            ["report.json"] + [f"z_root{i}.csv" for i in range(1, 5)])
        assert json.loads(trees[0][(tree, "report.json")])["problem"]["mode"] == mode
    # the analyze-mode problems: one report.json each
    assert [p for t, p in trees[0] if t.startswith(("fail-", "analyze-"))] == ["report.json"] * 5
    failing = json.loads(trees[0][("fail-window-root1", "report.json")])
    assert [failing["roots"][i]["status"] for i in "1234"] == ["error"] + ["analyzed"] * 3
    powerlaw = json.loads(trees[0][("analyze-h2-powerlaw", "report.json")])
    assert [powerlaw["roots"][i]["h2"]["verdict"] for i in "1234"] == ["PASS"] * 4
    # the zero forcing: a full report that passes, with every series
    assert sorted(p for t, p in trees[0] if t == "zero-report") == sorted(
        p for t, p in trees[0] if t == "standard-seed0")
    zero = json.loads(trees[0][("zero-report", "report.json")])
    assert zero["overall_pass"] and zero["problem"]["r"] == ["0"] * 4
    # the stiff spectrum on 256 nodes, whose run grid keeps 16 points: a full
    # report, one z row per node
    assert sorted(p for t, p in trees[0] if t == "stiff-coarse") == sorted(
        p for t, p in trees[0] if t == "standard-seed0")
    stiff = json.loads(trees[0][("stiff-coarse", "report.json")])
    assert stiff["problem"]["nodes"] == 256
    assert [stiff["roots"][i]["status"] for i in "1234"] == ["ok"] * 4
    assert trees[0][("stiff-coarse", "z_root1.csv")].count(b"\r\n") == 257
    assert trees[0] == trees[1]


def test_compare_reports_smoke(tmp_path, capsys):
    tree = load_script("dump_reports").dump(tmp_path / "a", ["standard"], [0])[0]
    compare = load_script("compare_reports").main
    assert compare([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.split("\n")[0].endswith("report.json: no difference")

    shutil.copytree(tmp_path / "a", tmp_path / "b")
    edited = tmp_path / "b" / tree.name / "report.json"
    report = json.loads(edited.read_text())
    report["roots"]["2"]["h2"]["samples"][3][1] *= 1.0 + 1e-9
    edited.write_text(json.dumps(report))
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith(f"{tree.name}/"))
    assert re.search(r"report\.json: differs at 1 of \d+ paths$", lines[at])
    path, shift = lines[at + 1].split()
    assert path == "roots.*.h2.samples[*][*]" and 5e-10 < float(shift) < 2e-9

    # a moved CSV value: a mismatch, with the drift of each column that moved
    series = tmp_path / "b" / tree.name / "z_root1.csv"
    lines = series.read_bytes().decode().split("\r\n")
    rows = [line.split(",") for line in lines]
    for k in (3, 7):
        rows[k][1] = repr(float(rows[k][1]) * (1.0 + 1e-12))
    series.write_bytes("\r\n".join(map(",".join, rows)).encode())
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index(f"MISMATCH {tree.name}/z_root1.csv: bytes differ")
    name, count, of, total, _, shift = out[at + 1].split()
    assert (name, count, of, total) == ("z", "2", "of", str(len(lines) - 2))
    assert 5e-13 < float(shift) < 2e-12
    assert not out[at + 2:] or out[at + 2].startswith("MISMATCH")

    # another header: only the mismatch
    series.write_bytes(series.read_bytes().replace(b"t,z,", b"t,zz,", 1))
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"MISMATCH {tree.name}/z_root1.csv: bytes differ"

    series.unlink()
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "MISMATCH only in" in capsys.readouterr().out


def test_run_biharmonic_smoke(tmp_path, monkeypatch, capsys):
    script = load_script("run_biharmonic")
    monkeypatch.setattr("sys.argv", ["run_biharmonic.py", "--out", str(tmp_path)])
    assert script.main() == 0
    assert (tmp_path / "report.json").is_file()
    assert "overall pass: True" in capsys.readouterr().out


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["ok"] and 0.0 < namespace["first"] <= 1.0
    assert namespace["code"] == 0


def _result_line(report_s, rss, correct=True):
    return json.dumps({"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
                       "metrics": {"report_s": {"value": report_s, "unit": "s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_bench_pairs_summary():
    script = load_script("bench_pairs")
    metrics = [("report_s", "lower", 0.25), ("peak_rss_mb", "lower", 0.1)]
    assert ("report_s", "lower", 0.25) in script.end_to_end_metrics(ROOT)
    # the change wins 9 of 10 pairs by 0.05 s; the parent's IQR is 0.005 s
    parent = [0.230 + 0.001 * k for k in range(10)]
    change = [p - 0.05 for p in parent[:9]] + [parent[9] + 0.001]
    pairs = [(script.parse_result(_result_line(p, 91.0), "parent"),
              script.parse_result(_result_line(c, 90.0 + k % 2), "change"))
             for k, (p, c) in enumerate(zip(parent, change))]
    timing, rss = script.summarize(metrics, pairs)
    assert timing["wins"] == 9 and timing["pairs"] == 10
    assert timing["parent"] == pytest.approx((0.23225, 0.2345, 0.23675))
    assert timing["iqr"] == pytest.approx(0.0045)
    assert timing["gap"] == pytest.approx(0.05) and timing["holds"]
    assert "wins 9/10" in script.format_row(timing)
    assert script.format_row(timing).endswith(": gain holds; within bound 0.25")
    # 5 wins and 5 ties: a median gap but too few wins
    assert rss["wins"] == 5 and rss["gap"] == pytest.approx(0.5) and not rss["holds"]
    # too few pairs, even when all are won
    assert not script.summarize(metrics, pairs[:9])[0]["holds"]
    with pytest.raises(ValueError, match="not correct"):
        script.parse_result(_result_line(0.2, 90.0, correct=False), "pair 1 change")


def test_bench_pairs_flags_a_regression():
    """A change whose median is worse than the parent's by more than the
    parent's IQR is 'regressed', in either direction of better."""
    script = load_script("bench_pairs")
    metrics = [("report_s", "lower", 0.25), ("peak_rss_mb", "lower", 0.1)]
    parent = [(0.230 + 0.001 * k, 91.0 + 0.01 * k) for k in range(10)]
    # report_s 0.02 s slower (IQR 0.0045 s); peak_rss_mb 0.03 MB higher (IQR 0.045 MB)
    pairs = [(script.parse_result(_result_line(p, r), "parent"),
              script.parse_result(_result_line(p + 0.02, r + 0.03), "change"))
             for p, r in parent]
    timing, rss = script.summarize(metrics, pairs)
    assert timing["regressed"] and not timing["holds"] and timing["wins"] == 0
    assert timing["gap"] == pytest.approx(-0.02)
    assert "wins 0/10" in script.format_row(timing)
    assert script.format_row(timing).endswith(": regressed; within bound 0.25")
    assert not rss["regressed"]
    assert script.format_row(rss).endswith(": no claimable gain; within bound 0.1")
    # higher is better: a fall of the median by more than the IQR regresses
    lower_is_worse = script.summarize([("report_s", "higher", 0.25)], pairs)[0]
    assert not lower_is_worse["regressed"] and lower_is_worse["wins"] == 10
    rising = [(c, p) for p, c in pairs]
    assert script.summarize([("report_s", "higher", 0.25)], rising)[0]["regressed"]


def test_bench_pairs_flags_a_change_beyond_its_bound():
    """The no-regression rule: worse than the parent's median by more than
    bound times that median, in either direction of better."""
    script = load_script("bench_pairs")
    parent = [0.230 + 0.001 * k for k in range(10)]

    def pairs(step):
        return [(script.parse_result(_result_line(p, 91.0), "parent"),
                 script.parse_result(_result_line(p + step, 91.0), "change"))
                for p in parent]

    # 0.0586 s is 0.25 of the parent's median 0.2345 s
    for worse, beyond in ((0.058, False), (0.059, True)):
        slower = script.summarize([("report_s", "lower", 0.25)], pairs(worse))[0]
        assert slower["regressed"] and slower["beyond_bound"] == beyond
        assert script.format_row(slower).endswith(
            "beyond bound 0.25" if beyond else "within bound 0.25")
        falling = script.summarize([("report_s", "higher", 0.25)], pairs(-worse))[0]
        assert falling["regressed"] and falling["beyond_bound"] == beyond


def test_bench_pairs_reports_a_failed_run(tmp_path, capsys):
    """A run that exits nonzero stops the script with status 1 and the tail
    of the run's stderr, not with a traceback."""
    checkout = tmp_path / "broken"
    (checkout / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    (checkout / "perfbench" / "run.py").write_text(
        "import sys\nprint('Traceback (most recent call last):', file=sys.stderr)\n"
        "sys.exit('ImportError: no module named riccati4')\n")
    script = load_script("bench_pairs")
    assert script.main([str(checkout), str(checkout), "--workload", "standard",
                        "--pairs", "1", "--seconds", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["pair 1 parent: run exited with status 1",
                   "Traceback (most recent call last):",
                   "ImportError: no module named riccati4"]


def test_bench_pairs_records_a_bench_entry(tmp_path):
    """--record writes each metric's per-pair values, quartiles, wins and
    verdicts, to the first BENCH_<n>.json not taken."""
    script = load_script("bench_pairs")
    metrics = [("report_s", "lower", 0.25), ("peak_rss_mb", "lower", 0.1)]
    parent = [0.230 + 0.001 * k for k in range(10)]
    pairs = [(script.parse_result(_result_line(p, 91.0), "parent"),
              script.parse_result(_result_line(p - 0.05, 91.0 + 0.2 * (k == 3)), "change"))
             for k, p in enumerate(parent)]
    commits = {"parent": "a" * 40, "change": "b" * 40 + "-dirty"}
    entry = script.bench_entry("hard", commits, 8.0, metrics, pairs, seed=3)
    paths = [script.record(tmp_path / "bench", entry) for _ in range(2)]
    assert [p.name for p in paths] == ["BENCH_1.json", "BENCH_2.json"]
    saved = json.loads(paths[0].read_text())
    assert saved == json.loads(json.dumps(entry))
    assert (saved["workload"], saved["parent"], saved["change"]) == ("hard", "a" * 40,
                                                                     "b" * 40 + "-dirty")
    assert saved["pairs"] == 10 and saved["seconds_per_run"] == 8.0 and saved["seed"] == 3
    assert script.bench_entry("hard", commits, 8.0, metrics, pairs)["seed"] == 0
    timing, rss = saved["metrics"]["report_s"], saved["metrics"]["peak_rss_mb"]
    assert timing["parent"] == parent
    assert timing["change"] == [p - 0.05 for p in parent]
    assert timing["parent_quartiles"] == pytest.approx([0.23225, 0.2345, 0.23675])
    assert timing["wins"] == 10 and timing["parent_iqr"] == pytest.approx(0.0045)
    assert (timing["verdict"], timing["bound_verdict"]) == ("gain holds", "within bound")
    assert rss["change"][3] == pytest.approx(91.2) and rss["wins"] == 0
    assert (rss["verdict"], rss["bound_verdict"]) == ("no claimable gain", "within bound")


def test_bench_pairs_record_from_the_command_line(tmp_path, capsys):
    """main --record runs the pairs and records the commit of each side: a
    git checkout's HEAD, dirty when a tracked file changed, None elsewhere."""
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    sides = {}
    for name, report_s in (("parent", 0.3), ("change", 0.2)):
        checkout = tmp_path / name
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "report_s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
        # each run checks that it got the seed of the command line
        (checkout / "perfbench" / "run.py").write_text(
            "import sys\nassert sys.argv[sys.argv.index('--seed') + 1] == '3'\n"
            f"print({_result_line(report_s, 90.0)!r})\n")
        sides[name] = checkout
    subprocess.run(git + ["init", "-q", str(sides["change"])], check=True)
    subprocess.run(git + ["-C", str(sides["change"]), "add", "-A"], check=True)
    subprocess.run(git + ["-C", str(sides["change"]), "commit", "-q", "-m", "change"],
                   check=True)
    script = load_script("bench_pairs")
    head = script.commit_of(sides["change"])
    assert re.fullmatch(r"[0-9a-f]{40}", head)
    (sides["change"] / "untracked.txt").write_text("")
    assert script.commit_of(sides["change"]) == head
    assert script.main([str(sides["parent"]), str(sides["change"]), "--workload", "hard",
                        "--pairs", "2", "--seconds", "1", "--seed", "3", "--record",
                        str(tmp_path / "bench")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("BENCH_1.json")
    saved = json.loads((tmp_path / "bench" / "BENCH_1.json").read_text())
    assert (saved["parent"], saved["change"], saved["pairs"]) == (None, head, 2)
    assert saved["seed"] == 3
    assert saved["metrics"]["report_s"]["change"] == [0.2, 0.2]
    (sides["change"] / "BENCHMARK.json").write_text("{}")
    assert script.commit_of(sides["change"]) == head + "-dirty"
