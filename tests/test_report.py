import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from riccati4 import quadrature
from riccati4 import report as report_module
from riccati4.picard import default_grid
from riccati4.problem import ProblemSpec
from riccati4.report import _text, _write_csv, run_report
from riccati4.spectra import characteristic_data

EPS_SPEC = ProblemSpec(a3=0.0, a2=-5.0, a1=0.0, a0=4.0,
                       r0="0.001*exp(-t)", nodes=512)


@pytest.fixture(scope="module")
def eps_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep")
    report, code = run_report(EPS_SPEC, out_dir=str(out))
    return report, code, out


def test_overall_pass_and_exit_code(eps_report):
    report, code, _ = eps_report
    assert code == 0 and report["overall_pass"]


def test_schema_stability(eps_report):
    report, _, out = eps_report
    on_disk = json.loads((out / "report.json").read_text())
    assert set(on_disk) == {"problem", "characteristic", "roots", "wronskian",
                            "overall_pass"}
    expected_root_keys = {"lambda", "gamma", "case", "constants", "h2", "solve",
                          "certificates", "synthesis", "oracle", "status",
                          "error", "pass"}
    certificate_keys = {"beta", "envelope_ratio_max", "envelope_ok",
                        "first_iterate_ratio"}
    for payload in on_disk["roots"].values():
        assert set(payload) == expected_root_keys
        assert set(payload["certificates"]) == certificate_keys
    # every serialized number is finite or null
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert np.isfinite(node)
    walk(on_disk)


def test_report_details(eps_report):
    report, _, _ = eps_report
    for i in ("1", "2", "3", "4"):
        root = report["roots"][i]
        assert root["solve"]["orientation"] == "direct"
        assert root["solve"]["riccati_residual_max"] <= 1e-6
        assert root["h2"]["verdict"] == "PASS"
        # the envelope certifies the delivered z
        assert root["certificates"]["envelope_ok"] is True
    assert report["roots"]["1"]["constants"]["Phi"] == pytest.approx(20.2312, rel=1e-4)
    assert report["wronskian"]["rel_error"] <= 0.01


def test_wronskian_csv_written(eps_report):
    _, _, out = eps_report
    lines = (out / "wronskian.csv").read_text().splitlines()
    assert lines[0] == "t,w_normalized"
    assert len(lines) > 100


def test_one_hermite_basis_per_run(monkeypatch):
    """Every stage of every root shares the run's one panel grid, so its
    Hermite basis is computed once."""
    calls = []
    basis = quadrature.hermite_basis

    def counted(*args):
        calls.append(args)
        return basis(*args)

    monkeypatch.setattr(quadrature, "hermite_basis", counted)
    report, _ = run_report(EPS_SPEC)
    assert report["overall_pass"]
    assert len(calls) == 1


def test_root_subset_skips_wronskian(tmp_path):
    report, code = run_report(EPS_SPEC, roots=(1,), out_dir=str(tmp_path / "o"))
    assert code == 0
    assert report["wronskian"] is None
    assert list(report["roots"]) == ["1"]


@pytest.mark.parametrize("roots", [(0,), (1, 5), (1.7,)])
def test_bad_root_index_is_rejected_before_any_work(tmp_path, monkeypatch, roots):
    def unexpected(*args, **kwargs):
        raise AssertionError("the quartic was solved")

    monkeypatch.setattr(report_module, "characteristic_data", unexpected)
    out = tmp_path / "never"
    with pytest.raises(ValueError, match="root indices"):
        run_report(EPS_SPEC, roots=roots, out_dir=str(out))
    assert not out.exists()


# floats whose text is easy to get wrong: specials, signed zero, the smallest
# subnormal, both sides of repr's switches to exponent form, the largest double
AWKWARD = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e-05,
           0.0001, 1e16, 1e15, 1.7976931348623157e+308, 0.1]


def test_csv_writer_bytes_match_csv_module(tmp_path):
    # more rows than one write block, so block joins are covered
    values = np.tile(np.array(AWKWARD), 250)
    counts = list(range(1, values.size + 1))
    header = ["iter", "x", "x_text"]
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(header)
    writer.writerows(zip(counts, values, values))
    path = tmp_path / "series.csv"
    # an int text column, a float array and the same floats as text
    _write_csv(path, header, [[str(n) for n in counts], values, _text(values)])
    assert path.read_bytes() == reference.getvalue().encode()


def _columns(path):
    """{header: column text} of a CSV file written by run_report."""
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[-1] == ""            # the last line ends in CRLF too
    rows = [line.split(",") for line in lines[1:-1]]
    return dict(zip(lines[0].split(","), zip(*rows)))


@pytest.fixture(scope="module")
def traced_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    report, _ = run_report(replace(EPS_SPEC, trace=True), out_dir=str(out))
    return report, out


def test_run_files_share_one_node_column(traced_report):
    report, out = traced_report
    grid = default_grid(characteristic_data(EPS_SPEC.a), EPS_SPEC.t0, EPS_SPEC.nodes)
    for path in out.glob("*.csv"):
        data = path.read_bytes()
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")
    t = _columns(out / "z_root1.csv")["t"]
    # every double of the grid reads back exactly
    assert [float(x) for x in t] == grid.nodes.tolist()
    for i in (1, 2, 3, 4):
        assert _columns(out / f"z_root{i}.csv")["t"] == t
        assert _columns(out / f"ratios_root{i}.csv")["t"] == t
    step = max(1, grid.nodes.size // 256)
    assert _columns(out / "wronskian.csv")["t"] == t[::step]

    trace = _columns(out / "trace_root1.csv")
    n_iter = report["roots"]["1"]["solve"]["n_iter"]
    assert len(trace["iter"]) == n_iter * grid.nodes.size
    assert trace["iter"] == tuple(str(n) for n in range(1, n_iter + 1)
                                  for _ in range(grid.nodes.size))
    assert trace["t"] == t * n_iter
