import json

import numpy as np
import pytest

from riccati4.problem import ProblemSpec
from riccati4.report import run_report

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


def test_root_subset_skips_wronskian(tmp_path):
    report, code = run_report(EPS_SPEC, roots=(1,), out_dir=str(tmp_path / "o"))
    assert code == 0
    assert report["wronskian"] is None
    assert list(report["roots"]) == ["1"]
