"""Pipeline regression on a harder spectrum with every perturbation active.

Exercises the perturbation-linear and perturbation-nonlinear parts of F in
the solver (the standard test problem only drives the polynomial part), the
wide-gap oracle span adaptation, and a user-set horizon for slowly decaying
perturbations.
"""

import numpy as np
import pytest

from riccati4.problem import ProblemSpec
from riccati4.report import run_report


@pytest.fixture(scope="module")
def hard_report():
    a = np.poly([5.0, 1.0, -2.0, -6.0])[1:]
    spec = ProblemSpec(
        a3=a[0], a2=a[1], a1=a[2], a0=a[3],
        r0="0.002*exp(-1.3*t)", r1="0.001*exp(-t)",
        r2="-0.003*exp(-2*t)", r3="0.001*exp(-0.7*t)",
        nodes=768, t_max=40.0,
    )
    return run_report(spec, out_dir=None)


def test_hard_problem_passes(hard_report):
    report, code = hard_report
    assert code == 0 and report["overall_pass"]


def test_hard_problem_residuals_and_limits(hard_report):
    report, _ = hard_report
    for i in ("1", "2", "3", "4"):
        root = report["roots"][i]
        assert root["solve"]["orientation"] == "direct"
        assert root["solve"]["riccati_residual_max"] <= 1e-6
        assert root["certificates"]["envelope_ok"] is True
        assert root["synthesis"]["ratio_verdict"] == "PASS"
        assert root["oracle"]["logderiv_error"] <= 1e-3
    assert report["wronskian"]["rel_error"] <= 0.01


def test_oracle_span_shrinks_with_gap(hard_report):
    report, _ = hard_report
    spans = {i: report["roots"][i]["oracle"]["span"][1] for i in ("2", "3", "4")}
    # dominant gaps 4, 7, 11 squeeze the forward-comparison window
    assert spans["2"] > spans["3"] > spans["4"]
