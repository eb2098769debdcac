"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import numpy as np
import pytest

from riccati4.greens import GreenKernel
from riccati4.hypotheses import contraction_constants, kernel_route_A, rho_bound, smallness_check
from riccati4.oracle import cross_validate
from riccati4.picard import (
    default_grid,
    envelope_check,
    envelope_integral,
    first_iterate_ratio,
    iterate_to_fixed_point,
    resolve_orientation,
)
from riccati4.problem import biharmonic_preset
from riccati4.report import run_report
from riccati4.riccati import build_system, residual_profile
from riccati4.spectra import characteristic_data
from riccati4.synthesis import (
    asymptotic_integral_formula,
    derivative_ratio_limits,
    fundamental_solution,
    wronskian_normalized,
)

from reference_routes import (
    bound_value,
    cubic_coeffs,
    lift_residual_equivalence,
    second_derivative_limits,
    shifted_cubic_residuals,
)

A_TEST = (0.0, -5.0, 0.0, 4.0)
EPS = 1e-3


def announce(number, label):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


@pytest.fixture(scope="module")
def cd():
    return characteristic_data(A_TEST)


@pytest.fixture(scope="module")
def grid(cd):
    return default_grid(cd, 0.0, 2048)


@pytest.fixture(scope="module")
def eps_run(cd, grid):
    """Direct and adjoint fixed points for the epsilon test problem."""
    r = ("0.001*exp(-t)", "0", "0", "0")
    out = {}
    for i in (1, 2, 3, 4):
        sys = build_system(cd, r, i)
        z, trace = iterate_to_fixed_point(sys, grid, orientation="direct")
        z_adj, trace_adj = iterate_to_fixed_point(sys, grid, orientation="adjoint")
        out[i] = dict(sys=sys, z=z, trace=trace, z_adj=z_adj, trace_adj=trace_adj)
    return out


def test_criterion_01_zero_perturbation_exactness(cd, grid):
    r = ("0", "0", "0", "0")
    solutions = []
    for i in (1, 2, 3, 4):
        sys = build_system(cd, r, i)
        z, trace = iterate_to_fixed_point(sys, grid, orientation="direct")
        assert trace.converged and trace.n_iter == 1
        assert z.norm_c02() == 0.0
        solutions.append(fundamental_solution(sys, z, cd))
    ts = grid.nodes[grid.nodes <= 10.0]
    for fs, lam in zip(solutions, cd.lam):
        y = fs.y_at(ts)
        exact = np.exp(lam * ts)
        assert np.max(np.abs(y - exact) / np.abs(exact)) <= 1e-10
    w = wronskian_normalized(solutions, 5.0)
    assert abs(w - 72.0) <= 1e-8
    announce(1, "zero-perturbation exactness")


def test_criterion_02_shifted_cubic_property_suite():
    rng = np.random.default_rng(202)
    count = 0
    while count < 200:
        lam = np.sort(rng.uniform(-5.0, 5.0, size=4))[::-1]
        if np.min(lam[:-1] - lam[1:]) < 0.1:
            continue
        count += 1
        cd = characteristic_data(tuple(np.poly(lam)[1:]))
        assert np.allclose(cd.lam, lam, atol=1e-8)
        for i in (1, 2, 3, 4):
            assert np.max(np.abs(shifted_cubic_residuals(cd, i))) <= 1e-9
    announce(2, "shifted-cubic property suite (200 random quartics)")


def test_criterion_03_green_kernel_certificates(cd, eps_run):
    rng = np.random.default_rng(303)
    for i in (1, 2, 3, 4):
        kernel = GreenKernel.from_gamma(cd.gamma_for(i))
        for orientation in ("direct", "adjoint"):
            modes = kernel.modes(orientation)
            for d in (0, 1):
                gap = abs(modes.side_eval(0.0, d, "head")
                          - modes.side_eval(0.0, d, "tail"))
                assert gap <= 1e-12
            head2, tail2 = second_derivative_limits(kernel, orientation)
            assert abs(abs(head2 - tail2) - 1.0) <= 1e-10
            t = rng.uniform(0.0, 10.0, size=1000)
            s = rng.uniform(0.0, 10.0, size=1000)
            for d in (0, 1, 2):
                vals = np.abs(kernel.eval(t, s, d, orientation))
                assert np.all(vals <= bound_value(kernel, t, s, d, orientation)
                              * (1 + 1e-12) + 1e-300)
        # jump is +1 signed under the adopted (direct) convention
        head2, tail2 = second_derivative_limits(kernel, "direct")
        assert head2 - tail2 == pytest.approx(1.0, abs=1e-10)
        # the adopted convention is fixed by the residual test
        probe = resolve_orientation(eps_run[i]["sys"])
        assert probe["selected"] == "direct"
        # homogeneous residual against the shifted cubic, off the diagonal
        b2, b1, b0 = cubic_coeffs(kernel, "direct")
        s0 = 2.0
        for t in np.concatenate([np.linspace(0.2, 1.8, 7), np.linspace(2.2, 6.0, 7)]):
            g = [kernel.eval(t, s0, d, "direct") for d in range(4)]
            assert abs(g[3] + b2 * g[2] + b1 * g[1] + b0 * g[0]) <= 1e-8
    announce(3, "Green kernel certificates (continuity, jump, bounds, residual)")


def test_criterion_04_lift_equivalence(cd):
    rng = np.random.default_rng(404)

    def exp_sum(coefs, rates):
        def derivs(t):
            t = np.asarray(t, dtype=float)
            basis = np.exp(-np.outer(t, rates) if t.ndim else -rates * t)
            return tuple(
                basis @ (coefs * (-rates) ** order) if t.ndim
                else float(np.dot(basis, coefs * (-rates) ** order))
                for order in range(4)
            )
        return derivs

    for trial in range(100):
        i = int(rng.integers(1, 5))
        r = tuple(
            f"{rng.uniform(-0.05, 0.05):.6f}*exp(-{rng.uniform(0.3, 2.0):.3f}*t)"
            for _ in range(4)
        )
        sys = build_system(cd, r, i)
        z = exp_sum(rng.uniform(-0.05, 0.05, size=3), rng.uniform(0.2, 2.5, size=3))
        for t in rng.uniform(0.3, 5.0, size=3):
            r4, r3y = lift_residual_equivalence(sys, z, float(t), t0=0.0)
            scale = max(abs(r4), abs(r3y), 1e-30)
            assert abs(r4 - r3y) / scale <= 1e-8
    announce(4, "lift/residual equivalence (100 random tuples)")


def test_criterion_05_contraction_and_well_posedness(cd, eps_run):
    _, _, a1, vs1 = contraction_constants(cd, 1, 0.25)
    rho1 = rho_bound(cd, 1, ("0.001*exp(-t)", "0", "0", "0"), 0.0)
    bound = rho1 * a1 * vs1 + 0.1
    info = eps_run[1]
    assert all(c <= bound for c in info["trace"].contraction)
    assert all(c <= bound for c in info["trace_adj"].contraction)
    assert info["trace"].certificate <= 1e-10
    residual = np.max(np.abs(residual_profile(info["sys"], info["z"])))
    assert residual <= 1e-6
    announce(5, "contraction factors, fixed-point certificate, Riccati residual")


def test_criterion_06_contraction_constants(cd):
    dw1, alpha1, a1, vs1 = contraction_constants(cd, 1, 0.25)
    assert dw1 == pytest.approx(-6.0, abs=1e-12)
    assert a1 == pytest.approx(14.0, abs=1e-12)
    assert vs1 == pytest.approx(44.0, abs=1e-12)
    assert alpha1 == pytest.approx((6.0, 18.0, 60.0), abs=1e-12)
    for i in (1, 2, 3, 4):
        _, _, a_i, _ = contraction_constants(cd, i, 0.25)
        assert abs(a_i - kernel_route_A(cd, i)) <= 1e-12 * a_i
    announce(6, "contraction constants (A1=14, varsigma1=44, dw1=-6, kernel match)")


def test_criterion_07_envelope(cd, grid, eps_run):
    info = eps_run[1]
    sys = info["sys"]
    rho1 = rho_bound(cd, 1, ("0.001*exp(-t)", "0", "0", "0"), 0.0)
    _, _, a1, vs1 = contraction_constants(cd, 1, 0.25)
    ok, phi = smallness_check(rho1, a1, vs1)
    assert ok and phi == pytest.approx(20.2312, rel=1e-4)

    # quadrature envelope agrees with the closed form (eps/2) e^{-t}
    env = envelope_integral(sys, grid, -1.0)
    closed = (EPS / 2.0) * np.exp(-grid.nodes)
    assert np.max(np.abs(env - closed) / closed) <= 1e-9

    ok_env, ratio, _ = envelope_check(sys, info["z_adj"], -1.0, phi)
    assert ok_env and ratio <= 1.0

    fr = first_iterate_ratio(sys, grid, a1, -1.0)
    assert fr == pytest.approx(1.0 / 280.0, rel=1e-6)
    announce(7, "envelope bound with Phi~20.23 and first-iterate ratio 1/280")


def test_criterion_08_asymptotic_limits(cd, eps_run):
    fss = []
    for i in (1, 2, 3, 4):
        fs = fundamental_solution(eps_run[i]["sys"], eps_run[i]["z"], cd)
        fss.append(fs)
        errors, verdict = derivative_ratio_limits(fs, ratio_tol=1e-4)
        assert verdict == "PASS"
        assert np.max(errors[:, -1]) <= 1e-4
    w = wronskian_normalized(fss, fss[0].nodes[-1])
    assert abs(w - 72.0) / 72.0 <= 0.01
    _, gap = asymptotic_integral_formula(fss[0], eps_run[1]["sys"])
    mid = len(gap) // 2
    assert gap[-1] < gap[mid] and gap[-1] <= 1e-6
    announce(8, "derivative-ratio limits, Wronskian 72 within 1%, formula gap")


def test_criterion_09_oracle_cross_validation(cd, eps_run):
    fs1 = fundamental_solution(eps_run[1]["sys"], eps_run[1]["z"], cd)
    out = cross_validate(fs1, eps_run[1]["sys"])
    assert out["y_rel_error"] <= 1e-4
    for i in (2, 3, 4):
        fs = fundamental_solution(eps_run[i]["sys"], eps_run[i]["z"], cd)
        sub = cross_validate(fs, eps_run[i]["sys"])
        assert sub["logderiv_error"] <= 1e-3
    announce(9, "oracle cross-validation (dominant 1e-4, subdominant 1e-3)")


def test_criterion_10_biharmonic_preset(tmp_path):
    spec = biharmonic_preset(6, 6.0)
    cd = characteristic_data(spec.a)
    assert np.allclose(cd.lam, (2.8, 0.8, -1.2, -3.2), atol=1e-12)
    assert spec.a3 == pytest.approx(-sum(cd.lam), abs=1e-12)
    report, code = run_report(spec, out_dir=str(tmp_path / "out"))
    assert code == 0 and report["overall_pass"]
    announce(10, "biharmonic preset roots and full-pipeline PASS")
