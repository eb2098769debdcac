import math

import numpy as np
import pytest

from riccati4.grid import GridFunction
from riccati4.riccati import build_system
from riccati4.synthesis import (
    asymptotic_integral_formula,
    derivative_ratio_limits,
    double_integral_identity_residual,
    fundamental_solution,
    vandermonde_target,
    wronskian_normalized,
)


def wronskian_raw(fss, t):
    """Unnormalized Wronskian; carries the exp(sum integral(lam_i + z_i))
    growth factor on top of the normalized determinant."""
    log_scale = sum(float(fs.log_y_at(t)) for fs in fss)
    return wronskian_normalized(fss, t) * math.exp(log_scale)


@pytest.fixture(scope="module")
def trivial_solutions(cd_test, r_zero, grid_1024):
    out = []
    for i in (1, 2, 3, 4):
        sys = build_system(cd_test, r_zero, i)
        out.append(fundamental_solution(sys, GridFunction.zero(grid_1024), cd_test))
    return out


def test_trivial_solution_is_pure_exponential(trivial_solutions, cd_test, grid_1024):
    for fs, lam in zip(trivial_solutions, cd_test.lam):
        assert fs.y_at(np.array([fs.nodes[0]]))[0] == 1.0
        ts = grid_1024.nodes[grid_1024.nodes <= 10.0]
        y = fs.y_at(ts)
        exact = np.exp(lam * ts)
        assert np.max(np.abs(y - exact) / exact) <= 1e-10
        for l, ratio in enumerate(fs.ratios(), start=1):
            assert np.allclose(ratio, lam**l, rtol=0, atol=1e-12 * max(1, abs(lam) ** l))


def test_pi_product(trivial_solutions):
    assert trivial_solutions[0].pi_i == pytest.approx(-12.0)
    # (lam1-lam4)(lam2-lam4)(lam3-lam4) = (4)(3)(1)
    assert trivial_solutions[3].pi_i == pytest.approx(12.0)


def test_ratio_limits_trivial(trivial_solutions):
    errors, verdict = derivative_ratio_limits(trivial_solutions[0])
    assert verdict == "PASS"
    assert np.max(errors) == 0.0


def test_wronskian_trivial_is_vandermonde(trivial_solutions, cd_test):
    target = vandermonde_target(cd_test)
    assert target == pytest.approx(72.0)
    for t in (0.0, 3.0, 10.0):
        w = wronskian_normalized(trivial_solutions, t)
        assert w == pytest.approx(target, abs=1e-10 * abs(target))


def test_wronskian_raw_scaling(trivial_solutions, cd_test):
    # unnormalized W = normalized * exp(sum lam_i * t) = normalized * e^{-a3 t}
    t = 1.5
    raw = wronskian_raw(trivial_solutions, t)
    expected = 72.0 * math.exp(sum(cd_test.lam) * t)
    assert raw == pytest.approx(expected, rel=1e-9)


def test_asymptotic_formula_trivial(trivial_solutions, cd_test):
    for fs, lam in zip(trivial_solutions, cd_test.lam):
        sys = build_system(cd_test, ["0"] * 4, fs.i)
        predicted, gap = asymptotic_integral_formula(fs, sys)
        assert np.allclose(predicted, lam * (fs.nodes - fs.nodes[0]), atol=1e-12)
        assert np.max(gap) <= 1e-12  # accumulated roundoff of the log-y quadrature


def test_epsilon_ratio_error_tracks_z(cd_test, eps_systems, eps_solutions):
    z, _ = eps_solutions[1]
    fs = fundamental_solution(eps_systems[1], z, cd_test)
    errors, verdict = derivative_ratio_limits(fs)
    assert verdict == "PASS"
    # first-order ratio error is exactly |z|
    assert np.allclose(errors[0], np.abs(z.value), atol=1e-15)


def test_epsilon_wronskian_and_formula_gap(cd_test, eps_systems, eps_solutions):
    fss = [
        fundamental_solution(eps_systems[i], eps_solutions[i][0], cd_test)
        for i in (1, 2, 3, 4)
    ]
    t_end = fss[0].nodes[-1]
    w = wronskian_normalized(fss, t_end)
    assert abs(w - 72.0) / 72.0 <= 0.01

    _, gap = asymptotic_integral_formula(fss[0], eps_systems[1])
    mid = len(gap) // 2
    assert gap[-1] < gap[mid]
    assert gap[-1] <= 1e-6


def test_double_integral_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = float(rng.uniform(0.2, 2.0))
        decay = a + float(rng.uniform(0.3, 2.5))
        t = float(rng.uniform(1.0, 6.0))
        assert double_integral_identity_residual(a, decay, t) <= 1e-8
