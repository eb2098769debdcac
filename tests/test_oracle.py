import math

import numpy as np
import pytest

from riccati4 import exprlang, oracle, picard, riccati, synthesis
from riccati4.oracle import (
    cross_validate,
    integrate_linear4,
    integrate_riccati,
    linear4_rhs,
    riccati_rhs,
)
from riccati4.picard import IntegralOperator, iterate_to_fixed_point
from riccati4.riccati import build_system, residual_profile
from riccati4.synthesis import fundamental_solution

A_TEST = (0.0, -5.0, 0.0, 4.0)
R_ZERO = tuple(exprlang.parse("0") for _ in range(4))


def test_pure_exponential_modes():
    # y0 = (1, lam, lam^2, lam^3) rides a single mode e^{lam t}
    for lam in (2.0, -2.0):
        y0 = [lam**k for k in range(4)]
        traj = integrate_linear4(A_TEST, R_ZERO, y0, (0.0, 1.0),
                                 t_eval=np.array([0.0, 1.0]))
        assert traj.states[0, -1] == pytest.approx(math.exp(lam), abs=1e-8)


def test_self_convergence_under_tolerance_halving():
    y0 = [1.0, 2.0, 4.0, 8.0]
    end = []
    for tol in (1e-8, 5e-9):
        traj = integrate_linear4(A_TEST, R_ZERO, y0, (0.0, 5.0),
                                 tol=tol, t_eval=np.array([0.0, 5.0]))
        end.append(traj.states[:, -1])
    assert np.max(np.abs(end[0] - end[1])) <= 10.0 * 1e-8 * np.max(np.abs(end[1]))


def test_riccati_trivial_integration(cd_test, r_zero):
    sys1 = build_system(cd_test, r_zero, 1)
    traj = integrate_riccati(sys1, (0.0, 0.0, 0.0), (0.0, 4.0),
                             t_eval=np.linspace(0.0, 4.0, 5))
    assert np.max(np.abs(traj.states)) <= 1e-12


def test_cross_validation_epsilon(cd_test, eps_systems, eps_solutions):
    fs1 = fundamental_solution(eps_systems[1], eps_solutions[1][0], cd_test)
    out = cross_validate(fs1, eps_systems[1])
    assert out["mode"] == "forward_y"
    assert out["y_rel_error"] <= 1e-4
    assert out["riccati_direction"] == "forward"
    assert out["riccati_error"] <= 1e-8

    for i in (2, 3, 4):
        fs = fundamental_solution(eps_systems[i], eps_solutions[i][0], cd_test)
        sub = cross_validate(fs, eps_systems[i])
        assert sub["mode"] == "log_derivative"
        assert sub["logderiv_error"] <= 1e-3
        if i == 4:
            assert sub["riccati_direction"] == "backward"
            assert sub["riccati_error"] <= 1e-8


def test_riccati_rhs_evaluates_each_perturbation_once(cd_test, monkeypatch):
    r = ("0.002*exp(-1.3*t)", "0.001*exp(-t)", "-0.003*exp(-2*t)", "0.001*exp(-0.7*t)")
    sys = build_system(cd_test, r, 3)
    rhs = riccati_rhs(sys)
    counts = {}
    original = exprlang.FunctionExpr.__call__

    def counting(self, t):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return original(self, t)

    monkeypatch.setattr(exprlang.FunctionExpr, "__call__", counting)
    rhs(0.4, np.array([1e-3, -2e-3, 5e-4]))
    assert counts == {id(rj): 1 for rj in sys.r}


def test_linear4_rhs_skips_zero_perturbations(monkeypatch):
    r = tuple(map(exprlang.parse, ("0.002*exp(-1.3*t)", "0", "-0.003*exp(-2*t)", "0")))
    rhs = linear4_rhs(A_TEST, r)
    counts = {}
    original = exprlang.FunctionExpr.__call__

    def counting(self, t):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return original(self, t)

    monkeypatch.setattr(exprlang.FunctionExpr, "__call__", counting)
    y = np.array([1.0, -2.0, 4.0, -8.0])
    for call in (1, 2):
        rhs(0.4 * call, y)
        assert counts == {id(r[0]): call, id(r[2]): call}


def test_pipeline_integrates_only_the_fourth_order_equation(
        cd_test, eps_systems, eps_solutions, monkeypatch):
    runs = {"linear": [], "riccati": []}
    linear, ricc = oracle.integrate_linear4, oracle.integrate_riccati

    def counting_linear(*args, **kwargs):
        runs["linear"].append(current)
        return linear(*args, **kwargs)

    def counting_riccati(*args, **kwargs):
        runs["riccati"].append(current)
        return ricc(*args, **kwargs)

    monkeypatch.setattr(oracle, "integrate_linear4", counting_linear)
    monkeypatch.setattr(oracle, "integrate_riccati", counting_riccati)
    for current in (1, 2, 3, 4):
        fs = fundamental_solution(eps_systems[current], eps_solutions[current][0], cd_test)
        cross_validate(fs, eps_systems[current])
    assert {i: runs["linear"].count(i) for i in (1, 2, 3, 4)} == {1: 1, 2: 1, 3: 1, 4: 2}
    assert runs["riccati"] == []


def test_riccati_error_sees_an_omega_coding_error(cd_test, r_eps, grid_1024, monkeypatch):
    # Omega off by 1 % wherever the solver samples it: Picard, the residual
    # and the synthesis all agree with each other, the fourth-order equation
    # does not
    sample = riccati.sample_coefficients

    def wrong_omega(sys, t):
        k = sample(sys, t)
        return k._replace(omega=1.01 * k.omega)

    for module in (riccati, picard, oracle, synthesis):
        monkeypatch.setattr(module, "sample_coefficients", wrong_omega)
    for i in (1, 4):
        sys = build_system(cd_test, r_eps, i)
        z, _ = iterate_to_fixed_point(IntegralOperator(sys, grid_1024))
        assert np.max(np.abs(residual_profile(sys, z))) <= 1e-9
        out = cross_validate(fundamental_solution(sys, z, cd_test), sys)
        assert out["riccati_error"] >= 1e-8
