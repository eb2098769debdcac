import math
import warnings

import numpy as np
import pytest

from riccati4 import exprlang, oracle, picard, riccati
from riccati4.errors import DomainError, NonFinite, StepUnderflow
from riccati4.oracle import (
    cross_validate,
    integrate_linear4,
    integrate_riccati,
    linear4_rhs,
    riccati_rhs,
)
from riccati4.picard import IntegralOperator, default_grid, iterate_to_fixed_point
from riccati4.riccati import build_system, residual_profile
from riccati4.spectra import characteristic_data
from riccati4.synthesis import fundamental_solution

from reference_routes import dop853_states

A_TEST = (0.0, -5.0, 0.0, 4.0)
R_ZERO = tuple(exprlang.parse("0") for _ in range(4))


def test_pure_exponential_modes():
    # y0 = (1, lam, lam^2, lam^3) rides a single mode e^{lam t}
    for lam in (2.0, -2.0):
        y0 = [lam**k for k in range(4)]
        states = integrate_linear4(A_TEST, R_ZERO, y0, (0.0, 1.0),
                                   t_eval=np.array([0.0, 1.0]))
        assert states[0, -1] == pytest.approx(math.exp(lam), abs=1e-8)


def test_self_convergence_under_tolerance_halving():
    y0 = [1.0, 2.0, 4.0, 8.0]
    end = []
    for tol in (1e-8, 5e-9):
        states = integrate_linear4(A_TEST, R_ZERO, y0, (0.0, 5.0),
                                   tol=tol, t_eval=np.array([0.0, 5.0]))
        end.append(states[:, -1])
    assert np.max(np.abs(end[0] - end[1])) <= 10.0 * 1e-8 * np.max(np.abs(end[1]))


def test_riccati_trivial_integration(cd_test, r_zero):
    sys1 = build_system(cd_test, r_zero, 1)
    states = integrate_riccati(sys1, (0.0, 0.0, 0.0), (0.0, 4.0),
                               t_eval=np.linspace(0.0, 4.0, 5))
    assert np.max(np.abs(states)) <= 1e-12


def test_cross_validation_epsilon(cd_test, eps_systems, eps_operators, eps_solutions):
    fs1 = fundamental_solution(eps_operators[1], eps_solutions[1][0], cd_test)
    out = cross_validate(fs1, eps_systems[1])
    assert out["mode"] == "forward_y"
    assert out["y_rel_error"] <= 1e-4
    assert out["riccati_direction"] == "forward"
    assert out["riccati_error"] <= 1e-8

    for i in (2, 3, 4):
        fs = fundamental_solution(eps_operators[i], eps_solutions[i][0], cd_test)
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
        cd_test, eps_systems, eps_operators, eps_solutions, monkeypatch):
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
        fs = fundamental_solution(eps_operators[current], eps_solutions[current][0], cd_test)
        cross_validate(fs, eps_systems[current])
    assert {i: runs["linear"].count(i) for i in (1, 2, 3, 4)} == {1: 1, 2: 1, 3: 1, 4: 2}
    assert runs["riccati"] == []


def test_riccati_error_sees_an_omega_coding_error(cd_test, r_eps, grid_1024, monkeypatch):
    # Omega off by 1 % wherever the solver samples it: Picard, the residual
    # and the synthesis (which reads Picard's samples) all agree with each
    # other, the fourth-order equation does not
    sample = riccati.sample_coefficients

    def wrong_omega(sys, t):
        k = sample(sys, t)
        return k._replace(omega=1.01 * k.omega)

    for module in (riccati, picard, oracle):
        monkeypatch.setattr(module, "sample_coefficients", wrong_omega)
    for i in (1, 4):
        sys = build_system(cd_test, r_eps, i)
        op = IntegralOperator(sys, grid_1024)
        z, _ = iterate_to_fixed_point(op)
        assert np.max(np.abs(residual_profile(sys, z))) <= 1e-9
        out = cross_validate(fundamental_solution(op, z, cd_test), sys)
        assert out["riccati_error"] >= 1e-8


def test_backward_and_forward_runs_stay_inside_their_span():
    """LSODA steps past its last output point unless told where to stop; a
    perturbation undefined just past either end of a span must not end the
    run."""
    for expr, span in (("0.001*log(t)", (2.0, 0.01)), ("0.001*log(3.01-t)", (0.0, 3.0))):
        r = (exprlang.parse(expr),) + R_ZERO[1:]
        seen = []
        rhs = linear4_rhs(A_TEST, r)

        def recording(t, y):
            seen.append(t)
            return rhs(t, y)

        states = oracle._solve(recording, span, [1.0, 1.0, 1.0, 1.0],
                               np.linspace(*span, 11), oracle.ORACLE_TOL)
        assert np.all(np.isfinite(states))
        assert min(span) <= min(seen) and max(seen) <= max(span)


def test_a_non_finite_fourth_derivative_fails_at_once_without_a_warning():
    calls = []
    rhs = linear4_rhs(A_TEST, R_ZERO)

    def counting(t, y):
        calls.append(t)
        return rhs(t, y)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFinite, match="not finite at t=0.0"):
            oracle._solve(counting, (0.0, 1.0), [1e308] * 4, np.array([0.0, 1.0]),
                          oracle.ORACLE_TOL)
        assert calls == [0.0]
        # a coefficient that overflows on the way: the run ends as an error,
        # quietly
        r = (exprlang.parse("exp(exp(3*t))"),) + R_ZERO[1:]
        with pytest.raises((NonFinite, StepUnderflow)):
            integrate_linear4(A_TEST, r, [1.0, 2.0, 4.0, 8.0], (0.0, 5.0),
                              np.array([0.0, 5.0]))
    assert caught == []


def test_lsoda_failure_is_a_step_underflow_with_its_message():
    r = (exprlang.parse("1e8*sin(1e4*t)"),) + R_ZERO[1:]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StepUnderflow, match="^direct integration failed: Excess work done"):
            integrate_linear4(A_TEST, r, [1.0, 2.0, 4.0, 8.0], (0.0, 5.0),
                              np.linspace(0.0, 5.0, 11))
        # a first step that underflows to 0 on a huge right-hand side: LSODA
        # reports success at t0; the run must not pass as one to t = 5
        r = (exprlang.parse("1e300*exp(50*t)"),) + R_ZERO[1:]
        with pytest.raises(StepUnderflow, match="stopped short"):
            integrate_linear4(A_TEST, r, [1.0, 2.0, 4.0, 8.0], (0.0, 5.0),
                              np.array([0.0, 5.0]))
    assert caught == []


def test_a_solver_error_in_the_right_hand_side_comes_out_as_itself():
    r = (exprlang.parse("0.001*log(1-t)"),) + R_ZERO[1:]
    t_eval = np.linspace(0.0, 2.0, 11)
    with pytest.raises(DomainError):
        integrate_linear4(A_TEST, r, [1.0, 2.0, 4.0, 8.0], (0.0, 2.0), t_eval)
    with pytest.raises(DomainError):
        dop853_states(linear4_rhs(A_TEST, r), (0.0, 2.0), [1.0, 2.0, 4.0, 8.0], t_eval,
                      oracle.ORACLE_TOL)


@pytest.fixture(scope="module")
def hard_oracle_runs():
    """Every run the oracle makes on the hard spectrum with all four
    perturbations (roots 1-4 forward, root 4 backward), as the arguments of
    integrate_linear4 and the shifted roots of the run's Riccati system."""
    cd = characteristic_data(tuple(np.poly([5.0, 1.0, -2.0, -6.0])[1:]))
    r = tuple(map(exprlang.parse, ("0.002*exp(-1.3*t)", "0.001*exp(-t)",
                                   "-0.003*exp(-2*t)", "0.001*exp(-0.7*t)")))
    grid = default_grid(cd, 0.0, 768, 40.0)
    runs = []
    linear = oracle.integrate_linear4

    def recording(a, r_exprs, y0, t_span, t_eval, tol=oracle.ORACLE_TOL):
        runs.append((sys.kernel.gamma, (a, r_exprs, y0, t_span, t_eval)))
        return linear(a, r_exprs, y0, t_span, t_eval, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "integrate_linear4", recording)
        for i in (1, 2, 3, 4):
            sys = build_system(cd, r, i)
            op = IntegralOperator(sys, grid)
            z, _ = iterate_to_fixed_point(op)
            cross_validate(fundamental_solution(op, z, cd), sys)
    return runs


def test_oracle_runs_agree_with_a_tight_dop853_run(hard_oracle_runs):
    """Each oracle run against DOP853 at rtol 1e-13.  LSODA keeps each step's
    local error of state k within tol * |y_k| + atol in its weighted norm
    (at most twice that per component of the four); after the step it grows
    relative to the followed mode by at most e^{gap * span}, gap the fastest
    rate of another mode over the followed one in the run's direction.  The
    right-hand-side calls bound the number of steps, so state k's global
    error is at most 2 * calls * (tol * |y_k| + atol) * e^{gap * span} for
    either run."""
    assert len(hard_oracle_runs) == 5
    for gamma, (a, r, y0, t_span, t_eval) in hard_oracle_runs:
        calls = []
        rhs = linear4_rhs(a, r)

        def counting(t, y):
            calls.append(t)
            return rhs(t, y)

        lsoda = oracle._solve(counting, t_span, y0, t_eval, oracle.ORACLE_TOL)
        n_lsoda = len(calls)
        calls.clear()
        reference = dop853_states(counting, t_span, y0, t_eval, 1e-13)
        n_reference = len(calls)
        assert np.array_equal(lsoda, integrate_linear4(a, r, y0, t_span, t_eval))

        forward = t_span[1] > t_span[0]
        gap = max(gamma[0] if forward else -gamma[-1], 0.0)
        amplification = math.exp(gap * abs(t_span[1] - t_span[0]))
        scale = np.abs(reference) + 1e-2
        bound = 2.0 * amplification * scale * (
            n_lsoda * oracle.ORACLE_TOL + n_reference * 1e-13)
        assert np.all(np.abs(lsoda - reference) <= bound)
