import numpy as np
import pytest

from riccati4 import exprlang
from riccati4.grid import GridFunction
from riccati4.picard import IntegralOperator
from riccati4.riccati import (
    build_system,
    eval_F,
    residual_profile,
    sample_coefficients,
)
from riccati4.spectra import characteristic_data
from riccati4.synthesis import asymptotic_integral_formula, fundamental_solution

from reference_routes import lambda1, lambda2, lift_residual_equivalence, omega


def exp_sum(coefs, rates):
    """Smooth test function sum(c * exp(-a t)) with analytic derivatives."""
    coefs = np.asarray(coefs, dtype=float)
    rates = np.asarray(rates, dtype=float)

    def derivs(t):
        t = np.asarray(t, dtype=float)
        basis = np.exp(-np.outer(t, rates) if t.ndim else -rates * t)
        out = []
        for order in range(4):
            weights = coefs * (-rates) ** order
            out.append(basis @ weights if t.ndim else float(np.dot(basis, weights)))
        return tuple(out)

    return derivs


def eval_F_monomial(sys, t, x1, x2, x3):
    """F summed monomial by monomial, and the sum of the monomials' moduli."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    x3 = np.asarray(x3, dtype=float)
    l1 = lambda1(sys, t)
    l2 = lambda2(sys, t)
    f_hat1 = l1[0] * x1 + l1[1] * x2 + l1[2] * x3
    f_hat2 = l2[0] * x1 * x2 + l2[1] * x1**2 + l2[2] * x1**3
    c = sys.C
    gamma_part = (
        c[0] * x2**2 + c[1] * x1 * x2 + c[2] * x1 * x3 + c[3] * x1**2
        + c[4] * x1**2 * x2 + c[5] * x1**3 + c[6] * x1**4
    )
    terms = (l1[0] * x1, l1[1] * x2, l1[2] * x3, l2[0] * x1 * x2, l2[1] * x1**2,
             l2[2] * x1**3, c[0] * x2**2, c[1] * x1 * x2, c[2] * x1 * x3,
             c[3] * x1**2, c[4] * x1**2 * x2, c[5] * x1**3, c[6] * x1**4)
    return f_hat1 + f_hat2 + gamma_part, sum(np.abs(term) for term in terms)


R_ALL = ("0.02*exp(-0.7*t)", "-0.03*sin(2*t)*exp(-t)", "0.05*cos(t)", "-0.04*exp(-0.3*t)")


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_nested_F_matches_monomial_form(cd_test, i):
    sys = build_system(cd_test, R_ALL, i)
    rng = np.random.default_rng(i)
    t = rng.uniform(0.0, 6.0, 500)
    xs = rng.standard_normal((3, 500)) * rng.choice([1e-3, 0.1, 2.0], (3, 500))
    cases = [(t, *xs)] + [(float(t[k]), *map(float, xs[:, k])) for k in range(20)]
    for tk, x1, x2, x3 in cases:
        reference, scale = eval_F_monomial(sys, tk, x1, x2, x3)
        value = eval_F(sys, tk, x1, x2, x3)
        assert np.shape(value) == np.shape(reference)
        assert np.all(np.abs(value - reference) <= 32.0 * np.finfo(float).eps * scale)


def test_zero_perturbations_give_scalar_coefficients(cd_test, r_eps):
    ts = np.linspace(0.0, 5.0, 11)
    for i in (1, 2, 3, 4):
        sys = build_system(cd_test, r_eps, i)
        k = sample_coefficients(sys, ts)
        assert all(isinstance(v, float) for v in k[1:])
        assert np.array_equal(k.omega, omega(sys, ts))


def test_sampling_evaluates_each_perturbation_once(cd_test, monkeypatch):
    sys = build_system(cd_test, R_ALL, 2)
    calls = []
    original = exprlang.FunctionExpr.__call__

    def counting(self, t):
        calls.append(self.source)
        return original(self, t)

    monkeypatch.setattr(exprlang.FunctionExpr, "__call__", counting)
    sample_coefficients(sys, np.linspace(0.0, 1.0, 5))
    assert sorted(calls) == sorted(R_ALL)


@pytest.mark.parametrize("stage", ["residual_profile", "asymptotic_integral_formula"])
def test_stage_evaluates_each_perturbation_once(cd_test, grid_1024, monkeypatch, stage):
    """The residual samples each active perturbation once.  The asymptotic
    formula evaluates none: it reads the samples its operator took when it
    was built, even when the operator has to apply z first."""
    r = ("0.002*exp(-1.3*t)", "0", "-0.003*exp(-2*t)", "0")
    sys = build_system(cd_test, r, 2)
    z = GridFunction.zero(grid_1024)
    op = IntegralOperator(sys, grid_1024)
    run, expected = {
        "residual_profile": (lambda: residual_profile(sys, z),
                             sorted(rj for rj in r if rj != "0")),
        "asymptotic_integral_formula": (lambda: asymptotic_integral_formula(
            fundamental_solution(op, z, cd_test)), []),
    }[stage]
    calls = []
    original = exprlang.FunctionExpr.__call__

    def counting(self, t):
        calls.append(self.source)
        return original(self, t)

    monkeypatch.setattr(exprlang.FunctionExpr, "__call__", counting)
    run()
    assert sorted(calls) == expected


def test_build_system_zero_perturbation(cd_test, r_zero):
    sys2 = build_system(cd_test, r_zero, 2)
    assert sys2.b == pytest.approx((4.0, 1.0, -6.0))
    ts = np.linspace(0.0, 5.0, 11)
    assert np.all(omega(sys2, ts) == 0.0)
    assert lambda1(sys2, 1.0) == (0.0, 0.0, 0.0)
    assert lambda2(sys2, 1.0) == (0.0, 0.0, 0.0)


def test_constant_vector_pairings(cd_test, r_zero):
    sys1 = build_system(cd_test, r_zero, 1)
    # pairing order (x2^2, x1 x2, x1 x3, x1^2, x1^2 x2, x1^3, x1^4)
    assert sys1.C[1] == pytest.approx(-24.0)  # -(12*2 + 3*0)
    assert sys1.C == pytest.approx([-3.0, -24.0, -4.0, -19.0, -6.0, -8.0, -1.0])


def test_omega_single_perturbation(cd_test, r_eps):
    sys1 = build_system(cd_test, r_eps, 1)
    ts = np.linspace(0.0, 4.0, 9)
    assert np.allclose(omega(sys1, ts), -0.001 * np.exp(-ts), rtol=1e-15)


def test_F_vanishes_at_origin(cd_test, r_eps):
    for i in (1, 2, 3, 4):
        sys = build_system(cd_test, r_eps, i)
        for t in (0.0, 1.3, 8.0):
            assert eval_F(sys, t, 0.0, 0.0, 0.0) == 0.0


def test_F_pure_state_cubic(cd_test, r_zero):
    sys1 = build_system(cd_test, r_zero, 1)
    x1 = 0.1
    value = eval_F(sys1, 0.7, x1, 0.0, 0.0)
    assert value == pytest.approx(-(19.0 * 0.01 + 8.0 * 0.001 + 0.0001))
    assert value == pytest.approx(-0.1981)


def test_zero_residual_for_trivial_problem(cd_test, r_zero, grid_1024):
    sys1 = build_system(cd_test, r_zero, 1)
    z = GridFunction.zero(grid_1024)
    assert np.max(np.abs(residual_profile(sys1, z))) == 0.0


def test_lift_equivalence_trivial(cd_test, r_zero):
    sys1 = build_system(cd_test, r_zero, 1)
    zero = lambda t: (0.0 * np.asarray(t), 0.0 * np.asarray(t),
                      0.0 * np.asarray(t), 0.0 * np.asarray(t))
    r4, r3y = lift_residual_equivalence(sys1, zero, 2.0, t0=0.0)
    assert r4 == 0.0 and r3y == 0.0


def test_lift_equivalence_exponential(cd_test, r_zero):
    sys1 = build_system(cd_test, r_zero, 1)
    z = exp_sum([0.01], [1.0])
    for t in (0.5, 1.5, 3.0):
        r4, r3y = lift_residual_equivalence(sys1, z, t, t0=0.0)
        assert r4 != 0.0
        assert r4 == pytest.approx(r3y, rel=1e-8)


def test_lift_equivalence_random_tuples(cd_test):
    """The master correctness check across roots and perturbations."""
    rng = np.random.default_rng(11)
    for trial in range(30):
        i = int(rng.integers(1, 5))
        r = [
            f"{rng.uniform(-0.05, 0.05):.6f}*exp(-{rng.uniform(0.3, 2.0):.3f}*t)"
            for _ in range(4)
        ]
        sys = build_system(characteristic_data(cd_test.a), r, i)
        z = exp_sum(rng.uniform(-0.05, 0.05, size=3), rng.uniform(0.2, 2.5, size=3))
        for t in rng.uniform(0.3, 5.0, size=3):
            r4, r3y = lift_residual_equivalence(sys, z, float(t), t0=0.0)
            scale = max(abs(r4), abs(r3y), 1e-30)
            assert abs(r4 - r3y) / scale <= 1e-8
