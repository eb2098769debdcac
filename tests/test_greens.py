import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from riccati4 import exprlang
from riccati4.errors import ZeroRoot
from riccati4.greens import GreenKernel, SignCase, classify_sign_pattern

from reference_routes import (
    L_functional,
    bound_value,
    cubic_coeffs,
    second_derivative_limits,
)


def test_classification_examples():
    assert classify_sign_pattern((-1.0, -3.0, -4.0)) is SignCase.ALL_NEG
    assert classify_sign_pattern((1.0, -2.0, -3.0)) is SignCase.ONE_POS
    assert classify_sign_pattern((3.0, 2.0, -1.0)) is SignCase.TWO_POS
    assert classify_sign_pattern((4.0, 3.0, 1.0)) is SignCase.ALL_POS
    with pytest.raises(ZeroRoot):
        classify_sign_pattern((2.0, 1e-12, -1.0))


def test_adjoint_matches_printed_closed_form():
    k = GreenKernel.from_gamma((-1.0, -3.0, -4.0))
    assert k.delta_gamma == pytest.approx(-6.0)
    # telescoping zero on the diagonal
    assert k.eval(0.0, 0.0, 0, "adjoint") == pytest.approx(0.0, abs=1e-15)
    # (-0.5 + 0.375 - 0.125) / (-6) at t - s = -ln 2
    value = k.eval(-math.log(2.0), 0.0, 0, "adjoint")
    assert value == pytest.approx(1.0 / 24.0, rel=1e-12)
    # printed one-sided support: adjoint all-neg kernel vanishes for t > s
    assert k.eval(0.5, 0.0, 0, "adjoint") == 0.0


def test_direct_adjoint_transposition():
    rng = np.random.default_rng(7)
    for gamma in [(-1.0, -3.0, -4.0), (1.0, -2.0, -3.0), (3.0, 2.0, -1.0), (4.0, 3.0, 1.0)]:
        k = GreenKernel.from_gamma(gamma)
        sign = 1.0 if k.case is SignCase.ALL_NEG else -1.0
        for _ in range(25):
            t, s = rng.uniform(0.0, 4.0, size=2)
            assert k.eval(t, s, 0, "adjoint") == pytest.approx(
                sign * k.eval(s, t, 0, "direct"), abs=1e-13
            )


def test_unnormalized_second_derivative_jump_magnitude():
    # descending sort of (1, 2, 3) gives |delta_gamma| = 2
    k = GreenKernel.from_gamma((1.0, 2.0, 3.0))
    assert abs(k.delta_gamma) == pytest.approx(2.0)
    head, tail = second_derivative_limits(k, "adjoint")
    assert abs(head - tail) * abs(k.delta_gamma) == pytest.approx(2.0, rel=1e-12)


GAMMAS = [
    (-1.0, -3.0, -4.0),
    (1.0, -2.0, -3.0),
    (3.0, 2.0, -1.0),
    (4.0, 3.0, 1.0),
    (0.73, -1.91, -4.42),
    (2.6, 1.3, -0.4),
]


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("orientation", ["direct", "adjoint"])
def test_continuity_and_jump_certificates(gamma, orientation):
    k = GreenKernel.from_gamma(gamma)
    modes = k.modes(orientation)
    for d in (0, 1):
        head = modes.side_eval(0.0, d, "head")
        tail = modes.side_eval(0.0, d, "tail")
        assert abs(head - tail) <= 1e-12
    head2, tail2 = second_derivative_limits(k, orientation)
    jump = head2 - tail2
    if orientation == "direct":
        assert jump == pytest.approx(1.0, abs=1e-10)
    else:
        assert abs(jump) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("orientation", ["direct", "adjoint"])
def test_bound_domination(gamma, orientation):
    k = GreenKernel.from_gamma(gamma)
    rng = np.random.default_rng(42)
    t = rng.uniform(0.0, 10.0, size=1000)
    s = rng.uniform(0.0, 10.0, size=1000)
    for d in (0, 1, 2):
        values = np.abs(k.eval(t, s, d, orientation))
        bounds = bound_value(k, t, s, d, orientation)
        assert np.all(values <= bounds * (1.0 + 1e-12) + 1e-300)


def test_bound_coefficients_worked_example():
    k = GreenKernel.from_gamma((-1.0, -3.0, -4.0))
    b0 = k.kernel_bound(0, "adjoint")
    assert set(b0) == {"tail"}
    coef, alpha = b0["tail"]
    assert coef == pytest.approx(6.0)
    assert alpha == pytest.approx(-1.0)  # max gamma
    b2 = k.kernel_bound(2, "adjoint")
    assert b2["tail"][0] == pytest.approx(60.0)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_homogeneous_residual_off_diagonal(gamma):
    """For fixed s, t -> g(t,s) solves the shifted cubic (direct) or its
    reflection (adjoint) away from the diagonal."""
    k = GreenKernel.from_gamma(gamma)
    s = 2.0
    for orientation in ("direct", "adjoint"):
        b2, b1, b0 = cubic_coeffs(k, orientation)
        for t in np.concatenate([np.linspace(0.1, 1.7, 9), np.linspace(2.3, 5.0, 9)]):
            g0 = k.eval(t, s, 0, orientation)
            g1 = k.eval(t, s, 1, orientation)
            g2 = k.eval(t, s, 2, orientation)
            g3 = k.eval(t, s, 3, orientation)
            assert abs(g3 + b2 * g2 + b1 * g1 + b0 * g0) <= 1e-8


def test_L_functional_zero_and_constant():
    k = GreenKernel.from_gamma((-1.0, -3.0, -4.0))
    assert L_functional(k, exprlang.parse("0"), 1.0, 0.0) == 0.0
    # constant input: value becomes t-independent once t clears t0
    v1 = L_functional(k, exprlang.parse("1"), 5.0, 0.0)
    v2 = L_functional(k, exprlang.parse("2"), 9.0, 0.0)
    assert v1 > 0.0
    assert v2 == pytest.approx(2.0 * v1, rel=1e-8)


def test_L_functional_exponential_decay_rate():
    k = GreenKernel.from_gamma((-1.0, -3.0, -4.0))
    E = exprlang.parse("exp(-t)")
    values = [L_functional(k, E, t, 0.0) for t in (6.0, 8.0, 10.0)]
    # decays like exp(-t): successive ratios exp(-2)
    for a, b in zip(values, values[1:]):
        assert b / a == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_L_functional_accepts_grid_function():
    from riccati4.grid import GridFunction
    from riccati4.quadrature import make_panels

    k = GreenKernel.from_gamma((-1.0, -3.0, -4.0))
    t = np.linspace(0.0, 35.0, 900)
    sampled = GridFunction(
        make_panels(t), np.exp(-t), -np.exp(-t), np.exp(-t), -np.exp(-t))
    direct = L_functional(k, exprlang.parse("exp(-t)"), 2.0, 0.0)
    via_grid = L_functional(k, sampled, 2.0, 0.0)
    assert via_grid == pytest.approx(direct, rel=1e-6)


def test_L_functional_against_reference_quadrature():
    k = GreenKernel.from_gamma((1.0, -2.0, -3.0))
    E = exprlang.parse("exp(-0.5*t)")
    t, t0 = 1.5, 0.0

    def integrand(s):
        total = sum(abs(k.eval(t, s, d, "adjoint")) for d in (0, 1, 2))
        return total * math.exp(-0.5 * s)

    reference, _ = quad(integrand, t0, t, limit=200)
    tail, _ = quad(integrand, t, 60.0, limit=400)
    reference += tail
    value = L_functional(k, E, t, t0, quad_tol=1e-12)
    assert value == pytest.approx(reference, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-4.5, max_value=4.5), min_size=3, max_size=3))
def test_random_triples_certificates(raw):
    g = sorted(raw, reverse=True)
    if min(abs(x) for x in g) < 0.15:
        return
    if min(g[0] - g[1], g[1] - g[2]) < 0.15:
        return
    k = GreenKernel.from_gamma(g)
    for orientation in ("direct", "adjoint"):
        modes = k.modes(orientation)
        for d in (0, 1):
            assert abs(modes.side_eval(0.0, d, "head")
                       - modes.side_eval(0.0, d, "tail")) <= 1e-10
        head2, tail2 = second_derivative_limits(k, orientation)
        assert abs(abs(head2 - tail2) - 1.0) <= 1e-9
