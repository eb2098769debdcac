import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from riccati4 import exprlang, hypotheses
from riccati4.errors import DomainError, TailNotConvergent
from riccati4.greens import kernel_for_root
from riccati4.hypotheses import (
    H2_TOL,
    F_operator_eval,
    alpha_displayed,
    check_h2,
    contraction_constants,
    envelope_report,
    kernel_route_A,
    rho_bound,
    smallness_check,
)
from riccati4.quadrature import make_panels
from riccati4.spectra import characteristic_data

from reference_routes import L_functional, two_sided_transform


def test_class_transform_top_root(cd_test):
    E = exprlang.parse("exp(-t)")
    # closed form: integral_t^inf e^{(t-s)} e^{-s} ds = e^{-t} / 2
    assert F_operator_eval(cd_test, 1, E, 0.0, 0.0) == pytest.approx(0.5, rel=1e-9)
    assert F_operator_eval(cd_test, 1, E, 2.0, 0.0) == pytest.approx(
        0.5 * math.exp(-2.0), rel=1e-9)


def test_class_transform_second_root(cd_test):
    E = exprlang.parse("exp(-t)")
    # t e^{-t} + e^{-t}/3 at t = 1 -> 4 / (3 e)
    assert F_operator_eval(cd_test, 2, E, 1.0, 0.0) == pytest.approx(
        4.0 / (3.0 * math.e), rel=1e-9)


def test_class_transform_zero(cd_test):
    assert F_operator_eval(cd_test, 3, exprlang.parse("0"), 1.0, 0.0) == 0.0


def test_class_transform_matches_closed_form_randomly(cd_test):
    rng = np.random.default_rng(3)
    lam = cd_test.lam
    for _ in range(50):
        a = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.0, 4.0))
        E = exprlang.parse(f"exp(-{a}*t)")
        # i=1 tail: rate g = lam2 - lam1 < 0
        g = lam[1] - lam[0]
        expected = math.exp(-a * t) / (a + (-g)) if a + (-g) > 0 else None
        # integral_t^inf e^{-g(t-s)} e^{-a s} ds = e^{-a t} / (a - g)... with g<0
        expected = math.exp(-a * t) / (a - g)
        assert F_operator_eval(cd_test, 1, E, t, 0.0) == pytest.approx(
            expected, rel=1e-8)


def test_rho_bound_examples(cd_test):
    r = ["0.001*exp(-t)", "0", "0", "0"]
    assert rho_bound(cd_test, (1,), r, 0.0)[1] == pytest.approx(5e-4, rel=1e-6)
    assert rho_bound(cd_test, (2,), ["0"] * 4, 0.0) == {2: 0.0}
    # i=4 head transform of e^{-t} is t e^{-t}, sup at t=1
    rho4 = rho_bound(cd_test, (4,), ["exp(-t)", "0", "0", "0"], 0.0)[4]
    assert rho4 == pytest.approx(math.exp(-1.0), rel=1e-3)


def _sampled_rho(cd, i, rj, n_samples=256, quad_tol=1e-10):
    """Max of the adaptive-quadrature transform over rho_bound's offsets."""
    t_span = 40.0 / cd.min_gap
    offsets = np.concatenate([[0.0], np.geomspace(1e-3, t_span, n_samples - 1)])
    return max(F_operator_eval(cd, i, rj, dt, 0.0, quad_tol=quad_tol)
               for dt in offsets), quad_tol


_HARD_CD = characteristic_data(tuple(np.poly([5.0, 1.0, -2.0, -6.0])[1:]))
_HARD_R = ("0.002*exp(-1.3*t)", "0.001*exp(-t)", "-0.003*exp(-2*t)", "0.001*exp(-0.7*t)")
_TEST_R = ("0.001*exp(-t)", "0.001*abs(t-2)*exp(-t)", "0.001*sin(3*t)*exp(-t)")
# decays like a power only: its raw tail integral past the H2 tail length is
# far above TAIL_TOL, its kernel-weighted remainder far below
_SLOW_R = ("0.001/(1+t)^2",)


@pytest.mark.parametrize("problem", ["test", "hard"])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_rho_bound_matches_adaptive_route(cd_test, problem, i):
    cd, perturbations = (cd_test, _TEST_R) if problem == "test" else (_HARD_CD, _HARD_R)
    for rj in perturbations:
        rho = rho_bound(cd, (i,), (rj, "0", "0", "0"), 0.0)[i]
        sampled, quad_tol = _sampled_rho(cd, i, exprlang.parse(rj))
        # the offsets are grid nodes: never below the sampled maximum beyond
        # the adaptive route's own tolerance, and only slightly above it
        assert rho >= sampled - quad_tol
        assert rho <= 1.001 * sampled


@pytest.mark.parametrize("t0", [0.0, 1.5])
@pytest.mark.parametrize("problem", ["test", "hard"])
def test_rho_bound_over_all_roots_equals_single_root_calls(cd_test, problem, t0):
    """One pass over roots 1-4 gives each root the bits of a pass over that
    root alone, with every perturbation active at once."""
    cd, r = (cd_test, _TEST_R + ("0",)) if problem == "test" else (_HARD_CD, _HARD_R)
    bounds = rho_bound(cd, (1, 2, 3, 4), r, t0)
    assert list(bounds) == [1, 2, 3, 4]
    for i in (1, 2, 3, 4):
        single = rho_bound(cd, (i,), r, t0)
        assert isinstance(bounds[i], float) and bounds[i] > 0.0
        assert single[i].hex() == bounds[i].hex()


@pytest.mark.parametrize("problem", ["test", "hard"])
def test_rho_bound_is_the_unbatched_transform(monkeypatch, cd_test, problem):
    """The batched pass (one set of panel weights per rate for every r_j)
    gives, root by root, the bits of the maximum over j of each r_j's own
    head_transform plus seeded tail_transform on the same grid."""
    cd, r = (cd_test, _TEST_R + ("0",)) if problem == "test" else (_HARD_CD, _HARD_R)
    grids = []

    def kept(nodes):
        grids.append(make_panels(nodes))
        return grids[-1]

    monkeypatch.setattr(hypotheses, "make_panels", kept)
    bounds = rho_bound(cd, (1, 2, 3, 4), r, 0.0)
    (panels,) = grids
    for i in (1, 2, 3, 4):
        head_rate, tail_rate = kernel_for_root(cd, i).modes("adjoint").slowest()
        expected = 0.0
        for rj in map(exprlang.parse, r):
            if not exprlang.is_zero(rj):
                transform = two_sided_transform(panels, lambda s, rj=rj: np.abs(rj(s)),
                                                np.abs(rj(panels.gl_x)), head_rate,
                                                tail_rate, hypotheses.TAIL_TOL)
                expected = max(expected, float(transform.max()))
        assert bounds[i].hex() == expected.hex()


def test_rho_bound_maps_each_failing_root_to_its_first_error(cd_test):
    """A failing root keeps the error it meets first in r_j order, the others
    keep their bounds, and envelope_report raises a root's error."""
    # exp(0.5 t) fails the tail seed of roots 1-3 and the sample window of
    # root 4 (a pure head transform); log(t - 1) fails to evaluate at t0 = 0
    r = ("exp(0.5*t)", "0.001*exp(-t)", "0.001*log(t-1)", "0")
    bounds = rho_bound(cd_test, (1, 2, 3, 4), r, 0.0)
    assert all(isinstance(b, TailNotConvergent) for b in bounds.values())
    assert [str(b) for b in bounds.values()] == (
        ["tail integral past t=40.0 did not settle below 1e-10"] * 3
        + ["transform of 'exp(0.5*t)' not settling on the sample window"])
    (bound,) = rho_bound(cd_test, (2,), r[1:], 0.0).values()
    assert isinstance(bound, DomainError) and str(bound) == "log of non-positive argument"
    with pytest.raises(TailNotConvergent, match="tail integral past"):
        envelope_report(cd_test, 1, r, 0.25, bounds[1])


def test_contraction_constants_worked(cd_test):
    dw, alpha, a_const, varsigma = contraction_constants(cd_test, 1, 0.25)
    assert dw == pytest.approx(-6.0)
    assert alpha == pytest.approx((6.0, 18.0, 60.0))
    assert a_const == pytest.approx(14.0)
    assert varsigma == pytest.approx(44.0)  # 25 + 76 * 0.25


def test_constants_symmetry_and_kernel_agreement(cd_test):
    _, _, a1, _ = contraction_constants(cd_test, 1, 0.25)
    _, _, a4, _ = contraction_constants(cd_test, 4, 0.25)
    assert a1 == pytest.approx(a4, rel=1e-13)
    for i in (1, 2, 3, 4):
        _, alpha, a_i, _ = contraction_constants(cd_test, i, 0.25)
        assert a_i == pytest.approx(kernel_route_A(cd_test, i), abs=1e-12 * a_i)
        displayed = alpha_displayed(cd_test, i)
        if i == 3:
            # printed i=3 pattern disagrees with the kernel constants
            assert not np.allclose(displayed, alpha)
        else:
            assert np.allclose(displayed, alpha, rtol=1e-13)


def test_eta_validation(cd_test):
    with pytest.raises(ValueError):
        contraction_constants(cd_test, 1, 0.7)


def test_smallness_examples():
    ok, phi = smallness_check(5e-4, 14.0, 44.0)
    assert ok
    assert phi == pytest.approx(14.0 / (1.0 - 0.308), rel=1e-12)
    assert phi == pytest.approx(20.2312, rel=1e-4)
    ok0, phi0 = smallness_check(0.0, 14.0, 44.0)
    assert ok0 and phi0 == 14.0
    okb, phib = smallness_check(1.0 / (14.0 * 44.0), 14.0, 44.0)
    assert not okb and phib is None


def test_h2_zero_perturbation(cd_test):
    report = check_h2(cd_test, 1, ["0"] * 4)
    assert report.verdict == "PASS"
    assert all(v == 0.0 for _, v in report.samples)
    assert report.fitted_rate is None


def test_h2_exponential_passes_with_unit_rate(cd_test):
    report = check_h2(cd_test, 1, ["exp(-t)", "0", "0", "0"])
    assert report.verdict == "PASS"
    assert report.fitted_rate == pytest.approx(-1.0, abs=0.02)


def test_h2_constant_fails(cd_test):
    report = check_h2(cd_test, 1, ["1", "0", "0", "0"])
    assert report.verdict == "FAIL"


def test_h2_passes_a_power_law_perturbation(cd_test):
    """0.001/(1+t)^2 decays slowly: its exact L ends at 2.2e-7 to 4.0e-7,
    under H2_TOL by less than a factor 5.  A kink-free bound that sums the
    kernel modes' moduli reads 1.5e-6 to 2.7e-6 here and would fail it."""
    for i in (1, 2, 3, 4):
        report = check_h2(cd_test, i, ("0.001/(1+t)^2", "0", "0", "0"))
        assert report.verdict == "PASS"
        assert 1e-7 < report.samples[-1][1] <= H2_TOL


def test_h2_growing_perturbation_raises(cd_test):
    # the tail integrand decays like exp(-u/2): not settled within the grid
    with pytest.raises(TailNotConvergent):
        check_h2(cd_test, 1, ("exp(0.5*t)", "0", "0", "0"))


def test_h2_raises_the_first_error_in_perturbation_order(cd_test):
    """A row's sampling error or its TailNotConvergent is raised in r_j
    order, as each r_j is reached, not when all of them are sampled."""
    growing, undefined = "exp(0.5*t)", "log(t-1)"
    with pytest.raises(TailNotConvergent, match=r"'exp\(0\.5\*t\)'"):
        check_h2(cd_test, 1, (growing, undefined, "0", "0"))
    with pytest.raises(DomainError, match="log of non-positive argument"):
        check_h2(cd_test, 1, (undefined, growing, "0", "0"))


def test_h2_pure_tail_root_decays_at_the_perturbation_rate(cd_test):
    # root 1 has tail modes only, so L(t) = L(t0) exp(-(t - t0)) exactly
    report = check_h2(cd_test, 1, ("0.001*exp(-t)", "0", "0", "0"))
    ts, values = np.array(report.samples).T
    np.testing.assert_allclose(values / values[0], np.exp(-(ts - ts[0])), rtol=1e-10)
    assert report.fitted_rate == pytest.approx(-1.0, abs=1e-9)


def _small_gap_h2(gap, i):
    """check_h2 of r0 = 0.001 exp(-t) at root i of the spectrum
    (2, 1, -1, -1 - gap), whose bottom gap is small: the head side of roots 3
    and 4 integrates over [t0, t] against the spike of exp(-s) at s = t0.
    Returns the report, the adjoint modes, the inner sums of the head weight
    and the kinks of that weight in (0, t)."""
    cd = characteristic_data(tuple(np.poly([2.0, 1.0, -1.0, -1.0 - gap])[1:]))
    modes = kernel_for_root(cd, i).modes("adjoint")

    def inner(u, d):
        return sum(m.coef * m.rate**d * np.exp(m.rate * u) for m in modes.head)

    def kinks(t):
        u = np.geomspace(1e-6, t, 20001)
        return [brentq(inner, u[k], u[k + 1], args=(d,)) for d in range(3)
                for k in np.flatnonzero(inner(u[:-1], d) * inner(u[1:], d) < 0.0)]

    return check_h2(cd, i, ("0.001*exp(-t)", "0", "0", "0")), modes, inner, kinks


def test_h2_small_gap_matches_quad():
    report, _, inner, kinks = _small_gap_h2(0.002, 4)
    for t, value in report.samples[1:]:
        reference = quad(
            lambda s: sum(abs(inner(t - s, d)) for d in range(3)) * 0.001 * math.exp(-s),
            0.0, t, points=[t - z for z in kinks(t)], epsabs=0.0, epsrel=1e-12, limit=500)[0]
        assert value == pytest.approx(reference, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("i", [3, 4])
def test_h2_near_resonant_matches_closed_form(i):
    # gap 1e-5: the samples run to t = 4e6, while the kernel and the
    # perturbation vary on unit scales.  Between kinks the weight is one
    # exponential sum, integrated in closed form; root 3 adds one tail mode.
    report, modes, inner, kinks = _small_gap_h2(1e-5, i)
    assert len(modes.tail) == (1 if i == 3 else 0)
    for t, value in report.samples:
        reference = sum(0.001 * math.exp(-t) * abs(m.coef * m.rate**d) / (m.rate + 1.0)
                        for m in modes.tail for d in range(3))
        cuts = np.unique([0.0, t, *kinks(t)]) if t > 0.0 else []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            signs = [np.sign(inner(0.5 * (lo + hi), d)) for d in range(3)]
            for m in modes.head:
                amp = sum(sign * m.coef * m.rate**d for d, sign in enumerate(signs))
                rate = m.rate + 1.0
                reference += 0.001 * amp * (math.exp(rate * hi - t) - math.exp(rate * lo - t)) / rate
        assert value == pytest.approx(reference, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("problem", ["test", "hard"])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_h2_matches_adaptive_route(cd_test, problem, i):
    cd, perturbations = (cd_test, _TEST_R + _SLOW_R) if problem == "test" else (_HARD_CD, _HARD_R)
    kernel = kernel_for_root(cd, i)
    for rj in perturbations:
        report = check_h2(cd, i, (rj, "0", "0", "0"))
        # the kinks of |r_j| itself are not panel breakpoints
        tol = 1e-9 if rj in _TEST_R[1:] else 1e-12 if rj in _SLOW_R else 1e-10
        for t, value in report.samples:
            reference = L_functional(kernel, exprlang.parse(rj), t, 0.0, quad_tol=1e-12)
            assert value == pytest.approx(reference, abs=tol)


def test_h2_near_resonant_resolves_the_fast_modes():
    # gap 1e-5: panels of the graded grid are thousands of unit decay lengths
    # wide at the late samples, so the grid must grade toward every read point
    cd = characteristic_data(tuple(np.poly([2.0, 1.0, -1.0, -1.0 - 1e-5])[1:]))
    kernel = kernel_for_root(cd, 3)
    rj = _SLOW_R[0]
    report = check_h2(cd, 3, (rj, "0", "0", "0"))
    for t, value in report.samples[:4]:
        reference = L_functional(kernel, exprlang.parse(rj), t, 0.0, quad_tol=1e-12)
        assert value == pytest.approx(reference, abs=1e-12)


def test_h2_builds_one_grid_per_call(cd_test, monkeypatch):
    calls = []

    def counting_make_panels(nodes):
        calls.append(len(nodes))
        return make_panels(nodes)

    monkeypatch.setattr(hypotheses, "make_panels", counting_make_panels)
    assert check_h2(cd_test, 2, _TEST_R + ("0",)).verdict == "PASS"
    assert len(calls) == 1


def test_envelope_report_epsilon(cd_test, r_eps):
    env = envelope_report(cd_test, 1, r_eps, 0.25, rho_bound(cd_test, (1,), r_eps, 0.0)[1])
    assert env.smallness_ok
    assert env.Phi == pytest.approx(20.2312, rel=1e-4)
    assert env.rho == pytest.approx(5e-4, rel=1e-6)
    assert env.h2.verdict == "PASS"
    assert env.A == pytest.approx(env.A_kernel, abs=1e-12 * env.A)
