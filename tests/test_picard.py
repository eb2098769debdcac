import numpy as np
import pytest

from riccati4.errors import Diverged, MaxIterExceeded
from riccati4.grid import GridFunction
from riccati4.hypotheses import envelope_report
from riccati4.picard import (
    IntegralOperator,
    beta_interval,
    default_grid,
    envelope_check,
    envelope_integral,
    first_iterate_ratio,
    iterate_to_fixed_point,
    resolve_orientation,
)
from riccati4.quadrature import BLOCK_PANELS, graded_nodes, make_panels
from riccati4.riccati import build_system, residual_profile

from reference_routes import NoLimit, kernel_integral, operator_forcing, phi_sequence

EPS = 1e-3


def test_T_of_zero_without_forcing(cd_test, r_zero, grid_1024):
    sys1 = build_system(cd_test, r_zero, 1)
    for orientation in ("direct", "adjoint"):
        out = IntegralOperator(sys1, grid_1024, orientation).apply(None)
        assert out.norm_c02() == 0.0


def test_adjoint_first_iterate_closed_form(eps_systems, grid_1024):
    """T0 for the transposed kernel is -(eps/40) e^{-t}; at t=0: -2.5e-5."""
    out = IntegralOperator(eps_systems[1], grid_1024, "adjoint").apply(None)
    expected = -(EPS / 40.0) * np.exp(-grid_1024.nodes)
    assert np.max(np.abs(out.value - expected)) <= 1e-15
    assert out.value[0] == pytest.approx(-2.5e-5, rel=1e-10)


def test_direct_first_iterate_closed_form(eps_systems, grid_1024):
    """The operator-inverting first iterate carries the resonant t e^{-t}."""
    t = grid_1024.nodes
    out = IntegralOperator(eps_systems[1], grid_1024, "direct").apply(None)
    expected = -EPS * (
        t * np.exp(-t) / 6.0
        - (np.exp(-t) - np.exp(-3.0 * t)) / 4.0
        + (np.exp(-t) - np.exp(-4.0 * t)) / 9.0
    )
    assert np.max(np.abs(out.value - expected)) <= 1e-15


# every perturbation active, so that each F coefficient is sampled
R_ALL = ("0.001*exp(-t)", "0.002*exp(-2*t)*cos(t)", "0.0005*exp(-t)", "0.001*exp(-3*t)")


def channels(z):
    return np.array([z.value, z.d1, z.d2, z.d3])


@pytest.mark.parametrize("n_panels", [BLOCK_PANELS // 4, 2 * BLOCK_PANELS + 300],
                         ids=["under-one-block", "partial-last-block"])
@pytest.mark.parametrize("orientation", ["direct", "adjoint"])
@pytest.mark.parametrize("root", [1, 2, 4])
def test_blocked_apply_equals_the_unblocked_route(cd_test, n_panels, orientation, root):
    """apply forms the panel sums one block of panels at a time from weights
    built once; the bits are those of the whole-grid transforms."""
    sys = build_system(cd_test, R_ALL, root)
    op = IntegralOperator(sys, default_grid(cd_test, 0.0, n_panels + 1), orientation)
    rng = np.random.default_rng(root)
    z = GridFunction(op.grid, *(1e-3 * rng.standard_normal((4, n_panels + 1))))
    for arg in (None, z):
        assert channels(op.apply(arg)).tobytes() == kernel_integral(
            op, *operator_forcing(op, arg)).tobytes()
    probe = lambda s: np.exp(-1.3 * np.asarray(s))
    assert channels(op.apply_forcing(probe)).tobytes() == kernel_integral(
        op, probe(op.grid.gl_x), probe(op.grid.nodes), probe).tobytes()


def test_first_iterate_ratio_reads_the_solves_T0(eps_systems, grid_1024, monkeypatch):
    """T(0) is computed once per operator: Picard step 1 and the first-iterate
    ratio read the same object."""
    op = IntegralOperator(eps_systems[1], grid_1024)
    steps = []
    iterate_to_fixed_point(op, snapshot=lambda n, z: steps.append(z))
    applied = []
    apply = op.apply
    monkeypatch.setattr(op, "apply", lambda z: applied.append(apply(z)) or applied[-1])
    first_iterate_ratio(op, 14.0, envelope_integral(op, beta_interval(op.sys)[0]))
    assert len(applied) == 1 and applied[0] is steps[0]


def test_orientation_resolution(eps_systems):
    for i in (1, 2, 3, 4):
        probe = resolve_orientation(eps_systems[i])
        assert probe["selected"] == "direct"
        assert probe["residuals"]["direct"] <= 1e-8
        assert probe["residuals"]["adjoint"] > 1e-3


def test_zero_perturbation_converges_in_one_iteration(cd_test, r_zero, grid_1024):
    sys1 = build_system(cd_test, r_zero, 1)
    z, trace = iterate_to_fixed_point(IntegralOperator(sys1, grid_1024))
    assert trace.converged and trace.n_iter == 1
    assert z.norm_c02() == 0.0
    assert trace.certificate == 0.0


def test_epsilon_problem_fixed_point(eps_systems, eps_solutions):
    for i in (1, 2, 3, 4):
        z, trace = eps_solutions[i]
        assert trace.converged
        assert trace.certificate <= 1e-10
        residual = np.max(np.abs(residual_profile(eps_systems[i], z)))
        assert residual <= 1e-6
        # plain Picard contraction stays below the certified bound by far
        assert all(c <= 0.408 for c in trace.contraction)


def test_apply_T_reproduces_fixed_point(eps_systems, eps_solutions):
    z, _ = eps_solutions[2]
    again = IntegralOperator(eps_systems[2], z.grid, "direct").apply(z)
    assert again.diff_norm(z) <= 1e-10


def test_contraction_between_nearby_states(eps_systems, grid_1024):
    """||T z1 - T z2|| <= k ||z1 - z2|| with k < 1 inside the small ball."""
    sys1 = eps_systems[1]
    op = IntegralOperator(sys1, grid_1024, "direct")
    rng = np.random.default_rng(5)
    t = grid_1024.nodes
    for _ in range(5):
        a1, a2 = rng.uniform(0.5, 2.5, size=2)
        c1, c2 = rng.uniform(-5e-3, 5e-3, size=2)
        z1 = GridFunction(
            grid_1024, c1 * np.exp(-a1 * t), -a1 * c1 * np.exp(-a1 * t),
            a1**2 * c1 * np.exp(-a1 * t), -a1**3 * c1 * np.exp(-a1 * t))
        z2 = GridFunction(
            grid_1024, c2 * np.exp(-a2 * t), -a2 * c2 * np.exp(-a2 * t),
            a2**2 * c2 * np.exp(-a2 * t), -a2**3 * c2 * np.exp(-a2 * t))
        lhs = op.apply(z1).diff_norm(op.apply(z2))
        rhs = z1.diff_norm(z2)
        assert lhs <= 0.5 * rhs


def test_divergence_for_large_perturbation(cd_test):
    r = ["10*exp(-t)", "0", "0", "0"]
    sys3 = build_system(cd_test, r, 3)
    grid = default_grid(cd_test, 0.0, 512)
    with pytest.raises((Diverged, MaxIterExceeded)):
        iterate_to_fixed_point(IntegralOperator(sys3, grid))


def test_derivative_channel_consistency(eps_solutions, grid_1024):
    """Channel 1 of the fixed point is the numeric derivative of channel 0."""
    z, _ = eps_solutions[1]
    t = z.nodes
    interior = slice(1, -1)
    num = (z.value[2:] - z.value[:-2]) / (t[2:] - t[:-2])
    assert np.max(np.abs(num - z.d1[interior])) <= 1e-6


def test_integrating_d1_recovers_value(eps_solutions):
    z, _ = eps_solutions[1]
    t = z.nodes
    # trapezoid of d1 across each panel reproduces the value channel
    rebuilt = z.value[0] + np.concatenate(
        [[0.0], np.cumsum(0.5 * (z.d1[1:] + z.d1[:-1]) * np.diff(t))]
    )
    assert np.max(np.abs(rebuilt - z.value)) <= 1e-6


def test_grid_refinement_stability(eps_systems, cd_test):
    sys1 = eps_systems[1]
    za, _ = iterate_to_fixed_point(
        IntegralOperator(sys1, default_grid(cd_test, 0.0, 1024)))
    zb, _ = iterate_to_fixed_point(
        IntegralOperator(sys1, default_grid(cd_test, 0.0, 2048)))
    probes = za.nodes
    ca = za.channels_at(probes)
    cb = zb.channels_at(probes)
    diff = max(float(np.max(np.abs(ca[k] - cb[k]))) for k in range(3))
    assert diff <= 1e-11  # 10 * quad_tol


def test_phi_sequence():
    seq, limit = phi_sequence(14.0, 0.0, 44.0, 6)
    assert seq == [14.0] * 6 and limit == 14.0
    seq, limit = phi_sequence(14.0, 5e-4, 44.0, 40)
    assert limit == pytest.approx(20.2312, rel=1e-4)
    # monotone increasing toward the limit (saturates at float precision)
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    assert seq[5] > seq[0]
    assert seq[-1] == pytest.approx(limit, rel=1e-10)
    with pytest.raises(NoLimit):
        phi_sequence(14.0, 1.0 / (14.0 * 44.0), 44.0, 5)


def test_envelope_closed_form_and_check(eps_systems, grid_1024):
    adjoint = IntegralOperator(eps_systems[1], grid_1024, "adjoint")
    env = envelope_integral(adjoint, -1.0)
    expected = (EPS / 2.0) * np.exp(-grid_1024.nodes)
    assert np.max(np.abs(env - expected) / expected) <= 1e-10

    z_adj, _ = iterate_to_fixed_point(adjoint)
    ok, ratio = envelope_check(adjoint, z_adj, env, 20.2312138724924)
    assert ok and 0.0 < ratio <= 1.0


def test_envelope_zero_problem(cd_test, r_zero, grid_1024):
    sys1 = build_system(cd_test, r_zero, 1)
    z = GridFunction.zero(grid_1024)
    op = IntegralOperator(sys1, grid_1024, "adjoint")
    ok, ratio = envelope_check(op, z, envelope_integral(op, -1.0), 14.0)
    assert ok and ratio == 0.0


def test_envelope_beta_validation(eps_systems, grid_1024):
    with pytest.raises(ValueError):
        envelope_integral(IntegralOperator(eps_systems[1], grid_1024, "adjoint"),
                          -1.5)  # below lam2 - lam1
    with pytest.raises(ValueError):
        envelope_integral(IntegralOperator(eps_systems[4], grid_1024, "adjoint"),
                          -0.5)  # i=4 needs beta > 0


@pytest.mark.parametrize("foreign", ["more_nodes", "shifted_node"])
def test_envelope_check_refuses_a_function_of_another_grid(eps_systems, foreign):
    """envelope_check takes z on the operator's own grid only, also when the
    other grid has as many nodes and differs in one node by 1e-9."""
    nodes = graded_nodes(0.0, 5.0, 64)
    op = IntegralOperator(eps_systems[1], make_panels(nodes))
    if foreign == "more_nodes":
        other = graded_nodes(0.0, 5.0, 65)
    else:
        other = nodes.copy()
        other[10] += 1e-9
    z = GridFunction.zero(make_panels(other))
    with pytest.raises(ValueError, match="another panel grid"):
        envelope_check(op, z, envelope_integral(op, -1.0), 14.0)


def test_first_iterate_ratio_value(eps_systems, grid_1024):
    op = IntegralOperator(eps_systems[1], grid_1024, "adjoint")
    ratio = first_iterate_ratio(op, 14.0, envelope_integral(op, -1.0))
    assert ratio == pytest.approx(1.0 / 280.0, rel=1e-9)


def test_direct_envelope_certifies_delivered_fixed_point(cd_test, r_eps, eps_systems,
                                                        eps_solutions, grid_1024):
    """The direct-kernel envelope bounds the z the solver delivers, with the
    same Phi, and the direct first iterate stays below A times it."""
    for i in (1, 2, 3, 4):
        sys = eps_systems[i]
        z, _ = eps_solutions[i]
        env = envelope_report(cd_test, i, r_eps, 0.25)
        lo, hi = beta_interval(sys)
        beta = hi if i == 4 else lo
        op = IntegralOperator(sys, grid_1024)
        envelope = envelope_integral(op, beta)
        ok, ratio = envelope_check(op, z, envelope, env.Phi)
        assert ok and 0.0 < ratio <= 1.0
        first = first_iterate_ratio(op, env.A, envelope)
        assert 0.0 < first <= 1.0


def test_orientation_fixed_points_differ_by_first_iterates(eps_systems, grid_1024):
    """The two orientations converge to different objects whose gap is, to
    second order in the perturbation, the gap of their first iterates (the
    resonant head response the transposed kernel cannot produce)."""
    sys1 = eps_systems[1]
    z_dir, _ = iterate_to_fixed_point(IntegralOperator(sys1, grid_1024, "direct"))
    z_adj, _ = iterate_to_fixed_point(IntegralOperator(sys1, grid_1024, "adjoint"))
    t0_dir = IntegralOperator(sys1, grid_1024, "direct").apply(None)
    t0_adj = IntegralOperator(sys1, grid_1024, "adjoint").apply(None)
    gap = z_dir.value - z_adj.value
    assert np.max(np.abs(gap)) > 1e-5  # genuinely different objects
    second_order = np.max(np.abs(gap - (t0_dir.value - t0_adj.value)))
    assert second_order <= 1e-8
