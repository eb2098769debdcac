import importlib.util
from pathlib import Path

import numpy as np
import pytest

from riccati4 import hypotheses
from riccati4.errors import Diverged, MaxIterExceeded
from riccati4.grid import GridFunction
from riccati4.hypotheses import envelope_report, rho_bound
from riccati4.picard import (
    IntegralOperator,
    default_grid,
    envelope_check,
    envelope_integral,
    first_iterate_ratio,
    iterate_to_fixed_point,
    resolve_orientation,
)
from riccati4.quadrature import (BLOCK_PANELS, GL8_MAX_RATE_WIDTH, exponential_tail_seed,
                                 gl_order, graded_nodes, head_transform, make_panels,
                                 tail_transform)
from riccati4.riccati import build_system, residual_profile
from riccati4.spectra import characteristic_data, vieta_coefficients

from reference_routes import (NoLimit, kernel_integral, operator_forcing, phi_sequence,
                              probe_residuals, two_sided_transform)

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
    first_iterate_ratio(op, 14.0, envelope_integral(op))
    assert len(applied) == 1 and applied[0] is steps[0]


def test_orientation_resolution(eps_systems):
    for i in (1, 2, 3, 4):
        probe = resolve_orientation(eps_systems[i])
        assert probe["selected"] == "direct"
        assert probe["residuals"]["direct"] <= 1e-8
        assert probe["residuals"]["adjoint"] > 1e-3


def test_orientation_residuals_keep_their_bytes(eps_systems):
    """The probe residuals formed through riccati.third_order_lhs have the
    bits of the left-hand side written out in place."""
    for i in (1, 2, 3, 4):
        got = resolve_orientation(eps_systems[i])["residuals"]
        expected = probe_residuals(eps_systems[i])
        assert {o: r.hex() for o, r in got.items()} == {o: r.hex() for o, r in expected.items()}


def test_zero_perturbation_converges_in_one_iteration(cd_test, r_zero, grid_1024):
    sys1 = build_system(cd_test, r_zero, 1)
    z, trace = iterate_to_fixed_point(IntegralOperator(sys1, grid_1024))
    assert trace.n_iter == 1
    assert z.norm_c02() == 0.0
    assert trace.certificate == 0.0


def test_epsilon_problem_fixed_point(eps_systems, eps_solutions):
    for i in (1, 2, 3, 4):
        z, trace = eps_solutions[i]
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


def test_iteration_cap_below_convergence_raises(eps_operators, eps_solutions):
    """A solve returns only once it converges: capped one step short of the
    step at which it converged, it raises MaxIterExceeded."""
    for i in (1, 2, 3, 4):
        n = eps_solutions[i][1].n_iter
        assert n > 1
        with pytest.raises(MaxIterExceeded):
            iterate_to_fixed_point(eps_operators[i], max_iter=n - 1)


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
    env = envelope_integral(adjoint)
    expected = (EPS / 2.0) * np.exp(-grid_1024.nodes)
    assert np.max(np.abs(env - expected) / expected) <= 1e-10

    z_adj, _ = iterate_to_fixed_point(adjoint)
    ok, ratio = envelope_check(adjoint, z_adj, env, 20.2312138724924)
    assert ok and 0.0 < ratio <= 1.0


def test_envelope_zero_problem(cd_test, r_zero, grid_1024):
    sys1 = build_system(cd_test, r_zero, 1)
    z = GridFunction.zero(grid_1024)
    op = IntegralOperator(sys1, grid_1024, "adjoint")
    ok, ratio = envelope_check(op, z, envelope_integral(op), 14.0)
    assert ok and ratio == 0.0


def test_envelope_keeps_the_tail_of_a_forcing_that_vanishes_on_the_grid(cd_test):
    """r0 = |t - 30| + (t - 30) is zero up to t = 30 and grows past it, so on
    the standard spectrum's 256-node grid, which ends at t = 27.6, Omega
    vanishes at every point sampled.  Root 4's envelope, a pure tail
    transform, still ends at the tail seed of |Omega| past the grid."""
    sys = build_system(cd_test, ("abs(t-30)+(t-30)", "0", "0", "0"), 4)
    op = IntegralOperator(sys, default_grid(cd_test, 0.0, 256))
    assert not np.any(op.omega(op.grid.gl_x)) and not np.any(op.omega(op.grid.nodes))
    seed = exponential_tail_seed(lambda s: np.abs(op.omega(s)), op.grid,
                                 op.modes.slowest()[1], op.quad_tol)
    end = envelope_integral(op)[-1]
    assert end != 0.0 and end == seed


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
        envelope_check(op, z, envelope_integral(op), 14.0)


def test_first_iterate_ratio_value(eps_systems, grid_1024):
    op = IntegralOperator(eps_systems[1], grid_1024, "adjoint")
    ratio = first_iterate_ratio(op, 14.0, envelope_integral(op))
    assert ratio == pytest.approx(1.0 / 280.0, rel=1e-9)


def test_direct_envelope_certifies_delivered_fixed_point(cd_test, r_eps, eps_systems,
                                                        eps_solutions, grid_1024):
    """The direct-kernel envelope bounds the z the solver delivers, with the
    same Phi, and the direct first iterate stays below A times it."""
    rho = rho_bound(cd_test, (1, 2, 3, 4), r_eps, 0.0)
    for i in (1, 2, 3, 4):
        sys = eps_systems[i]
        z, _ = eps_solutions[i]
        env = envelope_report(cd_test, i, r_eps, 0.25, rho[i])
        op = IntegralOperator(sys, grid_1024)
        envelope = envelope_integral(op)
        ok, ratio = envelope_check(op, z, envelope, env.Phi)
        assert ok and 0.0 < ratio <= 1.0
        first = first_iterate_ratio(op, env.A, envelope)
        assert 0.0 < first <= 1.0


@pytest.mark.parametrize("orientation", ["direct", "adjoint"])
def test_envelope_is_the_transform_at_the_slowest_modes(eps_systems, grid_1024, orientation):
    """E_i is the head transform of |Omega| at the operator's slowest head
    mode plus its seeded tail transform at the slowest tail mode, byte for
    byte, in either orientation."""
    for i in (1, 2, 3, 4):
        op = IntegralOperator(eps_systems[i], grid_1024, orientation)
        expected = two_sided_transform(grid_1024, lambda s: np.abs(op.omega(s)),
                                       np.abs(op.omega(grid_1024.gl_x)), *op.modes.slowest(),
                                       op.quad_tol)
        assert envelope_integral(op).tobytes() == expected.tobytes()


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


def _workload_specs():
    """{name: ProblemSpec} of the benchmark workloads at seed 0, from
    perfbench/workloads.py (read-only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: module.build_spec(name, 0) for name in module.WORKLOADS}


def _problem(spec):
    """(characteristic data, perturbations, nodes, t0, t_max) of a spec."""
    cd = characteristic_data(spec.a, root_tol=spec.root_tol, gap_tol=spec.gap_tol)
    return cd, spec.parsed_r(), spec.nodes, spec.t0, spec.t_max


def test_gl_order_switches_at_the_rate_width_cut():
    nodes = np.array([0.0, 0.5, 1.0])
    assert gl_order(nodes, 2.0 * GL8_MAX_RATE_WIDTH) == 8
    assert gl_order(nodes, -2.0 * GL8_MAX_RATE_WIDTH) == 8
    assert gl_order(nodes, np.nextafter(2.0 * GL8_MAX_RATE_WIDTH, np.inf)) == 16


def test_default_grid_takes_8_points_on_the_workloads_and_16_on_a_coarse_stiff_grid(
        monkeypatch):
    """The run grid (rate lam_1 - lam_4 times the widest panel: 0.11, 1.15
    and 0.044) and rho's grid use 8 points on the three workload spectra at
    their node counts; the run grid on (40, 1, -1, -40) at 256 nodes, where
    that product is 8.65, keeps 16."""
    rho_orders = []

    def kept(nodes, order):
        rho_orders.append(order)
        return make_panels(nodes, order)

    monkeypatch.setattr(hypotheses, "make_panels", kept)
    for spec in _workload_specs().values():
        cd, r, nodes, t0, t_max = _problem(spec)
        grid = default_grid(cd, t0, nodes, t_max)
        assert grid.order == 8 and grid.gl_x.shape == grid.gl_w.shape == (nodes - 1, 8)
        rho_bound(cd, (1, 2, 3, 4), r, t0)
    assert rho_orders == [8, 8, 8]

    cd = characteristic_data(vieta_coefficients((40.0, 1.0, -1.0, -40.0)))
    grid = default_grid(cd, 0.0, 256)
    assert (cd.lam[0] - cd.lam[-1]) * grid.widths.max() == pytest.approx(8.65, abs=0.01)
    assert grid.order == 16 and grid.gl_x.shape == (255, 16)


def _modulus_image(op, z):
    """The scale of the rounding of T z's channels: the sum over op's kernel
    modes of |coef| |rate|^d times the transform of |Omega + F(z)| (tails
    seeded by |Omega|), plus |jump| |Omega + F(z)| at the nodes in d3."""
    f_gl, f_nodes, past = operator_forcing(op, z)
    f_gl = np.abs(f_gl)
    ch = np.zeros((4, op.grid.nodes.size))
    for m in op.modes.head + op.modes.tail:
        if m.rate < 0.0:
            x = head_transform(op.grid, f_gl, m.rate)
        else:
            seed = exponential_tail_seed(lambda s: np.abs(past(s)), op.grid, m.rate,
                                         op.quad_tol)
            x = tail_transform(op.grid, f_gl, m.rate, seed)
        for d in range(4):
            ch[d] += abs(m.coef) * abs(m.rate)**d * x
    ch[3] += abs(op.modes.jump) * np.abs(f_nodes)
    return ch


@pytest.mark.parametrize("problem", ["standard", "hard", "biharmonic-fine", "stiff"])
def test_the_8_point_run_grid_gives_the_z_of_the_16_point_rule(problem, r_eps):
    """z solved on the 8-point run grid matches z solved with 16 points on
    the same nodes, channel by channel, to the rounding of the transforms.

    At rate times width <= 1.15 both rules' remainders are below 5e-16
    relative (quadrature's module docstring), so the two solves differ by
    their rounding.  Per side, each channel of T z is within gamma_K S of
    its value in exact arithmetic (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, ch. 3), with S the same channel
    formed from |coef| |rate|^d and |Omega + F(z)| (_modulus_image) and K
    counting the relative errors along each term's path: a (t_max - t0) for
    the rounded abscissae (a = lam_1 - lam_4), 20 for the weight, its
    product with f and a 16-point panel sum, 3 N for the N panels' decays,
    products and sums of the recurrence, and 20 for the mode sum, the
    forcing's own rounding and the remainder.  Picard carries earlier steps'
    rounding in with the factor of its observed contraction q, so the gap is
    at most 2 gamma_K S / (1 - q).
    The stiff problem is (100, 50, -50, -100) with r0 = 0.001 e^-t on 2048
    nodes."""
    if problem == "stiff":
        cd = characteristic_data(vieta_coefficients((100.0, 50.0, -50.0, -100.0)))
        r, nodes, t0, t_max = r_eps, 2048, 0.0, None
    else:
        cd, r, nodes, t0, t_max = _problem(_workload_specs()[problem])
    grid = default_grid(cd, t0, nodes, t_max)
    wide = make_panels(grid.nodes, 16)
    assert grid.order == 8
    k = ((cd.lam[0] - cd.lam[-1]) * (grid.nodes[-1] - grid.nodes[0]) + 20
         + 3 * grid.nodes.size + 20)
    u = np.finfo(float).eps / 2
    gamma = k * u / (1.0 - k * u)
    for i in (1, 2, 3, 4):
        sys_i = build_system(cd, r, i)
        z8, _ = iterate_to_fixed_point(IntegralOperator(sys_i, grid))
        op = IntegralOperator(sys_i, wide)
        z16, trace = iterate_to_fixed_point(op)
        q = max(trace.contraction, default=0.0)
        assert q < 0.5
        scale = _modulus_image(op, z16)
        for got, want, s in zip(channels(z8), channels(z16), scale):
            assert np.all(np.abs(got - want) <= 2.0 * gamma * s / (1.0 - q))
