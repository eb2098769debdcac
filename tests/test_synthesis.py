import math

import numpy as np
import pytest

from riccati4.grid import GridFunction
from riccati4.picard import IntegralOperator, default_grid, iterate_to_fixed_point
from riccati4.quadrature import panel_blocks
from riccati4.riccati import build_system, log_derivative_ratios
from riccati4.synthesis import (
    asymptotic_integral_formula,
    derivative_ratio_limits,
    double_integral_identity_residual,
    fundamental_solution,
    vandermonde_target,
    wronskian_normalized,
)

from reference_routes import synthesis_integrals

# every perturbation active, so that every term of F enters the correction
R_ALL = ("0.002*exp(-1.3*t)", "0.001*exp(-t)", "-0.003*exp(-2*t)", "0.001*exp(-0.7*t)")


def wronskian_raw(fss, t):
    """Unnormalized Wronskian; carries the exp(sum integral(lam_i + z_i))
    growth factor on top of the normalized determinant."""
    log_scale = sum(float(fs.log_y_at(t)) for fs in fss)
    return wronskian_normalized(fss, t) * math.exp(log_scale)


@pytest.fixture(scope="module")
def trivial_solutions(cd_test, r_zero, grid_1024):
    out = []
    for i in (1, 2, 3, 4):
        op = IntegralOperator(build_system(cd_test, r_zero, i), grid_1024)
        out.append(fundamental_solution(op, GridFunction.zero(grid_1024), cd_test))
    return out


def test_trivial_solution_is_pure_exponential(trivial_solutions, cd_test, grid_1024):
    for fs, lam in zip(trivial_solutions, cd_test.lam):
        assert fs.y_at(np.array([fs.nodes[0]]))[0] == 1.0
        ts = grid_1024.nodes[grid_1024.nodes <= 10.0]
        y = fs.y_at(ts)
        exact = np.exp(lam * ts)
        assert np.max(np.abs(y - exact) / exact) <= 1e-10
        for l, ratio in enumerate(fs.ratios, start=1):
            assert np.allclose(ratio, lam**l, rtol=0, atol=1e-12 * max(1, abs(lam) ** l))


def test_pi_product(trivial_solutions):
    assert trivial_solutions[0].pi_i == pytest.approx(-12.0)
    # (lam1-lam4)(lam2-lam4)(lam3-lam4) = (4)(3)(1)
    assert trivial_solutions[3].pi_i == pytest.approx(12.0)


def test_ratio_limits_trivial(trivial_solutions):
    fs = trivial_solutions[0]
    errors, verdict = derivative_ratio_limits(fs)
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
        predicted, gap = asymptotic_integral_formula(fs)
        assert np.allclose(predicted, lam * (fs.nodes - fs.nodes[0]), atol=1e-12)
        assert np.max(gap) <= 1e-12  # accumulated roundoff of the log-y quadrature


def test_epsilon_ratio_error_tracks_z(cd_test, eps_operators, eps_solutions):
    z, _ = eps_solutions[1]
    fs = fundamental_solution(eps_operators[1], z, cd_test)
    errors, verdict = derivative_ratio_limits(fs)
    assert verdict == "PASS"
    # first-order ratio error is exactly |z|
    assert np.allclose(errors[0], np.abs(z.value), atol=1e-15)


@pytest.fixture(scope="module")
def eps_fss(cd_test, eps_operators, eps_solutions):
    return [fundamental_solution(eps_operators[i], eps_solutions[i][0], cd_test)
            for i in (1, 2, 3, 4)]


def test_epsilon_wronskian_and_formula_gap(eps_fss):
    fss = eps_fss
    t_end = fss[0].nodes[-1]
    w = wronskian_normalized(fss, t_end)
    assert abs(w - 72.0) / 72.0 <= 0.01

    # an array of times gives the bits of one call per time
    ts = fss[0].nodes[::7]
    batched = wronskian_normalized(fss, ts)
    single = [wronskian_normalized(fss, t) for t in ts]
    assert batched.tobytes() == np.array(single).tobytes()

    _, gap = asymptotic_integral_formula(fss[0])
    mid = len(gap) // 2
    assert gap[-1] < gap[mid]
    assert gap[-1] <= 1e-6


def test_wronskian_reads_the_nearest_node(eps_fss):
    """Each time reads the node nearest to it, the lower one on a tie, as
    argmin of the distance picks it; outside the grid, the end node."""
    nodes = eps_fss[0].nodes
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    assert np.any(mid - nodes[:-1] == nodes[1:] - mid)  # exact ties occur
    rng = np.random.default_rng(5)
    ts = np.concatenate([nodes, mid, rng.uniform(nodes[0] - 1.0, nodes[-1] + 1.0, 500)])
    nearest = [nodes[np.argmin(np.abs(nodes - t))] for t in ts]
    expected = [wronskian_normalized(eps_fss, t) for t in nearest]
    assert wronskian_normalized(eps_fss, ts).tobytes() == np.array(expected).tobytes()


def test_ratios_on_a_node_subset_have_the_full_array_bits(eps_fss):
    """The ratios on any subset of nodes carry the bits of the whole-array
    FundamentalSolution.ratios there, and state_at reads those bits."""
    rng = np.random.default_rng(11)
    for fs in eps_fss:
        full = np.array(fs.ratios)
        z = fs.z
        for size in (1, 2, 7, 8, 9, 257):
            k = rng.integers(0, z.nodes.size, size)
            sub = log_derivative_ratios(fs.lam, z.value[k], z.d1[k], z.d2[k], z.d3[k])
            assert np.array(sub).tobytes() == full[:, k].tobytes()
        for k in (0, 1, 500, z.nodes.size - 1):
            assert fs.state_at(k).tobytes() == np.append(1.0, full[:3, k]).tobytes()


def test_wronskian_shapes(eps_fss):
    t = eps_fss[0].nodes[[3, 9, 27, 81, 243, 729]]
    assert type(wronskian_normalized(eps_fss, t[0])) is float
    assert wronskian_normalized(eps_fss, t.reshape(2, 3)).shape == (2, 3)
    assert wronskian_normalized(eps_fss, [t[0]]).shape == (1,)


def test_wronskian_needs_one_grid(eps_fss, cd_test, eps_systems, eps_solutions):
    with pytest.raises(ValueError, match="all four"):
        wronskian_normalized(eps_fss[:3], 1.0)
    z = eps_solutions[4][0]
    # the same nodes on another grid object
    other = GridFunction(default_grid(cd_test, 0.0, z.nodes.size),
                         z.value, z.d1, z.d2, z.d3)
    moved = fundamental_solution(IntegralOperator(eps_systems[4], other.grid), other, cd_test)
    with pytest.raises(ValueError, match="different panel grids"):
        wronskian_normalized(eps_fss[:3] + [moved], 1.0)


def count_applies(monkeypatch):
    """The list that records each IntegralOperator.apply from now on."""
    calls = []
    apply = IntegralOperator.apply

    def counted(self, z, **kwargs):
        calls.append(z)
        return apply(self, z, **kwargs)

    monkeypatch.setattr(IntegralOperator, "apply", counted)
    return calls


def assert_reference_bits(fs, sys):
    log_y, correction = synthesis_integrals(sys, fs.z)
    assert fs.log_y.tobytes() == log_y.tobytes()
    assert fs.correction.tobytes() == (correction / fs.pi_i).tobytes()


@pytest.mark.parametrize("n_nodes, n_blocks", [(1024, 1), (2500, 3)])
def test_integrals_are_read_off_the_certificate_apply(cd_test, monkeypatch, n_nodes, n_blocks):
    """log y and the asymptotic correction of the delivered z are the
    panel integrals the certificate's apply formed, with the bits of the
    whole-grid integrals, across block edges too."""
    grid = default_grid(cd_test, 0.0, n_nodes)
    assert len(panel_blocks(grid)) == n_blocks
    for i in (1, 2, 3, 4):
        sys = build_system(cd_test, R_ALL, i)
        op = IntegralOperator(sys, grid)
        z, _ = iterate_to_fixed_point(op)
        applies = count_applies(monkeypatch)
        fs = fundamental_solution(op, z, cd_test)
        assert applies == []
        assert_reference_bits(fs, sys)
        monkeypatch.undo()


@pytest.mark.parametrize("n_nodes", [1024, 2500])
def test_integrals_of_a_z_the_operator_did_not_apply_last(cd_test, monkeypatch, n_nodes):
    """For a z that the last apply with integrals did not take, the operator
    applies z once with them; then it reads them off."""
    grid = default_grid(cd_test, 0.0, n_nodes)
    sys = build_system(cd_test, R_ALL, 2)
    op = IntegralOperator(sys, grid)
    z, _ = iterate_to_fixed_point(op)
    half = GridFunction(grid, 0.5 * z.value, 0.5 * z.d1, 0.5 * z.d2, 0.5 * z.d3)
    applies = count_applies(monkeypatch)
    for other in (half, GridFunction.zero(grid), z):
        fs = fundamental_solution(op, other, cd_test)
        assert applies[-1] is other
        assert_reference_bits(fs, sys)
    assert len(applies) == 3
    op.apply(half)  # an apply without integrals keeps those of z
    fs = fundamental_solution(op, z, cd_test)
    assert len(applies) == 4
    assert_reference_bits(fs, sys)


def test_double_integral_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = float(rng.uniform(0.2, 2.0))
        decay = a + float(rng.uniform(0.3, 2.5))
        t = float(rng.uniform(1.0, 6.0))
        assert double_integral_identity_residual(a, decay, t) <= 1e-8
