import numpy as np
import pytest

from riccati4.grid import GridFunction
from riccati4.picard import IntegralOperator
from riccati4.quadrature import PanelGrid, graded_nodes, make_panels


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, *rng.standard_normal((4, grid.nodes.size)))


def jittered_uniform(n, seed):
    rng = np.random.default_rng(seed)
    nodes = np.linspace(0.0, 10.0, n)
    nodes[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (nodes[1] - nodes[0])
    return nodes


@pytest.mark.parametrize("nodes", [graded_nodes(0.0, 30.0, 8192), jittered_uniform(500, 4)],
                         ids=["graded-8192", "jittered-uniform"])
def test_channels_on_equals_channels_at_bit_for_bit(nodes):
    panels = make_panels(nodes)
    z = random_function(panels, 1)
    for on, at in zip(z.channels_on(), z.channels_at(panels.gl_x)):
        assert on.shape == panels.gl_x.shape
        assert np.array_equal(on, at)


def test_operator_output_carries_the_operator_grid(eps_systems, grid_1024):
    z = IntegralOperator(eps_systems[1], grid_1024).apply(None)
    assert z.grid is grid_1024
    for on, at in zip(z.channels_on(), z.channels_at(grid_1024.gl_x)):
        assert np.array_equal(on, at)
    # a function of another grid with as many nodes is refused, not
    # combined with this operator's coefficient samples
    with pytest.raises(ValueError):
        IntegralOperator(eps_systems[1], make_panels(1.01 * grid_1024.nodes)).apply(z)


def test_channels_on_accepts_a_grid_on_equal_nodes(eps_systems):
    nodes = graded_nodes(0.0, 5.0, 64)
    z = random_function(make_panels(nodes), 2)
    panels = make_panels(nodes.copy())
    moved = GridFunction(panels, z.value, z.d1, z.d2, z.d3)
    assert np.array_equal(moved.channels_on()[2], z.channels_at(panels.gl_x)[2])
    # the operator of either grid gives the same T z bit for bit
    tz = IntegralOperator(eps_systems[1], z.grid).apply(z)
    tz_moved = IntegralOperator(eps_systems[1], panels).apply(moved)
    for a, b in zip((tz.value, tz.d1, tz.d2, tz.d3),
                    (tz_moved.value, tz_moved.d1, tz_moved.d2, tz_moved.d3)):
        assert np.array_equal(a, b)


def test_channels_on_refuses_a_foreign_grid(eps_systems):
    nodes = graded_nodes(0.0, 5.0, 64)
    z = random_function(make_panels(nodes), 3)
    with pytest.raises(ValueError):
        IntegralOperator(eps_systems[1], make_panels(graded_nodes(0.0, 5.0, 65))).apply(z)
    shifted = nodes.copy()
    shifted[10] += 1e-9
    with pytest.raises(ValueError):
        IntegralOperator(eps_systems[1], make_panels(shifted)).apply(z)


def test_hermite_basis_checks_that_nodes_sit_in_their_panels():
    grid = make_panels(graded_nodes(0.0, 5.0, 64))
    bad = PanelGrid(nodes=grid.nodes, gl_x=np.roll(grid.gl_x, 1, axis=0), gl_w=grid.gl_w)
    with pytest.raises(ValueError):
        bad.hermite_basis
    assert grid.hermite_basis is grid.hermite_basis
