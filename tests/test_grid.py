import numpy as np
import pytest

from riccati4.grid import GridFunction
from riccati4.quadrature import PanelGrid, graded_nodes, make_panels


def random_function(nodes, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(nodes, *rng.standard_normal((4, nodes.size)))


def jittered_uniform(n, seed):
    rng = np.random.default_rng(seed)
    nodes = np.linspace(0.0, 10.0, n)
    nodes[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (nodes[1] - nodes[0])
    return nodes


@pytest.mark.parametrize("nodes", [graded_nodes(0.0, 30.0, 8192), jittered_uniform(500, 4)],
                         ids=["graded-8192", "jittered-uniform"])
def test_channels_on_equals_channels_at_bit_for_bit(nodes):
    z = random_function(nodes, 1)
    panels = make_panels(nodes)
    for on, at in zip(z.channels_on(panels), z.channels_at(panels.gl_x)):
        assert on.shape == panels.gl_x.shape
        assert np.array_equal(on, at)


def test_channels_on_accepts_a_grid_on_equal_nodes():
    nodes = graded_nodes(0.0, 5.0, 64)
    z = random_function(nodes, 2)
    panels = make_panels(nodes.copy())
    assert np.array_equal(z.channels_on(panels)[2], z.channels_at(panels.gl_x)[2])


def test_channels_on_refuses_a_foreign_grid():
    nodes = graded_nodes(0.0, 5.0, 64)
    z = random_function(nodes, 3)
    with pytest.raises(ValueError):
        z.channels_on(make_panels(graded_nodes(0.0, 5.0, 65)))
    shifted = nodes.copy()
    shifted[10] += 1e-9
    with pytest.raises(ValueError):
        z.channels_on(make_panels(shifted))


def test_hermite_basis_checks_that_nodes_sit_in_their_panels():
    grid = make_panels(graded_nodes(0.0, 5.0, 64))
    bad = PanelGrid(nodes=grid.nodes, gl_x=np.roll(grid.gl_x, 1, axis=0), gl_w=grid.gl_w)
    with pytest.raises(ValueError):
        bad.hermite_basis
    assert grid.hermite_basis is grid.hermite_basis
