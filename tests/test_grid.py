import numpy as np
import pytest

from riccati4.grid import _GL_HERMITE, GridFunction
from riccati4.picard import IntegralOperator
from riccati4.quadrature import BLOCK_PANELS, PanelGrid, graded_nodes, make_panels, panel_blocks


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
def test_channels_on_reads_each_panel_the_same_in_every_slice(nodes):
    """The Picard operator reads z one block of panels at a time, so a
    panel's row must not depend on the slice it is read in."""
    panels = make_panels(nodes)
    z = random_function(panels, 1)
    whole = z.channels_on()
    n = panels.gl_x.shape[0]
    blocks = panel_blocks(panels)
    assert blocks[-1].stop - blocks[-1].start < BLOCK_PANELS  # a partial last block
    parts = blocks + [slice(0, 1), slice(n // 2, n // 2 + 1), slice(n - 1, None),
                      slice(3, 200), slice(n - 10, None)]
    for part in parts:
        for on, row in zip(z.channels_on(part), whole):
            assert on.shape == panels.gl_x[part].shape
            assert on.tobytes() == row[part].tobytes()


@pytest.mark.parametrize("nodes", [graded_nodes(0.0, 30.0, 8192), jittered_uniform(500, 4)],
                         ids=["graded-8192", "jittered-uniform"])
def test_both_routes_reproduce_a_cubic(nodes):
    """Cubic Hermite interpolation is exact for a cubic, its slope and its
    second derivative, so each route is off only by its own rounding.  Per
    term of the sum h00 v_k + h10 w s_k + h01 v_k+1 + h11 w s_k+1 that is a
    few ulps of the basis, one of w s, one of the product and three of the
    sums, bounded by 16 eps times the sum of the terms' moduli.  The point
    adds 16 eps |x| |s(x)|: channels_on evaluates at the exact
    Gauss-Legendre point, which gl_x rounds, and channels_at's u = (x - left)
    / width rounds too."""
    panels = make_panels(nodes)
    poly = np.polynomial.Polynomial([0.7, -1.3, 0.45, -0.02])
    derivs = [poly.deriv(d) for d in range(4)]
    on_nodes = [d(panels.nodes) for d in derivs]
    z = GridFunction(panels, *on_nodes)
    x = panels.gl_x
    exact = [d(x.astype(np.longdouble)) for d in derivs]
    width = (panels.nodes[1:] - panels.nodes[:-1])[:, None]
    h = np.abs(_GL_HERMITE)[:, None, :]
    eps = np.finfo(float).eps
    for route in (z.channels_on(), z.channels_at(x)):
        for k, got in enumerate(route):
            v, s = on_nodes[k:k + 2]
            terms = (h[0] * np.abs(v[:-1, None]) + h[1] * np.abs(width * s[:-1, None])
                     + h[2] * np.abs(v[1:, None]) + h[3] * np.abs(width * s[1:, None]))
            bound = 16.0 * eps * (terms + np.abs(x) * np.abs(exact[k + 1]))
            assert np.all(np.abs(got - exact[k]) <= bound)


def test_operator_output_carries_the_operator_grid(eps_systems, grid_1024):
    z = IntegralOperator(eps_systems[1], grid_1024).apply(None)
    assert z.grid is grid_1024
    # a function of another grid with as many nodes is refused, not
    # combined with this operator's coefficient samples
    with pytest.raises(ValueError):
        IntegralOperator(eps_systems[1], make_panels(1.01 * grid_1024.nodes)).apply(z)


def test_channels_on_accepts_a_grid_on_equal_nodes(eps_systems):
    nodes = graded_nodes(0.0, 5.0, 64)
    z = random_function(make_panels(nodes), 2)
    panels = make_panels(nodes.copy())
    moved = GridFunction(panels, z.value, z.d1, z.d2, z.d3)
    for a, b in zip(moved.channels_on(), z.channels_on()):
        assert a.tobytes() == b.tobytes()
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


def test_check_gl_nodes_refuses_nodes_outside_their_panels():
    grid = make_panels(graded_nodes(0.0, 5.0, 64))
    grid.check_gl_nodes()
    bad = PanelGrid(nodes=grid.nodes, gl_x=np.roll(grid.gl_x, 1, axis=0), gl_w=grid.gl_w)
    with pytest.raises(ValueError):
        bad.check_gl_nodes()
