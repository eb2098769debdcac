import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati4.errors import TailNotConvergent
from riccati4.greens import kernel_for_root
from riccati4.picard import beta_interval
from riccati4.quadrature import (
    exponential_tail_seed,
    graded_nodes,
    head_transform,
    make_panels,
    tail_transform,
    two_sided_transform,
)
from riccati4.riccati import build_system
from riccati4.spectra import order_and_check_h1

T0, T_MAX = 0.5, 12.0
GRID = make_panels(graded_nodes(T0, T_MAX, 200))
T = GRID.nodes


def f(s):
    return np.exp(-np.asarray(s, dtype=float))


F_GL = f(GRID.gl_x)


def head_loop(grid, f_gl, rate):
    """head_transform with its recurrence indexing numpy scalars."""
    right = grid.nodes[1:, None]
    panel = ((grid.gl_w * np.exp(rate * (right - grid.gl_x))) * f_gl).sum(axis=1)
    decay = np.exp(rate * grid.widths)
    out = np.empty(grid.nodes.size)
    out[0] = 0.0
    acc = 0.0
    for k in range(panel.size):
        acc = decay[k] * acc + panel[k]
        out[k + 1] = acc
    return out


def tail_loop(grid, f_gl, rate, tail_seed):
    """tail_transform with its recurrence indexing numpy scalars."""
    left = grid.nodes[:-1, None]
    panel = ((grid.gl_w * np.exp(rate * (left - grid.gl_x))) * f_gl).sum(axis=1)
    decay = np.exp(-rate * grid.widths)
    out = np.empty(grid.nodes.size)
    acc = float(tail_seed)
    out[-1] = acc
    for k in range(panel.size - 1, -1, -1):
        acc = decay[k] * acc + panel[k]
        out[k] = acc
    return out


def head_closed(t, rate):
    """integral_{T0}^{t} exp(rate (t - s)) exp(-s) ds, rate != -1."""
    return (np.exp(rate * (t - T0) - T0) - np.exp(-t)) / (rate + 1.0)


def tail_closed(t, rate):
    """integral_{t}^{inf} exp(rate (t - s)) exp(-s) ds, rate > -1."""
    return np.exp(-t) / (rate + 1.0)


@pytest.mark.parametrize("rate", [-3.0, -0.5, 0.0])
def test_head_transform_closed_form(rate):
    np.testing.assert_allclose(head_transform(GRID, F_GL, rate), head_closed(T, rate),
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("rate", [0.7, 2.5])
def test_tail_seed_and_transform_closed_form(rate):
    seed = exponential_tail_seed(f, GRID, rate, 1e-14)
    assert seed == pytest.approx(tail_closed(T_MAX, rate), rel=1e-12)
    np.testing.assert_allclose(tail_transform(GRID, F_GL, rate, seed), tail_closed(T, rate),
                               rtol=1e-12)


@pytest.mark.parametrize("rate", [0.0, 0.7, 2.5])
def test_transforms_equal_the_numpy_scalar_loop(rate):
    f_gl = F_GL * np.sin(3.0 * GRID.gl_x)
    assert np.array_equal(head_transform(GRID, f_gl, -rate), head_loop(GRID, f_gl, -rate))
    assert np.array_equal(tail_transform(GRID, f_gl, rate, 0.3),
                          tail_loop(GRID, f_gl, rate, 0.3))


def test_tail_seed_rejects_growth_and_nonpositive_rate():
    with pytest.raises(ValueError):
        exponential_tail_seed(f, GRID, 0.0, 1e-12)
    with pytest.raises(TailNotConvergent):
        exponential_tail_seed(lambda s: np.exp(np.asarray(s)), GRID, 0.5, 1e-12,
                              max_panels=20)


@pytest.mark.parametrize("head_rate, tail_rate", [(-0.5, 2.0), (None, 2.0), (-0.5, None)])
def test_two_sided_transform_closed_form(head_rate, tail_rate):
    expected = np.zeros(T.size)
    if head_rate is not None:
        expected += head_closed(T, head_rate)
    if tail_rate is not None:
        expected += tail_closed(T, tail_rate)
    got = two_sided_transform(GRID, f, F_GL, head_rate, tail_rate, 1e-14)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-10.0, 10.0),
    st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
)
def test_slowest_modes_are_the_neighbouring_gaps(bottom, gaps):
    lam4 = bottom
    lam3 = lam4 + gaps[2]
    lam2 = lam3 + gaps[1]
    lam1 = lam2 + gaps[0]
    cd = order_and_check_h1((lam1, lam2, lam3, lam4))
    lam = (None, *cd.lam, None)  # lam[k] is lam_k; lam_0 and lam_5 do not exist
    for i in (1, 2, 3, 4):
        below = lam[i + 1] - lam[i] if i < 4 else None   # lam_{i+1} - lam_i < 0
        above = lam[i - 1] - lam[i] if i > 1 else None   # lam_{i-1} - lam_i > 0
        kernel = kernel_for_root(cd, i)
        assert kernel.modes("direct").slowest() == (below, above)
        assert kernel.modes("adjoint").slowest() == (
            None if above is None else -above, None if below is None else -below)
        sys = build_system(cd, ("0", "0", "0", "0"), i)
        assert beta_interval(sys) == ((below, 0.0) if i < 4 else (0.0, above))
