import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati4.errors import TailNotConvergent
from riccati4.greens import kernel_for_root
from riccati4.picard import beta_interval
from riccati4.quadrature import (
    _recurrence,
    adaptive_semi_infinite,
    exponential_tail_seed,
    graded_nodes,
    head_transform,
    make_panels,
    tail_transform,
)
from riccati4.riccati import build_system
from riccati4.spectra import order_and_check_h1

from reference_routes import two_sided_transform

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


def loop_inputs(grid):
    """Smooth samples of both signs; negative samples with runs of three -0.0
    panels between runs of three sampled ones; all zeros."""
    smooth = f(grid.gl_x) * np.sin(3.0 * grid.gl_x)
    runs = -np.abs(smooth)
    runs[np.arange(runs.shape[0]) // 3 % 2 == 1] = -0.0
    return smooth, runs, np.zeros_like(smooth)


# 8 nodes: the widest panels are 2.1 to 3.1 long, so exp(-400 * width) underflows to 0.
LOOP_GRIDS = (GRID, make_panels(graded_nodes(T0, T_MAX, 8)),
              make_panels(graded_nodes(T0, T_MAX, 8192)))


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("rate", [0.0, 0.7, 2.5, 400.0])
def test_transforms_equal_the_numpy_scalar_loop(rate):
    f_gl = F_GL * np.sin(3.0 * GRID.gl_x)
    assert np.array_equal(head_transform(GRID, f_gl, -rate), head_loop(GRID, f_gl, -rate))
    assert np.array_equal(tail_transform(GRID, f_gl, rate, 0.3),
                          tail_loop(GRID, f_gl, rate, 0.3))
    for grid in LOOP_GRIDS:
        for f_gl in loop_inputs(grid):
            assert same_bits(head_transform(grid, f_gl, -rate), head_loop(grid, f_gl, -rate))
            for seed in (0.3, -0.0):
                assert same_bits(tail_transform(grid, f_gl, rate, seed),
                                 tail_loop(grid, f_gl, rate, seed))


@pytest.mark.parametrize("rate", [0.7, 400.0])
def test_a_stack_of_forcings_gives_each_row_the_bits_of_its_own_call(rate):
    """One call on a stack of three forcings, one tail seed per row, gives
    each row what a call on that forcing alone gives, also across blocks."""
    seeds = [0.3, -0.0, 1.5]
    for grid in LOOP_GRIDS:
        stack = np.stack(loop_inputs(grid))
        heads = head_transform(grid, stack, -rate)
        tails = tail_transform(grid, stack, rate, seeds)
        assert heads.shape == tails.shape == (3, grid.nodes.size)
        for f_gl, seed, head, tail in zip(stack, seeds, heads, tails):
            assert same_bits(head, head_transform(grid, f_gl, -rate))
            assert same_bits(tail, tail_transform(grid, f_gl, rate, seed))


def test_an_empty_stack_gives_no_rows():
    empty = np.zeros((0, *GRID.gl_x.shape))
    assert head_transform(GRID, empty, -0.7).shape == (0, T.size)
    assert tail_transform(GRID, empty, 0.7, []).shape == (0, T.size)


def test_recurrence_keeps_the_sign_of_zero():
    # -0.0 right-hand sides after negative entries, across zero decays: dgtsv
    # alone returns +0.0 for some of the entries where the loop gives -0.0
    decay = np.array([1.0, 0.0, 0.0, 0.5, 0.0, 1.0, 0.0])
    rhs = np.array([-1.0, -0.0, -0.0, -2.0, -0.0, -0.0, -3.0, -0.0])
    head = [rhs[0]]
    for d, p in zip(decay, rhs[1:]):
        head.append(d * head[-1] + p)
    tail = [rhs[-1]]
    for d, p in zip(decay[::-1], rhs[-2::-1]):
        tail.append(d * tail[-1] + p)
    assert same_bits(_recurrence(decay, rhs, head=True), np.array(head))
    assert same_bits(_recurrence(decay, rhs, head=False), np.array(tail[::-1]))


def test_recurrence_reports_a_failed_solve():
    # an overflowed decay (the unstable side) makes dgtsv pivot onto a zero
    with pytest.raises(RuntimeError, match="info=2"):
        _recurrence(np.array([np.inf]), np.array([0.0, 1.0]), head=True)


def test_tail_seed_rejects_growth_and_nonpositive_rate():
    with pytest.raises(ValueError):
        exponential_tail_seed(f, GRID, 0.0, 1e-12)
    with pytest.raises(TailNotConvergent):
        exponential_tail_seed(lambda s: np.exp(np.asarray(s)), GRID, 0.5, 1e-12)


TAIL_FORCINGS = {
    "inverse square": lambda s: 1.0 / (1.0 + s) ** 2,
    "constant": lambda s: np.full(np.shape(s), 3.0),
    # a forcing may return one scalar, as Omega does when r0..r3 are all 0
    "scalar constant": lambda s: -0.5,
    "oscillating": lambda s: np.exp(-0.3 * s) * (2.0 + np.sin(5.0 * s)),
}
# the geometric tail panels grow past the period of sin(5t) long before
# exp(-0.05 t) has decayed: that seed is 1e-7 to 1e-6 off
UNDER_RESOLVED = pytest.mark.xfail(strict=True, reason="sin(5t) under-resolved at rate 0.05")


@pytest.mark.parametrize("width", [0.027, 1.0])
@pytest.mark.parametrize("name, rate", [
    pytest.param(name, rate, marks=UNDER_RESOLVED if (name, rate) == ("oscillating", 0.05) else ())
    for name in TAIL_FORCINGS for rate in (0.05, 1.0, 10.0)])
def test_tail_seed_matches_the_adaptive_reference(name, rate, width):
    f = TAIL_FORCINGS[name]
    grid = make_panels([T_MAX - width, T_MAX])
    seed = exponential_tail_seed(f, grid, rate, 1e-14)
    reference = adaptive_semi_infinite(lambda s: np.exp(rate * (T_MAX - s)) * f(s),
                                       T_MAX, rate, 1e-16)
    assert seed == pytest.approx(reference, rel=1e-13)


def test_tail_seed_calls_the_forcing_once():
    calls = []

    def forcing(s):
        calls.append(np.shape(s))
        return f(s)

    seed = exponential_tail_seed(forcing, GRID, 0.7, 1e-14)
    assert seed == pytest.approx(tail_closed(T_MAX, 0.7), rel=1e-12)
    assert len(calls) == 1


def test_tail_seed_refuses_an_extent_past_the_panel_limit_before_sampling():
    def forcing(s):
        raise AssertionError("forcing sampled")

    with pytest.raises(TailNotConvergent, match="panels"):
        exponential_tail_seed(forcing, GRID, 1e-200, 1e-12)


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
