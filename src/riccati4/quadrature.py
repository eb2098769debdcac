"""Panel quadrature utilities.

Everything here works on a fixed partition of [t0, t_max] into panels with
Gauss-Legendre nodes of order 16 inside each panel.  Exponential-kernel
integrals against sampled data are evaluated by stable one-panel recurrences
(prefix sums for integrals from t0, suffix sums for integrals to infinity),
so every exponent that is ever formed stays bounded by rate * panel width.
Each recurrence is one unit-diagonal bidiagonal solve by LAPACK's dgtsv,
which forms the same products and sums in the same order as the scalar loop.

The engine has two parts.  What does not depend on the data is the
weights gl_w * exp(rate * (edge - gl_x)) of each panel (``panel_weights``)
and the panel-to-panel decays (``panel_decay``); a transform's panel sums
are (weights * f_gl) summed over each panel.  ``panel_recurrence`` turns
the panel sums into values at the nodes.  Sums are formed one block of
BLOCK_PANELS panels at a time (``panel_blocks``), so the temporaries of a
block stay in cache.  ``head_transform`` and ``tail_transform`` compose the
two parts, forming the weights block by block and never for the whole
grid.  They take one forcing (the envelope and the tail seed) or a stack of
forcings with one tail seed each (``hypotheses.rho_bound`` and ``check_h2``),
and each block's weights give the panel sums of every forcing of the stack.
The one other caller of the parts is the Picard operator, which builds the
grid-wide weights of its kernel modes once and reuses them in every apply
(``picard.IntegralOperator``).  The tail seed, the integral past the grid
of a forcing given as a callable, runs on the same engine:
``exponential_tail_seed`` lays geometric panels past t_max, samples the
forcing once on all of them and sums them with ``tail_transform``.

A PanelGrid is the grid object of a run: ``picard.default_grid`` builds it
once and checks that every Gauss-Legendre node lies in its panel
(``check_gl_nodes``), and every GridFunction carries the grid it lives on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import TailNotConvergent

GL_ORDER = 16
BLOCK_PANELS = 1024  # panels per block of a transform: its temporaries stay in cache
# a tail is negligible this many decay lengths out: exponential_tail_seed's
# last panel starts there past the grid (a bounded forcing's last panel is
# then below e^-40 ~ 4e-18 of the seed), and check_h2 cuts its kernel there
TAIL_DECAY_LENGTHS = 40.0
MAX_TAIL_PANELS = 400
ADAPTIVE_MAX_DEPTH = 30     # halvings of one adaptive_interval panel
ADAPTIVE_MAX_WINDOWS = 200  # windows of one adaptive_semi_infinite integral
GL_X, GL_W = np.polynomial.legendre.leggauss(GL_ORDER)


def graded_nodes(t0: float, t_max: float, n: int) -> np.ndarray:
    """n strictly increasing nodes t0 + (t_max - t0) * u**2, u uniform on
    [0, 1]: denser near t0 (square-root grading, spacing growing like
    sqrt(t - t0))."""
    u = np.linspace(0.0, 1.0, n)
    return t0 + (t_max - t0) * u**2.0


@dataclass(frozen=True)
class PanelGrid:
    """Panel boundaries plus mapped Gauss-Legendre abscissae and weights."""

    nodes: np.ndarray  # (N,)
    gl_x: np.ndarray   # (N-1, GL_ORDER)
    gl_w: np.ndarray   # (N-1, GL_ORDER)

    @property
    def widths(self):
        return self.nodes[1:] - self.nodes[:-1]

    def check_gl_nodes(self):
        """ValueError unless every Gauss-Legendre node lies in its own panel
        (far from 0 the panels of a fine grid collapse in floating point)."""
        if not np.all((self.nodes[:-1, None] <= self.gl_x) & (self.gl_x < self.nodes[1:, None])):
            raise ValueError("Gauss-Legendre nodes outside their panels")


def make_panels(nodes) -> PanelGrid:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be a strictly increasing 1-D array")
    a = nodes[:-1, None]
    b = nodes[1:, None]
    half = 0.5 * (b - a)
    gl_x = 0.5 * (a + b) + half * GL_X[None, :]
    gl_w = half * np.broadcast_to(GL_W, gl_x.shape)
    return PanelGrid(nodes=nodes, gl_x=gl_x, gl_w=gl_w.copy())


def node_integrals(panel_sums: np.ndarray) -> np.ndarray:
    """Integral from t0 to each node (first entry 0) from the plain
    integral over each panel."""
    out = np.empty(panel_sums.size + 1)
    out[0] = 0.0
    np.cumsum(panel_sums, out=out[1:])
    return out


def cumulative_integral(grid: PanelGrid, f_gl: np.ndarray) -> np.ndarray:
    """Integral of f from t0 to each node (first entry 0)."""
    return node_integrals((grid.gl_w * f_gl).sum(axis=1))


def panel_blocks(grid: PanelGrid):
    """Consecutive slices of at most BLOCK_PANELS panels that cover the grid."""
    n = grid.gl_x.shape[0]
    return [slice(lo, min(lo + BLOCK_PANELS, n)) for lo in range(0, n, BLOCK_PANELS)]


def panel_weights(grid: PanelGrid, rate: float, head: bool, panels=slice(None)):
    """gl_w * exp(rate * (edge - gl_x)) on the panels of the slice `panels`,
    edge each panel's right end (head) or left end (tail): the part of one
    exponential transform that does not depend on the data, whose panel
    sums are (weights * f_gl).sum(axis=1).  Formed in one buffer: a fresh
    array per operation costs as much as the arithmetic."""
    w = np.subtract((grid.nodes[1:] if head else grid.nodes[:-1])[panels, None],
                    grid.gl_x[panels])
    w *= rate
    np.exp(w, out=w)
    w *= grid.gl_w[panels]
    return w


def panel_decay(grid: PanelGrid, rate: float, head: bool) -> np.ndarray:
    """The panel-to-panel factors exp(rate * width) (head) or
    exp(-rate * width) (tail) of panel_recurrence."""
    return np.exp((rate if head else -rate) * grid.widths)


def panel_recurrence(decay: np.ndarray, sums: np.ndarray, head: bool,
                     tail_seed: float = 0.0) -> np.ndarray:
    """The transform at every node from the panel sums of every panel: a
    prefix recurrence from 0 at t0 (head), or a suffix recurrence from
    tail_seed, the integral past the grid, at t_max (tail)."""
    if head:
        return _recurrence(decay, np.concatenate(([0.0], sums)), head=True)
    return _recurrence(decay, np.concatenate((sums, [float(tail_seed)])), head=False)


def head_transform(grid: PanelGrid, f_gl: np.ndarray, rate: float) -> np.ndarray:
    """H[k] = integral_{t0}^{t_k} exp(rate*(t_k - s)) f(s) ds at every node.

    f_gl is one forcing on the Gauss-Legendre points, shape (N-1, GL_ORDER),
    or a stack of m forcings, shape (m, N-1, GL_ORDER), whose transforms are
    the rows of an (m, N) result.  Stable for rate <= 0 (the only case used:
    kernels decay into the head side); each recurrence factor is
    exp(rate * panel width) <= 1.
    """
    return _transform(grid, f_gl, rate, True, 0.0)


def tail_transform(grid: PanelGrid, f_gl: np.ndarray, rate: float,
                   tail_seed=0.0) -> np.ndarray:
    """K[k] = integral_{t_k}^{inf} exp(rate*(t_k - s)) f(s) ds at every node.

    f_gl is one forcing or a stack of them, as for head_transform.  f beyond
    t_max must be accounted for through tail_seed, the value of the integral
    from t_max on: one value, or for a stack one per row.  Stable for
    rate >= 0 (again the only use)."""
    return _transform(grid, f_gl, rate, False, tail_seed)


def _transform(grid, f_gl, rate, head, tail_seed):
    """panel_weights one block of panels at a time, so that no grid-sized
    weight array is formed, and each block's weights give the panel sums of
    every forcing of the stack; then one panel_recurrence per forcing."""
    stack = np.ndim(f_gl) == 3
    f_gl = f_gl if stack else np.broadcast_to(f_gl, grid.gl_x.shape)[None]
    seeds = np.broadcast_to(tail_seed, len(f_gl))
    sums = np.empty((len(f_gl), grid.gl_x.shape[0]))
    for panels in panel_blocks(grid):
        w = panel_weights(grid, rate, head, panels)
        for f, row in zip(f_gl, sums):
            (w * f[panels]).sum(axis=1, out=row[panels])
    decay = panel_decay(grid, rate, head)
    out = [panel_recurrence(decay, row, head, seed) for row, seed in zip(sums, seeds)]
    return np.array(out).reshape(-1, grid.nodes.size) if stack else out[0]


def _recurrence(decay: np.ndarray, rhs: np.ndarray, head: bool) -> np.ndarray:
    """x[k] = decay[k-1] * x[k-1] + rhs[k] forward from x[0] = rhs[0] (head),
    or x[k] = decay[k] * x[k+1] + rhs[k] backward from x[-1] = rhs[-1] (tail),
    as one unit-diagonal bidiagonal solve by dgtsv.

    dgtsv swaps rows only where an off-diagonal entry exceeds the diagonal in
    magnitude; both callers have |decay| <= 1, so it never pivots, and each
    entry is fl(rhs[k] + fl(decay * x)) in the order of the scalar loop.  Its
    other steps subtract products with the zero off-diagonal, which change
    nothing but can turn a -0.0 into +0.0.  The loop yields -0.0 only where
    rhs[k] is -0.0, so those entries are redone in order, bit for bit.
    """
    zero = np.zeros_like(decay)
    sub, sup = (-decay, zero) if head else (zero, -decay)
    *_, x, info = dgtsv(sub, np.ones_like(rhs), sup, rhs)
    if info != 0:
        raise RuntimeError(f"dgtsv failed with info={info}")
    step = 1 if head else -1
    for k in np.flatnonzero(np.signbit(rhs) & (rhs == 0.0))[::step].tolist():
        prev = k - step
        if 0 <= prev < rhs.size:
            x[k] = decay[min(k, prev)] * x[prev] + rhs[k]
        else:
            x[k] = rhs[k]
    return x


def exponential_tail_seed(f, grid: PanelGrid, rate: float, quad_tol: float) -> float:
    """integral_{t_max}^{inf} exp(rate*(t_max - s)) f(s) ds for callable f,
    with t_max the last node of grid: the tail_seed of tail_transform.

    The tail is cut where a panel starts TAIL_DECAY_LENGTHS decay lengths
    1/rate past t_max, on panels that start as wide as the last grid panel
    and grow by a factor 1.4 each.  f is called once, on the Gauss-Legendre
    points of all of them, and tail_transform sums them.  Raises
    TailNotConvergent, before f is called, when the cut needs more than
    MAX_TAIL_PANELS panels, and when the last panel contributes as much as
    max(quad_tol / 10, 1e-15 * |seed|) at t_max.  Requires rate > 0 so the
    kernel itself decays.
    """
    if rate <= 0.0:
        raise ValueError("tail seed needs a positive decay rate")
    t_max = float(grid.nodes[-1])
    # offsets[k] is the right end of panel k, less t_max
    offsets = float(grid.widths[-1]) * np.cumsum(1.4 ** np.arange(MAX_TAIL_PANELS))
    n = int(np.searchsorted(offsets, TAIL_DECAY_LENGTHS / rate)) + 2
    if n > MAX_TAIL_PANELS:
        raise TailNotConvergent(f"tail past t={t_max} needs more than {MAX_TAIL_PANELS} "
                                f"panels at rate {rate:g}")
    panels = make_panels(t_max + np.concatenate(([0.0], offsets[:n])))
    out = tail_transform(panels, f(panels.gl_x), rate)
    contrib = out[-2] * np.exp(-rate * offsets[n - 2])
    if not abs(contrib) < max(0.1 * quad_tol, 1e-15 * abs(out[0])):
        raise TailNotConvergent(
            f"tail integral past t={t_max} did not settle below {quad_tol:g}")
    return float(out[0])


def adaptive_interval(f, a: float, b: float, tol: float) -> float:
    """Adaptive Gauss-Legendre on [a, b] for possibly kinked integrands
    (absolute values of smooth functions).  Compares one panel against its
    two halves and recurses on disagreement, at most ADAPTIVE_MAX_DEPTH
    halvings deep."""
    def gl(lo, hi):
        half = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + half * GL_X
        return half * float(np.sum(GL_W * f(x)))

    def recurse(lo, hi, whole, depth, tol_here):
        mid = 0.5 * (lo + hi)
        left = gl(lo, mid)
        right = gl(mid, hi)
        if abs(left + right - whole) <= tol_here or depth >= ADAPTIVE_MAX_DEPTH:
            return left + right
        return (recurse(lo, mid, left, depth + 1, 0.5 * tol_here)
                + recurse(mid, hi, right, depth + 1, 0.5 * tol_here))

    if b <= a:
        return 0.0
    return recurse(a, b, gl(a, b), 0, tol)


def adaptive_semi_infinite(f, a: float, decay_rate: float, tol: float) -> float:
    """Integral of f over [a, inf) for integrands decaying at least like
    exp(-decay_rate * s).  Windows of width a few decay lengths are added
    until one contributes less than tol / 10, at most ADAPTIVE_MAX_WINDOWS
    of them."""
    if decay_rate <= 0.0:
        raise ValueError("need a positive decay rate estimate")
    width = max(2.0 / decay_rate, 1e-3)
    total = 0.0
    lo = a
    for _ in range(ADAPTIVE_MAX_WINDOWS):
        hi = lo + width
        contrib = adaptive_interval(f, lo, hi, tol)
        total += contrib
        if abs(contrib) < 0.1 * tol:
            return total
        lo = hi
    raise TailNotConvergent(f"semi-infinite integral from {a} did not settle")
