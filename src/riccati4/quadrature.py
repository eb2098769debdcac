"""Panel quadrature utilities.

Everything here works on a fixed partition of [t0, t_max] into panels with
Gauss-Legendre nodes of order 16 inside each panel.  Exponential-kernel
integrals against sampled data are evaluated by stable one-panel recurrences
(prefix sums for integrals from t0, suffix sums for integrals to infinity),
so every exponent that is ever formed stays bounded by rate * panel width.
The recurrences run over Python floats and build their output array once.

A PanelGrid is the grid object of a run: ``picard.default_grid`` builds it
once, and every GridFunction carries the grid it lives on.  It caches the
cubic Hermite basis at its Gauss-Legendre nodes (``hermite_basis``), so a
GridFunction is interpolated there (``GridFunction.channels_on``) without
locating a single point, and the basis is computed once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TailNotConvergent
from .grid import hermite_basis

GL_ORDER = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)


def graded_nodes(t0: float, t_max: float, n: int, power: float = 2.0) -> np.ndarray:
    """n strictly increasing nodes t0 + (t_max - t0) * u**power, u uniform on
    [0, 1]: denser near t0 (the default is square-root grading, spacing
    growing like sqrt(t - t0))."""
    u = np.linspace(0.0, 1.0, n)
    return t0 + (t_max - t0) * u**power


@dataclass(frozen=True)
class PanelGrid:
    """Panel boundaries plus mapped Gauss-Legendre abscissae and weights."""

    nodes: np.ndarray  # (N,)
    gl_x: np.ndarray   # (N-1, GL_ORDER)
    gl_w: np.ndarray   # (N-1, GL_ORDER)

    @property
    def widths(self):
        return self.nodes[1:] - self.nodes[:-1]

    @cached_property
    def hermite_basis(self):
        """Cubic Hermite basis at gl_x, computed on first use; checks once
        that every Gauss-Legendre node lies in its own panel."""
        left = self.nodes[:-1, None]
        right = self.nodes[1:, None]
        if not np.all((left <= self.gl_x) & (self.gl_x < right)):
            raise ValueError("Gauss-Legendre nodes outside their panels")
        return hermite_basis(left, right - left, self.gl_x)


def make_panels(nodes) -> PanelGrid:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
        raise ValueError("nodes must be a strictly increasing 1-D array")
    a = nodes[:-1, None]
    b = nodes[1:, None]
    half = 0.5 * (b - a)
    gl_x = 0.5 * (a + b) + half * _GL_X[None, :]
    gl_w = half * np.broadcast_to(_GL_W, gl_x.shape)
    return PanelGrid(nodes=nodes, gl_x=gl_x, gl_w=gl_w.copy())


def panel_integrals(grid: PanelGrid, f_gl: np.ndarray) -> np.ndarray:
    """Plain integral of f over each panel from its GL samples."""
    return (grid.gl_w * f_gl).sum(axis=1)


def cumulative_integral(grid: PanelGrid, f_gl: np.ndarray) -> np.ndarray:
    """Integral of f from t0 to each node (first entry 0)."""
    out = np.empty(grid.nodes.size)
    out[0] = 0.0
    np.cumsum(panel_integrals(grid, f_gl), out=out[1:])
    return out


def head_transform(grid: PanelGrid, f_gl: np.ndarray, rate: float) -> np.ndarray:
    """H[k] = integral_{t0}^{t_k} exp(rate*(t_k - s)) f(s) ds at every node.

    Stable for rate <= 0 (the only case used: kernels decay into the head
    side); each recurrence factor is exp(rate * panel width) <= 1.
    """
    right = grid.nodes[1:, None]
    panel = ((grid.gl_w * np.exp(rate * (right - grid.gl_x))) * f_gl).sum(axis=1)
    decay = np.exp(rate * grid.widths)
    out = [0.0]
    acc = 0.0
    for d, p in zip(decay.tolist(), panel.tolist()):
        acc = d * acc + p
        out.append(acc)
    return np.array(out)


def tail_transform(grid: PanelGrid, f_gl: np.ndarray, rate: float,
                   tail_seed: float = 0.0) -> np.ndarray:
    """K[k] = integral_{t_k}^{inf} exp(rate*(t_k - s)) f(s) ds at every node.

    f beyond t_max must be accounted for through tail_seed, the value of the
    integral from t_max on.  Stable for rate >= 0 (again the only use)."""
    left = grid.nodes[:-1, None]
    panel = ((grid.gl_w * np.exp(rate * (left - grid.gl_x))) * f_gl).sum(axis=1)
    decay = np.exp(-rate * grid.widths)
    acc = float(tail_seed)
    out = [acc]
    for d, p in zip(reversed(decay.tolist()), reversed(panel.tolist())):
        acc = d * acc + p
        out.append(acc)
    return np.array(out[::-1])


def exponential_tail_seed(f, grid: PanelGrid, rate: float, quad_tol: float,
                          max_panels: int = 400) -> float:
    """integral_{t_max}^{inf} exp(rate*(t_max - s)) f(s) ds for callable f,
    with t_max the last node of grid: the tail_seed of tail_transform.

    Panels start as wide as the last grid panel and grow by a factor 1.4
    each; stops once a panel contributes less than quad_tol / 10.  Raises
    TailNotConvergent when the cap is hit first.  Requires rate > 0 so the
    kernel itself decays.
    """
    if rate <= 0.0:
        raise ValueError("tail seed needs a positive decay rate")
    t_max = float(grid.nodes[-1])
    total = 0.0
    left = t_max
    width = float(grid.widths[-1])
    for _ in range(max_panels):
        right = left + width
        half = 0.5 * width
        x = 0.5 * (left + right) + half * _GL_X
        w = half * _GL_W
        contrib = float(np.sum(w * np.exp(rate * (t_max - x)) * f(x)))
        total += contrib
        settled = abs(contrib) < max(0.1 * quad_tol, 1e-15 * abs(total))
        if settled and (left - t_max) * rate > 35.0:
            return total
        left = right
        width *= 1.4
    raise TailNotConvergent(
        f"tail integral past t={t_max} did not settle below {quad_tol:g}"
    )


def two_sided_transform(grid: PanelGrid, f, f_gl: np.ndarray, head_rate, tail_rate,
                        quad_tol: float) -> np.ndarray:
    """head_transform at head_rate plus tail_transform at tail_rate, the tail
    seeded past the grid by exponential_tail_seed of the callable f (whose
    GL samples are f_gl).  A rate of None drops its side."""
    out = np.zeros(grid.nodes.size)
    if head_rate is not None:
        out += head_transform(grid, f_gl, head_rate)
    if tail_rate is not None:
        seed = exponential_tail_seed(f, grid, tail_rate, quad_tol)
        out += tail_transform(grid, f_gl, tail_rate, seed)
    return out


def adaptive_interval(f, a: float, b: float, tol: float, max_depth: int = 30) -> float:
    """Adaptive Gauss-Legendre on [a, b] for possibly kinked integrands
    (absolute values of smooth functions).  Compares one panel against its
    two halves and recurses on disagreement."""
    def gl(lo, hi):
        half = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + half * _GL_X
        return half * float(np.sum(_GL_W * f(x)))

    def recurse(lo, hi, whole, depth, tol_here):
        mid = 0.5 * (lo + hi)
        left = gl(lo, mid)
        right = gl(mid, hi)
        if abs(left + right - whole) <= tol_here or depth >= max_depth:
            return left + right
        return (recurse(lo, mid, left, depth + 1, 0.5 * tol_here)
                + recurse(mid, hi, right, depth + 1, 0.5 * tol_here))

    if b <= a:
        return 0.0
    return recurse(a, b, gl(a, b), 0, tol)


def adaptive_semi_infinite(f, a: float, decay_rate: float, tol: float,
                           max_windows: int = 200) -> float:
    """Integral of f over [a, inf) for integrands decaying at least like
    exp(-decay_rate * s).  Windows of width a few decay lengths are added
    until one contributes less than tol / 10."""
    if decay_rate <= 0.0:
        raise ValueError("need a positive decay rate estimate")
    width = max(2.0 / decay_rate, 1e-3)
    total = 0.0
    lo = a
    for _ in range(max_windows):
        hi = lo + width
        contrib = adaptive_interval(f, lo, hi, tol)
        total += contrib
        if abs(contrib) < 0.1 * tol:
            return total
        lo = hi
    raise TailNotConvergent(f"semi-infinite integral from {a} did not settle")
