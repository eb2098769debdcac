"""Integral-operator fixed point engine.

The operator T maps z to the kernel integral of Omega + F(., z, z', z'')
over [t0, t_max] (plus an analytic tail beyond the grid where the iterate is
negligible and the forcing reduces to Omega).  Because every kernel branch
is a short sum of exponentials, each output channel is assembled from
prefix/suffix recurrences whose factors stay bounded by exp(rate * panel
width); no large exponent is ever formed.

A run works on one PanelGrid, the one ``default_grid`` returns: the
operator, the fixed-point iteration and the envelope take it, and every
GridFunction they produce carries it.

Orientation: the solver uses the ``direct`` (dichotomy-split) kernel, the
one that inverts the shifted cubic.  ``resolve_orientation`` is the residual
ground-truth test that confirms this choice; it is a library entry point and
is not run by the pipeline.  The ``adjoint`` family stays available for the
envelope and first-iterate ratio as printed in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import Diverged, MaxIterExceeded
from .grid import GridFunction
from .quadrature import (
    PanelGrid,
    exponential_tail_seed,
    graded_nodes,
    head_transform,
    make_panels,
    tail_transform,
    two_sided_transform,
)
from .riccati import F_nested, RiccatiSystem, sample_coefficients

FP_TOL = 1e-10
QUAD_TOL = 1e-12
MAX_ITER = 50
DEFAULT_NODES = 2048
TRUNCATION = 1e-12


def default_t_max(cd, t0):
    """Horizon where exp(-min_gap * (t_max - t0)) < TRUNCATION."""
    return t0 + math.log(1.0 / TRUNCATION) / cd.min_gap


def default_grid(cd, t0, n_nodes=DEFAULT_NODES, t_max=None) -> PanelGrid:
    """The panel grid of a run on n_nodes graded nodes over [t0, t_max]."""
    if t_max is None:
        t_max = default_t_max(cd, t0)
    return make_panels(graded_nodes(t0, t_max, n_nodes))


class IntegralOperator:
    """T for one Riccati system on a fixed panel grid."""

    def __init__(self, sys: RiccatiSystem, grid: PanelGrid, orientation="direct",
                 quad_tol=QUAD_TOL):
        self.sys = sys
        self.orientation = orientation
        self.quad_tol = quad_tol
        self.grid = grid
        self.modes = sys.kernel.modes(orientation)
        # Omega and the F coefficients sampled once at the points T evaluates
        self._coef_gl = sample_coefficients(sys, self.grid.gl_x)
        self._coef_nodes = sample_coefficients(sys, self.grid.nodes)
        self._omega_gl = np.broadcast_to(self._coef_gl.omega, self.grid.gl_x.shape)
        self._omega_nodes = np.broadcast_to(self._coef_nodes.omega, self.grid.nodes.shape)
        # a forcing that vanishes on the grid is taken to vanish past it
        self._seeds = self._tail_seeds(sys.omega) if np.any(self._omega_gl) else {}

    def _tail_seeds(self, forcing):
        """{tail rate: integral of the forcing past the grid at that rate}."""
        return {m.rate: exponential_tail_seed(forcing, self.grid, m.rate, self.quad_tol)
                for m in self.modes.tail}

    # -- forcing samples -----------------------------------------------------

    def _forcing(self, z: GridFunction | None):
        if z is None:
            return self._omega_gl, self._omega_nodes
        if z.grid is not self.grid:
            raise ValueError("z lives on another panel grid")
        z0, z1, z2 = z.channels_on()
        f_gl = self._omega_gl + F_nested(self.sys, self._coef_gl, z0, z1, z2)
        f_nodes = self._omega_nodes + F_nested(
            self.sys, self._coef_nodes, z.value, z.d1, z.d2
        )
        return f_gl, f_nodes

    def _assemble(self, f_gl, f_nodes, seeds) -> GridFunction:
        n = self.grid.nodes.size
        ch = np.zeros((4, n))
        for m in self.modes.head:
            h = head_transform(self.grid, f_gl, m.rate)
            for d in range(4):
                ch[d] += m.coef * m.rate**d * h
        for m in self.modes.tail:
            k = tail_transform(self.grid, f_gl, m.rate, seeds.get(m.rate, 0.0))
            for d in range(4):
                ch[d] += m.coef * m.rate**d * k
        ch[3] += self.modes.jump * f_nodes
        return GridFunction(self.grid, ch[0], ch[1], ch[2], ch[3])

    def apply(self, z: GridFunction | None) -> GridFunction:
        """T z (z = None means the zero function)."""
        return self._assemble(*self._forcing(z), self._seeds)

    def apply_forcing(self, forcing) -> GridFunction:
        """Kernel integral of an arbitrary forcing callable (probe use),
        with the tail seeds beyond the grid taken from that forcing."""
        f_gl = np.asarray(forcing(self.grid.gl_x), dtype=float)
        f_nodes = np.asarray(forcing(self.grid.nodes), dtype=float)
        return self._assemble(f_gl, f_nodes, self._tail_seeds(forcing))


# --- orientation ground-truth test -------------------------------------------

def resolve_orientation(sys: RiccatiSystem, t0=0.0, n_nodes=1536,
                        residual_tol=1e-8):
    """Adopt the kernel orientation under which T inverts the operator.

    A zero-nonlinearity problem (pure linear cubic with a smooth non-resonant
    exponential forcing) is solved with both orientations; the residual of
    z''' + b2 z'' + b1 z' + b0 z against the forcing decides.
    """
    gmax = max(abs(g) for g in sys.kernel.gamma)
    sigma = 1.37 * gmax + 0.7071
    probe = lambda s: np.exp(-sigma * (np.asarray(s, dtype=float) - t0))
    t_max = t0 + math.log(1e10) / min(abs(g) for g in sys.kernel.gamma)
    grid = make_panels(graded_nodes(t0, t_max, n_nodes))
    nodes = grid.nodes
    b2, b1, b0 = sys.b
    residuals = {}
    for orientation in ("direct", "adjoint"):
        op = IntegralOperator(sys, grid, orientation, quad_tol=1e-13)
        z = op.apply_forcing(probe)
        z3 = CubicSpline(nodes, z.d2)(nodes, 1)
        res = z3 + b2 * z.d2 + b1 * z.d1 + b0 * z.value - probe(nodes)
        residuals[orientation] = float(np.max(np.abs(res)))
    passing = [o for o, r in residuals.items() if r <= residual_tol]
    if not passing:
        raise Diverged(
            f"no kernel orientation inverts the operator (residuals {residuals!r})"
        )
    selected = min(passing, key=residuals.get)
    return {"selected": selected, "residuals": residuals, "probe_rate": sigma}


# --- fixed-point iteration ------------------------------------------------------

@dataclass
class IterationTrace:
    deltas: list = field(default_factory=list)     # ||omega_{n+1} - omega_n||_0
    contraction: list = field(default_factory=list)
    converged: bool = False
    n_iter: int = 0
    certificate: float = float("nan")              # ||T z* - z*||_0
    orientation: str = ""


def iterate_to_fixed_point(sys: RiccatiSystem, grid: PanelGrid, fp_tol=FP_TOL,
                           max_iter=MAX_ITER, eta=0.25, orientation="direct",
                           quad_tol=QUAD_TOL, snapshot=None):
    """Plain Picard iteration from omega_0 = 0.

    Returns (z, trace).  Raises Diverged when the iterate leaves the eta
    ball by a factor 10 or deltas grow three steps in a row; MaxIterExceeded
    at the cap.  snapshot, when given, is called with (iteration, GridFunction)
    after every step.
    """
    op = IntegralOperator(sys, grid, orientation, quad_tol)
    trace = IterationTrace(orientation=orientation)

    z = GridFunction.zero(grid)
    previous = z
    for n in range(1, max_iter + 1):
        z_new = op.apply(None if n == 1 else previous)
        delta = z_new.diff_norm(previous)
        norm = z_new.norm_c02()
        trace.deltas.append(delta)
        if len(trace.deltas) >= 2 and trace.deltas[-2] > 0:
            trace.contraction.append(delta / trace.deltas[-2])
        if norm > 10.0 * eta:
            raise Diverged(
                f"iterate norm {norm:.3e} left the eta ball (eta={eta}) at step {n}"
            )
        if len(trace.deltas) >= 4 and all(
            trace.deltas[-k] > trace.deltas[-k - 1] for k in (1, 2, 3)
        ):
            raise Diverged(f"deltas grew for 3 consecutive steps at step {n}")
        previous = z_new
        if snapshot is not None:
            snapshot(n, z_new)
        if delta <= fp_tol:
            trace.converged = True
            trace.n_iter = n
            trace.certificate = op.apply(z_new).diff_norm(z_new)
            return z_new, trace
    raise MaxIterExceeded(f"no convergence in {max_iter} iterations")


# --- pointwise decay envelope -----------------------------------------------

def beta_interval(sys: RiccatiSystem):
    """Admissible beta interval, from the slowest direct-kernel modes:
    [head rate, 0) = [lam_{i+1} - lam_i, 0) when the kernel has head modes
    (i = 1..3), else (0, tail rate] = (0, lam_3 - lam_4] (i = 4), where beta
    governs the tail side."""
    head, tail = sys.kernel.modes("direct").slowest()
    return (head, 0.0) if head is not None else (0.0, tail)


def envelope_integral(sys: RiccatiSystem, grid: PanelGrid, beta, quad_tol=QUAD_TOL,
                      orientation="adjoint"):
    """E_i(t) on the grid nodes: exponential transforms of |p(lam_i, s)| shaped
    like the kernel of the given orientation.

    Each side of the diagonal that carries kernel modes contributes one
    transform (head: integral over [t0, t], tail: over [t, inf)) at the rate
    of its slowest mode, so every mode is dominated on its side.  beta sets
    the rate of the side it governs instead: rate beta for the direct kernel,
    the mirrored rate -beta for the adjoint one.  With the adjoint modes this
    is the printed envelope for i = 1, 4 and the gap-split envelope for
    i = 2, 3; with the direct modes it bounds the delivered fixed point.
    """
    head_rate, tail_rate = sys.kernel.modes(orientation).slowest()
    rate_beta = beta if orientation == "direct" else -beta
    if head_rate is not None and rate_beta < 0:
        head_rate = rate_beta
    if tail_rate is not None and rate_beta > 0:
        tail_rate = rate_beta
    p_gl = np.abs(np.asarray(sys.omega(grid.gl_x), dtype=float))
    if not np.any(p_gl):
        return np.zeros(grid.nodes.size)
    return two_sided_transform(grid, lambda s: np.abs(sys.omega(s)), p_gl,
                               head_rate, tail_rate, quad_tol)


def envelope_check(sys: RiccatiSystem, z: GridFunction, beta, phi,
                   quad_tol=QUAD_TOL, orientation="adjoint"):
    """Verify sum_j |z^(j)(t)| <= phi * E_i(t) on the grid, with E_i the
    envelope of the given kernel orientation.

    Returns (verdict, max_ratio, envelope_values)."""
    lo, hi = beta_interval(sys)
    if beta == 0.0 or not lo <= beta <= hi:
        raise ValueError(f"beta={beta} outside [{lo}, {hi}] or zero for i={sys.i}")
    envelope = envelope_integral(sys, z.grid, beta, quad_tol, orientation)
    numerator = np.abs(z.value) + np.abs(z.d1) + np.abs(z.d2)
    den = phi * envelope
    tiny = 1e-300
    ratio = np.where(den > tiny, numerator / np.maximum(den, tiny),
                     np.where(numerator <= 1e-14, 0.0, np.inf))
    max_ratio = float(np.max(ratio))
    return max_ratio <= 1.0 + 1e-9, max_ratio, envelope


def first_iterate_ratio(sys: RiccatiSystem, grid: PanelGrid, a_const, beta,
                        orientation="adjoint", quad_tol=QUAD_TOL, envelope=None):
    """sup_t |T0(t)| / (A * E_i(t)): the first-step envelope sharpness, with
    T and E_i of the same orientation.  envelope, when given, is E_i on the
    grid nodes as envelope_check returns it (same beta, quad_tol and
    orientation); otherwise it is built here."""
    op = IntegralOperator(sys, grid, orientation, quad_tol)
    t0_iterate = op.apply(None)
    if envelope is None:
        envelope = envelope_integral(sys, grid, beta, quad_tol, orientation)
    mask = a_const * envelope > 1e-300
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(t0_iterate.value[mask]) / (a_const * envelope[mask])))
