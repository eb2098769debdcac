"""Integral-operator fixed point engine.

The operator T maps z to the kernel integral of Omega + F(., z, z', z'')
over [t0, t_max] (plus an analytic tail beyond the grid where the iterate is
negligible and the forcing reduces to Omega).  Because every kernel branch
is a short sum of exponentials, each output channel is assembled from
prefix/suffix recurrences whose factors stay bounded by exp(rate * panel
width); no large exponent is ever formed.

Only the forcing depends on z.  An IntegralOperator builds each kernel
mode's panel weights and panel-to-panel decays once (``panel_weights``), and
``apply`` makes one pass over the grid's panel blocks (``panel_blocks``,
quadrature.BLOCK_PANELS panels each): in each block
the Hermite channels of z, then F, then Omega + F, then every mode's
weighted panel sums, all while the block's temporaries stay in cache; the
head/tail recurrences (``panel_recurrence``) then run over the whole grid.
On request (``apply(z, integrals=True)``) the same pass forms the plain
panel integrals of lam + z and of -Omega + F, the integrands of log y and of
the asymptotic correction, and the operator keeps them for that z
(``panel_integrals``).  The fixed-point certificate always asks for them,
so synthesis reads them off the certificate's apply of the delivered z and no
other stage reads z on the Gauss-Legendre points.
T(0) is a constant of the operator, computed on the first ``apply(None)``:
Picard step 1 and the first-iterate ratio read the same object.  The panel
weights take three grid-sized arrays, so the pipeline drops its operator
once synthesis has read its integrals.

A run works on one PanelGrid, the one ``default_grid`` returns.  Its panels
carry the 8-point Gauss-Legendre rule where ``quadrature.gl_order`` finds it
exact to rounding at the fastest kernel rate lam_1 - lam_4 (all three
benchmark workloads), and 16 points otherwise; the tail seeds and the
orientation probe keep 16.  Each root builds one IntegralOperator on it,
and the fixed-point iteration, the
envelope and the first-iterate ratio all take that operator: they share its
orientation, its quadrature tolerance, its grid and its Omega samples, and
every GridFunction they produce carries its grid.  Omega is read only through
``sample_coefficients``, on the grid and past it.  The envelope E_i is built
once per root (``envelope_integral``, at the rates of its slowest modes), and
the envelope check and the first-iterate ratio both read that array.

Orientation: the solver uses the ``direct`` (dichotomy-split) kernel, the
one that inverts the shifted cubic.  ``resolve_orientation`` is the residual
ground-truth test that confirms this choice; it is a library entry point and
is not run by the pipeline.  An operator built with ``orientation="adjoint"``
gives the envelope and first-iterate ratio as printed in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import Diverged, MaxIterExceeded
from .grid import GridFunction
from .quadrature import (
    PanelGrid,
    exponential_tail_seed,
    gl_order,
    graded_nodes,
    head_transform,
    make_panels,
    panel_blocks,
    panel_decay,
    panel_recurrence,
    panel_weights,
    tail_transform,
)
from .riccati import (Coefficients, F_nested, RiccatiSystem, sample_coefficients,
                      third_order_lhs)

FP_TOL = 1e-10
QUAD_TOL = 1e-12
MAX_ITER = 50
DEFAULT_NODES = 2048
TRUNCATION = 1e-12
PROBE_NODES = 1536          # grid of resolve_orientation's probe problem
PROBE_RESIDUAL_TOL = 1e-8   # residual at which its orientation passes


def default_t_max(cd, t0):
    """Horizon where exp(-min_gap * (t_max - t0)) < TRUNCATION."""
    return t0 + math.log(1.0 / TRUNCATION) / cd.min_gap


def default_grid(cd, t0, n_nodes=DEFAULT_NODES, t_max=None) -> PanelGrid:
    """The panel grid of a run on n_nodes graded nodes over [t0, t_max];
    ValueError when its Gauss-Legendre nodes leave their panels.  Its rule
    is gl_order's at lam_1 - lam_4, the fastest kernel rate of any root."""
    if t_max is None:
        t_max = default_t_max(cd, t0)
    nodes = graded_nodes(t0, t_max, n_nodes)
    grid = make_panels(nodes, gl_order(nodes, cd.lam[0] - cd.lam[-1]))
    grid.check_gl_nodes()
    return grid


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
        self._seeds = self._tail_seeds(self.omega)
        # (mode, head, weights, decay) of each kernel mode, head modes first
        self._kernels = [(m, head, panel_weights(grid, m.rate, head),
                          panel_decay(grid, m.rate, head))
                         for head, side in ((True, self.modes.head), (False, self.modes.tail))
                         for m in side]
        self._plain = None  # (z, its panel_integrals) of the last apply with integrals

    def omega(self, t):
        """Omega at t, sampled as the operator samples it on the grid."""
        return sample_coefficients(self.sys, t).omega

    def _tail_seeds(self, forcing):
        """{tail rate: integral of the forcing past the grid at that rate}."""
        return {m.rate: exponential_tail_seed(forcing, self.grid, m.rate, self.quad_tol)
                for m in self.modes.tail}

    def _image(self, forcing_on, f_nodes, seeds) -> GridFunction:
        """The kernel integral of a forcing, f_nodes at the nodes and
        forcing_on(panels) on the Gauss-Legendre points of a slice of panels.
        One pass over the panel blocks forms each mode's panel sums; the
        head/tail recurrences then run over the whole grid."""
        blocks = panel_blocks(self.grid)
        sums = np.empty((len(self._kernels), self.grid.gl_x.shape[0]))
        scratch = np.empty((blocks[0].stop, self.grid.gl_x.shape[1]))
        for panels in blocks:
            f = forcing_on(panels)
            for row, (_, _, weights, _) in zip(sums, self._kernels):
                np.multiply(weights[panels], f, out=scratch[:f.shape[0]]).sum(
                    axis=1, out=row[panels])
        ch = np.zeros((4, self.grid.nodes.size))
        for row, (m, head, _, decay) in zip(sums, self._kernels):
            x = panel_recurrence(decay, row, head, seeds.get(m.rate, 0.0))
            for d in range(4):
                ch[d] += m.coef * m.rate**d * x
        ch[3] += self.modes.jump * f_nodes
        return GridFunction(self.grid, ch[0], ch[1], ch[2], ch[3])

    @cached_property
    def _image_of_zero(self) -> GridFunction:
        return self._image(self._omega_gl.__getitem__, self._omega_nodes, self._seeds)

    def apply(self, z: GridFunction | None, integrals=False) -> GridFunction:
        """T z (z = None means the zero function).  T(0) is a constant of the
        operator: it is computed on the first call and returned after.

        With integrals, the pass also forms the plain integrals over each
        panel of lam + z and of -Omega + F(z, z', z''), the integrands of
        log y and of the asymptotic correction, and keeps them for z
        (``panel_integrals`` reads them)."""
        if z is None:
            return self._image_of_zero
        if z.grid is not self.grid:
            raise ValueError("z lives on another panel grid")
        plain = np.empty((2, self.grid.gl_x.shape[0])) if integrals else None

        def forcing_on(panels):
            coef = Coefficients(*(c[panels] if np.ndim(c) else c for c in self._coef_gl))
            z0, z1, z2 = z.channels_on(panels)
            f = F_nested(self.sys, coef, z0, z1, z2)
            omega = self._omega_gl[panels]
            if integrals:
                gl_w = self.grid.gl_w[panels]
                (gl_w * (self.sys.lam + z0)).sum(axis=1, out=plain[0, panels])
                (gl_w * (f - omega)).sum(axis=1, out=plain[1, panels])
            f += omega
            return f

        f_nodes = self._omega_nodes + F_nested(self.sys, self._coef_nodes, z.value, z.d1, z.d2)
        image = self._image(forcing_on, f_nodes, self._seeds)
        if integrals:
            self._plain = (z, plain)
        return image

    def panel_integrals(self, z: GridFunction):
        """(integrals of lam + z, integrals of -Omega + F(z, z', z'')) over
        each panel, shape (2, N-1), as the last apply with integrals formed
        them (the fixed-point certificate's, for the delivered z).  When that
        apply took another function, z is applied with integrals first."""
        if self._plain is None or self._plain[0] is not z:
            self.apply(z, integrals=True)
        return self._plain[1]

    def apply_forcing(self, forcing) -> GridFunction:
        """Kernel integral of an arbitrary forcing callable (probe use),
        with the tail seeds beyond the grid taken from that forcing."""
        f_gl = np.broadcast_to(np.asarray(forcing(self.grid.gl_x), dtype=float),
                               self.grid.gl_x.shape)
        f_nodes = np.asarray(forcing(self.grid.nodes), dtype=float)
        return self._image(f_gl.__getitem__, f_nodes, self._tail_seeds(forcing))


# --- orientation ground-truth test -------------------------------------------

def resolve_orientation(sys: RiccatiSystem):
    """Adopt the kernel orientation under which T inverts the operator.

    A zero-nonlinearity problem (pure linear cubic with a smooth non-resonant
    exponential forcing) is solved with both orientations on PROBE_NODES
    graded nodes from t = 0; the residual of z''' + b2 z'' + b1 z' + b0 z
    against the forcing decides, and passes at most PROBE_RESIDUAL_TOL.
    """
    gmax = max(abs(g) for g in sys.kernel.gamma)
    sigma = 1.37 * gmax + 0.7071
    probe = lambda s: np.exp(-sigma * np.asarray(s, dtype=float))
    t_max = math.log(1e10) / min(abs(g) for g in sys.kernel.gamma)
    grid = make_panels(graded_nodes(0.0, t_max, PROBE_NODES))
    residuals = {}
    for orientation in ("direct", "adjoint"):
        op = IntegralOperator(sys, grid, orientation, quad_tol=1e-13)
        z = op.apply_forcing(probe)
        res = third_order_lhs(sys, z) - probe(grid.nodes)
        residuals[orientation] = float(np.max(np.abs(res)))
    passing = [o for o, r in residuals.items() if r <= PROBE_RESIDUAL_TOL]
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
    n_iter: int = 0
    certificate: float = float("nan")              # ||T z* - z*||_0


def iterate_to_fixed_point(op: IntegralOperator, fp_tol=FP_TOL, max_iter=MAX_ITER,
                           eta=0.25, snapshot=None):
    """Plain Picard iteration of the operator op from omega_0 = 0.

    Returns (z, trace), z on op.grid, only once a step moves the iterate by
    at most fp_tol.  Raises Diverged when the iterate leaves the eta ball by
    a factor 10 or deltas grow three steps in a row; MaxIterExceeded at the
    cap.  snapshot, when given, is called with (iteration, GridFunction)
    after every step.  The certificate
    ||T z - z||_0 is one more apply of z, which also forms the panel
    integrals that synthesis reads (``IntegralOperator.panel_integrals``).
    """
    trace = IterationTrace()

    z = GridFunction.zero(op.grid)
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
            trace.n_iter = n
            trace.certificate = op.apply(z_new, integrals=True).diff_norm(z_new)
            return z_new, trace
    raise MaxIterExceeded(f"no convergence in {max_iter} iterations")


# --- pointwise decay envelope -----------------------------------------------

def beta_interval(sys: RiccatiSystem):
    """Admissible beta interval, from the slowest direct-kernel modes:
    [head rate, 0) = [lam_{i+1} - lam_i, 0) when the kernel has head modes
    (i = 1..3), else (0, tail rate] = (0, lam_3 - lam_4] (i = 4), where beta
    governs the tail side.  The gap end is the rate of op.modes.slowest()
    on that side, the rate ``envelope_integral`` reads."""
    head, tail = sys.kernel.modes("direct").slowest()
    return (head, 0.0) if head is not None else (0.0, tail)


def envelope_integral(op: IntegralOperator):
    """E_i(t) on the grid nodes of op: exponential transforms of
    |p(lam_i, s)| = |Omega(s)| at the rates of op's slowest kernel modes.

    Each side of the diagonal that carries kernel modes contributes one
    transform (head: integral over [t0, t], tail: over [t, inf)) at the rate
    of its slowest mode (``op.modes.slowest()``), so every mode is dominated
    on its side.  On the side beta governs that rate is the gap end of
    ``beta_interval(op.sys)`` (mirrored for the adjoint kernel); any other
    admissible beta only loosens E_i.  With the adjoint modes this is the
    printed envelope for i = 1, 4 and the gap-split envelope for i = 2, 3;
    with the direct modes it bounds the delivered fixed point.  |Omega| is
    read from op's samples, and past the grid from op.omega.
    """
    head_rate, tail_rate = op.modes.slowest()
    p_gl = np.abs(op._omega_gl)
    out = np.zeros(op.grid.nodes.size)
    if head_rate is not None:
        out += head_transform(op.grid, p_gl, head_rate)
    if tail_rate is not None:
        seed = exponential_tail_seed(lambda s: np.abs(op.omega(s)), op.grid, tail_rate,
                                     op.quad_tol)
        out += tail_transform(op.grid, p_gl, tail_rate, seed)
    return out


def envelope_check(op: IntegralOperator, z: GridFunction, envelope, phi):
    """Verify sum_j |z^(j)(t)| <= phi * E_i(t) on the grid, with envelope
    E_i on the grid nodes as ``envelope_integral`` returns it for op.  z must
    live on op.grid.

    Returns (verdict, max_ratio)."""
    if z.grid is not op.grid:
        raise ValueError("z lives on another panel grid")
    numerator = np.abs(z.value) + np.abs(z.d1) + np.abs(z.d2)
    den = phi * envelope
    tiny = 1e-300
    ratio = np.where(den > tiny, numerator / np.maximum(den, tiny),
                     np.where(numerator <= 1e-14, 0.0, np.inf))
    max_ratio = float(np.max(ratio))
    return max_ratio <= 1.0 + 1e-9, max_ratio


def first_iterate_ratio(op: IntegralOperator, a_const, envelope):
    """sup_t |T0(t)| / (A * E_i(t)): the first-step envelope sharpness, with
    T0 = op.apply(None) and envelope E_i on the grid nodes as
    ``envelope_integral`` returns it for op."""
    t0_iterate = op.apply(None)
    mask = a_const * envelope > 1e-300
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(t0_iterate.value[mask]) / (a_const * envelope[mask])))
