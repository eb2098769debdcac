"""Per-root Riccati system: coefficient maps, nonlinearity, residuals.

Substituting y = exp(integral of (lam_i + z)) into the perturbed fourth-order
equation and collecting powers of z yields

    z''' + b2 z'' + b1 z' + b0 z = Omega(t) + F(t, z, z', z''),

with constant b's from the shifted cubic and F split into a perturbation-
linear part Lambda1 . (x1,x2,x3), a perturbation-nonlinear part
Lambda2 . (x1 x2, x1^2, x1^3), and a constant-coefficient polynomial part
C . (x2^2, x1 x2, x1 x3, x1^2, x1^2 x2, x1^3, x1^4).

The constant vector uses the expansion-consistent values
    C = -(3, 12 lam + 3 a3, 4, 6 lam^2 + 3 lam a3 + a2, 6, 4 lam + a3, 1),
and the perturbation maps are
    Lambda1 = -(3 lam^2 r3 + 2 lam r2 + r1, 3 lam r3 + r2, r3),
    Lambda2 = -(3 r3, 3 lam r3 + r2, r3).
They are validated by the lift identity R4 = y R3, which ties the residual
of the fourth-order equation at y = exp(integral(lam + z)) to y times the
residual of this third-order form for arbitrary smooth z.  The identity is a
test reference (tests/reference_routes.py, acceptance criterion 4).

F is evaluated in the nested (Horner) form

    F = b x2 + h x3 + C0 x2^2
        + x1 (a + p x2 + C2 x3 + x1 (q + C4 x2 + x1 (s + C6 x1))),

with (a, b, h) = Lambda1, p = Lambda2_0 + C1, q = Lambda2_1 + C3 and
s = Lambda2_2 + C5 combined ahead of time, so no power is ever taken of an
array.  Sample once: ``sample_coefficients`` evaluates each perturbation
r0..r3 once per set of sample points and returns Omega with the six
t-dependent coefficients; a perturbation that is syntactically zero gives
the scalar 0.0.  Every pipeline stage that needs Omega or F (the Picard
operator, the residual, the asymptotic formula, the oracle's right-hand
side) samples once and reads Omega and ``F_nested`` from the same samples;
``eval_F`` composes the two for one-off use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from . import exprlang
from .grid import GridFunction
from .greens import GreenKernel, kernel_for_root
from .spectra import CharacteristicData, shifted_cubic_coeffs


class Coefficients(NamedTuple):
    """Omega and the six t-dependent coefficients of the nested F at a set of
    sample points; each entry is an array, or a float when the perturbations
    it depends on are all syntactically zero."""

    omega: object
    a: object   # Lambda1_0, multiplies x1
    b: object   # Lambda1_1, multiplies x2
    h: object   # Lambda1_2, multiplies x3
    p: object   # Lambda2_0 + C_1, multiplies x1 x2
    q: object   # Lambda2_1 + C_3, multiplies x1^2
    s: object   # Lambda2_2 + C_5, multiplies x1^3


def _omega(lam, r0, r1, r2, r3):
    return -(lam**3 * r3 + lam**2 * r2 + lam * r1 + r0)


@dataclass(frozen=True)
class RiccatiSystem:
    i: int
    lam: float
    a: tuple                    # (a3, a2, a1, a0)
    b: tuple                    # (b2, b1, b0)
    r: tuple                    # four FunctionExpr, indices 0..3
    C: np.ndarray               # 7 constants
    kernel: GreenKernel

    def omega(self, t):
        """Omega(t) = -(lam^3 r3 + lam^2 r2 + lam r1 + r0)."""
        return _omega(self.lam, *(rj(t) for rj in self.r))


def build_system(cd: CharacteristicData, r, i: int) -> RiccatiSystem:
    """Assemble the Riccati system for root index i (1-based).

    r is a sequence of four FunctionExpr (or parseable strings) r0..r3.
    """
    exprs = tuple(exprlang.as_expr(rj) for rj in r)
    if len(exprs) != 4:
        raise ValueError("need perturbations r0..r3")
    lam = cd.lam_for(i)
    a3, a2, _, _ = cd.a
    C = -np.array([
        3.0,
        12.0 * lam + 3.0 * a3,
        4.0,
        6.0 * lam**2 + 3.0 * lam * a3 + a2,
        6.0,
        4.0 * lam + a3,
        1.0,
    ])
    return RiccatiSystem(
        i=i,
        lam=lam,
        a=cd.a,
        b=shifted_cubic_coeffs(cd, i),
        r=exprs,
        C=C,
        kernel=kernel_for_root(cd, i),
    )


def sample_coefficients(sys: RiccatiSystem, t) -> Coefficients:
    """Omega and the F coefficients at t, evaluating each of r0..r3 once;
    a perturbation that is syntactically zero is not evaluated at all."""
    lam = sys.lam
    r0, r1, r2, r3 = (0.0 if exprlang.is_zero(rj) else rj(t) for rj in sys.r)
    f = -(3.0 * lam * r3 + r2)          # Lambda1_1 = Lambda2_1
    c = sys.C
    return Coefficients(_omega(lam, r0, r1, r2, r3),
                        -(3.0 * lam**2 * r3 + 2.0 * lam * r2 + r1), f, -r3,
                        -3.0 * r3 + c[1], f + c[3], -r3 + c[5])


def F_nested(sys: RiccatiSystem, k: Coefficients, x1, x2, x3):
    """F(x1, x2, x3) from sampled coefficients, in the nested (Horner) form;
    x1, x2, x3 broadcast against the sample points of k."""
    c = sys.C
    return (k.b * x2 + k.h * x3 + c[0] * x2 * x2
            + x1 * (k.a + k.p * x2 + c[2] * x3
                    + x1 * (k.q + c[4] * x2 + x1 * (k.s + c[6] * x1))))


def eval_F(sys: RiccatiSystem, t, x1, x2, x3):
    """F(t, x1, x2, x3) for scalars or arrays that broadcast against t."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    x3 = np.asarray(x3, dtype=float)
    out = np.asarray(F_nested(sys, sample_coefficients(sys, t), x1, x2, x3))
    return out if out.ndim else float(out)


# --- residuals ---------------------------------------------------------------

def residual_profile(sys: RiccatiSystem, z: GridFunction):
    """Residual of the third-order form at every node.

    z''' is recovered by differentiating a spline through the z'' channel,
    keeping the check independent of the integral representation that
    produced z.
    """
    t = z.nodes
    z3 = CubicSpline(t, z.d2)(t, 1)
    b2, b1, b0 = sys.b
    lhs = z3 + b2 * z.d2 + b1 * z.d1 + b0 * z.value
    k = sample_coefficients(sys, t)
    return lhs - (k.omega + F_nested(sys, k, z.value, z.d1, z.d2))


def log_derivative_ratios(lam, z0, z1, z2, z3):
    """(y'/y, y''/y, y'''/y, y''''/y) for y = exp(integral(lam + z)).

    Writing w = lam + z these are the standard logarithmic-derivative
    identities; the fourth one needs z'''.
    """
    w = lam + np.asarray(z0, dtype=float)
    r1 = w
    r2 = w**2 + z1
    r3 = w**3 + 3.0 * w * z1 + z2
    r4 = w**4 + 6.0 * w**2 * z1 + 3.0 * np.asarray(z1) ** 2 + 4.0 * w * z2 + z3
    return r1, r2, r3, r4
