"""Piecewise-exponential Green kernels of the shifted cubic.

A kernel is built from the three shifted roots gamma_j (strictly ordered,
descending) of the cubic  mu^3 + b2 mu^2 + b1 mu + b0.  Two orientations are
provided:

``direct``
    The dichotomy-split kernel that inverts the cubic itself: modes with
    negative gamma live on the head side (s <= t), modes with positive gamma
    on the tail side (s >= t), each with its natural residue weight.  The
    second-derivative jump across t = s is +1 and, for fixed s, t -> g(t, s)
    solves the homogeneous shifted cubic off the diagonal.

``adjoint``
    The transposed-kernel family written with exponents exp(-gamma_j (t-s)).
    It carries the same per-branch exponential bounds and the same constants,
    in which the paper's envelope and first-iterate ratio are printed, but as
    an operator it inverts the reflected cubic (roots -gamma_j).  Within this
    family two branch signs are fixed so that g and dg/dt are continuous
    across t = s, which the bound and jump certificates require.

The pipeline solves and certifies with ``direct`` only.
``picard.resolve_orientation`` is the residual ground-truth test behind that
choice, kept as a library entry point; the adjoint family remains available
for evaluating the printed closed forms.

Pointwise evaluation of a kernel, the certificates of these properties (the
second-derivative limits at the diagonal, the annihilating cubic, the
pointwise exponential bound) and the adaptive decay functional L(E)(t) are
test references; they live in tests/reference_routes.py.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ZeroRoot
from .spectra import GAP_TOL


class SignCase(enum.Enum):
    ALL_NEG = "all_neg"
    ONE_POS = "one_pos"
    TWO_POS = "two_pos"
    ALL_POS = "all_pos"


def classify_sign_pattern(gamma) -> SignCase:
    """Sign case of the descending triple; ZeroRoot when any |gamma| < GAP_TOL."""
    g = tuple(sorted((float(x) for x in gamma), reverse=True))
    if any(abs(x) < GAP_TOL for x in g):
        raise ZeroRoot(f"shifted root too close to zero: {g!r}")
    n_pos = sum(1 for x in g if x > 0)
    return (SignCase.ALL_NEG, SignCase.ONE_POS, SignCase.TWO_POS, SignCase.ALL_POS)[n_pos]


@dataclass(frozen=True)
class Mode:
    coef: float
    rate: float


@dataclass(frozen=True)
class KernelModes:
    """Kernel as sum(coef * exp(rate*(t-s))) on each side of the diagonal.

    Head modes have rate < 0 (decay for t > s), tail modes rate > 0
    (decay for s > t); jump is the normalized second-derivative jump
    g_tt(s+, s) ... g_tt across the diagonal, head side minus tail side.
    """

    head: tuple
    tail: tuple
    jump: float

    def slowest(self):
        """(max head rate, min tail rate): the rate of the slowest-decaying
        mode on each side, None for a side without modes.  For the direct
        kernel of root i these are the spectral gaps lam_{i+1} - lam_i and
        lam_{i-1} - lam_i."""
        return (max((m.rate for m in self.head), default=None),
                min((m.rate for m in self.tail), default=None))


def _pprime(gamma):
    g1, g2, g3 = gamma
    return (
        (g1 - g2) * (g1 - g3),
        (g2 - g1) * (g2 - g3),
        (g3 - g1) * (g3 - g2),
    )


def _dichotomic_modes(gamma) -> KernelModes:
    """Dichotomy-split Green kernel for the cubic with roots gamma."""
    pp = _pprime(gamma)
    head = tuple(Mode(1.0 / pp[j], gamma[j]) for j in range(3) if gamma[j] < 0.0)
    tail = tuple(Mode(-1.0 / pp[j], gamma[j]) for j in range(3) if gamma[j] > 0.0)
    return KernelModes(head=head, tail=tail, jump=1.0)


@dataclass(frozen=True)
class GreenKernel:
    gamma: tuple          # strictly decreasing shifted roots
    delta_gamma: float    # (g2-g1)(g3-g2)(g3-g1)
    case: SignCase

    @classmethod
    def from_gamma(cls, gamma):
        g = tuple(sorted((float(x) for x in gamma), reverse=True))
        case = classify_sign_pattern(g)
        g1, g2, g3 = g
        dg = (g2 - g1) * (g3 - g2) * (g3 - g1)
        return cls(gamma=g, delta_gamma=dg, case=case)

    def modes(self, orientation="direct") -> KernelModes:
        if orientation == "direct":
            return _dichotomic_modes(self.gamma)
        if orientation == "adjoint":
            # transposed family: dichotomic kernel of the negated roots, with
            # the one-sided all-negative branch keeping its printed sign
            mirrored = tuple(sorted((-x for x in self.gamma), reverse=True))
            base = _dichotomic_modes(mirrored)
            sign = -1.0 if self.case is SignCase.ALL_NEG else 1.0
            return KernelModes(
                head=tuple(Mode(sign * m.coef, m.rate) for m in base.head),
                tail=tuple(Mode(sign * m.coef, m.rate) for m in base.tail),
                jump=sign,
            )
        raise ValueError(f"unknown orientation {orientation!r}")

    # --- exponential bounds -------------------------------------------------

    def kernel_bound(self, d, orientation="adjoint"):
        """Per-branch bound data: dict side -> (raw_coefficient, alpha).

        |d^d g / dt^d| <= (raw_coefficient / |delta_gamma|) * exp(-alpha*(t-s))
        on that side.  For the transposed family this reproduces the branch
        constants sum |gamma_k - gamma_l| |gamma_j|^d and the rates alpha
        (max gamma on the tail branch, min gamma on the head branch of the
        one-sided cases).
        """
        m = self.modes(orientation)
        scale = abs(self.delta_gamma)
        out = {}
        for side, modes, rate in zip(("head", "tail"), (m.head, m.tail), m.slowest()):
            if modes:
                coef = sum(abs(mode.coef) * abs(mode.rate) ** d for mode in modes) * scale
                out[side] = (coef, -rate)
        return out


def kernel_for_root(cd, i) -> GreenKernel:
    """Green kernel for the shifted cubic of 1-based root index i."""
    return GreenKernel.from_gamma(cd.gamma_for(i))
