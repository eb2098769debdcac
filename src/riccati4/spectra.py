"""Characteristic polynomial handling for the fourth-order operator.

Roots of lambda^4 + a3 lambda^3 + a2 lambda^2 + a1 lambda + a0 are found by
companion-matrix eigenvalues and polished by Newton steps; the separation
hypothesis (strictly decreasing real roots) is then checked.  For each root
the shifted cubic whose roots are the pairwise differences lambda_j - lambda_i
is produced in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ComplexRoots, IllConditioned, RepeatedRealParts

GAP_TOL = 1e-8
IMAG_TOL = 1e-9
ROOT_TOL = 1e-10


def _quartic_value(a, x):
    a3, a2, a1, a0 = a
    return (((x + a3) * x + a2) * x + a1) * x + a0


def _quartic_derivative(a, x):
    a3, a2, a1, a0 = a
    return ((4.0 * x + 3.0 * a3) * x + 2.0 * a2) * x + a1


def _residual_scale(a, x):
    a3, a2, a1, a0 = a
    ax = abs(x)
    return ax**4 + abs(a3) * ax**3 + abs(a2) * ax**2 + abs(a1) * ax + abs(a0) + 1.0


def solve_quartic_real(a, root_tol=ROOT_TOL):
    """Return the four real roots of the monic quartic with coefficients
    (a3, a2, a1, a0), each polished to |p(root)| <= root_tol * scale.

    Raises ComplexRoots when an eigenvalue has imaginary part beyond
    IMAG_TOL * scale, IllConditioned when polishing stalls.
    """
    a = tuple(float(c) for c in a)
    if len(a) != 4 or not all(np.isfinite(a)):
        raise ValueError("need four finite coefficients (a3, a2, a1, a0)")
    raw = np.roots([1.0, *a])
    scale = max(1.0, max(abs(r) for r in raw))
    if np.any(np.abs(raw.imag) > IMAG_TOL * scale):
        raise ComplexRoots(
            f"quartic has complex roots (max |Im| = {np.max(np.abs(raw.imag)):.3e})"
        )
    roots = []
    for x in np.real(raw):
        for _ in range(4):
            f = _quartic_value(a, x)
            if abs(f) <= root_tol * _residual_scale(a, x):
                break
            df = _quartic_derivative(a, x)
            if df == 0.0:
                break
            step = f / df
            # repeated-root plateaus make Newton useless; bail to the check below
            if not np.isfinite(step):
                break
            x -= step
        if abs(_quartic_value(a, x)) > root_tol * _residual_scale(a, x):
            raise IllConditioned(
                f"root polish stalled at x={x!r}, residual {_quartic_value(a, x):.3e}"
            )
        roots.append(float(x))
    return tuple(roots)


@dataclass(frozen=True)
class CharacteristicData:
    """Ordered real spectrum of the unperturbed quartic operator.

    lam is strictly decreasing; gamma[i] lists the three shifted values
    lam[j] - lam[i] (j != i) in decreasing order.
    """

    a: tuple  # (a3, a2, a1, a0)
    lam: tuple  # strictly decreasing
    gamma: tuple = field(init=False)
    min_gap: float = field(init=False)

    def __post_init__(self):
        lam = self.lam
        gaps = [lam[k] - lam[k + 1] for k in range(3)]
        gamma = tuple(
            tuple(sorted((lam[j] - lam[i] for j in range(4) if j != i), reverse=True))
            for i in range(4)
        )
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "min_gap", min(gaps))

    def gamma_for(self, i):
        """Shifted roots for 1-based root index i."""
        return self.gamma[_root_index(i)]

    def lam_for(self, i):
        return self.lam[_root_index(i)]


def _root_index(i):
    """0-based position of 1-based root index i (no wrap-around for i = 0)."""
    if i not in (1, 2, 3, 4):
        raise ValueError("root index must be 1..4")
    return i - 1


def vieta_coefficients(lam):
    """(a3, a2, a1, a0) of the monic quartic with roots lam (in the given
    order; the elementary symmetric sums run in index order)."""
    e1 = sum(lam)
    e2 = sum(lam[i] * lam[j] for i in range(4) for j in range(i + 1, 4))
    e3 = sum(
        lam[i] * lam[j] * lam[k]
        for i in range(4)
        for j in range(i + 1, 4)
        for k in range(j + 1, 4)
    )
    e4 = lam[0] * lam[1] * lam[2] * lam[3]
    return (-e1, e2, -e3, e4)


def order_and_check_h1(roots, a=None, gap_tol=GAP_TOL):
    """Sort roots strictly decreasing and package them as CharacteristicData.

    When a is omitted the quartic coefficients are reconstructed from the
    roots (Vieta).  Raises RepeatedRealParts when any gap is below gap_tol.
    """
    lam = tuple(sorted((float(r) for r in roots), reverse=True))
    if len(lam) != 4:
        raise ValueError("need exactly four roots")
    scale = max(1.0, max(abs(x) for x in lam))
    for k in range(3):
        if lam[k] - lam[k + 1] < gap_tol * scale:
            raise RepeatedRealParts(
                f"roots {lam[k]!r} and {lam[k + 1]!r} closer than gap_tol"
            )
    if a is None:
        a = vieta_coefficients(lam)
    return CharacteristicData(a=tuple(float(c) for c in a), lam=lam)


def characteristic_data(a, root_tol=ROOT_TOL, gap_tol=GAP_TOL):
    """Solve the quartic for coefficients a and run the separation check."""
    roots = solve_quartic_real(a, root_tol=root_tol)
    return order_and_check_h1(roots, a=a, gap_tol=gap_tol)


def shifted_cubic_coeffs(cd: CharacteristicData, i: int):
    """Coefficients (b2, b1, b0) of the cubic mu^3 + b2 mu^2 + b1 mu + b0
    whose roots are the shifted values lam[j] - lam[i], for root index i
    in 1..4."""
    lam = cd.lam_for(i)
    a3, a2, a1, _ = cd.a
    b2 = 4.0 * lam + a3
    b1 = 6.0 * lam**2 + 3.0 * lam * a3 + a2
    b0 = 4.0 * lam**3 + 3.0 * lam**2 * a3 + 2.0 * lam * a2 + a1
    return (b2, b1, b0)
