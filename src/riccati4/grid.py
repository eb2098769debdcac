"""Sampled functions on [t0, t_max] with value and derivative channels.

A GridFunction carries the PanelGrid it lives on and stores z, z', z'' at
the panel boundary nodes plus an auxiliary third-derivative channel used
only to interpolate z'' between nodes.  Interpolation is cubic Hermite per
channel, pairing each channel with the next one as its slope, so the three
channels stay mutually consistent to interpolation accuracy.

The Gauss-Legendre nodes sit at the same relative place u = (1 + xi) / 2 in
every panel, so the Hermite basis there is one (4, order) matrix per rule
(``_gl_hermite``, at the abscissae of the grid's rule, 8 or 16 points); only
the slope terms scale with the panel width.
``channels_on`` contracts each panel's end values and width-scaled slopes
with it, for all panels or a slice of them: the Picard operator works one
block of panels at a time, and its pass is the only one of a run that reads
z there.  ``channels_at`` serves arbitrary points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NonFinite
from .quadrature import PanelGrid, gl_rule


def hermite_basis(left, width, x):
    """Cubic Hermite basis (h00, h10 * width, h01, h11 * width) at points x of
    the intervals [left, left + width]."""
    u = (x - left) / width
    u2 = u * u
    u3 = u2 * u
    h00 = 2.0 * u3 - 3.0 * u2 + 1.0
    h10 = u3 - 2.0 * u2 + u
    h01 = -2.0 * u3 + 3.0 * u2
    h11 = u3 - u2
    return h00, h10 * width, h01, h11 * width


def hermite_eval(nodes, values, slopes, x):
    """Vectorized cubic Hermite evaluation at points x inside [nodes[0], nodes[-1]]."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    h00, h10, h01, h11 = hermite_basis(nodes[idx], nodes[idx + 1] - nodes[idx], x)
    return h00 * values[idx] + h10 * slopes[idx] + h01 * values[idx + 1] + h11 * slopes[idx + 1]


@cache
def _gl_hermite(order: int) -> np.ndarray:
    """Rows h00, h10, h01, h11 at the nodes of the order-point Gauss-Legendre
    rule on the unit panel, shape (4, order)."""
    return np.stack(hermite_basis(0.0, 1.0, 0.5 * (1.0 + gl_rule(order)[0])))


@dataclass(frozen=True)
class GridFunction:
    grid: PanelGrid
    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray  # slope channel for d2 interpolation / fourth-order ratios

    def __post_init__(self):
        for ch in (self.value, self.d1, self.d2, self.d3):
            if ch.shape != self.nodes.shape:
                raise ValueError("channel shape mismatch")
            if not np.all(np.isfinite(ch)):
                raise NonFinite("grid function has non-finite samples")

    @classmethod
    def zero(cls, grid: PanelGrid):
        z = np.zeros_like(grid.nodes)
        return cls(grid=grid, value=z, d1=z.copy(), d2=z.copy(), d3=z.copy())

    @property
    def nodes(self):
        return self.grid.nodes

    def channels_at(self, x):
        """(z, z', z'') at arbitrary points inside the grid."""
        z = hermite_eval(self.nodes, self.value, self.d1, x)
        z1 = hermite_eval(self.nodes, self.d1, self.d2, x)
        z2 = hermite_eval(self.nodes, self.d2, self.d3, x)
        return z, z1, z2

    def channels_on(self, panels=slice(None)):
        """(z, z', z'') at the Gauss-Legendre nodes of this function's grid,
        shape (N-1, GL order), or of the panels of the slice `panels`.  A
        panel's row has the same bits in every slice that holds it."""
        width = self.nodes[1:][panels] - self.nodes[:-1][panels]
        basis = _gl_hermite(self.grid.order)
        return (self._on(self.value, self.d1, width, panels, basis),
                self._on(self.d1, self.d2, width, panels, basis),
                self._on(self.d2, self.d3, width, panels, basis))

    @staticmethod
    def _on(values, slopes, width, panels, basis):
        ends = np.stack((values[:-1][panels], width * slopes[:-1][panels],
                         values[1:][panels], width * slopes[1:][panels]), axis=1)
        # einsum, not matmul: matmul may route a 1-row slice to another BLAS
        # kernel, whose row then differs in its last bits
        return np.einsum("pk,kj->pj", ends, basis)

    def norm_c02(self):
        """sup over nodes of |z| + |z'| + |z''|."""
        return float(np.max(np.abs(self.value) + np.abs(self.d1) + np.abs(self.d2)))

    def diff_norm(self, other):
        return float(np.max(
            np.abs(self.value - other.value)
            + np.abs(self.d1 - other.d1)
            + np.abs(self.d2 - other.d2)
        ))
