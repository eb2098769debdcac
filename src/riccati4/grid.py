"""Sampled functions on [t0, t_max] with value and derivative channels.

A GridFunction carries the PanelGrid it lives on and stores z, z', z'' at
the panel boundary nodes plus an auxiliary third-derivative channel used
only to interpolate z'' between nodes.  Interpolation is cubic Hermite per
channel, pairing each channel with the next one as its slope, so the three
channels stay mutually consistent to interpolation accuracy.

The Hermite basis depends only on where the points sit in their intervals,
so at the fixed Gauss-Legendre nodes of a panel grid it is computed once
(``PanelGrid.hermite_basis``) and ``channels_on`` only combines it with the
node values; ``channels_at`` serves arbitrary points.  Every function of a
run shares the run's one grid, so the basis is computed once per run.
``channels_on`` reads all panels or a slice of them: the Picard operator
works one block of panels at a time, and its pass is the only one of a run
that reads z there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonFinite

if TYPE_CHECKING:
    from .quadrature import PanelGrid


def hermite_basis(left, width, x):
    """Cubic Hermite basis (h00, h10 * width, h01, h11 * width) at points x of
    the intervals [left, left + width]; combine it with hermite_combine."""
    u = (x - left) / width
    u2 = u * u
    u3 = u2 * u
    h00 = 2.0 * u3 - 3.0 * u2 + 1.0
    h10 = u3 - 2.0 * u2 + u
    h01 = -2.0 * u3 + 3.0 * u2
    h11 = u3 - u2
    return h00, h10 * width, h01, h11 * width


def hermite_combine(basis, v_left, s_left, v_right, s_right):
    """Hermite interpolant from its basis and the values and slopes at the
    interval ends."""
    h00, h10, h01, h11 = basis
    return h00 * v_left + h10 * s_left + h01 * v_right + h11 * s_right


def hermite_eval(nodes, values, slopes, x):
    """Vectorized cubic Hermite evaluation at points x inside [nodes[0], nodes[-1]]."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    basis = hermite_basis(nodes[idx], nodes[idx + 1] - nodes[idx], x)
    return hermite_combine(basis, values[idx], slopes[idx], values[idx + 1], slopes[idx + 1])


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

    @property
    def t_max(self):
        return float(self.nodes[-1])

    def channels_at(self, x):
        """(z, z', z'') at arbitrary points inside the grid."""
        z = hermite_eval(self.nodes, self.value, self.d1, x)
        z1 = hermite_eval(self.nodes, self.d1, self.d2, x)
        z2 = hermite_eval(self.nodes, self.d2, self.d3, x)
        return z, z1, z2

    def channels_on(self, panels=slice(None)):
        """(z, z', z'') at the Gauss-Legendre nodes of this function's grid,
        shape (N-1, GL order), or of the panels of the slice `panels`; equal
        to channels_at(grid.gl_x[panels]) bit for bit, from the grid's
        cached basis."""
        return (self._on(self.value, self.d1, panels), self._on(self.d1, self.d2, panels),
                self._on(self.d2, self.d3, panels))

    def _on(self, values, slopes, panels):
        basis = [b[panels] for b in self.grid.hermite_basis]
        return hermite_combine(basis, values[:-1][panels, None], slopes[:-1][panels, None],
                               values[1:][panels, None], slopes[1:][panels, None])

    def norm_c02(self):
        """sup over nodes of |z| + |z'| + |z''|."""
        return float(np.max(np.abs(self.value) + np.abs(self.d1) + np.abs(self.d2)))

    def diff_norm(self, other):
        return float(np.max(
            np.abs(self.value - other.value)
            + np.abs(self.d1 - other.d1)
            + np.abs(self.d2 - other.d2)
        ))
