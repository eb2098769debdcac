"""Problem ingestion: config files, validation, presets."""

from __future__ import annotations

import configparser
import io
import math
import numbers
from dataclasses import dataclass

from . import exprlang
from .errors import ExpressionError, ParseError, ValidationError
from .picard import DEFAULT_NODES, FP_TOL, MAX_ITER, QUAD_TOL
from .spectra import GAP_TOL, ROOT_TOL, vieta_coefficients


@dataclass(frozen=True)
class ProblemSpec:
    a3: float = 0.0
    a2: float = 0.0
    a1: float = 0.0
    a0: float = 0.0
    r0: str = "0"
    r1: str = "0"
    r2: str = "0"
    r3: str = "0"
    t0: float = 0.0
    t_max: float | None = None      # None -> horizon from the spectral gap
    nodes: int = DEFAULT_NODES
    eta: float = 0.25
    fp_tol: float = FP_TOL
    quad_tol: float = QUAD_TOL
    root_tol: float = ROOT_TOL
    gap_tol: float = GAP_TOL
    max_iter: int = MAX_ITER
    trace: bool = False

    @property
    def a(self):
        return (self.a3, self.a2, self.a1, self.a0)

    @property
    def r(self):
        return (self.r0, self.r1, self.r2, self.r3)

    def parsed_r(self):
        return tuple(exprlang.parse(rj) for rj in self.r)

    def validate(self):
        for name in ("a3", "a2", "a1", "a0", "t0", "eta", "fp_tol",
                     "quad_tol", "root_tol", "gap_tol"):
            value = getattr(self, name)
            if not math.isfinite(float(value)):
                raise ValidationError(f"{name} must be finite")
        if not 0.0 < self.eta < 0.5:
            raise ValidationError("eta must lie in (0,0.5)")
        for name in ("nodes", "max_iter"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValidationError(f"{name} must be an integer")
        if self.nodes < 64:
            raise ValidationError("nodes must be at least 64")
        if self.t_max is not None and not self.t0 < self.t_max < math.inf:
            raise ValidationError("t_max must be finite and exceed t0")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be positive")
        for tol in ("fp_tol", "quad_tol", "root_tol", "gap_tol"):
            if getattr(self, tol) <= 0:
                raise ValidationError(f"{tol} must be positive")
        for name in ("r0", "r1", "r2", "r3"):
            try:
                exprlang.parse(getattr(self, name))
            except ExpressionError as exc:
                raise ValidationError(f"{name}: {exc}") from exc
        return self


_SCHEMA = {
    "equation": {"a3": float, "a2": float, "a1": float, "a0": float,
                 "r0": str, "r1": str, "r2": str, "r3": str},
    "domain": {"t0": float, "t_max": float, "nodes": int},
    "solver": {"eta": float, "fp_tol": float, "quad_tol": float,
               "root_tol": float, "gap_tol": float, "max_iter": int},
}


def load_problem_spec(path) -> ProblemSpec:
    """Parse an INI problem file; unknown sections/keys are rejected and
    every field is validated."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValidationError(f"unknown key {key!r} in [{section}]")
            kind = _SCHEMA[section][key]
            if key == "t_max" and raw.strip().lower() in ("auto", "none", ""):
                values[key] = None
                continue
            try:
                values[key] = kind(raw) if kind is not str else raw.strip()
            except ValueError as exc:
                raise ValidationError(f"{key}: cannot parse {raw!r}") from exc
    if "equation" not in parser.sections():
        raise ValidationError("missing [equation] section")
    return ProblemSpec(**values).validate()


def dump_problem_spec(spec: ProblemSpec) -> str:
    """Round-trippable INI text for a ProblemSpec, laid out by _SCHEMA: "auto"
    for a None t_max, strings as they are, `repr` for numbers."""
    def text(value):
        if value is None:
            return "auto"
        return value if isinstance(value, str) else repr(value)

    parser = configparser.ConfigParser(interpolation=None)
    for section, fields in _SCHEMA.items():
        parser[section] = {key: text(getattr(spec, key)) for key in fields}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def biharmonic_roots(n: int, p: float):
    """Characteristic roots of the radial biharmonic reduction for dimension
    n >= 5 and exponent p > (n+4)/(n-4)."""
    lam1 = 2.0 * (p + 1.0) / (p - 1.0)
    lam2 = 4.0 / (p - 1.0)
    lam3 = 4.0 * p / (p - 1.0) - n
    lam4 = 2.0 * (p + 1.0) / (p - 1.0) - n
    return (lam1, lam2, lam3, lam4)


def biharmonic_k_constants(n: int, p: float):
    """Displayed closed forms K0..K3 of the transformed equation.

    K1 as displayed disagrees with the root display by a constant factor;
    the preset therefore derives every coefficient from the roots and uses
    these only as a cross-check (K0, K2, K3 agree)."""
    q = p - 1.0
    k0 = (8.0 / q**4) * (
        (n - 2.0) * (n - 4.0) * q**3
        + 2.0 * (n**2 - 10.0 * n + 20.0) * q**2
        - 16.0 * (n - 4.0) * q + 32.0
    )
    k1 = -(8.0 / q**3) * (
        (n - 2.0) * (n - 4.0) * q**3
        + 4.0 * (n**2 - 10.0 * n + 20.0) * q**2
        - 48.0 * (n - 4.0) * q + 128.0
    )
    k2 = (1.0 / q**2) * (
        (n**2 - 10.0 * n + 20.0) * q**2 - 24.0 * (n - 4.0) * q + 96.0
    )
    k3 = (2.0 / q) * ((n - 4.0) * q - 8.0)
    return (k0, k1, k2, k3)


def biharmonic_preset(n: int, p: float, **overrides) -> ProblemSpec:
    """ProblemSpec for the radial biharmonic equation in dimension n with
    exponent p; coefficients are reconstructed from the root display (Vieta),
    which keeps them exactly consistent with the advertised spectrum."""
    if n < 5:
        raise ValidationError("biharmonic preset needs dimension n >= 5")
    if p <= (n + 4.0) / (n - 4.0):
        raise ValidationError(
            f"biharmonic preset needs p > (n+4)/(n-4) = {(n + 4.0) / (n - 4.0):g}"
        )
    a3, a2, a1, a0 = vieta_coefficients(biharmonic_roots(n, p))
    spec = ProblemSpec(a3=a3, a2=a2, a1=a1, a0=a0, **overrides)

    k0, _, k2, k3 = biharmonic_k_constants(n, p)
    for name, printed, derived in (("K0", k0, spec.a0), ("K2", k2, spec.a2),
                                   ("K3", k3, spec.a3)):
        if abs(printed - derived) > 1e-9 * max(1.0, abs(derived)):
            raise ValidationError(
                f"biharmonic {name} cross-check failed: {printed!r} vs {derived!r}"
            )
    return spec.validate()
