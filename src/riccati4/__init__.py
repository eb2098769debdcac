"""riccati4: asymptotics of perturbed fourth-order linear ODEs.

The fourth-order equation with decaying coefficient perturbations is reduced,
per characteristic root, to a third-order Riccati-type equation; the reduced
equation is solved by Green-kernel Picard iteration, certified by contraction
constants, decay checks and pointwise envelopes, synthesized into a
fundamental system with its asymptotic formulas, and cross-validated by a
direct adaptive integrator.
"""

from .errors import SolverError
from .exprlang import FunctionExpr, parse
from .grid import GridFunction
from .greens import GreenKernel, SignCase, classify_sign_pattern
from .hypotheses import (
    F_operator_eval,
    check_h2,
    contraction_constants,
    envelope_report,
    rho_bound,
    smallness_check,
)
from .oracle import cross_validate, integrate_linear4, integrate_riccati
from .picard import (
    IntegralOperator,
    envelope_check,
    iterate_to_fixed_point,
    resolve_orientation,
)
from .problem import ProblemSpec, biharmonic_preset, load_problem_spec
from .report import run_report
from .riccati import RiccatiSystem, build_system, eval_F
from .spectra import (
    CharacteristicData,
    characteristic_data,
    order_and_check_h1,
    shifted_cubic_coeffs,
    solve_quartic_real,
)
from .synthesis import (
    FundamentalSolution,
    asymptotic_integral_formula,
    derivative_ratio_limits,
    fundamental_solution,
    wronskian_normalized,
)

__version__ = "0.1.0"
