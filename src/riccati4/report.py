"""Pipeline orchestration and report generation.

One run first computes the class bound rho of every requested root in one
pass (``hypotheses.rho_bound``: one grid, one sample of each perturbation),
then executes, per requested root index in turn: the hypothesis checks
and contraction constants, the Picard solve with the direct (dichotomy)
kernel, residual-certified, the envelope and first-iterate certificates of
that same fixed point from the same Picard operator, synthesis of the
fundamental solution, whose log y and asymptotic integral are the panel
integrals that operator formed in the certificate's apply of z, and
oracle cross-validation.  Every stage of every root
works on the run's one panel grid (``picard.default_grid``), built once per
run.  Results land in a schema-stable report.json plus CSV series; the exit
code is 0 only when every requested check passes.

The CSV writer formats each float once, as the shortest round-trip repr of
its value, block by block of rows; the node column is formatted once per run
and its text shared by every file.  The digits come from orjson's numpy
serializer, which prints the same shortest round-trip digits as repr; its
exponents are rewritten to repr's layout, and repr itself formats the values
whose layout differs otherwise (1e-5 <= |x| < 1e-4, nan and inf).  Rows are
comma-separated with CRLF line ends and no quoting: the bytes csv.writer's
excel dialect writes for the same numbers.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import re
from dataclasses import dataclass

import numpy as np
import orjson

from . import hypotheses, oracle, picard, synthesis
from .errors import SolverError, ValidationError
from .problem import ProblemSpec
from .quadrature import PanelGrid
from .riccati import build_system, residual_profile
from .spectra import characteristic_data

RESIDUAL_TOL = 1e-6
ORACLE_Y_TOL = 1e-4
ORACLE_LOGDERIV_TOL = 1e-3
WRONSKIAN_REL_TOL = 0.01
MODES = ("analyze", "solve", "verify", "report")


def _num(x):
    """JSON-safe number: finite float or None."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _root_keys():
    return {
        "lambda": None, "gamma": None, "case": None, "constants": None,
        "h2": None, "solve": None, "certificates": None, "synthesis": None,
        "oracle": None, "status": "skipped", "error": None, "pass": None,
    }


# orjson writes "1e16" and "1e-7" where repr writes "1e+16" and "1e-07"
_EXP_PLUS = re.compile(r"e(?=\d)")
_EXP_PAD = re.compile(r"e-(?=\d(,|$))")


def _text(array):
    """A float array as the repr strings of its values.

    The digits come from orjson, which prints the shortest round-trip digits
    that repr prints, at about a tenth of repr's cost; two regexes give its
    exponents repr's sign and width.  The values that orjson lays out
    otherwise get repr's own text: 1e-5 <= |x| < 1e-4, positional in orjson
    and in exponent form in repr, and nan and the infinities, null in
    orjson."""
    x = np.ascontiguousarray(array, dtype=np.float64)  # orjson wants C order
    if not x.size:
        return []
    text = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1]
    if "e" in text:
        text = _EXP_PAD.sub("e-0", _EXP_PLUS.sub("e+", text))
    parts = text.split(",")
    m = np.abs(x)
    other = np.flatnonzero(((m >= 1e-5) & (m < 1e-4)) | ~np.isfinite(x))
    for k, value in zip(other.tolist(), x[other].tolist()):
        parts[k] = repr(value)
    return parts


_BLOCK_ROWS = 1024


def _write_csv(path, header, columns):
    """Write the header, then the rows of the columns, _BLOCK_ROWS rows at a
    time so that memory stays flat.  A column is either a list of text,
    formatted already (the shared node column), or a float array, formatted
    here one block at a time."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [c[lo:lo + _BLOCK_ROWS] for c in columns]
            text = [_text(b) if isinstance(b, np.ndarray) else b for b in block]
            handle.write("\r\n".join(map(",".join, zip(*text))) + "\r\n")


@dataclass
class _RunShared:
    """What every root of one run shares: the output directory (None writes
    no files), the panel grid, the parsed perturbations r0..r3 and the class
    bounds {i: rho_i or the root's SolverError} of hypotheses.rho_bound."""

    out_dir: str | None
    grid: PanelGrid
    r: tuple
    rho: dict

    @functools.cached_property
    def node_text(self):
        """The grid nodes as CSV text, formatted on the first write."""
        return _text(self.grid.nodes)


def _run_root(spec: ProblemSpec, cd, i, mode, run: _RunShared):
    out_dir, grid = run.out_dir, run.grid
    result = _root_keys()
    sys = build_system(cd, run.r, i)
    result["lambda"] = _num(sys.lam)
    result["gamma"] = [_num(g) for g in sys.kernel.gamma]
    result["case"] = sys.kernel.case.value
    checks = []

    try:
        env = hypotheses.envelope_report(cd, i, sys.r, spec.eta, run.rho[i], t0=spec.t0)
        result["constants"] = {
            "delta_w": _num(env.delta_w),
            "alpha": [_num(a) for a in env.alpha],
            "alpha_displayed": [_num(a) for a in env.alpha_displayed],
            "A": _num(env.A),
            "A_kernel": _num(env.A_kernel),
            "varsigma": _num(env.varsigma),
            "eta": _num(env.eta),
            "rho": _num(env.rho),
            "smallness_ok": env.smallness_ok,
            "Phi": _num(env.Phi),
        }
        result["h2"] = {
            "verdict": env.h2.verdict,
            "fitted_rate": _num(env.h2.fitted_rate),
            "samples": [[_num(t), _num(v)] for t, v in env.h2.samples],
        }
        checks.append(env.h2.verdict == "PASS")
        checks.append(env.smallness_ok)
        result["status"] = "analyzed"
        if mode == "analyze":
            result["pass"] = all(checks)
            return result, None

        snapshots = [] if spec.trace else None
        collect = (lambda n, z: snapshots.append((n, z))) if spec.trace else None
        # one operator T per root: the solve and both certificates use it;
        # the fixed-point certificate forms the synthesis integrals
        op = picard.IntegralOperator(sys, grid, quad_tol=spec.quad_tol)
        z, trace = picard.iterate_to_fixed_point(
            op, fp_tol=spec.fp_tol, max_iter=spec.max_iter, eta=spec.eta, snapshot=collect)
        residual_max = float(np.max(np.abs(residual_profile(sys, z))))
        # a solve that does not converge raises, and the root ends as its error
        result["solve"] = {
            "orientation": op.orientation,
            "converged": True,
            "n_iter": trace.n_iter,
            "deltas": [_num(d) for d in trace.deltas],
            "contraction": [_num(c) for c in trace.contraction],
            "certificate": _num(trace.certificate),
            "riccati_residual_max": _num(residual_max),
            "z_norm": _num(z.norm_c02()),
        }
        checks.append(trace.certificate <= max(spec.fp_tol, 1e-12))
        checks.append(residual_max <= RESIDUAL_TOL)

        if out_dir:
            _write_csv(
                os.path.join(out_dir, f"z_root{i}.csv"),
                ["t", "z", "dz", "d2z"],
                [run.node_text, z.value, z.d1, z.d2],
            )
            if spec.trace and snapshots:
                iters, snaps = zip(*snapshots)
                _write_csv(
                    os.path.join(out_dir, f"trace_root{i}.csv"),
                    ["iter", "t", "z", "dz", "d2z"],
                    [[str(n) for n in iters for _ in range(grid.nodes.size)],
                     run.node_text * len(snaps),
                     *(np.concatenate([getattr(s, ch) for s in snaps])
                       for ch in ("value", "d1", "d2"))],
                )

        # envelope certificates of the delivered z, with the envelope shaped
        # like the kernel that produced it; beta is the envelope's rate on the
        # head side, or on the tail side when the kernel has no head modes
        envelope = picard.envelope_integral(op)
        head_rate, tail_rate = op.modes.slowest()
        certs = {"beta": _num(tail_rate if head_rate is None else head_rate),
                 "envelope_ratio_max": None, "envelope_ok": None,
                 "first_iterate_ratio": None}
        if env.Phi is not None:
            ok, ratio = picard.envelope_check(op, z, envelope, env.Phi)
            certs["envelope_ratio_max"] = _num(ratio)
            certs["envelope_ok"] = ok
            checks.append(ok)
        certs["first_iterate_ratio"] = _num(picard.first_iterate_ratio(op, env.A, envelope))
        result["certificates"] = certs

        if mode == "solve":
            result["status"] = "solved"
            result["pass"] = all(checks)
            return result, None

        # log y and the asymptotic correction: the panel integrals that the
        # certificate's apply of z formed
        fs = synthesis.fundamental_solution(op, z, cd)
        del op  # free its panel weights before the oracle
        errors, verdict = synthesis.derivative_ratio_limits(fs)
        _, gap = synthesis.asymptotic_integral_formula(fs)
        result["synthesis"] = {
            "ratio_errors_at_tmax": [_num(errors[l, -1]) for l in range(4)],
            "ratio_verdict": verdict,
            "asymptotic_gap_first": _num(gap[1]),
            "asymptotic_gap_last": _num(gap[-1]),
        }
        checks.append(verdict == "PASS")

        if out_dir and mode == "report":
            log_y = np.clip(fs.log_y, -700.0, 700.0)
            _write_csv(
                os.path.join(out_dir, f"ratios_root{i}.csv"),
                ["t", "y", "y1_over_y", "y2_over_y", "y3_over_y", "y4_over_y"],
                [run.node_text, np.exp(log_y), *fs.ratios],
            )

        val = oracle.cross_validate(fs, sys)
        result["oracle"] = {
            "mode": val["mode"],
            "span": val["span"],
            "y_rel_error": _num(val.get("y_rel_error")),
            "logderiv_error": _num(val.get("logderiv_error")),
            "riccati_error": _num(val.get("riccati_error")),
            "riccati_direction": val.get("riccati_direction"),
        }
        if i == 1:
            checks.append(val["y_rel_error"] <= ORACLE_Y_TOL)
        checks.append(val["logderiv_error"] <= ORACLE_LOGDERIV_TOL)

        result["status"] = "ok"
        result["pass"] = all(checks)
        return result, fs

    except SolverError as exc:
        result["status"] = "error"
        result["error"] = f"{type(exc).__name__}: {exc}"
        result["pass"] = False
        return result, None


def run_report(spec: ProblemSpec, roots=(1, 2, 3, 4), out_dir=None,
               mode="report"):
    """Execute the pipeline and return (report dict, exit code)."""
    spec.validate()
    roots = tuple(roots)
    if not roots or any(not isinstance(i, numbers.Integral) or i not in (1, 2, 3, 4)
                        for i in roots):
        raise ValueError("root indices must be one or more integers within 1..4")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}, not {mode!r}")
    roots = tuple(sorted(set(map(int, roots))))
    report = {
        "problem": {
            "a": [spec.a3, spec.a2, spec.a1, spec.a0],
            "r": list(spec.r),
            "t0": spec.t0,
            "t_max": spec.t_max,
            "nodes": spec.nodes,
            "eta": spec.eta,
            "tolerances": {
                "fp_tol": spec.fp_tol, "quad_tol": spec.quad_tol,
                "root_tol": spec.root_tol, "gap_tol": spec.gap_tol,
            },
            "mode": mode,
        },
        "characteristic": None,
        "roots": {},
        "wronskian": None,
        "overall_pass": False,
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    cd = characteristic_data(spec.a, root_tol=spec.root_tol,
                             gap_tol=spec.gap_tol)
    report["characteristic"] = {
        "roots": [_num(x) for x in cd.lam],
        "min_gap": _num(cd.min_gap),
    }

    # checked in every mode: analyze mode solves nothing on the grid, but a t0
    # that the grid cannot resolve is out of reach of rho's grid too
    try:
        grid = picard.default_grid(cd, spec.t0, spec.nodes, spec.t_max)
    except ValueError as exc:  # a t0 too far out for doubles to grade the grid
        t_max = picard.default_t_max(cd, spec.t0) if spec.t_max is None else spec.t_max
        raise ValidationError(f"the run grid cannot resolve t0={spec.t0!r}, t_max="
                              f"{t_max!r} with nodes={spec.nodes}: {exc}") from exc
    r = spec.parsed_r()
    run = _RunShared(out_dir, grid, r, hypotheses.rho_bound(cd, roots, r, spec.t0))

    solutions = {}
    for i in roots:
        result, fs = _run_root(spec, cd, i, mode, run)
        report["roots"][str(i)] = result
        if fs is not None:
            solutions[i] = fs

    flags = [report["roots"][str(i)]["pass"] for i in roots]

    if len(solutions) == 4 and mode in ("report", "verify"):
        fss = [solutions[i] for i in (1, 2, 3, 4)]
        target = synthesis.vandermonde_target(cd)
        # one call: every max(1, nodes // 256)-th node for wronskian.csv, then t_max
        step = max(1, grid.nodes.size // 256)
        t_ref = grid.nodes[-1]
        series = synthesis.wronskian_normalized(fss, np.append(grid.nodes[::step], t_ref))
        w_norm = float(series[-1])
        rel = abs(w_norm - target) / abs(target)
        report["wronskian"] = {
            "normalized_at_tmax": _num(w_norm),
            "target": _num(target),
            "rel_error": _num(rel),
            "t": _num(t_ref),
        }
        flags.append(rel <= WRONSKIAN_REL_TOL)
        if out_dir and mode == "report":
            _write_csv(os.path.join(out_dir, "wronskian.csv"), ["t", "w_normalized"],
                       [run.node_text[::step], series[:-1]])

    report["overall_pass"] = all(flags)

    if out_dir:
        with open(os.path.join(out_dir, "report.json"), "w") as handle:
            json.dump(report, handle, indent=2)

    return report, (0 if report["overall_pass"] else 1)
