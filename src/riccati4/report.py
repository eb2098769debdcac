"""Pipeline orchestration and report generation.

One run executes, per requested root index in turn: the hypothesis checks
and contraction constants, the Picard solve with the direct (dichotomy)
kernel, residual-certified, the envelope and first-iterate certificates of
that same fixed point, synthesis of the fundamental solution, and oracle
cross-validation.  Every stage of every root works on the run's one panel
grid (``picard.default_grid``), built once per run.  Results land in a
schema-stable report.json plus CSV series; the exit code is 0 only when
every requested check passes.

The CSV writer formats each float once, as the shortest round-trip repr of
its value, block by block of rows; the node column is formatted once per run
and its text shared by every file.  Rows are comma-separated with CRLF line
ends and no quoting: the bytes csv.writer's excel dialect writes for the
same numbers.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import hypotheses, oracle, picard, synthesis
from .errors import SolverError
from .problem import ProblemSpec
from .quadrature import PanelGrid
from .riccati import build_system, residual_profile
from .spectra import characteristic_data

RESIDUAL_TOL = 1e-6
RATIO_TOL = 1e-4
ORACLE_Y_TOL = 1e-4
ORACLE_LOGDERIV_TOL = 1e-3
WRONSKIAN_REL_TOL = 0.01


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


def _default_beta(sys):
    """The gap end of the admissible beta interval."""
    lo, hi = picard.beta_interval(sys)
    return lo or hi


def _text(array):
    """A float array as the repr strings of its values."""
    return list(map(repr, array.tolist()))


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
    no files) and the panel grid (None in analyze mode)."""

    out_dir: str | None
    grid: PanelGrid | None

    @functools.cached_property
    def node_text(self):
        """The grid nodes as CSV text, formatted on the first write."""
        return _text(self.grid.nodes)


def _run_root(spec: ProblemSpec, cd, i, mode, run: _RunShared):
    out_dir, grid = run.out_dir, run.grid
    result = _root_keys()
    sys = build_system(cd, spec.parsed_r(), i)
    result["lambda"] = _num(sys.lam)
    result["gamma"] = [_num(g) for g in sys.kernel.gamma]
    result["case"] = sys.kernel.case.value
    checks = []

    try:
        env = hypotheses.envelope_report(cd, i, sys.r, spec.eta, t0=spec.t0)
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
        z, trace = picard.iterate_to_fixed_point(
            sys, grid, fp_tol=spec.fp_tol, max_iter=spec.max_iter,
            eta=spec.eta, quad_tol=spec.quad_tol, snapshot=collect,
        )
        residual_max = float(np.max(np.abs(residual_profile(sys, z))))
        result["solve"] = {
            "orientation": trace.orientation,
            "converged": trace.converged,
            "n_iter": trace.n_iter,
            "deltas": [_num(d) for d in trace.deltas],
            "contraction": [_num(c) for c in trace.contraction],
            "certificate": _num(trace.certificate),
            "riccati_residual_max": _num(residual_max),
            "z_norm": _num(z.norm_c02()),
        }
        checks.append(trace.converged)
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
        # like the kernel that produced it
        beta = _default_beta(sys)
        certs = {"beta": _num(beta), "envelope_ratio_max": None,
                 "envelope_ok": None, "first_iterate_ratio": None}
        envelope = None
        if env.Phi is not None:
            ok, ratio, envelope = picard.envelope_check(
                sys, z, beta, env.Phi, quad_tol=spec.quad_tol,
                orientation=trace.orientation,
            )
            certs["envelope_ratio_max"] = _num(ratio)
            certs["envelope_ok"] = ok
            checks.append(ok)
        certs["first_iterate_ratio"] = _num(picard.first_iterate_ratio(
            sys, grid, env.A, beta, orientation=trace.orientation,
            quad_tol=spec.quad_tol, envelope=envelope,
        ))
        result["certificates"] = certs

        if mode == "solve":
            result["status"] = "solved"
            result["pass"] = all(checks)
            return result, None

        fs = synthesis.fundamental_solution(sys, z, cd)
        errors, verdict = synthesis.derivative_ratio_limits(fs, ratio_tol=RATIO_TOL)
        _, gap = synthesis.asymptotic_integral_formula(fs, sys)
        result["synthesis"] = {
            "ratio_errors_at_tmax": [_num(errors[l, -1]) for l in range(4)],
            "ratio_verdict": verdict,
            "asymptotic_gap_first": _num(gap[1]),
            "asymptotic_gap_last": _num(gap[-1]),
        }
        checks.append(verdict == "PASS")

        if out_dir and mode == "report":
            log_y = np.clip(fs.log_y, -700.0, 700.0)
            ratios = fs.ratios()
            _write_csv(
                os.path.join(out_dir, f"ratios_root{i}.csv"),
                ["t", "y", "y1_over_y", "y2_over_y", "y3_over_y", "y4_over_y"],
                [run.node_text, np.exp(log_y), *ratios],
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
    if any(not isinstance(i, numbers.Integral) or i not in (1, 2, 3, 4) for i in roots):
        raise ValueError("root indices must be integers within 1..4")
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

    grid = (None if mode == "analyze"
            else picard.default_grid(cd, spec.t0, spec.nodes, spec.t_max))
    run = _RunShared(out_dir, grid)

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
        t_ref = solutions[1].nodes[-1]
        w_norm = synthesis.wronskian_normalized(fss, t_ref)
        rel = abs(w_norm - target) / abs(target)
        report["wronskian"] = {
            "normalized_at_tmax": _num(w_norm),
            "target": _num(target),
            "rel_error": _num(rel),
            "t": _num(t_ref),
        }
        flags.append(rel <= WRONSKIAN_REL_TOL)
        if out_dir and mode == "report":
            step = max(1, grid.nodes.size // 256)
            _write_csv(
                os.path.join(out_dir, "wronskian.csv"),
                ["t", "w_normalized"],
                [run.node_text[::step],
                 np.array([synthesis.wronskian_normalized(fss, t)
                           for t in grid.nodes[::step]])],
            )

    report["overall_pass"] = bool(flags) and all(flags)

    if out_dir:
        with open(os.path.join(out_dir, "report.json"), "w") as handle:
            json.dump(report, handle, indent=2)

    return report, (0 if report["overall_pass"] else 1)
