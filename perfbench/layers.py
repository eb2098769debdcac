"""Which library functions form each traced layer, and the per-layer
metrics derived from one traced `run_report` call.

Span names are "<layer>.<function>".  spectra, greens and problem are not
wrapped: they run in microseconds per call and are covered by setup_s.
synthesis.wronskian_normalized and vandermonde_target are not wrapped
either, so the Wronskian table stays in report.self_s.
"""

from __future__ import annotations

import numpy as np

from riccati4 import (exprlang, greens, hypotheses, oracle, picard, quadrature,
                      report, riccati, synthesis)
import riccati4

# modules and classes whose attributes are patched (by-name imports included)
PATCHED_OWNERS = (riccati4, exprlang, exprlang.FunctionExpr, greens,
                  hypotheses, oracle, picard, picard.IntegralOperator,
                  quadrature, report, riccati, synthesis)

_PANELS = lambda args, kwargs, result: args[0].nodes.size - 1
_POINTS = lambda args, kwargs, result: np.size(args[1])
_ITERATIONS = lambda args, kwargs, result: result[1].n_iter


def _solve_name(args, kwargs):
    orientation = kwargs.get("orientation", args[5] if len(args) > 5 else None)
    return "picard.adjoint" if orientation == "adjoint" else "picard.solve"


def _rhs_factory(tracer, factory):
    def make_rhs(*args, **kwargs):
        return tracer.wrap("oracle.rhs", factory(*args, **kwargs))
    make_rhs.__wrapped__ = factory
    return make_rhs


def trace_targets(tracer):
    """{original function: traced wrapper} for every traced function."""
    plain = {
        exprlang.FunctionExpr.__call__: ("exprlang.eval", _POINTS),
        hypotheses.F_operator_eval: ("hypotheses.F_operator_eval", None),
        hypotheses.rho_bound: ("hypotheses.rho_bound", None),
        hypotheses.check_h2: ("hypotheses.check_h2", None),
        hypotheses.contraction_constants: ("hypotheses.contraction_constants", None),
        hypotheses.alpha_displayed: ("hypotheses.alpha_displayed", None),
        hypotheses.kernel_route_A: ("hypotheses.kernel_route_A", None),
        hypotheses.smallness_check: ("hypotheses.smallness_check", None),
        hypotheses.envelope_report: ("hypotheses.envelope_report", None),
        quadrature.adaptive_interval: ("quadrature.adaptive_interval", None),
        quadrature.adaptive_semi_infinite: ("quadrature.adaptive_semi_infinite", None),
        quadrature.head_transform: ("quadrature.head_transform", _PANELS),
        quadrature.tail_transform: ("quadrature.tail_transform", _PANELS),
        quadrature.exponential_tail_seed: ("quadrature.exponential_tail_seed", None),
        quadrature.make_panels: ("quadrature.make_panels", None),
        quadrature.cumulative_integral: ("quadrature.cumulative_integral", None),
        quadrature.graded_nodes: ("quadrature.graded_nodes", None),
        riccati.build_system: ("riccati.build_system", None),
        riccati.eval_F: ("riccati.eval_F", None),
        riccati.residual_profile: ("riccati.residual_profile", None),
        picard.IntegralOperator.apply: ("picard.T", None),
        picard.IntegralOperator.apply_forcing: ("picard.T", None),
        picard.resolve_orientation: ("picard.resolve_orientation", None),
        picard.default_grid: ("picard.default_grid", None),
        picard.beta_interval: ("picard.beta_interval", None),
        picard.envelope_integral: ("picard.envelope_integral", None),
        picard.envelope_check: ("picard.envelope_check", None),
        picard.first_iterate_ratio: ("picard.first_iterate_ratio", None),
        synthesis.fundamental_solution: ("synthesis.fundamental_solution", None),
        synthesis.derivative_ratio_limits: ("synthesis.derivative_ratio_limits", None),
        synthesis.asymptotic_integral_formula: ("synthesis.asymptotic_integral_formula", None),
        synthesis.double_integral_identity_residual: (
            "synthesis.double_integral_identity_residual", None),
        oracle.cross_validate: ("oracle.cross_validate", None),
        oracle.integrate_linear4: ("oracle.integrate_linear4", None),
        oracle.integrate_riccati: ("oracle.integrate_riccati", None),
        report._run_root: ("report.run_root", None),
    }
    targets = {fn: tracer.wrap(name, fn, count=count)
               for fn, (name, count) in plain.items()}
    targets[picard.iterate_to_fixed_point] = tracer.wrap(
        "picard.solve", picard.iterate_to_fixed_point, count=_ITERATIONS,
        name_of=_solve_name)
    targets[report.run_report] = tracer.wrap(
        "report.run_report", report.run_report, top_level=True)
    targets[oracle.linear4_rhs] = _rhs_factory(tracer, oracle.linear4_rhs)
    targets[oracle.riccati_rhs] = _rhs_factory(tracer, oracle.riccati_rhs)
    return targets


# --- metrics of one traced call -----------------------------------------------

# per-layer metric name -> unit, as declared in BENCHMARK.json
UNITS = {
    "exprlang.evals": "count", "exprlang.points": "count", "exprlang.busy_s": "s",
    "hypotheses.rho_bound_s": "s", "hypotheses.check_h2_s": "s",
    "hypotheses.busy_s": "s",
    "quadrature.adaptive_calls": "count", "quadrature.adaptive_busy_s": "s",
    "quadrature.transform_calls": "count", "quadrature.panels": "count",
    "quadrature.transform_busy_s": "s",
    "riccati.eval_F_calls": "count", "riccati.eval_F_busy_s": "s",
    "riccati.residual_s": "s",
    "picard.iterations": "count", "picard.solve_s": "s", "picard.busy_s": "s",
    "picard.adjoint_s": "s", "picard.probe_s": "s", "picard.envelope_s": "s",
    "picard.T_applies": "count", "picard.useful_frac": "ratio",
    "synthesis.stage_s": "s",
    "oracle.stage_s": "s", "oracle.rhs_calls": "count", "oracle.busy_s": "s",
    "report.self_s": "s", "report.wait_s": "s", "report.cpu_per_wall": "ratio",
}

_ADAPTIVE = {"quadrature.adaptive_interval", "quadrature.adaptive_semi_infinite"}
_TRANSFORMS = {"quadrature.head_transform", "quadrature.tail_transform"}


def _union_length(intervals):
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_walls(spans):
    """{span id: self wall time} for the spans of one call.

    Spans nested on one thread already carry their self time; the top-level
    span (whose children run on pool threads) gets its wall time minus the
    union of its children's intervals.
    """
    out = {s.span_id: s.self_s for s in spans}
    for top in (s for s in spans if s.parent_id is None):
        children = [(c.start, c.end) for c in spans if c.parent_id == top.span_id]
        out[top.span_id] = top.wall_s - _union_length(children)
    return out


def root_balance(spans):
    """Largest |sum of subtree self times - span wall| over run_root spans."""
    kids = {}
    for s in spans:
        kids.setdefault(s.parent_id, []).append(s)
    worst = 0.0
    for root in (s for s in spans if s.name == "report.run_root"):
        total, todo = 0.0, [root]
        while todo:
            span = todo.pop()
            total += span.self_s
            todo.extend(kids.get(span.span_id, ()))
        worst = max(worst, abs(total - root.wall_s))
    return worst


def _has_ancestor(span, by_id, name):
    parent = by_id.get(span.parent_id)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent_id)
    return False


def call_metrics(spans):
    """Per-layer metrics of the spans of one traced run_report call."""
    own = self_walls(spans)
    by_id = {s.span_id: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pick(names):
        """Spans named in the set `names`, or starting with the string."""
        if isinstance(names, str):
            names = [n for n in by_name if n.startswith(names)]
        return [s for n in names for s in by_name.get(n, ())]

    def busy(names):
        return sum(s.self_busy_s for s in pick(names))

    def wall(names):
        return sum(s.wall_s for s in pick(names))

    def counted(names):
        return sum(s.count for s in pick(names))

    top = next(s for s in spans if s.name == "report.run_report")
    applies = pick({"picard.T"})
    useful = sum(_has_ancestor(s, by_id, "picard.solve") for s in applies)
    synthesis_stage = [s for s in pick("synthesis.")
                       if by_id.get(s.parent_id) is not None
                       and by_id[s.parent_id].name == "report.run_root"]
    wall_self = sum(own.values())
    busy_self = sum(s.self_busy_s for s in spans)
    return {
        "exprlang.evals": len(pick({"exprlang.eval"})),
        "exprlang.points": counted({"exprlang.eval"}),
        "exprlang.busy_s": busy("exprlang."),
        "hypotheses.rho_bound_s": wall({"hypotheses.rho_bound"}),
        "hypotheses.check_h2_s": wall({"hypotheses.check_h2"}),
        "hypotheses.busy_s": busy("hypotheses."),
        "quadrature.adaptive_calls": len(pick(_ADAPTIVE)),
        "quadrature.adaptive_busy_s": busy(_ADAPTIVE),
        "quadrature.transform_calls": len(pick(_TRANSFORMS)),
        "quadrature.panels": counted(_TRANSFORMS),
        "quadrature.transform_busy_s": busy("quadrature.") - busy(_ADAPTIVE),
        "riccati.eval_F_calls": len(pick({"riccati.eval_F"})),
        "riccati.eval_F_busy_s": busy({"riccati.eval_F"}),
        "riccati.residual_s": wall({"riccati.residual_profile"}),
        "picard.iterations": counted({"picard.solve", "picard.adjoint"}),
        "picard.solve_s": wall({"picard.solve"}),
        "picard.busy_s": busy("picard."),
        "picard.adjoint_s": wall({"picard.adjoint"}),
        "picard.probe_s": wall({"picard.resolve_orientation"}),
        "picard.envelope_s": wall({"picard.envelope_check",
                                   "picard.first_iterate_ratio"}),
        "picard.T_applies": len(applies),
        "picard.useful_frac": useful / len(applies) if applies else 0.0,
        "synthesis.stage_s": sum(s.wall_s for s in synthesis_stage),
        "oracle.stage_s": wall({"oracle.cross_validate"}),
        "oracle.rhs_calls": len(pick({"oracle.rhs"})),
        "oracle.busy_s": busy("oracle."),
        "report.self_s": sum(own[s.span_id] for s in pick("report.")),
        "report.wait_s": wall_self - busy_self,
        "report.cpu_per_wall": busy_self / top.wall_s,
    }


def layer_shares(spans):
    """{layer: share of the summed self busy time}.  Busy rather than wall
    time, because pool threads waiting for the interpreter lock would
    otherwise charge the wait to whichever span they have open."""
    totals = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + s.self_busy_s
    grand = sum(totals.values())
    return {layer: value / grand for layer, value in sorted(totals.items())}
