import csv
import importlib.util
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati4 import exprlang, hypotheses, oracle, picard, quadrature, riccati, synthesis
from riccati4 import report as report_module
from riccati4.greens import kernel_for_root
from riccati4.grid import GridFunction
from riccati4.errors import ValidationError
from riccati4.picard import default_grid
from riccati4.problem import ProblemSpec
from riccati4.report import _text, _write_csv, run_report
from riccati4.spectra import characteristic_data

EPS_SPEC = ProblemSpec(a3=0.0, a2=-5.0, a1=0.0, a0=4.0,
                       r0="0.001*exp(-t)", nodes=512)


@pytest.fixture(scope="module")
def eps_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep")
    report, code = run_report(EPS_SPEC, out_dir=str(out))
    return report, code, out


def test_overall_pass_and_exit_code(eps_report):
    report, code, _ = eps_report
    assert code == 0 and report["overall_pass"]


def test_schema_stability(eps_report):
    report, _, out = eps_report
    on_disk = json.loads((out / "report.json").read_text())
    assert set(on_disk) == {"problem", "characteristic", "roots", "wronskian",
                            "overall_pass"}
    expected_root_keys = {"lambda", "gamma", "case", "constants", "h2", "solve",
                          "certificates", "synthesis", "oracle", "status",
                          "error", "pass"}
    certificate_keys = {"beta", "envelope_ratio_max", "envelope_ok",
                        "first_iterate_ratio"}
    for payload in on_disk["roots"].values():
        assert set(payload) == expected_root_keys
        assert set(payload["certificates"]) == certificate_keys
    # every serialized number is finite or null
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert np.isfinite(node)
    walk(on_disk)


def test_report_details(eps_report):
    report, _, _ = eps_report
    for i in ("1", "2", "3", "4"):
        root = report["roots"][i]
        assert root["solve"]["orientation"] == "direct"
        assert root["solve"]["riccati_residual_max"] <= 1e-6
        assert root["h2"]["verdict"] == "PASS"
        # the envelope certifies the delivered z
        assert root["certificates"]["envelope_ok"] is True
    assert report["roots"]["1"]["constants"]["Phi"] == pytest.approx(20.2312, rel=1e-4)
    assert report["wronskian"]["rel_error"] <= 0.01


def test_wronskian_csv_written(eps_report):
    _, _, out = eps_report
    lines = (out / "wronskian.csv").read_text().splitlines()
    assert lines[0] == "t,w_normalized"
    assert len(lines) > 100


def test_root_subset_skips_wronskian(tmp_path):
    report, code = run_report(EPS_SPEC, roots=(1,), out_dir=str(tmp_path / "o"))
    assert code == 0
    assert report["wronskian"] is None
    assert list(report["roots"]) == ["1"]


def test_one_operator_per_root(monkeypatch):
    """The Picard solve, the envelope check and the first-iterate ratio of a
    root share one operator."""
    calls = []
    init = picard.IntegralOperator.__init__

    def counted(self, *args, **kwargs):
        calls.append(args[0].i)
        init(self, *args, **kwargs)

    monkeypatch.setattr(picard.IntegralOperator, "__init__", counted)
    report, _ = run_report(EPS_SPEC)
    assert report["overall_pass"]
    assert calls == [1, 2, 3, 4]


def test_beta_is_the_envelope_rate_on_its_side(monkeypatch):
    """certificates.beta is the rate at which the root's envelope transforms
    |Omega| on the side that beta governs: the head side, or the tail side
    for root 4, whose direct kernel has no head modes."""
    used = []  # {side: rate} of each envelope, in root order
    envelope = picard.envelope_integral

    def recorder(side, transform):
        def recorded(grid, f_gl, rate, *seed):
            used[-1][side] = rate
            return transform(grid, f_gl, rate, *seed)
        return recorded

    monkeypatch.setattr(picard, "envelope_integral", lambda op: used.append({}) or envelope(op))
    for side in ("head", "tail"):
        monkeypatch.setattr(picard, f"{side}_transform",
                            recorder(side, getattr(picard, f"{side}_transform")))
    report, _ = run_report(EPS_SPEC, mode="solve")
    assert [sorted(rates) for rates in used] == [["head"], ["head", "tail"],
                                                 ["head", "tail"], ["tail"]]
    for i, rates in zip("1234", used):
        assert report["roots"][i]["certificates"]["beta"] == rates["head" if i < "4" else "tail"]


def test_the_run_grid_is_sampled_once_per_root(monkeypatch):
    """Within a root, the coefficients are sampled on the run grid's
    Gauss-Legendre points once, when the operator is built, and z is read
    there only inside the operator's apply: synthesis reads log y and the
    asymptotic integral off the certificate's apply."""
    spec = replace(EPS_SPEC, nodes=2048)  # two blocks of panels
    grids, where, samples, reads = [], [], [], []
    default_grid, init, apply = (picard.default_grid, picard.IntegralOperator.__init__,
                                 picard.IntegralOperator.apply)
    sample, channels_on = riccati.sample_coefficients, GridFunction.channels_on

    def inside(name, fn):
        def wrapped(self, *args, **kwargs):
            where.append(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                where.pop()
        return wrapped

    def grid_of_run(*args, **kwargs):
        grids.append(default_grid(*args, **kwargs))
        return grids[-1]

    def counted_sample(sys, t):
        if grids and t is grids[0].gl_x:
            samples.append((sys.i, tuple(where)))
        return sample(sys, t)

    def counted_read(self, panels=slice(None)):
        reads.append(tuple(where))
        return channels_on(self, panels)

    monkeypatch.setattr(picard, "default_grid", grid_of_run)
    monkeypatch.setattr(picard.IntegralOperator, "__init__", inside("init", init))
    monkeypatch.setattr(picard.IntegralOperator, "apply", inside("apply", apply))
    monkeypatch.setattr(GridFunction, "channels_on", counted_read)
    for module in (riccati, picard, oracle, synthesis):
        if hasattr(module, "sample_coefficients"):
            monkeypatch.setattr(module, "sample_coefficients", counted_sample)
    report, _ = run_report(spec)
    assert report["overall_pass"] and len(grids) == 1
    assert samples == [(i, ("init",)) for i in (1, 2, 3, 4)]
    assert reads and all(w == ("apply",) for w in reads)


@pytest.mark.parametrize("mode", ["report", "solve"])
def test_synthesis_integrals_are_formed_once_per_root(monkeypatch, mode):
    """The fixed-point certificate's apply forms the panel integrals of log y
    and of the asymptotic correction once per root, also in solve mode,
    which stops before synthesis."""
    formed = []
    apply = picard.IntegralOperator.apply

    def counted_apply(self, z, integrals=False):
        if integrals:
            formed.append(self.sys.i)
        return apply(self, z, integrals)

    monkeypatch.setattr(picard.IntegralOperator, "apply", counted_apply)
    report, _ = run_report(EPS_SPEC, mode=mode)
    assert report["overall_pass"]
    assert formed == [1, 2, 3, 4]


@pytest.mark.parametrize("roots", [(0,), (1, 5), (1.7,), ()])
def test_bad_root_index_is_rejected_before_any_work(tmp_path, monkeypatch, roots):
    def unexpected(*args, **kwargs):
        raise AssertionError("the quartic was solved")

    monkeypatch.setattr(report_module, "characteristic_data", unexpected)
    out = tmp_path / "never"
    with pytest.raises(ValueError, match="root indices"):
        run_report(EPS_SPEC, roots=roots, out_dir=str(out))
    assert not out.exists()


def test_unknown_mode_is_rejected_before_any_work(tmp_path, monkeypatch):
    """A mode outside analyze, solve, verify and report would run every root
    and skip the Wronskian gate; it is refused before the quartic is solved."""
    def unexpected(*args, **kwargs):
        raise AssertionError("the quartic was solved")

    monkeypatch.setattr(report_module, "characteristic_data", unexpected)
    out = tmp_path / "never"
    with pytest.raises(ValueError, match="mode must be one of"):
        run_report(EPS_SPEC, out_dir=str(out), mode="reprot")
    assert not out.exists()


def test_ratios_are_computed_once_per_root(monkeypatch):
    """y^(l)/y is evaluated once per root, on the whole node array; the
    ratio limits, the ratios CSV, the oracle's initial state and the
    Wronskian read those arrays."""
    calls = []
    ratios = synthesis.log_derivative_ratios

    def counted(lam, *channels):
        calls.append(np.size(channels[0]))
        return ratios(lam, *channels)

    monkeypatch.setattr(synthesis, "log_derivative_ratios", counted)
    spec = _workloads().build_spec("standard", 0)
    report, _ = run_report(spec)
    assert report["overall_pass"]
    assert calls == [spec.nodes] * 4


_HARD_A = tuple(float(c) for c in np.poly([5.0, 1.0, -2.0, -6.0])[1:])


@pytest.mark.parametrize("a, r0, errors, rho", [
    # the transform of root 4 rises on the sample window; roots 1-3 settle
    ((0.0, -5.0, 0.0, 4.0), "0.001*sin(2*t)/(1+t)^3",
     {4: "TailNotConvergent: transform of '0.001*sin(2*t)/(1+t)^3' not settling "
         "on the sample window"}, {1: 1.41e-4, 2: 1.60e-4, 3: 1.68e-4}),
    (_HARD_A, "0.001*sin(t)*exp(-t)",
     {1: "TailNotConvergent: transform of '0.001*sin(t)*exp(-t)' not settling "
         "on the sample window"}, {}),
    ((0.0, -5.0, 0.0, 4.0), "0.001*log(t-1)",
     dict.fromkeys((1, 2, 3, 4), "DomainError: log of non-positive argument"), {}),
])
def test_a_failing_root_keeps_its_error_and_the_others_run_on(a, r0, errors, rho):
    """The run's one rho pass records each root's first failure, and each
    root raises its own inside its own run, so a failing root ends with its
    status and error and the other roots are analyzed."""
    report, code = run_report(ProblemSpec(*a, r0=r0), mode="analyze")
    assert code == 1
    for i in (1, 2, 3, 4):
        root = report["roots"][str(i)]
        if i in errors:
            assert (root["status"], root["error"], root["pass"]) == ("error", errors[i], False)
            assert root["constants"] is None
        else:
            assert (root["status"], root["error"]) == ("analyzed", None)
    for i, value in rho.items():
        assert report["roots"][str(i)]["constants"]["rho"] == pytest.approx(value, abs=5e-7)


def _rho_grid_work(monkeypatch):
    """Lists of the FunctionExpr evaluations on rho_bound's grid, of the
    first-block panel_weights formations (rate, head) on it and of the
    (name, stack shape) of each head_transform or tail_transform call, by the
    names that hypotheses binds, on a stack of forcings on it."""
    grids, evals, weights, stacks = [], [], [], []
    rho_bound, make_panels = hypotheses.rho_bound, hypotheses.make_panels
    call, panel_weights = exprlang.FunctionExpr.__call__, quadrature.panel_weights
    inside = []

    def traced_rho(*args, **kwargs):
        inside.append(True)
        try:
            return rho_bound(*args, **kwargs)
        finally:
            inside.pop()

    def kept(nodes, *order):
        grid = make_panels(nodes, *order)
        if inside:
            grids.append(grid)
        return grid

    def counted_call(self, t):
        if any(t is grid.gl_x for grid in grids):
            evals.append(self.source)
        return call(self, t)

    def counted_weights(grid, rate, head, panels=slice(None)):
        if any(grid is g for g in grids) and panels.start in (0, None):
            weights.append((rate, head))
        return panel_weights(grid, rate, head, panels)

    def stacked(name):
        transform = getattr(hypotheses, name)

        def traced(grid, f_gl, *args):
            if np.ndim(f_gl) == 3 and any(grid is g for g in grids):
                stacks.append((name, np.shape(f_gl)))
            return transform(grid, f_gl, *args)
        return traced

    monkeypatch.setattr(hypotheses, "rho_bound", traced_rho)
    monkeypatch.setattr(hypotheses, "make_panels", kept)
    monkeypatch.setattr(exprlang.FunctionExpr, "__call__", counted_call)
    monkeypatch.setattr(quadrature, "panel_weights", counted_weights)
    for name in ("head_transform", "tail_transform"):
        monkeypatch.setattr(hypotheses, name, stacked(name))
    return grids, evals, weights, stacks


@pytest.fixture
def hard_rho_work(monkeypatch):
    """(rho grids, evaluations on them, weight formations on them, stacked
    transform calls) of one analyze run of the hard workload, whose four
    perturbations are active."""
    grids, evals, weights, stacks = _rho_grid_work(monkeypatch)
    spec = _workloads().build_spec("hard", 0)
    report, _ = run_report(spec, mode="analyze")
    assert all(root["status"] == "analyzed" for root in report["roots"].values())
    return spec, grids, evals, weights, stacks


def test_rho_samples_each_perturbation_once_per_run(hard_rho_work):
    """The run builds one rho grid and evaluates each r_j on it once."""
    spec, grids, evals, *_ = hard_rho_work
    assert evals == list(spec.r)
    assert len(grids) == 1


def test_rho_forms_the_weights_of_each_rate_once_per_run(hard_rho_work):
    """The panel weights of each of the six (rate, side) pairs of the four
    roots are formed once, for all four perturbations."""
    weights = hard_rho_work[3]
    assert len(weights) == len(set(weights)) == 6


def test_rho_runs_each_side_of_each_root_on_the_transform_engine(hard_rho_work):
    """Each of the six (rate, side) pairs is one head_transform or
    tail_transform call on the stack of all four perturbations, so the
    engine's own functions do rho's work."""
    (grid,), stacks = hard_rho_work[1], hard_rho_work[4]
    shape = (4, *grid.gl_x.shape)
    assert sorted(stacks) == [("head_transform", shape)] * 3 + [("tail_transform", shape)] * 3


@pytest.fixture
def hard_h2_work(monkeypatch):
    """(spec, {root: (its H2 grids, the FunctionExpr evaluations on them, the
    (name, forcing shape, rate) of each head_transform or tail_transform call
    on them)}) of one analyze run of the hard workload."""
    check_h2, make_panels = hypotheses.check_h2, hypotheses.make_panels
    call = exprlang.FunctionExpr.__call__
    work, inside = {}, []

    def traced_h2(cd, i, *args, **kwargs):
        inside.append(work.setdefault(i, ([], [], [])))
        try:
            return check_h2(cd, i, *args, **kwargs)
        finally:
            inside.pop()

    def kept(nodes, *order):
        grid = make_panels(nodes, *order)
        if inside:
            inside[-1][0].append(grid)
        return grid

    def on_h2_grid(t):
        return bool(inside) and any(t is grid.gl_x for grid in inside[-1][0])

    def counted_call(self, t):
        if on_h2_grid(t):
            inside[-1][1].append(self.source)
        return call(self, t)

    def recorded(name):
        transform = getattr(hypotheses, name)

        def traced(grid, f_gl, rate, *args):
            if on_h2_grid(grid.gl_x):
                inside[-1][2].append((name, np.shape(f_gl), rate))
            return transform(grid, f_gl, rate, *args)
        return traced

    monkeypatch.setattr(hypotheses, "check_h2", traced_h2)
    monkeypatch.setattr(hypotheses, "make_panels", kept)
    monkeypatch.setattr(exprlang.FunctionExpr, "__call__", counted_call)
    for name in ("head_transform", "tail_transform"):
        monkeypatch.setattr(hypotheses, name, recorded(name))
    spec = _workloads().build_spec("hard", 0)
    report, _ = run_report(spec, mode="analyze")
    assert all(root["status"] == "analyzed" for root in report["roots"].values())
    return spec, work


def test_h2_runs_each_kernel_mode_once_on_the_stack_of_perturbations(hard_h2_work):
    """Each root's check_h2 samples each r_j once on its one grid and makes
    one head_transform or tail_transform call per kernel mode, each on the
    stack of all four perturbations: 12 calls per run."""
    spec, work = hard_h2_work
    cd = characteristic_data(spec.a, root_tol=spec.root_tol, gap_tol=spec.gap_tol)
    assert sorted(work) == [1, 2, 3, 4]
    for i, (grids, evals, calls) in work.items():
        (grid,) = grids
        assert evals == list(spec.r)
        modes = kernel_for_root(cd, i).modes("adjoint")
        shape = (4, *grid.gl_x.shape)
        assert calls == ([("head_transform", shape, m.rate) for m in modes.head]
                         + [("tail_transform", shape, m.rate) for m in modes.tail])
    assert sum(len(calls) for *_, calls in work.values()) == 12


def test_a_single_root_run_gives_that_root_the_entry_of_the_full_run():
    spec = _workloads().build_spec("hard", 0)
    full, _ = run_report(spec)
    alone, _ = run_report(spec, roots=(3,))
    assert list(alone["roots"]) == ["3"]
    assert alone["roots"]["3"] == full["roots"]["3"]
    assert alone["roots"]["3"]["status"] == "ok"


@pytest.mark.parametrize("t0, reason", [
    (1e12, "Gauss-Legendre nodes outside their panels"),
    (1e15, "nodes must be a strictly increasing 1-D array"),
])
def test_t0_the_run_grid_cannot_resolve_is_a_validation_error(t0, reason):
    """validate() accepts these t0, but the graded run grid collapses in
    floating point so far from 0: an input error that names the grid."""
    spec = replace(EPS_SPEC, t0=t0, nodes=256).validate()
    with pytest.raises(ValidationError) as err:
        run_report(spec, mode="report")
    message = str(err.value)
    assert f"t0={t0!r}" in message and "t_max=" in message and "nodes=256" in message
    assert reason in message


@pytest.mark.parametrize("t0", [1e17, 1e20])
def test_analyze_mode_checks_the_run_grid(t0):
    """Analyze mode solves nothing on the run grid, but it refuses a t0 that
    the grid cannot resolve as the other modes do, before rho's grid meets
    it."""
    spec = ProblemSpec(0.0, -5.0, 0.0, 4.0, r0="0.001", t0=t0).validate()
    with pytest.raises(ValidationError) as err:
        run_report(spec, mode="analyze")
    assert str(err.value).startswith(f"the run grid cannot resolve t0={t0!r}, t_max=")


# floats whose text is easy to get wrong: specials, signed zero, the smallest
# subnormal, both sides of repr's switches to exponent form (1e-4, 1e16) and
# of orjson's (1e-5), the largest double
AWKWARD = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e-05,
           0.0001, 1e16, 1e15, 1.7976931348623157e+308, 0.1,
           9.999999999999999e-05, 1.0000001e-05, 9.99e-06, -2e-05,
           9999999999999998.0]


def test_csv_writer_bytes_match_csv_module(tmp_path):
    # more rows than one write block, so block joins are covered
    values = np.tile(np.array(AWKWARD), 250)
    counts = list(range(1, values.size + 1))
    header = ["iter", "x", "x_text"]
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(header)
    writer.writerows(zip(counts, values, values))
    path = tmp_path / "series.csv"
    # an int text column, a float array and the same floats as text
    _write_csv(path, header, [[str(n) for n in counts], values, _text(values)])
    assert path.read_bytes() == reference.getvalue().encode()


# doubles at every decimal exponent from -12 to 20, so that each of the
# layout switches gets draws on both sides
_SCALED = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0),
                    st.integers(-12, 20))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=32),
       st.lists(st.one_of(st.floats(), _SCALED), max_size=32),
       st.integers(1, 3))
def test_text_equals_repr(bits, floats, stride):
    """Any 64-bit pattern viewed as a double, and any float, formats as repr
    formats it, in empty, contiguous and strided arrays."""
    x = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64),
                        np.array(floats, dtype=np.float64)])
    assert _text(x) == [repr(v) for v in x.tolist()]
    assert _text(x[::stride]) == [repr(v) for v in x[::stride].tolist()]
    assert _text(x[::-1]) == [repr(v) for v in x[::-1].tolist()]


def _columns(path):
    """{header: column text} of a CSV file written by run_report."""
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[-1] == ""            # the last line ends in CRLF too
    rows = [line.split(",") for line in lines[1:-1]]
    return dict(zip(lines[0].split(","), zip(*rows)))


@pytest.fixture(scope="module")
def traced_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    report, _ = run_report(replace(EPS_SPEC, trace=True), out_dir=str(out))
    return report, out


def test_run_files_share_one_node_column(traced_report):
    report, out = traced_report
    grid = default_grid(characteristic_data(EPS_SPEC.a), EPS_SPEC.t0, EPS_SPEC.nodes)
    for path in out.glob("*.csv"):
        data = path.read_bytes()
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")
    t = _columns(out / "z_root1.csv")["t"]
    # every double of the grid reads back exactly
    assert [float(x) for x in t] == grid.nodes.tolist()
    for i in (1, 2, 3, 4):
        assert _columns(out / f"z_root{i}.csv")["t"] == t
        assert _columns(out / f"ratios_root{i}.csv")["t"] == t
    step = max(1, grid.nodes.size // 256)
    assert _columns(out / "wronskian.csv")["t"] == t[::step]

    trace = _columns(out / "trace_root1.csv")
    n_iter = report["roots"]["1"]["solve"]["n_iter"]
    assert len(trace["iter"]) == n_iter * grid.nodes.size
    assert trace["iter"] == tuple(str(n) for n in range(1, n_iter + 1)
                                  for _ in range(grid.nodes.size))
    assert trace["t"] == t * n_iter


def _workloads():
    """perfbench/workloads.py, the benchmark's problem builder (read-only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wronskian_rows_are_dets_of_the_printed_ratios(tmp_path):
    """Each wronskian.csv row is, bit for bit, the det of the 4x4 matrix
    rebuilt from the ratios_root{i}.csv rows at that t (standard workload,
    seed 0), and normalized_at_tmax is the det at the last node."""
    report, _ = run_report(_workloads().build_spec("standard", 0), out_dir=str(tmp_path))
    ratios = [_columns(tmp_path / f"ratios_root{i}.csv") for i in (1, 2, 3, 4)]
    row_of = {t: k for k, t in enumerate(ratios[0]["t"])}

    def det_at(k):
        rows = [[1.0] * 4] + [[float(r[name][k]) for r in ratios]
                              for name in ("y1_over_y", "y2_over_y", "y3_over_y")]
        return float(np.linalg.det(np.array(rows)))

    wronskian = _columns(tmp_path / "wronskian.csv")
    assert len(wronskian["t"]) == 256
    differ = [t for t, w in zip(wronskian["t"], wronskian["w_normalized"])
              if w != repr(det_at(row_of[t]))]
    assert differ == []
    assert report["wronskian"]["normalized_at_tmax"] == det_at(len(row_of) - 1)


def test_every_float_field_is_its_repr(traced_report):
    """Every float field the run writes reads back to a double whose repr
    it is, across all series, including values in 1e-5 <= |x| < 1e-4."""
    _, out = traced_report
    in_band = 0
    for path in sorted(out.glob("*.csv")):
        for name, column in _columns(path).items():
            if name == "iter":
                continue
            for field in column:
                assert field == repr(float(field)), (path.name, name, field)
            in_band += sum(1e-5 <= abs(float(f)) < 1e-4 for f in column)
    assert in_band > 0
