"""Properties of run_report over drawn problems (ROADMAP item 5): the report
keeps its shape, serializes as strict JSON and agrees with its exit code,
and nothing but a SolverError leaves it."""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccati4 import errors
from riccati4.errors import SolverError
from riccati4.problem import ProblemSpec
from riccati4.report import _root_keys, run_report

STANDARD = (0.0, -5.0, 0.0, 4.0)


@st.composite
def spectra(draw):
    """(a3, a2, a1, a0) of four roots on the integer lattice, each moved by
    at most 0.3, so no two lie closer than 0.4."""
    lattice = draw(st.lists(st.integers(-5, 5), min_size=4, max_size=4, unique=True))
    shifts = draw(st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4))
    roots = [k + round(s, 3) for k, s in zip(lattice, shifts)]
    return tuple(float(c) for c in np.poly(roots)[1:])


_AMPLITUDE = st.floats(-0.003, 0.003).map(lambda a: round(a, 5))
_PERTURBATION = st.one_of(
    st.builds(lambda a, k: f"{a!r}*exp(-{k!r}*t)", _AMPLITUDE,
              st.floats(0.05, 2.0).map(lambda k: round(k, 3))),
    st.builds(lambda a: f"{a!r}/(1+t)^2", _AMPLITUDE),
    st.builds(lambda a: f"{a!r}*sin(t)/(1+t^2)", _AMPLITUDE),
    st.just("0"),
)


@settings(max_examples=25, deadline=None)
@given(a=spectra(), r=st.tuples(*[_PERTURBATION] * 4),
       nodes=st.sampled_from([256, 384]), t0=st.just(0.0))
@example(a=STANDARD, r=("0.001*sin(t)/(1+t^2)", "0", "0", "0"), nodes=256, t0=0.0)
@example(a=STANDARD, r=("0.001*exp(-0.05*t)", "0", "0", "0"), nodes=256, t0=0.0)
@example(a=STANDARD, r=("0.001*exp(-t)", "0", "0", "0"), nodes=256, t0=1e12)
def test_report_invariants(a, r, nodes, t0):
    spec = ProblemSpec(*a, *r, t0=t0, nodes=nodes)
    try:
        report, code = run_report(spec.validate(), mode="report")
    except SolverError:
        return
    json.dumps(report, allow_nan=False)
    assert code == (0 if report["overall_pass"] else 1)
    for root in report["roots"].values():
        assert set(root) == set(_root_keys())
        if root["status"] == "error":
            name = root["error"].split(":", 1)[0]
            assert issubclass(getattr(errors, name), SolverError), root["error"]
