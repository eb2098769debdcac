import math

import numpy as np
import pytest

from riccati4.errors import ValidationError
from riccati4.problem import (
    ProblemSpec,
    biharmonic_k_constants,
    biharmonic_preset,
    biharmonic_roots,
    dump_problem_spec,
    load_problem_spec,
)
from riccati4.spectra import characteristic_data


def write(tmp_path, text):
    path = tmp_path / "problem.ini"
    path.write_text(text)
    return path


def test_minimal_file_fills_defaults(tmp_path):
    spec = load_problem_spec(write(tmp_path, """
[equation]
a3 = 0
a2 = -5
a1 = 0
a0 = 4
"""))
    assert spec.r == ("0", "0", "0", "0")
    assert spec.t0 == 0.0
    assert spec.eta == 0.25
    assert spec.nodes == 2048


def test_eta_out_of_range(tmp_path):
    with pytest.raises(ValidationError, match=r"eta must lie in \(0,0.5\)"):
        load_problem_spec(write(tmp_path, """
[equation]
a3 = 0
a2 = -5
a1 = 0
a0 = 4

[solver]
eta = 0.7
"""))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValidationError, match="bogus"):
        load_problem_spec(write(tmp_path, """
[equation]
a3 = 0
bogus = 1
"""))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValidationError, match="extras"):
        load_problem_spec(write(tmp_path, "[extras]\nx = 1\n"))


def test_bad_expression_rejected(tmp_path):
    with pytest.raises(ValidationError, match="r0"):
        load_problem_spec(write(tmp_path, """
[equation]
a3 = 0
a2 = -5
a1 = 0
a0 = 4
r0 = exp(
"""))


@pytest.mark.parametrize("key, lines", [("r0", "r0 = 50%"),
                                        ("nodes", "[domain]\nnodes = %(x)s")])
def test_percent_in_a_value_reaches_validation(tmp_path, key, lines):
    # no interpolation: '%' is an ordinary character of the value
    with pytest.raises(ValidationError, match=key):
        load_problem_spec(write(tmp_path, f"[equation]\na2 = -5\na0 = 4\n{lines}\n"))


def test_non_finite_literal_rejected():
    with pytest.raises(ValidationError, match="r0: bad number literal"):
        ProblemSpec(r0="1e999").validate()


def test_nodes_floor():
    with pytest.raises(ValidationError, match="nodes"):
        ProblemSpec(nodes=32).validate()


@pytest.mark.parametrize("spec", [
    ProblemSpec(a3=0.8, a2=-9.76, a1=-3.968, a0=8.6016,
                r0="0.001*exp(-t)", nodes=512),
    # every INI field away from its default
    ProblemSpec(a3=0.8, a2=-9.76, a1=-3.968, a0=8.6016,
                r0="0.001*exp(-t)", r1="-0.002*exp(-2*t)", r2="1e-4/(1+t)^3",
                r3="0.003*sin(t)*exp(-t)", t0=0.5, t_max=31.25, nodes=300,
                eta=0.125, fp_tol=3e-11, quad_tol=2e-13, root_tol=5e-11,
                gap_tol=2e-9, max_iter=17),
], ids=["equation", "every_field"])
def test_dump_round_trip(tmp_path, spec):
    path = tmp_path / "dumped.ini"
    path.write_text(dump_problem_spec(spec))
    again = load_problem_spec(path)
    assert again == spec


def test_biharmonic_root_display():
    lam = biharmonic_roots(6, 6.0)
    assert lam == pytest.approx((2.8, 0.8, -1.2, -3.2), abs=1e-14)


def test_biharmonic_preset_consistency():
    spec = biharmonic_preset(6, 6.0)
    cd = characteristic_data(spec.a)
    assert np.allclose(cd.lam, (2.8, 0.8, -1.2, -3.2), atol=1e-12)
    # a3 = -sum of roots, and matches the displayed K3
    assert spec.a3 == pytest.approx(-sum(cd.lam), abs=1e-12)
    k0, k1, k2, k3 = biharmonic_k_constants(6, 6.0)
    assert spec.a3 == pytest.approx(k3, abs=1e-12)
    assert spec.a2 == pytest.approx(k2, abs=1e-12)
    assert spec.a0 == pytest.approx(k0, abs=1e-12)
    # the displayed K1 is not consistent with the root display
    assert abs(k1 - spec.a1) > 1.0


def test_biharmonic_domain_validation():
    with pytest.raises(ValidationError):
        biharmonic_preset(4, 9.0)
    with pytest.raises(ValidationError):
        biharmonic_preset(6, 5.0)  # needs p > 5


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_t_max_must_be_finite(t_max):
    spec = ProblemSpec(a3=0.0, a2=-5.0, a1=0.0, a0=4.0, t_max=t_max)
    with pytest.raises(ValidationError, match="t_max"):
        spec.validate()


@pytest.mark.parametrize("field, value", [("nodes", 100.5), ("nodes", 2048.0),
                                          ("max_iter", 2.5), ("max_iter", "50")])
def test_nodes_and_max_iter_must_be_integers(field, value):
    spec = ProblemSpec(a3=0.0, a2=-5.0, a1=0.0, a0=4.0, **{field: value})
    with pytest.raises(ValidationError, match=field):
        spec.validate()


def test_numpy_integer_nodes_accepted():
    ProblemSpec(a3=0.0, a2=-5.0, a1=0.0, a0=4.0, nodes=np.int64(512),
                max_iter=np.int32(20)).validate()
