import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati4.errors import ComplexRoots, RepeatedRealParts
from riccati4.spectra import (
    characteristic_data,
    order_and_check_h1,
    shifted_cubic_coeffs,
    solve_quartic_real,
)

from reference_routes import shifted_cubic_residuals


def test_hand_expanded_quartic():
    roots = solve_quartic_real((0.0, -5.0, 0.0, 4.0))
    assert sorted(roots) == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-10)


def test_quadruple_zero_flows_to_repeated_roots():
    roots = solve_quartic_real((0.0, 0.0, 0.0, 0.0))
    assert roots == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(RepeatedRealParts):
        order_and_check_h1(roots)


def test_complex_roots_rejected():
    # (x^2+1)(x-1)(x-2) = x^4 - 3x^3 + 3x^2 - 3x + 2
    with pytest.raises(ComplexRoots):
        solve_quartic_real((-3.0, 3.0, -3.0, 2.0))


def test_ordering_and_min_gap():
    cd = order_and_check_h1([1.0, 2.0, -2.0, -1.0])
    assert cd.lam == (2.0, 1.0, -1.0, -2.0)
    assert cd.min_gap == pytest.approx(1.0)
    with pytest.raises(RepeatedRealParts):
        order_and_check_h1([2.0, 2.0, -1.0, -2.0])


def test_biharmonic_roots_and_gap():
    cd = order_and_check_h1([2.8, 0.8, -1.2, -3.2])
    assert cd.min_gap == pytest.approx(2.0)


def test_shifted_cubic_worked_examples(cd_test):
    assert shifted_cubic_coeffs(cd_test, 1) == pytest.approx((8.0, 19.0, 12.0))
    assert cd_test.gamma_for(1) == pytest.approx((-1.0, -3.0, -4.0))
    assert shifted_cubic_coeffs(cd_test, 2) == pytest.approx((4.0, 1.0, -6.0))
    assert cd_test.gamma_for(2) == pytest.approx((1.0, -2.0, -3.0))
    for i in (1, 2, 3, 4):
        assert np.max(np.abs(shifted_cubic_residuals(cd_test, i))) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=4, max_size=4))
def test_random_quartics_recover_roots(raw):
    lam = sorted(raw, reverse=True)
    if min(lam[k] - lam[k + 1] for k in range(3)) < 0.1:
        return
    poly = np.poly(lam)
    a = tuple(poly[1:])
    cd = characteristic_data(a)
    assert np.allclose(cd.lam, lam, atol=1e-8)
    # Vieta: sum of roots is -a3
    assert sum(cd.lam) == pytest.approx(-a[0], abs=1e-9)
    for i in (1, 2, 3, 4):
        assert np.max(np.abs(shifted_cubic_residuals(cd, i))) <= 1e-9


@pytest.mark.parametrize("i", [0, 5])
def test_root_index_out_of_range(cd_test, i):
    with pytest.raises(ValueError, match="root index"):
        cd_test.gamma_for(i)
    with pytest.raises(ValueError, match="root index"):
        cd_test.lam_for(i)
