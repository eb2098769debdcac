import pytest

from riccati4 import exprlang
from riccati4.picard import default_grid, iterate_to_fixed_point
from riccati4.riccati import build_system
from riccati4.spectra import characteristic_data

# the standard test spectrum: (lam - 2)(lam - 1)(lam + 1)(lam + 2)
TEST_A = (0.0, -5.0, 0.0, 4.0)


@pytest.fixture(scope="session")
def cd_test():
    return characteristic_data(TEST_A)


@pytest.fixture(scope="session")
def r_zero():
    return tuple(exprlang.parse("0") for _ in range(4))


@pytest.fixture(scope="session")
def r_eps():
    return (exprlang.parse("0.001*exp(-t)"), exprlang.parse("0"),
            exprlang.parse("0"), exprlang.parse("0"))


@pytest.fixture(scope="session")
def grid_1024(cd_test):
    return default_grid(cd_test, 0.0, 1024)


@pytest.fixture(scope="session")
def eps_systems(cd_test, r_eps):
    return {i: build_system(cd_test, r_eps, i) for i in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def eps_solutions(eps_systems, grid_1024):
    """Converged direct-orientation fixed points for the epsilon problem."""
    out = {}
    for i, sys in eps_systems.items():
        z, trace = iterate_to_fixed_point(sys, grid_1024, orientation="direct")
        out[i] = (z, trace)
    return out
