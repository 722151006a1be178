import warnings

import numpy as np
import pytest

from hseom import (BathSpec, HorizonWarning, OhmicCircular, build_space,
                   compute_coefficients, spin_boson)
from hseom.dynamics import ContourEngine


def pytest_addoption(parser):
    parser.addoption(
        "--full", action="store_true", default=False,
        help="run the exponential-cutoff response at K=80 instead of the "
             "reduced K=40 variant")


@pytest.fixture(autouse=True)
def horizon_warning_is_an_error():
    # HorizonWarning fires only on a measured expansion error above
    # cli.EXPANSION_TOL, so a shipped preset that raises it is a failure;
    # pytest.warns still records it where a test expects it
    with warnings.catch_warnings():
        warnings.simplefilter("error", HorizonWarning)
        yield


@pytest.fixture(scope="session")
def full_mode(request):
    return request.config.getoption("--full")


@pytest.fixture(scope="session")
def circular_spec():
    return BathSpec(OhmicCircular(zeta=0.35, nu=6.0), 3.0, 6.0, 20)


@pytest.fixture(scope="session")
def circular_expansion(circular_spec):
    return compute_coefficients(circular_spec)


@pytest.fixture(scope="session")
def small_space():
    # K = 4, N_max = 2: 15 indices, enough structure for unit tests
    return build_space(4, 2)


@pytest.fixture(scope="session")
def small_expansion():
    spec = BathSpec(OhmicCircular(zeta=0.2, nu=2.0), 3.0, 2.0, 4)
    return compute_coefficients(spec)


@pytest.fixture(scope="session")
def small_engine(small_space, small_expansion):
    return ContourEngine(small_space, small_expansion, spin_boson(1.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
