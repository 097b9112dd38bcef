import numpy as np
import pytest

from wignerlab.channel import gauss_hermite
from wignerlab.priors import make_rademacher, make_sparse_rademacher


@pytest.fixture(scope="session")
def rademacher():
    return make_rademacher()


@pytest.fixture(scope="session")
def sparse03():
    return make_sparse_rademacher(0.3)


@pytest.fixture(scope="session")
def quad64():
    return gauss_hermite(64)


@pytest.fixture(scope="session")
def quad24():
    return gauss_hermite(24)


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)
