import numpy as np
import pytest

from slipball import family


@pytest.fixture(scope="session")
def default_field():
    return family.default_field()


@pytest.fixture(scope="session")
def h1zero_field():
    return family.family_by_label("h1zero")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
