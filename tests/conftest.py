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


def interior_points(rng, n, r_lo=0.05, r_hi=0.97, th_margin=0.05):
    r = rng.uniform(r_lo, r_hi, n)
    theta = rng.uniform(th_margin, np.pi - th_margin, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    return r, theta, phi
