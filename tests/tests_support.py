"""Shared helpers for the test suite."""
import numpy as np

from slipball.sphcalc import SphPoint


def random_admissible_nodes(rng, n, r_lo=0.05, r_hi=0.97, th_margin=0.05):
    """Node arrays (r, theta, phi) of n random interior points."""
    r = rng.uniform(r_lo, r_hi, n)
    theta = rng.uniform(th_margin, np.pi - th_margin, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    return r, theta, phi


def random_admissible_points(rng, n, r_lo=0.05, r_hi=0.97, th_margin=0.05):
    """The nodes of random_admissible_nodes as SphPoints."""
    return [SphPoint(*t) for t in zip(*random_admissible_nodes(rng, n, r_lo, r_hi, th_margin))]


def random_boundary_points(rng, n, th_margin=1e-3):
    theta = rng.uniform(th_margin, np.pi - th_margin, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    return [SphPoint(1.0, t, p) for t, p in zip(theta, phi)]
