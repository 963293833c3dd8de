"""Shared helpers for the test suite."""
import numpy as np

from slipball import kernels, oracle
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


def jets_divergence(field, r, theta, phi):
    """div u on node arrays from the analytic jets (u_raw_partials and
    kernels.divergence_parts); u_r and its partials vanish."""
    parts = field.u_raw_partials(r, theta, phi)
    zeros = np.zeros_like(r)
    return kernels.divergence_parts(r, np.sin(theta), np.cos(theta), zeros, zeros,
                                    parts["ut"], parts["dut_dtheta"], parts["dup_dphi"])


def jets_curl(field, r, theta, phi):
    """curl u on node arrays from the analytic jets (u_raw_partials and
    kernels.curl_parts), a second path beside the closed-form omega."""
    parts = field.u_raw_partials(r, theta, phi)
    zeros = np.zeros_like(r)
    return kernels.curl_parts(r, np.sin(theta), np.cos(theta), zeros, zeros,
                              parts["ut"], parts["dut_dr"], parts["dut_dphi"],
                              parts["up"], parts["dup_dr"], parts["dup_dtheta"])


def cartesian_divergence(fn, r, theta, phi, cfg=oracle.FDConfig()):
    """The Cartesian FD divergence of fn at the nodes: the trace of one
    oracle.cartesian_jacobian_grid call."""
    return oracle.cartesian_divergence_grid(
        oracle.cartesian_jacobian_grid(fn, r, theta, phi, cfg))


def cartesian_curl(fn, r, theta, phi, cfg=oracle.FDConfig()):
    """The Cartesian FD curl of fn at the nodes, in their local spherical
    basis: the antisymmetric part of one oracle.cartesian_jacobian_grid
    call, rotated at the normalised nodes."""
    _, theta, phi = oracle._normalise(r, theta, phi)
    return oracle.cartesian_curl_grid(oracle.cartesian_jacobian_grid(fn, r, theta, phi, cfg),
                                      theta, phi)
