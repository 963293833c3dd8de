"""slipball: spherical vector calculus and numerical certification of
slip-boundary velocity fields on the closed unit ball."""

from .errors import (CoordinateSingularity, DegenerateFit, NoWitness,
                     PoleDegeneracy, SlipballError, StencilOutOfDomain)
from .family import (AdmissibilityReport, AngularFunction, CounterexampleField,
                     RadialProfile, big_G, check_admissibility, default_angular,
                     default_field, default_profile, family_by_label,
                     find_witnesses, h1zero_profile, perturbed_profile, u_jets)
from .oracle import (FDConfig, cartesian_curl_grid, cartesian_divergence_grid,
                     fd_boundary_radial_derivative, fd_curl_spherical, fd_partial)
from .sphcalc import (CartesianPoint, ScalarJet, SphPoint, SphVec, basis_at,
                      cross, curl, divergence, dot, from_cartesian_point,
                      gradient, to_cartesian_point, vec_from_cartesian,
                      vec_to_cartesian)
from .verify import (CheckResult, GridSpec, VerificationReport,
                     check_divergence_free, check_navier_traction,
                     check_oracle_agreement, check_persistency_failure,
                     check_slip_conditions, neighborhood_radius,
                     run_full_verification, scaling_sweep)

__version__ = "0.1.0"

# the one kernel implementation; benchmark records read it
BACKEND = "numpy"
