"""slipball: certify that a smooth, divergence-free field on the unit ball
can satisfy the full slip conditions while the tangential trace of
curl(u x curl u) on the sphere is nonzero."""

from .errors import ConfigError, DegenerateFit, SlipballError, StencilOutOfDomain
from .family import (AdmissibilityReport, AngularFunction, CounterexampleField,
                     RadialProfile, check_admissibility, default_angular,
                     default_field, default_profile, family_by_label,
                     find_witnesses, h1zero_profile, perturbed_profile)
from .oracle import (FDConfig, cartesian_curl_grid, cartesian_divergence_grid,
                     cartesian_jacobian_grid, fd_boundary_radial_derivative,
                     fd_curl_spherical, fd_partial)
from .sphcalc import SphPoint
from .verify import (CheckResult, GridSpec, VerificationReport,
                     check_divergence_free, check_navier_traction,
                     check_oracle_agreement, check_persistency_failure,
                     check_slip_conditions, neighborhood_radius,
                     run_full_verification, scaling_sweep)

__version__ = "0.1.0"

# the one kernel implementation; benchmark records read it
BACKEND = "numpy"
