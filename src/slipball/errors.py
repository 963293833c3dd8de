"""Exception types shared across the package."""


class SlipballError(Exception):
    """Base class for all slipball errors."""


class StencilOutOfDomain(SlipballError):
    """Finite-difference stencil would leave the admissible region."""


class NoWitness(SlipballError):
    """Witness-point scan found no boundary point above threshold."""


class DegenerateFit(SlipballError):
    """Scaling sweep has too few usable points for a slope fit."""


class ConfigError(SlipballError):
    """Invalid run configuration (bad key, bad value, unreadable file)."""
