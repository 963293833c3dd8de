"""Exception types shared across the package.  Bad input raises ConfigError
in the code that reads it; the CLI's main prints every SlipballError."""


class SlipballError(Exception):
    """Base class for all slipball errors."""


class StencilOutOfDomain(SlipballError):
    """Finite-difference stencil would leave the admissible region."""


class DegenerateFit(SlipballError):
    """Scaling sweep has too few usable points for a slope fit."""


class ConfigError(SlipballError, ValueError):
    """Bad input (a bad value, key or file, or a non-finite result); a
    ValueError too, so callers that catch ValueError keep working."""
