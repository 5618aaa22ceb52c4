"""Exception types shared across the package."""


class GsgsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GsgsError, ValueError):
    """Operator or vector dimensions do not line up."""


class ConfigurationError(GsgsError, ValueError):
    """A configuration value is out of its valid range."""


class ImageFormatError(GsgsError, ValueError):
    """An image file is malformed: a wrong header or a truncated payload."""


class SizeCapError(GsgsError, ValueError):
    """A dense-path operation would exceed its configured size cap."""


class DegenerateDirectionError(GsgsError):
    """The seed direction of a conjugate set is (numerically) zero."""


class IndefinitePrecisionError(GsgsError):
    """A direction has non-positive curvature under the precision operator."""


class DegenerateScaleError(GsgsError):
    """A Gamma conditional collapsed to zero scale (zero residual, flat prior)."""
