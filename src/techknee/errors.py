"""Exception types shared across the package."""


class TechkneeError(Exception):
    """Base class for all domain errors raised by this package."""


class UnitMismatchError(TechkneeError):
    """Two series with different unit tags were combined."""


class MissingYearError(TechkneeError):
    """A required year is absent from a rate schedule."""


class DataIntegrityError(TechkneeError):
    """A bundled dataset failed its checksum or manifest validation."""


class DegenerateFitError(TechkneeError):
    """Two fitted curves are identical; the crossover is undefined."""


class FitError(TechkneeError):
    """A series cannot be fitted (too few points or non-positive values)."""
