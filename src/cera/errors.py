"""Exception types shared across the package."""


class CeraError(Exception):
    """Base class for all errors raised by this package."""


class IngestionError(CeraError):
    """A corpus input file could not be read."""


class ValidationError(CeraError):
    """An input violates a documented contract (bad label, duplicate id, ...)."""


class ConditioningError(CeraError):
    """A matrix fails a definiteness or conditioning requirement."""


class ParameterBoundsError(CeraError):
    """A model parameter is outside its admissible range."""


class IdentificationError(ValidationError):
    """A latent-variable model has no scale constraint for some factor."""
