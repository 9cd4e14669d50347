"""Exception types shared across the package."""


class ModelError(ValueError):
    """Process model parameters violate a construction invariant."""


class NumericError(RuntimeError):
    """Base class for runtime numerical failures."""


class NotPositiveDefiniteError(NumericError):
    """A covariance input is not positive definite."""


class IllConditionedError(NumericError):
    """A solve lost too much precision to return trustworthy output."""


class CertificationError(NumericError):
    """A requested accuracy could not be certified within resource limits.

    ``achieved_bound`` carries the best certified bound that was reached,
    or ``None`` when no bound could be established at all.
    """

    def __init__(self, message: str, achieved_bound: float | None = None):
        super().__init__(message)
        self.achieved_bound = achieved_bound


class ConfigError(ValueError):
    """Invalid run configuration (bad key, value out of range, unwritable output)."""
