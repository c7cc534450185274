"""Exception types raised across the package."""


class LotteryError(ValueError):
    """Base class for invalid lottery vectors."""


class NegativeEntryError(LotteryError):
    """A lottery coordinate lies outside [0, 1] (negative, above 1 or NaN)."""


class SumNotOneError(LotteryError):
    """Lottery coordinates do not sum to 1 within tolerance."""


class WrongLengthError(LotteryError):
    """Lottery vector shorter than the minimum of two coordinates."""


class DegenerateSetError(ValueError):
    """Truncated-simplex bounds leave an empty or degenerate feasible set."""


class InvalidEtaNuError(ValueError):
    """Structural constants violate the hypotheses eta < 1, nu > 0."""


class TauOutOfRangeError(ValueError):
    """Explicit tau lies outside its admissible open interval."""


class InstanceTooLargeError(ValueError):
    """Brute-force oracle bounds exceeded (|K| > 4 or n > 12)."""


class ConfigError(ValueError):
    """Experiment config file violates the expected schema."""
