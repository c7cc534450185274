"""Exception types raised across the package, each with what raises it."""


class LotteryError(ValueError):
    """Base class for invalid lottery vectors."""


class NegativeEntryError(LotteryError):
    """``validate_lottery``: a coordinate outside [0, 1] (negative, above 1, NaN)."""


class SumNotOneError(LotteryError):
    """``validate_lottery``: coordinates that do not sum to 1 within tolerance."""


class WrongLengthError(LotteryError):
    """``validate_lottery``: fewer than two coordinates; ``LotterySet``:
    lotteries of unequal length; ``GameSpec``: an m unlike its set's."""


class DegenerateSetError(ValueError):
    """``LotterySet``: no lottery; ``truncated_simplex``:
    bounds that leave an empty or degenerate feasible set."""


class InvalidEtaNuError(ValueError):
    """``drop_constants``: eta or nu outside (0, 1), or a derived delta
    outside (0, 1); ``check_corridor``: nu outside (0, 1)."""


class TauOutOfRangeError(ValueError):
    """``drop_constants``: an explicit tau outside its admissible interval."""


class InstanceTooLargeError(ValueError):
    """``brute_force_values``: |K| > 4 or n > 12."""


class ConfigError(ValueError):
    """``cli``: a config that violates the schema or does not fit in memory,
    or an output that cannot be written."""
