"""Exception types shared across the package, and the config value checks."""

import math


class BotminerError(Exception):
    """Base class for all package-specific errors."""


class MalformedRecordError(BotminerError):
    """A corpus line is not a usable tweet record."""


class EmptyCorpusError(BotminerError):
    """Ingestion finished with zero usable records."""


class ConfigError(BotminerError):
    """A configuration file or value is invalid."""


class PipelineStageError(BotminerError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def check_int(name: str, value, minimum: int) -> None:
    """ConfigError unless *value* is an int (a bool is not) of at least *minimum*."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """ConfigError unless *value* is an int or float (a bool is not) that is
    finite as a float: an int past float's range is rejected too."""
    try:
        finite = (type(value) is not bool and isinstance(value, (int, float))
                  and math.isfinite(value))
    except OverflowError:  # math.isfinite converts an int to float
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
