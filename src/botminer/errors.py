"""Exception types shared across the package, and the config value checks."""

import math
import sys


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


def shown(value) -> str:
    """repr(*value*) for an error message, cut to 32 characters: every float
    fits whole, and a message stays short whatever int it names.

    An int too long for str (``sys.get_int_max_str_digits``) cannot be
    formatted at all, so it is described by its size.
    """
    try:
        text = repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"
    return text if len(text) <= 32 else text[:29] + "..."


def check_int(name: str, value, minimum: int) -> None:
    """ConfigError unless *value* is an int (a bool is not) of at least *minimum*
    that str can write out, as the config fingerprint does."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an int, got {shown(value)}")
    try:
        str(value)
    except ValueError:
        raise ConfigError(f"{name} must have at most {sys.get_int_max_str_digits()} "
                          f"digits, got {shown(value)}") from None
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {shown(value)}")


def check_real(name: str, value) -> None:
    """ConfigError unless *value* is an int or float (a bool is not) that is
    finite as a float: an int past float's range is rejected too."""
    try:
        finite = (type(value) is not bool and isinstance(value, (int, float))
                  and math.isfinite(value))
    except OverflowError:  # math.isfinite converts an int to float
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite real number, got {shown(value)}")
