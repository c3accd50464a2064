"""Exception types and the global enumeration cap."""

import os

DEFAULT_DEPTH_LIMIT = 20
DEPTH_LIMIT_ENV = "RANDLAB_DEPTH_LIMIT"


class RandlabError(Exception):
    """Base class for all library errors."""


class ConstructionError(RandlabError):
    """A constructor was given malformed data (bad split, non-prefix-free set, ...)."""


class PreconditionError(RandlabError):
    """A documented operation precondition was violated by the caller."""


class ResourceLimitError(RandlabError):
    """An exhaustive enumeration would exceed the configured depth cap."""


class SpecParseError(RandlabError):
    """A textual spec (measure, strategy, source, ...) failed to parse."""


class StrategyViolation(RandlabError):
    """A betting strategy broke its own invariants mid-play (over-staking, null bet)."""


def enumeration_limit() -> int:
    """Depth cap for exhaustive 2^n enumerations; override with RANDLAB_DEPTH_LIMIT."""
    raw = os.environ.get(DEPTH_LIMIT_ENV)
    if raw is None:
        return DEFAULT_DEPTH_LIMIT
    try:
        limit = int(raw)
        if limit < 0:
            raise ValueError
    except ValueError:
        raise PreconditionError(f"{DEPTH_LIMIT_ENV} must be a nonnegative integer, got {raw!r}") from None
    return limit


def check_enumeration_depth(n: int) -> None:
    limit = enumeration_limit()
    if n > limit:
        raise ResourceLimitError(
            f"exhaustive enumeration depth {n} exceeds cap {limit} "
            f"(set {DEPTH_LIMIT_ENV} to raise it)"
        )
