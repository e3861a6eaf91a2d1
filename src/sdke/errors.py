"""Exception types shared across the package, and its one order-bound check.

All of these derive from ValueError so callers that do not care about the
distinction can catch a single class.  The CLI maps them to exit code 1.
"""


class SdkeError(ValueError):
    """Base class for domain errors raised by this package."""


class GraphError(SdkeError):
    """Malformed graph construction or parse input."""


class MatchingError(SdkeError):
    """A matching is invalid for its host graph."""


class NotMatchableError(SdkeError):
    """An operation required a graph with a perfect matching."""


class BoundExceededError(SdkeError):
    """An exhaustive computation was asked for an input above its size bound."""


def _check_order(n: int, bound: int, work: str) -> None:
    """Refuse a graph of order n above the int bound of the named work."""
    if type(bound) is not int:  # a bool would pass as 0 or 1, others raise TypeError
        raise SdkeError(f"{work} bound {bound!r} is not an int")
    if n > bound:
        raise BoundExceededError(f"graph order {n} exceeds {work} bound {bound}")
