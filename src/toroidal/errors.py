"""Shared exception types and the integer check of public constructors."""

from operator import index


class ConsistencyError(RuntimeError):
    """An internal mathematical invariant failed.

    Raised when two computation pipelines that must agree do not, or when a
    quantity that is provably an integer (or provably nonnegative) comes out
    otherwise.  This always indicates a bug, never bad user input, so it is
    kept distinct from ValueError.
    """


def require_int(value, what: str) -> int:
    """value as an int; a float or a string raises ValueError, never truncates."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {value!r}") from None
