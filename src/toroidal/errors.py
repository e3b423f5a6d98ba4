"""Shared exception types, the integer check and the base of immutable value classes."""

from operator import attrgetter, index


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


class _Value:
    """An immutable value made of the fields its class body annotates, in order.

    The annotations are the field list: they set __match_args__, and a
    subclass that annotates nothing keeps its parent's.  A value is equal
    only to an instance of its own class with equal fields, hashes as the
    tuple of its fields and prints as Class(field=value, ...).  Each
    subclass writes its own __init__, which checks its input and stores
    each field once with object.__setattr__, in the order of the
    annotations, so that attribute reads stay fast.  Nothing is generated,
    compiled or executed when a subclass is made, so importing the package
    loads no class-generating library and, through it, no inspect.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        annotations = vars(cls).get("__annotations__")
        if annotations:
            cls.__match_args__ = tuple(annotations)
        # the tuple of an instance's fields: every value class has two or
        # more, and attrgetter returns a tuple for two or more names
        cls._fields = attrgetter(*cls.__match_args__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._fields(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
