"""Exact truncated power series over the ring Z[a]/(a^2 - 1).

Every generating function used by this package lives in
Z[a]/(a^2 - 1)[x] / (x^(N+1)) for some truncation degree N.  An element is
stored as two integer coefficient tuples: the plain part (coefficients of
x^i) and the a-part (coefficients of a*x^i).  Multiplication folds the a*a
cross terms back into the plain part.  All coefficients are Python ints, so
nothing ever overflows; binomial-sized coefficients such as C(88, 44) are
routine.
"""

from __future__ import annotations

from dataclasses import dataclass


def _as_int_tuple(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class AlphaSeries:
    """A truncated series  sum_i f[i] x^i  +  sum_i g[i] a x^i  with a^2 = 1.

    Both coefficient tuples run over degrees 0..truncation_degree inclusive.
    Instances are immutable values; all arithmetic returns new objects.
    Binary operations truncate to the smaller of the two degrees.
    """

    f_coeffs: tuple[int, ...]
    g_coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        f = _as_int_tuple(self.f_coeffs)
        g = _as_int_tuple(self.g_coeffs)
        if not f:
            raise ValueError("series needs at least the degree-0 coefficient")
        if len(f) != len(g):
            raise ValueError(
                f"coefficient tuples disagree in length: {len(f)} vs {len(g)}"
            )
        object.__setattr__(self, "f_coeffs", f)
        object.__setattr__(self, "g_coeffs", g)

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, c: int, truncation_degree: int) -> "AlphaSeries":
        """The constant series c, tracked up to the given degree."""
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        f = [0] * (truncation_degree + 1)
        f[0] = int(c)
        return cls(tuple(f), (0,) * (truncation_degree + 1))

    @classmethod
    def zero(cls, truncation_degree: int) -> "AlphaSeries":
        return cls.const(0, truncation_degree)

    @classmethod
    def one(cls, truncation_degree: int) -> "AlphaSeries":
        return cls.const(1, truncation_degree)

    @classmethod
    def monomial(
        cls, c: int, degree: int, truncation_degree: int, alpha: bool = False
    ) -> "AlphaSeries":
        """c * x^degree, or c * a * x^degree when alpha is set.

        A monomial beyond the truncation degree is silently the zero series.
        """
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        f = [0] * (truncation_degree + 1)
        g = [0] * (truncation_degree + 1)
        if degree <= truncation_degree:
            (g if alpha else f)[degree] = int(c)
        return cls(tuple(f), tuple(g))

    # -- structure -------------------------------------------------------

    @property
    def truncation_degree(self) -> int:
        return len(self.f_coeffs) - 1

    def split(self) -> tuple[list[int], list[int]]:
        """The two coefficient arrays (plain part, a-part)."""
        return list(self.f_coeffs), list(self.g_coeffs)

    def truncated(self, truncation_degree: int) -> "AlphaSeries":
        """The same series tracked only up to the given (smaller) degree."""
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        if truncation_degree > self.truncation_degree:
            raise ValueError("cannot extend a truncated series")
        k = truncation_degree + 1
        return AlphaSeries(self.f_coeffs[:k], self.g_coeffs[:k])

    def is_zero(self) -> bool:
        return not any(self.f_coeffs) and not any(self.g_coeffs)

    # -- ring arithmetic ---------------------------------------------------

    def _matched(self, other: "AlphaSeries") -> tuple["AlphaSeries", "AlphaSeries"]:
        n = min(self.truncation_degree, other.truncation_degree)
        return self.truncated(n), other.truncated(n)

    def __add__(self, other: "AlphaSeries") -> "AlphaSeries":
        if not isinstance(other, AlphaSeries):
            return NotImplemented
        a, b = self._matched(other)
        return AlphaSeries(
            tuple(x + y for x, y in zip(a.f_coeffs, b.f_coeffs)),
            tuple(x + y for x, y in zip(a.g_coeffs, b.g_coeffs)),
        )

    def __neg__(self) -> "AlphaSeries":
        return AlphaSeries(
            tuple(-x for x in self.f_coeffs), tuple(-x for x in self.g_coeffs)
        )

    def __sub__(self, other: "AlphaSeries") -> "AlphaSeries":
        if not isinstance(other, AlphaSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return AlphaSeries(
                tuple(other * x for x in self.f_coeffs),
                tuple(other * x for x in self.g_coeffs),
            )
        if not isinstance(other, AlphaSeries):
            return NotImplemented
        a, b = self._matched(other)
        n = a.truncation_degree
        f = [0] * (n + 1)
        g = [0] * (n + 1)
        for i, (fi, gi) in enumerate(zip(a.f_coeffs, a.g_coeffs)):
            if not fi and not gi:
                continue
            for j in range(n + 1 - i):
                fj = b.f_coeffs[j]
                gj = b.g_coeffs[j]
                # (f1 + g1 a)(f2 + g2 a) = (f1 f2 + g1 g2) + (f1 g2 + g1 f2) a
                f[i + j] += fi * fj + gi * gj
                g[i + j] += fi * gj + gi * fj
        return AlphaSeries(tuple(f), tuple(g))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "AlphaSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = AlphaSeries.one(self.truncation_degree)
        for _ in range(exponent):
            result = result * self
        return result

    def geometric_factor(self) -> "AlphaSeries":
        """Multiply by 1 + x^2 + x^4 + ... , i.e. divide formally by 1 - x^2."""

        def accumulate(coeffs):
            out = list(coeffs)
            for k in range(2, len(out)):
                out[k] += out[k - 2]
            return tuple(out)

        return AlphaSeries(accumulate(self.f_coeffs), accumulate(self.g_coeffs))

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.f_coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else f"{c}*x^{i}")
        for i, c in enumerate(self.g_coeffs):
            if c:
                terms.append(f"{c}*a" if i == 0 else f"{c}*a*x^{i}")
        return " + ".join(terms) if terms else "0"


def ideal_summand_factor(p: int, truncation_degree: int) -> AlphaSeries:
    """1 + (a x) + (a x)^2 + ... + (a x)^(p-1).

    This is the closed polynomial form of (1 - (a x)^p) / (1 - a x); no
    formal division is ever performed.  Even powers of (a x) land in the
    plain part, odd powers in the a-part.
    """
    if p < 1:
        raise ValueError("p must be positive")
    f = [0] * (truncation_degree + 1)
    g = [0] * (truncation_degree + 1)
    for i in range(min(p - 1, truncation_degree) + 1):
        if i % 2 == 0:
            f[i] = 1
        else:
            g[i] = 1
    return AlphaSeries(tuple(f), tuple(g))


def projective_summand_factor(p: int, truncation_degree: int) -> AlphaSeries:
    """1 + e_p x^p with the substitution e_2 = a and e_p = 1 for p > 2."""
    if p < 2:
        raise ValueError("p must be at least 2")
    one = AlphaSeries.one(truncation_degree)
    return one + AlphaSeries.monomial(1, p, truncation_degree, alpha=(p == 2))


def trivial_summand_factor(truncation_degree: int) -> AlphaSeries:
    """1 + x."""
    return AlphaSeries.one(truncation_degree) + AlphaSeries.monomial(
        1, 1, truncation_degree
    )


def alpha_geometric(truncation_degree: int) -> AlphaSeries:
    """1 + (a x) + (a x)^2 + ... up to the truncation degree."""
    f = [1 - (i % 2) for i in range(truncation_degree + 1)]
    g = [i % 2 for i in range(truncation_degree + 1)]
    return AlphaSeries(tuple(f), tuple(g))
