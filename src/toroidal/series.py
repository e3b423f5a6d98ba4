"""Exact truncated power series over the ring Z[a]/(a^2 - 1).

Every generating function used by this package lives in
Z[a]/(a^2 - 1)[x] / (x^(N+1)) for some truncation degree N.  Sending a to 1
and to -1 is an injective ring map into Z[x] x Z[x], so a series f + g a is
stored as two integer series, plus = f + g and minus = f - g.  Arithmetic
acts on each image alone, with no a*a cross terms, and f = (plus + minus)/2,
g = (plus - minus)/2 exactly.  All coefficients are Python ints, so nothing
ever overflows; binomial-sized coefficients such as C(88, 44) are routine.

Powers and the lattice's generating functions come from one recurrence
(Stanley, "Differentiably finite power series", European J. Combin. 1
(1980); Enumerative Combinatorics 2, section 6.4).  Let P = prod P_i^e_i
for integer polynomials P_i with nonzero constant terms c_i and any integer
exponents e_i, negative only where c_i = +-1, so that P is an integer
series.  With D = prod P_i and E = D P'/P = sum e_i P_i' prod_(j != i) P_j,
both polynomials, D P' = E P and p_0 = prod c_i^e_i, so for k >= 0

    (k + 1) d_0 p_(k+1) = sum_i (E_i + i d_(i+1) - d_(i+1) k) p_(k-i).

The sum runs over the nonzero terms of E and D below the truncation, so
the product costs O(N (nnz D + nnz E)) big-int operations whatever the
exponents are; a factor may be 1 + x^q with q = 2^61 - 1.  Every division
is exact because P is an integer series; a remainder would be a bug and
raises ConsistencyError.  For one factor, P^e, this is J.C.P. Miller's
power recurrence (Knuth, TAOCP Vol. 2, section 4.7; Henrici, Applied and
Computational Complex Analysis I, section 1.6): P Q' = e P' Q.  A power of
a series x^v P is x^(v e) P^e.
"""

from __future__ import annotations

from operator import add, neg, sub

from .errors import ConsistencyError, _Value, require_int


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a * b truncated to their common length; the sparser operand drives the loop."""
    if sum(map(bool, a)) > sum(map(bool, b)):
        a, b = b, a
    out = [0] * len(a)
    for i, c in enumerate(a):
        if c:
            out[i:] = [o + c * d for o, d in zip(out[i:], b)]
    return tuple(out)


def _power(coeffs: tuple[int, ...], e: int) -> tuple[int, ...]:
    """coeffs ** e truncated to the same length: x^(v e) P^e for coeffs = x^v P."""
    n = len(coeffs)
    v = next((i for i, c in enumerate(coeffs) if c), None)
    if v is None:
        return (int(e == 0),) + (0,) * (n - 1)
    shift = v * e
    if shift >= n:
        return (0,) * n
    P = tuple((j, c) for j, c in enumerate(coeffs[v:]) if c)
    return (0,) * shift + _factor_product({P: e}, n - 1 - shift)


def _factor_product(
    factors: dict[tuple[tuple[int, int], ...], int], truncation_degree: int
) -> tuple[int, ...]:
    """prod P^e over factors {P: e}, truncated at the given degree.

    Each P is an integer polynomial given by its (degree, coefficient)
    pairs, with a nonzero constant term c; e is any integer, negative only
    where c is +-1.  One pass by the recurrence of D P' = E P (module
    docstring).
    """
    if truncation_degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    n = truncation_degree + 1  # coefficients needed
    p0 = 1
    live = []  # (P below degree n, e) over the factors not constant there
    for pairs, e in factors.items():
        if e:
            P = {i: c for i, c in pairs if i < n}
            p0 *= P[0] ** abs(e)  # c ** -1 would be a float; c is +-1 there
            if len(P) > 1:
                live.append((P, e))

    def product_sum(*pairs) -> dict[int, int]:
        """The sum of u v over the given (u, v) pairs, as {degree: coefficient} below n."""
        out: dict[int, int] = {}
        for u, v in pairs:
            for i, a in u.items():
                for j, b in v.items():
                    if i + j < n:
                        out[i + j] = out.get(i + j, 0) + a * b
        return out

    # D and E = D P'/P one factor at a time, by the product rule
    d: dict[int, int] = {0: 1}
    E: dict[int, int] = {}
    for P, e in live:
        derivative = {i - 1: e * i * c for i, c in P.items() if i}
        d, E = product_sum((d, P)), product_sum((E, P), (d, derivative))
    # (i, a_i, b_i) with (k + 1) d_0 p_(k+1) = sum (a_i - b_i k) p_(k-i)
    support = []
    for i in sorted(set(E) | {i - 1 for i in d if i}):
        a, b = E.get(i, 0) + i * d.get(i + 1, 0), d.get(i + 1, 0)
        if (a or b) and i < n - 1:
            support.append((i, a, b))
    d0 = d[0]
    p = [p0]
    for k in range(n - 1):
        total = 0
        for i, a, b in support:
            if i > k:
                break
            total += (a - b * k) * p[k - i]
        coeff, remainder = divmod(total, (k + 1) * d0)
        if remainder:
            raise ConsistencyError(
                f"product recurrence left remainder {remainder} at degree {k + 1}"
            )
        p.append(coeff)
    return tuple(p)


def _accumulate_even(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Multiply by 1 + x^2 + x^4 + ... , i.e. divide formally by 1 - x^2."""
    out = list(coeffs)
    for k in range(2, len(out)):
        out[k] += out[k - 2]
    return tuple(out)


class AlphaSeries(_Value):
    """A truncated series  sum_i f[i] x^i  +  sum_i g[i] a x^i  with a^2 = 1.

    Both coefficient tuples run over degrees 0..truncation_degree inclusive.
    The series is stored as its images plus = f + g and minus = f - g;
    f_coeffs and g_coeffs are derived from them.  Instances are immutable
    values; all arithmetic returns new objects.  Binary operations truncate
    to the smaller of the two degrees.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def __init__(self, f_coeffs, g_coeffs) -> None:
        f = tuple(require_int(v, "series coefficients") for v in f_coeffs)
        g = tuple(require_int(v, "series coefficients") for v in g_coeffs)
        if len(f) != len(g):
            raise ValueError(
                f"coefficient tuples disagree in length: {len(f)} vs {len(g)}"
            )
        self._set_images(map(add, f, g), map(sub, f, g))

    def _set_images(self, plus, minus) -> None:
        plus, minus = tuple(plus), tuple(minus)
        if not plus:
            raise ValueError("truncation degree must be nonnegative")
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    @classmethod
    def _from_images(cls, plus, minus) -> "AlphaSeries":
        out = object.__new__(cls)
        out._set_images(plus, minus)
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, c: int, truncation_degree: int) -> "AlphaSeries":
        """The constant series c, tracked up to the given degree."""
        return cls.monomial(c, 0, truncation_degree)

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
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        c = require_int(c, "series coefficients")
        plus = [c if i == degree else 0 for i in range(truncation_degree + 1)]
        return cls._from_images(plus, [-v for v in plus] if alpha else plus)

    # -- structure -------------------------------------------------------

    @property
    def f_coeffs(self) -> tuple[int, ...]:
        """The plain part: coefficients of x^i."""
        return tuple((P + M) // 2 for P, M in zip(self.plus, self.minus))

    @property
    def g_coeffs(self) -> tuple[int, ...]:
        """The a-part: coefficients of a * x^i."""
        return tuple((P - M) // 2 for P, M in zip(self.plus, self.minus))

    # -- ring arithmetic ---------------------------------------------------

    @staticmethod
    def _per_image(op, *operands) -> "AlphaSeries":
        """op on the plus images and on the minus images, truncated to the shortest.

        Operands with no a-part have equal images, and so has the result:
        op then runs once.
        """
        if not all(isinstance(s, AlphaSeries) for s in operands):
            return NotImplemented
        k = min(len(s.plus) for s in operands)
        plus = op(*(s.plus[:k] for s in operands))
        if all(s.plus == s.minus for s in operands):
            return AlphaSeries._from_images(plus, plus)
        return AlphaSeries._from_images(plus, op(*(s.minus[:k] for s in operands)))

    def __add__(self, other: "AlphaSeries") -> "AlphaSeries":
        return self._per_image(lambda u, v: tuple(map(add, u, v)), self, other)

    def __neg__(self) -> "AlphaSeries":
        return self._per_image(lambda u: tuple(map(neg, u)), self)

    def __sub__(self, other: "AlphaSeries") -> "AlphaSeries":
        return self._per_image(lambda u, v: tuple(map(sub, u, v)), self, other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._per_image(lambda u: tuple(other * c for c in u), self)
        return self._per_image(_convolve, self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "AlphaSeries":
        """self ** exponent in one pass per image, by the product recurrence.

        An image x^v P with p_0 != 0 goes to x^(v e) P^e, and P^e is the
        one-factor product of the module docstring: Miller's recurrence,
        O(N * nnz(P)) per image whatever the exponent.  The zero series
        gives one at exponent 0 and zero otherwise.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return self._per_image(lambda u: _power(u, exponent), self)

    def geometric_factor(self) -> "AlphaSeries":
        """Multiply by 1 + x^2 + x^4 + ... , i.e. divide formally by 1 - x^2."""
        return self._per_image(_accumulate_even, self)

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
    formal division is ever performed.  At a = 1 every coefficient is 1, at
    a = -1 the signs alternate.
    """
    if p < 1:
        raise ValueError("p must be positive")
    degrees = range(truncation_degree + 1)
    return AlphaSeries._from_images(
        [int(i < p) for i in degrees], [(-1) ** i * (i < p) for i in degrees]
    )


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
