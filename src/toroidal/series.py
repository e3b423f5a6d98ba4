"""Exact truncated power series over the ring Z[a]/(a^2 - 1).

Every generating function used by this package lives in
Z[a]/(a^2 - 1)[x] / (x^(N+1)) for some truncation degree N.  Sending a to 1
and to -1 is an injective ring map into Z[x] x Z[x], so a series f + g a is
stored as two integer series, plus = f + g and minus = f - g.  Arithmetic
acts on each image alone, with no a*a cross terms, and f = (plus + minus)/2,
g = (plus - minus)/2 exactly.  All coefficients are Python ints, so nothing
ever overflows; binomial-sized coefficients such as C(88, 44) are routine.

Powers take one pass per image by J.C.P. Miller's recurrence (Knuth, TAOCP
Vol. 2, section 4.7; Henrici, Applied and Computational Complex Analysis I,
section 1.6).  Write an image as x^v P with p_0 != 0.  Then Q = P^e solves
P Q' = e P' Q, so q_0 = p_0^e and, for k >= 1,

    k p_0 q_k = sum_{j=1..k} ((e + 1) j - k) p_j q_(k-j),

and the power is x^(v e) Q.  Q is an integer series, so every division by
k p_0 is exact; a remainder would be a bug and raises ConsistencyError.  The
sum runs over P's nonzero coefficients only, so a power costs
O(N * nnz(P)) big-int operations per image whatever e is; every factor of
the paper's generating functions has at most p nonzero terms.

A whole product P = prod (1 + sigma x^q)^e, with sigma = +-1 and e any
integer, takes one pass too (Stanley, "Differentiably finite power series",
European J. Combin. 1 (1980); Enumerative Combinatorics 2, section 6.4).
Let D = prod (1 + sigma x^q) over the distinct factors and
E = D P'/P = sum e sigma q x^(q-1) D / (1 + sigma x^q), both polynomials.
Then D P' = E P and p_0 = 1, so for k >= 0

    (k + 1) p_(k+1) = sum_i (E_i + i d_(i+1) - d_(i+1) k) p_(k-i),

and the sum runs over the nonzero terms of E and D below the truncation,
whatever p or the exponents are.  The division by k + 1 is exact, since P
is an integer series.  This is how each image of a lattice's generating
function is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, neg, sub

from .errors import ConsistencyError, require_int


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
    """coeffs ** e truncated to the same length, by Miller's recurrence."""
    n = len(coeffs)
    v = next((i for i, c in enumerate(coeffs) if c), None)
    if v is None:
        return (int(e == 0),) + (0,) * (n - 1)
    shift = v * e
    if shift >= n:
        return (0,) * n
    p0 = coeffs[v]
    # (j, p_j, (e + 1) j p_j) over the nonzero p_j with 1 <= j < n - shift
    support = [
        (j, c, (e + 1) * j * c)
        for j, c in enumerate(coeffs[v + 1 : v + n - shift], start=1)
        if c
    ]
    q = [p0**e]
    for k in range(1, n - shift):
        total = 0
        for j, c, w in support:
            if j > k:
                break
            total += (w - k * c) * q[k - j]
        qk, remainder = divmod(total, k * p0)
        if remainder:
            raise ConsistencyError(
                f"power recurrence left remainder {remainder} at degree {k}"
            )
        q.append(qk)
    return (0,) * shift + tuple(q)


def _factor_product(
    factors: dict[tuple[int, int], int], truncation_degree: int
) -> tuple[int, ...]:
    """prod (1 + sigma x^q)^e over factors {(q, sigma): e}.

    sigma is 1 or -1, q >= 1 and e any integer.  Truncated at the given
    degree, in one pass by the recurrence of D P' = E P (module docstring).
    """
    if truncation_degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    n = truncation_degree + 1  # coefficients needed
    # a factor with q >= n is 1 to this length
    live = [(q, sigma, e) for (q, sigma), e in factors.items() if e and q < n]

    def expand(terms) -> dict[int, int]:
        """prod (1 + sigma x^q) over terms, as {degree: coefficient} below n."""
        out = {0: 1}
        for q, sigma in terms:
            step = dict(out)
            for i, c in out.items():
                if i + q < n:
                    step[i + q] = step.get(i + q, 0) + sigma * c
            out = step
        return out

    d = expand((q, sigma) for q, sigma, _ in live)
    # E = D P'/P = sum e sigma q x^(q-1) prod over the other factors
    E: dict[int, int] = {}
    for j, (q, sigma, e) in enumerate(live):
        others = expand((q2, s2) for q2, s2, _ in live[:j] + live[j + 1 :])
        for i, c in others.items():
            E[i + q - 1] = E.get(i + q - 1, 0) + e * sigma * q * c
    # (i, a_i, b_i) with (k + 1) P_(k+1) = sum (a_i - b_i k) P_(k-i)
    support = []
    for i in sorted(set(E) | {i - 1 for i in d if i}):
        a, b = E.get(i, 0) + i * d.get(i + 1, 0), d.get(i + 1, 0)
        if (a or b) and i < n - 1:
            support.append((i, a, b))
    P = [1]
    for k in range(n - 1):
        total = 0
        for i, a, b in support:
            if i > k:
                break
            total += (a - b * k) * P[k - i]
        coeff, remainder = divmod(total, k + 1)
        if remainder:
            raise ConsistencyError(
                f"product recurrence left remainder {remainder} at degree {k + 1}"
            )
        P.append(coeff)
    return tuple(P)


def _accumulate_even(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Multiply by 1 + x^2 + x^4 + ... , i.e. divide formally by 1 - x^2."""
    out = list(coeffs)
    for k in range(2, len(out)):
        out[k] += out[k - 2]
    return tuple(out)


@dataclass(frozen=True, init=False)
class AlphaSeries:
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
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        c = require_int(c, "series coefficients")
        plus = [c if i == degree else 0 for i in range(truncation_degree + 1)]
        return cls._from_images(plus, [-v for v in plus] if alpha else plus)

    # -- structure -------------------------------------------------------

    @property
    def truncation_degree(self) -> int:
        return len(self.plus) - 1

    @property
    def f_coeffs(self) -> tuple[int, ...]:
        """The plain part: coefficients of x^i."""
        return tuple((P + M) // 2 for P, M in zip(self.plus, self.minus))

    @property
    def g_coeffs(self) -> tuple[int, ...]:
        """The a-part: coefficients of a * x^i."""
        return tuple((P - M) // 2 for P, M in zip(self.plus, self.minus))

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
        return AlphaSeries._from_images(self.plus[:k], self.minus[:k])

    def is_zero(self) -> bool:
        return not any(self.plus) and not any(self.minus)

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
        """self ** exponent in one pass per image, by Miller's recurrence.

        On an image x^v P with p_0 != 0, Q = P^e has q_0 = p_0^e and
        k p_0 q_k = sum_{j=1..k} ((e + 1) j - k) p_j q_(k-j) for k >= 1; the
        result is x^(v e) Q.  The division is exact because Q is integral.
        The cost is O(N * nnz(P)) per image, independent of the exponent.
        The zero series gives one at exponent 0 and zero otherwise.
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
