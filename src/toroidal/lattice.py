"""The type calculus for Z/p-lattices.

A finitely generated free abelian group with a Z/p-action decomposes, after
localizing at p, into three kinds of indecomposable summands: rank-(p-1)
modules coming from ideal classes of the p-th cyclotomic integers, rank-p
projective modules, and trivial rank-1 summands.  The multiplicities
(r, s, t) classify the lattice for every purpose of this package: the
generating function of the lattice, the types of its exterior powers, and
the periodic group cohomology all depend only on the triple.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ConsistencyError, _Value, require_int
from .series import AlphaSeries, _factor_product


# the first 13 primes as Miller-Rabin bases decide primality exactly below
# PRIME_TEST_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or past PRIME_TEST_LIMIT.

    A float or a string raises ValueError too, as in LatticeType.
    """
    if type(n) is not int:
        n = require_int(n, "numbers tested for primality")
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(
            f"{n} is too large to test for primality exactly "
            f"(limit {PRIME_TEST_LIMIT})"
        )
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=1)
def _f_images(p: int, r: int, s: int, t: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The images of the generating function of type (r, s, t), to degree n.

    Each image is one product recurrence.  At a = 1 the cyclotomic factor
    is (1 - x^p) / (1 - x); at a = -1 it is (1 + x^p) / (1 + x) for odd p
    and 1 - x at p = 2, where the projective factor is 1 - x^2.
    """
    # 1 + sigma x^q as (degree, coefficient) pairs
    one_minus_xp, one_minus_x = ((0, 1), (p, -1)), ((0, 1), (1, -1))
    one_plus_xp, one_plus_x = ((0, 1), (p, 1)), ((0, 1), (1, 1))
    plus = _factor_product({one_minus_xp: r, one_minus_x: -r, one_plus_xp: s, one_plus_x: t}, n)
    if p == 2:
        return plus, _factor_product({one_minus_x: r, one_minus_xp: s, one_plus_x: t}, n)
    return plus, _factor_product({one_plus_xp: r + s, one_plus_x: t - r}, n)


class LatticeType(_Value):
    """The triple (r, s, t) together with the prime p.

    r counts ideal-class summands of rank p-1, s projective summands of
    rank p, t trivial summands; the underlying abelian group has rank
    r(p-1) + sp + t.
    """

    p: int
    r: int
    s: int
    t: int

    def __init__(self, p: int, r: int, s: int, t: int) -> None:
        if not type(p) is type(r) is type(s) is type(t) is int:
            # a bool becomes 0 or 1; a float or a string raises
            p, r, s, t = (require_int(v, "p, r, s and t") for v in (p, r, s, t))
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        for name, v in zip("rst", (r, s, t)):
            if v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    @property
    def rank(self) -> int:
        return self.r * (self.p - 1) + self.s * self.p + self.t

    # -- generating function ---------------------------------------------

    def f_series(self, truncation_degree: int | None = None) -> AlphaSeries:
        """The rank generating function of the exterior powers.

        The product of one cyclotomic-quotient factor per ideal-class
        summand, one (1 + e_p x^p) per projective summand and one (1 + x)
        per trivial summand.  Defaults to truncation at rank + 1, which is
        one degree more than the series can be nonzero.

        F is a polynomial of degree rank: it is computed to
        min(truncation, rank) and padded with zeros.  The last type's
        polynomial is kept, since a cohomology table reads F in
        quotient_cohomology, torsion_series and equivariant_cohomology.
        """
        n = self.rank + 1 if truncation_degree is None else truncation_degree
        if n < 0:
            raise ValueError("truncation degree must be nonnegative")
        m = min(n, self.rank)
        plus, minus = _f_images(self.p, self.r, self.s, self.t, m)
        pad = (0,) * (n - m)
        return AlphaSeries._from_images(plus + pad, minus + pad)

    # -- derived structure -------------------------------------------------

    def fixed_ranks(self, series: AlphaSeries, top: int) -> list[int]:
        """Ranks h_0..h_top of the Z/p-fixed parts of the exterior powers.

        p*h_k = C(n, k) + (p-1)(f_k - g_k), where f_k - g_k is the degree-k
        coefficient of the generating function series at a = -1.  The
        binomials come from one walk along the row,
        C(n, k + 1) = C(n, k)(n - k)/(k + 1).  A remainder or a negative h_k
        is mathematically impossible and raises ConsistencyError rather than
        being clamped.
        """
        n, p = self.rank, self.p
        out = []
        binomial = 1
        for k, m_k in enumerate(series.minus[: top + 1]):
            h_k, rem = divmod(binomial + (p - 1) * m_k, p)
            if rem or h_k < 0:
                raise ConsistencyError(
                    f"invalid fixed rank in degree {k} for {self}: "
                    f"C({n},{k}) + ({p}-1)({m_k}) over {p}"
                )
            out.append(h_k)
            binomial = binomial * (n - k) // (k + 1)
        return out

    def __str__(self) -> str:
        return f"(r={self.r}, s={self.s}, t={self.t}) at p={self.p}"
