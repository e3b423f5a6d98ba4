"""Integral cohomology of torus quotients by Z/p and related pipelines.

For a torus with a Z/p-action of lattice type (r, s, t) and rank n, each
cohomology group of the quotient is Z^a + (Z/p)^b.  The free ranks come from
the coefficients of the lattice's generating function; the torsion ranks are
read off a second series built from the same factors.  This module also
computes the Borel (equivariant) cohomology, the fixed-point structure, field
Betti numbers, and an independent second torsion pipeline that goes through
the relative cohomology of the pair (quotient, fixed set) and reassembles the
trivial factors afterwards; the two pipelines must agree and a mismatch
raises ConsistencyError.
"""

from __future__ import annotations

from math import comb

from .errors import ConsistencyError, _Value
from .lattice import LatticeType, is_prime
from .series import (
    AlphaSeries,
    ideal_summand_factor,
    projective_summand_factor,
    trivial_summand_factor,
)


class CohomologyTable(_Value):
    """Per-degree structure of H^k: entries[k] = (free rank, p-torsion rank).

    Holds the quotient's table and the Borel construction's alike.
    """

    p: int
    entries: tuple[tuple[int, int], ...]

    def __init__(self, p: int, entries: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", entries)

    @property
    def max_degree(self) -> int:
        return len(self.entries) - 1

    def free_ranks(self) -> list[int]:
        return [a for a, _ in self.entries]

    def betti_numbers(self, characteristic: int) -> list[int]:
        """dim H^k with coefficients in a field of the characteristic, k < max_degree.

        In characteristic 0 or any prime other than p the dimension is the
        free rank.  In characteristic p the universal coefficient theorem
        adds the torsion ranks of the degree and the next degree (all
        torsion is elementary abelian p), so the last degree is left out.
        """
        if characteristic != self.p:
            return self.free_ranks()[:-1]
        return [a + b + b_next for (a, b), (_, b_next) in zip(self.entries, self.entries[1:])]

    def __getitem__(self, k: int) -> tuple[int, int]:
        return self.entries[k]

    def group_string(self, k: int) -> str:
        a, b = self.entries[k]
        parts = []
        if a:
            parts.append("Z" if a == 1 else f"Z^{a}")
        if b:
            parts.append(f"(Z/{self.p})" if b == 1 else f"(Z/{self.p})^{b}")
        return " ⊕ ".join(parts) if parts else "0"


class FixedPointStructure(_Value):
    """The fixed set is a disjoint union of component_count tori."""

    component_count: int
    component_torus_dim: int

    def __init__(self, component_count: int, component_torus_dim: int) -> None:
        object.__setattr__(self, "component_count", component_count)
        object.__setattr__(self, "component_torus_dim", component_torus_dim)


def torsion_series(L: LatticeType, truncation_degree: int | None = None) -> AlphaSeries:
    """The torsion generating series of the quotient.

    x (1+x)^t / (1 - x^2) times the bracket

        p^r x^2 (1+x)^s  -  x^2  +  1  -  (1 + a x)(1 + e_p x^p)^s Phi^r

    where Phi is the degree-(p-1) cyclotomic-quotient polynomial.  The
    plain-part coefficient in degree k is the p-torsion rank of H^k of the
    quotient; the a-part is a bookkeeping byproduct with no interpretation.

    Since (1+x)^t (1 + e_p x^p)^s Phi^r is the generating function F, the
    series is built as x [p^r x^2 (1+x)^(s+t) + (1 - x^2)(1+x)^t - (1 + a x) F]
    over 1 - x^2: every product has an operand of one or two terms, so each
    costs O(N).
    """
    n = L.rank + 1 if truncation_degree is None else truncation_degree
    x = AlphaSeries.monomial(1, 1, n)
    x2 = AlphaSeries.monomial(1, 2, n)
    one = AlphaSeries.one(n)
    one_plus_x = trivial_summand_factor(n)
    numerator = x * (
        (L.p**L.r) * x2 * one_plus_x ** (L.s + L.t)
        + (one - x2) * one_plus_x**L.t
        - (one + AlphaSeries.monomial(1, 1, n, alpha=True)) * L.f_series(n)
    )
    return numerator.geometric_factor()


def quotient_cohomology(
    L: LatticeType, max_degree: int | None = None
) -> CohomologyTable:
    """The cohomology table of the torus quotient for a lattice type.

    Free rank in degree k:  [C(n, k) + (p-1)(f_k - g_k)] / p  from the
    generating function; torsion rank: the plain part of torsion_series.
    Defaults to degrees 0..n+1 so that the universal-coefficient rule for
    mod-p Betti numbers never reads past the table.  Violations of
    integrality or positivity are impossible for valid inputs and raise
    ConsistencyError with both series attached.

    The torsion series times 1 - x^2 is a polynomial of degree at most
    n + 3, so past that degree its coefficients repeat with period 2: zeros
    checked through degree n + 3 force every later zero, and the series are
    computed no further.
    """
    n = L.rank
    K = n + 1 if max_degree is None else max_degree
    if K < 0:
        raise ValueError("max_degree must be nonnegative")
    top = min(K, n + 3)
    F = L.f_series(max(top, n))
    T = torsion_series(L, top)
    entries = []
    for k, (a, b) in enumerate(zip(L.fixed_ranks(F, top), T.f_coeffs)):
        if b < 0 or (k > n and (a or b)):
            raise ConsistencyError(
                f"invalid table entry at degree {k} for {L}: free part "
                f"{a}, torsion {b}\n  rank series: {F}\n  torsion series: {T}"
            )
        entries.append((a, b))
    if entries[0] != (1, 0):
        raise ConsistencyError(f"quotient not connected for {L}: H^0 = {entries[0]}")
    entries += [(0, 0)] * (K - top)
    return CohomologyTable(L.p, tuple(entries))


def equivariant_cohomology(
    L: LatticeType, max_degree: int | None = None
) -> CohomologyTable:
    """Borel-construction cohomology: Z^a_k + (Z/p)^b_k per degree.

    The free ranks agree with the quotient table.  The torsion ranks are the
    direct sum over the collapsed spectral sequence: degree j of the base
    contributes f_j in even positive complementary degree and g_j in odd,
    where (f, g) is the split of the generating function (the exterior power
    of the lattice in degree j has g_j ideal-class and f_j trivial summands).
    The generating function has degree n, so from degree n + 1 on the table
    repeats with period 2.
    """
    n = L.rank
    K = n + 1 if max_degree is None else max_degree
    if K < 0:
        raise ValueError("max_degree must be nonnegative")
    F = L.f_series(n)
    f, g = F.f_coeffs, F.g_coeffs
    fixed = L.fixed_ranks(F, n)
    # running sums over j < k of f_j and of g_j, split by the parity of j
    f_sums, g_sums = [0, 0], [0, 0]
    entries = []
    for k in range(min(K, n + 2) + 1):
        entries.append(
            (fixed[k] if k <= n else 0, f_sums[k % 2] + g_sums[1 - k % 2])
        )
        if k <= n:
            f_sums[k % 2] += f[k]
            g_sums[k % 2] += g[k]
    for k in range(n + 3, K + 1):
        entries.append(entries[k - 2])
    return CohomologyTable(L.p, tuple(entries))


def fixed_point_set(L: LatticeType) -> FixedPointStructure:
    """p^r components, each a torus of dimension s + t."""
    return FixedPointStructure(
        component_count=L.p**L.r, component_torus_dim=L.s + L.t
    )


def betti_over_field(
    L: LatticeType, characteristic: int, max_degree: int | None = None
) -> list[int]:
    """dim H^k of the quotient with field coefficients, degrees 0..max_degree.

    CohomologyTable.betti_numbers of the table through max_degree + 1.
    """
    if characteristic != 0 and not is_prime(characteristic):
        raise ValueError("characteristic must be 0 or a prime")
    K = L.rank + 1 if max_degree is None else max_degree
    if K < 0:
        raise ValueError("max_degree must be nonnegative")
    return quotient_cohomology(L, K + 1).betti_numbers(characteristic)


def pair_torsion_series(
    L: LatticeType, truncation_degree: int | None = None
) -> AlphaSeries:
    """Torsion series of the pair (Borel construction, fixed set), t = 0 only.

    x / (1 - x^2) times the bracket

        (1+x)^s (p^r x^2 - x^2 + 1)  -  (1 + a x)(1 + e_p x^p)^s Phi^r.

    The plain part in degree k is the p-torsion dimension of the degree-k
    relative equivariant cohomology group.
    """
    if L.t != 0:
        raise ValueError("pair torsion series is defined for types with t = 0")
    n = L.rank + 1 if truncation_degree is None else truncation_degree
    x2 = AlphaSeries.monomial(1, 2, n)
    orbit_term = (
        (AlphaSeries.one(n) + AlphaSeries.monomial(1, 1, n, alpha=True))
        * projective_summand_factor(L.p, n) ** L.s
        * ideal_summand_factor(L.p, n) ** L.r
    )
    bracket = trivial_summand_factor(n) ** L.s * (
        (L.p**L.r) * x2 - x2 + AlphaSeries.one(n)
    ) - orbit_term
    return (AlphaSeries.monomial(1, 1, n) * bracket).geometric_factor()


def torsion_from_pair(L: LatticeType, max_degree: int | None = None) -> list[int]:
    """Torsion ranks recomputed through the relative-pair pipeline.

    For the (r, s, 0) part the torsion of the quotient is the pair series
    minus the correction x[(1+x)^s - 1]; trivial summands are restored by
    tensoring with the cohomology of a t-torus, i.e. a binomial convolution.
    The result must match the plain part of torsion_series; this function
    exists as an independent second route and raises ConsistencyError on any
    mismatch.
    """
    K = L.rank + 1 if max_degree is None else max_degree
    base = LatticeType(L.p, L.r, L.s, 0)
    lam = pair_torsion_series(base, K).f_coeffs
    beta_base = [
        lam[k] - (comb(L.s, k - 1) if k >= 2 else 0) for k in range(K + 1)
    ]
    beta = [
        sum(comb(L.t, j) * beta_base[k - j] for j in range(min(L.t, k) + 1))
        for k in range(K + 1)
    ]
    direct = list(torsion_series(L, K).f_coeffs)
    if beta != direct:
        raise ConsistencyError(
            f"torsion pipelines disagree for {L}:\n"
            f"  via pair + correction + trivial factors: {beta}\n"
            f"  via torsion series:                      {direct}"
        )
    return beta
