import random
import time
from itertools import product
from math import comb

import pytest

from conftest import (
    equivariant_torsion_series,
    ref_exterior_type,
    ref_f_series,
    ref_split,
    ref_torsion_coeffs,
)
from toroidal.cohomology import (
    CohomologyTable,
    betti_over_field,
    equivariant_cohomology,
    fixed_point_set,
    pair_torsion_series,
    quotient_cohomology,
    torsion_from_pair,
    torsion_series,
)
from toroidal.errors import ConsistencyError
from toroidal.lattice import LatticeType
from toroidal.series import (
    AlphaSeries,
    ideal_summand_factor,
    projective_summand_factor,
    trivial_summand_factor,
)


def test_torsion_series_examples():
    # hand expansion of the bracket 2x^2 - x^2 + 1 - (1 + a x)^2 = -2 a x
    s = torsion_series(LatticeType(2, 1, 0, 0), 5)
    assert not any(s.f_coeffs)
    assert s.g_coeffs == (0, 0, -2, 0, -2, 0)
    # bracket x^2(1+x) - x^2 + 1 - (1 + a x)(1 + a x^2) = -a x - a x^2
    s = torsion_series(LatticeType(2, 0, 1, 0), 4)
    assert not any(s.f_coeffs)
    # bracket x^2(1+x) - x^2 + 1 - (1 + a x)(1 + x^3) = -a x - a x^4
    s = torsion_series(LatticeType(3, 0, 1, 0), 5)
    assert not any(s.f_coeffs)


def test_torsion_series_matches_reference_arithmetic():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7, 11])
        L = LatticeType(p, rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2))
        n = L.rank + 1
        f, g = ref_torsion_coeffs(p, L.r, L.s, L.t, n)
        s = torsion_series(L, n)
        assert list(s.f_coeffs) == f
        assert list(s.g_coeffs) == g


def test_quotient_cohomology_examples():
    assert quotient_cohomology(LatticeType(2, 2, 0, 0), 2).entries == (
        (1, 0),
        (0, 0),
        (1, 0),
    )
    assert quotient_cohomology(LatticeType(2, 3, 0, 0), 3).entries == (
        (1, 0),
        (0, 0),
        (3, 0),
        (0, 1),
    )
    assert quotient_cohomology(LatticeType(3, 1, 0, 0), 2).entries == (
        (1, 0),
        (0, 0),
        (1, 0),
    )


def test_table_accessors():
    table = quotient_cohomology(LatticeType(2, 3, 0, 0), 3)
    assert table.free_ranks() == [1, 0, 3, 0]
    assert [b for _, b in table.entries] == [0, 0, 0, 1]
    assert table.group_string(0) == "Z"
    assert table.group_string(1) == "0"
    assert table.group_string(2) == "Z^3"
    assert table.group_string(3) == "(Z/2)"
    assert table[2] == (3, 0)


def test_equivariant_examples():
    # tabulated by summing group cohomology of the exterior powers:
    # degree 2 gets f_0 (even complement) + g_1 (odd complement) = 1 + 1
    eq = equivariant_cohomology(LatticeType(2, 1, 0, 0), 2)
    assert eq[0] == (1, 0)
    assert eq[2] == (0, 2)
    eq = equivariant_cohomology(LatticeType(3, 0, 1, 0), 1)
    assert eq[0] == (1, 0)
    assert eq[1] == (1, 0)


def test_equivariant_free_parts_agree_with_quotient():
    for p in (2, 3, 5):
        for r, s, t in product(range(3), repeat=3):
            L = LatticeType(p, r, s, t)
            K = L.rank + 1
            table = quotient_cohomology(L, K)
            eq = equivariant_cohomology(L, K)
            assert [a for a, _ in eq.entries] == table.free_ranks()


def test_equivariant_matches_exterior_power_sum():
    # independent route: b_k as a literal sum of periodic cohomology
    # dimensions of the exterior-power types.  A type (r, s, t) has
    # p-torsion dimension r in odd positive degrees and t in even ones.
    rng = random.Random(5)
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        L = LatticeType(p, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        n = L.rank
        if n == 0:
            continue
        K = n + 2
        eq = equivariant_cohomology(L, K)
        for k in range(K + 1):
            expected = 0
            for j in range(min(k - 1, n) + 1):
                if k - j > 0:
                    E = ref_exterior_type(L, j)
                    expected += E.r if (k - j) % 2 else E.t
            assert eq[k][1] == expected, (L, k)


def test_equivariant_trivial_type_is_group_cohomology_sum():
    # trivial action: the Borel construction is a product, so each degree is
    # the binomial-weighted sum of the group cohomology of Z/p
    for p, n in [(2, 3), (3, 2), (5, 2)]:
        L = LatticeType(p, 0, 0, n)
        K = n + 3
        eq = equivariant_cohomology(L, K)
        for k in range(K + 1):
            expected_b = sum(
                comb(n, j)
                for j in range(min(n, k - 1) + 1)
                if (k - j) > 0 and (k - j) % 2 == 0
            )
            assert eq[k][1] == expected_b


def test_equivariant_series_variant_records_agreement():
    # the closed-form series and the direct sum agree degree by degree
    for p in (2, 3, 5, 7):
        for r, s, t in product(range(4), repeat=3):
            L = LatticeType(p, r, s, t)
            K = L.rank + 2
            eq = equivariant_cohomology(L, K)
            variant = equivariant_torsion_series(L, K)
            assert [b for _, b in eq.entries] == list(variant.f_coeffs), L


def test_fixed_point_set_examples():
    fp = fixed_point_set(LatticeType(2, 3, 0, 0))
    assert (fp.component_count, fp.component_torus_dim) == (8, 0)
    fp = fixed_point_set(LatticeType(5, 0, 2, 1))
    assert (fp.component_count, fp.component_torus_dim) == (1, 3)
    fp = fixed_point_set(LatticeType(3, 1, 1, 1))
    assert (fp.component_count, fp.component_torus_dim) == (3, 2)


def test_betti_over_field_examples():
    L = LatticeType(2, 3, 0, 0)
    assert betti_over_field(L, 0, 3) == [1, 0, 3, 0]
    # derived from the verified table [(1,0),(0,0),(3,0),(0,1)] by the
    # universal-coefficient rule a_k + b_k + b_(k+1)
    assert betti_over_field(L, 2, 3) == [1, 0, 4, 1]
    assert betti_over_field(L, 7, 3) == betti_over_field(L, 0, 3)
    with pytest.raises(ValueError):
        betti_over_field(L, 4, 3)


def test_mod_p_euler_characteristic_consistency():
    for p in (2, 3, 5):
        for r, s, t in product(range(3), repeat=3):
            L = LatticeType(p, r, s, t)
            n = L.rank
            dims = betti_over_field(L, p, n)
            alphas = quotient_cohomology(L, n).free_ranks()
            assert sum((-1) ** k * d for k, d in enumerate(dims)) == sum(
                (-1) ** k * a for k, a in enumerate(alphas)
            )


def test_pair_torsion_series_examples():
    s = pair_torsion_series(LatticeType(2, 1, 0, 0), 5)
    assert not any(s.f_coeffs)
    s = pair_torsion_series(LatticeType(2, 0, 1, 0), 4)
    assert s.f_coeffs == (0, 0, 1, 0, 0)
    # empty lattice: the bracket collapses to -a x, so every torsion
    # dimension vanishes (the a-part is meaningless bookkeeping)
    s = pair_torsion_series(LatticeType(3, 0, 0, 0), 3)
    assert not any(s.f_coeffs)
    with pytest.raises(ValueError):
        pair_torsion_series(LatticeType(2, 0, 0, 1))


def test_torsion_from_pair_examples():
    assert torsion_from_pair(LatticeType(2, 0, 1, 0), 2) == [0, 0, 0]
    assert torsion_from_pair(LatticeType(3, 1, 0, 0), 2) == [0, 0, 0]
    L = LatticeType(2, 1, 0, 1)
    assert torsion_from_pair(L, 3) == list(torsion_series(L, 3).f_coeffs)


def test_torsion_from_pair_raises_on_forced_mismatch(monkeypatch):
    import toroidal.cohomology as mod

    def broken(L, truncation_degree=None):
        n = L.rank + 1 if truncation_degree is None else truncation_degree
        return AlphaSeries.const(1, n)

    monkeypatch.setattr(mod, "torsion_series", broken)
    with pytest.raises(ConsistencyError):
        mod.torsion_from_pair(LatticeType(2, 1, 0, 0), 2)


def test_an_invalid_table_entry_names_both_series(monkeypatch):
    import toroidal.cohomology as mod

    monkeypatch.setattr(mod, "torsion_series", lambda L, n: AlphaSeries.monomial(-1, 1, n))
    L = LatticeType(2, 1, 0, 0)
    with pytest.raises(ConsistencyError) as caught:
        quotient_cohomology(L, 2)
    assert str(caught.value) == (
        f"invalid table entry at degree 1 for {L}: free part 0, torsion -1\n"
        f"  rank series: {L.f_series(2)}\n  torsion series: -1*x^1"
    )


def test_cyclic_product_examples():
    # the p-fold cyclic product of a circle: type (0, 1, 0)
    def cyclic(p, max_degree=None):
        return quotient_cohomology(LatticeType(p, 0, 1, 0), max_degree)

    assert cyclic(2, 2).entries == ((1, 0), (1, 0), (0, 0))
    assert cyclic(3, 3).entries == ((1, 0), (1, 0), (1, 0), (1, 0))
    assert cyclic(5)[4][1] == 1


def test_specialization_identity_r00():
    # the (r,0,0) series assembled from its own factors, not via torsion_series
    for p in (2, 3, 5):
        for r in range(7):
            L = LatticeType(p, r, 0, 0)
            n = L.rank + 1
            one = AlphaSeries.one(n)
            x2 = AlphaSeries.monomial(1, 2, n)
            ax = AlphaSeries.monomial(1, 1, n, alpha=True)
            bracket = (p**r) * x2 - x2 + one - (one + ax) * (
                ideal_summand_factor(p, n) ** r
            )
            special = (AlphaSeries.monomial(1, 1, n) * bracket).geometric_factor()
            assert special == torsion_series(L, n)


def test_specialization_identity_0s0():
    for p in (2, 3, 5):
        for s in range(6):
            L = LatticeType(p, 0, s, 0)
            n = L.rank + 1
            one = AlphaSeries.one(n)
            x2 = AlphaSeries.monomial(1, 2, n)
            ax = AlphaSeries.monomial(1, 1, n, alpha=True)
            bracket = x2 * trivial_summand_factor(n) ** s - x2 + one - (
                one + ax
            ) * projective_summand_factor(p, n) ** s
            special = (AlphaSeries.monomial(1, 1, n) * bracket).geometric_factor()
            assert special == torsion_series(L, n)


def test_table_sanity_invariants():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        L = LatticeType(p, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        n = L.rank
        table = quotient_cohomology(L, n + 1)
        assert table[0] == (1, 0)
        assert all(a >= 0 and b >= 0 for a, b in table.entries)
        if n >= 1:
            assert table[n][0] in (0, 1)
        assert table[n + 1] == (0, 0)


def test_tables_past_the_rank_match_the_references():
    # neither table computes its series past degree n + 3; the references do
    for p in (2, 3, 5, 7, 11):
        for r, s, t in product(range(3), repeat=3):
            L = LatticeType(p, r, s, t)
            n = L.rank
            K = n + 10
            f, g = ref_split(ref_f_series(p, r, s, t, K), K)
            torsion, _ = ref_torsion_coeffs(p, r, s, t, K)
            free = [(comb(n, k) + (p - 1) * (f[k] - g[k])) // p for k in range(K + 1)]
            borel = [
                sum(f[j] if (k - j) % 2 == 0 else g[j] for j in range(k))
                for k in range(K + 1)
            ]
            assert quotient_cohomology(L, K).entries == tuple(zip(free, torsion)), L
            assert equivariant_cohomology(L, K).entries == tuple(zip(free, borel)), L


def test_tables_at_a_million_degrees_are_fast():
    L = LatticeType(2, 1, 0, 0)
    K = 10**6
    start = time.perf_counter()
    table = quotient_cohomology(L, K)
    assert time.perf_counter() - start < 2.0
    assert table.max_degree == K and table.entries[1:] == ((0, 0),) * K
    start = time.perf_counter()
    eq = equivariant_cohomology(L, K)
    assert time.perf_counter() - start < 2.0
    assert eq.max_degree == K
    assert eq[K - 1] == (0, 0) and eq[K] == (0, 2)


def test_sign_and_trivial_tables_at_high_rank_are_fast():
    # a power of a series costs one pass whatever its exponent, so both
    # tables of a rank-2000 or rank-3000 type take under 3 s; the free
    # ranks are checked against closed forms that use no series
    cases = (
        (LatticeType(2, 2000, 0, 0), lambda n, k: comb(n, k) if k % 2 == 0 else 0),
        (LatticeType(2, 0, 0, 3000), comb),
    )
    for L, free_rank in cases:
        start = time.perf_counter()
        table = quotient_cohomology(L)
        eq = equivariant_cohomology(L)
        assert time.perf_counter() - start < 3.0, L
        free = [free_rank(L.rank, k) for k in range(L.rank + 2)]
        assert table.free_ranks() == eq.free_ranks() == free, L
        if L.r == 0:
            assert not any(b for _, b in table.entries)


def test_negative_max_degree_is_refused():
    L = LatticeType(2, 1, 0, 0)
    for table in (quotient_cohomology, equivariant_cohomology):
        with pytest.raises(ValueError, match="max_degree must be nonnegative"):
            table(L, -1)
    # betti_over_field returned []
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        betti_over_field(L, 0, -1)


def test_default_degree_is_rank_plus_one():
    L = LatticeType(3, 1, 1, 0)
    assert quotient_cohomology(L).max_degree == L.rank + 1


def test_rank_zero_type_is_a_point():
    for p in (2, 3, 7):
        table = quotient_cohomology(LatticeType(p, 0, 0, 0), 2)
        assert table.entries == ((1, 0), (0, 0), (0, 0))


def test_trivial_factors_convolve_the_table():
    # adding t trivial circle factors tensors the table with a t-torus
    for p in (2, 3):
        for r, s, t in product(range(3), range(3), range(1, 3)):
            base = quotient_cohomology(LatticeType(p, r, s, 0))
            full = quotient_cohomology(LatticeType(p, r, s, t))
            for k in range(full.max_degree + 1):
                expected_free = sum(
                    comb(t, j) * base[k - j][0]
                    for j in range(min(t, k) + 1)
                    if k - j <= base.max_degree
                )
                expected_torsion = sum(
                    comb(t, j) * base[k - j][1]
                    for j in range(min(t, k) + 1)
                    if k - j <= base.max_degree
                )
                assert full[k] == (expected_free, expected_torsion), (p, r, s, t, k)


def test_group_string_round_trip_shape():
    table = CohomologyTable(3, ((1, 0), (2, 1), (0, 0)))
    assert table.group_string(1) == "Z^2 ⊕ (Z/3)"
    assert table.group_string(2) == "0"
