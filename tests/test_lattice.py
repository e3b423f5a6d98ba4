import random
from itertools import product
from math import comb, isqrt

import pytest

from conftest import ref_exterior_type
from toroidal.errors import ConsistencyError
from toroidal.lattice import PRIME_TEST_LIMIT, LatticeType, is_prime


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_trial_division():
    for n in range(20000):
        expected = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert is_prime(n) == expected, n


def test_is_prime_large():
    # Carmichael numbers and the strong pseudoprime to bases 2..37
    for n in (561, 41041, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_LIMIT)


def test_is_prime_refuses_non_integers():
    # 7.0 passed as a prime, 9.0 as a composite, and 1e12 + 39 raised
    # TypeError from pow
    for bad in (7.0, 9.0, 1e12 + 39, "7"):
        with pytest.raises(ValueError, match="must be integers"):
            is_prime(bad)


def test_rank():
    assert LatticeType(3, 1, 1, 1).rank == 2 + 3 + 1
    assert LatticeType(2, 4, 0, 0).rank == 4


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        LatticeType(4, 1, 0, 0)
    with pytest.raises(ValueError):
        LatticeType(2, -1, 0, 0)
    with pytest.raises(ValueError, match="truncation degree must be nonnegative"):
        LatticeType(3, 1, 1, 1).f_series(-1)


def test_lattice_type_takes_integers_only():
    # a float or a string used to be kept and printed as given: p=5.0, r=True
    for bad in ((5.0, 1, 0, 0), (2, 1.0, 0, 0), (3, 0, "1", 0), (2, 0, 0, 2.7)):
        with pytest.raises(ValueError, match="p, r, s and t must be integers, got"):
            LatticeType(*bad)
    L = LatticeType(2, True, 0, False)
    assert (L.r, L.t) == (1, 0)
    assert type(L.r) is int and repr(L) == "LatticeType(p=2, r=1, s=0, t=0)"
    with pytest.raises(ValueError, match="r must be a nonnegative integer, got -1"):
        LatticeType(2, -1, 0, 0)


def test_f_series_examples():
    s = LatticeType(2, 1, 0, 0).f_series(1)
    assert (s.f_coeffs, s.g_coeffs) == ((1, 0), (0, 1))
    s = LatticeType(3, 1, 0, 0).f_series(2)
    assert (s.f_coeffs, s.g_coeffs) == ((1, 0, 1), (0, 1, 0))
    s = LatticeType(2, 0, 1, 0).f_series(2)
    assert (s.f_coeffs, s.g_coeffs) == ((1, 0, 0), (0, 0, 1))


def test_exterior_type_examples():
    # hand expansion of (1 + a x)^2: f = [1,0,1], g = [0,2,0]
    assert ref_exterior_type(LatticeType(2, 2, 0, 0), 1) == LatticeType(2, 2, 0, 0)
    for L in (LatticeType(2, 2, 0, 0), LatticeType(5, 1, 1, 1)):
        assert ref_exterior_type(L, 0) == LatticeType(L.p, 0, 0, 1)
    # F = 1 + x^3 for the rank-3 projective at p = 3
    assert ref_exterior_type(LatticeType(3, 0, 1, 0), 3) == LatticeType(3, 0, 0, 1)


def test_integrality_and_rank_bookkeeping_grid():
    for p in (2, 3, 5, 7):
        for r, s, t in product(range(5), repeat=3):
            L = LatticeType(p, r, s, t)
            n = L.rank
            if n == 0:
                continue
            total = 0
            for i in range(n + 1):
                ext = ref_exterior_type(L, i)  # raises on any integrality failure
                assert ext.rank == comb(n, i)
                total += ext.rank
            assert total == 2**n


def test_f_series_multiplicative():
    rng = random.Random(42)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        a = LatticeType(p, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        b = LatticeType(p, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        n = a.rank + b.rank + 1
        a_plus_b = LatticeType(p, a.r + b.r, a.s + b.s, a.t + b.t)
        assert a_plus_b.f_series(n) == a.f_series(n) * b.f_series(n)


def test_top_exterior_power_where_determinant_trivial():
    # where the split has f_n = 1, g_n = 0 the top power is the trivial type
    for p in (3, 5):
        for s in (1, 2):
            L = LatticeType(p, 0, s, 0)
            series = L.f_series(L.rank)
            if series.f_coeffs[L.rank] == 1 and series.g_coeffs[L.rank] == 0:
                assert ref_exterior_type(L, L.rank) == LatticeType(p, 0, 0, 1)


def test_exterior_consistency_error_is_not_clamped():
    # sanity: the error type exists and derives from RuntimeError
    assert issubclass(ConsistencyError, RuntimeError)
