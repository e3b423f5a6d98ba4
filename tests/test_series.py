import random

import pytest

from conftest import alpha_geometric, ref_f_series, ref_mul, ref_split
from toroidal.series import (
    AlphaSeries,
    ideal_summand_factor,
    projective_summand_factor,
    trivial_summand_factor,
)


def series(f, g):
    return AlphaSeries(tuple(f), tuple(g))


def test_const():
    assert AlphaSeries.const(1, 4) == series([1, 0, 0, 0, 0], [0] * 5)
    assert AlphaSeries.const(0, 2) == series([0, 0, 0], [0, 0, 0])
    assert AlphaSeries.const(-3, 0) == series([-3], [0])


def test_mul_alpha_relation():
    one_plus_ax = series([1, 0, 0], [0, 1, 0])
    sq = one_plus_ax * one_plus_ax
    assert sq == series([1, 0, 1], [0, 2, 0])
    one_minus_ax = series([1, 0, 0], [0, -1, 0])
    assert one_plus_ax * one_minus_ax == series([1, 0, -1], [0, 0, 0])


def test_add():
    a = series([1, 1], [0, 0])
    b = series([0, 0], [0, 1])
    assert a + b == series([1, 1], [0, 1])


def test_pow_cubed():
    # oracle: hand expansion by direct repeated multiplication:
    # (1 + a x)^3 = 1 + 3 a x + 3 x^2 + a x^3
    base = AlphaSeries.one(3) + AlphaSeries.monomial(1, 1, 3, alpha=True)
    assert base**3 == series([1, 0, 3, 0], [0, 3, 0, 1])
    direct = base * base * base
    assert base**3 == direct


def test_pow_zero_is_one():
    base = trivial_summand_factor(5)
    assert base**0 == AlphaSeries.one(5)


def test_pow_binomial():
    base = AlphaSeries.one(6) + AlphaSeries.monomial(1, 3, 6)
    assert (base**2).f_coeffs == (1, 0, 0, 2, 0, 0, 1)
    assert not any((base**2).g_coeffs)


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        trivial_summand_factor(3) ** -1


def test_geom_factor():
    x = AlphaSeries.monomial(1, 1, 5)
    assert x.geometric_factor().f_coeffs == (0, 1, 0, 1, 0, 1)
    rx_tx2 = AlphaSeries.monomial(2, 1, 4) + AlphaSeries.monomial(3, 2, 4)
    assert rx_tx2.geometric_factor().f_coeffs == (0, 2, 3, 2, 3)
    neg = AlphaSeries.monomial(-2, 2, 4, alpha=True)
    out = neg.geometric_factor()
    assert out.g_coeffs == (0, 0, -2, 0, -2)
    assert not any(out.f_coeffs)


def test_split():
    s = series([1, 0, 1], [0, 2, 0])
    assert (s.f_coeffs, s.g_coeffs) == ((1, 0, 1), (0, 2, 0))
    fsq = (AlphaSeries.one(2) + AlphaSeries.monomial(1, 1, 2, alpha=True)) ** 2
    assert (fsq.f_coeffs, fsq.g_coeffs) == ((1, 0, 1), (0, 2, 0))
    zero = AlphaSeries.const(0, 2)
    assert (zero.f_coeffs, zero.g_coeffs) == ((0, 0, 0), (0, 0, 0))


def test_images_at_a_equal_one_and_minus_one():
    rng = random.Random(11)
    for _ in range(20):
        s = _random_series(rng, rng.randint(0, 6))
        assert s.plus == tuple(f + g for f, g in zip(s.f_coeffs, s.g_coeffs))
        assert s.minus == tuple(f - g for f, g in zip(s.f_coeffs, s.g_coeffs))
    phi = ideal_summand_factor(3, 4)
    assert (phi.plus, phi.minus) == ((1, 1, 1, 0, 0), (1, -1, 1, 0, 0))
    with pytest.raises(ValueError):
        ideal_summand_factor(3, -1)
    with pytest.raises(ValueError):
        AlphaSeries.monomial(1, 0, -1)


def _random_series(rng, degree):
    return AlphaSeries(
        tuple(rng.randint(-4, 4) for _ in range(degree + 1)),
        tuple(rng.randint(-4, 4) for _ in range(degree + 1)),
    )


def test_ring_axioms():
    rng = random.Random(20240501)
    for _ in range(60):
        n = rng.randint(0, 6)
        a, b, c = (_random_series(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * AlphaSeries.one(n) == a
        zero = AlphaSeries.const(0, n)
        assert a * zero == zero


def test_mul_matches_reference_arithmetic():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(0, 5)
        a = _random_series(rng, n)
        b = _random_series(rng, n)
        ra = {}
        for i in range(n + 1):
            if a.f_coeffs[i]:
                ra[(i, 0)] = a.f_coeffs[i]
            if a.g_coeffs[i]:
                ra[(i, 1)] = a.g_coeffs[i]
        rb = {}
        for i in range(n + 1):
            if b.f_coeffs[i]:
                rb[(i, 0)] = b.f_coeffs[i]
            if b.g_coeffs[i]:
                rb[(i, 1)] = b.g_coeffs[i]
        f, g = ref_split(ref_mul(ra, rb, n), n)
        assert list((a * b).f_coeffs) == f
        assert list((a * b).g_coeffs) == g


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cyclotomic_factor_times_one_minus_ax(p):
    n = p + 3
    phi = ideal_summand_factor(p, n)
    one_minus_ax = AlphaSeries.one(n) - AlphaSeries.monomial(1, 1, n, alpha=True)
    product = phi * one_minus_ax
    expected = AlphaSeries.one(n) - AlphaSeries.monomial(
        1, p, n, alpha=bool(p % 2)
    )
    assert product == expected


def test_geom_factor_inverts_one_minus_x_squared():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 8)
        a = _random_series(rng, n)
        one_minus_x2 = AlphaSeries.one(n) - AlphaSeries.monomial(1, 2, n)
        back = a.geometric_factor() * one_minus_x2
        # a sum truncates to its shorter operand
        zero = AlphaSeries.const(0, n - 2)
        assert back + zero == a + zero


def test_epsilon_substitution():
    # the p = 2 factor carries the a-twist; odd primes do not
    assert projective_summand_factor(2, 3) == series([1, 0, 0, 0], [0, 0, 1, 0])
    assert projective_summand_factor(3, 4) == series([1, 0, 0, 1, 0], [0] * 5)
    assert projective_summand_factor(5, 6) == series(
        [1, 0, 0, 0, 0, 1, 0], [0] * 7
    )


def test_factor_products_match_reference():
    for p, r, s, t in [(2, 2, 1, 1), (3, 1, 2, 0), (5, 1, 1, 1)]:
        n = r * (p - 1) + s * p + t
        engine = (
            ideal_summand_factor(p, n) ** r
            * projective_summand_factor(p, n) ** s
            * trivial_summand_factor(n) ** t
        )
        f, g = ref_split(ref_f_series(p, r, s, t, n), n)
        assert list(engine.f_coeffs) == f
        assert list(engine.g_coeffs) == g


def test_truncation_to_minimum():
    a = AlphaSeries.one(5)
    b = trivial_summand_factor(2)
    assert len((a * b).plus) - 1 == 2
    assert len((a + b).plus) - 1 == 2


def test_monomial_beyond_truncation_is_zero():
    assert AlphaSeries.monomial(7, 5, 3) == AlphaSeries.const(0, 3)


def test_alpha_geometric():
    s = alpha_geometric(4)
    assert s.f_coeffs == (1, 0, 1, 0, 1)
    assert s.g_coeffs == (0, 1, 0, 1, 0)


def test_validation_errors():
    with pytest.raises(ValueError):
        AlphaSeries((1, 2), (0,))
    with pytest.raises(ValueError):
        AlphaSeries((), ())
    with pytest.raises(ValueError):
        AlphaSeries.const(1, -1)



@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AlphaSeries.monomial(1, -1, 3), "degree must be nonnegative"),
        (lambda: AlphaSeries.one(-1), "truncation degree must be nonnegative"),
        (lambda: ideal_summand_factor(0, 3), "p must be positive"),
        (lambda: projective_summand_factor(1, 3), "p must be at least 2"),
    ],
    ids=["monomial-degree", "truncated", "ideal-summand", "projective-summand"],
)
def test_series_inputs_are_refused_with_a_message(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_constructors_refuse_non_integer_coefficients():
    # int() would truncate 1.7 to 1 and 0.2 to 0
    with pytest.raises(ValueError, match="series coefficients must be integers, got 1.7"):
        AlphaSeries([1.7], [0.2])
    with pytest.raises(ValueError, match="series coefficients must be integers, got '2'"):
        AlphaSeries([1, 0], [0, "2"])
    with pytest.raises(ValueError, match="series coefficients must be integers, got 0.5"):
        AlphaSeries.monomial(0.5, 1, 3)

def test_negative_coefficients_are_fine():
    s = series([0, 0, -5], [0, -1, 0])
    assert (s + s) == series([0, 0, -10], [0, -2, 0])
    assert (-s) == series([0, 0, 5], [0, 1, 0])
