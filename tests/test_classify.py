import random
import sys
from itertools import product

import pytest

import toroidal.snf
from conftest import (
    block_diag,
    conjugate,
    cyclic_permutation_matrix,
    cyclotomic_companion_matrix,
    sign_matrix,
    zero_matrix,
)
from toroidal.classify import (
    classify,
    cohomology_from_matrix,
    is_trivial_action,
    norm_matrix,
    verify_order,
)
from toroidal.lattice import LatticeType
from toroidal.oracle import rational_alpha_oracle
from toroidal.snf import IntMatrix


def test_verify_order_examples():
    assert verify_order(sign_matrix(3), 2)
    assert verify_order(cyclic_permutation_matrix(3), 3)
    assert not verify_order(IntMatrix.from_rows([[1, 1], [0, 1]]), 2)
    with pytest.raises(ValueError):
        verify_order(zero_matrix(2, 3), 2)
    with pytest.raises(ValueError):
        verify_order(IntMatrix.identity(2), 4)


def test_is_trivial_action():
    assert is_trivial_action(IntMatrix.identity(3))
    assert not is_trivial_action(sign_matrix(3))


def test_classify_canonical_matrices():
    assert classify(sign_matrix(2), 2) == LatticeType(2, 2, 0, 0)
    assert classify(cyclic_permutation_matrix(3), 3) == LatticeType(3, 0, 1, 0)
    assert classify(cyclotomic_companion_matrix(3), 3) == LatticeType(3, 1, 0, 0)
    for n, p in [(1, 2), (2, 5), (3, 3)]:
        assert classify(IntMatrix.identity(n), p) == LatticeType(p, 0, 0, n)


def test_companion_matrix_shape():
    c3 = cyclotomic_companion_matrix(3)
    assert c3 == IntMatrix.from_rows([[0, -1], [1, -1]])
    for p in (2, 3, 5, 7):
        c = cyclotomic_companion_matrix(p)
        assert verify_order(c, p)
        assert classify(c, p) == LatticeType(p, 1, 0, 0)


def test_classify_rejects_wrong_order():
    with pytest.raises(ValueError):
        classify(IntMatrix.from_rows([[1, 1], [0, 1]]), 2)
    with pytest.raises(ValueError):
        classify(sign_matrix(2), 3)


@pytest.fixture
def matmuls(monkeypatch):
    """Count IntMatrix products, every @ and every step of a power."""
    calls = []
    real = IntMatrix.__matmul__

    def counted(self, other):
        calls.append(self.rows)
        return real(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return calls


def test_classify_climbs_one_power_ladder(matmuls):
    # p = 11 = 0b1011: the norm's ladder takes 3 squarings and 2 products by
    # A and ends on A^11, which is also the order check; the three steps
    # N(2k) = N(k) + A^k N(k) are sums over the packed norm, not products
    a = block_diag(
        cyclotomic_companion_matrix(11), cyclic_permutation_matrix(11), IntMatrix.identity(1)
    )
    assert classify(a, 11) == LatticeType(11, 1, 1, 1)
    assert len(matmuls) == 5


SWAP = IntMatrix.from_rows([[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "A, p, message",
    [
        # returned (I, A)
        (SWAP, 0, "the norm needs p >= 1, got 0"),
        # read the minus sign of bin(-3) as a bit: [[4, 3], [3, 4]]
        (SWAP, -3, "the norm needs p >= 1, got -3"),
        # bin() raised TypeError
        (SWAP, 3.0, "norm exponents must be integers, got 3.0"),
        # failed inside the first product
        (zero_matrix(2, 3), 3, "the norm needs a square matrix"),
    ],
    ids=["zero", "negative", "float", "non-square"],
)
def test_norm_matrix_refuses_bad_input(A, p, message):
    with pytest.raises(ValueError) as excinfo:
        norm_matrix(A, p)
    assert str(excinfo.value) == message
    assert norm_matrix(SWAP, 1) == (IntMatrix.identity(2), SWAP)


def test_classify_does_not_call_verify_order(monkeypatch):
    def refuse(A, p):
        raise AssertionError("classify called verify_order")

    monkeypatch.setattr(sys.modules["toroidal.classify"], "verify_order", refuse)
    assert classify(cyclotomic_companion_matrix(5), 5) == LatticeType(5, 1, 0, 0)
    with pytest.raises(ValueError, match="A\\^2 = I"):
        classify(IntMatrix.from_rows([[1, 1], [0, 1]]), 2)


def test_a_small_matrix_at_a_huge_prime_is_refused_before_any_product(matmuls):
    # below n = p - 1 only the identity has order p: no ladder towards A^(2^61)
    p = 2**61 - 1
    with pytest.raises(ValueError) as excinfo:
        classify(IntMatrix.from_rows([[2, 1], [1, 1]]), p)
    assert str(excinfo.value) == f"matrix does not satisfy A^{p} = I; not an order-{p} action"
    assert not verify_order(IntMatrix.from_rows([[2, 1], [1, 1]]), p)
    assert matmuls == []


def test_classify_conjugation_invariance():
    rng = random.Random(1234)
    seeds = [
        (sign_matrix(2), 2),
        (cyclic_permutation_matrix(3), 3),
        (cyclotomic_companion_matrix(5), 5),
        (block_diag(sign_matrix(1), IntMatrix.identity(2)), 2),
    ]
    for a, p in seeds:
        base = classify(a, p)
        for _ in range(8):
            assert classify(conjugate(a, rng), p) == base


def test_classify_reduces_each_map_once(snf_reductions):
    # one complex A - I, N serves both quotients: two reductions, N first.
    # N has invariant factors 1 (the rank-p summand) and p (the trivial
    # one); only its +-1 pivot clears a row of A - I, so 6 - 1 rows are left
    rng = random.Random(3)
    a = block_diag(
        cyclotomic_companion_matrix(3),
        cyclic_permutation_matrix(3),
        IntMatrix.identity(1),
    )
    assert classify(conjugate(a, rng), 3) == LatticeType(3, 1, 1, 1)
    assert snf_reductions == [6, 5]


def test_classify_hands_over_the_rows_it_builds(monkeypatch):
    # N is reduced first, and d_0 = A - I gets its n rows less those N's
    # +-1 pivots clear; both matrices are classify's own, so no row handed
    # is one of A's, and A comes back unchanged
    a = block_diag(
        cyclotomic_companion_matrix(3),
        cyclic_permutation_matrix(3),
        IntMatrix.identity(1),
    )
    A = conjugate(a, random.Random(3))
    before = A.to_rows()
    handed, real = [], toroidal.snf.sparse_smith_normal_form

    def spy(rows):
        ids, copies = {id(r) for r in rows}, [dict(r) for r in rows]
        divisors, rank, pivots = real(rows)
        handed.append((ids, copies, pivots))
        return divisors, rank, pivots

    monkeypatch.setattr(toroidal.snf, "sparse_smith_normal_form", spy)
    assert classify(A, 3) == LatticeType(3, 1, 1, 1)
    (norm_ids, _, cleared), (ids, copies, _) = handed
    a_minus_one = (A - IntMatrix.identity(A.rows))._row_dicts
    assert copies == [r for j, r in enumerate(a_minus_one) if j not in cleared]
    assert len(ids) == A.rows - len(cleared) == 5
    assert not (norm_ids | ids) & {id(r) for r in A._row_dicts}
    assert A.to_rows() == before


def test_classify_block_sums_add():
    rng = random.Random(5)
    pieces = [
        (sign_matrix(1), LatticeType(2, 1, 0, 0)),
        (IntMatrix.identity(1), LatticeType(2, 0, 0, 1)),
        (cyclic_permutation_matrix(2), LatticeType(2, 0, 1, 0)),
    ]
    for (a, ta), (b, tb) in product(pieces, repeat=2):
        combined = classify(block_diag(a, b), 2)
        assert combined == LatticeType(2, ta.r + tb.r, ta.s + tb.s, ta.t + tb.t)
    del rng


def test_rank_identity_and_fixed_subspace():
    cases = [
        (sign_matrix(4), 2),
        (cyclic_permutation_matrix(3), 3),
        (cyclotomic_companion_matrix(5), 5),
        (block_diag(cyclic_permutation_matrix(3), IntMatrix.identity(2)), 3),
    ]
    for a, p in cases:
        L = classify(a, p)
        assert L.r * (p - 1) + L.s * p + L.t == a.rows
        # degree-1 invariants are the fixed subspace
        assert rational_alpha_oracle(a, p)[1] == L.s + L.t


def test_cohomology_from_matrix_examples():
    assert cohomology_from_matrix(sign_matrix(3), 2, 3).entries == (
        (1, 0),
        (0, 0),
        (3, 0),
        (0, 1),
    )
    assert cohomology_from_matrix(IntMatrix.identity(2), 5, 2).entries == (
        (1, 0),
        (2, 0),
        (1, 0),
    )
    interval_times_circle = block_diag(sign_matrix(1), IntMatrix.identity(1))
    assert classify(interval_times_circle, 2) == LatticeType(2, 1, 0, 1)
    assert cohomology_from_matrix(interval_times_circle, 2, 2).entries == (
        (1, 0),
        (1, 0),
        (0, 0),
    )


def test_permutation_matrix_blocks():
    # m disjoint p-cycles form m regular representations
    for p in (2, 3):
        two_blocks = block_diag(
            cyclic_permutation_matrix(p), cyclic_permutation_matrix(p)
        )
        assert classify(two_blocks, p) == LatticeType(p, 0, 2, 0)
