"""End-to-end acceptance suite.

Each test covers one numbered criterion, runs it at its stated tolerance
(exact equality throughout, plus the stated runtime budgets) and prints one
PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they go.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import comb

from conftest import (
    block_diag,
    conjugate,
    cyclic_permutation_matrix,
    cyclotomic_companion_matrix,
    ref_torsion_coeffs,
    sign_matrix,
)
from toroidal.classify import classify
from toroidal.cohomology import (
    quotient_cohomology,
    torsion_from_pair,
    torsion_series,
)
from toroidal.lattice import LatticeType
from toroidal.oracle import build_equivariant_torus, rational_alpha_oracle, run_oracle_case
from toroidal.series import (
    AlphaSeries,
    ideal_summand_factor,
    projective_summand_factor,
    trivial_summand_factor,
)
from toroidal.snf import IntMatrix


@contextmanager
def criterion(num, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
    print(f"ACCEPTANCE {num} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_closed_form_p2():
    with criterion(1, "closed form for (r,0,0) at p=2, r <= 10", budget=1.0):
        for r in range(11):
            table = quotient_cohomology(LatticeType(2, r, 0, 0), r + 1)
            for k in range(r + 2):
                expected_free = comb(r, k) if k % 2 == 0 and k <= r else 0
                expected_torsion = (
                    sum(comb(r, j) for j in range(k, r + 1))
                    if k % 2 == 1 and 1 < k <= r
                    else 0
                )
                assert table[k] == (expected_free, expected_torsion), (r, k)


def test_criterion_2_closed_form_general_p():
    with criterion(2, "closed form for (r,0,0) at p in {3,5,7}", budget=5.0):
        for p in (3, 5, 7):
            for r in range(5):
                n = r * (p - 1)
                # independent brute force: enumerate the bounded sequences
                counts = [0] * (n + 1)
                for seq in itertools.product(range(p), repeat=r):
                    counts[sum(seq)] += 1
                table = quotient_cohomology(LatticeType(p, r, 0, 0), n + 1)
                for k in range(n + 2):
                    expected = (
                        sum(counts[j] for j in range(k, n + 1))
                        if k % 2 == 1 and k > 1
                        else 0
                    )
                    assert table[k][1] == expected, (p, r, k)


def test_criterion_3_specialization_identities():
    with criterion(3, "specialization identities at s=t=0 and r=t=0"):
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
                special = (
                    AlphaSeries.monomial(1, 1, n) * bracket
                ).geometric_factor()
                assert special == torsion_series(L, n), (p, r)
            for s in range(7):
                L = LatticeType(p, 0, s, 0)
                n = L.rank + 1
                one = AlphaSeries.one(n)
                x2 = AlphaSeries.monomial(1, 2, n)
                ax = AlphaSeries.monomial(1, 1, n, alpha=True)
                bracket = (
                    x2 * trivial_summand_factor(n) ** s
                    - x2
                    + one
                    - (one + ax) * projective_summand_factor(p, n) ** s
                )
                special = (
                    AlphaSeries.monomial(1, 1, n) * bracket
                ).geometric_factor()
                assert special == torsion_series(L, n), (p, s)


def test_criterion_4_pipeline_equivalence():
    with criterion(4, "pair-series pipeline equals the direct torsion series"):
        for p in (2, 3, 5):
            for r, s, t in itertools.product(range(4), repeat=3):
                L = LatticeType(p, r, s, t)
                n = L.rank + 1
                # torsion_from_pair raises on any mismatch; also compare here
                assert torsion_from_pair(L, n) == list(
                    torsion_series(L, n).f_coeffs
                ), L


def test_criterion_5_integrality_and_positivity():
    with criterion(5, "table integrality and positivity over the full grid"):
        for p in (2, 3, 5, 7, 11):
            for r, s, t in itertools.product(range(5), repeat=3):
                L = LatticeType(p, r, s, t)
                n = L.rank
                # the constructor raises on non-integral or negative entries
                table = quotient_cohomology(L, n + 1)
                assert table[0] == (1, 0)
                assert all(a >= 0 and b >= 0 for a, b in table.entries)
                assert table[n + 1] == (0, 0)
        # deeper truncations on the small primes: everything past n vanishes
        for p in (2, 3):
            for r, s, t in itertools.product(range(3), repeat=3):
                L = LatticeType(p, r, s, t)
                table = quotient_cohomology(L, L.rank + 3)
                assert all(
                    table[k] == (0, 0) for k in range(L.rank + 1, L.rank + 4)
                )


def test_criterion_6_rational_oracle():
    with criterion(6, "rational exterior-power oracle", budget=30.0):
        rng = random.Random(2024)
        cases = [(sign_matrix(n), 2) for n in range(1, 7)]
        cases += [(cyclic_permutation_matrix(p), p) for p in (2, 3, 5)]
        cases += [(cyclotomic_companion_matrix(p), p) for p in (2, 3, 5)]
        cases += [
            (block_diag(cyclotomic_companion_matrix(3), cyclic_permutation_matrix(3)), 3),
            (block_diag(cyclotomic_companion_matrix(5), cyclic_permutation_matrix(5)), 5),
            (block_diag(sign_matrix(2), IntMatrix.identity(2)), 2),
            (conjugate(sign_matrix(3), rng), 2),
            (conjugate(cyclic_permutation_matrix(3), rng), 3),
            (conjugate(cyclotomic_companion_matrix(5), rng), 5),
            (conjugate(block_diag(sign_matrix(1), cyclic_permutation_matrix(2)), rng), 2),
            (
                conjugate(
                    block_diag(cyclotomic_companion_matrix(3), IntMatrix.identity(2)),
                    rng,
                ),
                3,
            ),
        ]
        for a, p in cases:
            table = quotient_cohomology(classify(a, p), a.rows)
            assert rational_alpha_oracle(a, p) == table.free_ranks(), (p, a.rows)


def test_criterion_7_topological_oracle():
    with criterion(7, "topological oracle quotient complexes", budget=600.0):
        expected_integral = {
            ("sign", 1): ["Z", "0"],
            ("sign", 2): ["Z", "0", "Z"],
            ("sign", 3): ["Z", "0", "Z^3", "Z/2"],
        }
        for r in (1, 2, 3):
            report = run_oracle_case(
                build_equivariant_torus(case="sign", r=r), "integral"
            )
            assert report.passed, f"sign r={r}"
            assert [row.actual for row in report.rows] == expected_integral[
                ("sign", r)
            ]
        report = run_oracle_case(
            build_equivariant_torus(case="cyclic", p=2, n=1), "integral"
        )
        assert report.passed
        assert [row.actual for row in report.rows] == ["Z", "Z", "0"]
        report = run_oracle_case(build_equivariant_torus(case="hexagonal"), "integral")
        assert report.passed
        assert [row.actual for row in report.rows] == ["Z", "0", "Z"]
        report = run_oracle_case(
            build_equivariant_torus(case="cyclic", p=3, n=1, m=2), "field"
        )
        assert report.passed


def test_criterion_8_classification():
    with criterion(8, "classification of canonical and conjugated matrices"):
        assert classify(sign_matrix(2), 2) == LatticeType(2, 2, 0, 0)
        assert classify(cyclic_permutation_matrix(3), 3) == LatticeType(3, 0, 1, 0)
        assert classify(cyclotomic_companion_matrix(3), 3) == LatticeType(3, 1, 0, 0)
        for n, p in [(1, 2), (3, 3), (5, 5)]:
            assert classify(IntMatrix.identity(n), p) == LatticeType(p, 0, 0, n)
        rng = random.Random(404)
        bases = [
            (sign_matrix(5), 2),
            (sign_matrix(2), 2),
            (cyclic_permutation_matrix(3), 3),
            (block_diag(cyclotomic_companion_matrix(3), IntMatrix.identity(1)), 3),
            (cyclotomic_companion_matrix(5), 5),
            (block_diag(cyclic_permutation_matrix(2), sign_matrix(1)), 2),
        ]
        expected = [classify(a, p) for a, p in bases]
        for i in range(100):
            a, p = bases[i % len(bases)]
            assert classify(conjugate(a, rng), p) == expected[i % len(bases)]


def test_criterion_9_cyclic_products():
    with criterion(9, "cyclic products of the circle"):
        for p in (2, 3):
            table = quotient_cohomology(LatticeType(p, 0, 1, 0))
            assert all(b == 0 for _, b in table.entries), p
        # p = 5: recompute the torsion series by the independent term-dict
        # arithmetic and compare every coefficient, then pin beta_4 = 1
        n = 6
        f_ref, _ = ref_torsion_coeffs(5, 0, 1, 0, n)
        engine = quotient_cohomology(LatticeType(5, 0, 1, 0), n)
        assert [b for _, b in engine.entries] == f_ref
        assert engine[4][1] == 1
