import random
import re
from itertools import combinations
from math import gcd

import pytest

import toroidal.snf
from conftest import (
    coboundary_builder,
    composition_is_zero,
    random_unimodular,
    rank_mod_p,
    ref_determinant,
    run_in_400_mib,
    same_row_lattice,
    smith_form,
    zero_matrix,
)
from toroidal.classify import classify
from toroidal.lattice import LatticeType
from toroidal.oracle import SimplicialComplex
from toroidal.snf import (
    AbelianGroupStructure,
    IntMatrix,
    sparse_cochain_quotient,
    sparse_rank_mod_p,
    sparse_smith_normal_form,
)

# the 6-vertex RP^2: H^2 = Z/2
RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
        (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
    ],
)


def test_snf_examples():
    assert smith_form(IntMatrix.from_rows([[2, 0], [0, 0]])) == ([2], 1)
    # companion-matrix case: determinant 3, hand row reduction gives [1, 3]
    assert smith_form(IntMatrix.from_rows([[-1, -1], [1, -2]])) == ([1, 3], 2)
    assert smith_form(zero_matrix(3, 3)) == ([], 0)


def test_snf_divisor_chain_and_determinant():
    # independent oracle: cofactor-expansion determinant
    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            if rows[0][j]:
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * det(minor)
        return total

    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        divisors, rank = smith_form(IntMatrix.from_rows(rows))
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        d = det(rows)
        if d:
            assert rank == n
            prod = 1
            for v in divisors:
                prod *= v
            assert prod == abs(d)
        else:
            assert rank < n


def test_snf_without_units_matches_determinantal_divisors():
    # no entry is +-1, so elimination starts on least-absolute-value pivots;
    # s_k = d_k / d_(k-1), where d_k is the gcd of the k x k minors
    rng = random.Random(8)
    values = [v for v in range(-9, 10) if v not in (1, -1)]
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        d = [1]
        for k in range(1, min(m, n) + 1):
            g = 0
            for S in combinations(range(m), k):
                for T in combinations(range(n), k):
                    g = gcd(g, ref_determinant([[rows[i][j] for j in T] for i in S]))
            if not g:
                break
            d.append(g)
        expected = [d[k] // d[k - 1] for k in range(1, len(d))]
        assert smith_form(IntMatrix.from_rows(rows)) == (expected, len(expected))


def test_snf_permutation_invariance():
    rng = random.Random(123)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        base = smith_form(IntMatrix.from_rows(rows))
        rng.shuffle(rows)
        cols = list(range(n))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert smith_form(IntMatrix.from_rows(shuffled)) == base


def test_snf_unimodular_invariance():
    rng = random.Random(321)
    for _ in range(10):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        a = IntMatrix.from_rows(rows)
        u, _ = random_unimodular(n, rng)
        v, _ = random_unimodular(n, rng)
        assert smith_form(u @ a @ v) == smith_form(a)


def sign_pair():
    """a - I = -2I, then a + I = 0, for the sign action a = -I on Z^2, as new rows."""
    return [[{0: -2}, {1: -2}], [{}, {}]]


def middle_group(ranks, coboundaries):
    """H^1 of a three-term complex given as its two coboundaries' rows."""
    return sparse_cochain_quotient(ranks, coboundary_builder(coboundaries))[1]


def test_cochain_pair_examples():
    # degree 1 of three-term complexes d_in, d_out
    assert middle_group([0, 2, 0], [[{}, {}], []]) == AbelianGroupStructure(2)
    assert middle_group([1, 1, 0], [[{0: 2}], []]) == AbelianGroupStructure(0, (2,))
    assert middle_group([2, 2, 2], sign_pair()) == AbelianGroupStructure(0, (2, 2))


def test_cochain_pair_shifted_identity_complex():
    # Z --id--> Z --0--> : cohomology in the middle vanishes
    assert middle_group([1, 1, 0], [[{0: 1}], []]) == AbelianGroupStructure(0)


def test_cochain_pair_reduces_each_coboundary_once(snf_reductions):
    assert middle_group([2, 2, 2], sign_pair()) == AbelianGroupStructure(0, (2, 2))
    assert snf_reductions == [2, 2]


def test_cochain_quotient_whole_complex():
    # cellular cochains of RP^2 (one cell per degree): Z --0--> Z --2--> Z
    rp2 = sparse_cochain_quotient([1, 1, 1], coboundary_builder([[{}], [{0: 2}]]))
    assert rp2 == [
        AbelianGroupStructure(1),
        AbelianGroupStructure(0),
        AbelianGroupStructure(0, (2,)),
    ]
    assert sparse_cochain_quotient([3], coboundary_builder([])) == [AbelianGroupStructure(3)]
    with pytest.raises(ValueError, match="one row per basis vector"):
        sparse_cochain_quotient([1, 2], coboundary_builder([[{0: 1}]]))
    # d_1 = 1 clears the one row of d_0, which a builder must then leave out
    with pytest.raises(ValueError, match="of Z\\^1 outside the 1 cleared"):
        sparse_cochain_quotient([1, 1, 1], lambda k, cleared: [{0: 1}])


def test_smith_forms_of_matrices_leave_their_rows_unchanged():
    # the Smith form reduces the rows it is given in place, and classify
    # hands it the rows of A - I and of N, which it builds itself: torsion
    # here reaches the full elimination too
    def rows_of(M):
        return [dict(r) for r in M._row_dicts]

    A = IntMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    before = rows_of(A)
    assert classify(A, 2) == LatticeType(2, 1, 0, 2)
    assert rows_of(A) == before


def test_matrix_power_by_squaring():
    rng = random.Random(5)
    for n in (1, 2, 3):
        a = IntMatrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
        product = IntMatrix.identity(n)
        for e in range(31):
            assert a**e == product
            product = product @ a


def test_composition_is_zero():
    a = IntMatrix.from_rows([[1, 1], [0, 0]])
    b = IntMatrix.from_rows([[1, 0], [-1, 0]])
    assert composition_is_zero(a, b)
    assert not composition_is_zero(b, a)


def test_abelian_group_structure():
    g = AbelianGroupStructure(1, (2, 4))
    assert str(g) == "Z + Z/2 + Z/4"
    assert str(AbelianGroupStructure(0)) == "0"
    assert str(AbelianGroupStructure(2)) == "Z^2"
    assert AbelianGroupStructure(0, (3, 3)).is_elementary_abelian(3)
    assert not AbelianGroupStructure(1, (3,)).is_elementary_abelian(3)
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (2, 3))
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (1,))


def test_abelian_group_structure_takes_integers_only():
    # a float rank used to print as Z^1.5, and a float factor was truncated
    for free, torsion in ((1.5, ()), (1.0, (2,)), (1, (2.7,)), (0, ("2",)), ("1", ())):
        with pytest.raises(ValueError, match="free rank and invariant factors must be integers"):
            AbelianGroupStructure(free, torsion)
    g = AbelianGroupStructure(True, [2, 4])
    assert g == AbelianGroupStructure(1, (2, 4)) and str(g) == "Z + Z/2 + Z/4"
    assert type(g.free_rank) is int
    with pytest.raises(ValueError, match="free rank must be nonnegative"):
        AbelianGroupStructure(-1)


def test_ranks():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert smith_form(m)[1] == 2
    assert rank_mod_p(m, 2) == 1
    assert rank_mod_p(m, 3) == 1
    assert rank_mod_p(m, 5) == 2


def test_rank_mod_p_rejects_a_composite_modulus():
    for p in (4, 1, 0, -3):
        with pytest.raises(ValueError, match="modulus must be a prime"):
            sparse_rank_mod_p([{0: 2}], p)


def test_matrix_arithmetic():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert a + b == IntMatrix.from_rows([[1, 3], [4, 4]])
    assert a - a == zero_matrix(2, 2)
    assert -a == IntMatrix.from_rows([[-1, -2], [-3, -4]])
    assert -a + a == zero_matrix(2, 2) and -(-a) == a
    assert -zero_matrix(3, 0) == zero_matrix(3, 0)
    assert (-IntMatrix.from_rows([[0, 5, 0]])).entries == (0, -5, 0)
    assert (b**2) == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        a @ zero_matrix(3, 3)
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))



def test_matrix_constructors_refuse_non_integer_entries():
    # int() would truncate 1.5 to 1 and parse "3" as 3
    for bad in (1.5, "3", None):
        with pytest.raises(ValueError, match=f"matrix entries must be integers, got {bad!r}"):
            IntMatrix(1, 1, [bad])
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            IntMatrix.from_rows([[0, bad]])
    with pytest.raises(ValueError):
        IntMatrix.from_text("1 1\n1.5\n")
    assert IntMatrix(1, 2, [True, -(2**70)]).entries == (1, -(2**70))
    with pytest.raises(ValueError, match="matrix dimensions must be nonnegative"):
        IntMatrix.identity(-1)


def test_matrix_access_refuses_indices_out_of_range():
    # a negative row index wrapped around: row(-1) read the last row
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    for i in (-1, 2, -3):
        with pytest.raises(IndexError, match="row index"):
            a.row(i)
    assert [a.row(i) for i in range(2)] == [(1, 2), (3, 4)]


def test_matrix_text_round_trip():
    big = 2**80 + 7
    m = IntMatrix.from_rows([[big, -1], [0, -(2**65)]])
    assert IntMatrix.from_text(m.to_text()) == m
    with pytest.raises(ValueError):
        IntMatrix.from_text("2 2\n1 2\n3\n")
    with pytest.raises(ValueError):
        IntMatrix.from_text("")
    empty = IntMatrix.from_rows([])
    assert IntMatrix.from_text(empty.to_text()) == empty == IntMatrix(0, 0, ())


def test_matrix_fields_cannot_be_assigned_or_deleted():
    # del m.rows succeeded and left the matrix without rows
    m = IntMatrix.identity(2)
    for name in ("rows", "cols", "_row_dicts"):
        with pytest.raises(AttributeError, match="IntMatrix is immutable"):
            setattr(m, name, 0)
        with pytest.raises(AttributeError, match="IntMatrix is immutable"):
            delattr(m, name)
    assert (m.rows, m.cols, m.to_rows()) == (2, 2, [[1, 0], [0, 1]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix(2, -1, ()), "matrix dimensions must be nonnegative"),
        (lambda: IntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
        (lambda: IntMatrix.from_text("2 2 2\n"), "bad header line '2 2 2'; expected 'rows cols'"),
        (lambda: IntMatrix.from_text("-1 2\n"), "matrix dimensions must be nonnegative"),
        (lambda: IntMatrix.identity(2) + zero_matrix(2, 3), "matrix shapes disagree"),
        (lambda: IntMatrix.identity(2) - zero_matrix(3, 2), "matrix shapes disagree"),
        (lambda: zero_matrix(2, 3) ** 2, "powers need a square matrix"),
        (lambda: IntMatrix.identity(2) ** -1, "negative powers are not supported"),
        (
            lambda: sparse_cochain_quotient([1, 2], lambda k, cleared: [{0: 1}]),
            "d_0 must have one row per basis vector of Z^2 outside the 0 cleared",
        ),
    ],
    ids=[
        "negative-dimension",
        "ragged-rows",
        "text-header",
        "text-dimension",
        "sum-shapes",
        "difference-shapes",
        "power-of-non-square",
        "negative-power",
        "row-function-count",
    ],
)
def test_snf_inputs_are_refused_with_a_message(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_matrix_text_checks_an_empty_rows_header_against_its_lines():
    # to_text writes an n x 0 matrix's rows as n blank lines; a header
    # alone made from_text build n empty rows, and "1000000000 0" ran out of
    # a 400 MiB address space with MemoryError.  The child caps its own
    # address space before it reads the matrix.
    for n in range(4):
        assert IntMatrix.from_text(zero_matrix(n, 0).to_text()) == zero_matrix(n, 0)
    with pytest.raises(ValueError, match="expected 3 rows, found 2"):
        IntMatrix.from_text("3 0\n\n\n")
    out = run_in_400_mib(
        "try:\n"
        "    IntMatrix.from_text('1000000000 0')\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    assert out == "ValueError: expected 1000000000 rows, found 0\n"


def test_big_entry_snf():
    # exactness far past 64 bits
    big = 2**100
    divisors, rank = smith_form(IntMatrix.from_rows([[big, 0], [0, big * 3]]))
    assert divisors == [big, 3 * big]
    assert rank == 2


@pytest.fixture
def left_to_elimination(monkeypatch):
    """The rows the last-column pass leaves to the full elimination, per call."""
    calls = []
    real = toroidal.snf._eliminate

    def recorded(rows):
        calls.append([dict(r) for r in rows])
        return real(rows)

    monkeypatch.setattr(toroidal.snf, "_eliminate", recorded)
    return calls


def test_last_column_pass_clears_a_set_aside_row(left_to_elimination):
    # row 0 ends in a 2 with no pivot in its column, so it is set aside; row 1
    # then becomes that column's pivot and reduces row 0 to zero
    assert sparse_smith_normal_form([{0: 2, 1: 2}, {0: 1, 1: 1}]) == ([1], 1, {1})
    assert left_to_elimination == [[]]


def test_last_column_pass_keeps_the_shorter_pivot(left_to_elimination):
    # rows 0 and 1 both end in a unit at column 5, so the shorter row 1
    # replaces row 0 as its pivot and reduces it to {0: 2, 1: 3}; row 2 is
    # then reduced by row 1 alone.  Kept as pivot, row 0 would have spread
    # its entries into both other rows.  The reduction works on the rows
    # themselves: row 1 subtracted from each other row keeps their lattice,
    # and a second Smith form of them repeats the first without a step.
    rows = [{0: 2, 1: 3, 5: 1}, {5: 1}, {4: 2, 5: 1}]
    assert sparse_smith_normal_form(rows) == ([1, 1, 2], 3, {5})
    assert rows == [{0: 2, 1: 3}, {5: 1}, {4: 2}]
    assert sparse_smith_normal_form(rows) == ([1, 1, 2], 3, {5})
    assert rows == [{0: 2, 1: 3}, {5: 1}, {4: 2}]
    assert left_to_elimination == [[{0: 2, 1: 3}, {4: 2}]] * 2


def test_last_column_pass_leaves_torsion_to_the_elimination(left_to_elimination):
    # edges to triangles of the 6-vertex RP^2: H^2 = Z/2, a factor that no
    # unit pivot can give
    rp2 = SimplicialComplex(
        6,
        [
            (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
            (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
        ],
    )
    rows = [dict(r) for r in rp2.coboundary_rows(1)]
    divisors, rank, pivot_columns = sparse_smith_normal_form(rows)
    assert (divisors, rank, len(pivot_columns)) == ([1] * 9 + [2], 10, 9)
    assert len(left_to_elimination) == 1 and left_to_elimination[0]


def test_rows_left_to_the_full_elimination_are_copies(left_to_elimination):
    # RP^2's edge-to-triangle rows leave one torsion row to _eliminate,
    # whose column operations would change the row lattice: it gets a copy,
    # so the reduced rows keep the lattice and a second Smith form hands it
    # the same row and still finds Z/2
    rows = RP2.coboundary_rows(1)
    original = [dict(r) for r in rows]
    first = sparse_smith_normal_form(rows)
    assert first[:2] == ([1] * 9 + [2], 10)
    assert same_row_lattice(original, rows)
    assert sparse_smith_normal_form(rows) == first
    assert left_to_elimination == [[{0: -2, 3: 2, 7: -2}]] * 2


def test_full_elimination_pivots_on_a_least_entry(left_to_elimination):
    # no row ends in a unit, so the last-column pass leaves both rows of
    # each matrix to the full elimination.  Here the 1 ends no row:
    assert sparse_smith_normal_form([{0: 1, 1: 2}, {1: 4}]) == ([1, 4], 2, set())
    # no entry is a unit until the 3 is reduced by the 2 to a 1
    assert sparse_smith_normal_form([{0: 2, 1: 3}, {0: 3, 1: 5}]) == ([1, 1], 2, set())
    # no unit ever: the entries' gcd is 2 and the determinant -12
    assert sparse_smith_normal_form([{0: 2, 1: 4}, {0: 4, 1: 2}]) == ([2, 6], 2, set())
    assert [len(rows) for rows in left_to_elimination] == [2, 2, 2]
