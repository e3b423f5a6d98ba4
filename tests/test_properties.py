"""Property tests: series powers and factor products against the term-dict
reference, the CLI's JSON writer against json.dumps, IntMatrix's operators
against dense lists and ref_matmul, Smith normal form against sympy, and its
last-column pass on random coboundaries against the full elimination and
sympy, the rank over F_p against row reduction over the field, whole-complex
cohomology against the cochain-pair form, regularity and subdivision of
random actions against face-by-face references, the up-sets of product
posets against the closure of their covers built cell by cell, the checks
the oracle's models skip (their coboundaries compose to zero, their actions
are simplicial), the quotient tables of random lattice types, the sparse order
check and norm against dense powers, and the classification and rational free
ranks of random conjugated block matrices, whose norm composed with A - I
vanishes and which classify, Smith form and the rational oracle leave
unchanged.

hypothesis and sympy are optional test extras; without hypothesis the module
is skipped, and without sympy so are the tests that compare against it.
"""

import io
import itertools
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from operator import itemgetter
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    block_diag,
    coboundary_builder,
    composition_is_zero,
    conjugate,
    cyclic_permutation_matrix,
    cyclotomic_companion_matrix,
    ref_barycentric_subdivide,
    ref_covers,
    ref_is_regular,
    ref_json_ready,
    ref_const,
    ref_matmul,
    ref_mul,
    ref_pow,
    ref_cochain_quotient,
    ref_product_covers,
    ref_rank_mod_p,
    ref_rational_ranks,
    ref_split,
    row_dicts,
    same_row_lattice,
    smith_form,
    zero_matrix,
)
import toroidal.snf
from toroidal.classify import classify, norm_matrix, verify_order
from toroidal.cli import EXIT_INPUT, _json_text, main
from toroidal.cohomology import quotient_cohomology, torsion_from_pair, torsion_series
from toroidal.lattice import LatticeType
from toroidal.oracle import (
    CellPoset,
    SimplicialAction,
    SimplicialComplex,
    _cells_above,
    _circle,
    _face_map,
    _reflected_circle,
    barycentric_subdivide,
    build_equivariant_torus,
    hexagonal_torus_complex,
    is_regular,
    product_model,
    quotient_complex,
    rational_alpha_oracle,
)
from toroidal.series import AlphaSeries, _factor_product
from toroidal.snf import (
    IntMatrix,
    _eliminate,
    _sparse_product,
    sparse_cochain_quotient,
    sparse_rank_mod_p,
    sparse_smith_normal_form,
)

ENTRIES = st.integers(-4, 4)
MULTIPLICITIES = st.integers(0, 6)
LATTICE_TYPES = st.builds(
    LatticeType,
    st.sampled_from((2, 3, 5, 7)),
    MULTIPLICITIES,
    MULTIPLICITIES,
    MULTIPLICITIES,
)

RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
        (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
    ],
)


@st.composite
def series_powers(draw):
    """(f, g, e): a series f + g a with leading zeros, and an exponent.

    Constants come from {0, +-1, 2, -3, 5}, so the images' lowest terms are
    often zero, non-units or negative; all-zero leading blocks give the zero
    series.
    """
    degree = draw(st.integers(0, 12))
    coefficient = st.sampled_from((0, 1, -1, 2, -3, 5))

    def part():
        zeros = draw(st.integers(0, degree + 1))
        size = degree + 1 - zeros
        return [0] * zeros + draw(st.lists(coefficient, min_size=size, max_size=size))

    return part(), part(), draw(st.integers(0, 9))


@given(series_powers())
@example(([0], [0], 0))  # zero series to the 0th power is one
@example(([0, 0, 0], [0, 0, 0], 4))  # and to a positive power zero
@example(([5], [-3], 7))  # truncation degree 0
@example(([0, 0, 1, 2, 0, 0], [0, 0, 1, -1, 0, 0], 3))  # v e = 6 past degree 5
@example(([0, 1, 2, 0, 0, 0, 0], [0, -1, 0, 5, 0, 0, 0], 3))  # images start at x and x^2
@example(([-3, 2, 0, 5, 0], [2, 0, -1, 0, 0], 4))  # non-unit, negative constants
@example(([1, 0, 1, 0, 1], [0, 1, 0, 1, 0], 0))  # exponent 0
def test_powers_match_the_reference(f_g_e):
    f, g, e = f_g_e
    degree = len(f) - 1
    base = {(k, a): c for a, part in enumerate((f, g)) for k, c in enumerate(part) if c}
    expected = ref_split(ref_pow(base, e, degree), degree)
    power = AlphaSeries(f, g) ** e
    assert (list(power.f_coeffs), list(power.g_coeffs)) == expected


UNIT_OR_NOT = st.sampled_from((1, -1, 2, -3))


@st.composite
def factor_products(draw):
    """(factors, degree) for prod P^e over polynomial factors {P: e}.

    Each P is (degree, coefficient) pairs up to degree 7 with a nonzero
    constant term: +-1 with exponents -4 to 6, or 2 or -3 with exponents
    0 to 6 (a non-unit to a negative power is no integer series).
    """
    factors = {}
    for _ in range(draw(st.integers(0, 4))):
        c = draw(UNIT_OR_NOT)
        higher = draw(st.dictionaries(st.integers(1, 7), UNIT_OR_NOT, max_size=3))
        P = ((0, c),) + tuple(sorted(higher.items()))
        factors[P] = draw(st.integers(-4 if c in (1, -1) else 0, 6))
    return factors, draw(st.integers(0, 24))


def binomial(q, sigma):
    """1 + sigma x^q as (degree, coefficient) pairs."""
    return (0, 1), (q, sigma)


HUGE_Q = 2**61 - 1  # x^q lies past every truncation; a loop up to q would hang


@given(factor_products())
@example(({}, 0))
@example(({binomial(1, -1): -4, binomial(1, 1): 6, binomial(3, 1): 0}, 24))
@example(({binomial(HUGE_Q, 1): 0}, 24))
@example(({binomial(HUGE_Q, -1): 1}, 24))
@example(({binomial(HUGE_Q, 1): 1, binomial(1, 1): -3}, 24))
@example(({((0, -3), (HUGE_Q, 1)): 2, ((0, -1), (2, 2)): -3}, 24))  # -3 + x^q is -3 here
@example(({((0, 2), (1, -3), (5, 1)): 6, ((0, -1), (1, 1), (7, -3)): -4}, 24))
def test_factor_products_match_the_reference(factors_degree):
    factors, degree = factors_degree

    def ref_product(sign):
        """prod P^(sign e) over the factors where sign e > 0."""
        out = ref_const(1)
        for P, e in factors.items():
            if sign * e > 0:
                base = {(i, 0): c for i, c in P}
                out = ref_mul(out, ref_pow(base, sign * e, degree), degree)
        return out

    got = _factor_product(factors, degree)
    assert len(got) == degree + 1
    # times the factors of negative exponent, the product is the rest
    got_terms = {(k, 0): c for k, c in enumerate(got) if c}
    assert ref_mul(got_terms, ref_product(-1), degree) == ref_product(1)


# quotes, backslashes, control characters, braces (str.format's own syntax)
# and text past ASCII, which json.dumps escapes
JSON_STRINGS = st.text(
    st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f{}'), st.characters()), max_size=6
)
INT64 = 2**63
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-2 * INT64, 2 * INT64),
    JSON_STRINGS,
)


@st.composite
def row_lists(draw):
    """A list of dicts with one key list, some twisted out of being flat rows."""
    keys = draw(st.lists(JSON_STRINGS, max_size=4, unique=True))
    values = draw(st.sampled_from((JSON_SCALARS, st.integers(-2 * INT64, 2 * INT64))))
    rows = [
        {k: draw(values) for k in keys} for _ in range(draw(st.integers(1, 4)))
    ]
    i = draw(st.integers(0, len(rows) - 1))
    twist = draw(st.sampled_from(("none", "order", "nested", "missing", "extra")))
    if twist == "order":
        rows[i] = dict(reversed(rows[i].items()))
    elif twist == "nested" and keys:
        rows[i][keys[0]] = draw(st.sampled_from(([], {}, [1, "a"], {"k": None}, (2,))))
    elif twist == "missing" and keys:
        del rows[i][keys[-1]]
    elif twist == "extra":
        rows[i][draw(JSON_STRINGS)] = draw(values)
    return rows


JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS | row_lists(),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@given(JSON_DOCUMENTS)
@example(INT64 - 1)
@example(INT64)
@example(-INT64)
@example(-INT64 - 1)
@example([{"k": k, "a": v} for k, v in enumerate((INT64 - 1, INT64, -INT64, -INT64 - 1))])
@example([{"{k}": True, "}": None}, {"{k}": False, "}": "{0}"}])
@example({"": [], "()": {}, "t": (), "rows": [{}, {}]})
def test_json_writer_prints_the_bytes_of_json_dumps(doc):
    assert _json_text(doc) == json.dumps(ref_json_ready(doc), indent=2)


@pytest.fixture(scope="module")
def sympy_divisors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    def divisors(M: IntMatrix) -> list[int]:
        D = sympy_snf(sympy.Matrix(M.rows, M.cols, list(M.entries)), domain=sympy.ZZ)
        diagonal = (abs(int(D[i, i])) for i in range(min(M.rows, M.cols)))
        return [d for d in diagonal if d]

    return divisors


# -- IntMatrix's operators against dense row-major lists ----------------------

MATRIX_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 2**70))


@st.composite
def dense_lists(draw, rows, cols):
    """rows x cols entries in row-major order, mostly zero, some rows all zero."""
    out = []
    for zero_row in draw(st.lists(st.booleans(), min_size=rows, max_size=rows)):
        row = draw(st.lists(MATRIX_ENTRIES, min_size=cols, max_size=cols))
        out += [0] * cols if zero_row else row
    return out


@st.composite
def operand_lists(draw):
    """(r, c, k, a, b, x, s, e): a and b are r x c, x is c x k, s is r x r."""
    r, c, k = (draw(st.integers(0, 5)) for _ in range(3))
    a, b = draw(dense_lists(r, c)), draw(dense_lists(r, c))
    return r, c, k, a, b, draw(dense_lists(c, k)), draw(dense_lists(r, r)), draw(st.integers(0, 5))


def holds(M: IntMatrix, rows: int, cols: int, entries: list[int]) -> None:
    """M is the rows x cols matrix of these entries, by every reader, == and hash."""
    dense_rows = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
    assert (M.rows, M.cols) == (rows, cols)
    assert M.entries == tuple(entries)
    assert M.to_rows() == dense_rows
    for i, row in enumerate(dense_rows):
        assert M.row(i) == tuple(row)
    built = IntMatrix(rows, cols, entries)
    assert M == built and hash(M) == hash(built)
    text = "".join(f"{' '.join(map(str, row))}\n" for row in dense_rows)
    assert M.to_text() == f"{rows} {cols}\n{text}"
    assert IntMatrix.from_text(M.to_text()) == M


@given(operand_lists())
@example((0, 3, 2, [], [], [0, 1, 0, 0, -3, 0], [], 2))  # 0 x n
@example((3, 0, 2, [], [], [], [1, 0, 0, 0, 0, 0, 0, 0, -1], 3))  # n x 0
@example((2, 2, 0, [0, 0, 5, 0], [0, 0, -5, 0], [], [0, 0, 0, 0], 0))  # zero rows
def test_matrix_operators_match_dense_lists(operands):
    r, c, k, a, b, x, s, e = operands
    A, B, X, S = IntMatrix(r, c, a), IntMatrix(r, c, b), IntMatrix(c, k, x), IntMatrix(r, r, s)
    holds(A, r, c, a)
    holds(A + B, r, c, [u + v for u, v in zip(a, b)])
    holds(A - B, r, c, [u - v for u, v in zip(a, b)])
    holds(-A, r, c, [-u for u in a])
    holds(A @ X, r, k, list(ref_matmul(A, X).entries))
    power = IntMatrix.identity(r)
    for _ in range(e):
        power = ref_matmul(power, S)
    holds(S**e, r, r, list(power.entries))
    assert (A == B) == (a == b)
    # one matrix reached by different routes compares and hashes equal
    zero, identity = zero_matrix(r, c), IntMatrix.identity(r)
    assert A - A == zero and hash(A - A) == hash(zero)
    assert identity**5 == identity and hash(identity**5) == hash(identity)
    assert -(-A) == A and A + B - B == A


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, entries)


@st.composite
def column_shuffled_rows(draw):
    """A small matrix and its row dicts with the columns relabelled at random.

    Relabelling puts the units at any column of their rows, off the last
    column as often as on it.
    """
    M = draw(small_matrices())
    relabel = draw(st.permutations(range(M.cols)))
    return M, [{relabel[j]: v for j, v in enumerate(M.row(i)) if v} for i in range(M.rows)]


@st.composite
def unit_heavy_matrices(draw):
    """[[U, X], [0, C]], rows and columns shuffled, with a returned core C.

    U is upper triangular with +-1 on its diagonal, so the matrix is
    equivalent to diag(I, C): its invariant factors are units then C's.  C
    is diagonal, so its factors must still be sorted into a chain.
    """
    units = draw(st.integers(1, 10))
    diagonal = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    core_rows = len(diagonal) + draw(st.integers(0, 1))
    core_cols = len(diagonal) + draw(st.integers(0, 1))

    def entries(count):
        return draw(st.lists(ENTRIES, min_size=count, max_size=count))

    rows = [
        [0] * i + [draw(st.sampled_from((1, -1)))] + entries(units - 1 - i + core_cols)
        for i in range(units)
    ]
    core = [
        [diagonal[i] if i == j < len(diagonal) else 0 for j in range(core_cols)]
        for i in range(core_rows)
    ]
    rows += [[0] * units + row for row in core]
    row_order = draw(st.permutations(range(units + core_rows)))
    col_order = draw(st.permutations(range(units + core_cols)))
    shuffled = [[rows[i][j] for j in col_order] for i in row_order]
    return IntMatrix.from_rows(shuffled), IntMatrix.from_rows(core)


@st.composite
def sparse_matrices_mod_p(draw):
    """Row dicts of a matrix up to 8 x 8 with multiples of p mixed in, and p."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-12, 12), st.integers(-4, 4).map(lambda c: c * p))
    matrix = [
        {j: v for j, v in enumerate(draw(st.lists(entry, min_size=cols, max_size=cols))) if v}
        for _ in range(rows)
    ]
    return matrix, p


@st.composite
def small_complexes(draw):
    """A random complex of dimension at most 3, barycentrically subdivided or not."""
    facets = draw(
        st.lists(
            st.sets(st.integers(0, 4), min_size=1, max_size=4), min_size=1, max_size=6
        )
    )
    label = {v: i for i, v in enumerate(sorted(set().union(*facets)))}
    K = SimplicialComplex(len(label), [[label[v] for v in f] for f in facets])
    return barycentric_subdivide(K) if draw(st.booleans()) else K


@st.composite
def coboundaries(draw):
    """(rows, width): a random complex's coboundary in one degree.

    The rows come in face order, as the oracle passes them, or with rows and
    columns shuffled, which moves every row's last column.
    """
    K = draw(small_complexes())
    k = draw(st.integers(0, max(K.dim - 1, 0)))
    rows, width = K.coboundary_rows(k), len(K.faces()[k])
    if draw(st.booleans()):
        relabel = draw(st.permutations(range(width)))
        rows = [{relabel[j]: v for j, v in r.items()} for r in draw(st.permutations(rows))]
    return rows, width


@st.composite
def complexes_with_actions(draw):
    """A random complex closed under a vertex permutation of the drawn order.

    Every cycle length divides the order, which lies in 2..6.
    """
    order = draw(st.integers(2, 6))
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    lengths = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=4))
    place = draw(st.permutations(range(sum(lengths))))
    vertex_map = [0] * len(place)
    start = 0
    for length in lengths:
        for i in range(length):
            vertex_map[place[start + i]] = place[start + (i + 1) % length]
        start += length
    facets = set()
    for f in draw(
        st.lists(
            st.sets(st.sampled_from(place), min_size=1, max_size=4), min_size=1, max_size=4
        )
    ):
        for _ in range(order):
            facets.add(frozenset(f))
            f = {vertex_map[v] for v in f}
    used = sorted(set().union(*facets))
    label = {v: i for i, v in enumerate(used)}
    K = SimplicialComplex(len(used), [[label[v] for v in f] for f in facets])
    return K, SimplicialAction(order, tuple(label[vertex_map[v]] for v in used))


def regularity_verdict(check, K, action):
    try:
        return check(K, action)
    except ValueError as exc:
        return str(exc)


def dense_coboundary(K: SimplicialComplex, k: int) -> IntMatrix:
    """C^k -> C^(k+1) with one row per (k+1)-face, built from face inclusions."""
    faces = K.faces()
    lower, upper = faces.get(k, ()), faces.get(k + 1, ())
    entries = []
    for tau in upper:
        for sigma in lower:
            missing = [i for i, v in enumerate(tau) if v not in sigma]
            entries.append((-1) ** missing[0] if len(missing) == 1 else 0)
    return IntMatrix(len(upper), len(lower), entries)


@given(small_matrices())
def test_snf_agrees_with_sympy(sympy_divisors, M):
    divisors, rank = smith_form(M)
    assert divisors == sympy_divisors(M)
    assert rank == len(divisors)


@given(column_shuffled_rows())
@example((IntMatrix.from_rows([[2, 0], [0, 3]]), [{1: 2}, {0: 3}]))  # chain 1, 6
def test_full_elimination_agrees_with_sympy(sympy_divisors, matrix_and_rows):
    # the reference of the last-column pass below, checked on its own
    M, rows = matrix_and_rows
    assert _eliminate(rows) == sympy_divisors(M)


@given(unit_heavy_matrices())
def test_snf_unit_rows_around_a_torsion_core(sympy_divisors, matrix_and_core):
    M, core = matrix_and_core
    divisors, _ = smith_form(M)
    assert divisors == sympy_divisors(M)
    units = M.rows - core.rows
    assert divisors == [1] * units + smith_form(core)[0]


@given(coboundaries())
@example((RP2.coboundary_rows(1), 15))  # H^2 = Z/2
def test_last_column_pass_matches_the_full_elimination(rows_width):
    rows, _ = rows_width
    expected = _eliminate([dict(r) for r in rows])
    assert sparse_smith_normal_form([dict(r) for r in rows])[:2] == (expected, len(expected))


@given(coboundaries())
@example((RP2.coboundary_rows(1), 15))
def test_last_column_pass_agrees_with_sympy_on_coboundaries(sympy_divisors, rows_width):
    rows, width = rows_width
    M = IntMatrix(len(rows), width, [r.get(j, 0) for r in rows for j in range(width)])
    assert sparse_smith_normal_form([dict(r) for r in rows])[0] == sympy_divisors(M)


@given(st.one_of(small_matrices(), unit_heavy_matrices().map(itemgetter(0))))
@example(dense_coboundary(RP2, 1))  # H^2 = Z/2 left to the full elimination
@example(IntMatrix.from_rows([[1, 2], [0, 1]]))  # the set-aside row ends in a 1
def test_smith_form_reduces_its_rows_in_place_within_their_lattice(sympy_divisors, M):
    rows = [{j: v for j, v in enumerate(M.row(i)) if v} for i in range(M.rows)]
    original = [dict(r) for r in rows]
    divisors, rank, pivots = sparse_smith_normal_form(rows)
    reduced = IntMatrix(M.rows, M.cols, [r.get(j, 0) for r in rows for j in range(M.cols)])
    assert divisors == sympy_divisors(M) == sympy_divisors(reduced)
    assert same_row_lattice(original, rows)
    # echelon form: one row ends in +-1 at each pivot column, and the rows
    # that end elsewhere hold no pivot column
    ends = sorted(max(r) for r in rows if r and max(r) in pivots)
    assert ends == sorted(pivots)
    assert all(abs(r[max(r)]) == 1 for r in rows if r and max(r) in pivots)
    assert not any(pivots & r.keys() for r in rows if r and max(r) not in pivots)
    # a second Smith form keeps every pivot; a row the first left to the
    # full elimination may end in +-1 now and add its column
    again = sparse_smith_normal_form(rows)
    assert again[:2] == (divisors, rank) and again[2] >= pivots
    assert sparse_smith_normal_form(rows) == again


@given(sparse_matrices_mod_p())
def test_rank_mod_p_matches_row_reduction_over_the_field(matrix_and_p):
    matrix, p = matrix_and_p
    kept = [dict(r) for r in matrix]
    rank = ref_rank_mod_p(kept, p)
    assert sparse_rank_mod_p(matrix, p)[0] == rank
    # reduced in place to rows of the same lattice, so a second rank agrees
    assert same_row_lattice(kept, matrix)
    assert sparse_rank_mod_p(matrix, p)[0] == rank


@given(small_complexes())
@example(RP2)
def test_integral_cohomology_matches_cochain_pairs(K):
    # degree k as the middle of d_(k-1), d_k, each reduced in full from its
    # dense matrix, with no clearing and no other degree
    faces = K.faces()
    d_in = [{} for _ in faces[0]]
    pairs = []
    for k in range(K.dim + 1):
        d_out = row_dicts(dense_coboundary(K, k))
        ranks = [len(faces.get(k - 1, ())), len(faces[k]), len(d_out)]
        pairs.append(ref_cochain_quotient(ranks, [d_in, d_out])[1])
        d_in = d_out
    assert K.integral_cohomology() == pairs


def cochain_complex(K: SimplicialComplex):
    """(ranks, each degree's coboundary rows) of K's simplicial cochains, all built."""
    faces = K.faces()
    return [len(faces[k]) for k in range(K.dim + 1)], [K.coboundary_rows(k) for k in range(K.dim)]


@given(small_complexes())
@example(RP2)  # H^2 = Z/2
def test_cleared_cochain_quotient_matches_the_full_reduction(K):
    ranks, coboundaries = cochain_complex(K)
    expected = ref_cochain_quotient(ranks, coboundaries)
    assert sparse_cochain_quotient(ranks, coboundary_builder(coboundaries)) == expected


@given(small_complexes(), st.sampled_from(["integral", 0, 2, 3]))
@example(RP2, "integral")
@example(RP2, 2)
def test_clearing_drops_one_row_per_unit_factor_of_the_map_above(K, route):
    # top-down, d_k's Smith form gets f_(k+1) rows less one per unit
    # invariant factor of d_(k+1): f_(k+1) - rank d_(k+1) where d_(k+1) has
    # no torsion.  On RP^2, d_1's factor 2 clears no row of d_0, over F_2
    # too.  Field mode (betti_numbers in characteristic 0 or p) clears the
    # same rows, and starts from d_dim, which has none.
    ranks, coboundaries = cochain_complex(K)
    handed = []
    real = toroidal.snf.sparse_smith_normal_form

    def counted(rows):
        handed.append(len(rows))
        return real(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toroidal.snf, "sparse_smith_normal_form", counted)
        if route == "integral":
            sparse_cochain_quotient(ranks, coboundary_builder(coboundaries))
        else:
            K.betti_numbers(route)
    units = [_eliminate([dict(r) for r in rows]).count(1) for rows in coboundaries] + [0]
    top_down = reversed(range(len(coboundaries)))
    expected = [ranks[k + 1] - units[k + 1] for k in top_down]
    assert handed == (expected if route == "integral" else [0] + expected)


@given(small_complexes())
@example(RP2)  # H^2 = Z/2: dims 1, 0, 0 over Q and F_3, 1, 1, 1 over F_2
def test_field_betti_numbers_match_references_without_clearing(K):
    ranks, coboundaries = cochain_complex(K)
    free = [group.free_rank for group in ref_cochain_quotient(ranks, coboundaries)]
    expected = [free]
    for c in (2, 3):
        # row reduction over F_c of every coboundary in full, no Smith form
        rank = [0] + [ref_rank_mod_p(rows, c) for rows in coboundaries] + [0]
        expected.append([m - rank[k + 1] - rank[k] for k, m in enumerate(ranks)])
    # one pass for all three characteristics, and each on its own
    assert K.betti_numbers(0, 2, 3) == expected
    assert [K.betti_numbers(c)[0] for c in (0, 2, 3)] == expected


# orbits of sizes 2 and 3 span one edge orbit, of size lcm(2, 3) = 6
LCM_ORBIT = (
    SimplicialComplex(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
    SimplicialAction(6, (1, 0, 3, 4, 2)),
)
# two swapped edges, and two edge orbits on one label set: the orbit counts
# balance, so only the facet check sees the irregularity
BALANCED_COUNTS = (
    SimplicialComplex(8, [(0, 1), (6, 7), (2, 4), (3, 5), (2, 5), (3, 4)]),
    SimplicialAction(2, (1, 0, 3, 2, 5, 4, 7, 6)),
)
# a 4-cycle declared to have order 3
WRONG_ORDER = (
    SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    SimplicialAction(3, (1, 2, 3, 0)),
)


@given(complexes_with_actions())
@example(LCM_ORBIT)
@example(BALANCED_COUNTS)
@example(WRONG_ORDER)
def test_regularity_and_subdivision_match_the_face_by_face_references(K_action):
    K, action = K_action
    assert regularity_verdict(is_regular, K, action) == regularity_verdict(
        ref_is_regular, K, action
    )
    subdivided = barycentric_subdivide(K, action)
    assert subdivided == ref_barycentric_subdivide(K, action)
    assert regularity_verdict(is_regular, *subdivided) == regularity_verdict(
        ref_is_regular, *subdivided
    )


@given(complexes_with_actions())
@example(LCM_ORBIT)
@example(BALANCED_COUNTS)
def test_listed_faces_match_the_faces_of_the_facets(K_action):
    # subdivision lists the chains of the face poset and reads its facets
    # off them, and a regular quotient takes is_regular's label sets; random
    # complexes need not be pure
    for K, action in (K_action, barycentric_subdivide(*K_action)):
        complexes = [K]
        if regularity_verdict(is_regular, K, action) is True:
            complexes.append(quotient_complex(K, action))
        for complex_ in complexes:
            generated = SimplicialComplex(complex_.vertex_count, complex_.facets)
            assert complex_.facets == generated.facets
            assert complex_.faces() == generated.faces()


@st.composite
def small_models(draw):
    """Keyword arguments of a small model of each family build_equivariant_torus makes."""
    case = draw(st.sampled_from(("sign", "cyclic", "hexagonal", "mixed")))
    t = draw(st.integers(0, 1))
    if case == "sign":
        r = draw(st.integers(1, 2))
        return dict(case=case, r=r, m=draw(st.integers(3, 5)), t=t if r == 1 else 0)
    if case == "cyclic":
        p = draw(st.sampled_from((2, 3)))
        m = draw(st.integers(2, 3)) if p == 2 else 2
        return dict(case=case, p=p, n=1, m=m, t=t if m == 2 and p == 2 else 0)
    if case == "hexagonal":
        return dict(case=case, m=3 if t else draw(st.sampled_from((3, 6))), t=t)
    return dict(case=case, r=1, n=1, m=2)


@given(small_models())
@example(dict(case="hexagonal", m=3, t=0))
@example(dict(case="hexagonal", m=3, t=1))
@example(dict(case="mixed", r=1, n=1, m=2))
def test_built_complexes_compose_to_zero_and_carry_simplicial_actions(kw):
    # the oracle skips d o d = 0 and the per-facet action check on what it
    # builds: the model, each subdivision regularize makes and the quotient
    model = build_equivariant_torus(**kw)
    K, action = model.complex, model.action
    while True:
        action.validate_on(K)
        regular = is_regular(K, action)
        for complex_ in (K, quotient_complex(K, action)) if regular else (K,):
            for k in range(complex_.dim - 1):
                rows = complex_.coboundary_rows(k)
                assert not any(_sparse_product(complex_.coboundary_rows(k + 1), rows)), kw
        if regular:
            break
        K, action = barycentric_subdivide(K, action)


def _built_model(kw):
    model = build_equivariant_torus(**kw)
    return model.complex, model.action


# makers of order complexes with a prime-order action they were built with:
# the subdivisions of random complexes, and the product models (every model
# but the t = 0 hexagonal torus, which is not an order complex); each
# example builds its own, since the test lists its chains
BUILT_ORDER_COMPLEXES = st.one_of(
    complexes_with_actions()
    .filter(lambda K_action: K_action[1].order in (2, 3, 5))
    .map(lambda K_action: partial(barycentric_subdivide, *K_action)),
    small_models()
    .filter(lambda kw: kw["case"] != "hexagonal" or kw["t"])
    .map(lambda kw: partial(_built_model, kw)),
)


@given(BUILT_ORDER_COMPLEXES)
@example(partial(_built_model, dict(case="cyclic", p=2, n=1, m=2)))
@example(partial(_built_model, dict(case="sign", r=2, m=3)))
def test_orbit_representatives_count_as_relabelling_every_chain(build):
    # the label sets and the face orbits carrying each, from one chain per
    # orbit, and the f-vector counted over the poset, against a copy that
    # lists every chain through faces() and relabels it
    K, action = build()
    label_sets, f_vector = K._orbit_label_sets(action), K._f_vector
    assert K._faces is None  # neither listed a chain
    listed = SimplicialComplex._from_faces(K.vertex_count, K.faces())
    assert listed._orbit_label_sets(action) == label_sets
    assert [len(faces) for faces in K.faces().values()] == f_vector
    assert is_regular(listed, action) == is_regular(K, action)


def _hexagonal_factor():
    """The triangular torus's face poset under its order-3 rotation, as a product factor."""
    K, vertex_map = hexagonal_torus_complex(3)
    poset, index = CellPoset.from_complex(K)
    return poset, _face_map(index, vertex_map)


@st.composite
def product_factors(draw):
    """Factors and a coordinate permutation for product_model.

    Circles and reflected circles, at most one hexagonal face poset, and
    often a swap of the last two factors: the same pair twice, or an equal
    one built apart.
    """
    count = draw(st.integers(1, 3))
    factors = [
        draw(st.sampled_from((_circle, _reflected_circle)))(draw(st.integers(2, 4)))
        for _ in range(count)
    ]
    if draw(st.booleans()):
        factors[0] = _hexagonal_factor()
    cperm = list(range(count))
    if count > 1 and draw(st.booleans()):
        poset, cell_map = factors[-2]
        built_apart = CellPoset(poset.dims, ref_covers(poset)), list(cell_map)
        factors[-1] = draw(st.sampled_from((factors[-2], built_apart)))
        cperm[-2:] = [count - 1, count - 2]
    return factors, cperm


def test_cycles_in_closed_form_match_the_checked_covers_route():
    # CellPoset.cycle writes its up-sets directly; the checking constructor
    # closes the same circle's covers: edge m + i covers vertices i, i + 1
    for m in range(2, 65):
        covers = [()] * m + [(i, (i + 1) % m) for i in range(m)]
        checked = CellPoset([0] * m + [1] * m, covers)
        cycle = CellPoset.cycle(m)
        assert (cycle.dims, cycle._above) == (checked.dims, checked._above), m


@given(product_factors())
@example(([_hexagonal_factor()] * 2, [1, 0]))
@example(([_circle(2)], [0]))
@example(([_reflected_circle(3), _circle(2), _reflected_circle(3)], [2, 1, 0]))
def test_product_up_sets_are_the_closure_of_the_product_covers(factors_cperm):
    # product_model's up-sets, from the factors' in closed form, against
    # the transitive closure of the covers built cell by cell; its dims and
    # permutation against the cell tuples themselves
    factors, cperm = factors_cperm
    poset, perm = product_model(factors, cperm)
    covers = ref_product_covers([ref_covers(factor) for factor, _ in factors])
    assert poset._above == _cells_above(covers)
    cells = list(itertools.product(*(range(len(factor)) for factor, _ in factors)))
    index = dict(zip(cells, range(len(cells))))
    assert poset.dims == [
        sum(factor.dims[c] for (factor, _), c in zip(factors, cell)) for cell in cells
    ]
    images = []
    for cell in cells:
        image = [0] * len(cell)
        for (_, cell_map), g, c in zip(factors, cperm, cell):
            image[g] = cell_map[c]
        images.append(index[tuple(image)])
    assert perm == tuple(images)


@given(LATTICE_TYPES)
def test_quotient_table_and_both_torsion_pipelines(L):
    # quotient_cohomology raises ConsistencyError on any non-integral or
    # negative entry, torsion_from_pair on any disagreement
    table = quotient_cohomology(L)
    direct = list(torsion_series(L).f_coeffs)
    assert torsion_from_pair(L) == direct == [b for _, b in table.entries]


def torus_euler_characteristic(dim: int) -> int:
    return 1 if dim == 0 else 0


@given(LATTICE_TYPES)
def test_euler_characteristic_is_the_lefschetz_count(L):
    # the generator has p^r fixed tori of dimension s + t; the Lefschetz
    # number of the identity is chi(T^n)
    count, rem = divmod(
        torus_euler_characteristic(L.rank)
        + (L.p - 1) * L.p**L.r * torus_euler_characteristic(L.s + L.t),
        L.p,
    )
    assert rem == 0
    free = quotient_cohomology(L).free_ranks()
    assert sum((-1) ** k * a for k, a in enumerate(free)) == count


def conjugated_blocks(L: LatticeType, seed: int) -> IntMatrix:
    blocks = (
        [cyclotomic_companion_matrix(L.p)] * L.r
        + [cyclic_permutation_matrix(L.p)] * L.s
        + [IntMatrix.identity(1)] * L.t
    )
    return conjugate(block_diag(*blocks), random.Random(seed))


@given(LATTICE_TYPES, st.integers(0, 2**32))
def test_classify_recovers_the_type_of_conjugated_blocks(L, seed):
    assume(L.rank > 0)
    assert classify(conjugated_blocks(L, seed), L.p) == L


@given(LATTICE_TYPES, st.integers(0, 2**32))
def test_classify_complex_composes_to_zero(L, seed):
    # classify's cochain quotient skips the check: N (A - I) = A^p - I = 0
    assume(L.rank > 0)
    A = conjugated_blocks(L, seed)
    assert verify_order(A, L.p)
    norm, _ = norm_matrix(A, L.p)
    assert composition_is_zero(norm, A - IntMatrix.identity(A.rows))


@st.composite
def small_lattice_types(draw, max_rank=7):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    r = draw(st.integers(0, max_rank // (p - 1)))
    s = draw(st.integers(0, (max_rank - r * (p - 1)) // p))
    t = draw(st.integers(0, max_rank - r * (p - 1) - s * p))
    return LatticeType(p, r, s, t)


@given(small_lattice_types(), st.integers(0, 2**32))
def test_rational_oracle_matches_minors_and_tables(L, seed):
    assume(L.rank > 0)
    A = conjugated_blocks(L, seed)
    ranks = rational_alpha_oracle(A, L.p)
    assert ranks == ref_rational_ranks(A)
    assert ranks == quotient_cohomology(classify(A, L.p), L.rank).free_ranks()


@given(small_lattice_types(), st.integers(0, 2**32))
def test_classify_smith_form_and_rational_oracle_leave_their_input_alone(L, seed):
    assume(L.rank > 0)
    A = conjugated_blocks(L, seed)
    a_copy = IntMatrix(A.rows, A.cols, A.entries)
    classify(A, L.p)
    rational_alpha_oracle(A, L.p)
    assert A == a_copy


# -- the sparse order check and norm against dense powers ---------------------

ORDER_TYPES = st.builds(
    LatticeType,
    st.sampled_from((2, 3, 5, 7, 11)),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 3),
)


def dense_norm(A: IntMatrix, p: int) -> tuple[IntMatrix, IntMatrix]:
    """(I + A + ... + A^(p-1), A^p): one ref_matmul per power, sums entrywise."""
    power = IntMatrix.identity(A.rows)
    total = list(power.entries)
    for _ in range(p - 1):
        power = ref_matmul(power, A)
        total = [x + y for x, y in zip(total, power.entries)]
    return IntMatrix(A.rows, A.cols, total), ref_matmul(power, A)


def order_check_matches_dense_powers(A: IntMatrix, p: int) -> bool:
    """verify_order and norm_matrix's (N, A^p) against dense powers by ref_matmul."""
    norm, power = dense_norm(A, p)
    order = power == IntMatrix.identity(A.rows)
    assert verify_order(A, p) == order
    assert norm_matrix(A, p) == (norm, power)
    return order


def dense_conjugate(A: IntMatrix, rng: random.Random) -> IntMatrix:
    """U A U^-1 with no zero entry, for U = I + x y^T and y.x = 0."""
    n = A.rows
    for _ in range(1000):
        x = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
        y = [rng.choice((-2, -1, 1, 2)) for _ in range(n - 1)]
        last, rem = divmod(-sum(a * b for a, b in zip(x, y)), x[-1])
        if rem:
            continue
        y.append(last)
        u = IntMatrix.from_rows([[(i == j) + x[i] * y[j] for j in range(n)] for i in range(n)])
        inv = IntMatrix.from_rows([[(i == j) - x[i] * y[j] for j in range(n)] for i in range(n)])
        assert ref_matmul(u, inv) == IntMatrix.identity(n)
        B = ref_matmul(ref_matmul(u, A), inv)
        if all(B.entries):
            return B
    raise AssertionError("no dense conjugate found")


def refused_as_wrong_order(A: IntMatrix, p: int) -> None:
    """classify raises, and the CLI exits 2 with the same message."""
    message = f"matrix does not satisfy A^{p} = I; not an order-{p} action"
    with pytest.raises(ValueError) as excinfo:
        classify(A, p)
    assert str(excinfo.value) == message
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text(A.to_text())
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["classify", str(path), "--p", str(p)])
    assert code == EXIT_INPUT
    assert out.getvalue() == ""
    assert err.getvalue() == f"error: {message}\n"


@given(ORDER_TYPES, st.integers(0, 2**32))
def test_order_check_and_norm_match_dense_powers(L, seed):
    assume(L.rank > 0)
    assert order_check_matches_dense_powers(conjugated_blocks(L, seed), L.p)


@given(ORDER_TYPES, st.integers(0, 2**32), st.integers(0, 10**6), st.sampled_from((-1, 1)))
def test_a_perturbed_entry_fails_the_order_check(L, seed, position, delta):
    assume(L.rank > 0)
    A = conjugated_blocks(L, seed)
    entries = list(A.entries)
    entries[position % len(entries)] += delta
    B = IntMatrix(A.rows, A.cols, entries)
    # the check must agree with dense powers whatever the perturbation did;
    # the few that land on another order-p matrix are not refusals
    assume(not order_check_matches_dense_powers(B, L.p))
    refused_as_wrong_order(B, L.p)


def test_order_check_and_norm_edge_cases():
    rng = random.Random(11)
    for p in (2, 3, 5, 7, 11):
        # the identity, on both sides of the n < p - 1 shortcut
        for n in (1, p - 2, p - 1, p + 3):
            if n > 0:
                assert order_check_matches_dense_powers(IntMatrix.identity(n), p)
        blocks = block_diag(
            cyclotomic_companion_matrix(p),
            cyclic_permutation_matrix(p),
            IntMatrix.identity(1),
        )
        dense = dense_conjugate(blocks, rng)
        assert order_check_matches_dense_powers(dense, p)
        assert classify(dense, p) == LatticeType(p, 1, 1, 1)
        entries = list(dense.entries)
        entries[rng.randrange(len(entries))] += 1
        perturbed = IntMatrix(dense.rows, dense.cols, entries)
        assert not order_check_matches_dense_powers(perturbed, p)
        refused_as_wrong_order(perturbed, p)
    # below p - 1 only the identity has order dividing p
    for A, p in ((-IntMatrix.identity(3), 5), (cyclic_permutation_matrix(3), 7)):
        assert not order_check_matches_dense_powers(A, p)
        refused_as_wrong_order(A, p)


def test_norm_stays_exact_past_64_bits():
    # [[2, 1], [1, 1]] has infinite order, so its norms outgrow the packed
    # norm's 8-byte slots and are unpacked slot by slot
    step = IntMatrix.from_rows([[2, 1], [1, 1]])
    for copies, p, bits in ((30, 61, 84), (63, 127, 176)):
        A = block_diag(*[step] * copies)
        norm, power = dense_norm(A, p)
        assert max(map(abs, norm.entries)).bit_length() == bits
        assert norm_matrix(A, p) == (norm, power)
