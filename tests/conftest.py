"""Shared test helpers: independent reference arithmetic and random matrices.

The matrix helpers include ref_matmul, a dense triple-loop product over
`entries` that shares no code with IntMatrix's sparse product, the
canonical representation matrices (sign, cyclic permutation, cyclotomic
companion, block sums, zeros) and the Smith form, rank over F_p and
composition check of whole IntMatrix values, which only the tests use; the
Smith form and the rank reduce copies of the matrix's rows.

Also loads a deterministic hypothesis profile when hypothesis is installed,
offers a fixture that counts Smith normal form reductions, turns
per-degree row lists into the coboundary builder the cochain quotient
takes, and keeps a cochain quotient that reduces every coboundary in full,
without clearing,
face-by-face references for the oracle's regularity check and subdivision,
the covers of a product of cell posets, built cell by cell, the Euler
characteristic of a complex and the
fixed-point check of the oracle's models, a row-reduction reference for
the rank over F_p, a check that two lists of rows span one integer lattice
and an exterior-power-minors reference for the rational oracle.
Library-side references live here too, because only the tests call them:
the closed-form equivariant torsion series, the reference encoding of the
CLI's JSON documents and the reader of its JSON table.  README's fenced
code blocks are read here as well, for the tests that run its examples and
the one that reads its library tour.

The reference polynomial arithmetic here deliberately uses a different data
structure (term dicts keyed by (degree, a-exponent)) and different code
paths from the library's series engine, so that comparisons between the two
are genuine cross-checks rather than tautologies.  The types of a
lattice's exterior powers come from that arithmetic too.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import toroidal.snf
from toroidal.cohomology import CohomologyTable
from toroidal.lattice import LatticeType, is_prime
from toroidal.oracle import (
    EquivariantModel,
    SimplicialAction,
    SimplicialComplex,
    regularize,
)
from toroidal.series import AlphaSeries, ideal_summand_factor
from toroidal.snf import (
    AbelianGroupStructure,
    IntMatrix,
    _eliminate,
    sparse_rank_mod_p,
    sparse_smith_normal_form,
)

try:
    from hypothesis import settings
except ImportError:  # hypothesis is an optional test extra
    pass
else:
    # a fixed example sequence and no per-example deadline: property tests
    # repeat exactly and do not flake when the machine slows down
    settings.register_profile(
        "toroidal", derandomize=True, deadline=None, max_examples=40, database=None
    )
    settings.load_profile("toroidal")


@pytest.fixture
def snf_reductions(monkeypatch):
    """Row counts of the matrices passed to sparse_smith_normal_form, in order."""
    calls = []
    real = toroidal.snf.sparse_smith_normal_form

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(toroidal.snf, "sparse_smith_normal_form", counted)
    return calls

# -- reference ring Z[a]/(a^2-1)[x] as term dicts ----------------------------
# keys are (x-degree, a-exponent in {0, 1}); values are int coefficients


def ref_const(c):
    return {(0, 0): c} if c else {}


def ref_monomial(c, deg, alpha=False):
    return {(deg, 1 if alpha else 0): c} if c else {}


def ref_add(a, b):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + v
        if not out[key]:
            del out[key]
    return out


def ref_scale(a, c):
    return {k: c * v for k, v in a.items()} if c else {}


def ref_mul(a, b, max_degree):
    out = {}
    for (d1, e1), v1 in a.items():
        for (d2, e2), v2 in b.items():
            d = d1 + d2
            if d > max_degree:
                continue
            key = (d, (e1 + e2) % 2)  # a^2 = 1
            out[key] = out.get(key, 0) + v1 * v2
            if not out[key]:
                del out[key]
    return out


def ref_pow(a, e, max_degree):
    out = ref_const(1)
    for _ in range(e):
        out = ref_mul(out, a, max_degree)
    return out


def ref_geometric(a, max_degree):
    """Multiply by 1 + x^2 + x^4 + ... up to max_degree."""
    geom = {(2 * i, 0): 1 for i in range(max_degree // 2 + 1)}
    return ref_mul(a, geom, max_degree)


def ref_split(a, max_degree):
    f = [a.get((k, 0), 0) for k in range(max_degree + 1)]
    g = [a.get((k, 1), 0) for k in range(max_degree + 1)]
    return f, g


def ref_cyclotomic(p):
    """1 + (a x) + ... + (a x)^(p-1)."""
    out = {}
    for i in range(p):
        out[(i, i % 2)] = 1
    return out


def ref_epsilon_factor(p):
    """1 + e_p x^p with e_2 = a."""
    return ref_add(ref_const(1), ref_monomial(1, p, alpha=(p == 2)))


def ref_f_series(p, r, s, t, max_degree):
    out = ref_pow(ref_cyclotomic(p), r, max_degree)
    out = ref_mul(out, ref_pow(ref_epsilon_factor(p), s, max_degree), max_degree)
    one_plus_x = ref_add(ref_const(1), ref_monomial(1, 1))
    return ref_mul(out, ref_pow(one_plus_x, t, max_degree), max_degree)


def ref_torsion_coeffs(p, r, s, t, max_degree):
    """(f, g) split of the torsion series, via the reference arithmetic."""
    one_plus_x = ref_add(ref_const(1), ref_monomial(1, 1))
    bracket = ref_scale(
        ref_mul(ref_monomial(1, 2), ref_pow(one_plus_x, s, max_degree), max_degree),
        p**r,
    )
    bracket = ref_add(bracket, ref_monomial(-1, 2))
    bracket = ref_add(bracket, ref_const(1))
    w = ref_mul(
        ref_add(ref_const(1), ref_monomial(1, 1, alpha=True)),
        ref_pow(ref_epsilon_factor(p), s, max_degree),
        max_degree,
    )
    w = ref_mul(w, ref_pow(ref_cyclotomic(p), r, max_degree), max_degree)
    bracket = ref_add(bracket, ref_scale(w, -1))
    numerator = ref_mul(
        ref_mul(ref_monomial(1, 1), ref_pow(one_plus_x, t, max_degree), max_degree),
        bracket,
        max_degree,
    )
    return ref_split(ref_geometric(numerator, max_degree), max_degree)


def ref_exterior_type(L: LatticeType, i: int) -> LatticeType:
    """The type of the i-th exterior power of L, by the reference arithmetic.

    With (f_i, g_i) the degree-i coefficients of the generating function and
    h_i = (C(n, i) + (p - 1)(f_i - g_i)) / p the rank of the fixed part, the
    exterior power has type (g_i, h_i - f_i, f_i); LatticeType refuses a
    negative multiplicity.
    """
    n = L.rank
    f, g = ref_split(ref_f_series(L.p, L.r, L.s, L.t, n), n)
    h, rem = divmod(comb(n, i) + (L.p - 1) * (f[i] - g[i]), L.p)
    assert not rem, (L, i)
    return LatticeType(L.p, g[i], h - f[i], f[i])


def alpha_geometric(truncation_degree: int) -> AlphaSeries:
    """1 + (a x) + (a x)^2 + ... up to the truncation degree."""
    return ideal_summand_factor(truncation_degree + 1, truncation_degree)


def equivariant_torsion_series(
    L: LatticeType, truncation_degree: int | None = None
) -> AlphaSeries:
    """a x (1 + a x + (a x)^2 + ...) times the generating function.

    A closed form for the equivariant torsion ranks: its plain part
    reproduces the direct-sum computation of equivariant_cohomology degree
    by degree.
    """
    n = L.rank + 1 if truncation_degree is None else truncation_degree
    ax = AlphaSeries.monomial(1, 1, n, alpha=True)
    return ax * alpha_geometric(n) * L.f_series(n)


# -- the CLI's JSON table: the reference encoding, and read back ---------------


def ref_json_ready(value):
    """Recursively convert, stringifying ints that do not fit in 64 bits.

    json.dumps(ref_json_ready(doc), indent=2) is the text the CLI's JSON
    writer must print.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if value > 2**63 - 1 or value < -(2**63) else value
    if isinstance(value, dict):
        return {k: ref_json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_json_ready(v) for v in value]
    return value


def fenced_block_after(text: str, marker: str) -> list[str]:
    """The lines of the first fenced code block after marker, as in README.md."""
    start = text.index("```", text.index(marker))
    body = text[text.index("\n", start) + 1 : text.index("```", start + 3)]
    return body.splitlines()


def json_int(value) -> int:
    if isinstance(value, str):
        return int(value)
    if isinstance(value, int):
        return value
    raise ValueError(f"expected an integer or decimal string, got {value!r}")


def table_from_json_dict(doc: dict) -> tuple[LatticeType, CohomologyTable]:
    """Inverse of toroidal.cli.table_to_json_dict; accepts stringified big integers."""
    r, s, t = (json_int(v) for v in doc["type"])
    L = LatticeType(json_int(doc["p"]), r, s, t)
    groups = sorted(doc["groups"], key=lambda g: json_int(g["k"]))
    entries = tuple(
        (json_int(g["free_rank"]), json_int(g["p_torsion_rank"])) for g in groups
    )
    return L, CohomologyTable(L.p, entries)


# -- dense reference product and test-only matrix helpers --------------------


def ref_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a @ b by the dense triple loop over row-major entries."""
    if a.cols != b.rows:
        raise ValueError("inner dimensions disagree")
    x, y, oc = a.entries, b.entries, b.cols
    out = [0] * (a.rows * oc)
    for i in range(a.rows):
        base = i * a.cols
        for k in range(a.cols):
            v = x[base + k]
            if v:
                ob = i * oc
                for j, w in enumerate(y[k * oc : (k + 1) * oc]):
                    if w:
                        out[ob + j] += v * w
    return IntMatrix(a.rows, oc, out)


def row_dicts(M: IntMatrix) -> list[dict[int, int]]:
    """M's rows as new dicts of their nonzero entries, for a Smith form to reduce in place."""
    return [{j: v for j, v in enumerate(r) if v} for r in M.to_rows()]


def smith_form(M: IntMatrix) -> tuple[list[int], int]:
    """Nonzero invariant factors of M (a divisibility chain) and its rank."""
    return sparse_smith_normal_form(row_dicts(M))[:2]


def rank_mod_p(M: IntMatrix, p: int) -> int:
    """Rank of M over the field with p elements."""
    return sparse_rank_mod_p(row_dicts(M), p)[0]


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, [0] * (rows * cols))


def composition_is_zero(outer: IntMatrix, inner: IntMatrix) -> bool:
    """Whether outer @ inner vanishes."""
    return not any((outer @ inner).entries)


def sign_matrix(n: int) -> IntMatrix:
    """-I, the direct sum of n sign representations (order 2)."""
    return -IntMatrix.identity(n)


def cyclic_permutation_matrix(m: int) -> IntMatrix:
    """The m-cycle permutation matrix e_i -> e_(i+1 mod m)."""
    if m < 1:
        raise ValueError("cycle length must be positive")
    return IntMatrix(
        m, m, [1 if i == (j + 1) % m else 0 for i in range(m) for j in range(m)]
    )


def cyclotomic_companion_matrix(p: int) -> IntMatrix:
    """Companion matrix of 1 + x + ... + x^(p-1); has order p and rank p-1."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    n = p - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -1
    return IntMatrix.from_rows(rows)


def block_diag(*blocks: IntMatrix) -> IntMatrix:
    """Block-diagonal sum of square matrices."""
    if not blocks:
        return IntMatrix.from_rows([])
    if any(not b.is_square() for b in blocks):
        raise ValueError("blocks must be square")
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            rows[off + i][off : off + b.cols] = b.row(i)
        off += b.rows
    return IntMatrix.from_rows(rows)


# -- random unimodular matrices ----------------------------------------------


def random_unimodular(n: int, rng: random.Random, steps: int = 12):
    """(U, U^-1) built from elementary operations, both exact."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            # row_i += c * row_j on U; inverse column op on U^-1
            for k in range(n):
                u[i][k] += c * u[j][k]
            for k in range(n):
                inv[k][j] -= c * inv[k][i]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            u[i] = [-v for v in u[i]]
            for row in inv:
                row[i] = -row[i]
    return IntMatrix.from_rows(u), IntMatrix.from_rows(inv)


def conjugate(A: IntMatrix, rng: random.Random) -> IntMatrix:
    u, inv = random_unimodular(A.rows, rng)
    assert ref_matmul(u, inv) == IntMatrix.identity(A.rows)
    return ref_matmul(ref_matmul(u, A), inv)


# -- reference regularity check and subdivision -------------------------------
# face by face, through explicit powers of the generator and explicit flags


def ref_power(action: SimplicialAction, k: int) -> tuple[int, ...]:
    out = tuple(range(len(action.vertex_map)))
    for _ in range(k):
        out = tuple(action.vertex_map[v] for v in out)
    return out


def ref_validate(K: SimplicialComplex, action: SimplicialAction) -> None:
    if len(action.vertex_map) != K.vertex_count:
        raise ValueError("permutation length disagrees with the vertex count")
    if ref_power(action, action.order) != tuple(range(K.vertex_count)):
        raise ValueError(f"generator does not have order dividing {action.order}")
    facet_set = set(K.facets)
    for f in K.facets:
        if tuple(sorted(action.vertex_map[v] for v in f)) not in facet_set:
            raise ValueError(f"action is not simplicial: facet {f} maps off the complex")


def ref_is_regular(K: SimplicialComplex, action: SimplicialAction) -> bool:
    """No face meets an orbit twice, and faces with one label set share an orbit."""
    ref_validate(K, action)
    powers = [ref_power(action, k) for k in range(1, action.order)]
    # each vertex labelled by the least vertex of its orbit
    label = [min([v] + [g[v] for g in powers]) for v in range(K.vertex_count)]
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for faces in K.faces().values():
        for f in faces:
            labels = tuple(sorted({label[v] for v in f}))
            if len(labels) != len(f):
                return False
            canonical = min([f] + [tuple(sorted(g[v] for v in f)) for g in powers])
            if seen.setdefault(labels, canonical) != canonical:
                return False
    return True


def ref_barycentric_subdivide(K: SimplicialComplex, action: SimplicialAction):
    """New vertices are the faces of K in dimension order; facets are the flags."""
    faces = K.faces()
    flat = [f for d in sorted(faces) for f in faces[d]]
    index = {f: i for i, f in enumerate(flat)}
    new_facets = [
        tuple(index[tuple(sorted(perm[: i + 1]))] for i in range(len(perm)))
        for facet in K.facets
        for perm in itertools.permutations(facet)
    ]
    vm = action.vertex_map
    new_map = tuple(index[tuple(sorted(vm[v] for v in f))] for f in flat)
    return SimplicialComplex(len(flat), new_facets), SimplicialAction(action.order, new_map)


# -- reference product of cell posets, cover by cover ---------------------------


def ref_covers(poset) -> list[tuple[int, ...]]:
    """A cell poset's covers, read off its up-sets: each cell's faces one dimension down."""
    return [
        tuple(f for f in range(c) if c in poset._above[f] and poset.dims[f] + 1 == poset.dims[c])
        for c in range(len(poset))
    ]


def ref_product_covers(factor_covers) -> list[tuple[int, ...]]:
    """The covers of a product of cell posets, built cell by cell from the factors' covers.

    Product cells are tuples of factor cells in lexicographic order; a
    product cell covers exactly the cells obtained by lowering one
    coordinate to one of that factor's covers.
    """
    covers = [()]
    for below_factor in factor_covers:
        size = len(below_factor)
        covers = [
            tuple([lo * size + c for lo in below] + [i * size + lo for lo in below_factor[c]])
            for i, below in enumerate(covers)
            for c in range(size)
        ]
    return covers


def ref_chains(poset) -> dict[int, tuple[tuple[int, ...], ...]]:
    """An order complex's faces by brute force: every chain, by dimension, sorted.

    A chain of d + 2 cells is a chain of d + 1 cells followed by any cell
    above its top cell; _above is closed upward, so that finds them all.
    """
    chains, faces = [(c,) for c in range(len(poset))], {}
    while chains:
        faces[len(faces)] = tuple(sorted(chains))
        chains = [ch + (x,) for ch in chains for x in poset._above[ch[-1]]]
    return faces


# -- fixed-point structure of the oracle's models ------------------------------


def euler_characteristic(K: SimplicialComplex) -> int:
    """The alternating sum of K's face counts."""
    return sum((-1) ** d * len(faces) for d, faces in K.faces().items())


def components(K: SimplicialComplex) -> list[SimplicialComplex]:
    """Connected components, each reindexed over its own vertices."""
    parent = list(range(K.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in K.facets:
        for v in f[1:]:
            ra, rb = find(f[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[tuple[int, ...]]] = {}
    for f in K.facets:
        groups.setdefault(find(f[0]), []).append(f)
    out = []
    for root in sorted(groups):
        verts = sorted({v for f in groups[root] for v in f})
        relabel = {v: i for i, v in enumerate(verts)}
        out.append(
            SimplicialComplex(
                len(verts), [tuple(relabel[v] for v in f) for f in groups[root]]
            )
        )
    return out


def fixed_subcomplex(
    K: SimplicialComplex, action: SimplicialAction
) -> SimplicialComplex | None:
    """The subcomplex of faces fixed vertexwise, reindexed; None if empty."""
    vm = action.vertex_map
    fixed = [v for v in range(K.vertex_count) if vm[v] == v]
    if not fixed:
        return None
    relabel = {v: i for i, v in enumerate(fixed)}
    # each fixed face lies in the fixed part of some facet; the constructor
    # keeps the maximal ones
    facets = [tuple(relabel[v] for v in f if v in relabel) for f in K.facets]
    return SimplicialComplex(len(fixed), [f for f in facets if f])


def verify_fixed_point_structure(model: EquivariantModel) -> bool:
    """Check the fixed set is p^r tori of dimension s+t, rationally."""
    L = model.lattice_type
    K, act, _, _ = regularize(model.complex, model.action)
    fixed = fixed_subcomplex(K, act)
    expected_components = L.p**L.r
    if fixed is None:
        return expected_components == 0
    pieces = components(fixed)
    if len(pieces) != expected_components:
        return False
    d = L.s + L.t
    expected = [comb(d, k) for k in range(d + 1)]
    for piece in pieces:
        (betti,) = piece.betti_numbers(0)
        betti += [0] * (d + 1 - len(betti))
        if betti != expected:
            return False
    return True


# -- reference rank over F_p ---------------------------------------------------
# row reduction over the field, independent of the Smith form


def ref_rank_mod_p(row_dicts: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of a sparse matrix (rows left untouched)."""
    if p < 2:
        raise ValueError("modulus must be a prime")
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for source in row_dicts:
        row = {j: v % p for j, v in source.items()}
        row = {j: v for j, v in row.items() if v}
        while row:
            j = min(row)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(row[j], -1, p)
                row = {k: (v * inv) % p for k, v in row.items()}
                pivots[j] = {k: v for k, v in row.items() if v}
                rank += 1
                break
            c = row[j]
            for k, v in piv.items():
                nv = (row.get(k, 0) - c * v) % p
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
    return rank


def same_row_lattice(a: list[dict[int, int]], b: list[dict[int, int]]) -> bool:
    """Whether two lists of row dicts span the same integer row lattice.

    Each list's lattice lies in that of both lists together, and a
    sublattice of the same rank and the same index in its rational span's
    integer points is the whole lattice; so the three are equal just when
    their invariant factors are (found by _eliminate, on copies).
    """
    factors = [_eliminate([dict(r) for r in rows]) for rows in (a + b, a, b)]
    return factors[0] == factors[1] == factors[2]


# -- cochain quotients ---------------------------------------------------------


def coboundary_builder(coboundaries: list[list[dict[int, int]]]):
    """sparse_cochain_quotient's coboundary(k, cleared) over per-degree row lists.

    It hands over the lists' own dicts, so the quotient reduces them in place.
    """
    return lambda k, cleared: [row for j, row in enumerate(coboundaries[k]) if j not in cleared]


def ref_cochain_quotient(
    ranks: list[int], coboundaries: list[list[dict[int, int]]]
) -> list[AbelianGroupStructure]:
    """sparse_cochain_quotient with each coboundary's rows all in the full elimination."""
    factors = [[]] + [_eliminate([dict(r) for r in rows]) for rows in coboundaries] + [[]]
    return [
        AbelianGroupStructure(
            m - len(factors[k + 1]) - len(factors[k]), tuple(d for d in factors[k] if d > 1)
        )
        for k, m in enumerate(ranks)
    ]


# -- reference rational oracle -------------------------------------------------
# invariants of each exterior power, from the matrix of its k x k minors


def ref_determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def ref_exterior_power_matrix(M: IntMatrix, k: int) -> IntMatrix:
    """The induced matrix on the k-th exterior power, minors over k-subsets."""
    subsets = list(itertools.combinations(range(M.rows), k))
    rows_of = M.to_rows()
    return IntMatrix(
        len(subsets),
        len(subsets),
        [
            ref_determinant([[rows_of[i][j] for j in T] for i in S])
            for S in subsets
            for T in subsets
        ],
    )


def ref_rational_ranks(A: IntMatrix) -> list[int]:
    """The corank of (wedge^k A^T) - I for each k = 0..n.

    wedge^k A^T is the transpose of wedge^k A, and a matrix and its
    transpose have one rank, so the minors of A itself serve.
    """
    ranks = []
    for k in range(A.rows + 1):
        W = ref_exterior_power_matrix(A, k)
        ranks.append(W.rows - smith_form(W - IntMatrix.identity(W.rows))[1])
    return ranks


SRC = Path(__file__).resolve().parents[1] / "src"


def run_in_400_mib(body: str) -> str:
    """The stdout of body, run with IntMatrix in a child that caps its own address space."""
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from toroidal.snf import IntMatrix\n" + body
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()
