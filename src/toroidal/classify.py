"""Classification of integer matrices of prime order into lattice types.

Given a square integer matrix A with A^p = I, the induced Z/p-lattice has a
type (r, s, t) that the rest of the package consumes.  The multiplicities
are read off the periodic group cohomology of the lattice, realized as two
kernel/image quotients of the maps A - I and the norm I + A + ... + A^(p-1):
the odd-degree quotient counts ideal-class summands, the even-degree
quotient counts trivial summands, and the projective multiplicity follows
from the rank.  Two matrices with the same type are deliberately
indistinguishable here: everything downstream depends only on the type.
"""

from __future__ import annotations

from .cohomology import CohomologyTable, quotient_cohomology
from .errors import ConsistencyError
from .lattice import LatticeType, is_prime
from .snf import IntMatrix, _sparse_product, _sparse_rows, sparse_cochain_quotient


def verify_order(A: IntMatrix, p: int) -> bool:
    """Whether A^p is the identity (so A has order p, or order 1 if A = I).

    A^p is built by squaring on the bits of p, as O(log p) products of
    sparse row dicts, each costing its (entry, inner entry) pairs.
    """
    if not A.is_square():
        raise ValueError("representation matrix must be square")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if A.rows < p - 1:
        # x^p - 1 = (x - 1) Phi_p with Phi_p irreducible of degree p - 1, so
        # Phi_p divides the minimal polynomial of any other order-p matrix
        return A == IntMatrix.identity(A.rows)
    identity = [{i: 1} for i in range(A.rows)]
    result, square, e = identity, _sparse_rows(A), p
    while e:
        if e & 1:
            result = list(_sparse_product(result, square))
        e >>= 1
        if e:
            square = list(_sparse_product(square, square))
    return result == identity


def is_trivial_action(A: IntMatrix) -> bool:
    return A.is_square() and A == IntMatrix.identity(A.rows)


def _sparse_sum(a_rows, b_rows) -> list[dict[int, int]]:
    """a + b on row dicts, zeros dropped; b may be any iterable of rows."""
    out = []
    for a, b in zip(a_rows, b_rows):
        row = dict(a)
        for j, v in b.items():
            w = row.get(j, 0) + v
            if w:
                row[j] = w
            else:
                del row[j]
        out.append(row)
    return out


def norm_matrix(A: IntMatrix, p: int) -> IntMatrix:
    """I + A + A^2 + ... + A^(p-1).

    Built by doubling on the bits of p: with N(k) = I + A + ... + A^(k-1),
    N(2k) = N(k) + A^k N(k) and N(k+1) = N(k) + A^k.  Each step is one or two
    products of sparse row dicts, so the whole costs O(log p) of them.
    """
    n = A.rows
    a = _sparse_rows(A)
    total, power = [{i: 1} for i in range(n)], a  # N(1), A^1
    for bit in bin(p)[3:]:
        total = _sparse_sum(total, _sparse_product(power, total))
        power = list(_sparse_product(power, power))
        if bit == "1":
            total, power = _sparse_sum(total, power), list(_sparse_product(power, a))
    entries = [0] * (n * n)
    for i, row in enumerate(total):
        for j, v in row.items():
            entries[i * n + j] = v
    return IntMatrix._from_entries(n, n, entries)


def classify(A: IntMatrix, p: int) -> LatticeType:
    """The lattice type (r, s, t) of the representation generated by A.

    r is the F_p-dimension of ker(N)/im(A - I) and t that of
    ker(A - I)/im(N), with N the norm matrix; both quotients are elementary
    abelian p-groups for any honest order-p matrix, and s is forced by the
    rank.  Anything else means the input failed the order check or the
    arithmetic is broken, and raises.
    """
    if not verify_order(A, p):
        raise ValueError(f"matrix does not satisfy A^{p} = I; not an order-{p} action")
    n = A.rows
    a_minus_one = _sparse_rows(A - IntMatrix.identity(n))
    norm = _sparse_rows(norm_matrix(A, p))
    # H^1 and H^2 of the complex A - I, N, A - I; each map is reduced once
    _, odd, even, _ = sparse_cochain_quotient([n] * 4, [a_minus_one, norm, a_minus_one])
    for label, group in (("odd", odd), ("even", even)):
        if not group.is_elementary_abelian(p):
            raise ConsistencyError(
                f"{label}-degree cohomology {group} of an order-{p} matrix is "
                f"not elementary abelian p-torsion"
            )
    r = len(odd.torsion)
    t = len(even.torsion)
    s, rem = divmod(n - r * (p - 1) - t, p)
    if rem or s < 0:
        raise ConsistencyError(
            f"rank bookkeeping failed: n={n}, r={r}, t={t} leave no valid s"
        )
    return LatticeType(p, r, s, t)


def cohomology_from_matrix(
    A: IntMatrix, p: int, max_degree: int | None = None
) -> CohomologyTable:
    """Cohomology table of the torus quotient defined by the matrix."""
    return quotient_cohomology(classify(A, p), max_degree)


# -- canonical representations -----------------------------------------------


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
        return IntMatrix.zeros(0, 0)
    if any(not b.is_square() for b in blocks):
        raise ValueError("blocks must be square")
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[off + i][off + j] = b.entry(i, j)
        off += b.rows
    return IntMatrix.from_rows(rows)
