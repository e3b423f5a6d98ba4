"""Classification of integer matrices of prime order into lattice types.

Given a square integer matrix A with A^p = I, the induced Z/p-lattice has a
type (r, s, t) that the rest of the package consumes.  The multiplicities
are read off the periodic group cohomology of the lattice, on the complex
of the maps A - I and the norm I + A + ... + A^(p-1): its middle group
counts ideal-class summands, the torsion of the norm's cokernel counts
trivial summands, and the projective multiplicity follows from the rank.
Two matrices with the same type are deliberately indistinguishable here:
everything downstream depends only on the type.
"""

from __future__ import annotations

from .cohomology import CohomologyTable, quotient_cohomology
from .errors import ConsistencyError
from .lattice import LatticeType, is_prime
from .snf import AbelianGroupStructure, IntMatrix, sparse_cochain_quotient


def _order_p_possible(A: IntMatrix, p: int) -> bool:
    """Raise unless A is square and p prime; False if A's size rules out A^p = I.

    x^p - 1 = (x - 1) Phi_p with Phi_p irreducible of degree p - 1, so Phi_p
    divides the minimal polynomial of any other order-p matrix: below
    n = p - 1 only the identity qualifies.  Callers ask this before any
    power of A, so a small matrix never squares towards A^p for a huge p.
    """
    if not A.is_square():
        raise ValueError("representation matrix must be square")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return A.rows >= p - 1 or A == IntMatrix.identity(A.rows)


def verify_order(A: IntMatrix, p: int) -> bool:
    """Whether A^p is the identity (so A has order p, or order 1 if A = I).

    A^p is IntMatrix's power: squaring on the bits of p, O(log p) products
    of its sparse rows, each costing its (entry, inner entry) pairs.
    """
    return _order_p_possible(A, p) and A**p == IntMatrix.identity(A.rows)


def is_trivial_action(A: IntMatrix) -> bool:
    return A.is_square() and A == IntMatrix.identity(A.rows)


def norm_matrix(A: IntMatrix, p: int) -> tuple[IntMatrix, IntMatrix]:
    """(I + A + A^2 + ... + A^(p-1), A^p).

    Built by doubling on the bits of p: with N(k) = I + A + ... + A^(k-1),
    N(2k) = N(k) + A^k N(k) and N(k+1) = N(k) + A^k.  Each step is one or two
    IntMatrix products and sums on sparse rows, so the whole costs O(log p)
    of them, and the result keeps those rows.  The ladder's last power is
    A^p, so classify reads its order check off the same products.
    """
    total, power = IntMatrix.identity(A.rows), A  # N(1), A^1
    for bit in bin(p)[3:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total, power = total + power, power @ A
    return total, power


def classify(A: IntMatrix, p: int) -> LatticeType:
    """The lattice type (r, s, t) of the representation generated by A.

    On the complex Z^n -> Z^n -> Z^n of A - I and the norm matrix N, r is
    the F_p-dimension of H^1 = ker(N)/im(A - I) and t that of
    ker(A - I)/im(N), the torsion of coker N (Brown, Cohomology of Groups,
    III.1).  For an honest order-p matrix both are elementary abelian
    p-groups and s is forced by the rank; anything else raises.
    """
    ladder = norm_matrix(A, p) if _order_p_possible(A, p) else None
    n = A.rows
    identity = IntMatrix.identity(n)
    if ladder is None or ladder[1] != identity:
        raise ValueError(f"matrix does not satisfy A^{p} = I; not an order-{p} action")
    a_minus_one = (A - identity)._row_dicts
    # a complex: N (A - I) = A^p - I, which the norm's ladder has shown to be 0
    _, odd, cokernel = sparse_cochain_quotient([n] * 3, [a_minus_one, ladder[0]._row_dicts])
    for label, group in (("odd", odd), ("even", AbelianGroupStructure(0, cokernel.torsion))):
        if not group.is_elementary_abelian(p):
            raise ConsistencyError(
                f"{label}-degree cohomology {group} of an order-{p} matrix is "
                f"not elementary abelian p-torsion"
            )
    r = len(odd.torsion)
    t = len(cokernel.torsion)
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
