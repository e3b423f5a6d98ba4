"""Classification of integer matrices of prime order into lattice types.

Given a square integer matrix A with A^p = I, the induced Z/p-lattice has a
type (r, s, t) that the rest of the package consumes.  The multiplicities
are read off the periodic group cohomology of the lattice, on the complex
of the maps A - I and the norm I + A + ... + A^(p-1): its middle group
counts ideal-class summands, the torsion of the norm's cokernel counts
trivial summands, and the projective multiplicity follows from the rank.
The norm is summed by doubling on the bits of p, with the running sum held
as packed integer rows (one int per row, one slot per column) and returned
as IntMatrix row dicts; the ladder's last power is A^p, the order check.
Two matrices with the same type are deliberately indistinguishable here:
everything downstream depends only on the type.
"""

from __future__ import annotations

import sys
from itertools import compress
from operator import lshift, mul

from .cohomology import CohomologyTable, quotient_cohomology
from .errors import ConsistencyError, require_int
from .lattice import LatticeType, is_prime
from .snf import AbelianGroupStructure, IntMatrix, sparse_cochain_quotient


# the struct codes of signed 1-, 2-, 4- and 8-byte C integers
_SIGNED_CODE = {1: "b", 2: "h", 4: "i", 8: "q"}


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
    """(I + A + A^2 + ... + A^(p-1), A^p) for a square A and an integer p >= 1.

    Built by doubling on the bits of p: with N(k) = I + A + ... + A^(k-1),
    N(2k) = N(k) + A^k N(k) and N(k+1) = N(k) + A^k.  The powers A^k are
    IntMatrix products, O(log p) of them, and the ladder's last power is
    A^p, so classify reads its order check off the same products.  The
    running norm N(k) lives only here, packed: each row is one int with a
    signed w-bit slot per column (Kronecker substitution), so A^k N(k) costs
    one small-times-packed product per nonzero of A^k, and A^k's rows are
    added by shifts.  The powers come first: N(2k) <= N(k) (1 + max row
    abs-sum of A^k) and N(k+1) <= N(k) + max |A^k| bound N's entries, hence
    w, rounded up to whole bytes (1, 2, 4 or 8 where it fits).  N is
    unpacked into row dicts once, at the end, so it stays exact past 64 bits.
    """
    p = require_int(p, "norm exponents")
    if not A.is_square():
        raise ValueError("the norm needs a square matrix")
    if p < 1:
        raise ValueError(f"the norm needs p >= 1, got {p}")
    # (A^k, True) for the step N(2k) = N(k) + A^k N(k), (A^k, False) for N(k+1)
    steps, power = [], A
    for bit in bin(p)[3:]:
        steps.append((power, True))
        power = power @ power
        if bit == "1":
            steps.append((power, False))
            power = power @ A
    bound = 1  # N(1) = I
    for a, doubling in steps:
        if doubling:
            bound *= 1 + max((sum(map(abs, r.values())) for r in a._row_dicts), default=0)
        else:
            bound += max((max(map(abs, r.values())) for r in a._row_dicts if r), default=0)
    n, bits = A.rows, bound.bit_length() + 1
    size = next((s for s in (1, 2, 4, 8) if 8 * s >= bits), -(-bits // 8))
    shifts = range(0, 8 * size * n, 8 * size)
    packed = [1 << s for s in shifts]  # N(1)
    for a, doubling in steps:
        # a row of A^k N(k) sums A^k's entries times N(k)'s packed rows; a
        # row of A^k packs by shifting each entry to its slot
        op, at = (mul, packed.__getitem__) if doubling else (lshift, shifts.__getitem__)
        packed = [sum(map(op, r.values(), map(at, r)), t) for t, r in zip(packed, a._row_dicts)]
    # a 1 at the top bit of every slot makes each slot nonnegative, so no slot
    # borrows from the next; xoring it back leaves each slot's two's complement
    half = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    code = _SIGNED_CODE.get(size) if sys.byteorder == "little" else None
    rows = []
    for t in packed:
        raw = ((t + half) ^ half).to_bytes(n * size, "little")
        if code:
            vals = memoryview(raw).cast(code).tolist()
        else:
            slots = range(0, n * size, size)
            vals = [int.from_bytes(raw[i : i + size], "little", signed=True) for i in slots]
        rows.append(dict(compress(enumerate(vals), vals)))
    return IntMatrix._from_row_dicts(n, n, rows), power


def classify(A: IntMatrix, p: int) -> LatticeType:
    """The lattice type (r, s, t) of the representation generated by A.

    On the complex Z^n -> Z^n -> Z^n of A - I and the norm matrix N, r is
    the F_p-dimension of H^1 = ker(N)/im(A - I) and t that of
    ker(A - I)/im(N), the torsion of coker N (Brown, Cohomology of Groups,
    III.1).  For an honest order-p matrix both are elementary abelian
    p-groups and s is forced by the rank; anything else raises.  N and A^p
    come from norm_matrix's one ladder, which sums N packed and hands it
    back as row dicts, so the cochain quotient reads N like any other map.
    classify hands over rows it owns: A - I and N are matrices it has just
    built and holds alone, so a Smith form reduces their rows in place, and
    the rows that clearing leaves out are never handed.
    """
    ladder = norm_matrix(A, p) if _order_p_possible(A, p) else None
    n = A.rows
    identity = IntMatrix.identity(n)
    if ladder is None or ladder[1] != identity:
        raise ValueError(f"matrix does not satisfy A^{p} = I; not an order-{p} action")
    # a complex: N (A - I) = A^p - I, which the norm's ladder has shown to be
    # 0; d_0 = A - I and d_1 = N, whose rows no one else holds
    rows = (A - identity)._row_dicts, ladder[0]._row_dicts
    _, odd, cokernel = sparse_cochain_quotient(
        [n] * 3, lambda k, cleared: [r for j, r in enumerate(rows[k]) if j not in cleared]
    )
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
