"""Exact integer linear algebra: Smith normal form and cochain quotients.

Matrices carry arbitrary-precision Python ints as sparse rows, one dict of
nonzero entries per row: IntMatrix's arithmetic and the Smith form and
cochain routines all work on that one representation.  The one exception
is private to classify.norm_matrix, which holds its running sum as packed
integer rows (one int per row, a fixed-width slot per column) and returns
row dicts like every other routine.  Smith form starts
with one pass over the rows in their given order that reduces each row at
its last column against a stored +-1 pivot there, as persistent homology
does; for simplicial coboundary matrices that is almost all of the work.
The rows it cannot pivot go through a full sparse elimination that always
pivots on an entry of least absolute value, a +-1 whenever one is left.
Only invariant factors are ever needed downstream, so no basis transforms
are tracked.  They serve all three rings: the rank over Q is their number, and
unimodular operations stay invertible mod p, so the rank over F_p is the
number of them that p does not divide.  Cohomology of a cochain complex
reduces each coboundary once: its rank bounds the kernel in its source
degree, and its rank and invariant factors give the image in its target
degree.  The coboundaries are reduced from the top degree down, and each
leaves out the rows that the +-1 pivot columns of the one above it have
shown to be integer combinations of earlier rows (clearing, as in Chen and
Kerber's twist, EuroCG 2011, and Bauer, Kerber and Reininghaus, "Clear and
compress", 2014); that keeps the row lattice, so the rank and every
invariant factor, torsion included.  The cochain quotient asks for each
coboundary's rows with the cleared set, so only the rows kept are built.
The two rank functions return those pivot columns with the rank, so a
caller working over Q or F_p clears the same rows: a +-1 is a unit in
every field.  The Smith form reduces the row dicts it is given in place,
by unimodular row operations, so they keep their row lattice and come back
in echelon form: a second Smith form of them, over another ring, finds
their +-1 pivots already in place.  Callers hand over rows they own:
classify the rows of A - I and of the norm, two matrices it has just
built, and the oracle the coboundary rows it builds for each call.  The
cochain quotient takes the caller's word that consecutive coboundaries
compose to zero, which clearing relies on too: simplicial coboundaries do
by construction, and classify's complex does once the norm's doubling
ladder has ended on A^p = I.
"""

from __future__ import annotations

from collections.abc import Iterator
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd
from operator import itemgetter

from .errors import _Value, require_int
from .lattice import is_prime


class IntMatrix:
    """An immutable rows x cols integer matrix: one dict of nonzero entries per row.

    The product, sum and power are each one routine on those dicts; the
    dense row-major `entries` tuple is derived for callers that read it.
    IntMatrix(rows, cols, entries) and from_rows check their input: the
    shape, and that every entry is an integer (a float or a string is
    refused, not truncated or parsed).  from_text's values come from int(),
    and results the class computes come from the private _from_row_dicts;
    neither is checked again.  The package reads the row dicts in place.  A
    Smith form reduces the rows it is given in place, so callers hand over
    rows they own: classify hands it the rows of A - I and of the norm,
    matrices it has just built and holds alone.
    """

    __slots__ = ("rows", "cols", "_row_dicts")

    def __init__(self, rows: int, cols: int, entries) -> None:
        entries = [require_int(e, "matrix entries") for e in entries]
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        rows_of = (entries[i * cols : (i + 1) * cols] for i in range(rows))
        self._set(rows, cols, [{j: v for j, v in enumerate(r) if v} for r in rows_of])

    def _set(self, rows: int, cols: int, row_dicts: list[dict[int, int]]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_row_dicts", row_dicts)

    @classmethod
    def _from_row_dicts(cls, rows: int, cols: int, row_dicts) -> "IntMatrix":
        """A matrix owning row dicts the class built itself, zeros dropped."""
        out = object.__new__(cls)
        out._set(rows, cols, row_dicts)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, [v for r in rows for v in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return cls._from_row_dicts(n, n, [{i: 1} for i in range(n)])

    # -- access ------------------------------------------------------------

    @property
    def entries(self) -> tuple[int, ...]:
        """All rows x cols entries in row-major order."""
        cols = range(self.cols)
        return tuple(r.get(j, 0) for r in self._row_dicts for j in cols)

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError("matrix row index out of range")
        r = self._row_dicts[i]
        return tuple(r.get(j, 0) for j in range(self.cols))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._row_dicts == other._row_dicts
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, *(frozenset(r.items()) for r in self._row_dicts)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._merge(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._merge(other, -1)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._from_row_dicts(
            self.rows, self.cols, [{j: -v for j, v in r.items()} for r in self._row_dicts]
        )

    def _merge(self, other: "IntMatrix", sign: int) -> "IntMatrix":
        """self + sign * other, row by row, zeros dropped."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes disagree")
        out = []
        for a, b in zip(self._row_dicts, other._row_dicts):
            row = dict(a)
            _add_multiple(row, sign, b)
            out.append(row)
        return IntMatrix._from_row_dicts(self.rows, self.cols, out)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        return IntMatrix._from_row_dicts(
            self.rows, other.cols, list(_sparse_product(self._row_dicts, other._row_dicts))
        )

    def __pow__(self, e: int) -> "IntMatrix":
        if not self.is_square():
            raise ValueError("powers need a square matrix")
        if e < 0:
            raise ValueError("negative powers are not supported")
        result = IntMatrix.identity(self.rows)
        square = self
        while e:
            if e & 1:
                result = result @ square
            e >>= 1
            if e:
                square = square @ square
        return result

    def __repr__(self) -> str:
        return f"IntMatrix.from_rows({self.to_rows()!r})"

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        """First line "rows cols", then one whitespace-separated row per line."""
        lines = [f"{self.rows} {self.cols}"]
        for i in range(self.rows):
            lines.append(" ".join(str(v) for v in self.row(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        if not lines:
            raise ValueError("empty matrix text")
        header = lines[0].split()
        if len(header) != 2:
            raise ValueError(f"bad header line {lines[0]!r}; expected 'rows cols'")
        rows, cols = (int(x) for x in header)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        body = lines[1:]
        if not cols and not body:
            # an n x 0 matrix's n empty rows were skipped; to_text writes them
            # as n blank lines, so a header alone cannot ask for a vast n
            raw = text.splitlines()
            found = len(raw) - 1 - raw.index(lines[0])
            if found < rows:
                raise ValueError(f"expected {rows} rows, found {found}")
            body = [""] * rows
        if len(body) != rows:
            raise ValueError(f"expected {rows} rows, found {len(body)}")
        row_dicts = []
        for ln in body:
            vals = list(map(int, ln.split()))
            if len(vals) != cols:
                raise ValueError(f"expected {cols} entries in row {ln!r}")
            row_dicts.append(dict(compress(enumerate(vals), vals)))
        return cls._from_row_dicts(rows, cols, row_dicts)


class AbelianGroupStructure(_Value):
    """A finitely generated abelian group: Z^free_rank + sum of Z/d_i.

    The torsion tuple holds the invariant factors, each at least 2 and each
    dividing the next.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()) -> None:
        what = "free rank and invariant factors"
        free_rank = require_int(free_rank, what)
        tor = tuple(require_int(d, what) for d in torsion)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a chain, got {tor}")
        if any(d < 2 for d in tor):
            raise ValueError("invariant factors must be at least 2")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tor)

    def is_elementary_abelian(self, p: int) -> bool:
        return self.free_rank == 0 and all(d == p for d in self.torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


_entry_value = itemgetter(1)


def _add_multiple(row: dict[int, int], factor: int, other: dict[int, int]) -> None:
    """row += factor * other, in place; an entry that becomes zero is dropped."""
    for j, w in other.items():
        v = row.get(j, 0) + factor * w
        if v:
            row[j] = v
        else:
            del row[j]


def _sparse_product(
    outer_rows: list[dict[int, int]], inner_rows: list[dict[int, int]]
) -> Iterator[dict[int, int]]:
    """outer @ inner on row dicts: the product's rows, lazily, zeros dropped.

    Each row of the product sums the inner rows its entries select, so the
    cost is the number of (entry, inner entry) pairs, not rows x cols x inner.
    """
    for rdict in outer_rows:
        acc: dict[int, int] = {}
        for mid, v in rdict.items():
            for j, w in inner_rows[mid].items():
                acc[j] = acc.get(j, 0) + v * w
        # filter() runs in C; a comprehension made the all-zero rows of a
        # composition of two coboundaries about a quarter slower
        yield dict(filter(_entry_value, acc.items()))


def _least_entry(rows: list[dict[int, int]]) -> tuple[dict[int, int], int]:
    """A row and column holding an entry of least absolute value.

    The scan stops at the first +-1, so a unit is found whenever one is left.
    """
    best = None
    for r in rows:
        for j, v in r.items():
            a = v if v > 0 else -v
            if best is None or a < best:
                if a == 1:
                    return r, j
                best, at = a, (r, j)
    return at


def _invariant_factor_chain(diagonal) -> list[int]:
    """The divisibility chain of a diagonal, by one pass of gcd/lcm swaps.

    Replacing (d_i, d_j) by (gcd, lcm) keeps each prime's multiset of
    exponents, and once row i is done d_i divides every later entry.
    """
    d = [abs(v) for v in diagonal if v]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] * d[j] // g
    return d


def _eliminate(rows: list[dict[int, int]]) -> list[int]:
    """Invariant factors of the rows, by full elimination.

    The pivot is always an entry v of least absolute value, so a unit
    whenever one is left.  Row operations by a // v clear its column up to
    remainders smaller than |v|, which then lead.  Once the pivot is alone
    in its column, column operations reduce its row mod v; a row reduced
    to the pivot alone is dropped and |v| recorded.  Units divide every
    factor, so only the other recorded pivots are sorted into a
    divisibility chain.  The column operations change the row lattice, so
    the rows are consumed: callers hand it copies.
    """
    rows = [r for r in rows if r]
    units = 0
    others = []
    while rows:
        prow, j = _least_entry(rows)
        v = prow[j]
        alone = True
        for r in rows:
            a = r.get(j)
            if a is None or r is prow:
                continue
            _add_multiple(r, -(a // v), prow)
            if j in r:
                alone = False
        done = None
        if alone:
            for j2 in [j2 for j2 in prow if j2 != j]:
                w = prow[j2] % v
                if w:
                    prow[j2] = w
                else:
                    del prow[j2]
            if len(prow) == 1:
                if v == 1 or v == -1:
                    units += 1
                else:
                    others.append(v)
                done = prow
        rows = [r for r in rows if r and r is not done]
    return [1] * units + _invariant_factor_chain(others)


def sparse_smith_normal_form(
    row_dicts: list[dict[int, int]],
) -> tuple[list[int], int, set[int]]:
    """Invariant factors, rank and +-1 pivot columns of a matrix given as row dicts.

    First the rows are reduced at their last column, one after another in
    the given order, as in persistent homology (Edelsbrunner, Letscher and
    Zomorodian, "Topological persistence and simplification", DCG 28
    (2002)).  A row whose last column holds a stored pivot is reduced by it,
    which clears that column, and goes on to its new last column; if the
    row has +-1 there and is shorter than the pivot, it takes the pivot's
    place and the old pivot is reduced instead.  A row whose last entry is
    +-1 in a column without a pivot becomes that column's pivot, and a row
    whose last entry there is not a unit is set aside.  Each set-aside row
    is then reduced by the pivot of every pivot column it holds, the
    highest first, popped from a heap: a reduction at column j only changes
    columns below j.

    Each pivot is +-1 at its last column, so on the pivot columns the
    pivots form a triangle with a unit diagonal, and every other row is
    zero there.  Column operations then clear the rest of each pivot row,
    so the pivots give one unit factor each, and only what the set-aside
    rows kept goes through the full elimination, _eliminate.  Coboundary
    rows listed in face order leave almost nothing to it.

    The pivots' columns come back with the factors: each is the last column
    of an integer combination of the rows that holds +-1 there, which is
    what clearing needs, in sparse_cochain_quotient and, through the rank
    functions, in field mode; set-aside rows add none.

    The rows, each its own dict, are reduced in place: every step adds a
    multiple of one of them to another, so afterwards they span the same
    integer row lattice, each pivot is +-1 at its own last column and the
    set-aside rows hold no pivot column.  Only the rows left to _eliminate
    are copied, since its column operations would change the lattice.  A
    second Smith form of the same list gives the same factors and rank and
    keeps every pivot where it is; a set-aside row the first left to
    _eliminate may then end in a +-1 and add its column to the pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    aside = []
    for row in row_dicts:
        while row:
            j = max(row)
            v = row[j]
            pivot = pivots.get(j)
            if pivot is None:
                if v == 1 or v == -1:
                    pivots[j] = row
                else:
                    aside.append(row)
                break
            if len(row) < len(pivot) and (v == 1 or v == -1):
                pivots[j], row, pivot = row, pivot, row
                v = row[j]
            _add_multiple(row, -v * pivot[j], pivot)
    rest = []
    for row in aside:
        heap = [-j for j in row if j in pivots]
        heapify(heap)
        while heap:
            j = -heappop(heap)
            v = row.get(j)
            if v is None:
                continue
            pivot = pivots[j]
            # the step fills each pivot column the row lacks (its factor is
            # a nonzero multiple of the pivot's +-1), so those join the heap
            for j2 in pivot:
                if j2 not in row and j2 in pivots:
                    heappush(heap, -j2)
            _add_multiple(row, -v * pivot[j], pivot)
        if row:
            rest.append(row)
    divisors = [1] * len(pivots) + _eliminate(list(map(dict, rest)))
    return divisors, len(divisors), set(pivots)


def sparse_rank_over_q(row_dicts: list[dict[int, int]]) -> tuple[int, set[int]]:
    """Rank over Q of a sparse matrix, and the +-1 pivot columns of its Smith form.

    A +-1 pivot is a unit over Q, so its columns serve clearing over Q as
    they do over Z.  The rows are reduced in place, as by
    sparse_smith_normal_form, so a rank over F_p of them after this one
    finds them in echelon form.
    """
    _, rank, pivots = sparse_smith_normal_form(row_dicts)
    return rank, pivots


def sparse_rank_mod_p(row_dicts: list[dict[int, int]], p: int) -> tuple[int, set[int]]:
    """Rank over F_p of a sparse matrix, and the +-1 pivot columns of its Smith form.

    Unimodular operations stay invertible mod p, so the rank over F_p is
    the number of invariant factors over Z that p does not divide.  A +-1
    pivot is a unit mod every p, so its columns serve clearing over F_p
    as they do over Z.  The rows are reduced in place, as by
    sparse_smith_normal_form; rows a rank over Q has already reduced take
    almost no step.
    """
    if not is_prime(p):
        raise ValueError("modulus must be a prime")
    divisors, _, pivots = sparse_smith_normal_form(row_dicts)
    return sum(1 for d in divisors if d % p), pivots


def sparse_cochain_quotient(ranks: list[int], coboundary) -> list[AbelianGroupStructure]:
    """Cohomology of 0 -> Z^ranks[0] -> Z^ranks[1] -> ... -> 0, degree by degree.

    coboundary(k, cleared) returns the rows of d_k : Z^ranks[k] ->
    Z^ranks[k+1], one row dict per basis vector of Z^ranks[k+1] outside the
    set cleared (see below), in order, so that a cleared row is never
    built.  The rows are the caller's to hand over: they are reduced in
    place, by sparse_smith_normal_form, and dropped.  The kernel of an
    integer matrix is a direct summand, so H^k has the invariant factors of
    d_(k-1) as its torsion and free rank ranks[k] - rank d_k - rank d_(k-1).
    Each coboundary goes through one Smith form and serves both of its
    degrees.  Only the number of rows returned is checked: callers vouch for
    d_k composed with d_(k-1) being zero, which this formula assumes.

    The coboundaries are reduced from the top degree down, with clearing
    (Chen and Kerber, "Persistent homology computation with a twist",
    EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and compress", 2014):
    row j of d_k is left out when j is a +-1 pivot column of d_(k+1)'s
    reduction.  That pivot is an integer combination rho of d_(k+1)'s rows
    with +-1 at its last column j, and rho d_k = 0, so row j of d_k is an
    integer combination of rows of smaller index; by induction on j the
    rows left out lie in the Z-span of the rows kept.  The row lattice, and
    with it the rank and every invariant factor, torsion included, is
    unchanged.  Set-aside rows with a non-unit pivot clear nothing.
    """
    torsion: list[tuple[int, ...]] = [()] * len(ranks)
    rank = [0] * (len(ranks) + 1)
    cleared: set[int] = set()  # the +-1 pivot columns of the coboundary above
    for k in reversed(range(len(ranks) - 1)):
        rows = coboundary(k, cleared)
        if len(rows) != ranks[k + 1] - len(cleared):
            raise ValueError(
                f"d_{k} must have one row per basis vector of Z^{ranks[k + 1]} "
                f"outside the {len(cleared)} cleared"
            )
        divisors, rank[k + 1], cleared = sparse_smith_normal_form(rows)
        del rows  # d_k's rows go before d_(k-1)'s are built
        torsion[k + 1] = tuple(d for d in divisors if d > 1)
    return [
        AbelianGroupStructure(m - rank[k + 1] - rank[k], torsion[k])
        for k, m in enumerate(ranks)
    ]
