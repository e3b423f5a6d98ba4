"""Exact integer linear algebra: Smith normal form and cochain quotients.

Matrices carry arbitrary-precision Python ints.  Smith normal form runs in
two phases: a sparse sweep that eliminates +-1 pivots (which is almost all
of the work for simplicial coboundary matrices), then a classic dense
reduction with a least-absolute-value pivot rule on whatever small core
remains.  The eliminated pivots are invariant factors 1, which divide every
other factor, so only the core's diagonal is sorted into a divisibility
chain.  Only invariant factors and ranks are ever needed downstream, so no
basis transforms are tracked.  Cohomology of a cochain complex reduces each
coboundary once: its rank bounds the kernel in its source degree, and its
rank and invariant factors give the image in its target degree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd


class IntMatrix:
    """An immutable rows x cols integer matrix in row-major order."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries) -> None:
        entries = tuple(int(e) for e in entries)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
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
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-a for a in self.entries])

    def _require_same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes disagree")

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = [0] * (self.rows * other.cols)
        oc = other.cols
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a:
                    orow = other.entries[k * oc : (k + 1) * oc]
                    ob = i * oc
                    for j, b in enumerate(orow):
                        if b:
                            out[ob + j] += a * b
        return IntMatrix(self.rows, other.cols, out)

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

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

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
        body = lines[1:]
        if len(body) != rows:
            raise ValueError(f"expected {rows} rows, found {len(body)}")
        entries = []
        for ln in body:
            vals = [int(x) for x in ln.split()]
            if len(vals) != cols:
                raise ValueError(f"expected {cols} entries in row {ln!r}")
            entries.extend(vals)
        return cls(rows, cols, entries)


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A finitely generated abelian group: Z^free_rank + sum of Z/d_i.

    The torsion tuple holds the invariant factors, each at least 2 and each
    dividing the next.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        tor = tuple(int(d) for d in self.torsion)
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a chain, got {tor}")
        if any(d < 2 for d in tor):
            raise ValueError("invariant factors must be at least 2")
        object.__setattr__(self, "torsion", tor)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

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


def _sparse_rows(M: IntMatrix) -> list[dict[int, int]]:
    out = []
    for i in range(M.rows):
        base = i * M.cols
        out.append(
            {j: v for j, v in enumerate(M.entries[base : base + M.cols]) if v}
        )
    return out


def _eliminate_unit_pivots(rows, cols) -> int:
    """Clear out +-1 pivots in place; returns how many were eliminated.

    Each unit pivot contributes an invariant factor 1.  Clearing the pivot
    column by row operations leaves the pivot row clearable by column
    operations that touch nothing else, so both are simply deleted.
    """
    count = 0
    queue = deque(
        (i, j) for i, r in rows.items() for j, v in r.items() if v == 1 or v == -1
    )
    while queue:
        i, j = queue.popleft()
        prow = rows.get(i)
        if prow is None:
            continue
        v = prow.get(j)
        if v != 1 and v != -1:
            continue
        for i2 in list(cols.get(j, ())):
            if i2 == i:
                continue
            r2 = rows.get(i2)
            if r2 is None:
                continue
            a = r2.get(j)
            if not a:
                continue
            factor = a * v  # v is +-1, so a / v == a * v
            for j2, w in prow.items():
                nv = r2.get(j2, 0) - factor * w
                if nv:
                    r2[j2] = nv
                    cols.setdefault(j2, set()).add(i2)
                    if nv == 1 or nv == -1:
                        queue.append((i2, j2))
                else:
                    if j2 in r2:
                        del r2[j2]
                        cols[j2].discard(i2)
            if not r2:
                del rows[i2]
        for j2 in prow:
            cols[j2].discard(i)
        del rows[i]
        count += 1
    return count


def _dense_snf_diagonal(a: list[list[int]]) -> list[int]:
    """Diagonalize a small dense matrix in place; returns the diagonal."""
    m = len(a)
    n = len(a[0]) if m else 0
    out = []
    t = 0
    while t < m and t < n:
        # least-absolute-value pivot limits coefficient growth
        pi = pj = -1
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best is None:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
        while True:
            p = a[t][t]
            improved = False
            for i in range(t + 1, m):
                v = a[i][t]
                if v:
                    q = v // p
                    if q:
                        arow, prow = a[i], a[t]
                        for j in range(t, n):
                            arow[j] -= q * prow[j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        if a[t][t] < 0:
                            a[t] = [-w for w in a[t]]
                        improved = True
                        break
            if improved:
                continue
            for j in range(t + 1, n):
                v = a[t][j]
                if v:
                    q = v // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        if a[t][t] < 0:
                            a[t] = [-w for w in a[t]]
                        improved = True
                        break
            if not improved:
                break
        out.append(a[t][t])
        t += 1
    return out


def _invariant_factor_chain(diagonal) -> list[int]:
    """Sort a diagonal into a divisibility chain by pairwise gcd/lcm swaps."""
    d = sorted(abs(v) for v in diagonal if v)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
        d.sort()
    return d


def sparse_smith_normal_form(
    row_dicts: list[dict[int, int]],
) -> tuple[list[int], int]:
    """Invariant factors and rank for a matrix given as one dict per row.

    The input is consumed; pass copies to keep it.
    """
    rows = {i: r for i, r in enumerate(row_dicts) if r}
    cols: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    units = _eliminate_unit_pivots(rows, cols)
    if rows:
        live_cols = sorted({j for r in rows.values() for j in r})
        col_of = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in rows]
        for di, r in enumerate(rows.values()):
            row = dense[di]
            for j, v in r.items():
                row[col_of[j]] = v
        core = _dense_snf_diagonal(dense)
    else:
        core = []
    # a unit divides every factor, so only the core needs chaining
    divisors = [1] * units + _invariant_factor_chain(core)
    return divisors, len(divisors)


def smith_normal_form(M: IntMatrix) -> tuple[list[int], int]:
    """Nonzero invariant factors of M (a divisibility chain) and its rank."""
    return sparse_smith_normal_form(_sparse_rows(M))


def sparse_rank_over_q(row_dicts: list[dict[int, int]]) -> int:
    """Rank over Q of a sparse matrix; consumes copies of the rows."""
    return sparse_smith_normal_form([dict(r) for r in row_dicts])[1]


def sparse_rank_mod_p(row_dicts: list[dict[int, int]], p: int) -> int:
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


def rank_mod_p(M: IntMatrix, p: int) -> int:
    """Rank of M over the field with p elements."""
    return sparse_rank_mod_p(_sparse_rows(M), p)


def _sparse_composition_is_zero(
    outer_rows: list[dict[int, int]], inner_rows: list[dict[int, int]]
) -> bool:
    for rdict in outer_rows:
        acc: dict[int, int] = {}
        for mid, v in rdict.items():
            for j, w in inner_rows[mid].items():
                acc[j] = acc.get(j, 0) + v * w
        if any(acc.values()):
            return False
    return True


def composition_is_zero(outer: IntMatrix, inner: IntMatrix) -> bool:
    """Whether outer @ inner vanishes, computed sparsely."""
    if outer.cols != inner.rows:
        raise ValueError("inner dimensions disagree")
    return _sparse_composition_is_zero(_sparse_rows(outer), _sparse_rows(inner))


def sparse_cochain_quotient(
    ranks: list[int], coboundaries: list[list[dict[int, int]]]
) -> list[AbelianGroupStructure]:
    """Cohomology of 0 -> Z^ranks[0] -> Z^ranks[1] -> ... -> 0, degree by degree.

    coboundaries[k] maps Z^ranks[k] to Z^ranks[k+1] as one row dict per basis
    vector of Z^ranks[k+1]; the rows are left untouched.  The kernel of an
    integer matrix is a direct summand, so H^k has the invariant factors of
    d_(k-1) as its torsion and free rank ranks[k] - rank d_k - rank d_(k-1).
    Each coboundary is reduced once and serves both of its degrees.
    """
    if len(coboundaries) != len(ranks) - 1:
        raise ValueError(
            f"{len(ranks)} cochain groups need {len(ranks) - 1} coboundaries, "
            f"got {len(coboundaries)}"
        )
    for k, rows in enumerate(coboundaries):
        if len(rows) != ranks[k + 1]:
            raise ValueError(
                f"d_{k} must have one row per basis vector of Z^{ranks[k + 1]}"
            )
    for k in range(1, len(coboundaries)):
        if not _sparse_composition_is_zero(coboundaries[k], coboundaries[k - 1]):
            raise ValueError(f"not a complex: d_{k} composed with d_{k - 1} is nonzero")
    torsion: list[tuple[int, ...]] = [()]
    rank = [0]
    for rows in coboundaries:
        divisors, r = sparse_smith_normal_form([dict(row) for row in rows])
        torsion.append(tuple(d for d in divisors if d > 1))
        rank.append(r)
    rank.append(0)
    return [
        AbelianGroupStructure(m - rank[k + 1] - rank[k], torsion[k])
        for k, m in enumerate(ranks)
    ]


def cohomology_of_cochain_pair(
    d_in: IntMatrix, d_out: IntMatrix
) -> AbelianGroupStructure:
    """Structure of ker(d_out) / im(d_in) for consecutive cochain maps.

    d_in maps into Z^m and d_out maps out of it; the composite must vanish.
    This is degree 1 of the three-term complex d_in, d_out.
    """
    if d_in.rows != d_out.cols:
        raise ValueError(
            f"chain groups disagree: d_in lands in Z^{d_in.rows}, "
            f"d_out leaves Z^{d_out.cols}"
        )
    return sparse_cochain_quotient(
        [d_in.cols, d_in.rows, d_out.rows], [_sparse_rows(d_in), _sparse_rows(d_out)]
    )[1]
