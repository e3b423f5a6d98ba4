"""Brute-force verification oracles for the torus quotient pipelines.

Two independent ground truths live here.  The rational oracle recomputes the
free ranks as invariant dimensions of exterior powers of the acting matrix,
from the traces of its powers.  The topological oracle builds honest
equivariant triangulations of tori (products of polygonal circles with
reflection or coordinate-rotation actions, plus the rank-2 triangular-lattice
torus with its order-3 rotation), passes to the orbit complex once the action
is regular enough for the quotient to be simplicial, and runs exact
cohomology on the result: the integral groups in integral mode, the Betti
numbers over Q and F_p in field mode.  Both reduce the coboundaries once
each, from the top degree down, with clearing: one degree's rows at a time
are built, without those that clearing leaves out, reduced (over Q and F_p
alike in field mode) and dropped.

Product models are assembled through face posets of regular cell complexes,
held as the cells above each cell (their up-sets): the order complex of the
poset triangulates the space, any cellwise action becomes a simplicial
action on it, and on the face poset of a simplicial complex it is the
barycentric subdivision.  Covers are only an input: circles are written in
closed form, and a product's up-sets come from its factors' in closed form.
The faces of an order complex are the chains of its poset, listed only when
asked for, by the orbit walk below under the identity, never from facets;
its f-vector is counted from the poset without listing them.  The
regularity check groups the faces by their sets of vertex orbits, and once
it passes those sets are the orbit complex's faces, so the quotient reuses
that pass as well, and then drops it.  Under
a poset automorphism whose orbits are points or free, as every prime-order
action is, that pass lists one chain per orbit: a product model is checked
and quotiented without listing its chains, and so is the subdivision of an
irregular model.  Every complex keeps only its faces, or an order complex
its poset; facets are derived only when asked for.  A model's simplices
are counted from its parameters, so the simplex gate can refuse it, in
either mode, before any cell is built, and regularize refuses a
subdivision past the gate before it is built.

Each object is checked once, where it is made.  Outside input, a facet list
(SimplicialComplex), a poset (CellPoset) or an action validated on a
complex (validate_on, and through it is_regular, quotient_complex and
regularize), is checked in full.  product_model checks each distinct
factor's cell map once and where the coordinate permutation moves each
factor; the product map is then a poset automorphism, which acts
simplicially on the order complex.  barycentric_subdivide checks that every
face has an image face, and then the induced map is one too.  The complex
records the one action it was built with, and is_regular skips the
per-facet test for an equal action but still checks the vertex count and
the order.  Product and face posets, order complexes and quotients are
valid by construction and built unchecked, and their coboundaries compose
to zero, so the cochain quotient does not multiply them to check.  So are
the product map's and the induced map's actions, which are permutations.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Set
from functools import cache, cached_property
from itertools import chain, repeat
from math import comb, lcm, prod
from operator import eq, floordiv, index, ne

from .classify import verify_order
from .cohomology import quotient_cohomology
from .errors import ConsistencyError, _Value, require_int
from .lattice import LatticeType
from .snf import (
    AbelianGroupStructure,
    IntMatrix,
    sparse_cochain_quotient,
    sparse_rank_mod_p,
    sparse_rank_over_q,
)

DEFAULT_SIMPLEX_GATE = 20000
# the most faces the checking constructor lists, bounded before it lists any:
# a 20-vertex simplex's 2^20 - 1 faces took 1.9 s and a 190 MiB peak
MAX_LISTED_FACES = 1 << 20
MAX_SUBDIVISIONS = 2


class ComplexTooLarge(ValueError):
    """A model, its subdivision or, in integral mode, its quotient is past the simplex gate."""


class IrregularAction(ValueError):
    """The orbit complex is not a model of the quotient; subdivide first."""


# ---------------------------------------------------------------------------
# simplicial complexes


def _drop_each_vertex(faces) -> Iterator[tuple[int, ...]]:
    """Each of one dimension's faces with each vertex dropped, column-wise.

    One dimension's faces share a length, so dropping vertex i is one zip
    of the other columns, not a slice per face.
    """
    columns = tuple(zip(*faces))
    for i in range(len(columns)):
        yield from zip(*columns[:i], *columns[i + 1 :])


class SimplicialComplex:
    """A finite abstract simplicial complex.

    Vertices are 0..vertex_count-1 and every vertex must occur in some
    facet.  The constructor, for outside input, lists the faces of the
    given simplices, which need not be maximal, from the top dimension
    down, and checks this; it refuses simplices with more than
    MAX_LISTED_FACES faces in all, counted before any is listed.  Every
    complex keeps its faces, or an order complex its poset, and nothing
    else: quotients are built from their faces and order complexes from
    their posets, unchecked, and an order complex lists its chains only
    when asked.  Facets are derived from the faces, once, when asked for;
    coboundary rows are never kept.  An order complex records the one
    action it was built with, which acts simplicially.
    """

    def __init__(self, vertex_count: int, facets) -> None:
        vertex_count = require_int(vertex_count, "vertex counts")
        by_dim: dict[int, set] = {}  # the distinct given simplices by dimension
        try:
            for f in facets:
                f = tuple(sorted(set(map(index, f))))
                by_dim.setdefault(len(f) - 1, set()).add(f)
        except TypeError:
            raise ValueError("facets must be sequences of integer vertices") from None
        by_dim.pop(-1, None)  # the empty simplex
        # a d-simplex has 2^(d+1) - 1 faces: bound them before listing any
        bound = sum(((2 << d) - 1) * len(fs) for d, fs in by_dim.items())
        if bound > MAX_LISTED_FACES:
            raise ValueError(
                f"the given simplices have up to {bound} faces, past the "
                f"{MAX_LISTED_FACES} a complex may list"
            )
        # from the top down, each dimension's faces with a vertex dropped
        for d in range(max(by_dim, default=0), 0, -1):
            by_dim.setdefault(d - 1, set()).update(_drop_each_vertex(by_dim[d]))
        if not by_dim:
            raise ValueError("a complex needs at least one vertex")
        faces = {d: tuple(sorted(by_dim[d])) for d in sorted(by_dim)}
        # the count first, so a vast vertex_count builds no range
        if len(faces[0]) != vertex_count or faces[0] != tuple(zip(range(vertex_count))):
            raise ValueError("every vertex in 0..vertex_count-1 must appear in a facet")
        self._set(vertex_count, faces)

    @classmethod
    def _from_faces(cls, vertex_count: int, faces) -> "SimplicialComplex":
        """A complex the package built, unchecked: sorted faces by dimension."""
        out = object.__new__(cls)
        out._set(vertex_count, faces)
        return out

    @classmethod
    def _from_poset(cls, poset: "CellPoset") -> "SimplicialComplex":
        """A poset's order complex, unchecked (CellPoset.order_complex)."""
        out = object.__new__(cls)
        out._set(len(poset), None, poset)
        return out

    def _set(self, vertex_count: int, faces, poset=None) -> None:
        self.vertex_count = vertex_count
        self._facets: tuple[tuple[int, ...], ...] | None = None
        self._faces: dict[int, tuple[tuple[int, ...], ...]] | None = faces
        self._poset: CellPoset | None = poset
        # the action the complex was built with, and the last action's label
        # sets until quotient_complex reads them
        self._action: SimplicialAction | None = None
        self._label_sets: tuple[SimplicialAction, dict[int, Counter]] | None = None

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """The maximal faces, sorted; derived from the faces once, here."""
        if self._facets is None:
            faces = self.faces().values()
            # a face lies in a larger one just when it lies in one a dimension up
            covered = set(chain.from_iterable(map(_drop_each_vertex, faces)))
            self._facets = tuple(sorted(f for fs in faces for f in fs if f not in covered))
        return self._facets

    @property
    def dim(self) -> int:
        if self._poset is not None:
            # the longest chains run from a vertex through one cell per dimension
            return max(self._poset.dims)
        return max(self._faces)

    @cached_property
    def _f_vector(self) -> list[int]:
        """Faces per dimension; an order complex counts its chains without listing them."""
        if self._poset is not None:
            return self._poset._chain_counts()
        return [len(fs) for fs in self.faces().values()]

    def faces(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """All faces keyed by dimension, each dimension sorted."""
        if self._faces is None:
            n = len(self._poset)  # the chains, each its own orbit under the identity
            chains = self._poset._orbit_label_sets(tuple(range(n)), (1,) * n)
            self._faces = {d: tuple(counts) for d, counts in chains.items()}
        return self._faces

    def face_count(self) -> int:
        return sum(self._f_vector)

    def coboundary_rows(self, k: int, cleared: Set[int] = frozenset()) -> list[dict[int, int]]:
        """Sparse coboundary from k-cochains: one dict per (k+1)-face not in cleared.

        cleared holds indices of (k+1)-faces whose rows clearing leaves out
        (sparse_cochain_quotient), so they are never built.  The rows are
        not kept: each call builds new ones and hands them over, and the
        caller reduces them in place and drops them.
        """
        faces = self.faces()
        lower, upper = faces.get(k, ()), faces.get(k + 1, ())
        if cleared:
            upper = [f for j, f in enumerate(upper) if j not in cleared]
        at = dict(zip(lower, range(len(lower)))).__getitem__
        # one dimension's faces share a length: drop each vertex column-wise
        columns = tuple(zip(*upper))
        dropped = [map(at, zip(*columns[:i], *columns[i + 1 :])) for i in range(len(columns))]
        signs = [-1 if drop % 2 else 1 for drop in range(len(columns))]
        return [dict(zip(ids, signs)) for ids in zip(*dropped)]

    def _orbit_label_sets(self, action: "SimplicialAction") -> dict[int, Counter]:
        """Per dimension: each face's sorted vertex-orbit labels -> face orbits carrying them.

        Cached for the last action asked about: is_regular checks the counts
        and quotient_complex then takes the label sets as the orbit complex's
        faces and drops them.  An order complex with the action it was
        built with, whose orbits are points or of the full order (always so
        for a prime order), lists one chain per orbit (CellPoset's
        _orbit_label_sets).  Any other complex or action relabels every
        face: when no face holds two vertices of one orbit, as is_regular
        checks first, the faces with one label set form whole orbits of the
        lcm of its orbit sizes.
        """
        # one read: quotient_complex may drop the cache between two
        cached = self._label_sets
        if cached is not None and cached[0] == action:
            return cached[1]
        label, sizes = action._orbits
        if self._poset is not None and action == self._action and set(sizes) <= {1, action.order}:
            label_sets = self._poset._orbit_label_sets(label, sizes)
        else:
            at, orbit_size = label.__getitem__, sizes.__getitem__
            label_sets = {}
            for d, faces in self.faces().items():
                # one dimension's faces share a length: relabel them, and
                # take each label set's lcm, column-wise
                counts = Counter(
                    map(tuple, map(sorted, zip(*(map(at, column) for column in zip(*faces)))))
                )
                lcms = map(lcm, *(map(orbit_size, column) for column in zip(*counts)))
                label_sets[d] = Counter(dict(zip(counts, map(floordiv, counts.values(), lcms))))
        self._label_sets = action, label_sets
        return label_sets

    def integral_cohomology(
        self, max_simplices: int | None = DEFAULT_SIMPLEX_GATE
    ) -> list[AbelianGroupStructure]:
        """H^k with integer coefficients for k = 0..dim (max_simplices None: no gate)."""
        total = self.face_count()
        if max_simplices is not None and total > max_simplices:
            raise ComplexTooLarge(
                f"complex has {total} simplices, past the simplex gate of "
                f"{max_simplices} for integral cohomology; use field mode or raise the gate"
            )
        # simplicial coboundaries compose to zero, so nothing checks that;
        # each degree's rows are built once its cleared set is known
        return sparse_cochain_quotient(self._f_vector, self.coboundary_rows)

    def betti_numbers(self, *characteristics: int) -> list[list[int]]:
        """dim H^k, k = 0..dim, over Q (characteristic 0) or F_p: one list per characteristic.

        Over Q alone if no characteristic is given.  The coboundaries are
        reduced in one pass from the top one, d_dim (which has no rows),
        down, with clearing as in sparse_cochain_quotient: the row of d_k for
        the (k+1)-face j is never built when j is a +-1 pivot column of
        d_(k+1).  Those rows lie in the integer span of the rows kept, and a
        +-1 is a unit in every field, so no rank changes.  Each degree's rows
        are built once and handed to every characteristic's Smith form in
        turn.  Each form reduces them in place and keeps their row lattice,
        so the next finds its +-1 pivots already in place and takes almost
        no reduction step.
        """
        faces, characteristics = self.faces(), characteristics or (0,)
        ranks = [[0] * (self.dim + 2) for _ in characteristics]  # [i][k + 1]: rank of d_k
        cleared: set[int] = set()
        for k in reversed(range(self.dim + 1)):
            rows = self.coboundary_rows(k, cleared)
            for rank, c in zip(ranks, characteristics):
                rank[k + 1], cleared = sparse_rank_mod_p(rows, c) if c else sparse_rank_over_q(rows)
        return [[len(faces[k]) - r[k + 1] - r[k] for k in range(self.dim + 1)] for r in ranks]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count and self.facets == other.facets
        )

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex({self.vertex_count} vertices, "
            f"{len(self.facets)} facets, dim {self.dim})"
        )

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"dim {self.dim} vertices {self.vertex_count}"]
        lines.extend(" ".join(str(v) for v in f) for f in self.facets)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimplicialComplex":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty complex text")
        header = lines[0].split()
        if len(header) != 4 or header[0] != "dim" or header[2] != "vertices":
            raise ValueError(f"bad header {lines[0]!r}")
        try:
            dim, vertex_count = int(header[1]), int(header[3])
        except ValueError:
            raise ValueError(f"bad header {lines[0]!r}; dim and vertices take integers") from None
        facets = [tuple(int(v) for v in ln.split()) for ln in lines[1:]]
        K = cls(vertex_count, facets)
        if K.dim != dim:
            raise ValueError(f"header says dim {dim}, but the facets have dim {K.dim}")
        return K


class SimplicialAction(_Value):
    """A simplicial Z/p-action given by the generator's vertex permutation.

    The constructor checks that the order is a positive integer and the
    vertex map a permutation; the private _unchecked builds the induced
    and product maps, permutations by construction, without a check.
    """

    order: int
    vertex_map: tuple[int, ...]

    def __init__(self, order: int, vertex_map: tuple[int, ...]) -> None:
        try:
            order, vertex_map = index(order), tuple(map(index, vertex_map))
        except TypeError:
            raise ValueError("an action's order and vertex map must be integers") from None
        if order < 1:
            raise ValueError("the order of an action must be at least 1")
        if sorted(vertex_map) != list(range(len(vertex_map))):
            raise ValueError("generator map must be a permutation of the vertices")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "vertex_map", vertex_map)

    @classmethod
    def _unchecked(cls, order: int, vertex_map: list[int] | tuple[int, ...]) -> "SimplicialAction":
        """An action whose map the package built as a permutation of ints."""
        out = object.__new__(cls)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "vertex_map", tuple(vertex_map))
        return out

    def validate_on(self, K: SimplicialComplex) -> None:
        """Raise ValueError unless this is a simplicial action on K of order dividing order."""
        self._validate_orbits_on(K)
        facet_set = set(K.facets)
        image = self.vertex_map.__getitem__
        for f in K.facets:
            if tuple(sorted(map(image, f))) not in facet_set:
                raise ValueError(f"action is not simplicial: facet {f} maps off the complex")

    def _validate_orbits_on(self, K: SimplicialComplex) -> None:
        """The part of validate_on that no construction vouches for."""
        if len(self.vertex_map) != K.vertex_count:
            raise ValueError("permutation length disagrees with the vertex count")
        if any(self.order % size for size in self._orbits[1]):
            raise ValueError(f"generator does not have order dividing {self.order}")

    @cached_property
    def _orbits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Orbit id per vertex and the size of each orbit, found once per action."""
        label = [-1] * len(self.vertex_map)
        sizes = []
        for v in range(len(label)):
            if label[v] == -1:
                w, size = v, 0
                while label[w] == -1:
                    label[w] = len(sizes)
                    w = self.vertex_map[w]
                    size += 1
                sizes.append(size)
        return tuple(label), tuple(sizes)


# ---------------------------------------------------------------------------
# regularity, quotients, subdivision


def is_regular(K: SimplicialComplex, action: SimplicialAction) -> bool:
    """Whether the orbit complex is an honest model of the quotient space.

    No facet may carry two vertices of one orbit (so a face fixed setwise
    is fixed vertexwise), and distinct face orbits must have distinct
    vertex-orbit label sets, so each label set is carried by one face
    orbit.  Together these make the orbit complex a simplicial complex
    whose realization is the quotient; either failure is repaired by
    barycentric subdivision.  The label sets and the face orbits carrying
    each come from K's cached pass, which quotient_complex, and any second
    call, then reuses; on an order complex with the action it was built
    with, that pass lists one chain per orbit and never the whole complex.
    An action equal to the one K was built with is simplicial by
    construction; any other is validated on K in full first.
    """
    if action == K._action:
        action._validate_orbits_on(K)
    else:
        action.validate_on(K)
    by_dim = K._orbit_label_sets(action)
    # a facet holds two vertices of one orbit just when one of its edges
    # does, and such an edge has the label set (l, l)
    if 1 in by_dim and any(map(eq, *zip(*by_dim[1]))):
        return False
    # each label set is carried by at least one face orbit, so by one each
    # just when there are as many orbits as label sets
    return all(sum(label_sets.values()) == len(label_sets) for label_sets in by_dim.values())


def quotient_complex(
    K: SimplicialComplex, action: SimplicialAction
) -> SimplicialComplex:
    """The orbit complex: vertices are vertex orbits, faces face orbits.

    Raises IrregularAction when is_regular fails; regularize subdivides
    until it does not.  The faces are the label sets of is_regular's pass,
    sorted, not regenerated from facets: since no facet holds two vertices
    of one orbit, the faces of a facet's label set are the label sets of
    the facet's faces.  So a regular order complex is quotiented from one
    chain per orbit, without listing its chains.  K then drops its label
    sets, regular or not: regularize never reads them again.
    """
    if not is_regular(K, action):
        K._label_sets = None
        raise IrregularAction("action is not regular; barycentric subdivision needed")
    by_dim, K._label_sets = K._orbit_label_sets(action), None
    faces = {d: tuple(sorted(label_sets)) for d, label_sets in by_dim.items()}
    return SimplicialComplex._from_faces(len(action._orbits[1]), faces)


def barycentric_subdivide(
    K: SimplicialComplex, action: SimplicialAction | None = None
):
    """The barycentric subdivision, with the induced action if one is given.

    This is the order complex of the face poset: new vertices are the faces
    of K, new facets the full flags inside each facet.  Face counts grow by
    the factorial of the facet size.  The action must have one image per
    vertex and send every face to a face, else validate_on's ValueError is
    raised; the induced action is then a face poset automorphism, which
    the subdivision records as simplicial.
    """
    poset, index = CellPoset.from_complex(K)
    subdivided = poset.order_complex()
    if action is None:
        return subdivided
    try:
        face_map = _face_map(index, action.vertex_map)
    except (IndexError, KeyError):
        face_map = None
    if face_map is None or len(action.vertex_map) != K.vertex_count:
        # the map has the wrong length, or moves a face off K and with it
        # every facet through that face: validate_on raises
        action.validate_on(K)
    induced = SimplicialAction._unchecked(action.order, face_map)
    subdivided._action = induced
    return subdivided, induced


def subdivision_size(K: SimplicialComplex) -> int:
    """The number of simplices of K's barycentric subdivision, from K's f-vector.

    The subdivision is the order complex of K's face poset, so it is counted
    as a product with that one factor: the chains that end at a d-face are
    the ordered set partitions of its d + 1 vertices, the Fubini number
    c(d, 0) = 1, 3, 13, 75, ... for d = 0, 1, 2, 3.  K's own f-vector is
    counted from its poset if K is an order complex, and listed otherwise.
    """
    return _order_complex_size([K._f_vector])


def regularize(
    K: SimplicialComplex, action: SimplicialAction, max_simplices: int | None = None
) -> tuple[SimplicialComplex, SimplicialAction, SimplicialComplex, int]:
    """Subdivide until the action is regular; two rounds always suffice.

    Returns the regular complex and action, their quotient and the number
    of subdivisions.  Each complex is checked once, by quotient_complex.
    Given max_simplices, the simplex gate, an irregular complex whose
    subdivision would have more than the action's order times that many
    simplices is refused with ComplexTooLarge before it is subdivided: a
    face orbit holds at most that many faces, so its quotient would be past
    the gate.  Each round is gated, the second as well as the first.
    """
    count = 0
    while True:
        try:
            return K, action, quotient_complex(K, action), count
        except IrregularAction:
            if count >= MAX_SUBDIVISIONS:
                raise ConsistencyError(
                    f"action still irregular after {count} barycentric subdivisions"
                ) from None
        what = "the model's subdivision" if not count else "the model's second subdivision"
        _gate(f"{what} would have", subdivision_size(K), action.order, max_simplices)
        K, action = barycentric_subdivide(K, action)
        count += 1


# ---------------------------------------------------------------------------
# face posets of regular cell complexes


class CellPoset:
    """Cells of a regular cell complex: their dimensions and up-sets.

    dims[c] is the dimension of cell c and _above[c] lists the cells above
    c, in increasing order and at larger indices, so each chain read upward
    is a sorted vertex tuple of the order complex, which triangulates the
    underlying space; every cellwise automorphism acts simplicially on it.
    Covers, each cell's faces one dimension down, are only an input: the
    constructor checks that each lies one dimension below its cell at a
    smaller index, and that only vertices cover nothing, and closes them
    once.  Face posets are closed unchecked, circles (cycle) are written in
    closed form, and product posets take their up-sets from their factors'
    (product_model).
    """

    def __init__(self, dims: list[int], covers: list[tuple[int, ...]]) -> None:
        dims, covers = list(dims), list(covers)
        if len(dims) != len(covers):
            raise ValueError("dims and covers disagree in length")
        cells = enumerate(zip(covers, dims))
        if any(not 0 <= f < c or dims[f] + 1 != d for c, (below, d) in cells for f in below):
            raise ValueError(
                "every cover must have a smaller index and one dimension less than its cell"
            )
        if any(map(ne, map(bool, dims), map(bool, covers))):
            raise ValueError("a cell must cover nothing just when it is a vertex")
        self.dims, self._above = dims, _cells_above(covers)

    @classmethod
    def _from_above(cls, dims: list[int], above: list[list[int]]) -> "CellPoset":
        """A poset the package built, unchecked: sorted up-sets, each above its cell's index."""
        out = object.__new__(cls)
        out.dims, out._above = dims, above
        return out

    def __len__(self) -> int:
        return len(self.dims)

    @classmethod
    def cycle(cls, m: int) -> "CellPoset":
        """A circle with m vertices (cells 0..m-1) and m edges (m..2m-1), in closed form.

        Edge m + i joins vertices i and i + 1 (mod m), so vertex i lies
        under edges m + (i - 1) % m and m + i, and the edges under nothing.
        """
        vertices, edges = _cycle_cells(m)
        above = [[m, 2 * m - 1]] + [[m + i - 1, m + i] for i in range(1, vertices)]
        return cls._from_above([0] * vertices + [1] * edges, above + [[]] * edges)

    @classmethod
    def from_complex(cls, K: SimplicialComplex) -> tuple["CellPoset", dict]:
        """The face poset of a simplicial complex, plus the face -> cell map."""
        faces = K.faces()
        flat = [f for d in sorted(faces) for f in faces[d]]
        index = {f: i for i, f in enumerate(flat)}
        # a vertex covers nothing; a larger face covers each face one vertex short
        covers = [
            tuple(index[f[:i] + f[i + 1 :]] for i in range(len(f))) if len(f) > 1 else ()
            for f in flat
        ]
        return cls._from_above([len(f) - 1 for f in flat], _cells_above(covers)), index

    def order_complex(self) -> SimplicialComplex:
        """Vertices are cells and faces the chains, read upward as sorted vertex tuples.

        The chains are listed, as the identity's chain orbits, only when the
        complex's faces() is called; the regularity check and the quotient
        under the action it was built with list one chain per orbit instead,
        and the f-vector is counted from the poset (_chain_counts).
        """
        return SimplicialComplex._from_poset(self)

    def _chain_counts(self) -> list[int]:
        """The order complex's f-vector: the chains of d + 1 cells, counted, not listed.

        The chains of d + 1 cells that start at c are c followed by a chain
        of d cells that starts above c: one per cell above c for d = 1.
        """
        above = self._above
        counts = [len(above)]
        for d in range(1, max(self.dims) + 1):
            # the chains of d + 1 cells, by first cell
            starting = (
                list(map(len, above))
                if d == 1
                else [sum(map(starting.__getitem__, cells)) for cells in above]
            )
            counts.append(sum(starting))
        return counts

    def _orbit_label_sets(
        self, label: tuple[int, ...], sizes: tuple[int, ...]
    ) -> dict[int, Counter]:
        """Per dimension: each chain's cell-orbit labels -> chain orbits carrying them.

        For a poset automorphism whose cell orbits (label, sizes), numbered
        by their least cells, are points or of one size, its order.  A
        chain fixed setwise is fixed cellwise.  Any other chain is moved by
        every power but the identity, and its orbit's last moved cells run
        through one cell orbit, so exactly one chain of the orbit has that
        cell least in its orbit (Babson-Kozlov, J. Algebra 285 (2005)).
        These and the fixed chains, one per orbit, are listed by first
        cell: each cell c followed by a chain that starts above it, a fixed
        chain if c is fixed, or if c is least in its moved orbit, and a
        representative of a moved orbit after any c.  If c < x, each cell
        of x's orbit lies above one of c's, so the least of x's orbit lies
        above a cell of c's and x's label is the larger: a chain's labels
        read upward are already sorted.  Under the identity every chain is
        fixed, and this lists all of them, each length sorted: the order
        complex's faces.
        """
        above, top = self._above, max(self.dims)
        heads = list(zip(label))  # a chain is held as its cells' labels
        least = dict(zip(reversed(label), reversed(range(len(label)))))  # each orbit's least cell
        fixed = [c for c, l in enumerate(label) if sizes[l] == 1]
        fixed_set = set(fixed)
        moved = [c for c in least.values() if c not in fixed_set]
        # the least moved cells that a fixed chain can follow, and the fixed
        # cells above each of those and each fixed cell
        starters = [c for c in moved if not fixed_set.isdisjoint(above[c])]
        fixed_above = {c: sorted(fixed_set.intersection(above[c])) for c in fixed + starters}
        # the fixed chains and the representatives of d + 1 cells, by first cell
        fixed_chains = {c: [heads[c]] for c in fixed}
        # no rows of moved chains at all when no cell moves, as under the identity
        rows = list(zip(heads, above, self.dims)) if moved else []
        moved_chains: list[list[tuple[int, ...]]] = [[] for _ in rows]
        for c in moved:
            moved_chains[c].append(heads[c])
        by_dim = {}
        for d in range(top + 1):
            if d:
                # a chain of d + 1 cells rises a dimension per cell, so a
                # representative starts no higher than dimension top - d
                grown = [
                    _grow(head, moved_chains, cells) if dim <= top - d else []
                    for head, cells, dim in rows
                ]
                for c in starters:
                    grown[c] += _grow(heads[c], fixed_chains, fixed_above[c])
                moved_chains = grown
                fixed_chains = {c: _grow(heads[c], fixed_chains, fixed_above[c]) for c in fixed}
            by_dim[d] = Counter(chain(*moved_chains, *fixed_chains.values()))
        return by_dim


def _cells_above(covers: list[tuple[int, ...]]) -> list[list[int]]:
    """The cells above each cell, in increasing order, from the covers at smaller indices."""
    up: list[list[int]] = [[] for _ in covers]  # the cells covering c
    for c, below in enumerate(covers):
        for f in below:
            up[f].append(c)
    above: list[list[int]] = [[]] * len(covers)
    for c in reversed(range(len(covers))):
        if up[c]:
            above[c] = sorted(set(up[c]).union(*map(above.__getitem__, up[c])))
    return above


def _grow(head: tuple[int, ...], starting, cells) -> list[tuple[int, ...]]:
    """head followed by each chain of starting[c], for c in cells."""
    return list(map(head.__add__, chain.from_iterable(map(starting.__getitem__, cells))))


def _face_map(index: dict, vertex_map) -> list[int]:
    """The cell map a vertex map induces through from_complex's face index."""
    return [index[tuple(sorted(vertex_map[v] for v in f))] for f in index]


def product_model(
    factors: list[tuple[CellPoset, list[int]]],
    coordinate_permutation: list[int],
) -> tuple[CellPoset, tuple[int, ...]]:
    """The product of cell posets and the cell permutation of a product map.

    Each factor is a (CellPoset, cell map) pair.  Product cells are tuples
    of factor cells in lexicographic order, ordered componentwise: the cells
    at or above one are the products of those at or above each coordinate
    (Walker, Europ. J. Combin. 9 (1988)), already sorted.  The map sends
    coordinate f through factor f's cell map and then to position
    coordinate_permutation[f], so factors moved onto each other must be the
    same poset.  Each distinct cell map must be a bijection that sends the
    cells above each cell onto those above its image, as it sends covers
    onto covers; then the product map is a poset automorphism.  The product
    starts from the first factor and takes in the others one at a time; a
    product of one factor is that factor.
    """
    if not factors:
        raise ValueError("a product needs at least one factor")
    for poset, cell_map in [f for i, f in enumerate(factors) if f not in factors[:i]]:
        if sorted(cell_map) != list(range(len(poset))):
            raise ValueError("a factor's cell map must be a permutation of its cells")
        ups = poset._above
        if [sorted(map(cell_map.__getitem__, above)) for above in ups] != list(
            map(ups.__getitem__, cell_map)
        ):
            raise ValueError("a factor's cell map must send covers onto covers")
    if sorted(coordinate_permutation) != list(range(len(factors))):
        raise ValueError("the coordinate permutation must permute the factors")
    posets = [poset for poset, _ in factors]
    if any(
        (a.dims, a._above) != (b.dims, b._above)
        for a, b in zip(posets, map(posets.__getitem__, coordinate_permutation))
    ):
        raise ValueError("the coordinate permutation must move factors onto identical posets")
    (first, first_map), *rest = factors
    if not rest:
        return first, tuple(first_map)
    sizes = [len(poset) for poset, _ in factors]
    # a cell's index steps by stride[g] per step of its coordinate g
    stride = [prod(sizes[g + 1 :]) for g in range(len(sizes))]
    # the product of the factors so far, from the first, one factor at a
    # time: cell i of that product times cell c of the next becomes cell
    # i * size + c; up[i] is cell i and the cells above it
    step = stride[coordinate_permutation[0]]
    dims = list(first.dims)
    up = [[c, *above] for c, above in enumerate(first._above)]
    perm = [image * step for image in first_map]
    for (poset, cell_map), g in zip(rest, coordinate_permutation[1:]):
        size, step = len(poset), stride[g]
        dims = [d + e for d in dims for e in poset.dims]
        factor_up = [[c, *above] for c, above in enumerate(poset._above)]
        up = [[lo * size + hi for lo in low for hi in high] for low in up for high in factor_up]
        perm = [image + cell_map[c] * step for image in perm for c in range(size)]
    return CellPoset._from_above(dims, [cells[1:] for cells in up]), tuple(perm)


@cache
def _chains_ending_at(a: int, b: int) -> int:
    """Chains in the face poset of simplex^a x cube^b that end at the cell itself.

    The cell alone, or a chain ending at a proper face followed by the cell:
    a face is simplex^a' x cube^b', of which there are C(a+1, a'+1) times
    C(b, b') 2^(b-b').  So c(0, 0) = 1, c(0, 1) = 3 and c(0, 2) = 17.
    """
    return 1 + sum(
        comb(a + 1, a2 + 1) * comb(b, b2) * 2 ** (b - b2) * _chains_ending_at(a2, b2)
        for a2 in range(a + 1)
        for b2 in range(b + 1)
        if (a2, b2) != (a, b)
    )


def _order_complex_size(shapes) -> int:
    """Simplices of the order complex of a product of cell posets.

    Each factor is given by its cells per dimension: a circle by its V
    vertices and E edges, or, at most once, the face poset of a simplicial
    complex by the complex's f-vector.  So a product cell is simplex^a x
    cube^b, with a its face's dimension and b its number of edge
    coordinates, and it tops c(a, b) chains (_chains_ending_at).  The cells
    of each shape are the f-vector times the x^b coefficient of the product
    of V + E x over the circles (an edge is a 1-simplex and a 1-cube alike).
    """
    simplices, cubes = [1], [1]
    for f in shapes:
        if len(f) == 2:  # times V + E x
            v, e = f
            cubes = [v * c + e * d for c, d in zip(cubes + [0], [0] + cubes)]
        else:
            simplices = f
    return sum(
        f_a * e_b * _chains_ending_at(a, b)
        for a, f_a in enumerate(simplices)
        for b, e_b in enumerate(cubes)
    )


def _cycle_cells(m: int) -> tuple[int, int]:
    """A polygonal circle's vertices and edges, m of each."""
    if m < 2:
        raise ValueError("a polygonal circle needs at least 2 vertices")
    return m, m


def _circle(m: int) -> tuple[CellPoset, list[int]]:
    """A polygonal circle with m vertices, acted on trivially."""
    return CellPoset.cycle(m), list(range(2 * m))


def _reflected_circle(m: int) -> tuple[CellPoset, list[int]]:
    """A polygonal circle with m vertices under the reflection v_i -> v_(-i)."""
    # edge e_i = {v_i, v_(i+1)} goes to e_(-i-1)
    edges = [m + (-i - 1) % m for i in range(m)]
    return CellPoset.cycle(m), [(-i) % m for i in range(m)] + edges


# ---------------------------------------------------------------------------
# equivariant torus models


class EquivariantModel(_Value):
    """A triangulated torus with a simplicial Z/p-action of known type."""

    complex: SimplicialComplex
    action: SimplicialAction
    lattice_type: LatticeType
    description: str

    def __init__(
        self,
        complex: SimplicialComplex,
        action: SimplicialAction,
        lattice_type: LatticeType,
        description: str,
    ) -> None:
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "lattice_type", lattice_type)
        object.__setattr__(self, "description", description)


def _triangular_torus_cells(grid: int) -> tuple[int, int, int]:
    """The f-vector (N^2, 3 N^2, 2 N^2) of hexagonal_torus_complex at grid N."""
    if grid < 3 or grid % 3:
        raise ValueError("grid must be a positive multiple of 3")
    return grid * grid, 3 * grid * grid, 2 * grid * grid


def hexagonal_torus_complex(grid: int = 3) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """The rank-2 torus from the triangular lattice with its order-3 rotation.

    Vertices are the grid x grid points of the quotient of the triangular
    lattice; each cell splits into an up and a down triangle, and the
    rotation (i, j) -> (-i-j, i) permutes the triangles.  The grid must be a
    positive multiple of 3 so the rotation's three fixed points are vertices.
    """
    vertices, _, _ = _triangular_torus_cells(grid)
    N = grid

    def vid(i: int, j: int) -> int:
        return (i % N) * N + (j % N)

    facets = []
    for i in range(N):
        for j in range(N):
            facets.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            facets.append((vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
    vertex_map = tuple(
        vid(-i - j, i) for i in range(N) for j in range(N)
    )
    return SimplicialComplex(vertices, facets), vertex_map


def build_equivariant_torus(
    case: str,
    *,
    p: int | None = None,
    r: int | None = None,
    n: int | None = None,
    t: int = 0,
    m: int | None = None,
    max_simplices: int | None = None,
) -> EquivariantModel:
    """Construct one of the supported equivariant torus families.

    Given max_simplices, the simplex gate, a model with more than p times
    that many simplices is refused with ComplexTooLarge before any of its
    cells is built: its simplices are counted from the parameters alone,
    and once the product of the factors' cell counts passes the bound, as
    it soon does for a large p, r, n, t or m, the rest is not counted.

    r and n default to 1 in each case that counts them, and a case refuses
    either count if it does not use it: hexagonal uses neither.

    "sign": p = 2 acting by negation on r circle factors, plus t circles
    with trivial action; lattice type (r, 0, t).  m is the number of
    vertices per acted circle (default 4; the default is the smallest size
    whose product actions stay regular without subdivision).

    "cyclic": Z/p cyclically permuting p blocks of n circle factors (n
    copies of the regular representation), plus t trivial circles; type
    (0, n, t).  m defaults to 3 vertices per circle.

    "hexagonal": the order-3 rotation of the triangular-lattice torus, plus
    t trivial circles; p = 3, type (1, 0, t).  m is the grid size
    (default 3).

    "mixed": p = 2 with r sign factors and n swap pairs together (plus t
    trivial circles), type (r, n, t).  The reflection's fixed vertices sit
    under both edges of an edge orbit, so this family always needs one
    barycentric subdivision.  Sizes are kept minimal, yet r = n = 1
    subdivides to 60 288 simplices, past twice the default gate: it needs a
    gate of at least 30 144, such as --max-size 40000.
    """
    for what, count in (("r", r), ("n", n), ("trivial factor count", t)):
        if count is not None and count < 0:
            raise ValueError(f"{what} must be nonnegative, got {count}")
    # each case refuses a count it does not use, and defaults one it does to 1
    uses = {"sign": "r", "cyclic": "n", "hexagonal": ""}.get(case, "rn")
    for what, count in (("r", r), ("n", n)):
        if count is not None and what not in uses:
            raise ValueError(f"the {case} case takes no {what}, got {count}")
    r, n = (1 if count is None else count for count in (r, n))
    # circle factors in runs of (builder, vertices, count), and the
    # coordinate permutation of the acted factors, built once counted
    if case == "sign":
        if p not in (None, 2):
            raise ValueError("the sign case forces p = 2")
        if r < 1:
            raise ValueError("need at least one sign factor")
        L = LatticeType(2, r, 0, t)
        circles = [(_reflected_circle, 4 if m is None else m, r)]
        cperm = range(r)
        description = f"sign action on {r} circle factor(s)"
    elif case == "cyclic":
        if p is None:
            raise ValueError("the cyclic case needs p")
        if n < 1:
            raise ValueError("need at least one regular-representation block")
        L = LatticeType(p, 0, n, t)
        circles = [(_circle, 3 if m is None else m, p * n)]
        # block b, slot j lives at coordinate b*n + j and moves to block b+1
        cperm = (((f // n + 1) % p) * n + (f % n) for f in range(p * n))
        description = f"coordinate {p}-cycle on ({n}-torus)^{p}"
    elif case == "mixed":
        if p not in (None, 2):
            raise ValueError("the mixed case forces p = 2")
        if r < 1 or n < 1:
            raise ValueError(
                "the mixed case needs both sign factors and swap pairs; "
                "use the pure cases otherwise"
            )
        L = LatticeType(2, r, n, t)
        circles = [(_reflected_circle, 3 if m is None else m, r), (_circle, 2, 2 * n)]
        # swap pair b sits at coordinates r + 2b and r + 2b + 1
        cperm = chain(range(r), (r + (f ^ 1) for f in range(2 * n)))
        description = f"sign action on {r} circle factor(s) x swap of {n} pair(s)"
    elif case == "hexagonal":
        if p not in (None, 3):
            raise ValueError("the hexagonal case forces p = 3")
        L = LatticeType(3, 1, 0, t)
        grid, circles, cperm = 3 if m is None else m, [], [0]
        description = "order-3 rotation of the triangular torus"
    else:
        raise ValueError(
            f"unsupported case {case!r}; expected sign, cyclic, hexagonal or mixed"
        )
    circles.append((_circle, 2, t))
    # each factor's cells per dimension, lazily: a long run is cut short
    shapes = chain(
        [_triangular_torus_cells(grid)] if case == "hexagonal" else [],
        *(repeat(_cycle_cells(size), count) for _, size, count in circles),
    )
    cells, counted = 1, []
    for shape in shapes:
        # each cell is a simplex of the order complex
        if counted:
            _gate("model has at least", cells, L.p, max_simplices)
        cells *= sum(shape)
        counted.append(shape)
    # the t = 0 hexagonal model is the triangular torus itself
    total = cells if case == "hexagonal" and not t else _order_complex_size(counted)
    _gate("model has", total, L.p, max_simplices)
    # a run of no circles, such as the t = 0 trivial run, builds none
    factors = [
        factor for build, size, count in circles if count for factor in [build(size)] * count
    ]
    if case == "hexagonal":
        K, vertex_map = hexagonal_torus_complex(grid)
        if not t:
            # the order complex of K's face poset would be its subdivision
            return EquivariantModel(K, SimplicialAction(3, vertex_map), L, description)
        poset, face_index = CellPoset.from_complex(K)
        factors.insert(0, (poset, _face_map(face_index, vertex_map)))
    cperm = list(cperm)
    poset, perm = product_model(factors, cperm + list(range(len(cperm), len(factors))))
    K, action = poset.order_complex(), SimplicialAction._unchecked(L.p, perm)
    K._action = action  # a poset automorphism acts simplicially
    return EquivariantModel(K, action, L, description + (f" x trivial {t}-torus" if t else ""))


# ---------------------------------------------------------------------------
# rational oracle


def _elementary_symmetric(power_sums: list[int]) -> list[int]:
    """e_0..e_n from the power sums p_1..p_n by Newton's identities.

    k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i (Macdonald, Symmetric
    Functions and Hall Polynomials, I.2).
    """
    e = [1]
    for k in range(1, len(power_sums) + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1] for i in range(1, k + 1))
        e_k, rem = divmod(total, k)
        if rem:
            raise ConsistencyError(f"Newton's identities leave {total}/{k} in degree {k}")
        e.append(e_k)
    return e


def rational_alpha_oracle(A: IntMatrix, p: int) -> list[int]:
    """Free ranks of the quotient in degrees 0..n, from A alone.

    The degree-k rank is dim (wedge^k Q^n)^G = (1/p) sum_{j<p} e_k(A^j)
    (Serre, Linear Representations of Finite Groups, 2.3), with e_k(A^j)
    the k-th elementary symmetric function of the eigenvalues of A^j
    (cohomology sees the transpose, which has the same eigenvalues).  Uses
    neither Smith forms nor series.  Raises ValueError unless A^p = I.
    """
    if not verify_order(A, p):
        raise ValueError(f"matrix does not satisfy A^{p} = I; not an order-{p} action")
    n = A.rows
    if A == IntMatrix.identity(n):
        return [comb(n, k) for k in range(n + 1)]
    traces, power = [n], A  # tr(A^m) for m < p
    for m in range(1, p):
        if m > 1:
            power = power @ A
        traces.append(sum(row.get(i, 0) for i, row in enumerate(power._row_dicts)))
    characters = [
        _elementary_symmetric([traces[j * m % p] for m in range(1, n + 1)]) for j in range(p)
    ]
    sums = [sum(column) for column in zip(*characters)]
    if any(s % p for s in sums):
        raise ConsistencyError(f"character sums {sums} are not all divisible by {p}")
    return [s // p for s in sums]


# ---------------------------------------------------------------------------
# end-to-end comparison


class DegreeComparison(_Value):
    """One row of an oracle report: the formula's value and the oracle's."""

    label: str
    expected: str
    actual: str
    ok: bool

    def __init__(self, label: str, expected: str, actual: str, ok: bool) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "ok", ok)


class OracleReport(_Value):
    """One oracle case: its sizes, its quotient and a row per compared degree."""

    description: str
    lattice_type: LatticeType
    mode: str
    subdivisions: int
    total_simplices: int
    quotient: SimplicialComplex
    rows: tuple[DegreeComparison, ...]

    def __init__(
        self,
        description: str,
        lattice_type: LatticeType,
        mode: str,
        subdivisions: int,
        total_simplices: int,
        quotient: SimplicialComplex,
        rows: tuple[DegreeComparison, ...] = (),
    ) -> None:
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "lattice_type", lattice_type)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "subdivisions", subdivisions)
        object.__setattr__(self, "total_simplices", total_simplices)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "rows", rows)

    @property
    def quotient_simplices(self) -> int:
        return self.quotient.face_count()

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)


def _gate(what: str, total: int, p: int, max_simplices: int | None) -> None:
    """Refuse total simplices past p times the gate (None: no gate).

    A face orbit holds at most p faces, so the quotient would be past the gate.
    """
    if max_simplices is not None and total > p * max_simplices:
        raise ComplexTooLarge(
            f"{what} {total} simplices, so its quotient has at least {-(-total // p)}, "
            f"past the simplex gate of {max_simplices}; raise --max-size to admit it"
        )


def run_oracle_case(
    model: EquivariantModel,
    mode: str = "integral",
    max_simplices: int | None = DEFAULT_SIMPLEX_GATE,
) -> OracleReport:
    """Quotient the model and compare against the formula pipeline.

    Integral mode compares the full group structure per degree; field mode
    compares Betti numbers over Q and over F_p (the latter against the
    universal-coefficient combination of free and torsion ranks).
    """
    if mode not in ("integral", "field"):
        raise ValueError(f"unknown mode {mode!r}")
    L = model.lattice_type
    # a face orbit holds at most p faces and subdivision only adds faces, so
    # past p times the gate the quotient is too large.  In either mode,
    # refuse such a model here, and regularize refuses such a subdivision,
    # before either is built.
    _gate("model has", model.complex.face_count(), L.p, max_simplices)
    K, _, quotient, subdivisions = regularize(model.complex, model.action, max_simplices)
    total = K.face_count()
    del K, _  # cohomology runs with no subdivision held
    n = L.rank
    table = quotient_cohomology(L)  # through degree n + 1, for the F_p Betti numbers
    rows = []
    if mode == "integral":
        groups = quotient.integral_cohomology(max_simplices)
        groups += [AbelianGroupStructure(0)] * (n + 1 - len(groups))
        for k in range(n + 1):
            a, b = table[k]
            ok = groups[k].free_rank == a and groups[k].torsion == (L.p,) * b
            rows.append(
                DegreeComparison(
                    f"H^{k}", table.group_string(k), str(groups[k]), ok
                )
            )
    else:
        betti = quotient.betti_numbers(0, L.p)
        for (label, characteristic), actual in zip((("dim_Q", 0), (f"dim_F{L.p}", L.p)), betti):
            expected = table.betti_numbers(characteristic)
            actual += [0] * (n + 1 - len(actual))
            rows.extend(
                DegreeComparison(
                    f"{label} H^{k}", str(expected[k]), str(actual[k]), actual[k] == expected[k]
                )
                for k in range(n + 1)
            )
    return OracleReport(
        model.description,
        L,
        mode,
        subdivisions,
        total,
        quotient,
        tuple(rows),
    )
