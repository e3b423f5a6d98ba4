import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import toroidal.oracle
import toroidal.snf
from conftest import (
    block_diag,
    components,
    conjugate,
    cyclic_permutation_matrix,
    cyclotomic_companion_matrix,
    euler_characteristic,
    fixed_subcomplex,
    ref_barycentric_subdivide,
    ref_chains,
    ref_cochain_quotient,
    ref_exterior_power_matrix,
    ref_is_regular,
    ref_rank_mod_p,
    run_in_400_mib,
    sign_matrix,
    verify_fixed_point_structure,
)
from toroidal.classify import classify
from toroidal.cohomology import quotient_cohomology
from toroidal.lattice import LatticeType
from toroidal.oracle import (
    CellPoset,
    DEFAULT_SIMPLEX_GATE,
    ComplexTooLarge,
    EquivariantModel,
    IrregularAction,
    SimplicialAction,
    SimplicialComplex,
    barycentric_subdivide,
    build_equivariant_torus,
    hexagonal_torus_complex,
    is_regular,
    quotient_complex,
    rational_alpha_oracle,
    regularize,
    run_oracle_case,
    subdivision_size,
)
from toroidal.oracle import _chains_ending_at, _order_complex_size
from toroidal.snf import AbelianGroupStructure, IntMatrix

SRC = Path(__file__).resolve().parents[1] / "src"

RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 2),
        (0, 1, 3),
        (0, 2, 4),
        (0, 3, 5),
        (0, 4, 5),
        (1, 2, 5),
        (1, 3, 4),
        (1, 4, 5),
        (2, 3, 4),
        (2, 3, 5),
    ],
)

CIRCLE4 = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def groups(K, **kw):
    return [str(g) for g in K.integral_cohomology(**kw)]


def test_circle_cohomology():
    assert groups(CIRCLE4) == ["Z", "Z"]


def test_rp2_cohomology():
    assert groups(RP2) == ["Z", "0", "Z/2"]
    assert euler_characteristic(RP2) == 1
    assert RP2.betti_numbers() == RP2.betti_numbers(0) == [[1, 0, 0]]
    assert RP2.betti_numbers(0, 2, 3) == [[1, 0, 0], [1, 1, 1], [1, 0, 0]]


def test_torus_from_poset_product():
    from toroidal.oracle import product_model

    circle = (CellPoset.cycle(3), list(range(6)))
    poset, perm = product_model([circle, circle], [0, 1])
    assert len(poset) == 36 and perm == tuple(range(36))
    torus = poset.order_complex()
    assert euler_characteristic(torus) == 0
    assert torus.betti_numbers(0) == [[1, 2, 1]]
    assert groups(torus) == ["Z", "Z^2", "Z"]
    # swapping the factors fixes exactly the diagonal cells
    _, swap = product_model([circle, circle], [1, 0])
    assert sorted(swap) == list(range(36))
    assert sum(i == j for i, j in enumerate(swap)) == 6


def test_subdivision_counts():
    sub = barycentric_subdivide(CIRCLE4)
    assert sub.vertex_count == 8
    assert len(sub.facets) == 8
    triangle = SimplicialComplex(3, [(0, 1, 2)])
    sub = barycentric_subdivide(triangle)
    assert len(sub.facets) == 6
    assert sub.vertex_count == 7


def test_subdivision_invariance():
    for K in (CIRCLE4, RP2):
        once = barycentric_subdivide(K)
        assert groups(once) == groups(K)
        assert once.betti_numbers(0) == K.betti_numbers(0)


def test_is_regular_reflection_true():
    action = SimplicialAction(2, (0, 3, 2, 1))
    assert is_regular(CIRCLE4, action)


def test_is_regular_trivial_true():
    action = SimplicialAction(2, (0, 1, 2, 3))
    assert is_regular(CIRCLE4, action)


def test_is_regular_reads_the_cached_label_sets_once():
    # quotient_complex drops a complex's label sets; one that lands between
    # is_regular's check of the cache and its read of it made the read
    # fail with TypeError.  This action's comparison drops them just there.
    K = SimplicialComplex(4, CIRCLE4.facets)

    class DroppingAction(SimplicialAction):
        __hash__ = SimplicialAction.__hash__

        def __eq__(self, other):
            if not isinstance(other, SimplicialAction):
                return NotImplemented
            K._label_sets = None
            return (self.order, self.vertex_map) == (other.order, other.vertex_map)

    for vertex_map, regular in (((0, 3, 2, 1), True), ((2, 3, 0, 1), False)):
        assert is_regular(K, SimplicialAction(2, vertex_map)) is regular
        # the subclass's reflected __eq__ runs first in the cache check
        assert is_regular(K, DroppingAction(2, vertex_map)) is regular


def test_is_regular_rejects_antipodal_identification():
    # the antipodal rotation fixes nothing setwise, yet the orbit complex
    # would collapse two edge orbits onto one vertex-orbit pair; the check
    # must refuse it (one subdivision then suffices)
    antipodal = SimplicialAction(2, (2, 3, 0, 1))
    assert not is_regular(CIRCLE4, antipodal)
    with pytest.raises(IrregularAction):
        quotient_complex(CIRCLE4, antipodal)
    K, act, q, rounds = regularize(CIRCLE4, antipodal)
    assert rounds == 1
    assert q == quotient_complex(K, act)
    assert groups(q) == ["Z", "Z"]  # the quotient of a free involution on S^1


def test_quotient_circle_by_reflection_is_interval():
    q = quotient_complex(CIRCLE4, SimplicialAction(2, (0, 3, 2, 1)))
    assert q.vertex_count == 3
    assert q.facets == ((0, 1), (1, 2))
    assert groups(q) == ["Z", "0"]


def test_quotient_of_a_non_pure_complex_keeps_its_lower_facets():
    # a triangle with two pendant edges swapped: the quotient's facets are
    # not all top-dimensional, so they are not read off the top label sets
    K = SimplicialComplex(5, [(0, 1, 2), (2, 3), (2, 4)])
    q = quotient_complex(K, SimplicialAction(2, (0, 1, 2, 4, 3)))
    assert q.facets == ((0, 1, 2), (2, 3))
    assert_as_generated(q)


def test_quotient_point():
    point = SimplicialComplex(1, [(0,)])
    q = quotient_complex(point, SimplicialAction(3, (0,)))
    assert q.vertex_count == 1
    assert groups(q) == ["Z"]


def test_quotient_torus_by_swap_is_moebius():
    model = build_equivariant_torus(case="cyclic", p=2, n=1)
    assert model.complex.betti_numbers(0) == [[1, 2, 1]]  # honest 2-torus
    _, _, q, rounds = regularize(model.complex, model.action)
    assert rounds == 0
    assert euler_characteristic(q) == 0
    assert groups(q) == ["Z", "Z", "0"]


def test_sign_model_r1():
    model = build_equivariant_torus(case="sign", r=1)
    K = model.complex
    assert K.betti_numbers(0) == [[1, 1]]  # a circle
    fixed = fixed_subcomplex(K, model.action)
    assert fixed is not None and fixed.vertex_count == 2
    assert len(components(fixed)) == 2
    assert model.lattice_type == LatticeType(2, 1, 0, 0)


def test_betti_numbers_reject_a_composite_modulus():
    # a point has no coboundary with rows, yet its modulus is still checked
    point = SimplicialComplex(1, [[0]])
    for K in (build_equivariant_torus(case="sign", r=1).complex, point):
        with pytest.raises(ValueError, match="modulus must be a prime"):
            K.betti_numbers(4)
        with pytest.raises(ValueError, match="modulus must be a prime"):
            K.betti_numbers(0, 4)


def test_hexagonal_model():
    K, vm = hexagonal_torus_complex(3)
    assert euler_characteristic(K) == 0
    assert K.betti_numbers(0) == [[1, 2, 1]]
    action = SimplicialAction(3, vm)
    action.validate_on(K)
    model = build_equivariant_torus(case="hexagonal")
    assert not is_regular(model.complex, model.action)
    report = run_oracle_case(model, "integral")
    assert report.passed and report.subdivisions == 1
    assert [r.actual for r in report.rows] == ["Z", "0", "Z"]
    assert verify_fixed_point_structure(model)


def test_hexagonal_grid_validation():
    with pytest.raises(ValueError):
        hexagonal_torus_complex(4)
    K, vm = hexagonal_torus_complex(6)
    assert euler_characteristic(K) == 0
    SimplicialAction(3, vm).validate_on(K)


def test_fixed_point_structures():
    for kw in (
        dict(case="sign", r=2),
        dict(case="cyclic", p=2, n=1),
        dict(case="sign", r=1, t=1),
    ):
        model = build_equivariant_torus(**kw)
        assert verify_fixed_point_structure(model), kw


def test_sign_with_trivial_factor():
    model = build_equivariant_torus(case="sign", r=1, t=1)
    assert model.lattice_type == LatticeType(2, 1, 0, 1)
    report = run_oracle_case(model, "integral")
    assert report.passed
    assert [r.actual for r in report.rows] == ["Z", "Z", "0"]


def test_field_mode_report():
    model = build_equivariant_torus(case="sign", r=2)
    report = run_oracle_case(model, "field")
    assert report.passed
    assert len(report.rows) == 6  # degrees 0..2 over Q and over F_2


def test_field_mode_rank_over_f_p_finds_the_rows_reduced(monkeypatch):
    # each Smith form reduces its rows in place, so on a quotient without
    # torsion the rank over Q leaves each degree's rows as +-1 pivots and
    # empty rows, and the rank over F_2 after it takes no reduction step
    steps, ring = Counter(), [None]
    real_add = toroidal.snf._add_multiple

    def add_multiple(*args):
        steps[ring[0]] += 1
        real_add(*args)

    def spy(name):
        rank = getattr(toroidal.oracle, name)

        def spied(*args):
            ring[0] = name
            return rank(*args)

        return spied

    monkeypatch.setattr(toroidal.snf, "_add_multiple", add_multiple)
    for name in ("sparse_rank_over_q", "sparse_rank_mod_p"):
        monkeypatch.setattr(toroidal.oracle, name, spy(name))
    assert run_oracle_case(build_equivariant_torus(case="sign", r=2, m=4), "field").passed
    assert steps["sparse_rank_over_q"] > 0 and steps["sparse_rank_mod_p"] == 0


def test_mixed_sign_and_swap_model():
    # the one family that always needs a subdivision: a reflection-fixed
    # vertex lies under both edges of an edge orbit while the swap side
    # stays asymmetric
    model = build_equivariant_torus(case="mixed", r=1, n=1)
    assert model.lattice_type == LatticeType(2, 1, 1, 0)
    assert not is_regular(model.complex, model.action)
    # its subdivision has 60 288 simplices, past twice the default gate
    report = run_oracle_case(model, "field", max_simplices=60288 // 2)
    assert report.passed and report.subdivisions == 1
    assert verify_fixed_point_structure(model)
    with pytest.raises(ValueError):
        build_equivariant_torus(case="mixed", r=0, n=1)
    with pytest.raises(ValueError):
        build_equivariant_torus(case="mixed", p=3)


def test_mixed_models_with_trivial_factors():
    # product posets subdivide their factors, so the hexagonal piece that is
    # irregular on its own becomes regular inside the product
    model = build_equivariant_torus(case="hexagonal", t=1)
    assert model.lattice_type == LatticeType(3, 1, 0, 1)
    report = run_oracle_case(model, "field")
    assert report.passed and report.subdivisions == 0
    model = build_equivariant_torus(case="cyclic", p=2, n=1, t=1)
    report = run_oracle_case(model, "integral")
    assert report.passed
    assert [r.actual for r in report.rows] == ["Z", "Z^2", "Z", "0"]
    assert verify_fixed_point_structure(model)


def test_each_case_defaults_the_counts_it_uses_and_refuses_the_others():
    # r and n default to 1 where a case counts them; elsewhere a given count
    # was dropped, and the model checked another type than the one asked for
    for kw, lattice_type in (
        ({"case": "sign"}, LatticeType(2, 1, 0, 0)),
        ({"case": "cyclic", "p": 3}, LatticeType(3, 0, 1, 0)),
        ({"case": "mixed"}, LatticeType(2, 1, 1, 0)),
        ({"case": "hexagonal"}, LatticeType(3, 1, 0, 0)),
    ):
        assert build_equivariant_torus(**kw).lattice_type == lattice_type
    for kw, message in (
        ({"case": "sign", "n": 5}, "the sign case takes no n, got 5"),
        ({"case": "cyclic", "p": 3, "r": 1}, "the cyclic case takes no r, got 1"),
        ({"case": "hexagonal", "r": 2}, "the hexagonal case takes no r, got 2"),
        ({"case": "hexagonal", "n": 1}, "the hexagonal case takes no n, got 1"),
    ):
        with pytest.raises(ValueError, match=message):
            build_equivariant_torus(**kw)


def test_unsupported_case():
    with pytest.raises(ValueError):
        build_equivariant_torus(case="projective")
    with pytest.raises(ValueError):
        build_equivariant_torus(case="sign", p=3)
    with pytest.raises(ValueError):
        build_equivariant_torus(case="cyclic")


def test_size_gate():
    with pytest.raises(ComplexTooLarge):
        RP2.integral_cohomology(max_simplices=5)
    model = build_equivariant_torus(case="sign", r=2)
    with pytest.raises(ComplexTooLarge):
        run_oracle_case(model, "integral", max_simplices=10)


def test_integral_gate_refuses_oversized_models_before_subdividing(monkeypatch):
    # a quotient keeps at least 1/p of the model's faces, so a model past
    # p times the gate is refused before regularize runs
    import toroidal.oracle as mod

    calls = []
    real = mod.regularize

    def counted(K, action, max_simplices=None):
        calls.append(K)
        return real(K, action, max_simplices)

    monkeypatch.setattr(mod, "regularize", counted)
    model = build_equivariant_torus(case="sign", r=1)
    total = model.complex.face_count()
    assert total % 2 == 0
    with pytest.raises(ComplexTooLarge, match="--max-size"):
        run_oracle_case(model, "integral", max_simplices=total // 2 - 1)
    assert calls == []
    with pytest.raises(ComplexTooLarge, match="field mode"):
        run_oracle_case(model, "integral", max_simplices=total // 2)
    assert len(calls) == 1
    # field mode meets the same gate on the model
    with pytest.raises(ComplexTooLarge, match=f"model has {total} simplices"):
        run_oracle_case(model, "field", max_simplices=total // 2 - 1)
    assert len(calls) == 1


def _cells_per_dimension(poset):
    return [poset.dims.count(d) for d in range(max(poset.dims) + 1)]


def test_product_model_size_is_counted_from_the_factors_shapes(monkeypatch):
    import toroidal.oracle as mod

    counts = []
    real = mod.product_model

    def counted(factors, coordinate_permutation):
        counts.append(_order_complex_size([_cells_per_dimension(poset) for poset, _ in factors]))
        return real(factors, coordinate_permutation)

    monkeypatch.setattr(mod, "product_model", counted)
    for kw in (
        dict(case="sign", r=1),
        dict(case="sign", r=2),
        dict(case="sign", r=3),
        dict(case="sign", r=4),
        dict(case="sign", r=1, t=1),
        dict(case="cyclic", p=2),
        dict(case="cyclic", p=3),
        dict(case="mixed", r=1, n=1),
        dict(case="hexagonal", t=1),
        dict(case="hexagonal", t=2),
    ):
        counts.clear()
        K = build_equivariant_torus(**kw).complex
        # the formula, the count over the poset and the listed chains agree
        total = K.face_count()
        assert counts == [total], kw
        assert [len(faces) for faces in K.faces().values()] == K._f_vector, kw
    # the t = 0 hexagonal model is the triangular torus itself, 6 m^2
    # simplices: p times the gate admits exactly that many
    counts.clear()
    for m in (3, 6):
        total = build_equivariant_torus(case="hexagonal", m=m).complex.face_count()
        assert total == 6 * m * m
        with pytest.raises(ComplexTooLarge, match=f"model has {total} simplices"):
            build_equivariant_torus(case="hexagonal", m=m, max_simplices=2 * m * m - 1)
        model = build_equivariant_torus(case="hexagonal", m=m, max_simplices=2 * m * m)
        assert model.complex.face_count() == total
    assert counts == []
    # c(0, b) = 1 + sum_(b' < b) C(b, b') 2^(b - b') c(0, b')
    assert [_chains_ending_at(0, b) for b in range(3)] == [1, 3, 17]
    assert _order_complex_size([(4, 4)] * 5) == 35454976
    assert _order_complex_size([(4, 4)] * 6) == 2455240704
    assert _order_complex_size([(3, 3)] * 5) == 8413632
    # a refused model builds no circle and no triangular torus
    built = []
    monkeypatch.setattr(mod.CellPoset, "cycle", lambda m: built.append(m))
    monkeypatch.setattr(mod, "hexagonal_torus_complex", lambda grid: built.append(grid))
    # (sizes that stay small if built; the CLI tests run the huge ones)
    for kw in (
        dict(case="sign", r=5),
        dict(case="sign", r=1, m=20001),
        dict(case="cyclic", p=2, m=10001),
        dict(case="cyclic", p=1000003),
        dict(case="hexagonal", m=102),
        dict(case="hexagonal", m=30, t=1),
    ):
        with pytest.raises(ComplexTooLarge, match="model has"):
            build_equivariant_torus(**kw, max_simplices=DEFAULT_SIMPLEX_GATE)
    assert built == []


def test_integral_gate_refuses_a_product_model_before_building_it(monkeypatch):
    import toroidal.oracle as mod

    built = []
    monkeypatch.setattr(mod, "product_model", lambda *args: built.append(args))
    # sign --r 5 has 35 454 976 simplices from 32 768 cells
    with pytest.raises(ComplexTooLarge, match="model has 35454976 simplices"):
        build_equivariant_torus(case="sign", r=5, max_simplices=20000)
    # a million circle factors pass the bound on cells alone after a few
    with pytest.raises(ComplexTooLarge, match="model has at least"):
        build_equivariant_torus(case="cyclic", p=1000003, max_simplices=20000)
    # sign --r 1 has 16 simplices: 2 * 8 is admitted, 2 * 7 is not
    with pytest.raises(ComplexTooLarge, match="model has 16 simplices"):
        build_equivariant_torus(case="sign", r=1, max_simplices=7)
    # a gate of 0 reports the first factor's count, not the empty product's 1
    with pytest.raises(ComplexTooLarge, match="model has 16 simplices"):
        build_equivariant_torus(case="sign", r=1, max_simplices=0)
    with pytest.raises(ComplexTooLarge, match="model has at least 6 simplices"):
        build_equivariant_torus(case="cyclic", p=3, n=1, max_simplices=0)
    assert built == []
    monkeypatch.undo()
    assert build_equivariant_torus(case="sign", r=1, max_simplices=8).complex.face_count() == 16


def test_subdivision_size_counts_the_chains_of_faces():
    models = [
        build_equivariant_torus(case="hexagonal", m=6),
        build_equivariant_torus(case="cyclic", p=2, m=2),
        build_equivariant_torus(case="sign", r=2, m=3),
    ]
    for K in [CIRCLE4, RP2] + [model.complex for model in models]:
        assert subdivision_size(K) == barycentric_subdivide(K).face_count()
    # sum of f_d * Fubini(d + 1) over the f-vector (1296, 19440, 64800, 77760, 31104)
    assert subdivision_size(build_equivariant_torus(case="cyclic", p=2, n=2).complex) == (
        1296 + 19440 * 3 + 64800 * 13 + 77760 * 75 + 31104 * 541
    )


def test_integral_gate_refuses_a_subdivision_before_building_it(monkeypatch):
    # the subdivision's quotient keeps at least 1/p of its faces too, so an
    # irregular model whose subdivision passes p times the gate is refused
    # before barycentric_subdivide runs
    import toroidal.oracle as mod

    built = []
    real = mod.barycentric_subdivide

    def counted(K, action=None):
        built.append(K)
        return real(K, action)

    monkeypatch.setattr(mod, "barycentric_subdivide", counted)
    model = build_equivariant_torus(case="cyclic", p=2, m=2)
    size = subdivision_size(model.complex)
    assert not is_regular(model.complex, model.action) and size % 2 == 0
    with pytest.raises(ComplexTooLarge, match=f"subdivision would have {size} simplices"):
        run_oracle_case(model, "integral", max_simplices=size // 2 - 1)
    assert built == []
    with pytest.raises(ComplexTooLarge, match="field mode"):
        run_oracle_case(model, "integral", max_simplices=size // 2)
    assert len(built) == 1
    # field mode meets the same gate on the subdivision
    with pytest.raises(ComplexTooLarge, match=f"subdivision would have {size} simplices"):
        run_oracle_case(model, "field", max_simplices=size // 2 - 1)
    assert len(built) == 1
    # a regular model is never subdivided, so its subdivision's size is no bar
    model = build_equivariant_torus(case="sign", r=1)
    assert subdivision_size(model.complex) > 2 * 9
    assert run_oracle_case(model, "integral", max_simplices=9).passed


@pytest.mark.parametrize("mode", ["integral", "field"])
def test_no_gate_is_none_in_both_modes(mode):
    # integral mode compared its face count with None and raised TypeError
    model = build_equivariant_torus("sign", r=1, max_simplices=None)
    assert run_oracle_case(model, mode, None).passed


def test_regularize_gates_the_second_subdivision_too():
    # the rotated triangle needs two subdivisions, of 12 and 24 simplices:
    # under the order 3, a gate of 4 admits the first and refuses the second
    triangle = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
    rotation = SimplicialAction(3, (1, 2, 0))
    with pytest.raises(ComplexTooLarge, match="model's subdivision would have 12 simplices"):
        regularize(triangle, rotation, max_simplices=3)
    with pytest.raises(ComplexTooLarge, match="second subdivision would have 24 simplices"):
        regularize(triangle, rotation, max_simplices=7)
    _, _, quotient, rounds = regularize(triangle, rotation, max_simplices=8)
    assert rounds == 2 and quotient.face_count() == 8


def test_orbit_labels_are_found_once_per_action():
    # (orbit id per vertex, orbit sizes)
    assert SimplicialAction(2, (1, 0, 2, 3))._orbits == ((0, 0, 1, 2), (2, 1, 1))
    # the regularity check, its validation and the quotient share one walk
    model = build_equivariant_torus(case="sign", r=1)
    assert run_oracle_case(model).passed
    orbits = vars(model.action)["_orbits"]
    quotient_complex(model.complex, model.action)
    assert vars(model.action)["_orbits"] is orbits


def test_action_validation():
    with pytest.raises(ValueError):
        SimplicialAction(2, (0, 0, 1, 2))
    # on the boundary of a triangle, regularize with a gate of 5 raised
    # ZeroDivisionError under order 0 and reported a quotient of at least
    # -6 simplices under order -2
    for order in (0, -2):
        with pytest.raises(ValueError, match="order of an action must be at least 1"):
            SimplicialAction(order, (1, 0, 2))
    rotation = SimplicialAction(4, (1, 2, 3, 0))
    rotation.validate_on(CIRCLE4)  # order 4 on the square is fine
    with pytest.raises(ValueError):
        SimplicialAction(3, (1, 2, 3, 0)).validate_on(CIRCLE4)
    # transposing two adjacent vertices of the square sends the edge (1,2)
    # to the non-face (0,2)
    with pytest.raises(ValueError):
        SimplicialAction(2, (1, 0, 2, 3)).validate_on(CIRCLE4)
    # subdivision cannot repair a non-simplicial action, so regularize lets
    # that error through
    with pytest.raises(ValueError) as info:
        regularize(CIRCLE4, SimplicialAction(2, (1, 0, 2, 3)))
    assert not isinstance(info.value, IrregularAction)


def test_actions_refuse_non_integer_orders_and_maps():
    # int() truncated the map (1.9, 0.2) to the swap (1, 0) and parsed
    # ("1", "0") as it, and the order 2.5 passed
    for order, vertex_map in ((2, (1.9, 0.2)), (2, ("1", "0")), (2.5, (1, 0)), ("2", (1, 0))):
        with pytest.raises(ValueError, match="must be integers"):
            SimplicialAction(order, vertex_map)
    assert SimplicialAction(2, [1, 0]).vertex_map == (1, 0)


def test_built_actions_skip_the_public_check(monkeypatch):
    # the product map and the induced map are permutations by construction;
    # the public constructor converted and sorted each of them again
    def refuse(action, *args):
        raise AssertionError("a built action went through the public check")

    monkeypatch.setattr(SimplicialAction, "__init__", refuse)
    model = build_equivariant_torus(case="sign", r=2, m=3)
    report = run_oracle_case(model)
    assert report.passed and report.subdivisions == 1
    K, induced = barycentric_subdivide(model.complex, model.action)
    monkeypatch.undo()
    for built, complex_ in ((model.action, model.complex), (induced, K)):
        assert type(built.vertex_map) is tuple and len(built.vertex_map) == complex_.vertex_count
        assert SimplicialAction(built.order, built.vertex_map) == built


def test_subdivision_refuses_a_map_that_is_not_simplicial_on_the_complex():
    # with validate_on's messages: a transposition of adjacent vertices of
    # the square, a map one vertex short, and one a vertex long whose
    # restriction to the square is the reflection
    for vertex_map, message in (
        ((1, 0, 2, 3), "not simplicial"),
        ((1, 0, 2), "permutation length"),
        ((0, 3, 2, 1, 4), "permutation length"),
    ):
        with pytest.raises(ValueError, match=message):
            barycentric_subdivide(CIRCLE4, SimplicialAction(2, vertex_map))


def test_regularity_validates_actions_the_model_was_not_built_with(monkeypatch):
    validated = []
    real = SimplicialAction.validate_on

    def counted(action, K):
        validated.append(action)
        return real(action, K)

    monkeypatch.setattr(SimplicialAction, "validate_on", counted)
    model = build_equivariant_torus(case="sign", r=1)
    K = model.complex
    assert is_regular(K, model.action) and not validated
    # the square's order complex: swapping vertex cells 0 and 1 sends the
    # facet (0, 7), vertex 0 in edge {3, 0}, to the non-face (1, 7)
    swap = SimplicialAction(2, (1, 0) + tuple(range(2, K.vertex_count)))
    for check in (is_regular, quotient_complex):
        with pytest.raises(ValueError, match="not simplicial"):
            check(K, swap)
    # the built map declared with another order is checked for that order
    with pytest.raises(ValueError, match="order dividing 3"):
        is_regular(K, SimplicialAction(3, model.action.vertex_map))
    trivial = SimplicialAction(2, tuple(range(K.vertex_count)))
    assert is_regular(K, trivial)
    assert validated == [swap, swap, SimplicialAction(3, model.action.vertex_map), trivial]


def test_product_model_refuses_maps_that_are_not_poset_automorphisms():
    from toroidal.oracle import _circle, product_model

    square = CellPoset.cycle(4)
    for cell_map, message in (
        ([0, 0, 2, 3, 4, 5, 6, 7], "permutation of its cells"),
        (list(range(7)), "permutation of its cells"),
        # vertices rotated under fixed edges, and a vertex swapped with an edge
        ([1, 2, 3, 0, 4, 5, 6, 7], "covers onto covers"),
        ([4, 1, 2, 3, 0, 5, 6, 7], "covers onto covers"),
    ):
        with pytest.raises(ValueError, match=message):
            product_model([(square, cell_map)], [0])
    with pytest.raises(ValueError, match="identical posets"):
        product_model([_circle(4), _circle(3)], [1, 0])
    with pytest.raises(ValueError, match="permute the factors"):
        product_model([_circle(3), _circle(3)], [0, 0])
    with pytest.raises(ValueError, match="at least one factor"):
        product_model([], [])
    # equal posets built apart may trade places
    _, swap = product_model([_circle(3), _circle(3)], [1, 0])
    assert sorted(swap) == list(range(36))


def test_a_product_of_one_factor_is_that_factor():
    from toroidal.oracle import _reflected_circle, product_model

    poset, cell_map = _reflected_circle(5)
    product, perm = product_model([(poset, cell_map)], [0])
    assert (product.dims, product._above, perm) == (poset.dims, poset._above, tuple(cell_map))
    # the general product with a point agrees with the shortcut
    point = CellPoset([0], [()])
    times_point, point_perm = product_model([(poset, cell_map), (point, [0])], [0, 1])
    assert (times_point.dims, times_point._above, point_perm) == (product.dims, product._above, perm)
    # and the one factor is still checked: vertices rotated under fixed edges
    with pytest.raises(ValueError, match="^a factor's cell map must send covers onto covers$"):
        product_model([(poset, [1, 2, 3, 4, 0, *cell_map[5:]])], [0])
    with pytest.raises(ValueError, match="^the coordinate permutation must permute the factors$"):
        product_model([(poset, cell_map)], [1])


def test_product_posets_are_not_closed_from_covers(monkeypatch):
    # circles are written in closed form and a product takes its up-sets
    # from its factors', so a model of circles closes no covers at all
    from toroidal.oracle import _cells_above

    closed = []

    def spy(covers):
        closed.append(len(covers))
        return _cells_above(covers)

    monkeypatch.setattr("toroidal.oracle._cells_above", spy)
    for kwargs, cells in (
        (dict(case="sign", r=2), 64),
        (dict(case="sign", r=1, t=1), 32),
        (dict(case="cyclic", p=2, n=1), 36),
    ):
        model = build_equivariant_torus(**kwargs)
        assert model.complex.vertex_count == cells and closed == [], kwargs


CLEARED_ROW_CASES = {
    "RP2": None,
    "sign --r 2 --t 1": dict(case="sign", r=2, t=1),
    "hexagonal --t 1": dict(case="hexagonal", t=1),
    "cyclic --p 2 --n 1 --t 1": dict(case="cyclic", p=2, n=1, t=1),
}


@pytest.mark.parametrize("name", CLEARED_ROW_CASES)
def test_cohomology_builds_no_row_for_a_cleared_face(name, monkeypatch):
    # top-down, d_k gets one row per (k+1)-face outside the set d_(k+1)
    # cleared, f_(k+1) - |cleared|, in integral and field mode alike; field
    # mode builds each degree's rows once and reduces that one list over Q
    # and then over F_p
    kwargs = CLEARED_ROW_CASES[name]
    if kwargs is None:
        p = 2

        def fresh():
            return SimplicialComplex(RP2.vertex_count, RP2.facets)

    else:
        model = build_equivariant_torus(**kwargs)
        K, action, _, _ = regularize(model.complex, model.action)
        p = action.order

        def fresh():
            return quotient_complex(K, action)

    reference = fresh()
    f, dim = reference._f_vector, reference.dim
    full = [reference.coboundary_rows(k) for k in range(dim)]
    expected = ref_cochain_quotient(f, full)
    rank_p = [0] + [ref_rank_mod_p(rows, p) for rows in full] + [0]

    real, built = SimplicialComplex.coboundary_rows, []

    def spy(self, k, cleared=frozenset()):
        rows = real(self, k, cleared)
        built.append((k, len(cleared), rows))
        return rows

    monkeypatch.setattr(SimplicialComplex, "coboundary_rows", spy)
    assert fresh().integral_cohomology() == expected
    assert [k for k, _, _ in built] == list(reversed(range(dim)))
    assert all(len(rows) == f[k + 1] - cleared for k, cleared, rows in built)
    integral = [len(rows) for _, _, rows in built]

    built.clear()
    reduced = []
    for rank_name in ("sparse_rank_over_q", "sparse_rank_mod_p"):

        def rank(rows, *modulus, rank_name=rank_name, real=getattr(toroidal.oracle, rank_name)):
            reduced.append((rank_name, rows))
            return real(rows, *modulus)

        monkeypatch.setattr(toroidal.oracle, rank_name, rank)
    assert fresh().betti_numbers(0, p) == [
        [group.free_rank for group in expected],
        [m - rank_p[k + 1] - rank_p[k] for k, m in enumerate(f)],
    ]
    assert [k for k, _, _ in built] == list(reversed(range(dim + 1)))
    assert all(len(rows) == f[k + 1] - cleared for k, cleared, rows in built if k < dim)
    assert [len(rows) for _, _, rows in built] == [0] + integral
    assert [rank_name for rank_name, _ in reduced] == [
        "sparse_rank_over_q",
        "sparse_rank_mod_p",
    ] * (dim + 1)
    over_q, over_p = reduced[::2], reduced[1::2]
    assert all(
        a is rows and b is rows
        for (_, a), (_, b), (_, _, rows) in zip(over_q, over_p, built, strict=True)
    )
    if kwargs is None:
        # d_1's nine unit pivots clear nine of the 15 edges; its factor 2
        # clears none
        assert integral == [10, 15 - 9]
    else:
        assert sum(integral) < sum(f[1:])


@pytest.mark.parametrize("mode", ["integral", "field"])
@pytest.mark.parametrize("m, rounds", [(3, 1), (4, 0)])
def test_the_oracle_keeps_no_rows_or_label_sets_once_it_has_run(m, rounds, mode, monkeypatch):
    # sign --r 2 --m 3 is irregular: its model is checked, then subdivided
    # once; at m = 4 the model itself is quotiented.  A subdivision is gone
    # before the quotient's cohomology starts, and after the run neither the
    # model's complex nor the quotient holds label sets, coboundary rows or
    # any other state but its own cells and action
    subdivided = []
    real_subdivide = toroidal.oracle.barycentric_subdivide

    def subdivide(K, action=None):
        out = real_subdivide(K, action)
        subdivided.append(weakref.ref(out[0]))
        return out

    alive_at_cohomology = []
    method = "integral_cohomology" if mode == "integral" else "betti_numbers"
    real_cohomology = getattr(SimplicialComplex, method)

    def cohomology(self, *args):
        gc.collect()
        alive_at_cohomology.extend(ref() for ref in subdivided if ref() is not None)
        return real_cohomology(self, *args)

    monkeypatch.setattr(toroidal.oracle, "barycentric_subdivide", subdivide)
    monkeypatch.setattr(SimplicialComplex, method, cohomology)
    model = build_equivariant_torus(case="sign", r=2, m=m)
    report = run_oracle_case(model, mode)
    assert report.passed and report.subdivisions == len(subdivided) == rounds
    assert alive_at_cohomology == []
    kept = {"vertex_count", "_facets", "_faces", "_poset", "_action", "_label_sets", "_f_vector"}
    for complex_ in (model.complex, report.quotient):
        assert complex_._label_sets is None and set(vars(complex_)) <= kept


def test_complex_text_round_trip():
    text = RP2.to_text()
    assert SimplicialComplex.from_text(text) == RP2
    with pytest.raises(ValueError):
        SimplicialComplex.from_text("bogus\n")


def test_complex_text_checks_the_header_dimension():
    # both used to load as the triangle's boundary, written back as dim 1
    circle = "vertices 3\n0 1\n0 2\n1 2\n"
    assert SimplicialComplex.from_text("dim 1 " + circle).to_text() == "dim 1 " + circle
    with pytest.raises(ValueError, match="header says dim 7, but the facets have dim 1"):
        SimplicialComplex.from_text("dim 7 " + circle)
    with pytest.raises(ValueError, match="dim and vertices take integers"):
        SimplicialComplex.from_text("dim x " + circle)


def test_complexes_refuse_float_vertices_and_counts():
    # 0.0 == 0 and hashes alike, so the float edge passed the vertex check
    for vertex_count, facets in ((2, [(0.0, 1.0)]), (2, [("0", "1")]), (2.0, [(0, 1)])):
        with pytest.raises(ValueError, match="integer"):
            SimplicialComplex(vertex_count, facets)
    assert SimplicialComplex(2, [(1, 0)]).facets == ((0, 1),)


def test_the_constructor_keeps_the_maximal_faces_of_what_it_is_given():
    # non-maximal and repeated-vertex simplices, and a non-pure complex
    for vertex_count, given, facets, text in (
        (3, [(0, 1, 2), (0, 1), (2,)], ((0, 1, 2),), "dim 2 vertices 3\n0 1 2\n"),
        (2, [(1, 0, 1)], ((0, 1),), "dim 1 vertices 2\n0 1\n"),
        (4, [(1, 2), (3,), (2, 1, 0), (0,)], ((0, 1, 2), (3,)), "dim 2 vertices 4\n0 1 2\n3\n"),
    ):
        K = SimplicialComplex(vertex_count, given)
        assert (K.facets, K.dim, K.to_text()) == (facets, len(facets[0]) - 1, text)
        assert SimplicialComplex.from_text(text) == K


def test_the_constructor_bounds_the_faces_before_listing_them(monkeypatch):
    # a 30-vertex simplex's 2^30 - 1 faces were all listed, past the child's
    # 400 MiB; each distinct simplex counts once, however it is written
    out = run_in_400_mib(
        "from toroidal.oracle import SimplicialComplex\n"
        "text = 'dim 29 vertices 30\\n' + ' '.join(map(str, range(30)))\n"
        "for build in (\n"
        "    lambda: SimplicialComplex(30, [range(30), range(29, -1, -1), (0, 1)]),\n"
        "    lambda: SimplicialComplex.from_text(text),\n"
        "):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    refusal = "the given simplices have up to {} faces, past the 1048576 a complex may list\n"
    assert out == refusal.format(2**30 + 2) + refusal.format(2**30 - 1)
    # the bound counts each given simplex's faces, shared or not
    monkeypatch.setattr(toroidal.oracle, "MAX_LISTED_FACES", 7)
    assert SimplicialComplex(3, [(0, 1, 2), (2, 1, 0)]).face_count() == 7
    with pytest.raises(ValueError, match="up to 10 faces, past the 7 a complex may list"):
        SimplicialComplex(3, [(0, 1, 2), (0, 1)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimplicialComplex(1, []), "a complex needs at least one vertex"),
        # accepted as a complex of dimension -1, whose dim was max() of nothing
        (lambda: SimplicialComplex(0, [()]), "a complex needs at least one vertex"),
        (lambda: SimplicialComplex.from_text(" \n"), "empty complex text"),
        (lambda: CellPoset([0, 0, 1], [(), ()]), "dims and covers disagree in length"),
        (
            lambda: run_oracle_case(build_equivariant_torus(case="sign", r=1), mode="bogus"),
            "unknown mode 'bogus'",
        ),
    ],
    ids=["no-facet", "no-vertex", "empty-text", "poset-lengths", "oracle-mode"],
)
def test_oracle_inputs_are_refused_with_a_message(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_complexes_compare_the_vertex_count_before_building_its_range():
    # set(range(10**9)) ran out of a 400 MiB address space with MemoryError;
    # the child caps its own address space before it reads the complex
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from toroidal.oracle import SimplicialComplex\n"
        "try:\n"
        "    SimplicialComplex.from_text('dim 1 vertices 1000000000\\n0 1\\n')\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().startswith("ValueError: every vertex"), proc.stdout


def test_components():
    two = SimplicialComplex(5, [(0, 1), (1, 2), (3, 4)])
    pieces = components(two)
    assert len(pieces) == 2
    assert pieces[0].vertex_count == 3
    assert pieces[1].vertex_count == 2


def test_cell_poset_cycle_order_complex():
    circle = CellPoset.cycle(3).order_complex()
    assert circle.vertex_count == 6
    assert circle.betti_numbers(0) == [[1, 1]]


def test_cell_poset_covers_come_before_their_cells():
    for dims, covers in (
        ([1, 0], [(1,), ()]),
        ([0, 1], [(), (1,)]),
        ([0, 1], [(), (-1,)]),
        ([0, 0, 1], [(), (), (0, 3)]),
    ):
        with pytest.raises(ValueError, match="smaller index"):
            CellPoset(dims, covers)
    # a cover two dimensions down, one in the same dimension, and cells
    # that cover nothing without being vertices
    for dims, covers, message in (
        ([0, 0, 2], [(), (), (0, 1)], "one dimension less"),
        ([0, 0], [(), (0,)], "one dimension less"),
        ([0, 1], [(), ()], "just when it is a vertex"),
        ([-1], [()], "just when it is a vertex"),
    ):
        with pytest.raises(ValueError, match=message):
            CellPoset(dims, covers)
    CellPoset([0, 0, 1], [(), (), (0, 1)])


def assert_as_generated(K, note=None):
    """K's facets and faces are those the public constructor makes of its facets."""
    generated = SimplicialComplex(K.vertex_count, K.facets)
    assert K.facets == generated.facets, note
    assert K.faces() == generated.faces(), note


def test_listed_faces_are_the_faces_of_the_facets():
    # order complexes read their facets off their chains, and quotients
    # take the label sets of is_regular's pass: both must be the maximal
    # faces and the faces their facets generate, in the same order, with
    # and without subdivision
    for kw in (
        dict(case="sign", r=1, m=3),
        dict(case="sign", r=2),
        dict(case="sign", r=2, m=5),
        dict(case="sign", r=1, t=1),
        dict(case="cyclic", p=2, n=1),
        dict(case="cyclic", p=3, n=1, m=2),
        dict(case="hexagonal"),
        dict(case="hexagonal", t=1),
        dict(case="mixed", r=1, n=1, m=2),
    ):
        model = build_equivariant_torus(**kw)
        subdivided = barycentric_subdivide(model.complex, model.action)
        for K, action in ((model.complex, model.action), subdivided):
            regular, _, quotient, _ = regularize(K, action)
            for complex_ in (K, regular, quotient):
                assert_as_generated(complex_, kw)
                if complex_._poset is not None:
                    assert complex_.faces() == ref_chains(complex_._poset), kw


def test_products_of_cycles_list_the_faces_of_their_facets():
    from toroidal.oracle import _circle, _reflected_circle, product_model

    rng = random.Random(5)
    for _ in range(12):
        count = rng.randint(1, 3)
        factors = [
            rng.choice((_circle, _reflected_circle))(rng.randint(2, 5 if count < 3 else 2))
            for _ in range(count)
        ]
        cperm = list(range(count))
        if count > 1 and rng.random() < 0.5:
            # a swap of two equal factors, still of order 2 with the reflections
            factors[1] = factors[0]
            cperm[:2] = [1, 0]
        poset, perm = product_model(factors, cperm)
        K = poset.order_complex()
        regular, _, quotient, _ = regularize(K, SimplicialAction(2, perm))
        for complex_ in (K, regular, quotient):
            assert_as_generated(complex_)


def test_exterior_power_examples():
    w = ref_exterior_power_matrix(sign_matrix(2), 2)
    assert w == IntMatrix.from_rows([[1]])
    assert rational_alpha_oracle(sign_matrix(2), 2)[1:] == [0, 1]
    assert rational_alpha_oracle(cyclic_permutation_matrix(3), 3)[1] == 1


def test_rational_oracle_rejects_wrong_order():
    swap = cyclic_permutation_matrix(2)
    for a, p in ((swap, 3), (IntMatrix.from_rows([[1, 1], [0, 1]]), 2), (swap, 5)):
        with pytest.raises(ValueError, match="order"):
            rational_alpha_oracle(a, p)


def test_rational_oracle_against_tables():
    rng = random.Random(31)
    cases = [
        (sign_matrix(3), 2),
        (cyclic_permutation_matrix(2), 2),
        (cyclic_permutation_matrix(3), 3),
        (cyclotomic_companion_matrix(3), 3),
        (block_diag(sign_matrix(1), cyclic_permutation_matrix(2)), 2),
    ]
    for a, p in cases:
        a = conjugate(a, rng)
        table = quotient_cohomology(classify(a, p), a.rows)
        assert rational_alpha_oracle(a, p) == table.free_ranks()


def test_rational_oracle_dense_grid():
    # every block sum of the basic summands up to rank 6, for p in {2, 3}
    rng = random.Random(47)
    summands = {
        2: [sign_matrix(1), cyclic_permutation_matrix(2), IntMatrix.identity(1)],
        3: [
            cyclotomic_companion_matrix(3),
            cyclic_permutation_matrix(3),
            IntMatrix.identity(1),
        ],
    }
    for p, parts in summands.items():
        for counts in (
            (i, j, k)
            for i in range(3)
            for j in range(2)
            for k in range(3)
            if 0 < i * parts[0].rows + j * parts[1].rows + k <= 6
        ):
            blocks = []
            for part, count in zip(parts, counts):
                blocks.extend([part] * count)
            a = block_diag(*blocks)
            if rng.random() < 0.5:
                a = conjugate(a, rng)
            table = quotient_cohomology(classify(a, p), a.rows)
            assert rational_alpha_oracle(a, p) == table.free_ranks(), (p, counts)


def test_models_keep_their_bytes():
    # facets, vertex map and description hashed as the models were first built
    for kw, prefix in (
        (dict(case="sign", r=2, t=1), "b2c33b799989a2c7"),
        (dict(case="cyclic", p=3, n=1), "a5f2e146871d2f6a"),
        (dict(case="mixed", r=1, n=1, t=1), "77b62d6cc2ffe25d"),
        (dict(case="hexagonal", t=1), "6e1ec6dba64f0244"),
        (dict(case="hexagonal", m=6), "7ed1b604e3f58aa1"),
    ):
        model = build_equivariant_torus(**kw)
        text = (
            model.complex.to_text()
            + " ".join(map(str, model.action.vertex_map))
            + "\n"
            + model.description
            + "\n"
        )
        assert hashlib.sha256(text.encode()).hexdigest().startswith(prefix), kw


def test_oracle_report_shape():
    model = build_equivariant_torus(case="sign", r=1)
    report = run_oracle_case(model)
    assert report.passed
    assert report.mode == "integral"
    assert report.lattice_type == LatticeType(2, 1, 0, 0)
    assert [r.label for r in report.rows] == ["H^0", "H^1"]


def test_models_match_the_face_by_face_references():
    # at every level regularize visits: the same verdict, and the same
    # subdivided facets and induced vertex map
    for kw in (
        dict(case="sign", r=1, m=3),
        dict(case="sign", r=1, m=4),
        dict(case="sign", r=2, m=3),
        dict(case="sign", r=2, m=4),
        dict(case="sign", r=1, t=1),
        dict(case="cyclic", p=2, n=1),
        dict(case="cyclic", p=3, n=1),
        dict(case="hexagonal", m=3),
        dict(case="hexagonal", m=6),
        dict(case="hexagonal", t=1),
        dict(case="mixed", r=1, n=1),
    ):
        model = build_equivariant_torus(**kw)
        K, action = model.complex, model.action
        while not ref_is_regular(K, action):
            assert not is_regular(K, action), kw
            subdivided = barycentric_subdivide(K, action)
            K, action = ref_barycentric_subdivide(K, action)
            assert subdivided == (K, action), kw
        assert is_regular(K, action), kw


def test_oracle_checks_each_complex_once(monkeypatch):
    import toroidal.oracle as mod

    checked = []
    real = mod.is_regular

    def counted(K, action):
        checked.append(K)
        return real(K, action)

    monkeypatch.setattr(mod, "is_regular", counted)
    # cyclic --m 17 is regular, though its subdivision would be past p times
    # the gate: only regularize checks it, once
    for kw, rounds in (
        (dict(case="sign", r=1), 0),
        (dict(case="hexagonal"), 1),
        (dict(case="cyclic", p=2, m=17), 0),
    ):
        checked.clear()
        model = build_equivariant_torus(**kw)
        if kw["case"] == "cyclic":
            assert subdivision_size(model.complex) > 2 * DEFAULT_SIMPLEX_GATE
        report = run_oracle_case(model)
        assert report.passed and report.subdivisions == rounds
        assert len(checked) == rounds + 1, kw


def test_the_oracle_lists_the_chains_of_no_complex_it_quotients(monkeypatch):
    # a regular order complex is checked and quotiented from one chain per
    # orbit, under its action or an equal copy of it; only an irregular
    # model is listed, for its subdivision.  A full listing is the orbit
    # walk under the identity, whose orbits are all points.
    import toroidal.oracle as mod

    listed = []
    real = mod.CellPoset._orbit_label_sets

    def counted(poset, label, sizes):
        if set(sizes) == {1}:
            listed.append(poset)
        return real(poset, label, sizes)

    monkeypatch.setattr(mod.CellPoset, "_orbit_label_sets", counted)
    for kw in (dict(case="sign", r=2), dict(case="cyclic", p=2, n=1), dict(case="hexagonal")):
        for mode in ("integral", "field"):
            report = run_oracle_case(build_equivariant_torus(**kw), mode)
            assert report.passed and listed == [], (kw, mode)
    model = build_equivariant_torus(case="cyclic", p=2, n=1)
    a = model.action
    copy = SimplicialAction(a.order, a.vertex_map)
    assert copy == a and copy is not a and copy.vertex_map is not a.vertex_map
    report = run_oracle_case(
        EquivariantModel(model.complex, copy, model.lattice_type, model.description)
    )
    assert report.passed and report.subdivisions == 0 and listed == []
    model = build_equivariant_torus(case="sign", r=2, m=3)
    report = run_oracle_case(model)
    assert report.passed and report.subdivisions == 1
    assert listed == [model.complex._poset]


def test_each_oracle_case_builds_the_formula_table_once(monkeypatch):
    # field mode reads both Betti vectors off one table; sign --r 3 has
    # H^3 = Z/2, so the F_2 numbers add torsion ranks
    import toroidal.cohomology as cohomology
    import toroidal.oracle as mod

    built = []
    real = cohomology.quotient_cohomology

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cohomology, "quotient_cohomology", counted)
    monkeypatch.setattr(mod, "quotient_cohomology", counted)
    for kw in (dict(case="sign", r=3), dict(case="hexagonal"), dict(case="cyclic", p=3, n=1, m=2)):
        for mode in ("integral", "field"):
            built.clear()
            assert run_oracle_case(build_equivariant_torus(**kw), mode).passed, (kw, mode)
            assert len(built) == 1, (kw, mode)


def test_integral_cohomology_reduces_each_coboundary_once(snf_reductions):
    for kw in (dict(case="sign", r=1), dict(case="hexagonal")):
        quotient = run_oracle_case(build_equivariant_torus(**kw)).quotient
        snf_reductions.clear()
        quotient.integral_cohomology()
        assert len(snf_reductions) == quotient.dim, kw


def test_integral_cohomology_of_quotients_matches_tables_small_grid():
    for kw in (
        dict(case="sign", r=1),
        dict(case="sign", r=2),
        dict(case="cyclic", p=2, n=1),
        dict(case="hexagonal",),
    ):
        model = build_equivariant_torus(**kw)
        L = model.lattice_type
        _, _, q, _ = regularize(model.complex, model.action)
        table = quotient_cohomology(L, L.rank)
        actual = q.integral_cohomology()
        actual += [AbelianGroupStructure(0)] * (L.rank + 1 - len(actual))
        for k in range(L.rank + 1):
            a, b = table[k]
            assert actual[k].free_rank == a
            assert actual[k].torsion == (L.p,) * b
