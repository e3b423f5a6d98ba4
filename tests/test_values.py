"""The value classes: immutable, compared and hashed by their fields, printed as built."""

import pytest

from toroidal.cohomology import CohomologyTable, FixedPointStructure
from toroidal.lattice import LatticeType
from toroidal.oracle import (
    DegreeComparison,
    EquivariantModel,
    OracleReport,
    SimplicialAction,
    SimplicialComplex,
)
from toroidal.series import AlphaSeries
from toroidal.snf import AbelianGroupStructure

EDGE = SimplicialComplex(2, [(0, 1)])
SWAP = SimplicialAction(2, (1, 0))
SIGN = LatticeType(2, 1, 0, 0)
ROW = DegreeComparison("H^1", "Z", "Z", True)

# class, keyword arguments, a change to one of them, the repr and whether
# the repr evaluates back to an equal value
CASES = [
    (LatticeType, dict(p=2, r=1, s=0, t=0), dict(t=1), "LatticeType(p=2, r=1, s=0, t=0)", True),
    (
        AlphaSeries,
        dict(f_coeffs=(1, 2), g_coeffs=(0, 1)),
        dict(g_coeffs=(0, 2)),
        "AlphaSeries(plus=(1, 3), minus=(1, 1))",
        False,
    ),
    (
        CohomologyTable,
        dict(p=3, entries=((1, 0), (0, 1))),
        dict(p=5),
        "CohomologyTable(p=3, entries=((1, 0), (0, 1)))",
        True,
    ),
    (
        FixedPointStructure,
        dict(component_count=4, component_torus_dim=1),
        dict(component_torus_dim=2),
        "FixedPointStructure(component_count=4, component_torus_dim=1)",
        True,
    ),
    (
        AbelianGroupStructure,
        dict(free_rank=1, torsion=(2, 4)),
        dict(torsion=(2,)),
        "AbelianGroupStructure(free_rank=1, torsion=(2, 4))",
        True,
    ),
    (
        SimplicialAction,
        dict(order=2, vertex_map=(1, 0)),
        dict(order=4),
        "SimplicialAction(order=2, vertex_map=(1, 0))",
        True,
    ),
    (
        EquivariantModel,
        dict(complex=EDGE, action=SWAP, lattice_type=SIGN, description="swap"),
        dict(description="flip"),
        "EquivariantModel(complex=SimplicialComplex(2 vertices, 1 facets, dim 1), "
        "action=SimplicialAction(order=2, vertex_map=(1, 0)), "
        "lattice_type=LatticeType(p=2, r=1, s=0, t=0), description='swap')",
        False,
    ),
    (
        DegreeComparison,
        dict(label="H^1", expected="Z", actual="Z", ok=True),
        dict(ok=False),
        "DegreeComparison(label='H^1', expected='Z', actual='Z', ok=True)",
        True,
    ),
    (
        OracleReport,
        dict(
            description="swap",
            lattice_type=SIGN,
            mode="integral",
            subdivisions=0,
            total_simplices=3,
            quotient=EDGE,
            rows=(ROW,),
        ),
        dict(rows=()),
        "OracleReport(description='swap', lattice_type=LatticeType(p=2, r=1, s=0, t=0), "
        "mode='integral', subdivisions=0, total_simplices=3, "
        "quotient=SimplicialComplex(2 vertices, 1 facets, dim 1), "
        "rows=(DegreeComparison(label='H^1', expected='Z', actual='Z', ok=True),))",
        False,
    ),
]
NAMES = {case[0].__name__: case[0] for case in CASES}


@pytest.mark.parametrize(
    "cls, kwargs, change, text, round_trips", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_class_contract(cls, kwargs, change, text, round_trips):
    x = cls(**kwargs)
    assert repr(x) == text
    if round_trips:
        assert eval(text, NAMES) == x
    # keyword and positional construction agree
    assert cls(*kwargs.values()) == x
    fields = tuple(getattr(x, name) for name in cls.__match_args__)
    # equal only to the same class with the same fields
    other = cls(**{**kwargs, **change})
    subclass = type("Sub", (cls,), {})
    assert x != other and x != fields and x != subclass(**kwargs) and subclass(**kwargs) != x
    try:
        hash(fields)
    except TypeError:  # a SimplicialComplex field is unhashable, so the value is
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(cls(**kwargs)) == hash(fields)
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in cls.__match_args__) == fields


def test_value_class_defaults():
    assert AbelianGroupStructure(3) == AbelianGroupStructure(free_rank=3, torsion=())
    report = OracleReport("swap", SIGN, "field", 0, 3, EDGE)
    assert report.rows == () and report.passed
