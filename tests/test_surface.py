"""Every public name of the package has a caller outside the tests.

The callers are the package's own modules, the benchmark harness and the
README's library tour.  A name that only tests call is surface with no
user: it should go, or move into tests/conftest.py.  The two documented
entry points that no caller in the repository needs stay public.
"""

import ast
import inspect
from pathlib import Path

import toroidal
from conftest import fenced_block_after

ROOT = Path(__file__).resolve().parents[1]

# documented entry points: a matrix in and a table out, and Betti numbers
# over a field
ENTRY_POINTS = {"betti_over_field", "cohomology_from_matrix"}


def used_names() -> tuple[set[str], set[str]]:
    """The Names and the Attributes in the package, the harness and the tour.

    A class member counts as used only through an Attribute: a Name that
    spells it is a local, a parameter or another top-level name.
    """
    paths = sorted((ROOT / "src" / "toroidal").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = "\n".join(fenced_block_after(readme, "## Library quick tour"))
    sources = [path.read_text(encoding="utf-8") for path in paths] + [tour]
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def unused_surface() -> set[str]:
    """The non-dunder names in toroidal.__all__ and the public members of its classes, unused."""
    names, attributes = used_names()
    unused = {name for name in toroidal.__all__ if not name.startswith("__")}
    unused -= names | attributes
    for name in toroidal.__all__:
        obj = getattr(toroidal, name)
        if inspect.isclass(obj):
            unused.update(
                member for member in vars(obj)
                if not member.startswith("_") and member not in attributes
            )
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    # sorted, so a failure lists the names that only tests call
    assert sorted(unused_surface()) == sorted(ENTRY_POINTS)
