"""The package imports nothing outside the standard library, and little of it at start-up."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toroidal"


def test_package_imports_only_the_standard_library():
    modules = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    assert modules, "no absolute imports found"
    outside = sorted(m for m in modules if m not in sys.stdlib_module_names | {"toroidal"})
    assert outside == []


def test_start_up_loads_no_code_generator():
    # the value classes generate no code, so importing the package and its
    # CLI loads neither dataclasses nor, through it, inspect
    code = (
        "import sys, toroidal, toroidal.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=30, check=True
    )
    assert proc.stdout.decode() == "[]\n"
