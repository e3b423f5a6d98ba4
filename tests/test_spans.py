"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    missing = []
    for name, (mod, cls, attr, _, _) in load_spans().TARGETS.items():
        module = importlib.import_module(f"toroidal.{mod}")
        owner = vars(module).get(cls) if cls else module
        if owner is None or attr not in vars(owner):
            missing.append(name)
    assert missing == []
