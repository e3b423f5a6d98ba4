"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
import sys
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


def load_per_layer(monkeypatch):
    # run.py imports its sibling modules by bare name
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", SPANS.parent / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.PER_LAYER


def test_one_op_per_workload_covers_the_required_spans(capsys, monkeypatch, tmp_path):
    import toroidal.cli as cli
    from conftest import block_diag, cyclic_permutation_matrix, cyclotomic_companion_matrix
    from toroidal.snf import IntMatrix

    matrix = tmp_path / "m.txt"
    matrix.write_text(
        block_diag(
            cyclotomic_companion_matrix(5), cyclic_permutation_matrix(5), IntMatrix.identity(1)
        ).to_text()
    )
    # each oracle workload by an explicit complex (the t = 0 hexagonal torus)
    # and by a product model, an order complex quotiented from one chain per
    # orbit; both need a subdivision, as some op of each workload does
    ops = [
        ("formula", "cohomology --p 3 --type 2,1,1 --format json --equivariant"),
        ("matrices", f"classify {matrix} --p 5 --verify rational"),
        ("oracle-integral", "oracle --case hexagonal"),
        ("oracle-integral", "oracle --case sign --r 2 --m 3"),
        ("oracle-field", "oracle --case hexagonal --mode field"),
        ("oracle-field", "oracle --case sign --r 2 --m 3 --mode field"),
    ]
    per_layer = load_per_layer(monkeypatch)
    Tracer = load_spans().Tracer
    missing = []
    for workload, argv in ops:
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.main(argv.split()) == 0, argv
        finally:
            tracer.uninstall()
        capsys.readouterr()
        for name, _, required in per_layer:
            if workload not in required:
                continue
            span, _, kind = name.rpartition(".")
            seen = tracer.calls[span] if kind in ("calls", "self_s") else tracer.counts[name]
            if not seen:
                missing.append(f"{argv}: {name}")
    assert missing == []
