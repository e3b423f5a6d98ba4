"""Spans around the public functions of each toroidal module.

The tracer replaces a function with a wrapper at every place that binds it:
each ``toroidal`` module that imported it by name, or the class dict (where
``__rmul__ = __mul__`` binds one function twice).  A wrapper times one span
per call and adds it to its caller's child time on a stack, so that a span's
self time is its duration minus the time its child spans cover.  Only the
per-span sums are kept.  Nothing under ``src/`` changes; ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter_ns


def _nnz_in(counts: Counter, args) -> None:
    counts["snf.sparse_smith_normal_form.nnz_in"] += sum(len(r) for r in args[0])


def _report_sizes(counts: Counter, report) -> None:
    counts["oracle.simplices"] += report.total_simplices
    counts["oracle.quotient_simplices"] += report.quotient_simplices
    counts["oracle.subdivisions"] += report.subdivisions


# span name -> (module, class or None, attribute, entry hook, exit hook)
TARGETS = {
    "cli.main": ("cli", None, "main", None, None),
    "lattice.is_prime": ("lattice", None, "is_prime", None, None),
    "lattice.f_series": ("lattice", "LatticeType", "f_series", None, None),
    "series.mul": ("series", "AlphaSeries", "__mul__", None, None),
    "series.pow": ("series", "AlphaSeries", "__pow__", None, None),
    "cohomology.quotient_cohomology": ("cohomology", None, "quotient_cohomology", None, None),
    "cohomology.torsion_series": ("cohomology", None, "torsion_series", None, None),
    "cohomology.equivariant_cohomology": ("cohomology", None, "equivariant_cohomology", None, None),
    "classify.classify": ("classify", None, "classify", None, None),
    "classify.verify_order": ("classify", None, "verify_order", None, None),
    "classify.norm_matrix": ("classify", None, "norm_matrix", None, None),
    "snf.matmul": ("snf", "IntMatrix", "__matmul__", None, None),
    "snf.sparse_smith_normal_form": ("snf", None, "sparse_smith_normal_form", _nnz_in, None),
    "snf.sparse_cochain_quotient": ("snf", None, "sparse_cochain_quotient", None, None),
    "snf.sparse_rank_over_q": ("snf", None, "sparse_rank_over_q", None, None),
    "snf.sparse_rank_mod_p": ("snf", None, "sparse_rank_mod_p", None, None),
    "oracle.build_equivariant_torus": ("oracle", None, "build_equivariant_torus", None, None),
    "oracle.regularize": ("oracle", None, "regularize", None, None),
    "oracle.barycentric_subdivide": ("oracle", None, "barycentric_subdivide", None, None),
    "oracle.quotient_complex": ("oracle", None, "quotient_complex", None, None),
    "oracle.is_regular": ("oracle", None, "is_regular", None, None),
    "oracle.faces": ("oracle", "SimplicialComplex", "faces", None, None),
    "oracle.integral_cohomology": ("oracle", "SimplicialComplex", "integral_cohomology", None, None),
    "oracle.betti_numbers": ("oracle", "SimplicialComplex", "betti_numbers", None, None),
    "oracle.rational_alpha_oracle": ("oracle", None, "rational_alpha_oracle", None, None),
    "oracle.run_oracle_case": ("oracle", None, "run_oracle_case", None, _report_sizes),
}


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "toroidal" or name.startswith("toroidal."))
    ]


class Tracer:
    """Wraps the TARGETS and sums their calls, self time and counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []  # per open span: ns covered by its children
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_entry, on_exit):
        stack, calls, self_ns, counts = self._stack, self.calls, self.self_ns, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_entry is not None:
                on_entry(counts, args)
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                calls[name] += 1
                self_ns[name] += duration - children
            if on_exit is not None:
                on_exit(counts, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every binding of every target; returns the bindings patched."""
        modules = _package_modules()
        bound = []
        for name, (mod, cls, attr, on_entry, on_exit) in TARGETS.items():
            module = sys.modules[f"toroidal.{mod}"]
            owner = getattr(module, cls) if cls else module
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, on_entry, on_exit)
            self._originals[name] = original
            owners = [owner] if cls else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, key, original))
                        setattr(target, key, wrapper)
                        bound.append(f"{getattr(target, '__name__', target)}.{key}")
        return bound

    def unwrapped_bindings(self) -> list[str]:
        """Module or class attributes that still hold an original target."""
        originals = {id(f) for f in self._originals.values()}
        missed = []
        for module in _package_modules():
            holders = [module] + [
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == module.__name__
            ]
            for holder in holders:
                for key, value in vars(holder).items():
                    if id(value) in originals:
                        missed.append(f"{holder.__name__}.{key}")
        return missed

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()


def span_cost_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """What one span adds to a call: wrapped minus bare no-op call, median ns."""

    def noop():
        return None

    wrapped = Tracer()._wrap("probe", noop, None, None)
    costs = []
    for _ in range(repeats):
        times = []
        for fn in (noop, wrapped):
            start = perf_counter_ns()
            for _ in range(calls):
                fn()
            times.append(perf_counter_ns() - start)
        costs.append((times[1] - times[0]) / calls)
    return statistics.median(costs)
