"""Benchmark of the toroidal CLI, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload formula --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process
    python3 perfbench/run.py --write-spec            # regenerate BENCHMARK.json
    python3 perfbench/run.py --workload formula --record-golden

One client drives ``toroidal.cli.main(argv)`` in-process with stdout
captured, in a closed loop: the next op starts when the previous returns.
The seeded op list holds no op twice and is cut into rounds of equal cost.
Times are scaled to a fixed machine speed by a reference slice timed next
to every op (see ``speed.py``).  The timed phase runs whole rounds until
``--seconds`` scaled seconds have passed or the list is used up, so each op
runs at most once.  Every op's output is checked afterwards, outside the
timed region.  ``--trace 0`` reports the end-to-end metrics over all timed
ops.  ``--trace 1`` runs the first round with spans around each module's
public functions and the second without, and reports the per-module metrics.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer, span_cost_ns
from speed import reference_slice, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
GOLDEN = HERE / "golden"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_REPEATS = 7
WARM_UP = ["cohomology", "--p", "2", "--type", "1,0,0", "--format", "json"]
# on the oracle workloads the series engine must stay below this share of wall time
SERIES_SHARE_LIMIT = 0.02

WORKLOADS = {
    "formula": "cohomology --equivariant on distinct types of rank 20-200, grids and primes near 1e11-1e12: series, lattice and cohomology",
    "matrices": "classify on conjugated block matrices of n 20-100 at p 11-23, one in eight at n 6-8 with --verify rational: classify, matmul, dense-ish SNF",
    "oracle-integral": "integral oracle on distinct sign, cyclic p=2 and hexagonal cases, quotients of 9-5300 simplices: SNF with torsion, faces, quotient",
    "oracle-field": "field oracle on distinct cases, each round with subdivided cases of 0.1-1 s: rank over Q and F_p, regularity, subdivision",
}

# Timings are in scaled seconds (speed.py).  Over ten seeds their spreads
# stayed at or below 0.04 (ops_per_s) and 0.052 (latencies), and two sets'
# medians agreed within 0.02 (see README.md); each bound is three times the
# spread or more.  setup_s, whose imports read files, gets the largest.
END_TO_END = [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.15},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "latency_p90_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

F, M, OI, OF = "formula", "matrices", "oracle-integral", "oracle-field"
ORACLES = (OI, OF)
# (metric, unit, workloads on which it must record at least one call)
PER_LAYER = [
    ("cli.main.self_s", "s", (F, M, OI, OF)),
    ("lattice.is_prime.calls", "count", (F,)),
    ("lattice.is_prime.self_s", "s", (F,)),
    ("lattice.f_series.calls", "count", (F,)),
    ("lattice.f_series.self_s", "s", (F,)),
    ("series.mul.calls", "count", (F,)),
    ("series.mul.self_s", "s", (F,)),
    ("series.pow.calls", "count", (F,)),
    ("series.pow.self_s", "s", (F,)),
    ("cohomology.quotient_cohomology.calls", "count", (F,)),
    ("cohomology.quotient_cohomology.self_s", "s", (F,)),
    ("cohomology.torsion_series.calls", "count", (F,)),
    ("cohomology.torsion_series.self_s", "s", (F,)),
    ("cohomology.equivariant_cohomology.calls", "count", (F,)),
    ("cohomology.equivariant_cohomology.self_s", "s", (F,)),
    ("classify.classify.self_s", "s", (M,)),
    ("classify.verify_order.self_s", "s", (M,)),
    ("classify.norm_matrix.self_s", "s", (M,)),
    ("snf.matmul.calls", "count", (M,)),
    ("snf.matmul.self_s", "s", (M,)),
    ("snf.sparse_smith_normal_form.calls", "count", (M, OI)),
    ("snf.sparse_smith_normal_form.self_s", "s", (M, OI)),
    ("snf.sparse_smith_normal_form.nnz_in", "count", (M, OI)),
    ("snf.sparse_cochain_quotient.calls", "count", (M, OI)),
    ("snf.sparse_cochain_quotient.self_s", "s", (M, OI)),
    ("snf.sparse_rank_over_q.self_s", "s", (OF,)),
    ("snf.sparse_rank_mod_p.self_s", "s", (OF,)),
    ("oracle.build_equivariant_torus.self_s", "s", ORACLES),
    ("oracle.regularize.self_s", "s", ORACLES),
    ("oracle.barycentric_subdivide.self_s", "s", ORACLES),
    ("oracle.quotient_complex.self_s", "s", ORACLES),
    ("oracle.integral_cohomology.self_s", "s", (OI,)),
    ("oracle.betti_numbers.self_s", "s", (OF,)),
    ("oracle.faces.self_s", "s", ORACLES),
    ("oracle.is_regular.calls", "count", ORACLES),
    ("oracle.is_regular.self_s", "s", ORACLES),
    ("oracle.run_oracle_case.self_s", "s", ORACLES),
    ("oracle.rational_alpha_oracle.self_s", "s", (M,)),
    ("oracle.simplices", "count", ORACLES),
    ("oracle.quotient_simplices", "count", ORACLES),
    ("oracle.subdivisions", "count", ORACLES),
    ("trace.wall_s", "s", ()),
    ("trace.overhead_s", "s", ()),
]


def spec() -> dict:
    """The BENCHMARK.json document; this file is its only source."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u, _ in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# running ops


@dataclass
class Sample:
    """One timed op: its wall and scaled time, stdout digest and failed check, if any."""

    op: workloads.Op
    seconds: float
    scaled: float
    digest: str
    problem: str | None


def run_op(cli, argv) -> tuple[int | None, str, str]:
    """Exit code (None on an exception), stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_round(cli, argvs) -> list[tuple]:
    """Each op of one round once, in order, with a reference slice after each.

    Returns (rc, stdout, stderr, seconds, scaled seconds) per op.
    """
    outputs = []
    before = reference_slice()
    for argv in argvs:
        start = perf_counter()
        result = run_op(cli, argv)
        seconds = perf_counter() - start
        after = reference_slice()
        outputs.append((*result, seconds, seconds * scale(before, after)))
        before = after
    return outputs


def checked(ops, outputs, check) -> list[Sample]:
    return [
        Sample(op, seconds, scaled, hashlib.sha256(out.encode()).hexdigest(),
               check(op, rc, out, err))
        for op, (rc, out, err, seconds, scaled) in zip(ops, outputs)
    ]


def set_up(workload: str, seed: int, workdir: Path):
    """Import toroidal and build the op list SETUP_REPEATS times, then write its files.

    Returns the median wall time and the median scaled time of one import
    and build, among the rest.  Writing the input files is left out of the
    time: it is the benchmark's own disk work, and it varied threefold.
    """
    times, scaled = [], []
    before = reference_slice()
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "toroidal" or n.startswith("toroidal.")]:
            del sys.modules[name]
        start = perf_counter()
        importlib.import_module("toroidal.cli")
        rounds = workloads.generate(workload, seed)
        times.append(perf_counter() - start)
        after = reference_slice()
        scaled.append(times[-1] * scale(before, after))
        before = after
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argvs = []
    for ops in rounds:
        argvs.append([])
        for op in ops:
            for name, text in op.files.items():
                (workdir / name).write_text(text, encoding="utf-8")
            argvs[-1].append([str(workdir / a) if a in op.files else a for a in op.argv])
    return (sys.modules["toroidal"], rounds, argvs,
            statistics.median(times), statistics.median(scaled))


def op_list_digest(rounds) -> str:
    doc = [[[op.argv, op.files] for op in ops] for ops in rounds]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def checker(workload, toroidal, golden):
    """check(op, rc, stdout, stderr): None when the output is right, else a problem."""

    def check(op, rc, out, err) -> str | None:
        try:
            reason = workloads.check(workload, op, rc, out, toroidal)
        except Exception as exc:  # a malformed output must count, not abort
            reason = f"check raised {exc!r}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if reason is None and golden is not None and golden.get(op.label) != digest:
            reason = "stdout differs from the recorded digest"
        if reason is not None and rc is None:
            reason += ": " + err.strip().splitlines()[-1]
        return None if reason is None else f"{op.label}: {reason}"

    return check


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(cli, rounds, argvs, check, seconds: float) -> list[list[Sample]]:
    """Whole rounds until `seconds` scaled op seconds have passed or none is left.

    Counting scaled time makes the number of rounds run independent of drift.
    """
    done = []
    while len(done) < len(rounds) and sum(s.scaled for ops in done for s in ops) < seconds:
        k = len(done)
        done.append(checked(rounds[k], run_round(cli, argvs[k]), check))
        print(f"round {k}: {len(done[-1])} ops in {sum(s.seconds for s in done[-1]):.3f} s, "
              f"scaled {sum(s.scaled for s in done[-1]):.3f} s")
    print(f"timed phase: {len(done)} of {len(rounds)} round(s)")
    return done


def timing_metrics(samples) -> dict:
    """ops_per_s and the latency percentiles over every timed op, in scaled seconds.

    The same figures in wall seconds are printed for comparison.
    """
    verified = sum(s.problem is None for s in samples)
    for key in ("seconds", "scaled"):
        latencies = sorted(getattr(s, key) for s in samples)
        ops_per_s = verified / sum(latencies)
        p50, p90 = statistics.median(latencies), nearest_rank(latencies, 0.9)
        print(f"{'wall' if key == 'seconds' else key}: {ops_per_s:.4f} ops/s, p50 {p50:.6f} s, "
              f"p90 {p90:.6f} s with {sum(v > p90 for v in latencies)} of "
              f"{len(latencies)} samples beyond it")
    return {"ops_per_s": ops_per_s, "latency_p50_s": p50, "latency_p90_s": p90}


def traced(cli, rounds, argvs, check, workload: str):
    """The first round traced, the second untraced; samples, metrics, problems."""
    tracer = Tracer()
    bindings = tracer.install()
    shared = {}
    for binding in bindings:
        owner, _, attr = binding.rpartition(".")
        shared.setdefault(attr, []).append(owner)
    for attr, owners in sorted(shared.items()):
        if len(owners) > 1:
            print(f"wrapped {attr} at {len(owners)} bindings: {', '.join(owners)}")
    missed = tracer.unwrapped_bindings()
    try:
        samples = checked(rounds[0], run_round(cli, argvs[0]), check)
    finally:
        tracer.uninstall()
    traced_wall = sum(s.seconds for s in samples)
    plain = checked(rounds[1], run_round(cli, argvs[1]), check)
    plain_wall = sum(s.seconds for s in plain)
    samples += plain
    spans, cost_ns = sum(tracer.calls.values()), span_cost_ns()
    print(f"traced round {traced_wall:.3f} s, untraced round of equal cost {plain_wall:.3f} s; "
          f"{spans} spans over {len(bindings)} wrapped bindings at {cost_ns:.0f} ns each")

    values = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls[span]
        elif kind == "self_s":
            values[name] = tracer.self_ns[span] / 1e9
        else:
            values[name] = tracer.counts[name]
    values["trace.wall_s"] = traced_wall
    # spans times their cost: the two rounds run different ops, so their
    # difference in wall time is mostly noise
    values["trace.overhead_s"] = spans * cost_ns / 1e9

    problems = [f"binding not wrapped: {b}" for b in missed]
    for name, _, required in PER_LAYER:
        span = name.rpartition(".")[0] if name.endswith((".calls", ".self_s")) else None
        seen = tracer.calls[span] if span else values[name]
        if workload in required and not seen:
            problems.append(f"coverage: {name} recorded no call on {workload}")
    if workload == F:
        leaked = {
            s: c for s, c in tracer.calls.items()
            if c and (s.startswith("oracle.") or s.startswith("snf.sparse_"))
        }
        if leaked:
            problems.append(f"bypass: formula called {leaked}")
    if workload in ORACLES:
        share = values["series.mul.self_s"] / traced_wall
        if share > SERIES_SHARE_LIMIT:
            problems.append(f"bypass: series.mul is {share:.1%} of wall time on {workload}")
    return samples, values, problems


# ---------------------------------------------------------------------------
# reporting


def machine_info() -> str:
    return (
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"platform={platform.platform()}"
    )


def run_workload(args) -> int:
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        toroidal, rounds, argvs, setup_raw, setup_s = set_up(args.workload, args.seed, workdir)
        if not Path(toroidal.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported toroidal from {toroidal.__file__}, not {SRC}", file=sys.stderr)
            return 2
        cli = sys.modules["toroidal.cli"]
        golden_path = GOLDEN / f"{args.workload}.json"
        golden = None
        if args.seed == DEFAULT_SEED and golden_path.is_file() and not args.record_golden:
            golden = json.loads(golden_path.read_text(encoding="utf-8"))

        print(machine_info())
        print(f"workload {args.workload} seed {args.seed}: "
              f"{sum(map(len, rounds))} distinct ops in rounds of {[len(r) for r in rounds]}, "
              f"op-list digest {op_list_digest(rounds)}, "
              f"golden stdout digests {'checked' if golden else 'not checked'}")
        for _ in range(2):
            run_op(cli, WARM_UP)
            reference_slice()

        check = checker(args.workload, toroidal, golden)
        if args.trace:
            samples, metrics, problems = traced(cli, rounds, argvs, check, args.workload)
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            seconds = math.inf if args.record_golden else args.seconds
            done = end_to_end(cli, rounds, argvs, check, seconds)
            samples = [s for round_samples in done for s in round_samples]
            metrics = {**timing_metrics(samples), "peak_rss_mb": peak_rss_mb(), "setup_s": setup_s}
            problems = []
            units = {m["name"]: m["unit"] for m in END_TO_END}
        problems = [s.problem for s in samples if s.problem] + problems
        attempted, failed = len(samples), sum(s.problem is not None for s in samples)
        print(f"set-up {setup_raw:.4f} s wall, {setup_s:.4f} s scaled (medians of {SETUP_REPEATS}); "
              f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
        for name, value in metrics.items():
            print(f"  {name:45s} {value:16.6f} {units[name]}")
        for line in problems[:20]:
            print(f"FAIL {line}")
        if len(problems) > 20:
            print(f"FAIL ... and {len(problems) - 20} more")
        correct = not problems

        if args.record_golden and correct:
            GOLDEN.mkdir(exist_ok=True)
            digests = {s.op.label: s.digest for s in samples}
            golden_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
            print(f"recorded {len(digests)} stdout digests in {golden_path.relative_to(ROOT)}")
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, each in a fresh process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this file and exit")
    parser.add_argument("--record-golden", action="store_true",
                        help=f"store the stdout digest of every op (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.record_golden and (args.seed != DEFAULT_SEED or args.trace or args.workload == "all"):
        parser.error(f"--record-golden needs one workload, --seed {DEFAULT_SEED} and --trace 0")
    if not (SRC / "toroidal" / "__init__.py").is_file():
        print(f"error: no toroidal sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
