"""Seeded op lists for the four benchmark workloads, and their output checks.

An op is one ``toroidal`` CLI invocation.  Each workload's op list is a pure
function of the workload name and the seed.  Inputs are built here with plain
ints, never with the library, so library changes move set-up time only
through import cost.

No op occurs twice in a list: every cohomology op has its own type, every
matrix its own conjugation and every oracle op its own case.  So a cache
that returns a whole earlier result cannot make a timed op cheaper.

A list is cut into rounds that cost about the same: the timed phase runs
whole rounds, and the traced run compares a traced round with an untraced
one.  Rounds are stratified: each has the same number of slots per cost
class, and the seed picks the member of each class and the order.  So
``ops_per_s`` and the latency percentiles move with the code, not with the
seed.

The checks run outside the timed region.  They may call the library (the
pair pipeline is the independent second route for the torsion ranks).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

@dataclass
class Op:
    """One CLI call: ``argv`` plus any input files it reads."""

    label: str
    argv: list[str]
    expect: dict
    files: dict[str, str] = field(default_factory=dict)


def generate(workload: str, seed: int) -> list[list[Op]]:
    """The workload's op list for `seed`, cut into rounds of equal cost.

    No op occurs twice in the whole list, so no op is timed twice in a run.
    """
    rng = random.Random(f"{workload}:{seed}")
    rounds = _GENERATORS[workload](rng)
    labels = [op.label for ops in rounds for op in ops]
    assert len(set(labels)) == len(labels), f"{workload}: an op repeats"
    return rounds


def check(workload: str, op: Op, rc: int, stdout: str, toroidal) -> str | None:
    """None when the op's output is right, else a one-line reason."""
    return _CHECKS[workload](op, rc, stdout, toroidal)


# ---------------------------------------------------------------------------
# formula: cohomology --format json --equivariant, grid, huge primes

FORMULA_PRIMES = (2, 3, 5, 7, 11, 13)
FORMULA_ROUNDS = 3
# (rank, prime) of the tail slots, chosen to cost about the same (about
# 130 ms on a 2-core x86 box).  The 90th percentile falls in the middle of
# this plateau, where it moves least with the seed.
FORMULA_TAIL = (
    (106, 2), (108, 2), (110, 2), (112, 2), (132, 3), (135, 3), (138, 3),
    (150, 5), (155, 5), (160, 5), (176, 7), (180, 7), (184, 7),
    (186, 11), (190, 11), (194, 11), (188, 13), (192, 13), (196, 13), (200, 13),
)
# primes near 10^11..10^12: trial division in is_prime dominates these ops
FORMULA_PRIME_BANDS = (120_000_000_000, 250_000_000_000, 500_000_000_000, 1_000_000_000_000)
# grid --max-r 1 --max-s 1 --max-t 2 at primes no other op uses, so no two
# grids and no grid and cohomology op share a type; consecutive primes form
# one cost class, one member to each round
FORMULA_GRID_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split_rank(p: int, n: int, t_share: float, s_share: float) -> tuple[int, int, int]:
    """A type (r, s, t) at p of rank at most n, within p - 2 of n."""
    t = round(n * t_share)
    s = round(n * s_share / p)
    return (n - t - s * p) // (p - 1), s, t


def _formula_op(p: int, r: int, s: int, t: int) -> Op:
    return Op(
        f"cohomology p={p} type={r},{s},{t}",
        ["cohomology", "--p", str(p), "--type", f"{r},{s},{t}",
         "--format", "json", "--equivariant"],
        {"kind": "cohomology", "p": p, "type": (r, s, t)},
    )


def _deal(rng: random.Random, classes, rounds: int) -> list[list]:
    """One member of each class to each round; a class has `rounds` members."""
    dealt = [[] for _ in range(rounds)]
    for members in classes:
        assert len(members) == rounds, members
        members = list(members)
        rng.shuffle(members)
        for ops, member in zip(dealt, members):
            ops.append(member)
    return dealt


def _formula_round(rng: random.Random, seen: set) -> list[Op]:
    slots = []
    body = 96
    for block in range(body // len(FORMULA_PRIMES)):
        primes = list(FORMULA_PRIMES)
        rng.shuffle(primes)
        for k, p in enumerate(primes):
            i = block * len(FORMULA_PRIMES) + k
            slots.append((p, 20 + 60 * i // (body - 1) + rng.randint(-1, 1)))
    shares = [(rng.uniform(0.18, 0.22), rng.uniform(0.2, 0.3)) for _ in slots]
    # fixed shares in the tail: there the split moves the cost most
    slots += [(p, n + rng.randint(-2, 2)) for n, p in FORMULA_TAIL]
    shares += [(0.2, 0.25)] * len(FORMULA_TAIL)
    ops = []
    for (p, n), (t_share, s_share) in zip(slots, shares):
        r, s, t = _split_rank(p, n, t_share, s_share)
        while (p, r, s, t) in seen:
            t += 1
        seen.add((p, r, s, t))
        ops.append(_formula_op(p, r, s, t))
    for base in FORMULA_PRIME_BANDS:
        q = int(base * (1 + rng.uniform(0, 0.01)))
        while not _is_prime(q) or q in seen:
            q += 1
        seen.add(q)
        ops.append(_formula_op(q, 0, 0, rng.randint(1, 3)))
    return ops


def _grid_op(p: int) -> Op:
    bounds = (1, 1, 2)
    return Op(
        f"grid p={p} bounds={bounds}",
        ["grid", "--p", str(p), "--max-r", str(bounds[0]),
         "--max-s", str(bounds[1]), "--max-t", str(bounds[2]), "--format", "json"],
        {"kind": "grid", "p": p, "bounds": bounds},
    )


def _formula(rng: random.Random) -> list[list[Op]]:
    seen = set()
    rounds = [_formula_round(rng, seen) for _ in range(FORMULA_ROUNDS)]
    n = FORMULA_ROUNDS
    classes = [FORMULA_GRID_PRIMES[i : i + n] for i in range(0, len(FORMULA_GRID_PRIMES), n)]
    for ops, primes in zip(rounds, _deal(rng, classes, n)):
        ops += [_grid_op(p) for p in primes]
        rng.shuffle(ops)
    return rounds


def _check_table(doc: dict, p: int, rst: tuple[int, int, int], toroidal) -> str | None:
    r, s, t = rst
    n = r * (p - 1) + s * p + t
    if doc["p"] != p or tuple(doc["type"]) != rst or doc["n"] != n:
        return f"header {doc['p']} {doc['type']} {doc['n']} is not p={p} {rst} n={n}"
    ks = [g["k"] for g in doc["groups"]]
    if ks != list(range(n + 1)):
        return f"degrees {ks[:3]}... are not 0..{n}"
    free = [int(g["free_rank"]) for g in doc["groups"]]
    torsion = [int(g["p_torsion_rank"]) for g in doc["groups"]]
    euler = sum((-1) ** k * a for k, a in enumerate(free))
    # (1/p) (chi(T^n) + (p-1) chi(fixed set)); the fixed set is p^r tori of dim s+t
    lefschetz = ((n == 0) + (p - 1) * p**r * (s + t == 0)) // p
    if euler != lefschetz:
        return f"Euler characteristic {euler} != Lefschetz count {lefschetz}"
    pair = toroidal.torsion_from_pair(toroidal.LatticeType(p, r, s, t), n)
    if pair != torsion:
        return "pair pipeline disagrees with the printed torsion ranks"
    if "equivariant" in doc:
        eq_free = [int(g["free_rank"]) for g in doc["equivariant"]]
        if eq_free != free:
            return "equivariant free ranks differ from the quotient's"
    return None


def _check_formula(op: Op, rc: int, stdout: str, toroidal) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(stdout)
    e = op.expect
    if e["kind"] == "cohomology":
        return _check_table(doc, e["p"], e["type"], toroidal)
    R, S, T = e["bounds"]
    want = [(r, s, t) for r in range(R + 1) for s in range(S + 1) for t in range(T + 1)]
    if [tuple(d["type"]) for d in doc] != want:
        return "grid does not list the expected types in order"
    for d in doc:
        problem = _check_table(d, e["p"], tuple(d["type"]), toroidal)
        if problem:
            return f"grid entry {d['type']}: {problem}"
    return None


# ---------------------------------------------------------------------------
# matrices: classify on conjugated block-diagonal matrices

MATRIX_ROUNDS = 3
# Each round has MATRIX_REPEATS plain ops for every (prime, non-identity
# blocks) pair, so n = 2(p - 1) .. 4p plus up to 4 identity blocks
MATRIX_PRIMES = (11, 13, 17, 19, 23)
MATRIX_BLOCKS = (2, 3, 4)
MATRIX_REPEATS = 6
# and VERIFY_REPEATS ops with --verify rational for every n in VERIFY_SIZES,
# about one op in eight.  The oracle's cost grows like C(n, n/2)^2 whatever
# p is, and at n = 9 some conjugates run past 100 s
VERIFY_SIZES = (6, 7, 8)
VERIFY_PRIMES = (2, 3, 5, 7)
VERIFY_REPEATS = 4
# n/2 conjugation steps with entries of at most 4 leave an SNF core of at most
# 13 rows after the unit-pivot sweep; n steps left cores of 30-43 rows, and
# one of them took 25 s in the dense phase
ENTRY_BOUND = 4


def _companion(p: int) -> list[list[int]]:
    n = p - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -1
    return rows


def _cycle(p: int) -> list[list[int]]:
    return [[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)]


def _block_matrix(rng: random.Random, p: int, r: int, s: int, t: int) -> list[list[int]]:
    blocks = [_companion(p)] * r + [_cycle(p)] * s + [[[1]]] * t
    rng.shuffle(blocks)
    n = sum(len(b) for b in blocks)
    A = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            A[off + i][off : off + len(row)] = row
        off += len(b)
    return A


def _conjugate(rng: random.Random, A: list[list[int]], steps: int) -> None:
    """A <- E A E^-1 for `steps` elementary E = I + c e_ij, entries kept small."""
    n = len(A)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        ri, rj = A[i], A[j]
        for k in range(n):
            ri[k] += c * rj[k]
        for row in A:
            row[j] -= c * row[i]
        if max(map(abs, ri)) > ENTRY_BOUND or any(abs(row[j]) > ENTRY_BOUND for row in A):
            for row in A:
                row[j] += c * row[i]
            for k in range(n):
                ri[k] -= c * rj[k]


def _verify_type(rng: random.Random, n: int, seen: set) -> tuple[int, int, int, int]:
    """An unused (p, r, s, t) of rank exactly n with a nontrivial action."""
    options = [
        (p, r, s, n - r * (p - 1) - s * p)
        for p in VERIFY_PRIMES
        for r in range(n + 1)
        for s in range(n // p + 1)
        if r + s >= 1 and n - r * (p - 1) - s * p >= 0
    ]
    return rng.choice([o for o in options if o not in seen])


def _matrix_op(rng: random.Random, name: str, p, r, s, t, verify: bool) -> Op:
    A = _block_matrix(rng, p, r, s, t)
    _conjugate(rng, A, len(A) // 2)
    text = f"# p={p}\n{len(A)} {len(A)}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in A
    )
    argv = ["classify", name, "--p", str(p), "--format", "json"]
    if verify:
        argv += ["--verify", "rational"]
    return Op(
        f"classify {name} p={p} n={len(A)}" + (" verify" if verify else ""),
        argv,
        {"p": p, "type": (r, s, t), "n": len(A), "verify": verify},
        {name: text},
    )


def _matrices_round(rng: random.Random, seen: set, k: int) -> list[Op]:
    specs = []
    for p in MATRIX_PRIMES:
        for blocks in MATRIX_BLOCKS:
            for _ in range(MATRIX_REPEATS):
                r = rng.randint(0, blocks)
                t = rng.randint(0, 4)
                while (p, r, blocks - r, t) in seen:
                    t += 1
                seen.add((p, r, blocks - r, t))
                specs.append(((p, r, blocks - r, t), False))
    for n in VERIFY_SIZES:
        for _ in range(VERIFY_REPEATS):
            spec = _verify_type(rng, n, seen)
            seen.add(spec)
            specs.append((spec, True))
    rng.shuffle(specs)
    return [
        _matrix_op(rng, f"m{k}-{i:03d}.txt", *spec, verify)
        for i, (spec, verify) in enumerate(specs)
    ]


def _matrices(rng: random.Random) -> list[list[Op]]:
    seen = set()
    return [_matrices_round(rng, seen, k) for k in range(MATRIX_ROUNDS)]


def _check_matrices(op: Op, rc: int, stdout: str, toroidal) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(stdout)
    e = op.expect
    got = (doc["p"], tuple(doc["type"]), doc["n"])
    if got != (e["p"], e["type"], e["n"]):
        return f"classified as {got}, built as {(e['p'], e['type'], e['n'])}"
    if doc["trivial_action"]:
        return "nontrivial matrix reported as the identity"
    if e["verify"]:
        rows = doc.get("rational_verification")
        if not rows or len(rows) != e["n"] + 1 or not all(row["ok"] for row in rows):
            return "rational verification missing or failed"
    return None


# ---------------------------------------------------------------------------
# oracle workloads: cost classes of cases, one member of each to each round
#
# Members of a class cost about the same; the comments give the range per op
# measured on a 2-core x86 box with Python 3.11.  Most classes are runs of
# consecutive sizes --m of one case.


def _sizes(case: str, ms, rounds: int) -> list[tuple[str, ...]]:
    """Classes of `rounds` consecutive sizes of `case`; a short last one is dropped."""
    cases = [f"{case} --m {m}" for m in ms]
    return [tuple(cases[i : i + rounds]) for i in range(0, len(cases) - rounds + 1, rounds)]


ORACLE_INTEGRAL_ROUNDS = 3
ORACLE_INTEGRAL_CLASSES = (
    # 3-40 ms: one sign circle
    *_sizes("sign --r 1", range(4, 466, 2), 3),
    # 4-150 ms
    *_sizes("sign --r 1 --t 1", range(4, 154, 2), 3),
    # 8-230 ms
    *_sizes("cyclic --p 2 --n 1", range(3, 18), 3),
    # 13-180 ms
    *_sizes("sign --r 2", range(4, 16, 2), 3),
    # 12-290 ms, one subdivision each
    *_sizes("hexagonal", range(3, 19, 3), 3),
    # 100-300 ms: the t = 1 cases that have no three sizes under a second
    ("cyclic --p 2 --n 1 --t 1 --m 3", "hexagonal --t 1 --m 3", "sign --r 2 --t 1 --m 4"),
    ("cyclic --p 2 --n 1 --t 1 --m 4", "sign --r 2 --m 16", "cyclic --p 2 --n 1 --m 18"),
)

ORACLE_FIELD_ROUNDS = 4
ORACLE_FIELD_CLASSES = (
    # 2-15 ms, no subdivision
    *_sizes("sign --r 1", range(3, 327), 4),
    # 4-20 ms
    *_sizes("sign --r 1 --t 1", range(3, 51), 4),
    # 5-120 ms; m = 2 needs a subdivision
    *_sizes("cyclic --p 2 --n 1", range(2, 18), 4),
    # 6-150 ms, subdivided
    *_sizes("hexagonal", range(3, 13, 3), 4),
    # 10-50 ms; odd m needs a subdivision
    ("sign --r 2 --m 4", "sign --r 2 --m 6", "sign --r 2 --m 3", "sign --r 2 --m 8"),
    # 70-230 ms
    ("sign --r 2 --m 5", "hexagonal --t 1 --m 3", "sign --r 2 --m 10", "cyclic --p 2 --n 1 --m 18"),
    # 0.15-0.4 s and 0.5-1 s, subdivided: 7 000 to 24 000 simplices after it.
    # Cases of 2 s and more are left out, since the machine's speed changes
    # within them and their scaled times then swing by a fifth.
    ("sign --r 2 --m 7", "sign --r 2 --m 9", "hexagonal --m 15", "hexagonal --m 18"),
    ("sign --r 2 --m 11", "sign --r 2 --m 13", "hexagonal --m 21", "hexagonal --m 24"),
)

_CASE_TYPE = {
    "sign": lambda a: (2, a["r"], 0, a["t"]),
    "cyclic": lambda a: (a["p"], 0, a["n"], a["t"]),
    "hexagonal": lambda a: (3, 1, 0, a["t"]),
    "mixed": lambda a: (2, a["r"], a["n"], a["t"]),
}


def _oracle_op(case_args: str, mode: str) -> Op:
    words = case_args.split()
    values = {"r": 1, "n": 1, "t": 0, "p": None}
    values.update({k[2:]: int(v) for k, v in zip(words[1::2], words[2::2])})
    case = words[0]
    return Op(
        f"oracle {mode} {case_args}",
        ["oracle", "--mode", mode, "--case"] + words,
        {"type": _CASE_TYPE[case](values)},
    )


def _oracle(rng: random.Random, classes, rounds: int, mode: str) -> list[list[Op]]:
    dealt = _deal(rng, classes, rounds)
    for cases in dealt:
        rng.shuffle(cases)
    return [[_oracle_op(case, mode) for case in cases] for cases in dealt]


_TYPE_LINE = re.compile(r"^type \((\d+),(\d+),(\d+)\) at p = (\d+);", re.M)


def _check_oracle(op: Op, rc: int, stdout: str, toroidal) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if not stdout.endswith("RESULT: PASS\n"):
        return "no RESULT: PASS line"
    m = _TYPE_LINE.search(stdout)
    if not m:
        return "no type line"
    r, s, t, p = map(int, m.groups())
    if (p, r, s, t) != op.expect["type"]:
        return f"oracle ran type {(p, r, s, t)}, expected {op.expect['type']}"
    return None


_GENERATORS = {
    "formula": _formula,
    "matrices": _matrices,
    "oracle-integral": lambda rng: _oracle(
        rng, ORACLE_INTEGRAL_CLASSES, ORACLE_INTEGRAL_ROUNDS, "integral"
    ),
    "oracle-field": lambda rng: _oracle(rng, ORACLE_FIELD_CLASSES, ORACLE_FIELD_ROUNDS, "field"),
}
_CHECKS = {
    "formula": _check_formula,
    "matrices": _check_matrices,
    "oracle-integral": _check_oracle,
    "oracle-field": _check_oracle,
}
