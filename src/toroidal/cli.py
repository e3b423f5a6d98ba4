"""Command-line interface.

Four subcommands: ``cohomology`` computes the quotient table from a lattice
type, ``classify`` ingests an integer matrix file and goes end to end,
``oracle`` builds an equivariant triangulation, quotients it and compares
against the formula pipeline, and ``grid`` tabulates every type within
componentwise bounds.

Exit codes are a stable contract: 0 success, 1 stdout closed before the
output was written (as by ``| head -1``; nothing is printed on stderr), 2
input error, 3 internal consistency failure (including any oracle mismatch).
The commands raise; ``main`` alone turns a ValueError into ``error:
<message>`` and exit 2, a MemoryError into one such line that names
``--max-size`` and exit 2, a ConsistencyError into exit 3 and a
BrokenPipeError on stdout into exit 1.  JSON output is byte for byte what
``json.dumps(doc, indent=2)`` prints, with each integer beyond 64 bits in
``doc`` replaced by its decimal string, so every consumer reads them
bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from itertools import chain, starmap
from math import prod

from .classify import classify, is_trivial_action
from .cohomology import (
    CohomologyTable,
    equivariant_cohomology,
    fixed_point_set,
    quotient_cohomology,
)
from .errors import ConsistencyError
from .lattice import LatticeType
from .oracle import (
    DEFAULT_SIMPLEX_GATE,
    build_equivariant_torus,
    rational_alpha_oracle,
    run_oracle_case,
)
from .snf import IntMatrix

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

# the largest rank cohomology and grid accept.  The series take a few
# big-int steps per degree, and the two tables' cost grows about like
# rank^1.7: of 16 types of rank 4000 tried, from p = 2 to p = 4001, the
# slowest took 0.10 s for both tables and 0.34 s for the whole
# `cohomology --equivariant` run on a 2-core x86 box.  Entries grow like
# 2^rank, so at this rank they print in far fewer than the 4300 digits
# CPython converts to str by default.
MAX_RANK = 4000

# the largest number of table rows (degrees 0..rank of every type) grid
# accepts.  (20, 20, 20) at p = 2 has 379 701 and takes 5.8 to 6.2 s as
# CSV and 6.3 to 6.8 s as JSON (40 MB) with Python 3.11.7 on the same box;
# (0, 0, 892) at p = 2, 399 171 rows of large binomials, printed 57 MB of
# CSV in 5 to 7 s.  At p = 47 the (20, 20, 20) grid has 8 714 601 rows and
# had printed 445 MB of CSV after a minute.  It also bounds the number of
# types: a grid of more than 10 000 types has at least 400 200 rows, the
# fewest at p = 2 with bounds (22, 14, 28).
MAX_GRID_ROWS = 400000

# the largest --max-degree cohomology and classify accept.  Degrees past the
# rank only pad the table, and at this degree the JSON equivariant table of
# (1,0,0) at p = 2 is 16 MB and the whole run takes 0.8 to 0.95 s with
# Python 3.11.7 on the same box.
MAX_DEGREE = 100000


def _scalar_text(value) -> str:
    """One JSON scalar as json.dumps writes it, with ints past 64 bits quoted."""
    if type(value) is int:
        return str(value) if _INT64_MIN <= value <= _INT64_MAX else f'"{value}"'
    return json.dumps(value)


def _row_texts(items, indent: str) -> list[str] | None:
    """Each item's text from one template, or None if they are not flat rows.

    Flat rows are dicts with the first one's keys, in its order, and only
    scalar values, such as the degree rows of a table.  The template is a
    row's text with a replacement field for each value, so each row costs
    one str.format.
    """
    if set(map(type, items)) != {dict} or not items[0]:
        return None
    keys = tuple(items[0])
    if not all(map(keys.__eq__, map(tuple, items))):
        return None
    values = list(chain.from_iterable(map(dict.values, items)))
    if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
        return None
    inner = indent + "  "
    fields = ",\n".join(
        inner + json.dumps(k).replace("{", "{{").replace("}", "}}") + ": {}"
        for k in keys
    )
    template = "{{\n" + fields + "\n" + indent + "}}"
    values = list(map(_scalar_text, values))
    # one iterator zipped with itself: consecutive groups of len(keys) values
    rows = zip(*[iter(values)] * len(keys))
    return list(starmap(template.format, rows))


def _json_text(value, indent: str = "") -> str:
    """The text json.dumps(value, indent=2) prints, with ints past 64 bits as strings.

    Keys must be strings.  The document's bytes are those of the standard
    encoder, written without its per-value generator frames.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = _row_texts(value, inner)
        if items is None:
            items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return _scalar_text(value)


def _groups_json(table: CohomologyTable) -> list[dict]:
    return [
        {"k": k, "free_rank": a, "p_torsion_rank": b}
        for k, (a, b) in enumerate(table.entries)
    ]


def table_to_json_dict(L: LatticeType, table: CohomologyTable) -> dict:
    fixed = fixed_point_set(L)
    return {
        "p": L.p,
        "type": [L.r, L.s, L.t],
        "n": L.rank,
        "groups": _groups_json(table),
        "fixed_points": {
            "components": fixed.component_count,
            "torus_dim": fixed.component_torus_dim,
        },
    }


def _write_csv(header: list[str], rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_table(
    output_format: str, L: LatticeType, table: CohomologyTable, extra: dict, before=(), after=()
) -> None:
    """Print the quotient table in one of the three formats.

    JSON appends extra's keys to the table's document; plain text prints
    the lines before and after around the table; CSV has no place for
    either.
    """
    if output_format == "json":
        print(_json_text(table_to_json_dict(L, table) | extra))
    elif output_format == "csv":
        rows = ((k, *entry) for k, entry in enumerate(table.entries))
        _write_csv(["k", "free_rank", "p_torsion_rank"], rows)
    else:
        fixed = fixed_point_set(L)
        for line in before:
            print(line)
        print(f"type (r,s,t) = ({L.r},{L.s},{L.t}) at p = {L.p}, rank n = {L.rank}")
        for k in range(table.max_degree + 1):
            print(f"H^{k} = {table.group_string(k)}")
        print(
            f"fixed points: {fixed.component_count} component(s), "
            f"each a torus of dimension {fixed.component_torus_dim}"
        )
        for line in after:
            print(line)


def _parse_type(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"type must be r,s,t with three entries, got {text!r}")
    try:
        return tuple(map(int, parts))
    except ValueError:
        raise ValueError(f"type must be r,s,t with three integers, got {text!r}") from None


def read_matrix_file(path: str) -> tuple[IntMatrix, int | None]:
    """Parse the shared matrix text format, honoring a '# p=<prime>' header.

    The header's row count, the rank of the matrix's type, is held to
    MAX_RANK before any row is read, so a huge header is refused by the
    rank limit before IntMatrix.from_text counts its rows.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        header_p, rows = None, 0
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("#"):
                content = stripped.lstrip("#").strip()
                if content.startswith("p="):
                    header_p = int(content[2:].strip())
            elif stripped:
                first = stripped.split()[0]
                rows = int(first) if first.isdecimal() else 0
                break
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read matrix: {exc}") from exc
    _require_rank(rows, "the matrix")
    try:
        return IntMatrix.from_text(text), header_p
    except ValueError as exc:
        raise ValueError(f"cannot read matrix: {exc}") from exc


def _require_rank(rank: int, of) -> None:
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} of {of} exceeds the limit of {MAX_RANK}")


def _require_degree(max_degree: int | None) -> None:
    if max_degree is not None and max_degree > MAX_DEGREE:
        raise ValueError(f"max degree {max_degree} exceeds the limit of {MAX_DEGREE}")


def _cmd_cohomology(args) -> int:
    L = LatticeType(args.p, *_parse_type(args.type))
    _require_rank(L.rank, L)
    _require_degree(args.max_degree)
    max_degree = args.max_degree if args.max_degree is not None else L.rank
    table = quotient_cohomology(L, max_degree)
    extra, after = {}, ()
    if args.equivariant and args.format != "csv":
        eq = equivariant_cohomology(L, max_degree)
        extra["equivariant"] = _groups_json(eq)
        # lazy: only plain text reads these lines
        after = chain(
            ["equivariant cohomology:"],
            (f"H^{k}_G = {eq.group_string(k)}" for k in range(eq.max_degree + 1)),
        )
    _print_table(args.format, L, table, extra, after=after)
    return EXIT_OK


def _cmd_classify(args) -> int:
    matrix, header_p = read_matrix_file(args.matrix_file)
    p = args.p if args.p is not None else header_p
    if p is None:
        raise ValueError("no prime given (use --p or a '# p=<prime>' header)")
    _require_degree(args.max_degree)
    L = classify(matrix, p)
    max_degree = args.max_degree if args.max_degree is not None else L.rank
    table = quotient_cohomology(L, max_degree)
    trivial = is_trivial_action(matrix)
    extra, checks = {"trivial_action": trivial}, []
    if args.verify == "rational":
        ranks = rational_alpha_oracle(matrix, p)
        expected = table.free_ranks() + [0] * len(ranks)
        checks = extra["rational_verification"] = [
            {"k": k, "expected": expected[k], "got": got, "ok": expected[k] == got}
            for k, got in enumerate(ranks)
        ]
    before = ["matrix is the identity: trivial action"] if trivial else []
    after = (
        "rational oracle degree {k}: expected {expected}, got {got}: ".format_map(c)
        + ("PASS" if c["ok"] else "FAIL")
        for c in checks
    )
    _print_table(args.format, L, table, extra, before, after)
    return EXIT_OK if all(c["ok"] for c in checks) else EXIT_INCONSISTENT


def _cmd_oracle(args) -> int:
    if args.max_size < 0:
        raise ValueError(f"--max-size must be a nonnegative integer, got {args.max_size}")
    model = build_equivariant_torus(
        args.case, p=args.p, r=args.r, n=args.n, t=args.t, m=args.m, max_simplices=args.max_size
    )
    report = run_oracle_case(model, args.mode, max_simplices=args.max_size)
    if args.dump_quotient:
        try:
            with open(args.dump_quotient, "w", encoding="utf-8") as fh:
                fh.write(report.quotient.to_text())
        except OSError as exc:
            raise ValueError(f"cannot write quotient: {exc}") from exc
    if args.format == "json":
        doc = {
            "case": report.description,
            "p": report.lattice_type.p,
            "type": [
                report.lattice_type.r,
                report.lattice_type.s,
                report.lattice_type.t,
            ],
            "mode": report.mode,
            "subdivisions": report.subdivisions,
            "total_simplices": report.total_simplices,
            "quotient_simplices": report.quotient_simplices,
            "rows": [
                {
                    "label": row.label,
                    "expected": row.expected,
                    "actual": row.actual,
                    "ok": row.ok,
                }
                for row in report.rows
            ],
            "passed": report.passed,
        }
        print(_json_text(doc))
    else:
        L = report.lattice_type
        print(f"case: {report.description}")
        print(
            f"type ({L.r},{L.s},{L.t}) at p = {L.p}; mode {report.mode}; "
            f"{report.subdivisions} subdivision(s); "
            f"{report.total_simplices} simplices -> quotient {report.quotient_simplices}"
        )
        for row in report.rows:
            print(
                f"{row.label}: expected {row.expected}, got {row.actual}: "
                f"{'PASS' if row.ok else 'FAIL'}"
            )
        print(f"RESULT: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_INCONSISTENT


def _cmd_grid(args) -> int:
    bounds = (args.max_r, args.max_s, args.max_t)
    if any(b < 0 for b in bounds):
        raise ValueError("grid bounds must be nonnegative")
    largest = LatticeType(args.p, *bounds)
    _require_rank(largest.rank, largest)
    count = prod(b + 1 for b in bounds)
    # the rank is linear in r, s and t, so the grid's mean rank is half
    # the largest one's: sum (rank + 1) = count * (largest rank + 2) / 2
    rows = count * (largest.rank + 2) // 2
    if rows > MAX_GRID_ROWS:
        raise ValueError(f"grid of {rows} table rows exceeds the limit of {MAX_GRID_ROWS}")
    types = [
        LatticeType(args.p, r, s, t)
        for r in range(args.max_r + 1)
        for s in range(args.max_s + 1)
        for t in range(args.max_t + 1)
    ]
    if args.format == "json":
        docs = [
            table_to_json_dict(L, quotient_cohomology(L, L.rank)) for L in types
        ]
        print(_json_text(docs))
    else:
        rows = (
            (L.p, L.r, L.s, L.t, k, *entry)
            for L in types
            for k, entry in enumerate(quotient_cohomology(L, L.rank).entries)
        )
        _write_csv(["p", "r", "s", "t", "k", "free_rank", "p_torsion_rank"], rows)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="toroidal",
        description="Integral cohomology of torus quotients by prime-order cyclic actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coh = sub.add_parser(
        "cohomology", help="table for a lattice type (r,s,t) at a prime p"
    )
    p_coh.add_argument("--p", type=int, required=True, help="the prime order")
    p_coh.add_argument(
        "--type", required=True, help="lattice type as r,s,t (e.g. 3,0,0)"
    )
    p_coh.add_argument(
        "--max-degree", type=int, default=None, help=f"default the rank; at most {MAX_DEGREE}"
    )
    p_coh.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain"
    )
    p_coh.add_argument(
        "--equivariant",
        action="store_true",
        help="also print the Borel-construction table",
    )
    p_coh.set_defaults(func=_cmd_cohomology)

    p_cls = sub.add_parser(
        "classify", help="classify a matrix file and print its quotient table"
    )
    p_cls.add_argument("matrix_file", help="text file: 'n n' then n rows of n integers")
    p_cls.add_argument(
        "--p", type=int, default=None, help="prime order (overrides '# p=' header)"
    )
    p_cls.add_argument(
        "--max-degree", type=int, default=None, help=f"default the rank; at most {MAX_DEGREE}"
    )
    p_cls.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain"
    )
    p_cls.add_argument(
        "--verify",
        choices=("rational",),
        default=None,
        help="cross-check free ranks against exterior-power characters",
    )
    p_cls.set_defaults(func=_cmd_classify)

    p_orc = sub.add_parser(
        "oracle", help="build an equivariant triangulation and compare pipelines"
    )
    p_orc.add_argument(
        "--case", required=True, choices=("sign", "cyclic", "hexagonal", "mixed")
    )
    p_orc.add_argument("--r", type=int, default=None, help="sign factors (sign and mixed cases)")
    p_orc.add_argument(
        "--n",
        type=int,
        default=None,
        help="regular-representation blocks (cyclic and mixed cases)",
    )
    p_orc.add_argument("--p", type=int, default=None, help="prime (cyclic case)")
    p_orc.add_argument("--t", type=int, default=0, help="extra trivial circle factors")
    p_orc.add_argument(
        "--m", type=int, default=None, help="vertices per circle factor / grid size"
    )
    p_orc.add_argument("--mode", choices=("integral", "field"), default="integral")
    p_orc.add_argument(
        "--max-size",
        type=int,
        default=DEFAULT_SIMPLEX_GATE,
        help=f"simplex gate, both modes (default {DEFAULT_SIMPLEX_GATE})",
    )
    p_orc.add_argument("--format", choices=("plain", "json"), default="plain")
    p_orc.add_argument(
        "--dump-quotient",
        metavar="FILE",
        default=None,
        help="also write the quotient complex in the line-based text format",
    )
    p_orc.set_defaults(func=_cmd_oracle)

    p_grid = sub.add_parser(
        "grid", help="batch tables for every type within componentwise bounds"
    )
    p_grid.add_argument("--p", type=int, required=True)
    p_grid.add_argument("--max-r", type=int, default=2)
    p_grid.add_argument("--max-s", type=int, default=2)
    p_grid.add_argument("--max-t", type=int, default=2)
    p_grid.add_argument("--format", choices=("csv", "json"), default="csv")
    p_grid.set_defaults(func=_cmd_grid)
    return parser


def _attach_type_values(argv: list[str]) -> list[str]:
    """Rewrite "--type -1,0,0" as "--type=-1,0,0".

    argparse reads a separate value such as "-1,0,0" as an option and fails
    with "expected one argument"; attached, the type parser rejects the
    negative entry with a message that names it.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--type" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--type={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_type_values(sys.argv[1:] if argv is None else list(argv))
    )
    try:
        code = args.func(args)
        # a closed pipe shows here, not at exit, where Python would report it
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at devnull so that the
        # interpreter's last flush at exit finds nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        # a gate raised past what this machine holds admits a model, and
        # building it runs out of memory
        print(
            "error: out of memory; a lower --max-size refuses such a model before it is built",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
