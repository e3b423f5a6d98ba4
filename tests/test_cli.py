import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import toroidal.cli
from conftest import (
    block_diag,
    cyclic_permutation_matrix,
    cyclotomic_companion_matrix,
    fenced_block_after,
    sign_matrix,
    table_from_json_dict,
)
from toroidal.cli import (
    EXIT_INCONSISTENT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STDOUT_CLOSED,
    MAX_DEGREE,
    MAX_GRID_ROWS,
    MAX_RANK,
    main,
    table_to_json_dict,
)
from toroidal.cohomology import quotient_cohomology
from toroidal.errors import ConsistencyError
from toroidal.lattice import LatticeType
from toroidal.snf import IntMatrix

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_plain(capsys):
    code, out, _ = run(capsys, "cohomology", "--p", "2", "--type", "3,0,0")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "H^0 = Z" in lines
    assert "H^1 = 0" in lines
    assert "H^2 = Z^3" in lines
    assert "H^3 = (Z/2)" in lines
    assert any("8 component(s)" in ln for ln in lines)


def test_cohomology_table_rows_match_series_pipeline(capsys):
    code, out, _ = run(capsys, "cohomology", "--p", "3", "--type", "0,1,0")
    assert code == EXIT_OK
    assert out.count("= Z\n") == 4


def test_cohomology_rejects_composite_prime(capsys):
    code, _, err = run(capsys, "cohomology", "--p", "4", "--type", "1,0,0")
    assert code == EXIT_INPUT
    assert "prime" in err


def test_cohomology_large_prime_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "cohomology", "--p", str(2**61 - 1), "--type", "0,0,1")
    assert code == EXIT_OK and "H^1 = Z" in out
    assert time.perf_counter() - start < 1.0


def test_cohomology_rejects_malformed_type(capsys):
    code, _, _ = run(capsys, "cohomology", "--p", "2", "--type", "1,2")
    assert code == EXIT_INPUT
    # an empty entry gave int()'s own message, which names neither
    code, _, err = run(capsys, "cohomology", "--p", "2", "--type", "1,,0")
    assert err == "error: type must be r,s,t with three integers, got '1,,0'\n"


def test_cohomology_rejects_negative_type_entry(capsys):
    for argv in (["--type", "-1,0,0"], ["--type=-1,0,0"]):
        code, out, err = run(capsys, "cohomology", "--p", "2", *argv)
        assert code == EXIT_INPUT and out == ""
        assert err == "error: r must be a nonnegative integer, got -1\n"


def test_cohomology_csv(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--p", "2", "--type", "3,0,0", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k,free_rank,p_torsion_rank"
    assert lines[1:] == ["0,1,0", "1,0,0", "2,3,0", "3,0,1"]


def test_cohomology_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--p", "2", "--type", "3,0,0", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["p"] == 2 and doc["type"] == [3, 0, 0] and doc["n"] == 3
    assert doc["fixed_points"] == {"components": 8, "torus_dim": 0}
    L, table = table_from_json_dict(doc)
    assert L == LatticeType(2, 3, 0, 0)
    assert table == quotient_cohomology(L, 3)


def test_json_big_integers_become_strings(capsys):
    # rank 70 at p = 2: the middle free ranks involve C(70, 35)/2 > 2^63
    code, out, _ = run(
        capsys, "cohomology", "--p", "2", "--type", "70,0,0", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    middle = next(g for g in doc["groups"] if g["k"] == 34)
    assert isinstance(middle["free_rank"], str)
    assert int(middle["free_rank"]) > 2**63
    L, table = table_from_json_dict(doc)
    assert table == quotient_cohomology(L, 70)


def test_json_dict_round_trip_direct():
    L = LatticeType(5, 1, 1, 1)
    table = quotient_cohomology(L, L.rank)
    doc = table_to_json_dict(L, table)
    assert table_from_json_dict(doc) == (L, table)


def test_degrees_beyond_rank_print_as_zero(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--p", "3", "--type", "1,0,0", "--max-degree", "5"
    )
    assert code == EXIT_OK
    for k in (3, 4, 5):
        assert f"H^{k} = 0" in out


def test_max_degree_far_past_the_rank_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys,
        "cohomology",
        "--p",
        "2",
        "--type",
        "1,0,0",
        "--max-degree",
        "100000",
        "--equivariant",
    )
    assert time.perf_counter() - start < 3.0
    assert code == EXIT_OK
    assert out.endswith("H^99999_G = 0\nH^100000_G = (Z/2)^2\n")


def test_equivariant_flag(capsys):
    code, out, _ = run(
        capsys,
        "cohomology",
        "--p",
        "2",
        "--type",
        "1,0,0",
        "--equivariant",
        "--max-degree",
        "2",
    )
    assert code == EXIT_OK
    assert "H^2_G = (Z/2)^2" in out


def test_classify_plain(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n-1 0\n0 -1\n")
    code, out, _ = run(capsys, "classify", str(path), "--p", "2")
    assert code == EXIT_OK
    assert "(2,0,0)" in out
    assert "H^2 = Z" in out


def test_classify_header_prime(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# p=3\n3 3\n0 0 1\n1 0 0\n0 1 0\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == EXIT_OK
    assert "(0,1,0)" in out


def test_classify_missing_prime(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 1\n1\n")
    code, _, err = run(capsys, "classify", str(path))
    assert code == EXIT_INPUT
    assert "prime" in err


def test_classify_verify_rational(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# p=2\n2 2\n-1 0\n0 -1\n")
    code, out, _ = run(capsys, "classify", str(path), "--verify", "rational")
    assert code == EXIT_OK
    assert out.count("PASS") == 3


def test_classify_verify_rational_checks_the_order_once(capsys, tmp_path, monkeypatch):
    # classify reads A^p off its norm ladder; only the rational oracle asks verify_order
    calls = []
    real = sys.modules["toroidal.classify"].verify_order

    def counted(A, p):
        calls.append(p)
        return real(A, p)

    for module in ("toroidal.classify", "toroidal.oracle"):
        monkeypatch.setattr(sys.modules[module], "verify_order", counted)
    path = tmp_path / "m.txt"
    a = block_diag(cyclotomic_companion_matrix(5), cyclic_permutation_matrix(5))
    path.write_text(a.to_text())
    code, out, _ = run(capsys, "classify", str(path), "--p", "5", "--verify", "rational")
    assert code == EXIT_OK and "FAIL" not in out
    assert calls == [5]


def test_classify_verify_rational_at_rank_24_is_fast(capsys, tmp_path):
    # one pass over A's powers; building every k x k minor ran past 15 s here
    companion, cycle = cyclotomic_companion_matrix(5), cyclic_permutation_matrix(5)
    a = block_diag(companion, companion, cycle, cycle, *[IntMatrix.identity(1)] * 6)
    path = tmp_path / "m.txt"
    path.write_text(a.to_text())
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", str(path), "--p", "5", "--verify", "rational")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert out.count("PASS") == 25 and "FAIL" not in out


def test_classify_wrong_order(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 1\n0 1\n")
    code, _, err = run(capsys, "classify", str(path), "--p", "2")
    assert code == EXIT_INPUT
    assert "order" in err


def test_classify_large_prime_is_fast(capsys, tmp_path):
    identity, swap = tmp_path / "i.txt", tmp_path / "s.txt"
    identity.write_text("2 2\n1 0\n0 1\n")
    swap.write_text("2 2\n0 1\n1 0\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", str(identity), "--p", "1000003")
    assert code == EXIT_OK and "(0,0,2)" in out
    code, _, err = run(capsys, "classify", str(swap), "--p", "1000003")
    assert code == EXIT_INPUT and "order" in err
    code, out, _ = run(
        capsys, "classify", str(identity), "--p", "1000003", "--verify", "rational"
    )
    assert code == EXIT_OK and out.count("PASS") == 3
    assert time.perf_counter() - start < 1.0


def test_classify_malformed_matrix(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2\n")
    code, _, _ = run(capsys, "classify", str(path), "--p", "2")
    assert code == EXIT_INPUT


def test_classify_missing_file(capsys):
    code, _, _ = run(capsys, "classify", "/nonexistent/m.txt", "--p", "2")
    assert code == EXIT_INPUT


def test_classify_json(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 0\n0 1\n")
    code, out, _ = run(
        capsys, "classify", str(path), "--p", "5", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["type"] == [0, 0, 2]
    assert doc["trivial_action"] is True


def test_oracle_sign(capsys):
    code, out, _ = run(capsys, "oracle", "--case", "sign", "--r", "1")
    assert code == EXIT_OK
    assert "RESULT: PASS" in out


def test_oracle_unsupported(capsys):
    code, _, err = run(capsys, "oracle", "--case", "cyclic")
    assert code == EXIT_INPUT
    assert "needs p" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--case cyclic --p 4 --n 2", "p must be prime, got 4"),
        ("--case cyclic --p 9 --n 1", "p must be prime, got 9"),
        ("--case cyclic", "the cyclic case needs p"),
        ("--case sign --p 3", "the sign case forces p = 2"),
        ("--case mixed --r 0", "the mixed case needs both sign factors and swap pairs"),
        ("--case hexagonal --m 4", "grid must be a positive multiple of 3"),
        ("--case sign --t -1", "trivial factor count must be nonnegative"),
        ("--case sign --m 1", "a polygonal circle needs at least 2 vertices"),
        ("--case sign --r 0", "need at least one sign factor"),
        ("--case cyclic --p 3 --n 0", "need at least one regular-representation block"),
        ("--case hexagonal --p 5", "the hexagonal case forces p = 3"),
        # a count the case does not use was dropped, and another type checked
        ("--case hexagonal --r 2", "the hexagonal case takes no r, got 2"),
        ("--case sign --r 1 --n 5", "the sign case takes no n, got 5"),
    ],
)
def test_oracle_rejects_bad_cases_fast(capsys, argv, message):
    # each case's type is checked before any cell of its model is built
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", *argv.split())
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--case sign --r 1 --n -3", "n must be nonnegative, got -3"),
        ("--case cyclic --p 3 --r -1 --m 2 --max-size 100000", "r must be nonnegative, got -1"),
        ("--case hexagonal --r -7 --n -2", "r must be nonnegative, got -7"),
        ("--case mixed --r 1 --n 1 --t -2", "trivial factor count must be nonnegative, got -2"),
    ],
)
def test_oracle_refuses_negative_counts_in_every_case(capsys, argv, message):
    # a case that ignores a count still refuses it negative: these three
    # exited 0 with PASS
    code, out, err = run(capsys, "oracle", *argv.split())
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")


def test_oracle_gate_names_max_size(capsys):
    # both modes meet the gate, so the refusal names the option that moves it
    for mode in ("integral", "field"):
        code, _, err = run(
            capsys, "oracle", "--case", "sign", "--r", "2", "--max-size", "10", "--mode", mode
        )
        assert code == EXIT_INPUT
        assert "--max-size" in err and "field mode" not in err


def test_oracle_rejects_bad_gate(capsys):
    code, _, err = run(capsys, "oracle", "--case", "sign", "--r", "1", "--max-size", "-1")
    assert code == EXIT_INPUT and "--max-size" in err


def test_oracle_env_gate(capsys, monkeypatch):
    # --max-size is the only gate setting: the environment sets none
    monkeypatch.setenv("TOROIDAL_MAX_SIMPLICES", "0")
    code, out, _ = run(capsys, "oracle", "--case", "sign", "--r", "1")
    assert code == EXIT_OK and "RESULT: PASS" in out


def test_oracle_refuses_an_oversized_subdivision_fast(capsys):
    # the model's 194 400 simplices pass twice the gate, but the subdivision
    # it needs has 23 561 280: building it took 130 s before the quotient
    # was refused
    start = time.perf_counter()
    code, out, err = run(
        capsys, "oracle", "--case", "cyclic", "--p", "2", "--n", "2", "--max-size", "200000"
    )
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_INPUT and out == ""
    assert "subdivision would have 23561280 simplices" in err and "--max-size" in err


def test_oracle_torsion_comes_through_the_cleared_smith_forms(capsys, snf_reductions):
    # H^3 = Z/2 for the sign action on three circles; the quotient has
    # 260, 1792, 3072 and 1536 faces.  Top-down, d_2 keeps its 1536 rows and
    # gives 1535 unit pivots and the factor 2; those pivots clear rows of
    # d_1, whose 1533 clear rows of d_0.  The factor 2 clears none.
    code, out, _ = run(capsys, "oracle", "--case", "sign", "--r", "3")
    assert code == EXIT_OK and "H^3: expected (Z/2), got Z/2: PASS" in out
    assert "RESULT: PASS" in out
    assert snf_reductions == [1536, 3072 - 1535, 1792 - 1533]


def _cli_in_child(argv, address_space=1 << 30):
    """Run `toroidal argv` as a child process whose address space is capped."""

    def limit_address_space():
        # runs in the child between fork and exec, so only the child is limited
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "toroidal.cli", *argv.split()],
        capture_output=True,
        env=env,
        timeout=30,
        preexec_fn=limit_address_space,
    )


def _assert_refused_before_built(argv):
    proc = _cli_in_child(f"oracle {argv}")
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_INPUT and proc.stdout == b"", err
    assert err.startswith("error: model has") and err.count("\n") == 1
    assert "past the simplex gate of 20000" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # 2 455 240 704 simplices; the build ran out of memory with a traceback
        "--case sign --r 6",
        # 8 413 632 simplices; the build ran past 15 s
        "--case cyclic --p 5 --n 1",
        # a million circle factors; product_model ran out of memory
        "--case cyclic --p 1000003 --n 1",
    ],
)
def test_oversized_integral_models_are_refused_before_they_are_built(argv):
    _assert_refused_before_built(argv)


@pytest.mark.parametrize(
    "argv",
    [
        # one huge circle; building it ran out of memory
        "--case sign --r 1 --m 40000000",
        "--case cyclic --p 2 --n 1 --m 20000000",
        # field mode had no gate: 35 454 976 simplices ran out of memory, and
        # the hexagonal and million-factor builds ran past 15 s
        "--case sign --r 5 --mode field",
        "--case cyclic --p 1000003 --n 1 --mode field",
        # the triangular torus was built before it was counted
        "--case hexagonal --m 999",
        "--case hexagonal --m 999 --t 1",
        # a billion factors of each kind: their lists ran out of memory
        "--case mixed --r 1000000000 --n 1000000000 --t 1000000000",
    ],
)
def test_oversized_models_are_refused_before_they_are_built(argv):
    _assert_refused_before_built(argv)


def test_a_model_admitted_past_memory_exits_2_naming_the_gate():
    # a raised gate admits sign --r 5 (35 454 976 simplices); its build runs
    # out of memory at 300 MiB, which printed a MemoryError traceback
    proc = _cli_in_child("oracle --case sign --r 5 --max-size 100000000", 300 << 20)
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_INPUT and proc.stdout == b"", err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "--max-size" in err and "Traceback" not in err


def test_oracle_json(capsys):
    code, out, _ = run(
        capsys,
        "oracle",
        "--case",
        "cyclic",
        "--p",
        "2",
        "--n",
        "1",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["type"] == [0, 1, 0]
    assert all(row["ok"] for row in doc["rows"])


def test_oracle_dump_quotient(capsys, tmp_path):
    from toroidal.oracle import SimplicialComplex

    path = tmp_path / "quotient.txt"
    code, out, _ = run(
        capsys, "oracle", "--case", "sign", "--r", "1", "--dump-quotient", str(path)
    )
    assert code == EXIT_OK
    dumped = SimplicialComplex.from_text(path.read_text())
    assert [str(g) for g in dumped.integral_cohomology()] == ["Z", "0"]
    # the dumped bytes stay those of the format's reference output
    for case, digest in (("sign", "7c9506067f7c53ae"), ("hexagonal", "581c779d26ce43b4")):
        assert run(capsys, "oracle", "--case", case, "--dump-quotient", str(path))[0] == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest().startswith(digest), case


def test_oracle_dump_quotient_to_an_unwritable_path(capsys, tmp_path):
    path = tmp_path / "missing" / "quotient.txt"
    code, out, err = run(
        capsys, "oracle", "--case", "sign", "--r", "1", "--dump-quotient", str(path)
    )
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: cannot write quotient: ") and err.count("\n") == 1
    assert str(path) in err


def test_grid_csv(capsys):
    code, out, _ = run(
        capsys, "grid", "--p", "3", "--max-r", "1", "--max-s", "0", "--max-t", "0"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "p,r,s,t,k,free_rank,p_torsion_rank"
    assert lines[1] == "3,0,0,0,0,1,0"
    # type (1,0,0) at p=3 is the two-sphere: rows for k = 0..2
    assert lines[2:] == ["3,1,0,0,0,1,0", "3,1,0,0,1,0,0", "3,1,0,0,2,1,0"]


def test_grid_json_deterministic(capsys):
    code, first, _ = run(
        capsys, "grid", "--p", "2", "--max-r", "1", "--max-s", "1", "--max-t", "1",
        "--format", "json",
    )
    assert code == EXIT_OK
    code, second, _ = run(
        capsys, "grid", "--p", "2", "--max-r", "1", "--max-s", "1", "--max-t", "1",
        "--format", "json",
    )
    assert first == second
    docs = json.loads(first)
    assert len(docs) == 8
    assert all(doc["p"] == 2 for doc in docs)


def test_grid_rejects_bad_bounds(capsys):
    code, _, _ = run(capsys, "grid", "--p", "2", "--max-r", "-1")
    assert code == EXIT_INPUT


def test_rank_gate_refuses_before_any_series(capsys):
    # rank p - 1 = 100000000002: without the gate the series lists alone
    # would need hundreds of gigabytes
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", "--p", "100000000003", "--type", "1,0,0")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT and out == ""
    assert err == (
        "error: rank 100000000002 of (r=1, s=0, t=0) at p=100000000003 "
        f"exceeds the limit of {MAX_RANK}\n"
    )
    # grid is gated by its largest type, before it lists the types
    code, out, err = run(
        capsys, "grid", "--p", "2", "--max-r", "0", "--max-s", "0",
        "--max-t", str(MAX_RANK + 1),
    )
    assert code == EXIT_INPUT and out == "" and "exceeds the limit" in err
    assert time.perf_counter() - start < 1.0


def test_grid_refuses_too_many_types_before_listing_them(capsys):
    # about 10^9 types, each of rank at most 4000: the list alone ran out of
    # memory.  The row limit refuses it before the list.
    start = time.perf_counter()
    code, out, err = run(
        capsys, "grid", "--p", "2", "--max-r", "1000", "--max-s", "1000", "--max-t", "1000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT and out == ""
    assert err == (
        f"error: grid of 2007009005001 table rows exceeds the limit of {MAX_GRID_ROWS}\n"
    )
    # 10 005 types, the fewest rows of any grid of more than 10 000 types
    code, out, err = run(
        capsys, "grid", "--p", "2", "--max-r", "22", "--max-s", "14", "--max-t", "28"
    )
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: grid of 400200 table rows exceeds the limit of {MAX_GRID_ROWS}\n"
    # grids of 12 types, as the benchmark runs them, stay admitted
    code, out, _ = run(
        capsys, "grid", "--p", "5", "--max-r", "1", "--max-s", "1", "--max-t", "2"
    )
    assert code == EXIT_OK
    assert len({tuple(line.split(",")[1:4]) for line in out.splitlines()[1:]}) == 12


def test_grid_refuses_too_many_rows_before_any_series(capsys):
    # 9 261 types of rank up to 1 880: 8 714 601 rows, which printed 445 MB
    # in the first minute
    start = time.perf_counter()
    code, out, err = run(
        capsys, "grid", "--p", "47", "--max-r", "20", "--max-s", "20", "--max-t", "20"
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: grid of 8714601 table rows exceeds the limit of {MAX_GRID_ROWS}\n"
    # the count is exact: one row per degree 0..rank of each type
    code, out, _ = run(
        capsys, "grid", "--p", "3", "--max-r", "2", "--max-s", "1", "--max-t", "3"
    )
    assert code == EXIT_OK
    rows = [2 * r + 3 * s + t + 1 for r in range(3) for s in range(2) for t in range(4)]
    assert len(out.splitlines()) - 1 == sum(rows) == 24 * (10 + 2) // 2
    code, _, err = run(
        capsys, "grid", "--p", "2", "--max-r", "0", "--max-s", "0", "--max-t", "893"
    )
    assert code == EXIT_INPUT and "grid of 400065 table rows" in err


def test_max_degree_past_the_limit_exits_2(capsys, tmp_path):
    # padding a table to degree 10^11 ran out of memory
    assert MAX_DEGREE >= 100000
    path = tmp_path / "m.txt"
    path.write_text("2 2\n-1 0\n0 -1\n")
    for argv in (
        ("cohomology", "--p", "2", "--type", "1,0,0"),
        ("classify", str(path), "--p", "2"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--max-degree", "100000000000")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: max degree 100000000000 exceeds the limit of {MAX_DEGREE}\n"
        code, out, _ = run(capsys, *argv, "--max-degree", str(MAX_DEGREE))
        assert code == EXIT_OK
        assert out.splitlines()[-2] == f"H^{MAX_DEGREE} = 0"


def test_classify_refuses_a_rank_past_the_limit(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("toroidal.cli.MAX_RANK", 3)
    path = tmp_path / "m.txt"
    path.write_text(sign_matrix(4).to_text())
    code, out, err = run(capsys, "classify", str(path), "--p", "2")
    assert code == EXIT_INPUT and out == ""
    assert err == "error: rank 4 of the matrix exceeds the limit of 3\n"
    path.write_text(sign_matrix(3).to_text())
    code, out, _ = run(capsys, "classify", str(path), "--p", "2")
    assert code == EXIT_OK and "(3,0,0)" in out


def test_classify_refuses_a_huge_header_before_reading_its_rows(tmp_path):
    # the rows of an n x 0 matrix are not in the file: this header alone
    # made classify build a billion empty rows and run out of memory
    path = tmp_path / "m.txt"
    path.write_text("1000000000 0\n")
    proc = _cli_in_child(f"classify {path} --p 2")
    assert proc.returncode == EXIT_INPUT and proc.stdout == b""
    assert proc.stderr.decode() == (
        f"error: rank 1000000000 of the matrix exceeds the limit of {MAX_RANK}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        "cohomology --p 2 --type 1,x,0",
        "cohomology --p 2 --type 1,,0",
        "cohomology --p 2 --type 1.5,0,0",
        "classify {missing} --p 2",
        "classify {matrix}",
        "oracle --case sign --r 2 --max-size 10",
        "oracle --case sign --r 1 --max-size -1",
        "grid --p 2 --max-s -1",
    ],
)
def test_every_input_error_is_one_line_and_exit_2(capsys, tmp_path, argv):
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 1\n1\n")
    argv = argv.format(missing=tmp_path / "missing.txt", matrix=matrix)
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_rank_gate_admits_its_limit(capsys):
    assert MAX_RANK >= 3000
    code, out, _ = run(capsys, "cohomology", "--p", "2", "--type", f"0,0,{MAX_RANK}")
    assert code == EXIT_OK
    assert out.splitlines()[-2] == f"H^{MAX_RANK} = Z"
    # the slowest types for a series engine of dense powers and convolutions
    for p, lattice_type in ((4001, "1,0,0"), (2, "1333,667,0")):
        start = time.perf_counter()
        code, out, _ = run(capsys, "cohomology", "--p", str(p), "--type", lattice_type)
        assert time.perf_counter() - start < 2.0, (p, lattice_type)
        assert code == EXIT_OK
        if p == 4001:
            # criterion 2's closed form at r = 1: (Z/p)^(p - k) for odd k >= 3
            groups = [line.partition(" = ")[2] for line in out.splitlines()[1:-1]]
            assert len(groups) == p
            for k in range(p):
                torsion = p - k if k % 2 and k >= 3 else 0
                suffix = f"(Z/{p})" + (f"^{torsion}" if torsion > 1 else "")
                assert groups[k].endswith(suffix) if torsion else "Z/" not in groups[k], k


@pytest.mark.parametrize(
    "argv",
    [
        # rank 70: entries past 64 bits print as strings
        ["cohomology", "--p", "2", "--type", "70,0,0", "--equivariant", "--format", "json"],
        ["classify", "{matrix}", "--verify", "rational", "--format", "json"],
        ["grid", "--p", "3", "--max-r", "2", "--max-s", "1", "--max-t", "1", "--format", "json"],
        ["oracle", "--case", "sign", "--r", "2", "--format", "json"],
    ],
    ids=["cohomology", "classify", "grid", "oracle"],
)
def test_json_output_is_the_bytes_of_json_dumps(capsys, tmp_path, argv):
    matrix = tmp_path / "m.txt"
    matrix.write_text("# p=3\n3 3\n0 0 1\n1 0 0\n0 1 0\n")
    code, out, _ = run(capsys, *(a.format(matrix=matrix) for a in argv))
    assert code == EXIT_OK
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


_COHOMOLOGY = ("cohomology", "--p", "3", "--type", "2,1,1")
_BLOCK = ("classify", "block.txt", "--p", "3", "--verify", "rational")
_GRID = ("grid", "--p", "2", "--max-r", "1", "--max-s", "1", "--max-t", "1")
_DUMP = ("--dump-quotient", "quotient.txt")

# SHA-256 of each command's stdout, followed by the --dump-quotient file when
# it writes one: every byte of every output format is pinned
PINNED_OUTPUTS = {
    "cohomology-plain": (
        _COHOMOLOGY, "99848b8344dc68cc14b5324638c897740ef5d587aeb7ae2c164c183d410e4361"),
    "cohomology-plain-equivariant": (
        _COHOMOLOGY + ("--equivariant",),
        "7ca8c1262ea8e323ae531c018b820cf3e93e3f2bfd8430fb393e646643dcee32"),
    "cohomology-csv": (
        _COHOMOLOGY + ("--format", "csv"),
        "a2cd22f0664667824ea9d85b5bb265f29ee24d27abbad283d7e118a5870a773f"),
    "cohomology-csv-equivariant": (
        _COHOMOLOGY + ("--format", "csv", "--equivariant"),
        "a2cd22f0664667824ea9d85b5bb265f29ee24d27abbad283d7e118a5870a773f"),
    "cohomology-json": (
        _COHOMOLOGY + ("--format", "json"),
        "b01691903dd56c3be55bac3b35ab0648a32e0ee20f164bf21472db5c5c2fad2f"),
    "cohomology-json-equivariant": (
        _COHOMOLOGY + ("--format", "json", "--equivariant"),
        "69c32e380937cc1e636d887730c9b02f5bb9d35c03d0f8ae2e8c6af7ba659517"),
    "classify-block-plain": (
        _BLOCK, "a7a8d2db266e6deceec8cad2baa5b1fecb865bd611be675b6150fe6aeecc9386"),
    "classify-block-csv": (
        _BLOCK + ("--format", "csv"),
        "b973ac2d272e7d5ed8f84b1762583d3ba3a212904a7bf27bc545e946cd54770f"),
    "classify-block-json": (
        _BLOCK + ("--format", "json"),
        "2ed47c5d010e6b88f63ef615b9ebd105809b76f004f40c8c1f31fa72ae05f5be"),
    "classify-identity": (
        ("classify", "identity.txt", "--p", "5"),
        "ce145f451ddf28138251f8ce499d775224b6c8c50c13b9ce9801c585e2babbfe"),
    "classify-header": (
        ("classify", "header.txt"),
        "a981a4207d45d5181c71feb8f8d2b7742fb0daf8ee39bbbc6e99c0fcaaa50d3a"),
    "grid-csv": (
        _GRID, "bbf21b442879b60c76af34a0bbcc8cf671382eb4bece5e44e5a3b6d773dd6443"),
    "grid-json": (
        _GRID + ("--format", "json"),
        "2d7e1d99ddf17cdc0ce1c81c14b5cd8aed3e8fe8d85d28fdaf1bfb106249417b"),
    "oracle-hexagonal-integral-plain": (
        ("oracle", "--case", "hexagonal"),
        "43a41ecec599b1fa574851627a8409c86f04e1c337b228fdb3f6de60ee3c360c"),
    "oracle-hexagonal-integral-json": (
        ("oracle", "--case", "hexagonal", "--format", "json"),
        "0063491275a50c8f3a736b4e4f7107348518014bf3afb9c99b979f8cc5de71e4"),
    "oracle-hexagonal-field-plain": (
        ("oracle", "--case", "hexagonal", "--mode", "field"),
        "babca62c931674fb366991cfae704aaeb0b34f006a59088c3b745c2ff2d66306"),
    "oracle-hexagonal-field-json": (
        ("oracle", "--case", "hexagonal", "--mode", "field", "--format", "json"),
        "f26185c65bbc4e94aefbc35fd6fb18243d10a61b5d35dcf7582c55510c67cac0"),
    "oracle-sign-m3": (
        ("oracle", "--case", "sign", "--r", "1", "--m", "3"),
        "2fa05e3b8cbd3c81779fcbad308b7bd29a59abd074217a129ed51b34de9c6e79"),
    "oracle-sign-subdivided": (
        ("oracle", "--case", "sign", "--r", "2", "--m", "3"),
        "945abb6fd57d17dd0a7c616a2fb1467a592dda80ffc6cac7cc737f481202af03"),
    "oracle-sign-dump": (
        ("oracle", "--case", "sign", "--r", "2") + _DUMP,
        "fb38eb6672b9aa8ab6841ffddc8b25e1a6c9163a4c70affaf613377436857e28"),
    "oracle-hexagonal-dump": (
        ("oracle", "--case", "hexagonal") + _DUMP,
        "0fe4c270ffe0fbbd631205a59696be0e7ff03cdb143bfa150d5a92304b8e7d47"),
}


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_every_output_format_keeps_its_bytes(capsys, tmp_path, monkeypatch, name):
    argv, digest = PINNED_OUTPUTS[name]
    monkeypatch.chdir(tmp_path)
    block = block_diag(
        cyclotomic_companion_matrix(3), cyclic_permutation_matrix(3), IntMatrix.identity(1)
    )
    Path("block.txt").write_text(block.to_text())
    Path("identity.txt").write_text(IntMatrix.identity(2).to_text())
    Path("header.txt").write_text("# p=3\n3 3\n0 0 1\n1 0 0\n0 1 0\n")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    if _DUMP[0] in argv:
        out += Path(_DUMP[1]).read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "type_, output_format, lines_read",
    [
        # about 2 MB, more than a pipe holds: a write inside the command
        # meets the closed pipe
        ("0,0,3000", "plain", 1),
        ("0,0,3000", "json", 1),
        # a few lines, still buffered when the command returns, and a reader
        # gone before any write: main's flush meets the closed pipe, not the
        # interpreter's last flush at exit
        ("1,0,0", "plain", 0),
    ],
)
def test_closed_stdout_exits_1_without_a_traceback(type_, output_format, lines_read):
    # stdout block-buffered, as Python leaves a pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "toroidal.cli", "cohomology", "--p", "2",
         "--type", type_, "--format", output_format],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_STDOUT_CLOSED == 1
    assert err == b""


def test_a_consistency_failure_exits_3(capsys, monkeypatch):
    def broken(L, max_degree=None):
        raise ConsistencyError("the pipelines disagree")

    monkeypatch.setattr(toroidal.cli, "quotient_cohomology", broken)
    code, out, err = run(capsys, "cohomology", "--p", "2", "--type", "1,0,0")
    assert code == EXIT_INCONSISTENT and out == ""
    assert err == "internal consistency failure: the pipelines disagree\n"


def test_exit_code_contract():
    assert (EXIT_OK, EXIT_INPUT, EXIT_INCONSISTENT) == (0, 2, 3)


def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    commands = [
        line for line in fenced_block_after(text, "## Command line")
        if line.startswith("toroidal ")
    ]
    assert len(commands) >= 8
    (tmp_path / "matrix.txt").write_text(
        "\n".join(fenced_block_after(text, "**Matrix file**")) + "\n"
    )
    monkeypatch.chdir(tmp_path)
    for command in commands:
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert code == EXIT_OK, (command, err)
        if "--verify rational" in command:
            rows = [ln for ln in out.splitlines() if ln.startswith("rational oracle")]
            assert rows and all(ln.endswith(": PASS") for ln in rows), command


def test_readme_library_tour_states_its_values():
    # each commented line of the tour states the repr of its expression
    lines = fenced_block_after(README.read_text(encoding="utf-8"), "## Library quick tour")
    namespace: dict = {}
    stated = []
    for line in lines:
        code, _, comment = line.partition("#")
        if comment:
            stated.append((code.strip(), comment.strip()))
        else:
            exec(line, namespace)
    assert [code for code, _ in stated] == ["table.entries", "table.group_string(3)", "classify(A, 2)"]
    for code, value in stated:
        assert repr(eval(code, namespace)) == value, code
