import importlib
import json
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

from helpers import dihedral_nrack
from nracks import (
    BudgetExceededError,
    FiniteNRack,
    FiniteRack,
    build_z4_module_nrack,
    check_self_derivation,
    cyclic_group,
    degenerate_subcomplex,
    enumerate_nracks,
    levi_civita_nalgebra,
    rack_chain_complex,
    symmetric_group,
    validate,
    validate_rack,
)
from nracks import cli, core, snf
from nracks.cli import main
from nracks.jsonio import (
    dump_document,
    group_to_json,
    nrack_to_json,
    tensor_from_json,
    tensor_to_json,
    validation_to_json,
)

homology_module = importlib.import_module("nracks.homology")


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "nracks.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def workspace(tmp_path):
    files = {}
    files["dihedral"] = tmp_path / "dihedral.json"
    files["dihedral"].write_text(dump_document(nrack_to_json(dihedral_nrack(3))))
    files["mod2"] = tmp_path / "mod2.json"
    files["mod2"].write_text(
        dump_document({"arity": 2, "size": 2, "basepoint": None, "table": [0, 1, 1, 0]})
    )
    files["s3"] = tmp_path / "s3.json"
    files["s3"].write_text(dump_document(group_to_json(symmetric_group(3))))
    files["nambu"] = tmp_path / "nambu.json"
    files["nambu"].write_text(dump_document(tensor_to_json(levi_civita_nalgebra(4))))
    files["dir"] = tmp_path
    return files


def test_check_valid_table(workspace):
    result = run_cli("check", "--input", str(workspace["dihedral"]))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["classification"]["is_nkei"] is True
    assert doc["counterexamples"]["left_distributive"] is None


def test_check_invalid_table_exit_1_with_witness(workspace):
    result = run_cli("check", "--input", str(workspace["mod2"]))
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["counterexamples"]["left_distributive"] == {
        "prefix": [1],
        "arguments": [0, 0],
    }


def test_check_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("check", "--input", str(bad)).returncode == 2
    missing = tmp_path / "missing.json"
    assert run_cli("check", "--input", str(missing)).returncode == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"arity": 2, "size": 2, "table": [0, 1, 1]}')
    assert run_cli("check", "--input", str(wrong)).returncode == 2


def test_construct_z4_and_roundtrip(workspace):
    out = workspace["dir"] / "z4.json"
    result = run_cli("construct", "z4", "--n", "3", "--m", "4", "--output", str(out))
    assert result.returncode == 0
    check = run_cli("check", "--input", str(out))
    assert check.returncode == 0
    doc = json.loads(check.stdout)
    assert doc["classification"]["is_weak_nkei"] is True


def test_construct_gamma_equals_z4_byte_identical(workspace):
    a = workspace["dir"] / "a.json"
    b = workspace["dir"] / "b.json"
    assert run_cli("construct", "gamma", "--n", "3", "--m", "4", "--t", "1", "--s", "2",
                   "--output", str(a)).returncode == 0
    assert run_cli("construct", "z4", "--n", "3", "--m", "4", "--output", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_gamma_rejection_exit_2():
    result = run_cli("construct", "gamma", "--n", "3", "--m", "5", "--t", "3", "--s", "1")
    assert result.returncode == 2
    assert "s^2 + t*s - s" in result.stderr


def test_construct_conj_s3(workspace):
    out = workspace["dir"] / "conj.json"
    result = run_cli("construct", "conj", "--group", str(workspace["s3"]), "--n", "3",
                     "--output", str(out))
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["size"] == 6 and doc["basepoint"] == 0
    assert run_cli("check", "--input", str(out)).returncode == 0


def test_construct_lift_and_reduce_roundtrip(workspace):
    lifted = workspace["dir"] / "lifted.json"
    assert run_cli("construct", "lift", "--input", str(workspace["dihedral"]),
                   "--n", "3", "--output", str(lifted)).returncode == 0
    reduced = workspace["dir"] / "reduced.json"
    assert run_cli("construct", "reduce", "--input", str(lifted),
                   "--output", str(reduced)).returncode == 0
    doc = json.loads(reduced.read_text())
    assert doc["arity"] == 2 and doc["size"] == 9
    assert run_cli("check", "--input", str(reduced)).returncode == 0


def test_reduce_alias_matches_construct_reduce(workspace):
    a = workspace["dir"] / "ra.json"
    b = workspace["dir"] / "rb.json"
    assert run_cli("reduce", "--input", str(workspace["dihedral"]), "--output", str(a)).returncode == 0
    assert run_cli("construct", "reduce", "--input", str(workspace["dihedral"]),
                   "--output", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def _module_group_bundle(tmp_path):
    # C4 acting on C5 by doubling, with an antisymmetric ternary bracket:
    # a 20-element 3-rack.
    H = cyclic_group(4)
    V = cyclic_group(5)
    bundle = {
        "arity": 3,
        "group": group_to_json(H),
        "module": group_to_json(V),
        "action": [[(v * pow(2, k, 5)) % 5 for v in range(5)] for k in range(4)],
        "bracket": [
            ((a - b) * (b - c) * (a - c)) % 4
            for a in range(4)
            for b in range(4)
            for c in range(4)
        ],
    }
    path = tmp_path / "bundle.json"
    path.write_text(dump_document(bundle))
    return path


def test_construct_module_group(tmp_path):
    path = _module_group_bundle(tmp_path)
    out = tmp_path / "mg.json"
    result = run_cli("construct", "module-group", "--input", str(path), "--output", str(out))
    assert result.returncode == 0
    assert run_cli("check", "--input", str(out)).returncode == 0


def test_assoc_group_of_the_module_group_table(capsys, tmp_path):
    # The relator matrix is 7980 x 20; its abelianization is free on the
    # 12 orbits.
    out = tmp_path / "mg.json"
    argv = ["construct", "module-group", "--input", str(_module_group_bundle(tmp_path))]
    assert main(argv + ["--output", str(out)]) == 0
    assert main(["assoc-group", "--input", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["abelianization"] == {"free_rank": 12, "torsion": []}
    assert len(doc["presentation"]["relators"]) == 7980


def test_construct_module_group_failure_exit_1(tmp_path):
    # Parameter-valid data whose table fails the axioms: exit 1 with the
    # counterexample recorded in the report.
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    odd = [
        sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b]) % 2
        for p in perms
    ]
    f = [0, 1, 0, 0, 0, 0]
    bundle = {
        "arity": 3,
        "group": group_to_json(symmetric_group(3)),
        "module": group_to_json(cyclic_group(3)),
        "action": [[(v * (2 if odd[k] else 1)) % 3 for v in range(3)] for k in range(6)],
        "bracket": [
            1 if (f[a] + f[b] + f[c]) % 2 else 0
            for a in range(6)
            for b in range(6)
            for c in range(6)
        ],
    }
    path = tmp_path / "bad_bundle.json"
    path.write_text(dump_document(bundle))
    result = run_cli("construct", "module-group", "--input", str(path))
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["classification"]["is_nrack"] is False
    assert doc["counterexamples"]["left_distributive"] is not None
    assert doc["table"]["size"] == 18


def test_check_one_element_table(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        dump_document({"arity": 3, "size": 1, "basepoint": 0, "table": [0]})
    )
    result = run_cli("check", "--input", str(path))
    assert result.returncode == 0
    flags = json.loads(result.stdout)["classification"]
    assert all(flags.values())


@pytest.mark.parametrize("basepoint", [None, 0])
def test_check_one_element_table_does_not_grow_with_the_arity(capsys, tmp_path, basepoint):
    # At arity 10**7 the report is the one every axiom scan gives at a small
    # arity, and it costs neither a tuple as long as the arity nor a loop
    # over it.
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"arity": 10**7, "size": 1, "basepoint": basepoint, "table": [0]}))
    small = FiniteNRack(3, 1, (0,), basepoint)
    dist, dist_witness = core.check_left_distributive(small)
    bijective, bij_witness = core.check_translation_bijective(small)
    scanned = core.ValidationReport(
        core._classification(small, dist and bijective), dist_witness, bij_witness
    )
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["check", "--input", str(path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == dump_document(validation_to_json(scanned))
    assert elapsed < 1.0 and peak < 8 * 2**20


@pytest.mark.parametrize("kind", ["conj", "lift", "module-group"])
def test_construct_one_element_does_not_grow_with_the_arity(capsys, tmp_path, kind):
    # At arity 10**30 the one-element table is built without a pass per
    # argument: by conjugation in the trivial group, by lifting the
    # one-element rack, and from a bundle of trivial groups, whose bracket
    # is antisymmetric at every arity.
    trivial = group_to_json(cyclic_group(1))
    docs = {
        "conj": ("--group", trivial),
        "lift": ("--input", {"arity": 2, "size": 1, "table": [0]}),
        "module-group": ("--input", {"arity": 10**30, "group": trivial, "module": trivial,
                                     "action": [[0]], "bracket": [0]}),
    }
    option, doc = docs[kind]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["construct", kind, option, str(path), "--n", str(10**30)])
    elapsed = time.perf_counter() - start
    assert code == 0
    basepoint = None if kind == "lift" else 0
    expected = dump_document(nrack_to_json(FiniteNRack(10**30, 1, (0,), basepoint)))
    assert capsys.readouterr().out == expected
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, doc, code", [
    (["check", "--input"], {"arity": 10**30, "size": 2, "table": [0]}, 2),
    (["construct", "conj", "--n", str(10**30), "--group"], group_to_json(cyclic_group(2)), 3),
], ids=["check", "conj"])
def test_an_astronomical_arity_is_refused_without_a_traceback(capsys, tmp_path, argv, doc, code):
    # Two elements at arity 10**30: a table too short for size**arity, or
    # past the table budget, found within a few factors of the power.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main(argv + [str(path)]) == code
    err = capsys.readouterr().err
    assert "2**" + str(10**30) in err and "Traceback" not in err


def test_enumerate_at_an_astronomical_arity_is_refused_as_at_a_large_one(capsys):
    # The budget check multiplies out no more factors m than it takes to
    # pass the budget, so n = 10**30 is refused with the error of n = 10**5.
    errors = []
    for n in (10**5, 10**30):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_nracks(n, 2)
        errors.append((err.value.limit, err.value.reached, str(err.value)))
        assert main(["enumerate", "--n", str(n), "--m", "2"]) == 3
        assert capsys.readouterr() == ("", f"budget exceeded: {errors[-1][2]}\n")
    assert errors[0] == errors[1]


def test_enumerate_past_the_table_budget_is_refused_before_it_allocates():
    # 2**26 entries pass the 2,000,000-entry table budget that every
    # construct uses, and a large --budget does not lift it: refused like
    # a construct, within 512 MiB of address space and at once, where the
    # search would allocate per-prefix lists of 2**25 entries first.
    limit = 512 * 2**20
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "nracks.cli", "enumerate", "--n", "26", "--m", "2",
         "--budget", str(10**12)],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert time.perf_counter() - start < 10
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == (
        "budget exceeded: a table of 2**26 entries exceeds the 2000000-entry budget\n")
    with pytest.raises(BudgetExceededError) as err:
        enumerate_nracks(26, 2, budget=10**12)
    assert (err.value.limit, err.value.reached) == (2_000_000, 2**21)


def test_construct_conj_refuses_a_group_past_the_associativity_budget(tmp_path):
    # A Cayley table of order 600 has 360,000 entries, but its
    # associativity check takes 600**3 steps, past the 2,000,000 of the
    # table budget: refused with exit 3 before the check, which took about
    # 9 s at order 400 and would take about 30 s here.
    k = 600
    path = tmp_path / "z600.json"
    path.write_text(json.dumps(
        {"size": k, "cayley": [(a + b) % k for a in range(k) for b in range(k)], "identity": 0}))
    start = time.perf_counter()
    result = run_cli("construct", "conj", "--n", "2", "--group", str(path), timeout=20)
    assert time.perf_counter() - start < 10
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == ("budget exceeded: the associativity check of a group of order 600 "
                             "exceeds the 2000000-entry budget\n")
    with pytest.raises(BudgetExceededError) as err:
        cyclic_group(126)
    assert (err.value.limit, err.value.reached) == (2_000_000, 126**3)


@pytest.mark.parametrize("paper", [False, True], ids=["default", "paper"])
@pytest.mark.parametrize("arity", [10**5, 10**30], ids=["1e5", "1e30"])
def test_assoc_group_of_one_element_at_a_huge_arity(capsys, tmp_path, arity, paper):
    # The one relator, x_0 against x_0^n x_0^-n or its paper form, reduces
    # to the empty word: the free group on x_0, abelianized to Z.
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"arity": arity, "size": 1, "table": [0]}))
    start = time.perf_counter()
    code = main(["assoc-group", "--input", str(path)] + ["--paper-relator"] * paper)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "presentation": {"generators": 1, "relators": []},
        "abelianization": {"free_rank": 1, "torsion": []},
    }
    assert elapsed < 1.0


def test_inner_lists_prefixes_within_the_table_budget(capsys, tmp_path):
    # inner prints a prefix of arity - 1 entries: 99,999 fit the table
    # budget, and 10**30 - 1 are refused before a tuple is built.
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"arity": 10**5, "size": 1, "table": [0]}))
    assert main(["inner", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"inner_maps": [{"args": [0] * (10**5 - 1), "permutation": [0]}],
                   "orbits": [[0]]}
    path.write_text(json.dumps({"arity": 10**30, "size": 1, "table": [0]}))
    assert main(["inner", "--input", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("budget exceeded: ") and "Traceback" not in err


@pytest.mark.parametrize("degrees, top", [("1-3", 3), ("1-800", 800), ("1-40000", 40000)])
def test_homology_one_element_all_degrees(tmp_path, degrees, top):
    # Every chain rank is 1, so the column budget never trips: the build
    # and each degree's group must stay cheap in the top degree on its own,
    # with no pass over all the degrees for each one.
    path = tmp_path / "one.json"
    path.write_text(
        dump_document({"arity": 2, "size": 1, "basepoint": None, "table": [0]})
    )
    result = run_cli("homology", "--input", str(path), "--degrees", degrees, timeout=10)
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert len(lines) == top
    for line in lines:
        doc = json.loads(line)
        assert doc["free_rank"] == 1 and doc["torsion"] == []


def test_homology_dihedral_quandle(workspace):
    result = run_cli("homology", "--input", str(workspace["dihedral"]),
                     "--variant", "Q", "--degrees", "2,3")
    assert result.returncode == 0
    lines = [json.loads(line) for line in result.stdout.strip().split("\n")]
    assert lines[0] == {"coefficients": "Z", "degree": 2, "free_rank": 0,
                        "torsion": [], "variant": "Q"}
    assert lines[1] == {"coefficients": "Z", "degree": 3, "free_rank": 0,
                        "torsion": [3], "variant": "Q"}


def test_homology_degree_range_syntax(workspace):
    result = run_cli("homology", "--input", str(workspace["dihedral"]),
                     "--degrees", "1-3", "--coefficients", "Z/3")
    assert result.returncode == 0
    assert len(result.stdout.strip().split("\n")) == 3


def test_homology_with_a_large_prime_modulus_does_not_factor_it(workspace):
    # 2^61 - 1 is prime: trial division of the modulus would run for minutes.
    d = 2**61 - 1
    result = run_cli("homology", "--input", str(workspace["dihedral"]),
                     "--degrees", "1-2", "--coefficients", f"Z/{d}", timeout=10)
    assert result.returncode == 0
    for line in result.stdout.strip().split("\n"):
        doc = json.loads(line)
        assert doc["free_rank"] == 0 and doc["torsion"] == [d]


def test_homology_variant_gate_exit_1(tmp_path):
    z4 = tmp_path / "z4.json"
    assert run_cli("construct", "z4", "--n", "3", "--output", str(z4)).returncode == 0
    result = run_cli("homology", "--input", str(z4), "--variant", "Q", "--degrees", "2")
    assert result.returncode == 1
    assert "n-quandle" in result.stderr


def test_homology_budget_exit_3(workspace, tmp_path):
    conj = tmp_path / "conj.json"
    assert run_cli("construct", "conj", "--group", str(workspace["s3"]), "--n", "3",
                   "--output", str(conj)).returncode == 0
    result = run_cli("homology", "--input", str(conj), "--degrees", "2")
    assert result.returncode == 3
    assert "budget" in result.stderr


def test_huge_degree_range_is_refused_before_it_is_expanded(capsys, tmp_path):
    z4 = tmp_path / "z4.json"
    z4.write_text(dump_document(nrack_to_json(build_z4_module_nrack(3, 4))))
    tracemalloc.start()
    try:
        code = main(["homology", "--input", str(z4), "--degrees", "1-1000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err.startswith("budget exceeded")
    assert peak < 2**20


def test_cohomology_command(workspace):
    result = run_cli("cohomology", "--input", str(workspace["dihedral"]),
                     "--variant", "Q", "--degrees", "3", "--coefficients", "Z/3")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["torsion"] == [3]


def test_dump_matrices(workspace, tmp_path):
    outdir = tmp_path / "mats"
    result = run_cli("homology", "--input", str(workspace["dihedral"]),
                     "--degrees", "2", "--dump-matrices", str(outdir))
    assert result.returncode == 0
    text = (outdir / "boundary_R_2.txt").read_text()
    assert text.startswith("3 9\n")
    assert (outdir / "boundary_R_3.txt").exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("blocked", ["directory", "matrix"])
def test_unwritable_dump_exits_2_without_an_answer(capsys, workspace, tmp_path, to_file, blocked):
    if blocked == "directory":
        # A regular file where a parent of the dump directory should be.
        (tmp_path / "blocker").write_text("not a directory")
        mats = tmp_path / "blocker" / "mats"
    else:
        # A directory where the last matrix file should be.
        mats = tmp_path / "mats"
        (mats / "boundary_R_3.txt").mkdir(parents=True)
    output = tmp_path / "groups.jsonl"
    argv = ["homology", "--input", str(workspace["dihedral"]), "--degrees", "1-2",
            "--dump-matrices", str(mats)]
    if to_file:
        argv += ["--output", str(output)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert not output.exists()
    assert err.startswith("input error")
    assert "Traceback" not in err


def test_assoc_group_command(tmp_path):
    z4 = tmp_path / "z4.json"
    assert run_cli("construct", "z4", "--n", "3", "--output", str(z4)).returncode == 0
    result = run_cli("assoc-group", "--input", str(z4))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["presentation"]["generators"] == 4
    assert doc["abelianization"] == {"free_rank": 2, "torsion": []}
    flagged = run_cli("assoc-group", "--input", str(z4), "--paper-relator")
    assert flagged.returncode == 0
    assert json.loads(flagged.stdout)["presentation"]["relators"] != doc["presentation"]["relators"]


def test_assoc_group_invalid_table_exit_1(workspace):
    assert run_cli("assoc-group", "--input", str(workspace["mod2"])).returncode == 1


MOD2 = FiniteNRack(2, 2, (0, 1, 1, 0))
Z4 = build_z4_module_nrack(3, 4)
# Every command that takes a table, on one that fails the axioms it needs:
# mod2 is not left distributive, and z4 n=3 is a 3-rack but not a 3-quandle.
REFUSALS = (
    [(MOD2, ["construct", "lift", "--n", "3"]), (MOD2, ["construct", "reduce"]),
     (MOD2, ["reduce"]), (MOD2, ["assoc-group"]), (MOD2, ["inner"])]
    + [(MOD2, [c, "--variant", v, "--degrees", "1-2"])
       for c in ("homology", "cohomology") for v in "RDQ"]
    + [(Z4, [c, "--variant", v, "--degrees", "1-2"])
       for c in ("homology", "cohomology") for v in "DQ"]
)


@pytest.mark.parametrize(
    "table, argv", REFUSALS,
    ids=[("mod2 " if X is MOD2 else "z4 ") + " ".join(argv) for X, argv in REFUSALS],
)
def test_a_table_that_fails_the_axioms_is_answered_by_its_report(
    capsys, tmp_path, table, argv
):
    path = tmp_path / "table.json"
    path.write_text(dump_document(nrack_to_json(table)))
    report = dump_document(validation_to_json(validate(table)))
    argv = argv + ["--input", str(path)]
    result = run_cli(*argv)
    assert (result.returncode, result.stdout) == (1, report)
    assert result.stderr.startswith("axiom failure: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert "Traceback" not in result.stderr
    output = tmp_path / "answer.json"
    assert main(argv + ["--output", str(output)]) == 1
    out, err = capsys.readouterr()
    assert (out, output.read_text(), err) == ("", report, result.stderr)


def test_leibniz_nambu(workspace):
    result = run_cli("leibniz", "--input", str(workspace["nambu"]))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["fundamental_identity"] and doc["filippov"] and doc["self_derivation"]
    assert doc["multilinearity_probe"] is True and doc["witness"] is None


def test_leibniz_mutant_exit_1_with_witness(workspace, tmp_path):
    doc = json.loads(workspace["nambu"].read_text())
    for entry in doc["constants"]:
        if entry["args"] == [0, 1, 2]:
            entry["value"] = "2"
    path = tmp_path / "mutant.json"
    path.write_text(dump_document(doc))
    result = run_cli("leibniz", "--input", str(path))
    assert result.returncode == 1
    out = json.loads(result.stdout)
    assert out["fundamental_identity"] is False
    assert out["witness"] is not None
    assert out["self_derivation"] is False


def test_leibniz_operator_file(workspace, tmp_path):
    op = tmp_path / "op.json"
    op.write_text(dump_document({"dimension": 4, "matrix": [["0"] * 4 for _ in range(4)]}))
    result = run_cli("leibniz", "--input", str(workspace["nambu"]), "--operator", str(op))
    assert result.returncode == 0
    assert json.loads(result.stdout)["derivation"] is True
    bad = tmp_path / "bad_op.json"
    bad.write_text(dump_document({"dimension": 3, "matrix": [["0"] * 3 for _ in range(3)]}))
    assert run_cli("leibniz", "--input", str(workspace["nambu"]),
                   "--operator", str(bad)).returncode == 2


def test_leibniz_levi_civita_d5(tmp_path):
    # The 4-ary Levi-Civita bracket on R^5 is a Filippov bracket, and the
    # antisymmetric matrices, so(5), act on it by derivations.
    path = tmp_path / "lc5.json"
    path.write_text(dump_document(tensor_to_json(levi_civita_nalgebra(5))))
    op = tmp_path / "so5.json"
    block = {(0, 1): 1, (0, 4): 2, (1, 3): -3, (2, 3): 1, (2, 4): 5}
    matrix = [["0"] * 5 for _ in range(5)]
    for (i, j), v in block.items():
        matrix[i][j], matrix[j][i] = str(v), str(-v)
    op.write_text(dump_document({"dimension": 5, "matrix": matrix}))
    result = run_cli("leibniz", "--input", str(path), "--operator", str(op))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["fundamental_identity"] and doc["filippov"] and doc["self_derivation"]
    assert doc["derivation"] is True and doc["witness"] is None
    matrix[0][0] = "1"
    op.write_text(dump_document({"dimension": 5, "matrix": matrix}))
    result = run_cli("leibniz", "--input", str(path), "--operator", str(op))
    assert json.loads(result.stdout)["derivation"] is False


def test_leibniz_levi_civita_d5_output_is_pinned(tmp_path):
    # The same run as the console-script step of CI; the whole stdout is
    # pinned, and the subprocess must finish in 10 s.
    path = tmp_path / "lc5.json"
    path.write_text(dump_document(tensor_to_json(levi_civita_nalgebra(5))))
    result = run_cli("leibniz", "--input", str(path), timeout=10)
    assert result.returncode == 0
    assert result.stdout == (
        "{\n"
        '  "derivation": null,\n'
        '  "filippov": true,\n'
        '  "fundamental_identity": true,\n'
        '  "multilinearity_probe": true,\n'
        '  "seed": 0,\n'
        '  "self_derivation": true,\n'
        '  "witness": null\n'
        "}\n"
    )


def test_leibniz_zero_tensor(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(dump_document({"dimension": 3, "arity": 3, "constants": []}))
    assert run_cli("leibniz", "--input", str(path)).returncode == 0


@pytest.mark.parametrize("dimension, arity", [(100000, 2), (1, 200000)])
def test_a_multilinearity_probe_past_its_budget_exits_3(tmp_path, dimension, arity):
    # Each 50-byte tensor asks for millions of random draws; the probe
    # refuses them before drawing one.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": dimension, "arity": arity, "constants": []}))
    start = time.perf_counter()
    result = run_cli("leibniz", "--input", str(path), timeout=10)
    assert time.perf_counter() - start < 2
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("budget exceeded: multilinearity probe needs ")
    assert "random draws" in result.stderr


WIDE_CONSTANT = {"args": [0, 1], "out": 0, "value": "1"}


@pytest.mark.parametrize("doc, code, message", [
    # One structure vector in dimension 10**9 is 8 GB of pointers.
    ({"dimension": 10**9, "arity": 2, "constants": [WIDE_CONSTANT]}, 3,
     "budget exceeded: multilinearity probe needs 80000000000 random draws, over the "
     "100000-draw budget"),
    # A thousand vectors in dimension 10**5 are 0.8 GB, and copies of them.
    ({"dimension": 10**5, "arity": 2,
      "constants": [{"args": [i, 0], "out": 0, "value": "1"} for i in range(1000)]}, 3,
     "budget exceeded: multilinearity probe needs 8000000 random draws, over the "
     "100000-draw budget"),
    # Malformed and wide: refused as malformed, with no vector built either.
    ({"dimension": 10**9, "arity": 2,
      "constants": [WIDE_CONSTANT, {"args": [0], "out": 0, "value": "1"}]}, 2,
     "input error: argument tuple (0,) out of range"),
    ({"dimension": 10**9, "arity": 2,
      "constants": [{"args": [0, 1], "out": 10**9, "value": "1"}]}, 2,
     "input error: output index 1000000000 out of range"),
], ids=["one-vector", "thousand-vectors", "malformed", "malformed-output"])
def test_a_tensor_too_wide_to_hold_is_refused_before_it_is_built(tmp_path, doc, code, message):
    # The loader checks the tensor's shape and the multilinearity probe's
    # budget before it builds a structure vector, so the command answers
    # within 512 MiB of address space, and at once.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    limit = 512 * 2**20
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "nracks.cli", "leibniz", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert time.perf_counter() - start < 5
    assert result.returncode == code, result.stderr
    assert result.stdout == ""
    assert result.stderr == message + "\n"


@pytest.mark.parametrize("value, where", [
    ("1" + "0" * 5000, "tensor"),
    ("1e100000", "tensor"),
    ("1e1000000000", "tensor"),
    ("-1e-1000000000", "tensor"),
    ("1e1_000_000_000", "tensor"),
    ("1e1000000000", "operator"),
], ids=["5001-digits", "exponent-1e5", "exponent-1e9", "negative-exponent",
        "underscored-exponent", "operator-exponent-1e9"])
def test_a_rational_too_long_to_write_out_is_refused_at_load(tmp_path, value, where):
    # Past sys.get_int_max_str_digits() digits, written out or as a decimal
    # exponent: Fraction would form 10**exponent first, which takes hours
    # for an exponent of 10**9.
    tensor = {"dimension": 2, "arity": 2, "constants": []}
    operator = {"dimension": 2, "matrix": [["0", "0"], ["0", "0"]]}
    if where == "tensor":
        tensor["constants"] = [{"args": [0, 1], "out": 0, "value": value}]
    else:
        operator["matrix"][0][1] = value
    (tmp_path / "tensor.json").write_text(json.dumps(tensor))
    (tmp_path / "operator.json").write_text(json.dumps(operator))
    start = time.perf_counter()
    result = run_cli("leibniz", "--input", str(tmp_path / "tensor.json"),
                     "--operator", str(tmp_path / "operator.json"), timeout=10)
    assert time.perf_counter() - start < 5
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"input error: bad rational value {value!r}: ")


# The limit Python puts on the digits of an integer it writes out; 0 sets
# none, and Python before 3.10.7 has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer digits")


@needs_digit_limit
def test_a_rational_of_more_digits_than_the_limit_is_refused_at_load(capsys, tmp_path):
    # 10**(limit - 1) has limit digits and loads; 10**limit, as numerator or
    # as denominator, has one more, though its exponent is within the limit.
    def tensor(value):
        return {"dimension": 2, "arity": 2,
                "constants": [{"args": [0, 1], "out": 0, "value": value}]}

    assert tensor_from_json(tensor(f"1e{DIGIT_LIMIT - 1}")).dimension == 2
    path = tmp_path / "tensor.json"
    for value in (f"1e{DIGIT_LIMIT}", f"-1e-{DIGIT_LIMIT}", f"12.5e{DIGIT_LIMIT - 1}"):
        path.write_text(json.dumps(tensor(value)))
        assert main(["leibniz", "--input", str(path)]) == 2, value
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"input error: bad rational value {value!r}: "), err


@needs_digit_limit
def test_a_witness_too_long_to_write_out_is_an_input_error_that_names_it(capsys, tmp_path):
    # [e0, e1] = 10**k e0 and [e1, e0] = e0 with k past half the limit: the
    # value loads, and the sides of the first witness, prefix (0) and
    # arguments (1, 1), hold its square.
    value = f"1e{DIGIT_LIMIT // 2 + 50}"
    doc = {"dimension": 2, "arity": 2, "constants": [
        {"args": [0, 1], "out": 0, "value": value},
        {"args": [1, 0], "out": 0, "value": "1"},
    ]}
    tensor_from_json(doc)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(doc))
    assert main(["leibniz", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "input error: witness at prefix [0], arguments [1, 1]: a side cannot be written out: "
    ), err


def test_enumerate_command():
    result = run_cli("enumerate", "--n", "2", "--m", "2")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["count_total"] == 2 and doc["count_up_to_iso"] == 2
    assert doc["representatives"] == [[0, 1, 0, 1], [1, 0, 1, 0]]


def test_enumerate_budget_exit_3():
    result = run_cli("enumerate", "--n", "2", "--m", "3", "--budget", "5")
    assert result.returncode == 3
    assert result.stdout == ""


def test_inner_command(tmp_path):
    z4 = tmp_path / "z4.json"
    assert run_cli("construct", "z4", "--n", "3", "--output", str(z4)).returncode == 0
    result = run_cli("inner", "--input", str(z4))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["orbits"] == [[0, 2], [1, 3]]
    assert doc["inner_maps"][0] == {"args": [0, 0], "permutation": [0, 1, 2, 3]}
    assert len(doc["inner_maps"]) == 16


def test_repeated_runs_byte_identical(workspace):
    for args in (
        ("check", "--input", str(workspace["dihedral"])),
        ("homology", "--input", str(workspace["dihedral"]), "--variant", "Q",
         "--degrees", "1-3", "--coefficients", "Z/3"),
        ("assoc-group", "--input", str(workspace["dihedral"])),
        ("leibniz", "--input", str(workspace["nambu"])),
        ("enumerate", "--n", "2", "--m", "3"),
        ("inner", "--input", str(workspace["dihedral"])),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def _main_in_process(argv, capsys):
    """(exit code, stdout) of one main() call; an argparse error exits 2."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_one_process_runs_many_commands_like_separate_processes(workspace, tmp_path, capsys):
    # main() reuses one parser per process: commands that share options
    # (the reduce alias's default kind, --seed, --input) and argparse errors
    # in between must leave no trace on the next parse.
    d, nambu = str(workspace["dihedral"]), str(workspace["nambu"])
    z4 = tmp_path / "z4.json"
    z4.write_text(dump_document(nrack_to_json(build_z4_module_nrack(3, 4))))
    commands = [
        ("check", "--input", d),
        ("reduce", "--input", str(z4)),
        ("construct", "z4", "--n", "3", "--m", "4"),
        ("leibniz", "--input", nambu, "--seed", "5"),
        ("homology", "--input", d, "--variant", "Q", "--degrees", "1-2"),
        ("homology", "--input", d),  # --degrees missing: exit 2
        ("leibniz", "--input", nambu),
        ("enumerate", "--n", "2", "--m", "3", "--filter", "n-quandle"),
        ("leibniz", "--input", nambu, "--seed", "x"),  # not an int: exit 2
        ("inner", "--input", d),
        ("construct", "reduce", "--input", str(z4)),
    ]
    expected = {}
    for argv in commands:
        result = run_cli(*argv)
        expected[argv] = (result.returncode, result.stdout)
    assert sum(code == 2 for code, _ in expected.values()) == 2
    for order in (commands, commands[::-1]):
        for argv in order:
            assert _main_in_process(argv, capsys) == expected[argv], argv


def test_seed_is_echoed(workspace):
    result = run_cli("leibniz", "--input", str(workspace["nambu"]), "--seed", "7")
    assert json.loads(result.stdout)["seed"] == 7


def test_bool_or_string_where_an_int_belongs_is_an_input_error(tmp_path):
    table = tmp_path / "bool_table.json"
    table.write_text(json.dumps({"arity": 2, "size": True, "table": [False]}))
    tensor = tmp_path / "string_args.json"
    tensor.write_text(json.dumps({
        "dimension": 2, "arity": 2,
        "constants": [{"args": ["a", 0], "out": 0, "value": "1"}],
    }))
    for args in (("check", "--input", str(table)), ("leibniz", "--input", str(tensor))):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert result.stderr.startswith("input error"), result.stderr
        assert result.stdout == ""


# Work done per command, counted in-process by replacing the function in
# every nracks module that binds it.


def _count_calls(monkeypatch, module_name, attr):
    original = getattr(importlib.import_module(module_name), attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nracks" and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, counting)
    return calls


def _small_module_group_bundle(tmp_path):
    # C2 acting on C3, trivial bracket: a 6-element 3-rack.
    path = tmp_path / "small_bundle.json"
    path.write_text(dump_document({
        "arity": 3,
        "group": group_to_json(cyclic_group(2)),
        "module": group_to_json(cyclic_group(3)),
        "action": [[0, 1, 2], [0, 2, 1]],
        "bracket": [0] * 8,
    }))
    return path


@pytest.mark.parametrize(
    "argv, code, scans",
    [
        (["check", "--input", "dihedral"], 0, 1),
        (["check", "--input", "mod2"], 1, 1),
        (["inner", "--input", "dihedral"], 0, 1),
        (["assoc-group", "--input", "dihedral"], 0, 1),
        (["construct", "module-group", "--input", "bundle"], 0, 1),
        # The input alone: the reduced rack is a rack by theorem, and the
        # quandle complex is built on it like the rack complex.
        (["homology", "--input", "dihedral", "--variant", "R", "--degrees", "1-2"], 0, 1),
        (["homology", "--input", "dihedral", "--variant", "Q", "--degrees", "1-2"], 0, 1),
        (["homology", "--input", "mod2", "--degrees", "1-2"], 1, 1),
        # Refusals: the input alone, once, in every command that needs an
        # n-rack or an n-quandle.
        (["construct", "lift", "--n", "3", "--input", "mod2"], 1, 1),
        (["construct", "reduce", "--input", "mod2"], 1, 1),
        (["reduce", "--input", "mod2"], 1, 1),
        (["assoc-group", "--input", "mod2"], 1, 1),
        (["inner", "--input", "mod2"], 1, 1),
        (["cohomology", "--input", "mod2", "--variant", "Q", "--degrees", "1-2"], 1, 1),
        (["homology", "--input", "mod2", "--variant", "D", "--degrees", "1-2"], 1, 1),
        (["homology", "--input", "z4", "--variant", "D", "--degrees", "1-2"], 1, 1),
        (["homology", "--input", "z4", "--variant", "Q", "--degrees", "1-2"], 1, 1),
        # The input, then the reduced rack, which the CLI validates before
        # printing it.
        (["construct", "reduce", "--input", "z4"], 0, 2),
        (["reduce", "--input", "z4"], 0, 2),
    ],
)
def test_each_table_is_scanned_for_distributivity_once(
    monkeypatch, capsys, workspace, tmp_path, argv, code, scans
):
    files = {"bundle": _small_module_group_bundle(tmp_path), **workspace}
    files["z4"] = tmp_path / "z4.json"
    files["z4"].write_text(dump_document(nrack_to_json(build_z4_module_nrack(3, 4))))
    argv = [str(files[a]) if a in ("dihedral", "mod2", "bundle", "z4") else a for a in argv]
    calls = _count_calls(monkeypatch, "nracks.core", "check_left_distributive")
    assert main(argv) == code
    capsys.readouterr()
    assert len(calls) == scans


@pytest.mark.parametrize("table", [MOD2, Z4], ids=["mod2", "z4"])
def test_variant_d_refuses_a_table_before_building_the_rack_complex(
    monkeypatch, capsys, tmp_path, table
):
    path = tmp_path / "table.json"
    path.write_text(dump_document(nrack_to_json(table)))
    calls = _count_calls(monkeypatch, "nracks.homology", "_boundary_columns")
    assert main(["homology", "--input", str(path), "--variant", "D", "--degrees", "1-2"]) == 1
    capsys.readouterr()
    assert calls == []


def test_a_rack_is_its_own_arity_two_nrack():
    Q = FiniteRack(3, tuple((2 * x - y) % 3 for x in range(3) for y in range(3)))
    assert isinstance(Q, FiniteNRack) and Q.arity == 2
    assert validate_rack(Q) is validate(Q)


def test_degenerate_subcomplex_reads_the_reduced_rack_of_its_complex(monkeypatch):
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 3)
    counted = [
        _count_calls(monkeypatch, module, attr)
        for module, attr in (
            ("nracks.homology", "reduced_rack_table"),
            ("nracks.constructions", "reduce_nrack_to_rack"),
            ("nracks.core", "check_left_distributive"),
        )
    ]
    D = degenerate_subcomplex(R, C)
    assert counted == [[], [], []]
    assert D.rack is C.rack


@pytest.mark.parametrize("command", ["homology", "cohomology"])
def test_each_boundary_map_is_factored_once(monkeypatch, capsys, workspace, command):
    calls = _count_calls(monkeypatch, "nracks.homology", "certified_factors")
    argv = [command, "--input", str(workspace["dihedral"]), "--degrees", "1-3"]
    assert main(argv) == 0
    capsys.readouterr()
    # --degrees 1-3 builds d_1 .. d_4; each is factored once, on its nonzero
    # rows, the columns of the coboundary, over column indices below 3^k
    # (the last, the constant k-tuple, is a zero column of d_k).  d_k has
    # 3^(k-1) rows, none of them zero for k >= 2, and d_1 = 0 has none.
    # The elimination leaves out one row per pivot of d_{k-1}: ranks 0, 2
    # and 6 for k = 2, 3, 4, as H_1 = H_2 = Z with no torsion.  So it gets
    # 3 - 0, 9 - 2 and 27 - 6 rows.
    shapes = sorted(
        tuple((len(cols), max((i for col in cols for i in col), default=-1)) for cols in args)
        for args in calls
    )
    assert shapes == [((0, -1),), ((3, 7),), ((7, 25),), ((21, 79),)]


@pytest.mark.parametrize("command", ["homology", "cohomology"])
def test_a_split_complex_is_factored_once_per_class(monkeypatch, capsys, tmp_path, command):
    calls = _count_calls(monkeypatch, "nracks.homology", "certified_factors")
    path = tmp_path / "z4.json"
    path.write_text(dump_document(nrack_to_json(build_z4_module_nrack(3, 4))))
    assert main([command, "--input", str(path), "--degrees", "1-2"]) == 0
    capsys.readouterr()
    # z4 n=3 has 8 orbits of 2, all isomorphic: one block is built and
    # factored, one call per map d_1 .. d_3, over its 2, 32 and 512 chains
    # in degrees 1-3, in block-local positions.  Both of d_2's rows are
    # nonzero, and its rank in the block is 1, an eighth of
    # s_2 = 16 - 8, so d_3 gets 32 - 1 rows.
    shapes = sorted(
        tuple((len(cols), max((i for col in cols for i in col), default=-1)) for cols in args)
        for args in calls
    )
    assert shapes == [((0, -1),), ((2, 30),), ((31, 510),)]


@pytest.mark.parametrize(
    "argv",
    [["homology", "--input", "dihedral", "--degrees", "1-2"],
     ["assoc-group", "--input", "dihedral"]],
)
def test_failed_certificate_exits_4_without_an_answer(monkeypatch, capsys, workspace, argv):
    if argv[0] == "homology":
        # Homology ranks its maps by the orbit count: one orbit too many
        # gives d_2 a rank its factors do not have.
        orbits = homology_module.orbits
        monkeypatch.setattr(homology_module, "orbits", lambda R: orbits(R) + [[]])
    else:
        # The abelianization ranks its relators modulo a prime: more kept
        # rows than columns is a rank no matrix has.
        monkeypatch.setattr(
            snf, "_rank_mod_p", lambda columns, p=snf.CERTIFICATE_PRIME: range(len(columns) + 1)
        )
    argv = [str(workspace[a]) if a == "dihedral" else a for a in argv]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: rank certificate failed")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spelling",
    ["Z/0", "Z/1", "Z/+4", "Z/ 4", "Z/\u0664", "Z/", "Z/-2", " Z", "Z/4 ", "z/4", "Q", "Z/02"],
)
def test_malformed_coefficients_exit_2_without_an_answer(capsys, workspace, spelling):
    argv = ["homology", "--input", str(workspace["dihedral"]), "--degrees", "1-2",
            "--coefficients", spelling]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: cannot parse coefficient group {spelling!r}")


@pytest.mark.parametrize(
    "spelling", ["1_0", "\u0661-\u0663", "1..\uff13", "+2", "-2", "1-", "..3", "1-2-3", "1.5", ""]
)
def test_malformed_degrees_exit_2_without_an_answer(capsys, workspace, spelling):
    argv = ["homology", "--input", str(workspace["dihedral"]), "--degrees", spelling]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: cannot parse degree specification {spelling!r}")


@pytest.mark.parametrize(
    "spelling, degrees", [("2", [2]), ("1,3", [1, 3]), ("1-3", [1, 2, 3]), ("1..3", [1, 2, 3]),
                          (" 1 , 2..3 ", [1, 2, 3])]
)
def test_documented_degree_spellings_are_read(capsys, workspace, spelling, degrees):
    argv = ["homology", "--input", str(workspace["dihedral"]), "--degrees", spelling]
    assert main(argv) == 0
    assert [json.loads(line)["degree"] for line in capsys.readouterr().out.splitlines()] == degrees


@pytest.mark.parametrize("d", [2, 4, 6])
def test_cyclic_coefficients_are_read_as_given(capsys, workspace, d):
    argv = ["homology", "--input", str(workspace["dihedral"]), "--degrees", "1-2",
            "--coefficients", f"Z/{d}"]
    assert main(argv) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        {"coefficients": f"Z/{d}", "degree": k, "free_rank": 0, "torsion": [d], "variant": "R"}
        for k in (1, 2)
    ]


def test_a_boundary_that_does_not_square_to_zero_exits_4(monkeypatch, capsys, workspace):
    # x o y = x + y mod 3 permutes each row but is not left distributive,
    # so the complex built on it fails its d.d = 0 check.
    not_a_rack = FiniteRack(3, tuple((x + y) % 3 for x in range(3) for y in range(3)))
    monkeypatch.setattr(
        importlib.import_module("nracks.homology"), "reduce_nrack_to_rack", lambda X: not_a_rack
    )
    assert main(["homology", "--input", str(workspace["dihedral"]), "--degrees", "1-2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: boundary does not square to zero\n"


@pytest.mark.parametrize(
    "table, message",
    [
        # x o y = x + y mod 3 permutes each row, but 1 o 1 = 2: the
        # degenerate tuple (1, 1) has a non-degenerate boundary.
        ([(x + y) % 3 for x in range(3) for y in range(3)],
         "degenerate basis not closed under the boundary in degree 2"),
        # Idempotent bijective rows, so D is closed, but not left
        # distributive: caught by d.d = 0 on Q itself.
        ([0, 2, 1, 2, 1, 0, 0, 1, 2], "boundary does not square to zero"),
    ],
    ids=["not-idempotent", "not-distributive"],
)
def test_a_quandle_complex_on_a_faulty_reduced_rack_exits_4(
    monkeypatch, capsys, workspace, table, message
):
    faulty = FiniteRack(3, tuple(table))
    monkeypatch.setattr(
        importlib.import_module("nracks.homology"), "reduce_nrack_to_rack", lambda X: faulty
    )
    argv = ["homology", "--input", str(workspace["dihedral"]), "--variant", "Q",
            "--degrees", "1-3"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_variant_d_checks_the_quandle_identity_by_closure(monkeypatch, capsys, workspace):
    # x o y = x + y mod 3 has 1 o 1 = 2: the boundary (1) - (2) of the
    # degenerate (1, 1) leaves D, which is empty in degree 1.  Degree 2 is
    # the top, so the rack complex passes its own d.d = 0 check.
    faulty = FiniteRack(3, tuple((x + y) % 3 for x in range(3) for y in range(3)))
    monkeypatch.setattr(
        importlib.import_module("nracks.homology"), "reduce_nrack_to_rack", lambda X: faulty
    )
    argv = ["homology", "--input", str(workspace["dihedral"]), "--variant", "D",
            "--degrees", "1"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: degenerate basis not closed under the boundary in degree 2\n"


def test_the_quandle_complex_is_built_without_the_rack_complex(monkeypatch, capsys, workspace):
    counted = [
        _count_calls(monkeypatch, "nracks.homology", name)
        for name in ("degenerate_subcomplex", "quandle_quotient_complex")
    ]
    argv = ["homology", "--input", str(workspace["dihedral"]), "--variant", "Q",
            "--degrees", "1-3"]
    assert main(argv) == 0
    capsys.readouterr()
    assert counted == [[], []]
    # The counters do see variant D, which takes the degenerate columns of R.
    argv[argv.index("Q")] = "D"
    assert main(argv) == 0
    capsys.readouterr()
    assert [len(calls) for calls in counted] == [1, 0]


@pytest.mark.parametrize(
    "target, error",
    [
        ("enumerate_nracks", RecursionError("maximum recursion depth exceeded")),
        ("enumerate_nracks", MemoryError()),
        # A failed closure check of D or Q is a failed certificate.
        ("rack_chain_complex",
         AssertionError("degenerate basis not closed under the boundary in degree 2")),
    ],
    ids=["recursion", "memory", "subcomplex"],
)
def test_internal_failures_exit_4_without_a_traceback(
    monkeypatch, capsys, workspace, target, error
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    if target == "enumerate_nracks":
        argv = ["enumerate", "--n", "2", "--m", "3"]
    else:
        # dihedral(3) passes the n-quandle gate, so the subcomplex is ours.
        argv = ["homology", "--input", str(workspace["dihedral"]), "--variant", "Q",
                "--degrees", "1"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {str(error) or type(error).__name__}\n"


def test_leibniz_self_derivation_is_the_fundamental_identity_verdict(
    monkeypatch, capsys, workspace, tmp_path
):
    doc = json.loads(workspace["nambu"].read_text())
    for entry in doc["constants"]:
        if entry["args"] == [0, 1, 2]:
            entry["value"] = "2"
    mutant = tmp_path / "mutant.json"
    mutant.write_text(dump_document(doc))
    cases = []
    for path, code in ((workspace["nambu"], 0), (mutant, 1)):
        L = tensor_from_json(json.loads(path.read_text()))
        cases.append((path, code, check_self_derivation(L)))
    calls = _count_calls(monkeypatch, "nracks.leibniz", "check_self_derivation")
    for path, code, reference in cases:
        assert main(["leibniz", "--input", str(path)]) == code
        out = json.loads(capsys.readouterr().out)
        assert out["self_derivation"] is reference is out["fundamental_identity"]
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--n", "2", "--m", "4", "--filter", f]
     for f in ("nrack", "weak-n-quandle", "n-quandle", "n-kei")]
    + [["enumerate", "--n", "3", "--m", "3"]],
)
def test_enumeration_classifies_each_representative_once(monkeypatch, capsys, argv):
    # The only classification of a representative is the search itself: it
    # emits only lex-least tables, so no isomorphism test is needed, and
    # every table it accepts has passed the axioms and the filter row by
    # row, so none is classified, validated or scanned again.
    counted = [
        _count_calls(monkeypatch, "nracks.core", attr)
        for attr in ("find_isomorphism", "translation_cycle_types", "classify", "validate",
                     "check_left_distributive")
    ]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count_up_to_iso"] == len(doc["representatives"]) > 0
    assert counted == [[], [], [], [], []]
