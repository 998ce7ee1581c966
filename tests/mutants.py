"""Mutants of the certificates and oracles, each with the tests that must
catch it.

Every entry names a file under src/nracks, an exact snippet of it, the
replacement that breaks the code, and the test node ids that must fail
on the broken copy.  Run from the root of the repository:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The runner copies src/ into a temporary directory, first runs the named
tests on the unbroken copy (they must pass there), then applies one
replacement and runs them again in a subprocess with that copy first on
the import path, and requires every named test to fail.  A snippet that
does not occur exactly once is a failure, not a skip, so a refactor that
moves the code must move its mutant too.  It exits 1 if any mutant
survives.  It is not part of tier-1: each mutant reruns its tests.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name: (file under src/nracks, snippet, replacement, test ids that must fail)
MUTANTS = {
    "D's flags read from the class representative for every orbit": (
        "homology.py",
        "blocks = [(_degenerate_block(cols, order, M), [order], {})",
        "blocks = [(_degenerate_block(cols, orders[0], M), [order], {})",
        [
            "tests/test_orbit_blocks.py::test_d_restricted_block_by_block_is_the_restriction"
            "_of_the_whole[dihedral(6)]",
            "tests/test_orbit_blocks.py::test_the_split_complex_is_the_whole_complex[dihedral(6)]",
        ],
    ),
    "a class's factors counted once, not once per orbit": (
        "homology.py",
        "[d for orders, f, _ in found for d in f.factors if d > 1 for _ in orders]",
        "[d for orders, f, _ in found for d in f.factors if d > 1]",
        [
            "tests/test_orbit_blocks.py::test_the_split_complex_is_the_whole_complex[dihedral(6)]",
            "tests/test_orbit_blocks.py::test_the_split_complex_is_the_whole_complex[conj(D4,n=2)]",
        ],
    ),
    "the orbit-count rank comparison removed": (
        "homology.py",
        "if count != self._boundary_ranks[m]:",
        "if False:",
        [
            "tests/test_rank_theorem.py::test_a_mutant_of_the_theorem_path_raises"
            "[orbit count off by one-R]",
            "tests/test_rank_theorem.py::test_a_lost_unit_pivot_fails_the_theorem_with_no_rank"
            "_modulo_a_prime",
            "tests/test_orbit_blocks.py::test_a_class_size_off_by_one_fails_the_rank_certificate[1]",
        ],
    ),
    "the Tor term dropped from _group_from_matrices": (
        "homology.py",
        "    parts += [gcd(d, u) for u in out_factors if u > 1]\n",
        "",
        ["tests/test_homology.py::test_universal_coefficient_order_consistency"],
    ),
    "the Smith form stops after the first echelon pass": (
        "snf.py",
        "    while any(len(b) > 1 for b in basis.values()):\n",
        "    while False:\n",
        [
            "tests/test_snf.py::test_smith_form_alternates_until_diagonal[2x2]",
            "tests/test_snf.py::test_smith_form_alternates_until_diagonal[dihedral-d3]",
        ],
    ),
    "the Smith diagonal read without the gcd/lcm fold": (
        "snf.py",
        "chain = invariants_from_cyclic_orders(b[p] for p, b in basis.items())",
        "chain = tuple(sorted(b[p] for p, b in basis.items() if b[p] > 1))",
        [
            "tests/test_snf.py::test_diag_2_3_gives_1_6",
            "tests/test_snf.py::test_snf_properties",
        ],
    ),
    "the membership check skipped after the first echelon pass": (
        "snf.py",
        "basis = _certified_basis(_transpose(",
        "basis = _echelon_basis(_transpose(",
        [
            "tests/test_snf.py::test_a_corrupted_later_pass_is_caught[2x2]",
            "tests/test_snf.py::test_a_corrupted_later_pass_is_caught[dihedral-d3]",
        ],
    ),
    "enumerate's table check removed": (
        "enumeration.py",
        "    _check_table_budget(m, n)\n",
        "",
        [
            "tests/test_cli.py::test_enumerate_past_the_table_budget_is_refused_before_it"
            "_allocates",
        ],
    ),
}


def _failed(src: str, ids: list[str]) -> set[str]:
    """Run the tests against the package in src; the ids that failed or
    errored."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import nracks; print(nracks.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    if not where.startswith(src):
        raise SystemExit(f"the copy is not the package imported: {where.strip()}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    failed = set()
    for line in run.stdout.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                failed.add(line[len(prefix):].split(" - ")[0])
    if run.returncode not in (0, 1):
        failed.add(f"pytest exited {run.returncode}: {run.stdout[-2000:]}{run.stderr[-2000:]}")
    return failed


def run(name: str) -> str | None:
    """None when the mutant is caught by every test it names; otherwise
    what went wrong."""
    path, snippet, replacement, ids = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = os.path.join(src, "nracks", path)
        with open(target, encoding="utf-8") as handle:
            text = handle.read()
        if text.count(snippet) != 1:
            return f"the snippet occurs {text.count(snippet)} times in {path}"
        failed = _failed(src, ids)
        if failed:
            return f"fails unmutated: {sorted(failed)}"
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text.replace(snippet, replacement))
        survived = [i for i in ids if i not in _failed(src, ids)]
        return f"survives {survived}" if survived else None


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    faults = 0
    for name in names or MUTANTS:
        problem = run(name)
        print(f"{'ok' if problem is None else 'FAIL'}: {name}"
              + ("" if problem is None else f": {problem}"), flush=True)
        faults += problem is not None
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
