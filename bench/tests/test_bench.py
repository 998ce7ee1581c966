"""Tests of the benchmark itself: the checker, the seeded inputs, and smoke
runs of every workload at reduced size.

    python3 -m pytest bench/tests -q
"""

import collections
import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_small(workload, seed, workdir):
    jobs = inputs.build_jobs(workload, seed, str(workdir), small=True)
    return jobs, [worker.run_job(job) for job in jobs]


def run_bench(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def test_corrupted_expectations_count_as_failures(tmp_path):
    expected, goldens = worker.load_expected(), worker.load_goldens()
    jobs, results = run_small("homology-census", 5, tmp_path / "h")
    job, (code, stdout) = next(
        (j, r) for j, r in zip(jobs, results) if any(line["torsion"] for line in
                                                     check.record(j, r[0], r[1])["out"]))
    assert check.check_job(job, code, stdout, expected, goldens) == []
    wrong = copy.deepcopy(expected)
    line = next(line for line in wrong[job["key"]]["out"] if line["torsion"])
    line["torsion"][0] += 1
    assert check.check_job(job, code, stdout, wrong, goldens)

    jobs, results = run_small("enumerate", 5, tmp_path / "e")
    job, (code, stdout) = next(
        (j, r) for j, r in zip(jobs, results) if j["extra"]["filter"] == "nrack"
        and j["extra"]["arity"] == 2)
    doc = json.loads(stdout)
    doc["count_up_to_iso"] += 1
    problems = check.check_job(job, code, json.dumps(doc), expected, goldens)
    assert any("OEIS" in p for p in problems) and any("expected" in p for p in problems)


def test_false_witness_and_raising_job_fail(tmp_path):
    expected, goldens = worker.load_expected(), worker.load_goldens()
    jobs, results = run_small("verify", 5, tmp_path)
    job, (code, stdout) = next((j, r) for j, r in zip(jobs, results) if j["key"] == "check z4-4")
    assert check.check_job(job, code, stdout, expected, goldens) == []
    # The table is valid, so no witness can be a violation.
    doc = json.loads(stdout)
    doc["counterexamples"]["left_distributive"] = {"prefix": [0, 0, 0], "arguments": [0, 1, 2, 3]}
    problems = check.check_job(job, code, json.dumps(doc), expected, goldens)
    assert any("not a violation" in p for p in problems)
    assert check.check_job(job, None, "", expected, goldens) == ["the command raised"]


def test_two_seeds_give_the_same_records(tmp_path):
    expected = worker.load_expected()
    relabeled = False
    for workload in inputs.WORKLOADS:
        records = []
        docs = []
        for seed in (11, 12):
            jobs, results = run_small(workload, seed, tmp_path / f"{workload}-{seed}")
            records.append({j["key"]: check.record(j, r[0], r[1]) for j, r in zip(jobs, results)})
            docs.append({j["key"]: j["doc"] for j in jobs})
        assert records[0] == records[1]
        assert all(expected[key] == rec for key, rec in records[0].items())
        relabeled |= docs[0] != docs[1]
    # The seed really relabels the inputs (some small tables are symmetric
    # enough that both seeds give the same document).
    assert relabeled


def test_repeated_calls_keep_one_output(tmp_path):
    jobs = inputs.build_jobs("verify", 5, str(tmp_path), small=True)
    outputs = collections.Counter()
    worker.run_batch(jobs[0], 5, outputs, speed.Monitor())
    assert list(outputs.values()) == [5]


def test_monitor_samples_during_a_call_and_leaves_out_its_own_time():
    with speed.Monitor() as monitor:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * speed.TICK_S:
            pass
        end = time.perf_counter()
    inside = [t for t, _ in monitor.ticks if start <= t <= end]
    assert len(inside) >= 2 and monitor.spent > 0
    assert monitor.scale(start, end) > 0
    # Nothing ticks once the monitor is left.
    count = len(monitor.ticks)
    time.sleep(2 * speed.TICK_S)
    assert len(monitor.ticks) == count


def test_traced_time_must_be_accounted_for(tmp_path):
    jobs = inputs.build_jobs("verify", 5, str(tmp_path), small=True)
    outputs = [collections.Counter() for _ in jobs]
    recorder = spans.Recorder()
    recorder.install()
    try:
        wall, calls = worker.run_pass(jobs, outputs, recorder)
    finally:
        recorder.remove()
    recorder.metrics(wall, wall, wall - calls)
    # Time missing from the layers, or counted twice, is caught.
    for loop_s in (wall - calls - 0.05 * wall, wall - calls + 0.01):
        with pytest.raises(AssertionError):
            recorder.metrics(wall, wall, loop_s)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--small")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout.strip().splitlines()[-1])
        assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
        assert sorted(doc["metrics"]) == sorted(m["name"] for m in SPEC[kind])
        for m in SPEC[kind]:
            assert doc["metrics"][m["name"]]["unit"] == m["unit"]


def _copy_bench(dest):
    shutil.copytree(BENCH, os.path.join(dest, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def test_failed_check_makes_the_command_fail(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "tests", "golden"), tmp_path / "tests" / "golden")
    path = tmp_path / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["enumerate 2 3 nrack"]["out"]["count_total"] += 1
    path.write_text(json.dumps(expected))
    result = run_bench(str(tmp_path), "--workload", "enumerate", "--seed", "1",
                       "--seconds", "1", "--trace", "0", "--small")
    assert result.returncode == 1
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    assert doc["correct"] is False and doc["failed"] >= 1


def test_bench_alone_fails_without_a_result(tmp_path):
    _copy_bench(tmp_path)
    result = run_bench(str(tmp_path), "--workload", "enumerate", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert "correct" not in result.stdout
