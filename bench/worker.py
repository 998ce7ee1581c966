"""One workload in a fresh interpreter.

Started by run.py.  Set-up is everything before the "ready" line: start the
interpreter, import nracks and nracks.cli, and generate and write the
seeded inputs.  The parent then writes "go" (run the workload) or closes
stdin (a set-up probe: exit at once).

The workload is a closed loop with one client: each job is one CLI command,
run in-process through nracks.cli.main(argv) with stdout and stderr
captured in memory, and the next job starts when the previous one returns.
The first pass over the job list always completes.  After it, a job
starts only if its previous time still fits in --seconds, short jobs run
in batches (BATCH_S), and the jobs go in rounds: a job with fewer
attempts goes first, the longest first among equals.  Each attempt is
scaled by the reference kernel samples that a speed.Monitor takes during
and around it.
With --trace 1 the worker instead runs one untraced, one traced and one
more untraced pass, unscaled.  The worker keeps one copy of each distinct
output per job, with its count, and checks them after the timed region.
The last stdout line is the result.
"""

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import nracks.cli  # noqa: E402  (set-up cost: part of setup_s)

if not os.path.abspath(nracks.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"nracks was imported from {nracks.__file__}, not from this checkout's src/")

import check  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from spans import Recorder  # noqa: E402

# After the first pass, a job shorter than this runs back to back until the
# batch lasts about this long, and the batch median is one attempt.
BATCH_S = 0.2


def run_job(job):
    """One CLI call; returns (exit code, or None if it raised; stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nracks.cli.main(job["argv"])
    except (Exception, SystemExit):  # a crash or an argparse exit is a failed job
        code = None
    return code, out.getvalue()


def run_batch(job, reps, outputs, monitor):
    """reps back-to-back calls; returns the median seconds per call, each
    call less the time the monitor's kernel samples took during it.  The
    median keeps a burst of a slow machine within the batch out.  Each
    output is counted in outputs, a Counter of (exit code, stdout), outside
    the timed calls: the outputs of a job are deterministic, so the
    benchmark keeps one copy of each, however many calls fit in the run."""
    seconds = []
    for _ in range(reps):
        paused = monitor.spent
        start = time.perf_counter()
        out = run_job(job)
        seconds.append(time.perf_counter() - start - (monitor.spent - paused))
        outputs[out] += 1
    return statistics.median(seconds)


def run_pass(jobs, outputs, recorder=None):
    """One pass over the jobs, unscaled.  Returns (its wall time, the time
    spent inside run_job as the loop's own clock measured it)."""
    idle = speed.Monitor()
    calls = 0.0
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = i
        calls += run_batch(job, 1, outputs[i], idle)
    return time.perf_counter() - start, calls


def run_loop(jobs, seconds):
    """Closed loop for --seconds.  Returns per-job lists of attempts
    (scaled seconds per call, seconds per call) and per-job Counters of
    outputs; see speed.py for the scaling."""
    attempts = [[] for _ in jobs]  # (start, end, seconds per call)
    outputs = [collections.Counter() for _ in jobs]
    with speed.Monitor() as monitor:

        def attempt(i, reps):
            start = time.perf_counter()
            raw = run_batch(jobs[i], reps, outputs[i], monitor)
            attempts[i].append((start, time.perf_counter(), raw))

        start = time.perf_counter()
        for i in range(len(jobs)):
            attempt(i, 1)
        deadline = start + seconds
        spent = [a[0][2] for a in attempts]
        while True:
            # Among the jobs whose last time still fits before the deadline,
            # one with the fewest attempts goes first, and among those the
            # one with the most measured time so far.  So every job gets
            # about as many attempts, spread over the run, and the long jobs,
            # which set wall_s and job_max_s, start each round while they
            # still fit; short jobs fill the time the long ones leave.
            now = time.perf_counter()
            reps = [max(1, round(BATCH_S / a[-1][2])) for a in attempts]
            fits = [i for i, a in enumerate(attempts) if now + reps[i] * a[-1][2] <= deadline]
            if not fits:
                break
            i = min(fits, key=lambda i: (len(attempts[i]), -spent[i]))
            attempt(i, reps[i])
            spent[i] += attempts[i][-1][2] * reps[i]
    times = [[(raw * monitor.scale(start, end), raw) for start, end, raw in a] for a in attempts]
    return times, outputs


def load_goldens():
    golden = os.path.join(ROOT, "tests", "golden")
    with open(os.path.join(golden, "homology_tables.json"), encoding="utf-8") as handle:
        homology = json.load(handle)
    with open(os.path.join(golden, "enumeration_counts.json"), encoding="utf-8") as handle:
        enumeration = json.load(handle)
    return {"homology": homology, "enumeration": enumeration}


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_results(jobs, outputs):
    """(attempted, failed, problems) over every call of every job; each
    distinct output is checked once and counts as often as it occurred."""
    expected, goldens = load_expected(), load_goldens()
    attempted = failed = 0
    problems = []
    for job, counter in zip(jobs, outputs):
        for (code, stdout), count in counter.items():
            attempted += count
            found = check.check_job(job, code, stdout, expected, goldens)
            if found:
                failed += count
                problems.append(f"{job['key']} ({count} calls): {'; '.join(found)}")
    return attempted, failed, problems


def end_to_end(jobs, times, outputs):
    """The end-to-end metrics from per-job medians over attempts."""
    medians = [statistics.median(a[0] for a in attempts) for attempts in times]
    raw = [statistics.median(a[1] for a in attempts) for attempts in times]
    return {
        "wall_s": sum(medians),
        "job_p50_s": statistics.median(medians),
        "job_max_s": max(medians),
        "raw_wall_s": sum(raw),
        "raw_job_p50_s": statistics.median(raw),
        "raw_job_max_s": max(raw),
        "jobs": len(jobs),
        "calls": sum(sum(counter.values()) for counter in outputs),
        "slowest_job": jobs[medians.index(max(medians))]["key"],
        "slowest_attempts": len(times[medians.index(max(medians))]),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    jobs = inputs.build_jobs(args.workload, args.seed, args.workdir, small=args.small)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    result = {}
    if args.trace:
        # Untraced passes on both sides of the traced one, so warm-up and
        # drift do not land in the overhead.
        outputs = [collections.Counter() for _ in jobs]
        untraced, _ = run_pass(jobs, outputs)
        recorder = Recorder()
        recorder.install()
        try:
            traced, calls = run_pass(jobs, outputs, recorder)
        finally:
            recorder.remove()
        untraced = (untraced + run_pass(jobs, outputs)[0]) / 2
        result["per_layer"] = recorder.metrics(traced, untraced, traced - calls)
        recorder.write(os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}.jsonl"))
    else:
        times, outputs = run_loop(jobs, args.seconds)
        result["end_to_end"] = end_to_end(jobs, times, outputs)
        result["end_to_end"]["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    attempted, failed, problems = check_results(jobs, outputs)
    result.update(attempted=attempted, failed=failed, problems=problems[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
