"""nracks benchmark: one workload per run, in a fresh child interpreter.

    python3 bench/run.py --workload {homology-census,verify,enumerate}
                         --seed N --seconds S --trace {0,1}

Set-up (start an interpreter, import nracks and nracks.cli, generate and
write the seeded inputs) is timed SETUP_PROBES times in throw-away children
and once more in the child that runs the workload; setup_s is the median.
The runner drives one child at a time.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced pass (see spans.py).
Human-readable lines go first; the last stdout line is the JSON result.
The exit code is 0 only when every job output passed its check.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed
from inputs import WORKLOADS
from spans import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 10
TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def start_child(argv, deadline, children):
    """Start a worker (appended to children) and wait for its "ready" line;
    returns (process, set-up seconds scaled by the reference kernel around
    them (see speed.py), unscaled set-up seconds)."""
    before = speed.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    children.append(proc)
    line = proc.stdout.readline()
    raw = time.perf_counter() - start
    elapsed = speed.scaled(raw, before, speed.sample())
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, elapsed, raw


def finish(proc, deadline, command=""):
    """Send the command (empty: stop) and return the worker's stdout."""
    try:
        out, _ = proc.communicate(command, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run(args):
    deadline = time.monotonic() + TIMEOUT_S
    work = os.path.join(ROOT, ".bench_work")
    base = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--small"] if args.small else [])
    setups, raw_setups = [], []
    children = []
    try:
        for i in range(SETUP_PROBES):
            workdir = os.path.join(work, f"probe-{i}")
            proc, elapsed, raw = start_child(base + ["--workdir", workdir], deadline, children)
            finish(proc, deadline)
            setups.append(elapsed)
            raw_setups.append(raw)
        workdir = os.path.join(work, "inputs")
        proc, elapsed, raw = start_child(base + ["--workdir", workdir], deadline, children)
        setups.append(elapsed)
        raw_setups.append(raw)
        out = finish(proc, deadline, "go\n")
    finally:
        for proc in children:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for name in [f"probe-{i}" for i in range(SETUP_PROBES)] + ["inputs"]:
            shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["raw_setup_s"] = statistics.median(raw_setups)
    return result


def report(args, result):
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": METRICS[name][0]}
            for name, value in result["per_layer"].items()
        }
    else:
        e2e = result["end_to_end"]
        e2e["setup_s"] = result["setup_s"]
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"{args.workload}: {e2e['jobs']} jobs, {e2e['calls']} calls, "
              f"slowest {e2e['slowest_job']!r} ({e2e['slowest_attempts']} attempts)")
        print(f"  unscaled: wall {e2e['raw_wall_s']:.6g} s, job p50 {e2e['raw_job_p50_s']:.6g} s, "
              f"job max {e2e['raw_job_max_s']:.6g} s, setup {result['raw_setup_s']:.6g} s")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced job lists, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the worker is killed and the inputs removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return report(args, result)


if __name__ == "__main__":
    sys.exit(main())
