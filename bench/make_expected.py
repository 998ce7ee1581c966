"""Regenerate bench/expected.json from the current nracks.

    python3 bench/make_expected.py [--seeds 0 1 2]

Runs every job of every workload (full and small lists) once per seed,
reduces each output to its label-independent record, and fails unless all
seeds give the same record and every independent check passes.  Rerun only
when a job list changes; the records pin today's outputs.
"""

import argparse
import json
import os
import sys
import tempfile

import check
import inputs
import worker


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    goldens = worker.load_goldens()
    records = {}
    work = os.path.join(worker.ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in inputs.WORKLOADS:
            for small in (False, True):
                for seed in args.seeds:
                    jobs = inputs.build_jobs(workload, seed, os.path.join(tmp, f"{workload}-{seed}"), small)
                    for job in jobs:
                        code, stdout = worker.run_job(job)
                        rec = check.record(job, code, stdout)
                        if records.setdefault(job["key"], rec) != rec:
                            sys.exit(f"{job['key']}: seed {seed} gives another record")
                        problems = check.check_job(job, code, stdout, records, goldens)
                        if problems:
                            sys.exit(f"{job['key']} (seed {seed}): {problems}")
                    print(f"{workload} small={small} seed={seed}: {len(jobs)} jobs ok", flush=True)
    with open(os.path.join(worker.HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
