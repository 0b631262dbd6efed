"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --trace 0|1 [--setup-only]

A round is what the benchmark calls a run of the job list: it starts
with empty caches (a new process has no module-level or per-group
caches) and keeps them from job to job.  The worker sets up (imports,
seeded input generation, first group closures), prints ``READY`` so the
coordinator can time set-up from interpreter start, runs every job in
order, checks each job's output against expected.json, and prints one
JSON result line.  The result line carries the speed factor of set-up
and the time its speed samples took, which the coordinator takes out;
with --setup-only it carries only these.  With --trace 1 the set-up and the jobs run under the
tracer; the spans go to .bench_out/ and the per-layer metrics into the
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from speed import SpeedSampler  # noqa: E402

# Set-up is put at reference speed too: sample from here, before
# malle_lab is imported, until READY.
SETUP_SPEED = SpeedSampler()
SETUP_SPEED.start()

import inputs as inp  # noqa: E402
import jobs  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inp.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    expected = inp.load_expected()
    inputs = inp.Inputs(args.workload, args.seed, expected)
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        ctx = jobs.JobContext(inputs.groups, inputs.write_group_files(work))
        ctx.build(jobs.NEEDED_GROUPS[args.workload])
        SETUP_SPEED.stop(top_up=False)
        print("READY", flush=True)
        SETUP_SPEED.stop()
        setup = {"setup_factor": SETUP_SPEED.factor(), "setup_handler_s": SETUP_SPEED.handler_s}
        if args.setup_only:
            print(json.dumps(setup), flush=True)
            return 0

        times, intervals, failures = [], [], []
        speed = SpeedSampler()
        speed.start()
        for i, job in enumerate(inputs.jobs):
            if tracer:
                tracer.begin(i)
            h0, t0 = speed.handler_s, time.perf_counter()
            try:
                raw = jobs.run(job, ctx)
            except Exception as exc:  # any error is a failed job, not a crash
                raw, error = None, f"{job['key']}: {type(exc).__name__}: {exc}"
            else:
                error = None
            t1 = time.perf_counter()
            times.append(t1 - t0 - (speed.handler_s - h0))
            intervals.append((t0, t1))
            if tracer:
                tracer.end()
            if error is None:
                try:
                    error = jobs.check(job, jobs.summary(job, raw), expected["expected"])
                except Exception as exc:  # output of an unexpected shape
                    error = f"{job['key']}: output not understood: {type(exc).__name__}: {exc}"
            del raw
            if error is not None:
                failures.append(error)
        speed.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        **setup,
        "raw_times": times,
        "times": [t * f for t, f in zip(times, speed.factors(intervals))],
        "speed_factor": speed.factor(),
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, f"spans-{args.workload}-{args.seed}.json"))
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
