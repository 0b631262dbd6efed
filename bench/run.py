"""malle-lab benchmark: a seeded, closed-loop job stream per workload.

    python3 bench/run.py --workload lattice|braid|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  One client sends one job at a time, in one thread.  The
coordinator here imports nothing from malle_lab: it starts one worker
process per round (bench/worker.py), one after another, as many as fit
in --seconds at the pace of the rounds so far, at least one round.  Each
round runs the workload's whole job list on inputs generated from
--seed, with caches empty at the start of the round and kept within it.

--trace 0 prints the end-to-end metrics: medians over rounds of the job
list's time, throughput, per-job p50 and p90, and peak RSS, plus the
median set-up time over at least SETUP_SAMPLES worker starts.  --trace 1
alternates untraced and traced rounds and prints only per-layer metrics
(medians over the traced rounds) and trace.overhead_frac; it feeds no
end-to-end number.  Every job's output is checked; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics.  See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS
from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 11
# A run must end within 180 s; stop starting rounds past this point.
DEADLINE_S = 170.0
CACHE_POLICY = "caches empty at the start of each round, kept across jobs within it"

END_TO_END = (
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, trace: int, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (normalized set-up seconds from process
    start, result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    # fixed hash seed: set iteration order, and so the work done, repeats
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        remaining = max(1.0, deadline - time.perf_counter())
        rest, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            # a killed worker leaves its input directory behind
            shutil.rmtree(os.path.join(ROOT, ".bench_work", str(proc.pid)), ignore_errors=True)
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker failed with exit code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    setup = (setup - result["setup_handler_s"]) * result["setup_factor"]
    return setup, None if setup_only else result


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    times = [r["times"] for r in rounds]
    walls = [sum(t) for t in times]
    values = {
        "wall_s": statistics.median(walls),
        "jobs_per_s": statistics.median(len(t) / w for t, w in zip(times, walls)),
        "job_p50_s": statistics.median(statistics.median(t) for t in times),
        "job_p90_s": statistics.median(p90(t) for t in times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(setups),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    def value(r: dict, name: str, unit: str) -> float:
        return r["layers"][name] * (r["speed_factor"] if unit == "s" else 1)

    out = {
        name: {"value": statistics.median(value(r, name, unit) for r in traced), "unit": unit}
        for name, unit, _ in LAYER_METRICS
    }
    wall = statistics.median(sum(r["times"]) for r in untraced)
    traced_wall = statistics.median(sum(r["times"]) for r in traced)
    out["trace.overhead_frac"] = {"value": traced_wall / wall - 1, "unit": "ratio"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="malle-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "malle_lab", "__init__.py")):
        print(f"error: no malle_lab sources under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            for trace in ((0, 1) if args.trace else (0,)):
                setup, result = spawn(args.workload, args.seed, trace, False, deadline)
                (traced if trace else untraced).append(result)
                if not trace:
                    setups.append(setup)
            # start another round only if one more, at the mean pace so
            # far, still ends within --seconds
            elapsed = time.perf_counter() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, 0, True, deadline)[0])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for line in r["failures"]:
            print(f"failed job: {line}", file=sys.stderr)
    for name in traced[0]["missing"] if traced else ():
        print(f"trace: {name} not found, its metrics read 0", file=sys.stderr)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)

    print(f"# malle-lab benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  python={platform.python_version()}  nproc={os.cpu_count()}")
    print(f"# {CACHE_POLICY}; rounds={len(untraced)} untraced, {len(traced)} traced; "
          f"jobs per round={untraced[0]['attempted']}; setup samples={len(setups)}")
    print(f"# times at reference speed; raw job-list time {statistics.median(sum(r['raw_times']) for r in untraced):.6g} s, "
          f"speed factor {statistics.median(r['speed_factor'] for r in untraced):.4f} (median over untraced rounds)")
    print(f"{'fail_frac':32s} {failed / attempted:<14.6g} ratio")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
