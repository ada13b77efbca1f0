"""Benchmark entry point: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: selfsim_run, trap_search, physical_blowup, ansatz_slopes (see
README.md).  Inputs are fixed, so `--seed` is recorded and changes nothing.

--trace 0 prints setup_s, run_s and peak_rss_mb: set-up is timed in
SETUP_SAMPLES fresh processes plus the measuring one and reported as the
median; run_s is the median round time of the measuring process.
--trace 1 prints the per-layer metrics of one traced round.

Every measurement runs in a fresh worker process with one thread of
computation.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is not 0 when a
worker fails to start or finish; then no JSON line is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 2
DEADLINE_S = 170.0          # the whole command ends within 180 s
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


class WorkerError(RuntimeError):
    pass


def worker(args, deadline: float) -> dict:
    """Run one worker process to its end and return its JSON result."""
    env = dict(os.environ, **SINGLE_THREAD)
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} did not finish in time")
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {args} printed no result")
    return json.loads(lines[-1])


def measure(workload: str, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload]
    if trace:
        res = worker(common + ["--trace", "1"], deadline)
        metrics = {name: {"value": value, "unit": layers.METRICS[name]}
                   for name, value in res["per_layer"].items()}
    else:
        setups = [worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        res = worker(common + ["--seconds", str(seconds), "--trace", "0"], deadline)
        values = {"setup_s": statistics.median(setups + [res["setup_s"]]),
                  "run_s": statistics.median(res["round_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {"correct": res["failed"] == 0 and not res["problems"],
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "rounds_s": res["round_s"], "problems": res["problems"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        full = measure(args.workload, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(full, workload=args.workload, seed=args.seed), fh, indent=1)
    for problem in full["problems"]:
        print(f"FAIL {args.workload}: {problem}")
    print(f"{args.workload}: rounds {', '.join(f'{r:.3f}' for r in full['rounds_s'])} s")
    for name, m in full["metrics"].items():
        print(f"{args.workload}  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: full[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
