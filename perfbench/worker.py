"""One benchmark process: set up a workload, run timed rounds, check them.

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1

`run.py` starts this in a fresh process per measurement.  It prints one JSON
object on its last line of standard output.  Set-up time runs from the start
of this file, before numpy and the package are imported, to the end of the
workload's `setup`.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_package():
    """Import ksblowup from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import ksblowup
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ksblowup from {SRC}: {exc}")
    if not os.path.abspath(ksblowup.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: ksblowup came from {ksblowup.__file__}, not {SRC}")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def timed_round(workload):
    """One timed round: (seconds, output, None), or (seconds, None, a failed
    Outcome) if the round raised."""
    t0 = time.perf_counter()
    try:
        out = workload.run_round()
    except Exception:       # the run must still report: count the round as failed
        seconds = time.perf_counter() - t0
        from workloads import Outcome
        return seconds, None, Outcome(workload.operations, workload.operations,
                                      [traceback.format_exc()])
    seconds = time.perf_counter() - t0
    return seconds, out, None


def run_untraced(workload, seconds: float) -> dict:
    """Rounds while the timed rounds are expected to fit in `seconds`; at least one."""
    rounds, attempted, failed, problems, rss = [], 0, 0, [], None
    while True:
        took, out, outcome = timed_round(workload)
        rounds.append(took)
        if rss is None:
            rss = peak_rss_mib()        # before any check allocates
        if outcome is None:
            outcome = workload.check(out)
        del out
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        if sum(rounds) + took > seconds:
            break
    return {"round_s": rounds, "peak_rss_mb": rss, "attempted": attempted,
            "failed": failed, "problems": problems}


def run_traced(workload, tracer, first_mark: int) -> dict:
    """One traced round, then one untraced round for the tracing overhead."""
    mark = tracer.mark()
    traced_s, out, outcome = timed_round(workload)
    end = tracer.mark()
    improving = workload.improving_probes(out) if out is not None and hasattr(
        workload, "improving_probes") else 0
    if outcome is None:
        outcome = workload.check(out)
    del out
    tracer.uninstall()
    plain_s, out, outcome2 = timed_round(workload)
    if outcome2 is None:
        outcome2 = workload.check(out)
    del out

    metrics = layers.reduce(tracer.spans(first_mark, end), improving)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.coverage_pct"] = 100.0 * tracer.spans(mark, end).covered() / traced_s
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload.name}-spans.json"), "w") as fh:
        json.dump({"traced_run_s": traced_s, "untraced_run_s": plain_s,
                   "spans": layers.span_summary(tracer.spans(first_mark, end))}, fh, indent=1)
    return {"per_layer": metrics, "round_s": [traced_s, plain_s],
            "attempted": outcome.attempted + outcome2.attempted,
            "failed": outcome.failed + outcome2.failed,
            "problems": outcome.problems + outcome2.problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()

    if args.trace:
        from ksblowup import (acceptance, diagnostics, eigenbasis, exactpoly, profile,
                              shooting, sim)
        tracer = spans.Tracer(values=layers.SPAN_VALUES)
        tracer.install([sim, profile, diagnostics, shooting, eigenbasis, exactpoly, acceptance])
        first = tracer.mark()
        workload.setup()
        result = run_traced(workload, tracer, first)
    else:
        workload.setup()
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(run_untraced(workload, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
