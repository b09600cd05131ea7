#!/usr/bin/env python3
"""The eulerpencil benchmark: one workload per process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else; the package is imported from
the ``src/`` next to this directory.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.  The
report lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads; child processes inherit the pins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from importlib.metadata import version  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def context(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def setup_seconds(workloads, name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that each build the workload.

    The first probe is untimed: it leaves the bytecode caches warm, as an
    installed package has them.
    """
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.WORKLOADS[{name!r}]({seed})")
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=workloads.child_env(),
                       check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times[1:]


def record(outcomes: dict, checked) -> None:
    """Merge one pass's checked operations into ``outcomes``: operation key ->
    the causes its output failed for, over every time it ran."""
    for key, causes in checked:
        outcomes.setdefault(key, set()).update(causes)


def measure(workload, seconds: float, tracer=None):
    """Whole passes until the workload's cycle has run once and ``seconds``
    of requests have been timed.

    Pass n takes the inputs of slot ``n % workload.cycle`` of the cycle, so
    the set of operations checked depends on the seed alone, not on how many
    passes the clock allows.  Returns the per-pass request latencies, the
    work done and the outcome of every operation, checked after each pass
    outside the timing.
    """
    passes, work, outcomes, timed = [], 0, {}, 0.0
    while len(passes) < workload.cycle or timed < seconds:
        result = workload.run_pass(len(passes) % workload.cycle, tracer)
        passes.append(result.latencies)
        timed += sum(result.latencies)
        work += result.work
        record(outcomes, workload.check(result.outputs))
    return passes, work, outcomes


def end_to_end(workloads, workload, args) -> tuple[dict, dict, dict]:
    setup = setup_seconds(workloads, args.workload, args.seed)
    passes, work, outcomes = measure(workload, args.seconds)
    latencies = [t for p in passes for t in p]
    who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.Cli) else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "throughput_per_s": (work / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "latency_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
    }
    samples = {"setup_s": len(setup), "peak_rss_mb": 1, "throughput_per_s": work,
               "latency_p50_ms": len(latencies), "latency_p90_ms": len(latencies)}
    info = {"passes": len(passes), "samples": samples,
            "latency_p99_ms": 1e3 * percentile(latencies, 99)}
    return metrics, outcomes, info


def per_layer(workloads, workload, args) -> tuple[dict, dict, dict]:
    import tracing

    metrics = tracing.import_layers(workloads.child_env())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes, _, outcomes = measure(workload, args.seconds, tracer)
    finally:
        tracer.uninstall()
    # Replay the last pass untraced, on the same in-process path.
    replay = workload.run_pass((len(passes) - 1) % workload.cycle, tracing.Tracer())
    record(outcomes, workload.check(replay.outputs))
    overhead = sum(passes[-1]) - sum(replay.latencies)
    metrics.update(tracing.layer_metrics(tracer, len(passes)))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (len(tracer.spans) / len(passes), "count")
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_file)
    return metrics, outcomes, {"passes": len(passes), "spans_file": str(spans_file),
                             "traced_pass_s": sum(passes[-1]),
                             "untraced_pass_s": sum(replay.latencies)}


def report(workload, info: dict, metrics: dict, outcomes: dict) -> dict:
    """Print the human-readable report and return the result object.

    ``attempted`` counts the distinct operations of the run and ``failed``
    those whose output failed a check on any of the times it ran.
    """
    causes = list(outcomes.values())
    by_cause = Counter(c for op in causes for c in op)
    failed = sum(1 for op in causes if op)
    unknown = sorted(set(by_cause) - workload.known_defects)
    print("context " + json.dumps(info.pop("context"), sort_keys=True))
    samples = info.pop("samples", {})
    for key, val in info.items():
        print(f"run     {key} = {val}")
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"metric  {name} = {value:.6g} {unit}" + (f"  (n={n})" if n else ""))
    print(f"failed  {failed} of {len(causes)} distinct operations, "
          f"fail_frac = {failed / len(causes):.6g}")
    for cause, count in sorted(by_cause.items()):
        kind = "known defect" if cause in workload.known_defects else "UNEXPECTED"
        print(f"cause   {cause}: {count} ({kind})")
    return {
        "correct": not unknown,
        "attempted": len(causes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "match", "cli", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eulerpencil" / "__init__.py").is_file():
        print(f"error: the eulerpencil sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    measure_fn = per_layer if args.trace else end_to_end
    metrics, outcomes, info = measure_fn(workloads, workload, args)
    info["context"] = context(args.workload, args.seed)
    result = report(workload, info, metrics, outcomes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
