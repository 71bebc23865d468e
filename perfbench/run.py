"""Run one dioph benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dual_sweep --seed 1 --seconds 24 --trace 0

Run from the root of a checkout: dioph is imported from its ``src/`` and
nowhere else.  One process runs one workload as a single closed-loop caller:
it repeats whole rounds of the workload's operations until ``--seconds`` have
passed (at least the workload's minimum number of rounds), takes each
operation's fastest execution as its latency, checks every output against
computations made apart from dioph (``checks.py``), and prints as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of ``tracing.py``.
The line before it carries the run report (versions, seed, counts), which
is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# end-to-end metric -> unit; directions and bounds are in BENCHMARK.json
END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 7
TAIL_PERCENTILE = 95
EXIT_UNUSABLE = 2


def load_dioph() -> ModuleType:
    """Import dioph (and its CLI) from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import dioph
    import dioph.cli  # noqa: F401

    if not Path(dioph.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"dioph was imported from {dioph.__file__}, not from {SRC}")
    return dioph


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import dioph and build the workload's inputs, in a fresh interpreter."""
    t0 = time.perf_counter()
    load_dioph()
    t1 = time.perf_counter()
    import workloads  # the benchmark's own code: not part of set-up

    t2 = time.perf_counter()
    workloads.WORKLOADS[workload].build(seed)
    return (t1 - t0) + (time.perf_counter() - t2)


def setup_samples(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    return [float(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
                  .stdout.strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
        "seed": seed,
    }


def run(args) -> int:
    try:
        dioph = load_dioph()
        setup = setup_samples(args.workload, args.seed)
    except (ImportError, subprocess.SubprocessError, ValueError, IndexError) as ex:
        print(f"perfbench: cannot set up dioph from {SRC}: {ex}", file=sys.stderr)
        return EXIT_UNUSABLE

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    # best[i]: the fastest execution of operation i so far; rounds repeat every operation
    best = [None] * len(inputs)
    check_failures, errors = [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - start < args.seconds:
        for i, item in enumerate(inputs):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = wl.op(dioph, item)
            except Exception as ex:  # a failed operation is counted and the run goes on
                failed += 1
                errors.append(f"{item!r}: {type(ex).__name__}: {ex}")
                continue
            dt = time.perf_counter() - t0
            best[i] = dt if best[i] is None else min(best[i], dt)
            check_failures += wl.check(item, result)
        rounds += 1

    latencies = sorted(t for t in best if t is not None)
    if not latencies:
        print(f"perfbench: every operation failed: {errors[:3]}", file=sys.stderr)
        return 1
    op_p50 = statistics.median(latencies)
    tail = statistics.quantiles(latencies, n=100)[TAIL_PERCENTILE - 1] if wl.tail else None
    end_to_end = {
        "wall_s": sum(latencies),
        "op_p50_s": op_p50,
        # without a tail (fewer than 200 operations in a round) the median stands in, see README
        "op_tail_s": op_p50 if tail is None else tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        per_layer = tracer.per_layer(rounds, tracer.enumeration_peak_mb())
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in per_layer.items()}

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "operations_per_round": len(inputs),
        "tail": (f"p{TAIL_PERCENTILE} of {len(latencies)} operations, "
                 f"{sum(t > tail for t in latencies)} beyond it")
                if tail is not None else "none: the median stands in",
        "setup_samples_s": setup,
        "end_to_end": end_to_end,
        "check_failures": check_failures[:20],
        "errors": errors[:20],
    }
    if tracer is not None:
        report["per_layer"] = {k: m["value"] for k, m in metrics.items()}
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    report_path = workloads.OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for message in check_failures[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:  # before anything imports mpmath or numpy
        print(probe_setup(args.workload, args.seed))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
