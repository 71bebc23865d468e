"""Repeat benchmark runs over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads dual_sweep,simulate_n2 --seeds 1-10 --save set_a.json
    python3 perfbench/steady.py --compare perfbench/out/set_a.json perfbench/out/set_b.json

For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, against the metric's bound in BENCHMARK.json; the spread of
``setup_s`` is shown but not held to its bound.  ``--compare`` checks that a
second set's medians are within the bound of the first and that the share
of failed operations is identical.  Sets are saved under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: dict) -> bool:
    """Print each workload's spreads; True if every spread is within its bound."""
    steady = True
    for workload, runs in results.items():
        failed = {(r["failed"], r["attempted"]) for r in runs}
        shares = sorted({f / a for f, a in failed})
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, failed share {shares}")
        for name, bound in BOUNDS.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread <= bound
            steady &= ok
            print(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}  bound {bound}  {'ok' if ok else 'TOO WIDE'}")
    return steady


def compare(first: dict, second: dict) -> bool:
    agree = True
    for workload in first:
        a, b = first[workload], second[workload]
        share = lambda runs: sorted({r["failed"] / r["attempted"] for r in runs})
        if share(a) != share(b):
            agree = False
            print(f"{workload}: failed share {share(a)} != {share(b)}")
        for name, bound in BOUNDS.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            change = mb / ma - 1
            ok = change <= bound
            agree &= ok
            print(f"{workload:16s} {name:12s} {ma:.6g} -> {mb:.6g}  {change:+.3f}  bound {bound}  "
                  f"{'ok' if ok else 'WORSE'}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="an inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--save", help="file name under perfbench/out/ for the raw results")
    parser.add_argument("--compare", nargs=2, metavar="SET", help="two saved sets")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(first, second) else 1

    results = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in parse_seeds(args.seeds):
            results[workload].append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={m['value']:.5g}" for k, m in results[workload][-1]["metrics"].items()),
                  flush=True)
    if args.save:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / args.save).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if summarize(results) else 1


if __name__ == "__main__":
    sys.exit(main())
