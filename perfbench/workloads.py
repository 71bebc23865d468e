"""The benchmark's four workloads: inputs from a seed, one operation, its checks.

A round is a workload's fixed amount of work: one CLI call for
``constants_table`` and the two ``simulate_*`` workloads, and the seeded
list of DUAL_POINTS collapse points for ``dual_sweep``.  Operations call
dioph in-process through attribute lookups on its modules, so the wrappers
of a traced run see every call.  A CLI call that exits non-zero raises
OperationFailed, which the run counts as a failed operation.
"""

from __future__ import annotations

import io
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional

import checks

OUT_DIR = Path(__file__).resolve().parent / "out"

DUAL_POINTS = 200
DUAL_N = (2, 8)
DUAL_ALPHA_MAX = 0.9
BOUNDS_NS = [4, 6, 8, 10, 12]


class OperationFailed(Exception):
    """A CLI operation exited with a non-zero code."""


@dataclass(frozen=True)
class Workload:
    name: str
    # seed -> the inputs of one round
    build: Callable[[int], List[Any]]
    # (dioph, input) -> output
    op: Callable[[ModuleType, Any], Any]
    # (input, output) -> failure messages
    check: Callable[[Any, Any], List[str]]
    # rounds every run completes, however long they take
    min_rounds: int = 1
    # True where a round has enough distinct operations for a p95 tail
    tail: bool = False


def _cli(dioph: ModuleType, argv: List[str]) -> str:
    """Standard output of ``dioph <argv>``; a non-zero exit fails the operation."""
    buf = io.StringIO()
    code = dioph.cli.main(argv, out=buf)
    if code != 0:
        raise OperationFailed(f"exit code {code}: {buf.getvalue()[:200]}")
    return buf.getvalue()


# -- constants_table ---------------------------------------------------------


def _bounds_inputs(seed: int) -> List[List[str]]:
    return [["bounds", "--n", f"{BOUNDS_NS[0]}..{BOUNDS_NS[-1]}", "--even", "--format", "json"]]


def _bounds_check(argv: List[str], text: str) -> List[str]:
    return checks.check_constants_table(text, BOUNDS_NS)


# -- dual_sweep ----------------------------------------------------------------


def dual_inputs(seed: int, count: int = DUAL_POINTS) -> List[tuple]:
    """(n, alpha): n uniform in 2..8, alpha a double uniform in (1/n, 0.9)."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        n = rng.randint(*DUAL_N)
        alpha = rng.uniform(1 / n, DUAL_ALPHA_MAX)
        if Fraction(1, n) < Fraction(alpha) < Fraction(DUAL_ALPHA_MAX):
            points.append((n, alpha))
    return points


def dual_op(dioph: ModuleType, point: tuple):
    n, alpha = point
    beta0 = dioph.bounds.beta_for_equality(n, alpha)
    ctx = dioph.bounds.mm_defect(n, alpha, beta0)
    return beta0, dioph.bounds.dual_bounds(ctx)


def dual_check(point: tuple, result) -> List[str]:
    beta0, ds = result
    bounds = {k: getattr(ds, k).value for k in ("what_lower", "what_upper", "w_lower", "w_upper")}
    return checks.check_dual_point(point[0], point[1], beta0.value, bounds)


# -- simulate_* ----------------------------------------------------------------


@dataclass(frozen=True)
class Simulation:
    """One `dioph simulate` argv and the directory it writes to."""

    argv: List[str]
    out_dir: Path


class _Simulate:
    """`dioph simulate` of one Veronese target, with --widen 1."""

    def __init__(self, name: str, target: str, n: int, xmax: int):
        self.name, self.target, self.n, self.xmax = name, target, n, xmax
        self._records: Optional[List[int]] = None

    def build(self, seed: int) -> List[Simulation]:
        out = OUT_DIR / f"{self.name}-seed{seed}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = ["simulate", "--target", f"veronese:{self.target}", "--n", str(self.n),
                "--xmax", str(self.xmax), "--widen", "1", "--out", str(out)]
        return [Simulation(argv, out)]

    def op(self, dioph: ModuleType, sim: Simulation) -> str:
        return _cli(dioph, sim.argv)

    def check(self, sim: Simulation, stdout: str) -> List[str]:
        # the record oracle depends on the target alone: compute it once per run
        if self._records is None:
            self._records = checks.record_xs(self.target, self.n, self.xmax)
        fails = checks.check_simulation(sim.out_dir, self.target, self.n, self.xmax, self._records)
        # the next operation must write every file anew
        for name in checks.SIM_FILES:
            (sim.out_dir / name).unlink(missing_ok=True)
        return fails

    def workload(self) -> Workload:
        return Workload(self.name, self.build, self.op, self.check)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("constants_table", _bounds_inputs, _cli, _bounds_check),
        # 200 points: 10 lie beyond the p95; 5 rounds: every point runs at least 5 times
        Workload("dual_sweep", dual_inputs, dual_op, dual_check, min_rounds=5, tail=True),
        _Simulate("simulate_n2", "e", 2, 10_000).workload(),
        _Simulate("simulate_n1", "golden", 1, 30_000).workload(),
    )
}
