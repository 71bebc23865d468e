"""Each output check accepts dioph's real output and rejects a corrupted copy.

    python3 -m pytest perfbench -q

These tests are the benchmark's own; pyproject's ``testpaths`` keeps them out
of the tier-1 suite.  They run dioph on small inputs of the same kinds the
workloads use.
"""

from __future__ import annotations

import csv
import json
import shutil
from decimal import Decimal
from pathlib import Path

import pytest
from mpmath import mpf

import checks
import run
import tracing
import workloads


@pytest.fixture(scope="module")
def dioph():
    return run.load_dioph()


def bump(text: str, units: int = 1) -> str:
    """The printed decimal moved by whole units of its 12th significant digit."""
    d = Decimal(text)
    return str(d + units * Decimal(1).scaleb(d.adjusted() - 11))


def tags(failures):
    return {f.split(":")[0].split(" ")[0] for f in failures}


# -- constants_table ---------------------------------------------------------

NS = [4, 6]


@pytest.fixture(scope="module")
def bounds_lines(dioph):
    text = workloads._cli(dioph, ["bounds", "--n", "4..6", "--even", "--format", "json"])
    return [json.loads(line) for line in text.splitlines()]


def render(lines):
    return "\n".join(json.dumps(line) for line in lines) + "\n"


def test_constants_table_passes(bounds_lines):
    assert checks.check_constants_table(render(bounds_lines), NS) == []


@pytest.mark.parametrize("field", ["tau", "w_aux", "mu", "regular_graph_bound", "chi"])
@pytest.mark.parametrize("units", [1, -1])
def test_constants_field_off_by_one_unit_is_rejected(bounds_lines, field, units):
    lines = json.loads(json.dumps(bounds_lines))
    lines[1][field] = bump(lines[1][field], units)
    assert field in tags(checks.check_constants_table(render(lines), NS))


def test_theta_off_by_one_unit_is_rejected(bounds_lines):
    lines = json.loads(json.dumps(bounds_lines))
    lines[0]["theta"] = bump(lines[0]["theta"])
    assert "theta" in tags(checks.check_constants_table(render(lines), NS))


def test_sigma_above_tau_is_rejected(bounds_lines):
    lines = json.loads(json.dumps(bounds_lines))
    lines[2]["sigma"] = bump(lines[2]["tau"])
    assert "sigma" in tags(checks.check_constants_table(render(lines), NS))


# -- dual_sweep ----------------------------------------------------------------


@pytest.fixture(scope="module")
def dual_results(dioph):
    points = workloads.dual_inputs(seed=3, count=30)
    return [(p, workloads.dual_op(dioph, p)) for p in points]


def test_dual_points_pass(dual_results):
    for point, result in dual_results:
        assert workloads.dual_check(point, result) == []


def _dual_values(result):
    beta0, ds = result
    return beta0.value, {k: getattr(ds, k).value for k in ("what_lower", "what_upper", "w_lower", "w_upper")}


def test_nudged_beta0_is_rejected(dual_results):
    (n, alpha), result = dual_results[0]
    beta0, bounds = _dual_values(result)
    fails = checks.check_dual_point(n, alpha, beta0 * (1 + mpf("1e-15")), bounds)
    assert "epsilon" in tags(fails)


@pytest.mark.parametrize("key", ["what_lower", "what_upper", "w_lower", "w_upper"])
def test_off_collapse_bound_is_rejected(dual_results, key):
    (n, alpha), result = dual_results[1]
    beta0, bounds = _dual_values(result)
    bounds[key] = bounds[key] * (1 + mpf("1e-9"))
    assert key in tags(checks.check_dual_point(n, alpha, beta0, bounds))


# -- simulate ------------------------------------------------------------------


def simulate(dioph, out: Path, target: str, n: int, xmax: int) -> Path:
    workloads._cli(dioph, ["simulate", "--target", f"veronese:{target}", "--n", str(n),
                           "--xmax", str(xmax), "--widen", "1", "--out", str(out)])
    return out


@pytest.fixture(scope="module")
def golden_run(dioph, tmp_path_factory):
    return simulate(dioph, tmp_path_factory.mktemp("golden"), "golden", 1, 3000)


@pytest.fixture(scope="module")
def e_run(dioph, tmp_path_factory):
    return simulate(dioph, tmp_path_factory.mktemp("e"), "e", 2, 1500)


def check_copy(src: Path, dst: Path, target: str, n: int, xmax: int, edit=None):
    """Run check_simulation on a copy of src, after edit(copy_dir) if given."""
    shutil.copytree(src, dst)
    if edit is not None:
        edit(dst)
    return checks.check_simulation(dst, target, n, xmax, checks.record_xs(target, n, xmax))


def edit_csv(path: Path, change) -> None:
    with path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    change(rows)
    with path.open("w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\r\n").writerows(rows)


def test_record_oracle_matches_fibonacci():
    assert checks.record_xs("golden", 1, 3000) == checks.fibonacci_upto(3000)


def test_simulations_pass(golden_run, e_run, tmp_path):
    assert check_copy(golden_run, tmp_path / "g", "golden", 1, 3000) == []
    assert check_copy(e_run, tmp_path / "e", "e", 2, 1500) == []


def test_dropped_record_is_rejected(golden_run, tmp_path):
    drop = lambda d: edit_csv(d / "minimal_points.csv", lambda rows: rows.pop(5))
    assert {"records", "fibonacci"} <= tags(check_copy(golden_run, tmp_path / "g", "golden", 1, 3000, drop))


def test_dropped_record_is_rejected_off_fibonacci(e_run, tmp_path):
    drop = lambda d: edit_csv(d / "minimal_points.csv", lambda rows: rows.pop(3))
    assert "records" in tags(check_copy(e_run, tmp_path / "e", "e", 2, 1500, drop))


def test_missing_file_is_rejected(e_run, tmp_path):
    remove = lambda d: (d / "intersections.csv").unlink()
    assert "simulate" in tags(check_copy(e_run, tmp_path / "e", "e", 2, 1500, remove))


def test_record_above_dirichlet_is_rejected(e_run, tmp_path):
    def raise_Y(rows):
        rows[4][3] = "0.9"  # Y of the 4th record, whose successor has x > 2
    edit = lambda d: edit_csv(d / "minimal_points.csv", raise_Y)
    assert "dirichlet" in tags(check_copy(e_run, tmp_path / "e", "e", 2, 1500, edit))


def test_profile_row_below_minkowski_floor_is_rejected(e_run, tmp_path):
    def lower(rows):
        row = rows[len(rows) // 2]
        row[1:] = [str(Decimal(v) - 5) for v in row[1:]]
    edit = lambda d: edit_csv(d / "profile.csv", lower)
    assert "minkowski" in tags(check_copy(e_run, tmp_path / "e", "e", 2, 1500, edit))


def test_unordered_profile_row_is_rejected(e_run, tmp_path):
    def swap(rows):
        row = rows[len(rows) // 2]
        row[1], row[3] = row[3], row[1]
    edit = lambda d: edit_csv(d / "profile.csv", swap)
    assert "order" in tags(check_copy(e_run, tmp_path / "e", "e", 2, 1500, edit))


def test_profile_jump_steeper_than_slope_one_is_rejected(e_run, tmp_path):
    def jump(rows):
        row = rows[len(rows) // 2]
        row[-1] = str(Decimal(row[-1]) + 1)  # L_(n+1) stays the largest
    edit = lambda d: edit_csv(d / "profile.csv", jump)
    assert "slope" in tags(check_copy(e_run, tmp_path / "e", "e", 2, 1500, edit))


def test_inverted_or_far_estimates_are_rejected(golden_run, tmp_path):
    def invert(d):
        est = json.loads((d / "estimates.json").read_text())
        est["lambda_hat_est"] = str(Decimal(est["lambda_est"]) + Decimal("0.1"))
        (d / "estimates.json").write_text(json.dumps(est))
    fails = check_copy(golden_run, tmp_path / "g", "golden", 1, 3000, invert)
    assert [f for f in fails if "lambda_hat_est" in f] and [f for f in fails if "within 0.05" in f]


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
