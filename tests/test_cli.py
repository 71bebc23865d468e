import io
import json
import subprocess
import sys

import pytest

from dioph import pgn
from dioph.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_subprocess(*argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "dioph", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestBoundsCommand:
    def test_n2_row(self):
        code, out = run_cli("bounds", "--n", "2")
        assert code == 0
        assert "0.618033988750" in out
        assert "sigma=n/a" in out

    def test_even_range_json(self):
        code, out = run_cli("bounds", "--n", "4..8", "--even", "--format", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["theta"].startswith("1.75643120")
        rows = [json.loads(l) for l in lines[1:]]
        assert [r["n"] for r in rows] == [4, 6, 8]
        assert rows[0]["tau"].startswith("0.370635455")
        assert rows[0]["sigma"].startswith("0.370629511")
        assert rows[1]["sigma"].startswith("0.268183229")

    def test_odd_row_marks_not_applicable(self):
        code, out = run_cli("bounds", "--n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,tau,sigma")
        cells = lines[1].split(",")
        assert cells[1] == "n/a" and cells[2] == "n/a"
        assert cells[7] == "0.5"  # the 2/(n+1) bound

    def test_low_precision_reaches_its_default_tol(self):
        # without --tol, 64 bits solves to 2^-56, a width bisection can reach
        code, low = run_cli("bounds", "--n", "4", "--precision-bits", "64")
        assert code == 0
        _, full = run_cli("bounds", "--n", "4")
        assert low == full

    def test_tol_is_passed_to_every_solve(self):
        code, coarse = run_cli("bounds", "--n", "4", "--format", "json", "--tol", "1e-8")
        assert code == 0
        _, full = run_cli("bounds", "--n", "4", "--format", "json")
        for c, f in zip(coarse.splitlines(), full.splitlines()):
            c, f = json.loads(c), json.loads(f)
            for key in ("theta", "tau", "sigma", "mu", "regular_graph_bound", "chi"):
                if key in f:
                    assert c[key] != f[key]
                    assert abs(float(c[key]) - float(f[key])) < 1e-7 * abs(float(f[key]))

    def test_tol_too_coarse_for_sigma_is_usage_error(self, capsys):
        # at 1e-3 the solved tau(4) lies below sigma(4) (tau - sigma ~ 6e-6)
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--n", "4", "--tol", "1e-3")
        assert exc.value.code == 2
        assert "too coarse to separate tau(4) from sigma(4)" in capsys.readouterr().err

    def test_nonpositive_tol_is_usage_error(self, capsys):
        # the default tol is left to each solve; a given one is still checked
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--n", "4", "--tol", "0")
        assert exc.value.code == 2
        assert "tol must parse as a positive real" in capsys.readouterr().err

    def test_bad_range_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--n", "8..4")
        assert exc.value.code == 2


class TestTheoremNewCommand:
    def test_dirichlet_point(self):
        code, out = run_cli("theorem-new", "--n", "5", "--alpha", "0.2", "--beta", "0.2", "--format", "json")
        assert code == 0
        d = json.loads(out)
        for key in ("what_lower", "what_upper", "w_lower", "w_upper"):
            assert d[key].startswith("5")

    def test_golden_case(self):
        code, out = run_cli(
            "theorem-new", "--n", "2", "--alpha", "0.6180339887", "--beta", "1", "--format", "json"
        )
        assert code == 0
        d = json.loads(out)
        assert d["what_lower"].startswith("2.618") and d["what_upper"].startswith("2.618")
        assert d["w_lower"].startswith("4.236") and d["w_upper"].startswith("4.236")

    def test_hypothesis_violation_exits_3(self):
        code, out = run_cli("theorem-new", "--n", "4", "--alpha", "0.37", "--beta", "0.5")
        assert code == 3
        d = json.loads(out)
        assert d["error"] == "HypothesisViolated"

    def test_domain_error_exits_3(self):
        code, out = run_cli("theorem-new", "--n", "4", "--alpha", "0.6", "--beta", "0.5")
        assert code == 3
        assert json.loads(out)["error"] == "DomainError"

    def test_csv_format_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("theorem-new", "--n", "5", "--alpha", "0.2", "--beta", "0.2", "--format", "csv")
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_golden_fibonacci_csv(self, tmp_path):
        code, out = run_cli(
            "simulate", "--target", "veronese:golden", "--n", "1",
            "--xmax", "1000", "--widen", "0", "--out", str(tmp_path),
            "--grid-points", "20", "--format", "json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["records"] == 15
        body = (tmp_path / "minimal_points.csv").read_text()
        xs = [line.split(",")[0] for line in body.splitlines()[1:] if line]
        assert xs == ["1", "2", "3", "5", "8", "13", "21", "34", "55", "89",
                      "144", "233", "377", "610", "987"]
        for name in ("profile.csv", "estimates.json", "intersections.csv"):
            assert (tmp_path / name).exists()

    def test_theorem_report_written_with_alpha_beta(self, tmp_path):
        code, out = run_cli(
            "simulate", "--target", "veronese:sqrt2", "--n", "1",
            "--xmax", "500", "--widen", "0", "--out", str(tmp_path),
            "--grid-points", "10", "--alpha", "0.95", "--beta", "1.05",
        )
        assert code == 0
        report = json.loads((tmp_path / "theorem_v.json").read_text())
        assert report["record_ok"] is True

    def test_rational_target_exits_4(self, tmp_path):
        code, out = run_cli(
            "simulate", "--target", "explicit:0.5", "--n", "1",
            "--xmax", "100", "--out", str(tmp_path),
        )
        assert code == 4
        assert json.loads(out)["error"] == "RationalDependence"

    def test_xmax_cap(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", "--target", "veronese:e", "--n", "1",
                "--xmax", "2000000", "--out", str(tmp_path),
            )
        assert exc.value.code == 2

    def test_pool_size_cap(self, tmp_path, monkeypatch):
        # 10^6 * 5^3 = 1.25e8 candidates; the cap must act before enumerating
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a pool beyond the cap")

        monkeypatch.setattr("dioph.pgn.enumerate_candidates", refuse)
        monkeypatch.setattr("dioph.pgn.undominated_candidates", refuse)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", "--target", "veronese:e", "--n", "3", "--widen", "2",
                "--xmax", "1000000", "--out", str(tmp_path),
            )
        assert exc.value.code == 2

    def test_builds_vectors_only_for_the_kept_candidates(self, tmp_path, monkeypatch):
        # the 90,003-vector pool is streamed: an ApproxVector is built only
        # where the profile's pruning may keep it
        built = 0
        init = pgn.ApproxVector.__init__

        def counted(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(pgn.ApproxVector, "__init__", counted)
        code, out = run_cli(
            "simulate", "--target", "veronese:e", "--n", "2", "--xmax", "10000",
            "--out", str(tmp_path), "--format", "json",
        )
        assert code == 0
        pool_size = json.loads(out)["pool_size"]
        assert pool_size == 10000 * 3**2 + 2 + 1
        assert 0 < built < 0.01 * pool_size

    def test_qmax_and_window_flags(self, tmp_path):
        code, out = run_cli(
            "simulate", "--target", "veronese:pi", "--n", "1",
            "--xmax", "400", "--widen", "0", "--out", str(tmp_path),
            "--grid-points", "15", "--qmax", "4.5", "--qmin", "1.0",
            "--window-fraction", "0.7", "--format", "json",
        )
        assert code == 0
        summary = json.loads(out)
        qs = [float(l.split(",")[0]) for l in
              (tmp_path / "profile.csv").read_text().splitlines()[1:] if l]
        assert qs[0] >= 1.0 and qs[-1] <= 4.5
        assert float(summary["estimates"]["window_q"][1]) <= 4.5

    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "simulate", "--target", "veronese:e", "--n", "2",
            "--xmax", "300", "--widen", "1", "--grid-points", "12",
        )
        d1, d2 = tmp_path / "a", tmp_path / "b"
        code1, out1 = run_cli(*args, "--out", str(d1))
        code2, out2 = run_cli(*args, "--out", str(d2))
        assert code1 == code2 == 0
        assert out1.replace(str(d1), "X") == out2.replace(str(d2), "X")
        for name in ("minimal_points.csv", "profile.csv", "estimates.json", "intersections.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestVerifyCommand:
    def test_monotonicity_suite_passes(self):
        code, out = run_cli("verify", "monotonicity", "--format", "json")
        assert code == 0
        checks = [json.loads(l) for l in out.strip().splitlines()]
        assert checks and all(c["ok"] for c in checks)

    def test_profile_suite_passes(self):
        code, out = run_cli("verify", "profile")
        assert code == 0

    def test_profile_suite_passes_at_64_bits(self):
        # L_1 at a record minimum and the record value are two roundings of
        # one number; at 64 bits they differ by far more than 1e-60
        code, out = run_cli("--precision-bits", "64", "verify", "profile", "--format", "json")
        checks = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 0
        assert checks and all(c["ok"] for c in checks)

    def test_constants_suite_passes_at_64_bits(self):
        # every solve takes the precision's default tol, 2^-56 at 64 bits;
        # at a fixed 1e-30 bisection stalls and the command exits 4
        code, out = run_cli("--precision-bits", "64", "verify", "constants", "--format", "json")
        checks = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 0
        assert checks and all(c["ok"] for c in checks)

    def test_constants_suite_reads_constants_report(self, monkeypatch):
        # tau, sigma, the regular-graph bound and chi come from one report
        # per n; only integer_approx_exponents, the function its check
        # tests, solves sigma and theta on its own
        from dioph import bounds as bd
        from dioph.suites import suite_constants

        calls = dict.fromkeys(
            ("constants_report", "theta", "sigma", "regular_graph_lambda_bound", "chi_estimate"), 0
        )
        for name in calls:
            original = getattr(bd, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(bd, name, counted)
        assert all(c.ok for c in suite_constants())
        assert calls == {
            "constants_report": 7,
            "theta": 3,
            "sigma": 2,
            "regular_graph_lambda_bound": 0,
            "chi_estimate": 0,
        }

    def test_constants_suite_flags_only_the_known_discrepancy(self):
        # the source's displayed 6-dimensional tau digits 0.268186 disagree
        # with the defining polynomial; the suite pins the certified digits
        # and records the erratum as a passing check of its own
        code, out = run_cli("verify", "constants")
        checks = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 0
        assert [c["check"] for c in checks if not c["ok"]] == []
        erratum = [c for c in checks if c["check"].startswith("tau(6) source display 0.268186")]
        assert len(erratum) == 1 and erratum[0]["ok"]

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "nonsense")
        assert exc.value.code == 2


class TestSubprocessEntry:
    def test_module_entry_and_env_precision(self):
        code, out, err = run_subprocess(
            "bounds", "--n", "2", "--format", "json", env={"DIOPH_PRECISION_BITS": "128"}
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert rows[1]["tau"].startswith("0.618033988")

    def test_cli_import_does_not_load_numpy(self):
        import os
        from pathlib import Path

        import dioph

        src = str(Path(dioph.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, dioph.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_low_precision_rejected(self):
        code, out, err = run_subprocess("--precision-bits", "32", "bounds", "--n", "2")
        assert code == 2
