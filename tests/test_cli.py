import io
import json
from hashlib import sha256
import subprocess
import sys
from unittest.mock import patch

import pytest

from dioph import bounds as bd
from dioph import pgn
from dioph.cli import main
from dioph.numerics import PrecisionReal as PR


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


# sha256 of stdout, taken before the renderers were built from the records'
# fields; the table and the dual-bound records must print these exact bytes
RENDERED = {
    ("bounds", "--n", "2..30", "--format", "text"):
        "6cfcbe055b5e657265fb5926375958c878770f09974368a0548aaa4c5189f62e",
    ("bounds", "--n", "2..30", "--format", "json"):
        "bf4a71058636e33a8fc371c50c7055de8067da060ea704cd79ab80bcc0767887",
    ("bounds", "--n", "2..30", "--format", "csv"):
        "04fabae0823bea66a9bc1c537e867818d6c2f16331956c790d2e497a1903f1d3",
    ("bounds", "--n", "4..12", "--even", "--format", "csv"):
        "87df3dc0d7a2027cfd91f1986678b06332ea40c1454ba76733b43e690926fe50",
    ("theorem-new", "--n", "2", "--alpha", "0.6", "--beta", "0.9000001", "--format", "text"):
        "364e39b9dacda312437954e8731e1247d143ff75f86bb1b9362bec980af8b8cf",
    ("theorem-new", "--n", "2", "--alpha", "0.6", "--beta", "0.9000001", "--format", "json"):
        "2606aea88f0978863fa419e820a7431b8a83535fb67bc6c630644c4c02adf15f",
}


@pytest.mark.parametrize("argv", sorted(RENDERED), ids=" ".join)
def test_rendered_output_is_pinned(argv):
    code, out = run_cli(*argv)
    assert code == 0
    assert sha256(out.encode()).hexdigest() == RENDERED[argv]


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
        # a seeded solve meets 1e-8 at its two seed points, so its printed
        # digits need not move: every find_root call shows the tol instead
        with patch.object(bd, "find_root", wraps=bd.find_root) as spy:
            code, coarse = run_cli("bounds", "--n", "4", "--format", "json", "--tol", "1e-8")
        assert code == 0
        # theta, mu, tau, sigma and the regular-graph bound, each solved once;
        # tau's tol is relative to its bracket's lower end 1/5
        tols = [PR(call.args[3], 256) for call in spy.call_args_list]
        assert len(tols) == 5
        assert all(PR("1e-9") < t <= PR("1e-8") for t in tols)
        _, full = run_cli("bounds", "--n", "4", "--format", "json")
        for c, f in zip(coarse.splitlines(), full.splitlines()):
            c, f = json.loads(c), json.loads(f)
            for key in ("theta", "tau", "sigma", "mu", "regular_graph_bound", "chi"):
                if key in f:
                    assert abs(float(c[key]) - float(f[key])) < 1e-7 * abs(float(f[key]))

    def test_tol_too_coarse_for_sigma_is_usage_error(self, capsys, monkeypatch):
        # at 1e-3, tau(4) solved without its float seed lies below sigma(4)
        # (tau - sigma ~ 6e-6)
        monkeypatch.setattr(bd, "float_root", lambda f, lo, hi: None)
        assert bd.tau(4, tol="1e-3") < bd.sigma(4)
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--n", "4", "--tol", "1e-3")
        assert exc.value.code == 2
        assert "too coarse to separate tau(4) from sigma(4)" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1e-4", "3e-4", "1e-3", "3e-3", "4e-3", "1e-2", "2e-2"])
    def test_tol_refused_exactly_when_tau_lies_below_sigma(self, tol, monkeypatch):
        # a seeded tau(4) never lies below sigma(4); solved from its algebraic
        # bracket alone, it does at 3e-4, 1e-3 and 3e-3
        for seeded in (True, False):
            if not seeded:
                monkeypatch.setattr(bd, "float_root", lambda f, lo, hi: None)
            below = bd.tau(4, tol=tol) < bd.sigma(4)
            try:
                code, _ = run_cli("bounds", "--n", "4", "--tol", tol)
            except SystemExit as exc:
                code = exc.code
            assert code == (2 if below else 0)

    @pytest.mark.parametrize("tol", ["0.9", "1e-2", "1e-3"])
    def test_coarse_tol_keeps_sigma_within_tol(self, tol):
        # sigma's seed points meet the coarse tol at once; without the seed,
        # --tol 0.9 printed 0.310317727642 and 1e-2 printed 0.367651893684
        code, out = run_cli("bounds", "--n", "4", "--format", "json", "--tol", tol)
        assert code == 0
        _, full = run_cli("bounds", "--n", "4", "--format", "json")
        coarse, exact = (float(json.loads(o.splitlines()[1])["sigma"]) for o in (out, full))
        assert abs(coarse - exact) <= float(tol) * exact

    @pytest.mark.parametrize("tol", ["0", "-0.5", "nan", "inf", "abc", "1/0"])
    def test_tol_not_a_positive_real_is_usage_error(self, capsys, tol):
        # the default tol is left to each solve; a given one is still checked
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--n", "4", "--tol", tol)
        assert exc.value.code == 2
        assert "tol must parse as a positive real" in capsys.readouterr().err

    def test_nan_in_a_solve_exits_4(self, monkeypatch):
        # a NaN value of f is a numeric failure (exit 4), not a usage error
        solve = bd.find_root

        def nan_solve(f, lo, hi, tol=None, seed=None):
            return solve(lambda x: PR("nan"), lo, hi, tol)

        monkeypatch.setattr(bd, "find_root", nan_solve)
        code, out = run_cli("bounds", "--n", "4")
        assert code == 4
        error = json.loads(out)
        assert error["error"] == "InvalidPoint"
        assert error["message"].startswith("f is NaN at PrecisionReal(")

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

    def test_violation_message_prints_a_threshold_below_the_double_range(self):
        # the threshold is alpha^3 / 8, about 1.25e-1200000001: float() reads 0
        code, out = run_cli("theorem-new", "--n", "2", "--alpha", "1e-400000000", "--beta", "1")
        assert code == 3
        d = json.loads(out)
        assert d["error"] == "HypothesisViolated"
        assert d["message"] == "epsilon=1 exceeds threshold=1.25000e-1200000001"

    @pytest.mark.parametrize(
        "alpha, beta", [("0.6", "0.5"), ("inf", "inf"), ("nan", "1"), ("0.5", "nan")]
    )
    def test_domain_error_exits_3(self, alpha, beta):
        code, out = run_cli("theorem-new", "--n", "4", "--alpha", alpha, "--beta", beta)
        assert code == 3
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["abc", "", "0x1", "1/0"])
    def test_alpha_beta_not_a_real_is_usage_error(self, capsys, flag, value):
        argv = {"--alpha": "0.2", "--beta": "0.2", flag: value}
        with pytest.raises(SystemExit) as exc:
            run_cli("theorem-new", "--n", "5", *[x for kv in argv.items() for x in kv])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_csv_format_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("theorem-new", "--n", "5", "--alpha", "0.2", "--beta", "0.2", "--format", "csv")
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_format_is_a_usage_error(self, tmp_path):
        # simulate prints JSON only, so it takes no --format
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", "--target", "veronese:e", "--n", "1", "--xmax", "100",
                "--out", str(tmp_path), "--format", "json",
            )
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_golden_fibonacci_csv(self, tmp_path):
        code, out = run_cli(
            "simulate", "--target", "veronese:golden", "--n", "1",
            "--xmax", "1000", "--widen", "0", "--out", str(tmp_path),
            "--grid-points", "20",
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_target_is_usage_error(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", "--target", f"veronese:{value}", "--n", "2",
                "--xmax", "10", "--out", str(tmp_path),
            )
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "flag, value",
        [("--qmax", "inf"), ("--qmax", "nan"), ("--qmin", "abc"), ("--qmin", "-inf"),
         ("--alpha", "abc"), ("--beta", "")],
    )
    def test_bad_real_flag_names_the_flag(self, tmp_path, capsys, flag, value):
        # the q window must be finite; alpha and beta may be NaN or inf, which
        # the record checker refuses itself
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", "--target", "veronese:e", "--n", "1", "--xmax", "100",
                "--alpha", "0.9", "--beta", "1.1", "--out", str(tmp_path), f"{flag}={value}",
            )
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grid_points_cap(self, tmp_path, monkeypatch):
        # 10^8 grid points would take hours; the cap must act before the pool
        def refuse(*args, **kwargs):
            raise AssertionError("built a pool for a grid beyond the cap")

        monkeypatch.setattr("dioph.pgn.undominated_candidates", refuse)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", "--target", "veronese:e", "--n", "2", "--xmax", "2000",
                "--grid-points", "100000000", "--out", str(tmp_path),
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
            "--out", str(tmp_path),
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
            "--window-fraction", "0.7",
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

    # sha256 of the output of the two runs, taken before the profile became
    # a merge of presorted lists; any change in a printed digit fails here
    PINNED = {
        "e_n2": ("veronese:e", "2", "2000", {
            "stdout": "8114dbdcb2897a1d83c278cb30149f8df14cd545d238dd7d05067815c5a4bc23",
            "estimates.json": "1d64fba6634fbece8d1f76c2a8524170c3c0c89d6e80438640da04f44f4a9dec",
            "intersections.csv": "f09e4fb811f752bc2848a3d225a39a5fa5e06d84ce846edcd77aa7bb89a0e5c4",
            "minimal_points.csv": "bb71d7dee24d5e29a7dd39294bce84e98755259325e60d3dcd34823f553c0505",
            "profile.csv": "a7861a6bbc68454eeca54208d6a8c2ea5ca37d454649df5355ccea3e14e757c9",
        }),
        "pi_n3": ("veronese:pi", "3", "1000", {
            "stdout": "69583e1f621efe3881ed66486dff551dffc445a7c79081e04956d082be3feae1",
            "estimates.json": "e9577d51785608dec82d0f003c6b2119ce72a3b2e8ecafe0e20c4a23fae09865",
            "intersections.csv": "da5cdf5fb6aa1f89a7deebb6ee3cdeffe39708494cfb3bb34abaef8cd5e8f10e",
            "minimal_points.csv": "6d31e9a3142d0f8ff4b4bb85f106f9b37379530abb62f271b6764158458dac28",
            "profile.csv": "71b3a376e364b977245d5c63cd8c3fb831b52fd95b20435c4c82f240d6dfd84a",
        }),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_is_pinned(self, tmp_path, case):
        target, n, xmax, pinned = self.PINNED[case]
        code, out = run_cli(
            "simulate", "--target", target, "--n", n, "--xmax", xmax, "--widen", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        digests = {"stdout": sha256(out.replace(str(tmp_path), "OUT").encode()).hexdigest()}
        for path in sorted(tmp_path.iterdir()):
            digests[path.name] = sha256(path.read_bytes()).hexdigest()
        assert digests == pinned


class TestVerifyCommand:
    def test_suite_names_match_suites(self):
        from dioph import cli, suites

        assert list(cli.SUITE_NAMES) == sorted(suites.SUITE_NAMES)

    def test_format_is_a_usage_error(self):
        # verify prints JSON only, so it takes no --format
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "monotonicity", "--format", "json")
        assert exc.value.code == 2

    def test_monotonicity_suite_passes(self):
        code, out = run_cli("verify", "monotonicity")
        assert code == 0
        checks = [json.loads(l) for l in out.strip().splitlines()]
        assert checks and all(c["ok"] for c in checks)

    def test_profile_suite_passes(self):
        code, out = run_cli("verify", "profile")
        assert code == 0

    def test_profile_suite_passes_at_64_bits(self):
        # L_1 at a record minimum and the record value are two roundings of
        # one number; at 64 bits they differ by far more than 1e-60
        code, out = run_cli("--precision-bits", "64", "verify", "profile")
        checks = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 0
        assert checks and all(c["ok"] for c in checks)

    def test_constants_suite_passes_at_64_bits(self):
        # every solve takes the precision's default tol, 2^-56 at 64 bits;
        # at a fixed 1e-30 bisection stalls and the command exits 4
        code, out = run_cli("--precision-bits", "64", "verify", "constants")
        checks = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 0
        assert checks and all(c["ok"] for c in checks)

    def test_constants_suite_reads_constants_report(self, monkeypatch):
        # tau, sigma, the regular-graph bound, chi and the algebraic-integer
        # exponents come from one report per n; theta is solved once
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
            "theta": 1,
            "sigma": 0,
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


def loaded_by_cli_import(module: str) -> bool:
    """Whether `import dioph.cli` in a fresh interpreter loads module."""
    import os
    from pathlib import Path

    import dioph

    src = str(Path(dioph.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, dioph.cli; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


class TestSubprocessEntry:
    def test_module_entry_and_env_precision(self):
        code, out, err = run_subprocess(
            "bounds", "--n", "2", "--format", "json", env={"DIOPH_PRECISION_BITS": "128"}
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()]
        assert rows[1]["tau"].startswith("0.618033988")

    def test_cli_import_does_not_load_numpy(self):
        assert not loaded_by_cli_import("numpy")

    def test_cli_import_does_not_load_dataclasses(self):
        # every result record is a NamedTuple; dataclasses would pull in inspect
        assert not loaded_by_cli_import("dataclasses")
        assert not loaded_by_cli_import("inspect")

    def test_cli_import_does_not_load_decimal(self):
        # only format_real uses decimal, and imports it itself
        assert not loaded_by_cli_import("decimal")

    def test_cli_import_does_not_load_suites(self):
        # only `verify` runs a suite, and it imports suites itself
        assert not loaded_by_cli_import("dioph.suites")

    def test_low_precision_rejected(self):
        code, out, err = run_subprocess("--precision-bits", "32", "bounds", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [("bounds", "--n", "2..300"), ("verify", "corollary")], ids=["bounds", "verify"]
    )
    def test_closed_stdout_ends_quietly(self, argv):
        # the reader is gone before the first write, as `| head -1` leaves a
        # long output: no traceback, and not exit 1, a failed check
        import os

        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dioph", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")


class TestPrecisionBits:
    def test_flag_wins_over_an_invalid_environment_value(self, monkeypatch):
        monkeypatch.setenv("DIOPH_PRECISION_BITS", "abc")
        code, out = run_cli("--precision-bits", "128", "bounds", "--n", "2")
        assert code == 0
        monkeypatch.delenv("DIOPH_PRECISION_BITS")
        assert run_cli("bounds", "--n", "2", "--precision-bits", "128") == (code, out)

    @pytest.mark.parametrize("value", ["abc", "32"])
    def test_invalid_environment_value_is_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("DIOPH_PRECISION_BITS", value)
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--n", "2")
        assert exc.value.code == 2
        assert "error: DIOPH_PRECISION_BITS: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message", [("abc", "invalid int value: 'abc'"), ("32", "precision_bits must be >= 64")]
    )
    def test_invalid_flag_is_usage_error(self, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--n", "2", "--precision-bits", value)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
