import csv
import json
import math
import time
import warnings

import pytest

from oceanbvp import cli, free_boundary, quasi_uniform
from oceanbvp.cli import main
from oceanbvp.model import BcKind, approx_missing_init


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_qug_json_report(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "qug",
                           "--bc", "no-slip", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "qug"
        assert report["bc"] == "no-slip"
        assert report["gridpoints"] == 200
        assert report["boundary"] == "inf"
        assert report["beta"] == pytest.approx(0.826180, abs=2e-5)

    def test_json_round_trips_bit_exactly(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["solve", "--method", "qug", "--bc", "slip",
                         "--format", "json", "--out", str(p)]) == 0
        first, second = (json.loads(p.read_text()) for p in paths)
        assert first == second
        assert json.loads(json.dumps(first)) == first

    def test_fbf_report_fields(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "fbf",
                           "--bc", "slip", "--eps", "1e-2", "--J", "500",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["eps"] == 1e-2
        assert report["gridpoints"] == 500
        assert report["boundary"] > 0
        assert math.isfinite(report["beta"])

    def test_shooting_table_format(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "shoot-newton",
                           "--bc", "slip", "--beta0", "0.8")
        assert code == 0
        assert "beta:" in out
        assert "rhs_evaluations" in out

    def test_csv_format_is_flat(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "qug",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 2
        assert rows[0][0] == "method"
        assert rows[1][0] == "qug"

    def test_missing_seed_is_config_error(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "shoot-secant",
                           "--beta0", "1.0")
        assert code == 2
        assert "beta1" in err

    def test_stray_beta1_is_config_error(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "shoot-newton",
                           "--beta0", "1.0", "--beta1", "2.0")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["--method", "shoot-newton", "--beta0", "1.0", "--J", "100"], "--J"),
        (["--method", "shoot-secant", "--beta0", "1.0", "--beta1", "2.0",
          "--c", "5"], "--c"),
        (["--method", "qug", "--beta0", "1.0"], "--beta0"),
        (["--method", "qug", "--xi-inf", "8"], "--xi-inf"),
        (["--method", "qug", "--eps", "1e-2"], "--eps"),
    ])
    def test_stray_method_option_is_config_error(self, capsys, argv, flag):
        code, _, err = run(capsys, "solve", *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert flag in err

    def test_unordered_continuation_eps_is_config_error(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "fbf-continuation",
                           "--J", "100", "--eps", "1e-3", "--eps", "1e-2")
        assert code == 2
        assert err.startswith("error: ")

    def test_repeated_fbf_eps_is_config_error(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "fbf", "--J", "100",
                           "--eps", "1e-2", "--eps", "1e-3")
        assert code == 2
        assert "--eps" in err

    @pytest.mark.parametrize("argv, message", [
        (["--method", "qug", "--J", "0"], "J must be at least 3"),
        (["--method", "qug", "--c", "0"], "c must be positive"),
        (["--method", "fbf", "--J", "0"], "J must be at least 2"),
    ])
    def test_zero_grid_values_reach_the_constructor(self, capsys, argv,
                                                    message):
        code, _, err = run(capsys, "solve", *argv)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["--method", "shoot-newton", "--beta0", "1", "--xi-inf", "inf"],
         "xi_infinity and tol must be"),
        (["--method", "shoot-newton", "--beta0", "1", "--tol", "inf"],
         "xi_infinity and tol must be"),
        (["--method", "fbf", "--tol", "inf"], "tol must be"),
        (["--method", "qug", "--tol", "inf"], "tol must be"),
        (["--method", "qug", "--c", "inf"], "c must be"),
    ])
    def test_infinite_value_fails_fast_without_warning(self, capsys, argv,
                                                        message):
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "solve", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert message in err
        assert caught == []

    @pytest.mark.parametrize("argv", [
        ["--method", "shoot-newton", "--beta0", "nan"],
        ["--method", "shoot-secant", "--beta0", "1", "--beta1", "inf"],
    ])
    def test_non_finite_seed_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = run(capsys, "solve", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "initial state must be finite" in err

    @pytest.mark.parametrize("argv, message", [
        (["--method", "fbf", "--eps", "2"], "eps must lie in (0, 1)"),
        (["--method", "shoot-secant", "--beta0", "1.0", "--beta1", "1.0"],
         "secant seeds must differ"),
    ])
    def test_rejected_value_is_exit_two(self, capsys, argv, message):
        code, _, err = run(capsys, "solve", *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert message in err

    def test_solver_failure_is_exit_one(self, capsys):
        # cold QUG at slip, b = 50 converges to a negative beta
        code, _, err = run(capsys, "solve", "--method", "qug", "--bc",
                           "slip", "--b", "50")
        assert code == 1
        assert err.startswith("solver failure: ")
        assert "non-positive beta" in err

    def test_shooting_iteration_cap_is_exit_one(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "shoot-newton",
                           "--beta0", "0.9", "--tol", "1e-300")
        assert code == 1
        assert err.startswith("solver failure: newton did not converge in "
                              "50 iterations")

    def test_non_solver_exception_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a solver failure")

        monkeypatch.setattr(quasi_uniform, "solve_qug", broken)
        with pytest.raises(TypeError):
            main(["solve", "--method", "qug"])

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--method", "qug", "--out",
                           str(tmp_path / "missing" / "x.json"))
        assert code == 1


class TestSweep:
    def test_empty_list_gives_header_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "--method", "qug",
                           "--b-values", "")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows == [cli.SWEEP_HEADER]

    def test_munk_limit_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--method", "qug",
                           "--b-values", "0")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 2
        row = dict(zip(cli.SWEEP_HEADER, rows[1]))
        assert row["status"] == "ok"
        assert float(row["beta_numeric"]) == pytest.approx(1.0, abs=1e-4)
        assert float(row["beta_approx"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["relative_gap"]) < 1e-3

    def test_approximation_gap_grows_with_b(self, capsys):
        code, out, _ = run(capsys, "sweep", "--method", "qug",
                           "--bc", "slip", "--b-values", "0.5,2")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))[1:]
        gaps = [float(dict(zip(cli.SWEEP_HEADER, r))["relative_gap"])
                for r in rows]
        assert gaps[1] > gaps[0]

    def test_negative_b_is_config_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--method", "qug",
                         "--b-values", "-1")
        assert code == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_b_is_config_error(self, bad):
        with pytest.raises(cli.ConfigError):
            cli.sweep_b([0.0, bad], "qug", BcKind.SLIP, J=50, c=5.0)

    def test_warm_started_qug_converges_to_large_b(self):
        b_values = [0, 2, 8, 16, 50]
        rows = cli.sweep_b(b_values, "qug", BcKind.SLIP, J=200, c=5)
        assert [r["status"] for r in rows] == ["ok"] * len(b_values)
        betas = [r["beta_numeric"] for r in rows]
        for b, beta in zip(b_values, betas):
            approx = approx_missing_init(BcKind.SLIP, b)
            assert abs(beta - approx) <= 0.05 * approx
        assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))

    def test_failed_row_names_its_error_class(self):
        # cold-start QUG at b = 16 does not converge in 100 iterations
        rows = cli.sweep_b([16.0], "qug", BcKind.NO_SLIP, J=200, c=5)
        assert rows[0]["status"] == "failed"
        assert rows[0]["error"].startswith("NewtonMaxIterations: ")

    def test_malformed_b_values_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--method", "qug", "--b-values", "1,abc"])
        assert exc.value.code == 2
        assert "--b-values" in capsys.readouterr().err

    def test_stray_method_option_is_config_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--method", "shoot-newton",
                           "--J", "100", "--b-values", "1")
        assert code == 2
        assert "--J" in err

    @pytest.mark.parametrize("method", ["fbf-continuation", "nope"])
    def test_unsweepable_method_fails_before_solving(self, monkeypatch,
                                                     method):
        def never(*args, **kwargs):
            raise AssertionError("solved before the method was checked")

        monkeypatch.setattr(free_boundary, "continuation_solve", never)
        with pytest.raises(cli.ConfigError):
            cli.sweep_b([1.0], method, BcKind.SLIP)

    def test_method_choices_are_the_sweepable_methods(self, capsys):
        parser = cli.build_parser()
        for method in cli.SWEEP_METHODS:
            args = parser.parse_args(["sweep", "--method", method])
            assert args.method == method
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["sweep", "--method", "fbf-continuation"])
        assert exc.value.code == 2

    def test_shooting_sweep_integrates_no_profile(self, dense_integrations):
        rows = cli.sweep_b([0.0, 0.5, 1.0], "shoot-newton", BcKind.SLIP)
        assert [r["status"] for r in rows] == ["ok"] * 3
        assert dense_integrations == []

    def test_non_solver_exception_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a solver failure")

        monkeypatch.setattr(quasi_uniform, "solve_qug", broken)
        with pytest.raises(RuntimeError):
            cli.sweep_b([1.0], "qug", BcKind.SLIP, J=50, c=5.0)


class TestProfile:
    def test_qug_profile_has_infinity_footer(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        assert main(["profile", "--method", "qug", "--bc", "no-slip",
                     "--out", str(path)]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == cli.PROFILE_HEADER
        assert len(rows) == 202  # header + 200 finite nodes + footer
        assert float(rows[1][0]) == 0.0
        assert float(rows[-2][0]) == pytest.approx(5.0 * math.log(200),
                                                   rel=1e-9)
        assert rows[-1][0] == "inf"
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-6)

    def test_fbf_profile_spans_free_boundary(self, capsys):
        code, out, _ = run(capsys, "profile", "--method", "fbf",
                           "--eps", "1e-2", "--J", "500")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == cli.PROFILE_HEADER
        assert len(rows) == 502  # header + 501 nodes, no footer
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-8)
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("command, integrations", [("solve", 0),
                                                    ("profile", 1)])
def test_only_profile_integrates_the_shooting_profile(
        capsys, dense_integrations, command, integrations):
    code, _, _ = run(capsys, command, "--method", "shoot-newton", "--bc",
                     "slip", "--beta0", "0.8")
    assert code == 0
    assert len(dense_integrations) == integrations


class TestTables:
    def test_relaxation_rows_pass(self, capsys):
        code, out, _ = run(capsys, "tables", "--skip", "shoot",
                           "--format", "json")
        assert code == 0
        result = json.loads(out)
        for kind in ("no-slip", "slip"):
            rows = result[kind]["rows"]
            assert len(rows) == 4
            assert all(e["pass"] for e in rows)
            assert {e["method"] for e in rows} == {"fbf", "qug"}

    def test_csv_header_is_stable(self, capsys):
        code, out, _ = run(capsys, "tables", "--skip", "shoot,fbf",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == cli.COMPARISON_HEADER
        assert len(rows) == 5  # header + qug rows for both conditions

    def test_table_format_marks_status(self, capsys):
        code, out, _ = run(capsys, "tables", "--skip", "shoot,fbf")
        assert code == 0
        assert "analytic approximation" in out
        assert "pass" in out


@pytest.mark.parametrize("argv", [
    ["tables", "--bc", "slip"],
    ["tables", "--b", "1"],
    ["tables", "--tol", "1e-3"],
    ["sweep", "--method", "qug", "--b", "1"],
    ["sweep", "--method", "qug", "--tol", "1e-3"],
    ["sweep", "--method", "qug", "--format", "json"],
    ["profile", "--method", "qug", "--format", "csv"],
])
def test_options_a_subcommand_ignores_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
