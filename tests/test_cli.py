import csv
import json
import logging
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pground
import pground.infinity
import pground.iteration
import pground.oracles
from pground import traceio
from pground.cli import main
from pground.geometry import Interval, MaskDomain, Rectangle, shared_grid
from pground.iteration import (DegenerateIterate, PositiveConstant,
                               RandomPositive, inverse_iterate, verify)

from conftest import L_MASK_TEXT, hat_function


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def solved_prefix(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, out, err = run_cli(capsys, "solve", "--domain", "interval",
                             "--n", "31", "--p", "3", "--out", prefix)
    assert code == 0, err
    return prefix


class TestSolve:
    def test_outputs_and_summary(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        code, out, err = run_cli(capsys, "solve", "--domain", "interval",
                                 "--n", "15", "--p", "2", "--out", prefix)
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        assert summary["p"] == 2.0
        on_disk = traceio.read_summary_json(prefix + ".summary.json")
        assert on_disk == summary
        trace = traceio.read_trace_csv(prefix + ".trace.csv",
                                       p=summary["p"], h=summary["h"])
        assert len(trace.steps) == summary["steps"] + 1
        # the final iterate, as `--init file:` reads it
        ran = inverse_iterate(Interval(0.0, 1.0), 15, 2.0, PositiveConstant())
        final = traceio.read_gridfunction_csv(prefix + ".final.csv",
                                              ran.final.grid)
        assert np.array_equal(final.values, ran.final.values)

    def test_verbose_keeps_stdout_json(self, tmp_path, capsys):
        prefix = str(tmp_path / "loud")
        code, out, err = run_cli(capsys, "solve", "--domain", "interval",
                                 "--n", "15", "--p", "3", "--verbose",
                                 "--out", prefix)
        assert code == 0
        assert json.loads(out)["converged"] is True
        assert "step 1:" in err

    def test_verbose_ends_with_its_command(self, tmp_path, capsys, caplog):
        # --verbose writes the `pground` logger's records to stderr; its
        # handler goes, and the logger's level returns, when the command
        # ends, so the plain solve after it logs and prints nothing
        logger = logging.getLogger("pground")
        for flags in (["--verbose"], []):
            caplog.clear()
            code, out, err = run_cli(capsys, "solve", "--domain", "interval",
                                     "--n", "15", "--p", "3", *flags,
                                     "--out", str(tmp_path / "run"))
            assert code == 0
            steps = json.loads(out)["steps"] if flags else 0
            assert len(err.splitlines()) == steps
            assert [r.getMessage() for r in caplog.records] == \
                err.splitlines()
            assert not logger.handlers
            assert logger.level == logging.NOTSET

    def test_rect_requires_bounds(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--domain", "rect",
                               "--n", "8", "--p", "2", "--out", "/tmp/x")
        assert code == 1
        assert err.startswith("error:")

    def test_rect_with_bounds(self, tmp_path, capsys):
        prefix = str(tmp_path / "rect")
        code, out, _ = run_cli(capsys, "solve", "--domain", "rect",
                               "--bounds", "0,2,0,1", "--n", "8",
                               "--p", "2", "--out", prefix)
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_mask_domain(self, tmp_path, capsys):
        mask_path = tmp_path / "L.mask"
        mask_path.write_text(L_MASK_TEXT)
        prefix = str(tmp_path / "L")
        code, out, _ = run_cli(capsys, "solve",
                               "--domain", f"mask:{mask_path}",
                               "--n", "12", "--p", "2", "--out", prefix)
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_random_init_seed(self, tmp_path, capsys):
        prefix = str(tmp_path / "rand")
        code, out, _ = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "15", "--p", "3",
                               "--init", "random:7", "--out", prefix)
        assert code == 0

    def test_file_init(self, tmp_path, capsys, interval_grid):
        u_path = tmp_path / "init.csv"
        traceio.write_gridfunction_csv(u_path, hat_function(interval_grid))
        prefix = str(tmp_path / "filerun")
        code, out, _ = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "31", "--p", "2",
                               "--init", f"file:{u_path}", "--out", prefix)
        assert code == 0

    def test_file_init_read_onto_the_solve_grid(self, tmp_path, capsys,
                                                interval_grid):
        # the init is read onto the grid the solve runs on, so the solve
        # builds one grid
        u_path = tmp_path / "init.csv"
        traceio.write_gridfunction_csv(u_path, hat_function(interval_grid))
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "31", "--p", "2",
                               "--init", f"file:{u_path}",
                               "--out", str(tmp_path / "filerun"))
        assert code == 0, err
        info = shared_grid.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_file_init_on_another_grid(self, tmp_path, capsys,
                                       interval_grid):
        # written on n=31, it leaves 32 of the 63 interior nodes unset
        u_path = tmp_path / "init.csv"
        traceio.write_gridfunction_csv(u_path, hat_function(interval_grid))
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "63", "--p", "2",
                               "--init", f"file:{u_path}",
                               "--out", str(tmp_path / "x"))
        assert code == 1
        assert "exactly once" in err

    def test_file_init_empty_file(self, tmp_path, capsys):
        # an empty file ended in a StopIteration traceback
        u_path = tmp_path / "init.csv"
        u_path.write_text("")
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "31", "--p", "2",
                               "--init", f"file:{u_path}",
                               "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error: ") and "empty file" in err

    def test_file_init_from_ground_state_checks(self, tmp_path, capsys):
        # a start at the fixed point, the final iterate a solve wrote,
        # converges at once; the trace still has the 3 steps `check` needs
        ground = str(tmp_path / "ground")
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "31", "--p", "3", "--out", ground)
        assert code == 0, err
        prefix = str(tmp_path / "warm")
        code, out, err = run_cli(capsys, "solve", "--domain", "interval",
                                 "--n", "31", "--p", "3", "--init",
                                 f"file:{ground}.final.csv", "--out", prefix)
        assert code == 0, err
        assert json.loads(out)["steps"] >= 3
        code, out, err = run_cli(capsys, "check", prefix)
        assert code == 0, out + err
        assert "FAIL" not in out

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        # unreachable inner tolerance: the solver floors out and reports 2
        prefix = str(tmp_path / "stall")
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "15", "--p", "3",
                               "--tol-grad", "1e-30", "--out", prefix)
        assert code == 2
        assert err.startswith("error:")


class TestUsageErrors:
    def test_unknown_domain(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--domain", "pentagon",
                               "--n", "8", "--p", "2", "--out", "/tmp/x")
        assert code == 1
        assert err.startswith("error:")

    def test_bounds_without_rect(self, capsys):
        # the bounds were ignored: the unit square was solved, exit 0
        code, out, err = run_cli(capsys, "solve", "--domain", "square",
                                 "--bounds", "0,2,0,1", "--n", "8", "--p", "3",
                                 "--out", "/tmp/x")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --bounds")

    @pytest.mark.parametrize("where", ["mask", "init", "summary"])
    def test_directory_for_a_file(self, solved_prefix, capsys, where):
        # each ended in an IsADirectoryError traceback
        folder = os.path.dirname(solved_prefix)
        solve = ["solve", "--n", "31", "--p", "3", "--out", folder + "/x"]
        argv = {"mask": [*solve, "--domain", f"mask:{folder}"],
                "init": [*solve, "--domain", "interval",
                         "--init", f"file:{folder}"],
                "summary": ["check", solved_prefix]}[where]
        if where == "summary":
            os.remove(solved_prefix + ".summary.json")
            os.mkdir(solved_prefix + ".summary.json")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--p", "2", "--out", "/tmp/x")
        assert code == 1

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_non_finite_tolerance(self, capsys, tol):
        # a bad setting is a usage error, not a solver failure: with
        # inf the solve ran no inner iteration and reported a degenerate
        # iterate
        code, out, err = run_cli(capsys, "solve", "--domain", "interval",
                                 "--n", "15", "--p", "3", "--tol-grad", tol,
                                 "--out", "/tmp/x")
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol_grad")

    @pytest.mark.parametrize("p", ["1", "0.5", "inf", "nan"])
    def test_bad_p(self, capsys, p):
        code, out, err = run_cli(capsys, "solve", "--domain", "interval",
                                 "--n", "15", "--p", p, "--out", "/tmp/x")
        assert code == 1
        assert out == ""
        assert err.startswith("error: p must")

    @pytest.mark.parametrize("domain, bounds", [
        ("rect", "0,inf,0,1"), ("rect", "-inf,1,0,1"), ("rect", "0,1,nan,1")])
    def test_non_finite_bounds(self, capsys, domain, bounds):
        # an infinite bound ended in an OverflowError traceback from
        # build_grid
        code, out, err = run_cli(capsys, "solve", "--domain", domain,
                                 "--bounds", bounds, "--n", "8", "--p", "3",
                                 "--out", "/tmp/x")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("size", ["nan", "inf"])
    def test_non_finite_mask_cell_size(self, tmp_path, capsys, size):
        # a NaN cell size reached the solver and exited 2 with a
        # degenerate iterate, the code of a solver failure
        path = tmp_path / "bad.mask"
        path.write_text(f"2 2 {size}\n#.\n##\n")
        code, out, err = run_cli(capsys, "solve", "--domain", f"mask:{path}",
                                 "--n", "8", "--p", "3",
                                 "--out", str(tmp_path / "x"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cell_size")
        assert err.rstrip().endswith(f" in {path}")

    def test_mask_without_interior_node(self, tmp_path, capsys):
        # a lone cell with one subdivision at n=3: the solve exited 2 with
        # a degenerate iterate, the code of a solver failure
        path = tmp_path / "dot.mask"
        path.write_text("3 3 1\n...\n.#.\n...\n")
        code, out, err = run_cli(capsys, "solve", "--domain", f"mask:{path}",
                                 "--n", "3", "--p", "3",
                                 "--out", str(tmp_path / "x"))
        assert code == 1
        assert out == ""
        assert err == "error: the grid at n=3 has no interior node\n"

    def test_disconnected_mask_names_file(self, tmp_path, capsys):
        path = tmp_path / "split.mask"
        path.write_text("2 2 0.5\n#.\n.#\n")
        code, out, err = run_cli(capsys, "solve", "--domain", f"mask:{path}",
                                 "--n", "8", "--p", "3",
                                 "--out", str(tmp_path / "x"))
        assert code == 1
        assert out == ""
        assert err == (f"error: mask interior is not 4-connected "
                       f"(2 components) in {path}\n")

    def test_missing_mask_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--domain",
                               "mask:/nonexistent.mask", "--n", "8",
                               "--p", "2", "--out", "/tmp/x")
        assert code == 1
        assert err.startswith("error:")


class TestSweep:
    def test_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "sw")
        code, stdout, _ = run_cli(capsys, "sweep", "--domain", "interval",
                                  "--n", "24", "--p-list", "4,8",
                                  "--out", out)
        assert code == 0
        assert "inradius_reciprocal=2" in stdout
        with open(out + ".sweep.csv") as fh:
            assert fh.readline().strip() == \
                "p,lambda_R,lambda_root,final_ratio,inradius_reciprocal," \
                "converged,predicted"

    def test_verbose_keeps_stdout(self, tmp_path, capsys):
        # --verbose adds the outer steps' lines on stderr and changes
        # nothing on stdout
        args = ["sweep", "--domain", "square", "--n", "16", "--p-list",
                "4,8", "--out", str(tmp_path / "sw")]
        code, plain, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        code, loud, err = run_cli(capsys, *args, "--verbose")
        assert code == 0
        assert loud == plain
        lines = err.splitlines()
        assert lines and all(line.startswith("step ") for line in lines)
        assert lines[0].startswith("step 1: R=")

    def test_degenerate_iterate_exit_code(self, tmp_path, capsys,
                                          monkeypatch):
        # sweep catches NonConvergence and OverflowError per exponent only;
        # a degenerate iterate ends the sweep with an error line, as it ends
        # a solve
        def degenerate(*args, **kwargs):
            raise DegenerateIterate("outer step 1: the iterate vanished")

        monkeypatch.setattr(pground.infinity, "inverse_iterate", degenerate)
        out = str(tmp_path / "sw")
        code, stdout, err = run_cli(capsys, "sweep", "--domain", "interval",
                                    "--n", "16", "--p-list", "4,8",
                                    "--out", out)
        assert code == 2
        assert err.startswith("error: degenerate iterate:")
        assert stdout == ""
        assert not os.path.exists(out + ".sweep.csv")

    def test_rejects_bad_p_list(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--domain", "interval",
                               "--n", "16", "--p-list", "2,4",
                               "--out", str(tmp_path / "sw"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("p", ["inf", "nan", "4,8,inf"])
    def test_rejects_non_finite_p(self, tmp_path, capsys, p):
        # with "4,8,inf" the sweep solved p = 4 and 8 before it raised
        out = str(tmp_path / "sw")
        code, stdout, err = run_cli(capsys, "sweep", "--domain", "interval",
                                    "--n", "16", "--p-list", p, "--out", out)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: p must")
        assert not os.path.exists(out + ".sweep.csv")


class TestOverflow:
    """From the constant start R_0 is about (1/h)^p, past the float range at
    p = 256 on the interval n=63."""

    @pytest.mark.parametrize("argv", [["solve", "--p", "256"]],
                             ids=["solve"])
    def test_error_line_and_exit_code(self, tmp_path, argv):
        # a console process, so that an uncaught exception would print its
        # traceback on stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "pground.cli", *argv, "--domain",
             "interval", "--n", "63", "--out", str(tmp_path / "big")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "overflow" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oracle_error_line_and_exit_code(self):
        # the brute-force quotient at p = 1000 overflows in the oracle,
        # which raised its traceback with exit 1
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "pground.cli", "oracle", "--method",
             "bruteforce", "--domain", "interval", "--n", "3", "--p", "1000",
             "--restarts", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: floating-point overflow")
        assert "Traceback" not in proc.stderr

    def test_sweep_records_overflow_as_not_converged(self, tmp_path, capsys):
        # an overflowing point raised out of the sweep and lost the points
        # before it; now it is a row that did not converge, and the sweep
        # exits 2 as for a point that raised NonConvergence
        out = str(tmp_path / "big")
        code, stdout, err = run_cli(capsys, "sweep", "--domain", "interval",
                                    "--n", "63", "--p-list", "64,128,1024",
                                    "--out", out)
        assert code == 2, err
        assert err == ""
        with open(out + ".sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["converged"] for row in rows] == ["1", "1", "0"]
        assert all(float(row["lambda_R"]) > 0 for row in rows[:2])
        assert math.isnan(float(rows[2]["lambda_R"]))


class TestOracle:
    def test_dense(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--method", "dense",
                               "--domain", "interval", "--n", "15")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "dense"
        assert payload["p"] == 2.0
        assert payload["value"] > 9.0

    def test_shooting(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--method", "shooting",
                               "--domain", "interval", "--n", "15",
                               "--p", "2", "--tol", "1e-8")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(9.8696, abs=1e-3)

    def test_shooting_rejects_2d(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--method", "shooting",
                               "--domain", "square", "--n", "15")
        assert code == 1

    def test_bruteforce(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--method", "bruteforce",
                               "--domain", "interval", "--n", "5",
                               "--p", "3", "--restarts", "8")
        assert code == 0
        assert json.loads(out)["value"] > 0

    @pytest.mark.parametrize("argv", [
        ["shooting", "--p", "inf"],
        ["bruteforce", "--p", "inf", "--restarts", "1"],
    ], ids=["shooting", "bruteforce"])
    def test_infinite_p_is_usage_error(self, argv):
        # the shooting oracle failed to bracket with a traceback, and the
        # brute-force one took the quotient of the zero function; a console
        # process, so that an uncaught exception would print its traceback
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "pground.cli", "oracle", "--method",
             *argv, "--domain", "interval", "--n", "3"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "p must be finite and exceed 1, got inf" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_shooting_bracket_failure_exit_code(self, capsys, monkeypatch):
        # an ODE without a zero inside (0, 1) never gives an upper end of
        # the bracket: after 200 doublings the oracle gives up
        monkeypatch.setattr(pground.oracles, "_first_zero",
                            lambda p, lam: (None, None))
        code, out, err = run_cli(capsys, "oracle", "--method", "shooting",
                                 "--domain", "interval", "--n", "3",
                                 "--p", "200")
        assert code == 2
        assert out == ""
        assert err.startswith("error: shooting failed to bracket")
        assert "p=200" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["bruteforce", "--p", "3", "--restarts", "0"],
        ["bruteforce", "--p", "3", "--restarts", "-3"],
        ["shooting", "--p", "3", "--tol", "inf"],
    ], ids=["restarts0", "restarts-3", "tol-inf"])
    def test_no_value_is_usage_error(self, capsys, argv):
        # each printed a value of Infinity, which is not JSON, and exited 0
        code, out, err = run_cli(capsys, "oracle", "--method", *argv,
                                 "--domain", "interval", "--n", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestCheck:
    def test_clean_trace_passes(self, solved_prefix, capsys):
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 0, err
        assert "FAIL" not in out

    def test_uses_recorded_tol_grad(self, tmp_path, capsys):
        # a tolerance loose enough that the trace fails the slack of
        # --tol-grad 1e-10 by far, its claims (b) and (c) about 2.6e-3 below
        # it, and passes the slack of its own 1e-2 by about 1.  (At p=3 and
        # 1e-3 the Newton steps of a re-lagged factor end each solve far
        # below its tolerance, and the trace passes 1e-10 as well)
        prefix = str(tmp_path / "loose")
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "63", "--p", "6", "--tol-grad", "1e-2",
                               "--out", prefix)
        assert code == 0, err
        code, out, err = run_cli(capsys, "check", prefix)
        assert code == 0, out + err
        assert "FAIL" not in out

    @pytest.mark.parametrize("argv", [
        ("solve", "--domain", "interval", "--n", "31", "--p", "3",
         "--tol", "inf"),
        ("sweep", "--domain", "square", "--n", "16", "--tol", "nan")],
        ids=["solve_inf", "sweep_nan"])
    def test_bad_outer_tolerance_is_usage_error(self, tmp_path, capsys, argv):
        # an infinite tolerance stopped every solve at its third step as
        # converged (exit 0), and NaN ran every solve to its step limit
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "tol_outer" in err

    def test_estimator_gap_failure_exit_code(self, solved_prefix, capsys):
        # a gap of about 2e-6, twice GAP_TOL
        summary = traceio.read_summary_json(solved_prefix + ".summary.json")
        summary["lambda_Q"] *= 1 + 2e-6
        with open(solved_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 3
        assert "FAIL  estimator gap" in out
        assert err.startswith("error: 1 check(s) failed: estimator gap")

    @pytest.mark.parametrize("value", [math.inf, -1.0, math.nan])
    def test_bad_recorded_tol_grad_is_usage_error(self, solved_prefix, capsys,
                                                  value):
        # json writes these as Infinity, -1.0 and NaN
        summary = traceio.read_summary_json(solved_prefix + ".summary.json")
        summary["tol_grad"] = value
        with open(solved_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol_grad")

    @pytest.mark.parametrize("key, value", [
        ("p", None), ("h", "x"), ("steps", 2.5), ("lambda_R", None),
        ("lambda_Q", "1.0"), ("mu", -1.0), ("converged", "yes"),
        ("tol_grad", None), ("barrier_bound", None),
        ("first_step_sup", [1.0])])
    def test_bad_summary_value_is_usage_error(self, solved_prefix, capsys,
                                              key, value):
        # a null ended in a TypeError traceback, and "h": "x" or
        # "converged": "yes" passed the check
        summary = traceio.read_summary_json(solved_prefix + ".summary.json")
        summary[key] = value
        with open(solved_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {key} must be ")

    def test_summary_missing_key_is_usage_error(self, solved_prefix, capsys):
        summary = traceio.read_summary_json(solved_prefix + ".summary.json")
        del summary["lambda_R"]
        with open(solved_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "lacks lambda_R" in err

    def test_empty_trace_csv_is_usage_error(self, solved_prefix, capsys):
        # an empty trace CSV ended in a StopIteration traceback
        Path(solved_prefix + ".trace.csv").write_text("")
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "empty file" in err

    def test_tampered_summary_fails(self, solved_prefix, capsys):
        summary = traceio.read_summary_json(solved_prefix + ".summary.json")
        summary["lambda_Q"] = summary["lambda_Q"] * 1.01
        with open(solved_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 3
        assert "FAIL" in out
        assert err.startswith("error:")

    def test_checks_barrier(self, solved_prefix, capsys):
        code, out, _ = run_cli(capsys, "check", solved_prefix)
        assert code == 0
        assert "PASS  barrier sup bound" in out
        summary = traceio.read_summary_json(solved_prefix + ".summary.json")
        summary["first_step_sup"] = 2.0 * summary["barrier_bound"]
        with open(solved_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 3
        assert "FAIL  barrier sup bound" in out
        assert "barrier sup bound" in err

    def test_summary_without_recent_keys(self, solved_prefix, capsys):
        summary = traceio.read_summary_json(solved_prefix + ".summary.json")
        for key in ("barrier_bound", "first_step_sup", "tol_grad"):
            del summary[key]
        with open(solved_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 0, out + err
        assert "SKIP  barrier sup bound" in out
        assert "FAIL" not in out

    def test_nan_row_fails(self, solved_prefix, capsys):
        path = solved_prefix + ".trace.csv"
        with open(path) as fh:
            lines = fh.read().splitlines()
        row = lines[4].split(",")  # header, then k = 0, 1, 2, 3
        assert row[0] == "3"
        row[1] = row[2] = "nan"
        lines[4] = ",".join(row)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 3
        assert "FAIL  (a)" in out and "FAIL  (b)" in out

    def test_truncated_trace_rejected(self, solved_prefix, capsys):
        path = solved_prefix + ".trace.csv"
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:-2]) + "\n")
        code, _, err = run_cli(capsys, "check", solved_prefix)
        assert code == 1
        assert "summary records" in err

    def test_short_row_is_usage_error(self, solved_prefix, capsys):
        # it ended in an IndexError traceback
        path = solved_prefix + ".trace.csv"
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:3])  # the k = 1 row
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "line 3" in err

    def test_relabelled_k_is_usage_error(self, solved_prefix, capsys):
        # k relabelled 0, 2, 3, ... passed the check (exit 0)
        path = solved_prefix + ".trace.csv"
        with open(path) as fh:
            lines = fh.read().splitlines()
        for i in range(2, len(lines)):  # the rows from k = 1 on
            row = lines[i].split(",")
            lines[i] = ",".join([str(int(row[0]) + 1)] + row[1:])
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "line 3: k is 2, expected 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("domain, n, p, init", [
        ("interval", 31, 3.0, "const"),
        ("square", 16, 1.5, "random:3"),
        ("lshape", 16, 6.0, "const"),
    ])
    def test_verdict_from_disk_matches_memory(self, tmp_path, capsys, l_mask,
                                              domain, n, p, init):
        specs = {"interval": Interval(0.0, 1.0),
                 "square": Rectangle(0.0, 1.0, 0.0, 1.0), "lshape": l_mask}
        flag = domain
        if domain == "lshape":
            (tmp_path / "L.mask").write_text(L_MASK_TEXT)
            flag = f"mask:{tmp_path / 'L.mask'}"
        prefix = str(tmp_path / "run")
        code, _, err = run_cli(capsys, "solve", "--domain", flag,
                               "--n", str(n), "--p", str(p), "--init", init,
                               "--out", prefix)
        assert code == 0, err
        policy = PositiveConstant() if init == "const" else RandomPositive(3)
        in_memory = verify(inverse_iterate(specs[domain], n, p, policy))
        from_disk = verify(traceio.read_trace(prefix))
        assert in_memory.all_passed, str(in_memory)
        assert [(c.name, c.passed, c.worst_margin, c.worst_index)
                for c in from_disk.claims] == [
            (c.name, c.passed, c.worst_margin, c.worst_index)
            for c in in_memory.claims]

    def test_missing_trace(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope"))
        assert code == 1
        assert err.startswith("error:")


class TestExperimentScripts:
    """scripts/reproduce.py exits 0 when every run converges and no
    sup-norm claim fails, and 1 otherwise."""

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"

    def _run(self, monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", ["reproduce.py", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        return exc.value.code

    def test_exit_0_at_small_size(self, monkeypatch, capsys):
        assert self._run(monkeypatch, "--size", "small") == 0
        out = capsys.readouterr().out
        assert out.count("p = 32 sup-norm claim: pass") == 1
        assert out.count("claim: skip") == 4
        assert "False" not in out and "not converged" not in out

    def test_rejects_other_sizes(self, monkeypatch, capsys):
        assert self._run(monkeypatch, "--size", "tiny") == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, point", [
        (Interval, (63, 3.0)), (Rectangle, (16, 8.0)),
        (MaskDomain, (16, 8.0))], ids=["interval", "square", "l_shape"])
    def test_exit_1_on_unconverged_run(self, monkeypatch, capsys, kind,
                                       point):
        # the run at point (n, p) of one experiment reports no convergence
        iterate = pground.iteration.inverse_iterate

        def run(spec, n, p, *args, **kwargs):
            tr = iterate(spec, n, p, *args, **kwargs)
            tr.converged &= not (isinstance(spec, kind) and (n, p) == point)
            return tr
        monkeypatch.setattr(pground, "inverse_iterate", run)
        monkeypatch.setattr(pground.infinity, "inverse_iterate", run)
        # the shooting reference is only printed; a constant stands in for
        # its cost
        monkeypatch.setattr(pground, "lambda_p_shooting_1d", lambda p: 1.0)
        assert self._run(monkeypatch, "--size", "small") == 1
        out = capsys.readouterr().out
        assert out.count("(not converged)") == (kind is Interval)
        assert out.count(" False") == (kind is not Interval)

    def test_exit_1_on_failed_supnorm_check(self, monkeypatch, capsys):
        # a limit eigenvalue ten times too large fails the claim at p=32
        check = pground.monotone_supnorm_check
        monkeypatch.setattr(pground, "monotone_supnorm_check",
                            lambda tr, lam: check(tr, 10.0 * lam))
        monkeypatch.setattr(pground, "lambda_p_shooting_1d", lambda p: 1.0)
        assert self._run(monkeypatch, "--size", "small") == 1
        out = capsys.readouterr().out
        assert "p = 32 sup-norm claim: fail, worst margin -" in out
        assert "False" not in out and "not converged" not in out
