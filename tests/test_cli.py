import json

import pytest

from pground import traceio
from pground.cli import main
from pground.geometry import write_mask_file

from conftest import hat_function


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

    def test_verbose_keeps_stdout_json(self, tmp_path, capsys):
        prefix = str(tmp_path / "loud")
        code, out, err = run_cli(capsys, "solve", "--domain", "interval",
                                 "--n", "15", "--p", "3", "--verbose",
                                 "--out", prefix)
        assert code == 0
        assert json.loads(out)["converged"] is True
        assert "step 1:" in err

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

    def test_mask_domain(self, tmp_path, capsys, l_mask):
        mask_path = tmp_path / "L.mask"
        write_mask_file(mask_path, l_mask)
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

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        # unreachable inner tolerance: the solver floors out and reports 2
        prefix = str(tmp_path / "stall")
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "15", "--p", "3",
                               "--tol-grad", "1e-30", "--out", prefix)
        assert code == 2
        assert err.startswith("error:")

    def test_config_file(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"p": 3.0, "n": 15}))
        prefix = str(tmp_path / "conf_run")
        code, out, _ = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "15", "--p", "2",
                               "--config", str(conf), "--out", prefix)
        assert code == 0
        # the explicit --p flag wins over the config value
        assert json.loads(out)["p"] == 2.0

    def test_config_unknown_key(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"frobnicate": 1}))
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "15", "--p", "2",
                               "--config", str(conf), "--out", "/tmp/x")
        assert code == 1
        assert "frobnicate" in err


class TestUsageErrors:
    def test_unknown_domain(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--domain", "pentagon",
                               "--n", "8", "--p", "2", "--out", "/tmp/x")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--p", "2", "--out", "/tmp/x")
        assert code == 1

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
                "p,lambda_R,lambda_root,final_ratio,inradius_reciprocal,converged"

    def test_rejects_bad_p_list(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--domain", "interval",
                               "--n", "16", "--p-list", "2,4",
                               "--out", str(tmp_path / "sw"))
        assert code == 1
        assert err.startswith("error:")


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


class TestCheck:
    def test_clean_trace_passes(self, solved_prefix, capsys):
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 0, err
        assert "FAIL" not in out

    def test_uses_recorded_tol_grad(self, tmp_path, capsys):
        prefix = str(tmp_path / "loose")
        code, _, err = run_cli(capsys, "solve", "--domain", "interval",
                               "--n", "63", "--p", "3", "--tol-grad", "1e-5",
                               "--out", prefix)
        assert code == 0, err
        code, out, err = run_cli(capsys, "check", prefix)
        assert code == 0, out + err
        assert "FAIL" not in out
        # an explicit flag still overrides the recorded tolerance
        code, _, _ = run_cli(capsys, "check", prefix, "--tol-grad", "1e-10")
        assert code == 3

    def test_tampered_summary_fails(self, solved_prefix, capsys):
        summary = traceio.read_summary_json(solved_prefix + ".summary.json")
        summary["lambda_Q"] = summary["lambda_Q"] * 1.01
        with open(solved_prefix + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        code, out, err = run_cli(capsys, "check", solved_prefix)
        assert code == 3
        assert "FAIL" in out
        assert err.startswith("error:")

    def test_missing_trace(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope"))
        assert code == 1
        assert err.startswith("error:")
