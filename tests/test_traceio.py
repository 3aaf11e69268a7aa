import csv
import math

import numpy as np
import pytest

from pground import traceio
from pground.calculus import GridFunction
from pground.geometry import Interval, build_grid
from pground.infinity import sweep
from pground.iteration import PositiveConstant, check_monotonicity, \
    inverse_iterate

from conftest import hat_function


@pytest.fixture(scope="module")
def trace():
    return inverse_iterate(Interval(0.0, 1.0), 31, 3.0, PositiveConstant())


class TestTraceCsv:
    def test_header(self, tmp_path, trace):
        path = tmp_path / "run.trace.csv"
        traceio.write_trace_csv(path, trace)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["k", "R_k", "N_k", "Q_k", "sup_norm", "grad_sup",
                          "norm_factor", "inner_iters"]

    def test_round_trip_bit_exact(self, tmp_path, trace):
        path = tmp_path / "run.trace.csv"
        traceio.write_trace_csv(path, trace)
        back = traceio.read_trace_csv(path, p=trace.p, h=trace.h,
                                      tol_grad=trace.tol_grad)
        assert len(back.steps) == len(trace.steps)
        for a, b in zip(trace.steps, back.steps):
            assert b.k == a.k
            assert b.R == a.R
            assert (b.N == a.N) or (math.isnan(a.N) and math.isnan(b.N))
            assert b.norm_factor == a.norm_factor
            assert b.inner_iters == a.inner_iters
            assert b.report.sup_norm == a.report.sup_norm
            assert b.report.grad_sup == a.report.grad_sup

    def test_checks_run_on_read_trace(self, tmp_path, trace):
        path = tmp_path / "run.trace.csv"
        traceio.write_trace_csv(path, trace)
        back = traceio.read_trace_csv(path, p=trace.p, h=trace.h,
                                      tol_grad=trace.tol_grad)
        back.lambda_R = trace.lambda_R
        assert check_monotonicity(back).all_passed

    @pytest.mark.parametrize("fields, message", [
        (lambda row: row[:5], "5 fields, expected 8"),
        (lambda row: ["x"] + row[1:], "invalid literal for int"),
        (lambda row: row[:7] + ["2.5"], "invalid literal for int"),
        (lambda row: row[:1] + ["R"] + row[2:], "could not convert")],
        ids=["short", "k", "inner_iters", "R"])
    def test_bad_row_names_file_and_line(self, tmp_path, trace, fields,
                                         message):
        # a short row ended in an IndexError, a bad field in a ValueError
        # that named neither the file nor the line
        path = tmp_path / "run.trace.csv"
        traceio.write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(fields(lines[2].split(",")))  # the k = 1 row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"run\.trace\.csv, line 3: "
                                             + message):
            traceio.read_trace_csv(path, p=trace.p, h=trace.h)

    @pytest.mark.parametrize("ks, line, message", [
        ([0, 2, 3, 4, 5], 3, "k is 2, expected 1"),
        ([0, 1, 1, 2, 3], 4, "k is 1, expected 2"),
        ([1, 2, 3, 4, 5], 2, "k is 1, expected 0")],
        ids=["gap", "repeat", "from_1"])
    def test_k_out_of_order_names_file_and_line(self, tmp_path, trace, ks,
                                                line, message):
        # a relabelled k was read as written, and `verify` passed it;
        # `monotone_supnorm_check` weighs each step by its k
        prefix = str(tmp_path / "run")
        traceio.write_trace_csv(prefix + ".trace.csv", trace)
        traceio.write_summary_json(prefix + ".summary.json", trace)
        path = tmp_path / "run.trace.csv"
        lines = path.read_text().splitlines()
        for i, k in enumerate(ks, start=1):
            lines[i] = ",".join([str(k)] + lines[i].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"run\.trace\.csv, line {line}: "
                                             + message):
            traceio.read_trace(prefix)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            traceio.read_trace_csv(path, p=2.0, h=0.1)

    def test_empty_file_names_file(self, tmp_path):
        # an empty file ended in a StopIteration from the header read
        path = tmp_path / "run.trace.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"run\.trace\.csv: empty file"):
            traceio.read_trace_csv(path, p=2.0, h=0.1)


class TestSummaryJson:
    def test_round_trip(self, tmp_path, trace):
        path = tmp_path / "run.summary.json"
        traceio.write_summary_json(path, trace)
        back = traceio.read_summary_json(path)
        assert set(back) == {"p", "h", "lambda_R", "lambda_Q", "mu", "steps",
                             "converged", "tol_grad", "barrier_bound",
                             "first_step_sup"}
        assert back["tol_grad"] == trace.tol_grad
        assert back["barrier_bound"] == trace.barrier_bound
        assert back["first_step_sup"] == trace.first_step_sup
        assert back["lambda_R"] == trace.lambda_R
        assert back["steps"] == trace.num_steps
        assert back["converged"] is True


class TestSweepCsv:
    def test_header_and_rows(self, tmp_path):
        result = sweep(Interval(0.0, 1.0), 16, (4.0, 8.0))
        path = tmp_path / "out.sweep.csv"
        traceio.write_sweep_csv(path, result)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "lambda_R", "lambda_root", "final_ratio",
                           "inradius_reciprocal", "converged", "predicted"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 4.0
        assert float(rows[1][4]) == pytest.approx(2.0)
        assert rows[1][5] == "1"
        # the first point starts from the constant, the second from the
        # one converged final before it
        assert [row[6] for row in rows[1:]] == ["0", "0"]


class TestGridFunctionCsv:
    def test_round_trip_1d(self, tmp_path, interval_grid):
        u = hat_function(interval_grid)
        path = tmp_path / "u.csv"
        traceio.write_gridfunction_csv(path, u)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["x", "value"]
        back = traceio.read_gridfunction_csv(path, interval_grid)
        assert np.array_equal(back.values, u.values)

    def test_round_trip_2d(self, tmp_path, square_grid):
        rng = np.random.default_rng(0)
        u = GridFunction.from_interior(
            square_grid, rng.standard_normal(square_grid.num_interior))
        path = tmp_path / "u2.csv"
        traceio.write_gridfunction_csv(path, u)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["x", "y", "value"]
        back = traceio.read_gridfunction_csv(path, square_grid)
        assert np.array_equal(back.values, u.values)

    def test_dimension_mismatch(self, tmp_path, interval_grid, square_grid):
        path = tmp_path / "u.csv"
        traceio.write_gridfunction_csv(path, hat_function(interval_grid))
        with pytest.raises(ValueError):
            traceio.read_gridfunction_csv(path, square_grid)

    def test_off_grid_coordinate_rejected(self, tmp_path, interval_grid):
        path = tmp_path / "u.csv"
        path.write_text("x,value\n0.123456,1.0\n")
        with pytest.raises(ValueError):
            traceio.read_gridfunction_csv(path, interval_grid)

    def test_missing_nodes_rejected(self, tmp_path, interval_grid):
        # n=31 nodes are every other node of n=63; one row is one node
        path = tmp_path / "u.csv"
        traceio.write_gridfunction_csv(path, hat_function(interval_grid))
        with pytest.raises(ValueError, match="exactly once"):
            traceio.read_gridfunction_csv(path,
                                          build_grid(Interval(0.0, 1.0), 63))
        path.write_text("x,value\n0.5,1.0\n")
        with pytest.raises(ValueError, match="exactly once"):
            traceio.read_gridfunction_csv(path, interval_grid)

    def test_repeated_node_rejected(self, tmp_path, square_grid):
        path = tmp_path / "u.csv"
        traceio.write_gridfunction_csv(path, GridFunction.constant(square_grid))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[5]]) + "\n")
        with pytest.raises(ValueError, match="exactly once"):
            traceio.read_gridfunction_csv(path, square_grid)

    @pytest.mark.parametrize("dim, text, message", [
        (1, "", ": empty file"),
        (1, "x,value\n0.5,0.2,0.3\n", ", line 2: 3 fields, expected 2"),
        (2, "x,y,value\n0.5,0.2\n", ", line 2: 2 fields, expected 3"),
        (1, "x,value\n\n", ", line 2: 0 fields, expected 2"),
        (1, "x,value\n0.5,v\n", ", line 2: could not convert")],
        ids=["empty", "long_1d", "short_2d", "blank", "not_a_number"])
    def test_bad_file_names_file_and_line(self, tmp_path, interval_grid,
                                          square_grid, dim, text, message):
        # an empty file ended in a StopIteration from the header read and a
        # long 1D row in an IndexError; a short 2D row wrote a whole row of
        # the grid and failed only on the node count
        path = tmp_path / "u.csv"
        path.write_text(text)
        grid = interval_grid if dim == 1 else square_grid
        with pytest.raises(ValueError, match=r"u\.csv" + message):
            traceio.read_gridfunction_csv(path, grid)

    def test_seventeen_digit_floats(self, tmp_path, interval_grid):
        vals = np.zeros(interval_grid.shape)
        vals[5] = 1.0 / 3.0
        traceio.write_gridfunction_csv(tmp_path / "u.csv",
                                       GridFunction(interval_grid, vals))
        text = (tmp_path / "u.csv").read_text()
        assert "0.33333333333333331" in text
