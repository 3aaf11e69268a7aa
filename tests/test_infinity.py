import math

import numpy as np
import pytest

import pground.infinity
import pground.inner
from pground.calculus import GridFunction, rayleigh_quotient
from pground.geometry import Interval, MaskDomain, Rectangle, shared_grid
from pground.infinity import _continued_start, monotone_supnorm_check, sweep
from pground.inner import NonConvergence
from pground.iteration import (Custom, PositiveConstant, inverse_iterate,
                               verify)


@pytest.fixture(scope="module")
def interval_sweep():
    # interval (0, 1): reciprocal inradius 2, fast enough for every test run
    return sweep(Interval(0.0, 1.0), 64, (4.0, 8.0, 16.0, 32.0),
                 tol_outer=1e-8)


@pytest.fixture(scope="module", params=[
    (Interval(0.0, 1.0), 63), (Rectangle(0.0, 1.0, 0.0, 1.0), 16)],
    ids=["interval", "square"])
def continued_sweep(request):
    """A sweep and, per exponent, the standalone constant-init solve."""
    spec, n = request.param
    result = sweep(spec, n, (4.0, 8.0, 16.0, 32.0))
    alone = [inverse_iterate(spec, n, e.p, PositiveConstant(), tol_outer=1e-8)
             for e in result.entries]
    return result, alone


def capture_inits(monkeypatch, fail_at=None):
    """Record the init of each sweep point; raise NonConvergence at
    fail_at."""
    inits = []
    point = pground.infinity.inverse_iterate

    def capturing(spec, n, p, init, **kwargs):
        inits.append(init)
        if p == fail_at:
            raise NonConvergence(1.0, 0.1, 5)
        return point(spec, n, p, init, **kwargs)

    monkeypatch.setattr(pground.infinity, "inverse_iterate", capturing)
    return inits


def expected_start(finals, p):
    """(values, predicted): the polynomial in 1/p through the (p, final)
    pairs, at p and clipped at 0, where its Rayleigh quotient at p is below
    the last final's; else the last final."""
    last = finals[-1][1]
    t = [1.0 / q for q, _ in finals]
    coef = np.polyfit(t, np.array([u.values.ravel() for _, u in finals]),
                      len(finals) - 1)
    pred = np.maximum(np.polyval(coef, 1.0 / p), 0.0).reshape(last.grid.shape)
    pred[~last.grid.interior] = 0.0
    if (math.log(rayleigh_quotient(GridFunction(last.grid, pred), p))
            < math.log(rayleigh_quotient(last, p))):
        return pred, True
    return last.values, False


def assert_started_from(init, values, predicted):
    assert isinstance(init, Custom)
    scale = np.abs(values).max()
    assert np.allclose(init.function.values, values, rtol=0.0,
                       atol=1e-12 * scale), "start differs"
    if not predicted:
        assert np.array_equal(init.function.values, values)


class TestPredictedStart:
    """From the third point on, a sweep point starts from the extrapolation
    in 1/p of the last (up to three) converged finals when that has the
    lower Rayleigh quotient at the new p, else from the last final."""

    # measured on the square n=16: over p = 4..64 the last final at 16 and
    # 32 (log R lower by 0.20 and 0.17), the quadratic at 64 (by 0.19);
    # over p = 16..64 the secant at 64
    @pytest.mark.parametrize("p_list, taken", [
        ((4.0, 8.0, 16.0, 32.0, 64.0), [False, False, True]),
        ((16.0, 32.0, 64.0), [True])], ids=["quadratic", "secant"])
    def test_start_has_the_lower_quotient(self, monkeypatch, p_list, taken):
        inits = capture_inits(monkeypatch)
        result = sweep(Rectangle(0.0, 1.0, 0.0, 1.0), 16, p_list)
        assert all(e.converged for e in result.entries)
        assert isinstance(inits[0], PositiveConstant)
        assert inits[1].function is result.traces[0].final
        assert [e.predicted for e in result.entries[:2]] == [False, False]
        chosen = []
        for i in range(2, len(p_list)):
            finals = [(p, tr.final) for p, tr in
                      zip(p_list[:i], result.traces[:i])][-3:]
            values, predicted = expected_start(finals, p_list[i])
            assert result.entries[i].predicted == predicted, p_list[i]
            assert_started_from(inits[i], values, predicted)
            chosen.append(predicted)
        assert chosen == taken

    def test_prediction_clipped_at_zero(self):
        # the secant from p = 4 and 8 to 16 is 1.5 x8 - 0.5 x4: the sine,
        # but -sin(pi h) at the two end nodes.  No prediction of the sweeps
        # above has a negative value, so this one is built
        grid = shared_grid(Interval(0.0, 1.0), 31)
        phi = np.sin(np.pi * grid.node_coords()[grid.interior])
        wiggle = 0.3 * phi * (-1.0) ** np.arange(phi.size)
        ends = np.zeros(phi.size)
        ends[[0, -1]] = 2.0 * phi[0]
        finals = [(4.0, GridFunction.from_interior(grid, phi + 3 * wiggle
                                                   + 2 * ends)),
                  (8.0, GridFunction.from_interior(grid, phi + wiggle))]
        init, predicted = _continued_start(finals, 16.0)
        assert predicted
        start = init.function.values[grid.interior]
        assert start[0] == start[-1] == 0.0
        assert np.allclose(start[1:-1], phi[1:-1], rtol=0.0, atol=1e-14)

    def test_zero_prediction_keeps_last_final(self):
        # the secant from 4 and 1 at p = 4 and 8 is -0.5 at p = 16, and 0
        # once clipped: a start with no Rayleigh quotient
        grid = shared_grid(Interval(0.0, 1.0), 31)
        finals = [(4.0, GridFunction.constant(grid, 4.0)),
                  (8.0, GridFunction.constant(grid, 1.0))]
        init, predicted = _continued_start(finals, 16.0)
        assert not predicted
        assert init.function is finals[-1][1]


class TestContinuationInP:
    """Each exponent after the first starts from the previous exponent's
    ground state."""

    def test_lambda_matches_standalone_solve(self, continued_sweep):
        result, alone = continued_sweep
        for tr, ref in zip(result.traces, alone):
            assert tr.converged
            assert abs(tr.lambda_R - ref.lambda_R) <= 1e-8 * ref.lambda_R
            report = verify(tr)
            assert report.all_passed, f"p={tr.p}:\n{report}"

    def test_first_step_cheaper_than_constant_start(self, continued_sweep):
        result, alone = continued_sweep
        # the first exponent starts from the constant, like the reference
        assert result.traces[0].steps[1].inner_iters == \
            alone[0].steps[1].inner_iters
        for tr, ref in zip(result.traces[1:], alone[1:]):
            assert tr.steps[1].inner_iters < ref.steps[1].inner_iters, tr.p

    def test_close_exponents(self):
        # the start is nearly the fixed point; the trace still has the
        # steps the claims need
        result = sweep(Interval(0.0, 1.0), 63, (4.0, 4.001))
        tr = result.traces[1]
        assert tr.converged and tr.num_steps >= 3
        report = verify(tr)
        assert report.all_passed, str(report)

    def test_nonconvergence_keeps_last_converged_start(self, monkeypatch):
        inits = capture_inits(monkeypatch, fail_at=8.0)
        p_list = (4.0, 8.0, 16.0, 32.0)
        result = sweep(Interval(0.0, 1.0), 31, p_list)
        assert [e.converged for e in result.entries] == [True, False, True,
                                                         True]
        assert isinstance(inits[0], PositiveConstant)
        # the failed point enters no later start: 8 and 16 start from the
        # p=4 final, the only converged one before them
        for init in inits[1:3]:
            assert init.function is result.traces[0].final
        assert not any(e.predicted for e in result.entries[:3])
        # 32 starts from the secant through the p = 4 and 16 finals or from
        # the p=16 final, whichever has the lower quotient at 32
        finals = [(4.0, result.traces[0].final),
                  (16.0, result.traces[2].final)]
        values, predicted = expected_start(finals, 32.0)
        assert result.entries[3].predicted == predicted
        assert_started_from(inits[3], values, predicted)

    def test_overflow_recorded_as_not_converged(self):
        # lambda_R overflows the float range near p = 1024; the point is
        # recorded as a NonConvergence point is, and the earlier ones keep
        # the values a sweep without it gives
        spec = Interval(0.0, 1.0)
        result = sweep(spec, 63, (64.0, 128.0, 1024.0))
        alone = sweep(spec, 63, (64.0, 128.0))
        assert result.entries[:2] == alone.entries
        assert all(e.converged for e in result.entries[:2])
        last = result.entries[2]
        assert not last.converged
        assert math.isnan(last.lambda_R) and math.isnan(last.lambda_root)
        assert result.traces[2] is None


class TestDefaultSweepConverges:
    """Under the default K_max every point of these sweeps converges; at
    60 outer steps the L-shape's p=64 point (117 steps) and the 2x1
    rectangle's p=32 and p=64 points (62 and 97) stopped unconverged."""

    @pytest.mark.parametrize("spec, n", [
        (MaskDomain(2, 2, np.array([[True, True], [True, False]]), 0.5), 32),
        (Rectangle(0.0, 2.0, 0.0, 1.0), 48)], ids=["l_shape", "rectangle"])
    def test_every_point_converges(self, spec, n):
        result = sweep(spec, n, (4.0, 8.0, 16.0, 32.0, 64.0))
        assert [e.converged for e in result.entries] == [True] * 5
        for tr in result.traces:
            report = verify(tr)
            assert report.all_passed, f"p={tr.p}:\n{report}"


class TestSweepValidation:
    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            sweep(Interval(0.0, 1.0), 16, (2.0, 4.0))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            sweep(Interval(0.0, 1.0), 16, (8.0, 4.0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            sweep(Interval(0.0, 1.0), 16, (4.0, 4.0))

    @pytest.mark.parametrize("p_list", [(4.0, 8.0, math.inf),
                                        (4.0, math.nan)], ids=["inf", "nan"])
    def test_checks_every_exponent_before_solving(self, monkeypatch, p_list):
        # the exponents before a non-finite one were solved, then the sweep
        # raised and its result was lost
        calls = []
        monkeypatch.setattr(pground.infinity, "inverse_iterate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="finite"):
            sweep(Interval(0.0, 1.0), 16, p_list)
        assert calls == []


class TestSweepResults:
    def test_all_converged(self, interval_sweep):
        assert all(e.converged for e in interval_sweep.entries)

    def test_reciprocal_inradius(self, interval_sweep):
        assert interval_sweep.inradius_reciprocal == pytest.approx(2.0)

    def test_roots_decrease_toward_target(self, interval_sweep):
        roots = [e.lambda_root for e in interval_sweep.entries]
        assert all(a > b - 0.02 * b for a, b in zip(roots, roots[1:]))
        dists = [abs(r - 2.0) for r in roots]
        assert dists[-1] < dists[0]
        assert abs(roots[-1] - 2.0) / 2.0 < 0.15

    def test_root_consistent_with_lambda(self, interval_sweep):
        for e in interval_sweep.entries:
            assert math.log(e.lambda_root) == pytest.approx(
                math.log(e.lambda_R) / e.p, rel=1e-12)

    def test_final_ratio_near_target(self, interval_sweep):
        e = interval_sweep.entries[-1]
        assert abs(e.final_ratio - 2.0) / 2.0 < 0.25

    def test_ratio_sequence_recorded(self, interval_sweep):
        for e, tr in zip(interval_sweep.entries, interval_sweep.traces):
            ratios = [s.report.grad_sup / s.report.sup_norm
                      for s in tr.steps[1:]]
            assert len(ratios) >= 2
            assert e.final_ratio == ratios[-1]

    def test_traces_align_with_entries(self, interval_sweep):
        assert len(interval_sweep.traces) == len(interval_sweep.entries)
        for e, tr in zip(interval_sweep.entries, interval_sweep.traces):
            assert tr is not None and tr.p == e.p


class TestInfinityGroundState:
    """On the interval (0, 1) the infinity-Laplacian ground state is the
    distance to the boundary scaled to max 1, the tent 1 - 2|x - 1/2|, and
    the infinity eigenvalue is 1/inradius = 2.  The scheme's ground states
    approach both as p grows."""

    P_LIST = (64.0, 128.0, 256.0, 512.0)
    # three times the sup-norm distances to the tent measured at these p
    # (1.40e-4, 8.44e-6, 7.24e-8, 1.07e-11)
    TENT_BOUNDS = (4.2e-4, 2.6e-5, 2.2e-7, 3.3e-11)

    @pytest.fixture(scope="class")
    def large_p_sweep(self):
        return sweep(Interval(0.0, 1.0), 63, self.P_LIST)

    def test_iterates_approach_the_tent(self, large_p_sweep):
        dists = []
        for entry, trace in zip(large_p_sweep.entries, large_p_sweep.traces):
            assert entry.converged
            u = trace.final
            x = u.grid.node_coords()
            tent = 1.0 - 2.0 * np.abs(x - 0.5)
            dists.append(float(np.abs(u.values / np.abs(u.values).max()
                                      - tent).max()))
        assert all(a > b for a, b in zip(dists, dists[1:]))
        for p, dist, bound in zip(self.P_LIST, dists, self.TENT_BOUNDS):
            assert dist <= bound, f"p={p}: {dist:.3e} > {bound:.1e}"

    def test_lambda_root_decreases_to_reciprocal_inradius(self,
                                                         large_p_sweep):
        # measured 2.126, 2.065, 2.033, 2.016: above 2 and about 8.4 / p
        # away from it
        assert large_p_sweep.inradius_reciprocal == pytest.approx(2.0)
        roots = [e.lambda_root for e in large_p_sweep.entries]
        assert all(a > b > 2.0 for a, b in zip(roots, roots[1:]))
        assert roots[-1] - 2.0 <= 0.01 * 2.0


class TestSupnormCheck:
    def test_skips_moderate_p(self, interval_sweep):
        tr = interval_sweep.traces[0]  # p = 4
        result = monotone_supnorm_check(tr, 2.0)
        assert result.status == "skipped"
        assert not result.passed

    def test_passes_large_p(self, interval_sweep):
        tr = interval_sweep.traces[-1]  # p = 32
        lam_root = interval_sweep.entries[-1].lambda_root
        result = monotone_supnorm_check(tr, lam_root)
        assert result.passed, result

    def test_fails_on_wrong_eigenvalue(self, interval_sweep):
        # a grossly overestimated limit eigenvalue inflates the scaled
        # sequences geometrically, so the nonincreasing check must fail
        tr = interval_sweep.traces[-1]
        result = monotone_supnorm_check(tr, 10.0)
        assert result.status == "fail"

    def test_nonconvergence_entry_is_flagged(self, monkeypatch):
        # an inner solve out of iterations must surface as a non-converged
        # nan entry, not an exception
        monkeypatch.setattr(pground.inner, "MAX_INNER_ITERS", 2)
        res = sweep(Interval(0.0, 1.0), 16, (4.0,))
        e = res.entries[0]
        assert not e.converged
        assert math.isnan(e.lambda_R)
        assert res.traces[0] is None
