import math

import numpy as np
import pytest

import pground.infinity
from pground.geometry import Interval, MaskDomain, Rectangle
from pground.infinity import monotone_supnorm_check, sweep
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
    alone = [inverse_iterate(spec, n, p, PositiveConstant(), tol_outer=1e-8)
             for p in result.p_list]
    return result, alone


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
        inits = []
        point = pground.infinity.inverse_iterate

        def failing_at_8(spec, n, p, init, **kwargs):
            inits.append(init)
            if p == 8.0:
                raise NonConvergence(1.0, 0.1, 5)
            return point(spec, n, p, init, **kwargs)

        monkeypatch.setattr(pground.infinity, "inverse_iterate", failing_at_8)
        result = sweep(Interval(0.0, 1.0), 31, (4.0, 8.0, 16.0))
        assert [e.converged for e in result.entries] == [True, False, True]
        assert isinstance(inits[0], PositiveConstant)
        for init in inits[1:]:
            assert isinstance(init, Custom)
            assert init.function is result.traces[0].final

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
        for e in interval_sweep.entries:
            assert len(e.ratio_sequence) >= 2
            assert e.final_ratio == e.ratio_sequence[-1]

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

    def test_nonconvergence_entry_is_flagged(self):
        # an unreachable inner tolerance must surface as a non-converged
        # nan entry, not an exception
        res = sweep(Interval(0.0, 1.0), 16, (4.0,), tol_grad=1e-30)
        e = res.entries[0]
        assert not e.converged
        assert math.isnan(e.lambda_R)
        assert res.traces[0] is None
