import math

import pytest

from pground.geometry import Interval
from pground.infinity import monotone_supnorm_check, sweep


@pytest.fixture(scope="module")
def interval_sweep():
    # interval (0, 1): reciprocal inradius 2, fast enough for every test run
    return sweep(Interval(0.0, 1.0), 64, (4.0, 8.0, 16.0, 32.0),
                 tol_outer=1e-8)


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
