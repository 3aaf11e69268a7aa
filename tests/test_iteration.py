import copy
import gc
import logging
import math
import weakref

import numpy as np
import pytest

import pground.calculus
import pground.inner
import pground.iteration
from pground.calculus import GridFunction, p_norm_pow
from pground.geometry import (SHARED_GRIDS, Grid, Interval, MaskDomain,
                              Rectangle, build_grid, shared_grid)
from pground.infinity import sweep
from pground.inner import _eps_schedule, _signed_power
from pground.iteration import (MIN_STEPS, Custom, DegenerateIterate,
                               PositiveConstant, RandomPositive,
                               barrier_sup_bound,
                               check_barrier, check_monotonicity,
                               consistency_estimators, inverse_iterate,
                               make_initial, verify)
from pground.oracles import lambda2_reference


@pytest.fixture(scope="module")
def p2_trace():
    return inverse_iterate(Interval(0.0, 1.0), 31, 2.0, PositiveConstant())


@pytest.fixture(scope="module")
def p3_trace():
    return inverse_iterate(Interval(0.0, 1.0), 31, 3.0, RandomPositive(seed=1))


class TestInitPolicies:
    def test_positive_constant(self, interval_grid):
        u = make_initial(interval_grid, PositiveConstant())
        assert np.all(u.values[interval_grid.interior] == 1.0)

    def test_random_positive_and_seeded(self, interval_grid):
        u = make_initial(interval_grid, RandomPositive(seed=4))
        v = make_initial(interval_grid, RandomPositive(seed=4))
        w = make_initial(interval_grid, RandomPositive(seed=5))
        vals = u.values[interval_grid.interior]
        assert np.all(vals > 0)
        assert np.array_equal(u.values, v.values)
        assert not np.array_equal(u.values, w.values)

    def test_custom_grid_mismatch(self, interval_grid, square_grid):
        u = GridFunction.constant(square_grid, 1.0)
        with pytest.raises(ValueError):
            make_initial(interval_grid, Custom(u))

    def test_zero_custom_raises(self, interval_grid):
        zero = GridFunction(interval_grid, np.zeros(interval_grid.shape))
        with pytest.raises(DegenerateIterate):
            inverse_iterate(Interval(0.0, 1.0), 31, 3.0, Custom(zero))

    def test_custom_rebuilt_on_target_grid(self, square_grid, l_mask):
        # the L-shape grid has the square grid's node shape
        lgrid = shared_grid(l_mask, 16)
        assert lgrid.shape == square_grid.shape
        with pytest.raises(ValueError):  # nonzero off the L interior
            make_initial(lgrid, Custom(GridFunction.constant(square_grid)))
        u = GridFunction(square_grid, GridFunction.constant(lgrid).values)
        tr = inverse_iterate(l_mask, 16, 3.0, Custom(u))
        assert tr.final.grid is lgrid
        ref = inverse_iterate(l_mask, 16, 3.0, PositiveConstant())
        # a warm first step against the start from zero: two inner paths
        # that meet at the fixed point, to the outer tolerance's digits
        assert tr.lambda_R == pytest.approx(ref.lambda_R, rel=1e-12)


class TestIteration:
    def test_matches_linear_eigenvalue(self, p2_trace):
        lam, _ = lambda2_reference(Interval(0.0, 1.0), 31)
        assert p2_trace.converged
        assert abs(p2_trace.lambda_R - lam) <= 1e-10 * lam

    def test_trace_shape(self, p2_trace):
        ks = [s.k for s in p2_trace.steps]
        assert ks == list(range(len(ks)))
        assert p2_trace.num_steps == len(ks) - 1
        first = p2_trace.steps[0]
        assert math.isnan(first.N) and math.isnan(first.Q)
        assert first.norm_factor == 1.0

    def test_iterates_normalized(self, p2_trace):
        # unit L^p norm after renormalization
        assert p_norm_pow(p2_trace.final, p2_trace.p) == pytest.approx(
            1.0, rel=1e-12)

    def test_estimator_gap(self, p3_trace):
        assert p3_trace.converged
        assert consistency_estimators(p3_trace) <= 1e-6

    def test_mu_definition(self, p3_trace):
        p = p3_trace.p
        assert p3_trace.mu == pytest.approx(
            p3_trace.lambda_R ** (1.0 / (p - 1)), rel=1e-13)

    def test_gap_requires_convergence(self, p3_trace):
        tr = copy.copy(p3_trace)
        tr.converged = False
        with pytest.raises(ValueError):
            consistency_estimators(tr)

    @pytest.mark.parametrize("tol_outer", [0.0, -1.0, math.inf, math.nan])
    def test_bad_tol_outer_rejected(self, tol_outer):
        # an infinite tolerance stops at MIN_STEPS as converged, and NaN
        # runs all K_max steps
        with pytest.raises(ValueError, match="tol_outer"):
            inverse_iterate(Interval(0.0, 1.0), 31, 3.0, PositiveConstant(),
                            tol_outer=tol_outer)

    def test_min_steps_delays_stop(self):
        # from the p=2 ground state R moves by rounding only (it repeats
        # exactly from step 2): the default Cauchy stop alone would end the
        # run at step 1, short of the steps check_monotonicity needs
        _, vec = lambda2_reference(Interval(0.0, 1.0), 63)
        tr = inverse_iterate(Interval(0.0, 1.0), 63, 2.0, Custom(vec))
        R = [s.R for s in tr.steps]
        assert abs(R[1] - R[0]) <= 1e-10 * R[1] and R[3] == R[2]
        assert tr.converged and tr.num_steps == MIN_STEPS
        assert check_monotonicity(tr).all_passed

    def test_final_iterate_recorded(self, p2_trace):
        assert p2_trace.final is not None
        last = p2_trace.steps[-1].report
        assert np.abs(p2_trace.final.values).max() == pytest.approx(
            last.sup_norm)

    def test_one_cell_gradient_per_step(self, monkeypatch):
        # the report kernel takes one G product per recorded step
        counts = {"reports": 0, "products": 0}
        in_report = [False]
        report, apply_G = pground.iteration._report_logs, Grid.apply_G

        def counted_report(*args):
            counts["reports"] += 1
            in_report[0] = True
            try:
                return report(*args)
            finally:
                in_report[0] = False

        def counted_apply_G(self, x):
            counts["products"] += in_report[0]
            return apply_G(self, x)

        monkeypatch.setattr(pground.iteration, "_report_logs", counted_report)
        monkeypatch.setattr(Grid, "apply_G", counted_apply_G)
        tr = inverse_iterate(Interval(0.0, 1.0), 63, 3.0, PositiveConstant())
        assert tr.num_steps >= 3
        assert counts["reports"] == len(tr.steps)  # step 0 included
        assert counts["products"] == len(tr.steps)

    def test_grid_functions_only_at_the_boundary(self, monkeypatch):
        # the start and trace.final, whatever the number of steps
        built = [0]
        post_init = GridFunction.__post_init__

        def counted(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(GridFunction, "__post_init__", counted)
        for spec, n, p in [(Interval(0.0, 1.0), 63, 3.0),
                           (Rectangle(0.0, 1.0, 0.0, 1.0), 16, 1.5)]:
            built[0] = 0
            tr = inverse_iterate(spec, n, p, RandomPositive(seed=3))
            assert tr.num_steps >= 3
            assert built[0] <= 3

    def test_2d_converges(self):
        tr = inverse_iterate(Rectangle(0.0, 1.0, 0.0, 1.0), 12, 3.0,
                             PositiveConstant())
        assert tr.converged
        assert tr.lambda_R > 0

    def test_logs_each_outer_step(self, caplog):
        # one INFO record per outer step, with the line `--verbose` prints
        caplog.set_level(logging.INFO, logger="pground")
        tr = inverse_iterate(Interval(0.0, 1.0), 15, 3.0, PositiveConstant())
        records = [r for r in caplog.records if r.name == "pground.iteration"]
        assert [r.levelno for r in records] == [logging.INFO] * tr.num_steps
        assert [r.getMessage() for r in records] == [
            f"step {s.k}: R={s.R:.12e} N={s.N:.6e} inner_iters={s.inner_iters}"
            for s in tr.steps[1:]]


class TestOuterStep:
    """`inverse_iterate` is the start's normalization, then the step map
    `_outer_step` in a loop, plus its stop."""

    @pytest.mark.parametrize("spec, n, p, init", [
        # a cold first step through the eps continuation
        (Interval(0.0, 1.0), 63, 1.5, PositiveConstant()),
        # a Hessian factor carried from step to step
        (Rectangle(0.0, 1.0, 0.0, 1.0), 16, 6.0, PositiveConstant()),
        # a warm first step
        (Interval(0.0, 1.0), 63, 3.0,
         Custom(lambda2_reference(Interval(0.0, 1.0), 63)[1])),
    ], ids=["interval_p1.5", "square_p6", "custom"])
    def test_loop_by_hand_gives_the_trace(self, spec, n, p, init):
        tr = inverse_iterate(spec, n, p, init)
        grid = tr.final.grid
        _, x, report, R = pground.iteration._normalized(
            grid, make_initial(grid, init).values[grid.interior], p)
        steps = [(R, math.nan, 1.0, 0, report)]
        carry = []
        for k in range(1, tr.num_steps + 1):
            before = x.copy()
            y, c, x_next, report, R, iters = pground.iteration._outer_step(
                grid, x, p, R, None, carry,
                warm=k > 1 or isinstance(init, Custom))
            assert np.array_equal(x, before)  # the input is left alone
            assert np.array_equal(x_next, (1.0 / c) * y)
            steps.append((R, math.exp(-p * math.log(c)), c, iters, report))
            x = x_next
        assert len(carry) == (p != 2.0)
        assert repr(steps) == repr([(s.R, s.N, s.norm_factor, s.inner_iters,
                                     s.report) for s in tr.steps])
        assert repr(GridFunction.from_interior(grid, x).values.tolist()) \
            == repr(tr.final.values.tolist())


def _trace_key(tr):
    """What a run computes: the estimators, every step and the final
    iterate, as one string."""
    return repr((tr.lambda_R, tr.lambda_Q, tr.mu, tr.converged, tr.steps,
                 tr.barrier_bound, tr.first_step_sup,
                 tr.final.values.tolist()))


class TestSharedGrid:
    """Every solve runs on the process's one grid for (spec, n), and the
    process keeps SHARED_GRIDS of them."""

    def test_calls_share_one_grid(self):
        spec = Rectangle(0.0, 1.0, 0.0, 1.0)
        a = inverse_iterate(spec, 16, 2.0, RandomPositive(seed=3))
        b = inverse_iterate(Rectangle(0, 1, 0, 1), 16, 3.0,
                            RandomPositive(seed=4))
        grid = shared_grid(spec, 16)
        assert a.final.grid is b.final.grid is grid
        assert sweep(spec, 16, (4.0, 8.0)).traces[0].final.grid is grid
        # a grid of its own for each (spec, n), and a new one from
        # build_grid
        assert inverse_iterate(spec, 12, 2.0, PositiveConstant()) \
            .final.grid is not grid
        assert build_grid(spec, 16) is not grid

    @pytest.mark.parametrize("n", [16, 72])  # banded, multifrontal
    def test_same_traces_as_new_grids(self, n):
        # a p=2 solve leaves its Laplacian on the shared grid, where the
        # p=3 cold start stands it in; on new grids each builds its own
        spec = Rectangle(0.0, 1.0, 0.0, 1.0)
        runs = [(2.0, RandomPositive(seed=5)), (3.0, RandomPositive(seed=6))]
        shared = []
        for p, init in runs:
            shared.append(inverse_iterate(spec, n, p, init))
            if p == 2.0:
                factors = pground.inner.Factors.of(shared[0].final.grid)
                assert "laplacian" in vars(factors)
        assert shared[0].final.grid is shared[1].final.grid
        for tr, (p, init) in zip(shared, runs):
            shared_grid.cache_clear()  # a new grid for each solve
            new = inverse_iterate(spec, n, p, init)
            assert new.final.grid is not tr.final.grid
            assert verify(tr).all_passed
            assert _trace_key(tr) == _trace_key(new)

    def test_least_recent_grid_freed(self):
        # the grid, and the factors it keeps, leave by reference counting
        # once SHARED_GRIDS later keys have been used: the cyclic GC is off
        spec = Interval(0.0, 1.0)
        gc.collect()
        gc.disable()
        try:
            tr = inverse_iterate(spec, 15, 3.0, PositiveConstant())
            refs = [weakref.ref(tr.final.grid),
                    weakref.ref(pground.inner.Factors.of(tr.final.grid))]
            del tr
            for n in range(16, 15 + SHARED_GRIDS):
                inverse_iterate(spec, n, 3.0, PositiveConstant())
            assert all(ref() is not None for ref in refs)
            inverse_iterate(spec, 15 + SHARED_GRIDS, 3.0, PositiveConstant())
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestMonotonicityChecks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_claims_hold(self, p, seed):
        tr = inverse_iterate(Interval(0.0, 1.0), 31, p,
                             RandomPositive(seed=seed))
        report = check_monotonicity(tr)
        assert report.all_passed, str(report)

    def test_claims_hold_2d(self):
        tr = inverse_iterate(Rectangle(0.0, 1.0, 0.0, 1.0), 12, 3.0,
                             RandomPositive(seed=0))
        assert check_monotonicity(tr).all_passed

    def test_detects_tampered_quotient(self, p3_trace):
        tr = copy.deepcopy(p3_trace)
        k_bad = 2
        s = tr.steps[k_bad]
        tr.steps[k_bad] = type(s)(k=s.k, report=s.report, R=1.5 * s.R, N=s.N,
                                  Q=s.Q, norm_factor=s.norm_factor,
                                  inner_iters=s.inner_iters)
        report = check_monotonicity(tr)
        claim_a = report.claims[0]
        assert not claim_a.passed
        # the violation is the drop from the inflated R_2 back to R_3
        assert claim_a.worst_index in (k_bad, k_bad + 1)

    def test_detects_tampered_norm_ratio(self, p3_trace):
        tr = copy.deepcopy(p3_trace)
        s = tr.steps[-1]
        tr.steps[-1] = type(s)(k=s.k, report=s.report, R=s.R, N=2.0 * s.N,
                               Q=s.Q, norm_factor=s.norm_factor,
                               inner_iters=s.inner_iters)
        report = check_monotonicity(tr)
        assert not report.all_passed
        names_failed = [c.name for c in report.claims if not c.passed]
        assert any("(b)" in n for n in names_failed)

    def test_nan_fails_every_claim(self, p3_trace):
        tr = copy.deepcopy(p3_trace)
        s = tr.steps[3]
        tr.steps[3] = type(s)(k=s.k, report=s.report, R=math.nan, N=math.nan,
                              Q=s.Q, norm_factor=s.norm_factor,
                              inner_iters=s.inner_iters)
        for claim in check_monotonicity(tr).claims:
            assert not claim.passed, claim
            assert claim.worst_margin == -math.inf
            assert claim.worst_index == 3

    def test_too_short_trace_rejected(self, p3_trace):
        tr = copy.copy(p3_trace)
        tr.steps = p3_trace.steps[:3]
        with pytest.raises(ValueError):
            check_monotonicity(tr)

    @pytest.mark.parametrize("tol_grad", [math.inf, -1e-10, math.nan])
    def test_bad_recorded_tol_grad_rejected(self, p3_trace, tol_grad):
        # the slack is 100 tol_grad: an infinite one would pass every claim
        # on any trace
        tr = copy.copy(p3_trace)
        tr.tol_grad = tol_grad
        with pytest.raises(ValueError, match="tol_grad"):
            check_monotonicity(tr)
        with pytest.raises(ValueError, match="tol_grad"):
            verify(tr)

    def test_zero_slack_valid(self, p3_trace):
        tr = copy.copy(p3_trace)
        tr.tol_grad = 0.0
        assert len(check_monotonicity(tr).claims) == 4

    def test_report_string(self, p3_trace):
        text = str(check_monotonicity(p3_trace))
        assert "PASS" in text and "FAIL" not in text


class TestVerify:
    def test_clean_trace(self, p3_trace):
        report = verify(p3_trace)
        assert report.all_passed, str(report)
        assert [c.name for c in report.claims[4:]] == [
            "mu consistency with lambda_R", "estimator gap",
            "barrier sup bound"]
        assert all(c.passed for c in report.claims)
        gap = consistency_estimators(p3_trace)
        assert f"(gap {gap:.3e}, tol 1e-06)" in str(report)

    def test_unconverged_trace_skips_gap(self, p3_trace):
        tr = copy.copy(p3_trace)
        tr.converged = False
        report = verify(tr)
        assert report.claims[5].passed is None
        assert report.all_passed
        assert "SKIP  estimator gap: trace not converged" in str(report)

    def test_detects_tampered_mu(self, p3_trace):
        tr = copy.copy(p3_trace)
        tr.mu *= 1 + 1e-11
        report = verify(tr)
        assert [c.name for c in report.claims if c.passed is False] == [
            "mu consistency with lambda_R"]

    def test_detects_estimator_gap(self, p3_trace):
        # a gap of about 2e-6, twice GAP_TOL
        tr = copy.copy(p3_trace)
        tr.lambda_Q *= 1 + 2e-6
        report = verify(tr)
        assert [c.name for c in report.claims if c.passed is False] == [
            "estimator gap"]


class TestBarrier:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    def test_first_step_bounded(self, p):
        tr = inverse_iterate(Interval(0.0, 1.0), 31, p, PositiveConstant())
        result = check_barrier(tr)
        assert result.passed
        assert tr.first_step_sup < tr.barrier_bound

    def test_first_step_bounded_2d(self):
        tr = inverse_iterate(Rectangle(0.0, 1.0, 0.0, 1.0), 12, 3.0,
                             PositiveConstant())
        assert check_barrier(tr).passed

    def test_bound_value_1d(self, interval_grid):
        # comparison point one spacing left of 0; farthest node is x = 1
        p = 2.0
        q = p / (p - 1)
        expect = (1.0 + interval_grid.h) ** q / q
        assert barrier_sup_bound(interval_grid, p) == pytest.approx(expect)

    def test_bound_value_2d(self, square_grid):
        # comparison point just below the bottom midpoint; the farthest nodes
        # are the top corners at distance sqrt(1/4 + (1 + h)^2)
        h = square_grid.h
        d = math.sqrt(0.25 + (1.0 + h) ** 2)
        assert barrier_sup_bound(square_grid, 2.0) == pytest.approx(d * d / 4.0)


class TestScaleCovariance:
    def test_init_scale_invariance(self):
        base = make_initial(build_grid(Interval(0.0, 1.0), 31),
                            RandomPositive(seed=6))
        tr1 = inverse_iterate(Interval(0.0, 1.0), 31, 3.0, Custom(base))
        tr2 = inverse_iterate(Interval(0.0, 1.0), 31, 3.0,
                              Custom(base.scaled(137.0)))
        assert abs(tr1.lambda_R - tr2.lambda_R) <= 1e-12 * tr1.lambda_R
        for s1, s2 in zip(tr1.steps, tr2.steps):
            assert abs(s1.R - s2.R) <= 1e-12 * abs(s1.R)

    def test_sign_flip_exact(self):
        base = make_initial(build_grid(Interval(0.0, 1.0), 31),
                            RandomPositive(seed=7))
        tr1 = inverse_iterate(Interval(0.0, 1.0), 31, 3.0, Custom(base))
        tr2 = inverse_iterate(Interval(0.0, 1.0), 31, 3.0,
                              Custom(base.scaled(-1.0)))
        for s1, s2 in zip(tr1.steps, tr2.steps):
            assert s2.R == s1.R
            assert s2.norm_factor == s1.norm_factor


def _assert_checked(tr):
    assert tr.converged
    assert check_monotonicity(tr).all_passed
    assert consistency_estimators(tr) < 1e-6
    assert check_barrier(tr).passed


class TestDefaultConfigConvergence:
    """Solves that once stalled at the line search's floating-point floor
    under the default settings (no stall_rel)."""

    @pytest.mark.parametrize("p", [32.0, 64.0])
    def test_large_p_square(self, p, monkeypatch):
        import pground.inner
        calls = [0]
        raw = pground.inner._nodal_gradient

        def counted(*args):
            calls[0] += 1
            return raw(*args)

        monkeypatch.setattr(pground.inner, "_nodal_gradient", counted)
        tr = inverse_iterate(Rectangle(0.0, 1.0, 0.0, 1.0), 32, p,
                             PositiveConstant(), K_max=60, tol_outer=1e-8)
        _assert_checked(tr)
        # a floor-regime step costs one gradient evaluation, not one per
        # halving of the step length (about 1.2 per inner iteration here)
        assert 0 < calls[0] <= 2500

    def test_small_square_random_init(self):
        tr = inverse_iterate(Rectangle(0.0, 1.0, 0.0, 1.0), 16, 3.0,
                             RandomPositive(seed=191740094))
        _assert_checked(tr)


L_SHAPE = MaskDomain(2, 2, np.array([[True, True], [True, False]]), 0.5)


class TestPreconditionerPins:
    """Every grid preconditions with the cell Hessian: in double on banded
    grids, in single precision on the wide-band grids' multifrontal tree."""

    def test_superlu_solve_unchanged(self):
        # square n=72 (bandwidth 71) is a wide-band grid, factored by SuperLU
        # when these were first pinned and by the multifrontal tree since;
        # the iterations are those of the single-precision Hessian carried
        # across outer steps with the Newton-decrement stop and re-lagged by
        # its counted cost (22/7/6/4/2/2/2/2 under the 20-iteration window),
        # and lambda_R agrees with that of the lagged-diffusivity operator
        # G^T diag(w) G it replaced (62.748266173881, iterations
        # 26/25/10/8/7/6/5/4)
        tr = inverse_iterate(Rectangle(0.0, 1.0, 0.0, 1.0), 72, 3.0,
                             PositiveConstant())
        assert [s.inner_iters for s in tr.steps] == \
            [0, 15, 7, 4, 4, 3, 3, 3, 2]
        assert math.isclose(tr.lambda_R, 62.748266173881, rel_tol=1e-9)

    @pytest.mark.parametrize("spec, n", [(Interval(0.0, 1.0), 63),
                                         (Rectangle(0.0, 1.0, 0.0, 1.0), 16),
                                         (L_SHAPE, 16),
                                         (Rectangle(0.0, 1.0, 0.0, 1.0), 64),
                                         (L_SHAPE, 72)])
    def test_large_p_sweeps_pass_verify(self, spec, n):
        # the Hessian solve stops closest to the claims' slack at large p;
        # the square n=64 (bandwidth 63, the widest band) fails claim (c)
        # at p=64 when the gradient sup-norm alone ends the solve, without
        # the Newton-decrement stop.  The L-shape n=72 is a wide-band grid
        # whose Laplacian is the tree's double factor (it is no box)
        result = sweep(spec, n, (4.0, 8.0, 16.0, 32.0, 64.0, 128.0))
        for entry, trace in zip(result.entries, result.traces):
            assert entry.converged
            report = verify(trace)
            assert report.all_passed, f"p={entry.p}\n{report}"


def _eps_per_solve(monkeypatch):
    """The eps of every `_descend` call, one list per inner solve that
    `inverse_iterate` makes or that calls `pground.inner`'s
    `solve_step_with_stats`."""
    solves = []
    solve, descend = (pground.inner.solve_step_with_stats,
                      pground.inner._descend)

    def recorded_solve(*args, **kwargs):
        solves.append([])
        return solve(*args, **kwargs)

    def recorded_descend(grid, x, fh, p, eps, *rest):
        solves[-1].append(eps)
        return descend(grid, x, fh, p, eps, *rest)

    monkeypatch.setattr(pground.inner, "solve_step_with_stats",
                        recorded_solve)
    monkeypatch.setattr(pground.iteration, "solve_step_with_stats",
                        recorded_solve)
    monkeypatch.setattr(pground.inner, "_descend", recorded_descend)
    return solves


class TestWarmStartedSteps:
    """Only the cold first outer step runs the p < 2 eps continuation; the
    warm-started later steps solve at the schedule's last eps."""

    def test_continuation_on_first_step_only(self, monkeypatch):
        solves = _eps_per_solve(monkeypatch)
        tr = inverse_iterate(Interval(0.0, 1.0), 31, 1.5, PositiveConstant())
        eps = _eps_schedule(1.5, tr.h)
        assert len(eps) > 1
        assert len(solves) == tr.num_steps >= 3
        assert solves[0] == list(eps)
        assert all(s == [eps[-1]] for s in solves[1:])

    def test_single_stage_at_p_above_2(self, monkeypatch):
        solves = _eps_per_solve(monkeypatch)
        tr = inverse_iterate(Interval(0.0, 1.0), 31, 3.0, PositiveConstant())
        assert len(solves) == tr.num_steps >= 3
        assert all(s == [0.0] for s in solves)

    def test_solve_from_start_runs_last_stage_only(self, monkeypatch):
        # the inner solve alone picks its stages: all from zero, the last
        # from a given start
        g = build_grid(Interval(0.0, 1.0), 31)
        u = make_initial(g, RandomPositive(seed=2)).values[g.interior]
        eps = _eps_schedule(1.5, g.h)
        solves = _eps_per_solve(monkeypatch)
        x, _ = pground.inner.solve_step_with_stats(g, _signed_power(u, 1.5),
                                                   1.5)
        pground.inner.solve_step_with_stats(g, _signed_power(x, 1.5), 1.5,
                                            initial=x)
        assert len(eps) > 1
        assert solves == [list(eps), [eps[-1]]]

    @pytest.mark.parametrize("spec, n, lam", [
        (Interval(0.0, 1.0), 63, 5.317900976187745),
        (Rectangle(0.0, 1.0, 0.0, 1.0), 16, 10.05392809057889),
        (L_SHAPE, 16, 16.253943997315968),
    ], ids=["interval", "square", "lshape"])
    @pytest.mark.parametrize("seed", [5, 2024])
    def test_truncation_keeps_lambda(self, spec, n, lam, seed):
        """The values were recorded with the whole continuation on every
        step."""
        tr = inverse_iterate(spec, n, 1.5, RandomPositive(seed=seed))
        assert verify(tr).all_passed, str(verify(tr))
        assert abs(tr.lambda_R - lam) <= 1e-9 * lam


class TestCustomWarmStart:
    """A Custom init is taken as a start near a ground state: step 1 is
    warm-started like every later step, from the scaled init at the
    schedule's last eps."""

    def test_first_step_at_last_eps_only(self, monkeypatch):
        near = inverse_iterate(Interval(0.0, 1.0), 31, 1.5,
                               PositiveConstant()).final
        solves = _eps_per_solve(monkeypatch)
        tr = inverse_iterate(Interval(0.0, 1.0), 31, 1.5, Custom(near))
        eps = _eps_schedule(1.5, tr.h)
        assert len(solves) == tr.num_steps >= 3
        assert all(s == [eps[-1]] for s in solves)

    def test_random_init_keeps_cold_first_step(self, monkeypatch):
        solves = _eps_per_solve(monkeypatch)
        tr = inverse_iterate(Interval(0.0, 1.0), 31, 1.5,
                             RandomPositive(seed=3))
        eps = _eps_schedule(1.5, tr.h)
        assert solves[0] == list(eps)
        assert all(s == [eps[-1]] for s in solves[1:])

    @pytest.mark.parametrize("spec, n", [
        (Interval(0.0, 1.0), 63),
        (Rectangle(0.0, 1.0, 0.0, 1.0), 16),
        (L_SHAPE, 16),
    ], ids=["interval", "square", "lshape"])
    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_warm_start_keeps_lambda(self, spec, n, p):
        """From the constant-init ground state (a start at the fixed point)
        and from the p=2 ground state, the trace has the steps the claims
        need, passes them and lands on the constant-init lambda_R."""
        ref = inverse_iterate(spec, n, p, PositiveConstant())
        _, p2_state = lambda2_reference(spec, n)  # Custom re-homes it
        for start in (ref.final, p2_state):
            tr = inverse_iterate(spec, n, p, Custom(start))
            assert tr.converged and tr.num_steps >= 3
            report = verify(tr)
            assert report.all_passed, str(report)
            assert abs(tr.lambda_R - ref.lambda_R) <= 1e-9 * ref.lambda_R
        # started at the fixed point, step 1 has almost nothing to do
        tr = inverse_iterate(spec, n, p, Custom(ref.final))
        assert tr.steps[1].inner_iters < ref.steps[1].inner_iters
