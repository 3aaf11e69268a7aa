"""End-to-end acceptance suite.

Each test states its numeric criterion directly; the heavy runs are shared
through module-scoped fixtures so the whole file stays inside its time
budgets on one core.
"""

import time

import numpy as np
import pytest

from pground.geometry import Interval, Rectangle, build_grid
from pground.inner import _signed_power, solve_step_with_stats
from pground.infinity import monotone_supnorm_check, sweep
from pground.iteration import (Custom, PositiveConstant, RandomPositive,
                               check_barrier, check_monotonicity,
                               consistency_estimators, inverse_iterate,
                               make_initial, verify)
from pground.oracles import (lambda2_reference, lambda_p_shooting_1d,
                             rayleigh_bruteforce)

INTERVAL = Interval(0.0, 1.0)
SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


def timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def monotonicity_fixtures():
    """Twenty randomized positive-init traces across p in {1.5, 2, 3, 6},
    split between the interval and the square."""
    runs = []
    for p in (1.5, 2.0, 3.0, 6.0):
        for seed in (0, 1, 2):
            runs.append(("interval", p, seed,
                         inverse_iterate(INTERVAL, 63, p,
                                         RandomPositive(seed=seed))))
        for seed in (3, 4):
            runs.append(("square", p, seed,
                         inverse_iterate(SQUARE, 16, p,
                                         RandomPositive(seed=seed))))
    assert len(runs) == 20
    return runs


@pytest.fixture(scope="module")
def square_sweep():
    result, elapsed = timed(lambda: sweep(SQUARE, 128,
                                          (4.0, 8.0, 16.0, 32.0, 64.0)))
    return result, elapsed


def test_criterion_1_linear_oracle_equivalence():
    def run():
        out = []
        for spec, n in ((INTERVAL, 255), (SQUARE, 64)):
            lam_ref, vec_ref = lambda2_reference(spec, n)
            tr = inverse_iterate(spec, n, 2.0, PositiveConstant())
            out.append((spec, n, lam_ref, vec_ref, tr))
        return out
    results, elapsed = timed(run)
    for spec, n, lam_ref, vec_ref, tr in results:
        assert tr.converged
        rel = abs(tr.lambda_R - lam_ref) / lam_ref
        print(f"criterion 1 [{type(spec).__name__} n={n}]: rel error {rel:.2e}")
        assert rel <= 1e-8
        # scale-aligned sup distance to the oracle eigenvector
        aligned = tr.final.scaled(np.abs(vec_ref.values).max()
                                  / np.abs(tr.final.values).max())
        dist = float(np.abs(aligned.values - vec_ref.values).max())
        assert dist <= 1e-6, f"{type(spec).__name__}: sup distance {dist:.2e}"
    assert elapsed <= 30.0, f"criterion 1 took {elapsed:.1f}s > 30s"


def test_criterion_2_shooting_oracle_1d():
    def run():
        out = []
        for p in (1.5, 3.0, 6.0):
            ref = lambda_p_shooting_1d(p)
            lam_coarse = inverse_iterate(INTERVAL, 512, p,
                                         PositiveConstant()).lambda_R
            lam_fine = inverse_iterate(INTERVAL, 1024, p,
                                       PositiveConstant()).lambda_R
            out.append((p, ref, lam_coarse, lam_fine))
        return out
    results, elapsed = timed(run)
    for p, ref, lam_coarse, lam_fine in results:
        rel = abs(lam_fine - ref) / ref
        print(f"criterion 2 [p={p}]: rel error {rel:.2e} at n=1024")
        assert rel <= 0.01
        assert abs(lam_fine - ref) <= abs(lam_coarse - ref)
    assert elapsed <= 300.0, f"criterion 2 took {elapsed:.1f}s > 5min"


def test_criterion_3_monotonicity_suite(monotonicity_fixtures):
    for domain, p, seed, tr in monotonicity_fixtures:
        report = check_monotonicity(tr)  # default slack: 100 * tol_grad
        assert report.all_passed, \
            f"{domain} p={p} seed={seed}:\n{report}"
    print("criterion 3: all 20 traces pass the four monotonicity checks")


def test_criterion_4_estimator_consistency(monotonicity_fixtures):
    worst = 0.0
    for domain, p, seed, tr in monotonicity_fixtures:
        assert tr.converged, f"{domain} p={p} seed={seed} did not converge"
        gap = consistency_estimators(tr)
        worst = max(worst, gap)
        assert gap <= 1e-6, f"{domain} p={p} seed={seed}: gap {gap:.2e}"
    print(f"criterion 4: worst estimator gap {worst:.2e}")


def test_criterion_5_barrier_bound(monotonicity_fixtures):
    for domain, p, seed, tr in monotonicity_fixtures:
        result = check_barrier(tr)
        assert result.passed and tr.first_step_sup < tr.barrier_bound, \
            f"{domain} p={p} seed={seed}: sup {tr.first_step_sup} " \
            f"vs bound {tr.barrier_bound}"
    print("criterion 5: first-step sup bound strict on all 20 fixtures")


@pytest.mark.parametrize("c", [0.1, 7.0])
def test_criterion_6_homogeneity(c):
    grid = build_grid(INTERVAL, 63)
    base = make_initial(grid, RandomPositive(seed=11))
    tr1 = inverse_iterate(INTERVAL, 63, 3.0, Custom(base))
    tr2 = inverse_iterate(INTERVAL, 63, 3.0, Custom(base.scaled(c)))
    for s1, s2 in zip(tr1.steps, tr2.steps):
        assert abs(s2.R - s1.R) <= 1e-12 * abs(s1.R)
        if s1.k > 0:
            assert abs(s2.N - s1.N) <= 1e-12 * abs(s1.N)


def test_criterion_6_sign_covariance():
    # one application of the step map is exactly odd
    grid = build_grid(INTERVAL, 63)
    u0 = make_initial(grid, RandomPositive(seed=12))
    x0 = u0.values[grid.interior]
    v_pos, _ = solve_step_with_stats(grid, _signed_power(x0, 3.0), 3.0)
    v_neg, _ = solve_step_with_stats(grid, _signed_power(-x0, 3.0), 3.0)
    assert np.array_equal(v_neg, -v_pos)
    # and the whole iteration reproduces the same trace from the negated init
    tr1 = inverse_iterate(INTERVAL, 63, 3.0, Custom(u0))
    tr2 = inverse_iterate(INTERVAL, 63, 3.0, Custom(u0.scaled(-1.0)))
    for s1, s2 in zip(tr1.steps, tr2.steps):
        assert s2.R == s1.R and s2.norm_factor == s1.norm_factor


def test_criterion_7_infinity_limit(square_sweep):
    result, elapsed = square_sweep
    assert all(e.converged for e in result.entries)
    assert result.inradius_reciprocal == pytest.approx(2.0)
    roots = [e.lambda_root for e in result.entries]
    dists = [abs(r - 2.0) for r in roots]
    print(f"criterion 7: roots {['%.4f' % r for r in roots]} in {elapsed:.0f}s")
    assert dists[-1] / 2.0 <= 0.15
    assert dists[-1] < dists[-2] < dists[-3]
    assert abs(result.entries[-1].final_ratio - 2.0) / 2.0 <= 0.25
    assert elapsed <= 900.0, f"criterion 7 took {elapsed:.1f}s > 15min"


def test_criterion_7_supnorm_diagnostics(square_sweep):
    result, _ = square_sweep
    for entry, tr in zip(result.entries, result.traces):
        check = monotone_supnorm_check(tr, entry.lambda_root)
        assert check.passed is (True if entry.p >= 32 else None), \
            f"p={entry.p}: {check}"


def test_criterion_7_sweep_traces_verify(square_sweep):
    # n=128 factors its lagged preconditioners on the multifrontal tree,
    # in single precision, where n=64 and below use the double band
    result, _ = square_sweep
    for tr in result.traces:
        report = verify(tr)
        assert report.all_passed, f"p={tr.p}:\n{report}"


def test_criterion_8_fixed_point():
    # runs chained from each one's final iterate until at least 10 outer
    # steps are recorded
    _, vec = lambda2_reference(INTERVAL, 63)
    tr = inverse_iterate(INTERVAL, 63, 2.0, Custom(vec))
    R = [s.R for s in tr.steps]
    while len(R) < 11:
        tr = inverse_iterate(INTERVAL, 63, 2.0, Custom(tr.final))
        R += [s.R for s in tr.steps[1:]]
    spread = (max(R) - min(R)) / R[0]
    print(f"criterion 8: R spread {spread:.2e} over {len(R) - 1} steps")
    assert spread <= 1e-10


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
def test_criterion_9_bruteforce_infimum(p):
    # interval with 5 interior nodes: small enough for global multistart
    tr = inverse_iterate(INTERVAL, 5, p, PositiveConstant())
    best = rayleigh_bruteforce(INTERVAL, 5, p)
    assert best <= tr.lambda_R + 1e-6, \
        f"p={p}: bruteforce {best} above lambda_R {tr.lambda_R}"
