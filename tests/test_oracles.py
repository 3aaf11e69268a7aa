import math

import numpy as np
import pytest

import pground.oracles
from pground.geometry import Interval, Rectangle
from pground.iteration import PositiveConstant, inverse_iterate
from pground.oracles import (BracketFailure, SizeExceeded, _first_zero,
                             lambda2_reference, lambda_p_shooting_1d,
                             rayleigh_bruteforce)


def pi_p(p: float) -> float:
    """Half-period of the generalized sine function."""
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def lambda_p_closed_form(p: float) -> float:
    """First 1D eigenvalue on (0, 1): pi_p to the p, with the eigenvalue
    normalization that reduces to pi^2 at p = 2."""
    return pi_p(p) ** p


class TestLinearReference:
    def test_three_node_closed_form(self):
        # 3-point stencil with h = 1/4: smallest eigenvalue 16 (2 - sqrt 2)
        lam, _ = lambda2_reference(Interval(0.0, 1.0), 3)
        assert lam == pytest.approx(16.0 * (2.0 - math.sqrt(2.0)), rel=1e-12)

    def test_interval_stencil_formula(self):
        lam, vec = lambda2_reference(Interval(0.0, 1.0), 31)
        h = 1.0 / 32.0
        expect = (2.0 - 2.0 * math.cos(math.pi * h)) / h ** 2
        assert lam == pytest.approx(expect, rel=1e-10)
        # eigenvector is the sampled sine, positive, unit L^2
        x = vec.grid.node_coords()
        s = np.sin(math.pi * x)
        s *= vec.values[16] / s[16]
        assert np.allclose(vec.values, s, atol=1e-10)
        assert np.all(vec.values[vec.grid.interior] > 0)

    def test_square_stencil_formula(self):
        lam, _ = lambda2_reference(Rectangle(0.0, 1.0, 0.0, 1.0), 16)
        h = 1.0 / 16.0
        expect = 2.0 * (2.0 - 2.0 * math.cos(math.pi * h)) / h ** 2
        assert lam == pytest.approx(expect, rel=1e-10)

    def test_size_cap(self):
        with pytest.raises(SizeExceeded):
            lambda2_reference(Rectangle(0.0, 1.0, 0.0, 1.0), 200)


class TestShooting:
    def test_p2_recovers_pi_squared(self):
        lam = lambda_p_shooting_1d(2.0)
        assert lam == pytest.approx(math.pi ** 2, rel=1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_matches_closed_form(self, p):
        lam = lambda_p_shooting_1d(p, tol=1e-11)
        assert lam == pytest.approx(lambda_p_closed_form(p), rel=1e-8)

    def test_continuity_in_p(self):
        lams = [lambda_p_shooting_1d(p, tol=1e-9)
                for p in (2.99, 3.0, 3.01)]
        assert abs(lams[0] - lams[1]) / lams[1] < 0.01
        assert abs(lams[2] - lams[1]) / lams[1] < 0.01

    def test_tol_below_double_resolution_ends(self):
        # the bisection ran on forever once lo and hi were adjacent doubles
        fine = lambda_p_shooting_1d(3.0, tol=1e-20)
        assert abs(fine - lambda_p_shooting_1d(3.0, tol=1e-15)) <= 1e-14 * fine

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lambda_p_shooting_1d(1.0)
        # an infinite tolerance ran no bisection step and returned the
        # bracket's midpoint as the eigenvalue
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol"):
                lambda_p_shooting_1d(2.0, tol=tol)

    def test_large_p_brackets_from_two_to_the_p(self, monkeypatch):
        # doubling from pi^2 made 200 ODE solves at p = 200 and raised
        # BracketFailure; from 2^p it doubles 8 times and bisects
        calls, first_zero = [0], pground.oracles._first_zero

        def counting(*args):
            calls[0] += 1
            return first_zero(*args)

        monkeypatch.setattr(pground.oracles, "_first_zero", counting)
        lam = lambda_p_shooting_1d(200.0)
        assert lam == pytest.approx(lambda_p_closed_form(200.0), rel=1e-9)
        assert calls[0] <= 45

    def test_eigenvalue_past_float_range(self, monkeypatch):
        # lambda_p > 2^p overflows from p = 1024 on; no ODE is solved
        monkeypatch.setattr(pground.oracles, "_first_zero", None)
        with pytest.raises(BracketFailure, match="float range"):
            lambda_p_shooting_1d(2000.0)

    def test_profile_p2_is_sine(self):
        # started with u'(0) = 1, the p = 2 profile is sin(pi x) / pi
        x = np.linspace(0.0, 1.0, 257)
        u = _first_zero(2.0, math.pi ** 2, x_end=1.0)[1].sol(x)[0]
        assert np.allclose(math.pi * u, np.sin(math.pi * x), atol=1e-6)

    def test_profile_normalized(self):
        # at the closed-form eigenvalue the profile vanishes at both ends
        x = np.linspace(0.0, 1.0, 257)
        u = _first_zero(3.0, lambda_p_closed_form(3.0), x_end=1.0)[1].sol(x)[0]
        u_sup = np.abs(u).max()
        assert abs(u[0]) < 1e-8 * u_sup and abs(u[-1]) < 1e-6 * u_sup


class TestBruteforce:
    def test_matches_dense_at_p2(self):
        spec = Interval(0.0, 1.0)
        lam, _ = lambda2_reference(spec, 5)
        best = rayleigh_bruteforce(spec, 5, 2.0, restarts=16)
        assert best == pytest.approx(lam, rel=1e-10)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_not_above_iteration(self, p):
        spec = Interval(0.0, 1.0)
        tr = inverse_iterate(spec, 5, p, PositiveConstant())
        best = rayleigh_bruteforce(spec, 5, p, restarts=16)
        assert best <= tr.lambda_R + 1e-6

    def test_deterministic(self):
        spec = Interval(0.0, 1.0)
        a = rayleigh_bruteforce(spec, 4, 3.0, restarts=8, seed=2)
        b = rayleigh_bruteforce(spec, 4, 3.0, restarts=8, seed=2)
        assert a == b

    def test_size_cap(self):
        with pytest.raises(SizeExceeded):
            rayleigh_bruteforce(Interval(0.0, 1.0), 100, 3.0)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_rejects_no_restart(self, restarts):
        # no local minimization returned the value inf
        with pytest.raises(ValueError, match="restarts"):
            rayleigh_bruteforce(Interval(0.0, 1.0), 3, 3.0, restarts=restarts)
