"""Inverse iteration for p-Laplacian ground states on lattice domains."""

from .geometry import Grid, Interval, MaskDomain, Rectangle, build_grid, inradius
from .calculus import EnergyReport, GridFunction, p_norm_pow, rayleigh_quotient
from .inner import NonConvergence
from .iteration import (Custom, DegenerateIterate, InitPolicy, IterationTrace,
                        PositiveConstant, RandomPositive, check_monotonicity,
                        consistency_estimators, inverse_iterate, verify)
from .oracles import lambda2_reference, lambda_p_shooting_1d, rayleigh_bruteforce
from .infinity import SweepResult, monotone_supnorm_check, sweep

__all__ = [
    "Grid", "Interval", "MaskDomain", "Rectangle", "build_grid", "inradius",
    "EnergyReport", "GridFunction", "p_norm_pow", "rayleigh_quotient",
    "NonConvergence", "Custom", "DegenerateIterate", "InitPolicy", "IterationTrace",
    "PositiveConstant", "RandomPositive", "check_monotonicity",
    "consistency_estimators", "inverse_iterate", "lambda2_reference",
    "lambda_p_shooting_1d", "rayleigh_bruteforce", "SweepResult",
    "monotone_supnorm_check", "sweep", "verify",
]

__version__ = "0.1.0"
