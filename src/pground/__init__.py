"""Inverse iteration for p-Laplacian ground states on lattice domains."""

from .geometry import Grid, Interval, MaskDomain, Rectangle, build_grid, inradius
from .calculus import (EnergyReport, GridFunction, energy_report,
                       gradient_field, grad_sup, p_dirichlet_energy,
                       p_norm_pow, rayleigh_quotient, sup_norm)
from .inner import NonConvergence, SolverConfig, signed_power, solve_step
from .iteration import (Custom, DegenerateIterate, InitPolicy, IterationTrace,
                        PositiveConstant, RandomPositive, check_monotonicity,
                        consistency_estimators, inverse_iterate, verify)
from .oracles import lambda2_reference, lambda_p_shooting_1d, rayleigh_bruteforce
from .infinity import SweepResult, monotone_supnorm_check, sweep

__all__ = [
    "Grid", "Interval", "MaskDomain", "Rectangle", "build_grid", "inradius",
    "EnergyReport", "GridFunction", "energy_report", "gradient_field",
    "grad_sup", "p_dirichlet_energy", "p_norm_pow", "rayleigh_quotient",
    "sup_norm", "NonConvergence", "SolverConfig", "signed_power", "solve_step",
    "Custom", "DegenerateIterate", "InitPolicy", "IterationTrace",
    "PositiveConstant", "RandomPositive", "check_monotonicity",
    "consistency_estimators", "inverse_iterate", "lambda2_reference",
    "lambda_p_shooting_1d", "rayleigh_bruteforce", "SweepResult",
    "monotone_supnorm_check", "sweep", "verify",
]

__version__ = "0.1.0"
