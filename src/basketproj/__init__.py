"""American basket put pricing via one-dimensional Markovian projection.

Pipeline: project the multivariate dynamics onto a scalar surrogate SDE
(Laplace-approximated local volatility), solve the projected obstacle problem
by backward Euler finite differences, and certify the implied exercise rule
with Monte Carlo lower (hitting-time) and upper (dual-martingale) bounds.
"""

__version__ = "0.1.0"

from .density import ExpansionCoords, LogIntegrands, chart
from .hjb import ExerciseBoundary, Grid, Sweep, exercise_boundary, make_grid, solve, value_at
from .mc import BoundsResult, bias_estimate, diffusion, simulate_bounds, step
from .model import ModelKind, ModelSpec, Portfolio, PutPayoff, correlation_to_sigma
from .oracle import binomial_american_put_1d, quadrature_projected_vol
from .projection import LaplacePoint, newton_maximize, projected_vol_sq
from .surface import CoefficientSurface, Envelope, build_surface, estimate_envelope, fit_surface

__all__ = [
    "__version__",
    "ModelKind", "ModelSpec", "Portfolio", "PutPayoff",
    "correlation_to_sigma",
    "ExpansionCoords", "LogIntegrands", "chart",
    "LaplacePoint", "newton_maximize", "projected_vol_sq",
    "CoefficientSurface", "Envelope", "build_surface", "estimate_envelope", "fit_surface",
    "Grid", "Sweep", "ExerciseBoundary",
    "make_grid", "solve", "exercise_boundary", "value_at",
    "BoundsResult", "simulate_bounds", "diffusion", "step", "bias_estimate",
    "quadrature_projected_vol", "binomial_american_put_1d",
]
