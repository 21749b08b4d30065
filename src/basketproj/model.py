"""Market model, basket portfolio and put payoff.

Everything downstream (projection, PDE solve, Monte Carlo) consumes only the
interface defined here: risk-neutral drift r*x and a volatility loading matrix
that is either constant (Bachelier) or proportional to the state (Black-Scholes).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

PIVOT_TOL = 1e-10


class ModelKind(Enum):
    BACHELIER = "bachelier"
    BLACK_SCHOLES = "black-scholes"


def _frozen_array(a, ndim: int) -> np.ndarray:
    out = np.array(a, dtype=float)
    if out.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Risk-neutral multivariate dynamics dX = r X dt + b(t, X) dW.

    sigma is the d x k loading matrix: b = sigma for Bachelier,
    b_ij = x_i * sigma_ij for Black-Scholes.
    """

    kind: ModelKind
    r: float
    sigma: np.ndarray
    x0: np.ndarray
    T: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _frozen_array(self.sigma, ndim=2))
        object.__setattr__(self, "x0", _frozen_array(self.x0, ndim=1))
        d, k = self.sigma.shape
        if d < 1 or k < 1:
            raise ValueError("need d >= 1 and k >= 1")
        if self.x0.shape != (d,):
            raise ValueError(f"x0 has shape {self.x0.shape}, expected ({d},)")
        if not self.T > 0:
            raise ValueError("maturity T must be positive")
        if self.kind is ModelKind.BLACK_SCHOLES and not np.all(self.x0 > 0):
            raise ValueError("Black-Scholes requires strictly positive x0")
        # sigma sigma^T is positive semi-definite for every real sigma; what
        # can fail is a non-finite sigma, or a product that overflows
        if not np.all(np.isfinite(self.omega)):
            raise ValueError("sigma @ sigma.T has non-finite entries")

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    @property
    def k(self) -> int:
        return self.sigma.shape[1]

    @property
    def omega(self) -> np.ndarray:
        """Instantaneous quadratic form sigma @ sigma.T."""
        return self.sigma @ self.sigma.T


@dataclass(frozen=True)
class Portfolio:
    """Basket weights; the projection direction."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights, ndim=1))
        w = self.weights
        if np.any(w == 0.0):
            raise ValueError("portfolio weights must all be nonzero")
        if not np.any(w > 0.0):
            raise ValueError("at least one portfolio weight must be positive")

    @property
    def d(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class PutPayoff:
    """g(s) = max(K - s, 0)."""

    strike: float

    def __post_init__(self):
        if not self.strike > 0:
            raise ValueError("strike must be positive")

    def __call__(self, s):
        """Put payoff max(K - s, 0); accepts scalars or arrays."""
        return put_value(self.strike, np.asarray(s, dtype=float))


def put_value(strike, s, out=None):
    """max(K - s, 0) elementwise: a (K, 1) column of strikes against (m,) levels
    gives every strike's payoff at once, written into out when given."""
    return np.maximum(np.subtract(strike, s, out=out), 0.0, out=out)


def correlation_to_sigma(vols, corr) -> np.ndarray:
    """Build the loading matrix diag(vols) @ chol(corr).

    corr must be a strictly positive definite correlation matrix; failure to
    factor is reported as a configuration error.
    """
    vols = np.asarray(vols, dtype=float)
    corr = np.asarray(corr, dtype=float)
    d = vols.size
    if corr.shape != (d, d):
        raise ValueError(f"correlation matrix shape {corr.shape} does not match {d} vols")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise ValueError("correlation matrix must have unit diagonal")
    try:
        g = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise ValueError("correlation matrix is not positive definite") from exc
    if np.min(np.diag(g)) < np.sqrt(PIVOT_TOL):
        raise ValueError("correlation matrix is numerically singular")
    return vols[:, None] * g
