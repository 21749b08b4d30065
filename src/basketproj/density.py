"""Transition densities and hyperplane-restricted log-integrands.

The projected squared volatility is a ratio of two integrals over the
hyperplane {P x = s}.  This module supplies the closed-form log densities of
the forward process, the affine chart that eliminates one coordinate, and the
two log-integrands (density alone, density times the basket quadratic form)
with exact gradients and Hessians in price or log-price coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import ModelKind, ModelSpec, Portfolio

WEIGHT_FLOOR = 1e-150


class ExpansionCoords(Enum):
    PRICE = "price"
    LOG_PRICE = "log-price"


@dataclass(frozen=True)
class HyperplaneChart:
    """Affine parametrization of {P x = s} eliminating the largest-weight coordinate.

    z holds the free coordinates (original index order); the eliminated
    coordinate is recovered from the basket constraint.
    """

    portfolio: Portfolio
    s: float
    pivot: int
    free: np.ndarray  # original indices of the free coordinates

    def x_of(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        w = self.portfolio.weights
        x = np.empty(self.portfolio.d)
        x[self.free] = z
        x[self.pivot] = (self.s - w[self.free] @ z) / w[self.pivot]
        return x

    @property
    def basis(self) -> np.ndarray:
        """d x (d-1) Jacobian dx/dz of the affine map."""
        w = self.portfolio.weights
        b = np.zeros((self.portfolio.d, self.free.size))
        b[self.free, np.arange(self.free.size)] = 1.0
        b[self.pivot, :] = -w[self.free] / w[self.pivot]
        return b


def chart(p: Portfolio, s: float) -> HyperplaneChart:
    """Build the chart, eliminating the coordinate with the largest |weight|."""
    w = p.weights
    pivot = int(np.argmax(np.abs(w)))
    if abs(w[pivot]) < WEIGHT_FLOOR:
        raise ValueError("all portfolio weights are below the pivot threshold")
    free = np.array([i for i in range(p.d) if i != pivot], dtype=int)
    return HyperplaneChart(portfolio=p, s=float(s), pivot=pivot, free=free)


class _Gaussian:
    """Multivariate normal with cached Cholesky solve."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        self.mean = mean
        self.cov = cov
        try:
            self._cf = cho_factor(cov, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular covariance") from exc
        diag = np.diag(self._cf[0])
        if np.min(diag) <= 0 or not np.all(np.isfinite(diag)):
            raise ValueError("singular covariance")
        self.logdet = 2.0 * float(np.sum(np.log(diag)))
        self.dim = mean.size

    def inv(self) -> np.ndarray:
        return cho_solve(self._cf, np.eye(self.dim))

    def logpdf_alpha(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """(log pdf at y, cov^{-1} (y - mean)) from one solve."""
        dev = y - self.mean
        alpha = cho_solve(self._cf, dev)
        val = float(-0.5 * dev @ alpha - 0.5 * (self.dim * np.log(2 * np.pi) + self.logdet))
        return val, alpha


def transition_law(model: ModelSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the Gaussian law at time t: of X(t) itself
    (Bachelier) or of the log-returns log(X(t) / x0) (Black-Scholes)."""
    if model.kind is ModelKind.BACHELIER:
        # Solution of dX = rX dt + Sigma dW: Gaussian with the integrated covariance.
        if abs(model.r) < 1e-12:
            scale = t
        else:
            scale = np.expm1(2.0 * model.r * t) / (2.0 * model.r)
        return model.x0 * np.exp(model.r * t), model.omega * scale
    omega = model.omega
    return (model.r - 0.5 * np.diag(omega)) * t, omega * t


class LogIntegrands:
    """f = log(density * PbbtP), ftilde = log(density), on the chart coordinates.

    Gradients and Hessians are exact for both model kinds.  In log-price
    coordinates the change-of-variables Jacobian is part of the integrand, so
    that integrals (and their Laplace approximations) refer to the same
    underlying surface integral as in price coordinates.
    """

    def __init__(self, model: ModelSpec, p: Portfolio, t: float, s: float, coords=None):
        """coords: an ExpansionCoords or its value; None picks log-price for
        Black-Scholes and price for Bachelier."""
        if not t > 0:
            raise ValueError("t must be positive")
        if coords is None:
            coords = ExpansionCoords.PRICE if model.kind is ModelKind.BACHELIER else ExpansionCoords.LOG_PRICE
        coords = ExpansionCoords(coords)
        if coords is ExpansionCoords.LOG_PRICE and model.kind is ModelKind.BACHELIER:
            raise ValueError("log-price coordinates undefined for Bachelier (prices may be negative)")
        self.model = model
        self.portfolio = p
        self.t = float(t)
        self.s = float(s)
        self.coords = coords
        self.chart = chart(p, s)
        self._omega = model.omega
        # the transition law of the state (Bachelier) or of its log-returns
        # (Black-Scholes); the Newton start conditions it on the basket
        self.gauss = _Gaussian(*transition_law(model, t))
        if model.kind is ModelKind.BACHELIER:
            row = p.weights @ model.sigma
            self._const_q = float(row @ row)
        self._cinv = self.gauss.inv()

    # -- state-space pieces -------------------------------------------------

    def _x(self, z: np.ndarray) -> np.ndarray:
        if self.coords is ExpansionCoords.PRICE:
            return self.chart.x_of(z)
        zfree = self.model.x0[self.chart.free] * np.exp(np.asarray(z, dtype=float))
        return self.chart.x_of(zfree)

    def _in_support(self, x: np.ndarray) -> bool:
        if self.model.kind is ModelKind.BACHELIER:
            return True
        return bool(np.all(x > 0.0))

    def _logphi_parts(self, x: np.ndarray):
        """Value, gradient and Hessian of log density in x."""
        if self.model.kind is ModelKind.BACHELIER:
            val, a = self.gauss.logpdf_alpha(x)
            return val, -a, -self._cinv
        w = np.log(x / self.model.x0)
        val, a = self.gauss.logpdf_alpha(w)
        val -= float(np.sum(np.log(x)))
        grad = -(a + 1.0) / x
        hess = -self._cinv / np.outer(x, x) + np.diag((a + 1.0) / x**2)
        return val, grad, hess

    def _logq_parts(self, x: np.ndarray):
        """Value, gradient and Hessian of log(P b b^T P^T) in x."""
        if self.model.kind is ModelKind.BACHELIER:
            d = x.size
            return np.log(self._const_q), np.zeros(d), np.zeros((d, d))
        pw = self.portfolio.weights
        v = pw * x
        ov = self._omega @ v
        q = float(v @ ov)
        if q <= 0.0:
            raise ValueError("degenerate basket quadratic form")
        dq = 2.0 * pw * ov
        d2q = 2.0 * np.outer(pw, pw) * self._omega
        return np.log(q), dq / q, d2q / q - np.outer(dq, dq) / q**2

    # -- chart chain rule ---------------------------------------------------

    def _chain(self, z, val_x, grad_x, hess_x):
        """Pull (value, grad, hess) in x back through the chart coordinates."""
        ch = self.chart
        if self.coords is ExpansionCoords.PRICE:
            b = ch.basis
            return val_x, b.T @ grad_x, b.T @ hess_x @ b
        z = np.asarray(z, dtype=float)
        xfree = self.model.x0[ch.free] * np.exp(z)
        w = self.portfolio.weights
        jac = np.zeros((self.model.d, ch.free.size))
        jac[ch.free, np.arange(ch.free.size)] = xfree
        jac[ch.pivot, :] = -w[ch.free] * xfree / w[ch.pivot]
        grad = jac.T @ grad_x
        hess = jac.T @ hess_x @ jac
        # second-derivative terms of the (non-affine) map, diagonal in the chart
        hess += np.diag(grad_x[ch.free] * xfree - grad_x[ch.pivot] * w[ch.free] * xfree / w[ch.pivot])
        # measure Jacobian prod x0_j e^{z_j}
        val = val_x + float(np.sum(z) + np.sum(np.log(self.model.x0[ch.free])))
        grad = grad + 1.0
        return val, grad, hess

    # -- public integrands ---------------------------------------------------

    def ftilde(self, z: np.ndarray) -> float:
        x = self._x(z)
        if not self._in_support(x):
            return -np.inf
        val, _, _ = self._logphi_parts(x)
        if self.coords is ExpansionCoords.LOG_PRICE:
            z = np.asarray(z, dtype=float)
            val += float(np.sum(z) + np.sum(np.log(self.model.x0[self.chart.free])))
        return val

    def f(self, z: np.ndarray) -> float:
        x = self._x(z)
        if not self._in_support(x):
            return -np.inf
        return self.ftilde(z) + self._logq_parts(x)[0]

    def ftilde_derivs(self, z: np.ndarray):
        """(value, gradient, Hessian) of ftilde at an interior point."""
        x = self._x(z)
        if not self._in_support(x):
            raise ValueError("derivatives undefined outside the density support")
        return self._chain(z, *self._logphi_parts(x))

    def f_derivs(self, z: np.ndarray):
        """(value, gradient, Hessian) of f at an interior point."""
        x = self._x(z)
        if not self._in_support(x):
            raise ValueError("derivatives undefined outside the density support")
        pv, pg, ph = self._logphi_parts(x)
        qv, qg, qh = self._logq_parts(x)
        return self._chain(z, pv + qv, pg + qg, ph + qh)
