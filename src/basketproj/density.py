"""Transition densities and hyperplane-restricted log-integrands.

The projected squared volatility is a ratio of two integrals over the
hyperplane {P x = s}.  This module supplies the Gaussian transition law of
the forward process (either model), the affine chart that eliminates one
coordinate, and the two log-integrands of a Black-Scholes model (density
alone, density times the basket quadratic form) with exact gradients and
Hessians in price or log-price coordinates.  A Bachelier model needs no
integral: its projected coefficient is the constant quadratic form.  The
transition covariance is factored and solved by LAPACK's ``dpotrf``/``dpotrs``
from ``lapack``, with the arguments ``cho_factor``/``cho_solve`` pass, so the
bits are theirs without their per-call checks.

Shapes: one LogIntegrands serves one time t.  Its integrands take a stack of
n basket levels s, shape (n,), and chart points z, shape (n, d-1), one row
per level, and return values (n,), gradients (n, d-1) and Hessians
(n, d-1, d-1).  A row where the integrand is undefined (outside the density
support, a non-finite state or a non-positive quadratic form) has value -inf
and zero derivatives; nothing raises.  Rows never mix: per-row dot products
are (a[..., None, :] @ b[..., :, None]), one ddot each, and matrix products
are stacked matmuls, so each row carries the arithmetic of a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lapack import dpotrf, dpotrs
from .model import ModelKind, ModelSpec, Portfolio

WEIGHT_FLOOR = 1e-150


class ExpansionCoords(Enum):
    PRICE = "price"
    LOG_PRICE = "log-price"


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (b may be one shared vector), each summed
    as a 1-D a @ b would.  Rows are made contiguous first: a strided row takes
    another BLAS kernel with another summation order."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for each row of v, with a one matrix or a stack."""
    return (a @ v[..., None])[..., 0]


@dataclass(frozen=True)
class HyperplaneChart:
    """Affine parametrization of the hyperplanes {P x = s} eliminating the
    largest-weight coordinate.

    z holds the free coordinates (original index order); the eliminated
    coordinate is recovered from the basket constraint at each level s.
    """

    portfolio: Portfolio
    pivot: int
    free: np.ndarray  # original indices of the free coordinates

    def x_of(self, s, z: np.ndarray) -> np.ndarray:
        """The points x with P x = s: s a float or (n,), z (d-1,) or (n, d-1)."""
        z = np.asarray(z, dtype=float)
        w = self.portfolio.weights
        x = np.empty(z.shape[:-1] + (self.portfolio.d,))
        x[..., self.free] = z
        x[..., self.pivot] = (s - rowdot(z, w[self.free])) / w[self.pivot]
        return x

    @property
    def basis(self) -> np.ndarray:
        """d x (d-1) Jacobian dx/dz of the affine map."""
        w = self.portfolio.weights
        b = np.zeros((self.portfolio.d, self.free.size))
        b[self.free, np.arange(self.free.size)] = 1.0
        b[self.pivot, :] = -w[self.free] / w[self.pivot]
        return b


def chart(p: Portfolio) -> HyperplaneChart:
    """Build the chart, eliminating the coordinate with the largest |weight|."""
    w = p.weights
    pivot = int(np.argmax(np.abs(w)))
    if abs(w[pivot]) < WEIGHT_FLOOR:
        raise ValueError("all portfolio weights are below the pivot threshold")
    free = np.array([i for i in range(p.d) if i != pivot], dtype=int)
    return HyperplaneChart(portfolio=p, pivot=pivot, free=free)


class _Gaussian:
    """Multivariate normal with cached Cholesky solve.  The covariance is
    checked finite once here; the right-hand sides come finite from
    ``LogIntegrands._defined``."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        self.mean = mean
        self.cov = cov
        if not np.all(np.isfinite(cov)):
            raise ValueError("non-finite covariance")
        self._c, info = dpotrf(cov, lower=1, clean=0)
        if info > 0:
            raise ValueError("singular covariance")
        if info < 0:
            raise ValueError(f"LAPACK dpotrf info={info}")
        diag = np.diag(self._c)
        if np.min(diag) <= 0 or not np.all(np.isfinite(diag)):
            raise ValueError("singular covariance")
        self.logdet = 2.0 * float(np.sum(np.log(diag)))
        self.dim = mean.size

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """cov^{-1} b for b (d, k)."""
        x, info = dpotrs(self._c, b, lower=1)
        if info != 0:
            raise ValueError(f"LAPACK dpotrs info={info}")
        return x

    def inv(self) -> np.ndarray:
        return self._solve(np.eye(self.dim))

    def logpdf_alpha(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log pdf, cov^{-1} (y - mean)) of each row of y (n, d), from one multi-RHS solve."""
        dev = y - self.mean
        alpha = self._solve(dev.T).T
        val = rowdot(-0.5 * dev, alpha) - 0.5 * (self.dim * np.log(2 * np.pi) + self.logdet)
        return val, alpha


def transition_law(model: ModelSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the Gaussian log-returns log(X(t) / x0) of a
    Black-Scholes model at time t."""
    omega = model.omega
    return (model.r - 0.5 * np.diag(omega)) * t, omega * t


class LogIntegrands:
    """f = log(density * PbbtP), ftilde = log(density), on the chart coordinates
    of every hyperplane {P x = s} at one time t, for a Black-Scholes model.

    Gradients and Hessians are exact.  In log-price coordinates the
    change-of-variables Jacobian is part of the integrand, so that integrals
    (and their Laplace approximations) refer to the same underlying surface
    integral as in price coordinates.  Each method takes basket levels s (n,)
    and chart points z (n, d-1); see the module docstring.
    """

    def __init__(self, model: ModelSpec, p: Portfolio, t: float,
                 coords: ExpansionCoords = ExpansionCoords.LOG_PRICE):
        if model.kind is ModelKind.BACHELIER:
            raise ValueError("Bachelier's coefficient is exact; projected_vol_sq returns it")
        if not t > 0:
            raise ValueError("t must be positive")
        self.model = model
        self.portfolio = p
        self.coords = coords
        self.chart = chart(p)
        self._omega = model.omega
        # the transition law of the log-returns; the Newton start conditions it on the basket
        self.gauss = _Gaussian(*transition_law(model, t))
        self._d2q = 2.0 * np.outer(p.weights, p.weights) * self._omega
        self._cinv = self.gauss.inv()
        if coords is ExpansionCoords.LOG_PRICE:
            self._log_x0_free = np.sum(np.log(model.x0[self.chart.free]))

    # -- state-space pieces -------------------------------------------------

    def _x(self, s: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.coords is ExpansionCoords.PRICE:
            return self.chart.x_of(s, z)
        return self.chart.x_of(s, self.model.x0[self.chart.free] * np.exp(z))

    def _defined(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of x where the log density is defined, and the Gaussian's
        argument there, the log-returns."""
        rows = np.flatnonzero(np.all(np.isfinite(x) & (x > 0.0), axis=1))
        y = np.log(x[rows] / self.model.x0)
        keep = np.all(np.isfinite(y), axis=1)
        return rows[keep], y[keep]

    def _logphi_parts(self, x: np.ndarray, y: np.ndarray):
        """Value, gradient and Hessian of log density in x, y as from _defined."""
        val, a = self.gauss.logpdf_alpha(y)
        val -= np.sum(np.log(x), axis=1)
        grad = -(a + 1.0) / x
        hess = x[:, :, None] * x[:, None, :]  # stacks are formed in place to bound peak memory
        np.divide(-self._cinv, hess, out=hess)
        diag = np.arange(x.shape[1])
        hess[:, diag, diag] += (a + 1.0) / x**2
        return val, grad, hess

    def _logq_parts(self, x: np.ndarray):
        """Rows with a positive basket quadratic form q = P b b^T P^T, and the
        value, gradient and Hessian of log q in x on those rows."""
        pw = self.portfolio.weights
        v = pw * x
        ov = matvec(self._omega, v)
        q = rowdot(v, ov)
        keep = q > 0.0
        q, ov = q[keep], ov[keep]
        dq = 2.0 * pw * ov
        outer = dq[:, :, None] * dq[:, None, :]
        outer /= (q**2)[:, None, None]
        hess = self._d2q / q[:, None, None]
        hess -= outer
        return keep, np.log(q), dq / q[:, None], hess

    # -- chart chain rule ---------------------------------------------------

    def _chain(self, z, val_x, grad_x, hess_x):
        """Pull (value, grad, hess) in x back through the chart coordinates."""
        ch = self.chart
        if self.coords is ExpansionCoords.PRICE:
            b = ch.basis
            return val_x, matvec(b.T, grad_x), b.T @ hess_x @ b
        n, m = z.shape
        xfree = self.model.x0[ch.free] * np.exp(z)
        w = self.portfolio.weights
        jac = np.zeros((n, self.model.d, m))
        jac[:, ch.free, np.arange(m)] = xfree
        jac[:, ch.pivot, :] = -w[ch.free] * xfree / w[ch.pivot]
        jac_t = jac.transpose(0, 2, 1)
        grad = matvec(jac_t, grad_x)
        hess = jac_t @ hess_x @ jac
        # second-derivative terms of the (non-affine) map, diagonal in the chart
        diag = np.arange(m)
        hess[:, diag, diag] += (grad_x[:, ch.free] * xfree
                                - grad_x[:, ch.pivot, None] * w[ch.free] * xfree / w[ch.pivot])
        # measure Jacobian prod x0_j e^{z_j}
        val = val_x + (np.sum(z, axis=1) + self._log_x0_free)
        return val, grad + 1.0, hess

    # -- public integrands ---------------------------------------------------

    def _derivs(self, s, z, with_q: bool):
        z = np.ascontiguousarray(z, dtype=float)
        n, m = z.shape
        x = self._x(s, z)
        rows, y = self._defined(x)
        if with_q:
            keep, qv, qg, qh = self._logq_parts(x[rows])
            rows, y = rows[keep], y[keep]
        pv, pg, ph = self._logphi_parts(x[rows], y)
        # each (n, d, d) stack is dropped once used: they set the stage's peak memory too
        if with_q:
            pv, pg = pv + qv, pg + qg
            ph += qh
            del qh
        parts = self._chain(z[rows], pv, pg, ph)
        del ph
        val, grad, hess = np.full(n, -np.inf), np.zeros((n, m)), np.zeros((n, m, m))
        val[rows], grad[rows], hess[rows] = parts
        return val, grad, hess

    def ftilde_derivs(self, s, z):
        """(values, gradients, Hessians) of ftilde on the stack."""
        return self._derivs(s, z, with_q=False)

    def f_derivs(self, s, z):
        """(values, gradients, Hessians) of f on the stack."""
        return self._derivs(s, z, with_q=True)
