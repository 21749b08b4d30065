"""Pointwise Laplace evaluation of the projected SDE coefficients.

The surrogate basket SDE has drift r*s exactly; its squared volatility is the
conditional expectation of the basket quadratic form, approximated here by the
ratio of two Laplace-approximated hyperplane integrals.  The Bachelier model
bypasses the approximation: the conditional expectation is the constant
quadratic form itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import ExpansionCoords, LogIntegrands
from .model import ModelKind, ModelSpec, Portfolio

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


class NewtonError(RuntimeError):
    """Newton maximization failed (left the support, singular or indefinite Hessian)."""


@dataclass(frozen=True)
class NewtonResult:
    z: np.ndarray
    value: float
    hess: np.ndarray
    logdet: float             # log det(-hess), from the Cholesky factor that proves -hess > 0
    iterations: int


@dataclass(frozen=True)
class LaplacePoint:
    """Record of one Laplace evaluation: both maximizers and their Hessian log-determinants."""

    z_star: np.ndarray        # maximizer of f (numerator)
    z_dagger: np.ndarray      # maximizer of ftilde (denominator)
    f_star: float
    ftilde_dagger: float
    logdet_hf: float          # log det of -H f at z_star
    logdet_hftilde: float
    iterations: int

    @property
    def value(self) -> float:
        return float(np.exp(self.f_star - self.ftilde_dagger
                            + 0.5 * (self.logdet_hftilde - self.logdet_hf)))


def newton_maximize(derivs, z0: np.ndarray) -> NewtonResult:
    """Damped Newton ascent on a concave log-integrand.

    derivs(z) must return (value, gradient, Hessian); z0 must be interior.
    The step is z <- z - H^{-1} grad with halving while the value decreases.
    A terminal Hessian that is not negative definite raises NewtonError.
    """
    z = np.asarray(z0, dtype=float).copy()
    try:
        val, grad, hess = derivs(z)
    except ValueError as exc:
        raise NewtonError(f"Newton start outside the support: {exc}") from exc
    if not np.isfinite(val):
        raise NewtonError("Newton start outside the support")
    for it in range(1, NEWTON_MAX_ITER + 1):
        scale = max(1.0, float(np.max(np.abs(hess))))
        if float(np.linalg.norm(grad)) <= NEWTON_TOL * scale:
            return NewtonResult(z=z, value=val, hess=hess, logdet=_logdet_neg(hess),
                                iterations=it - 1)
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NewtonError("singular Hessian in Newton iteration") from exc
        if float(grad @ step) <= 0.0:
            # indefinite Hessian; fall back to a scaled gradient ascent step
            step = grad / scale
        lam = 1.0
        for _ in range(40):
            cand = z + lam * step
            try:
                nval, ngrad, nhess = derivs(cand)
            except ValueError:
                nval = -np.inf
            if np.isfinite(nval) and nval >= val - 1e-14 * max(1.0, abs(val)):
                break
            lam *= 0.5
        else:
            raise NewtonError("line search failed (iterate left the support)")
        z, val, grad, hess = cand, nval, ngrad, nhess
    raise NewtonError(f"Newton did not converge within {NEWTON_MAX_ITER} iterations")


def _logdet_neg(hess: np.ndarray) -> float:
    """log det(-H) by symmetric factorization; H must be negative definite."""
    try:
        chol = np.linalg.cholesky(-hess)
    except np.linalg.LinAlgError as exc:
        raise NewtonError("Hessian not negative definite at the terminal point") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def newton_start(li: LogIntegrands) -> np.ndarray:
    """Interior Newton start: conditional-mean point of the integrands' Gaussian.

    Bachelier conditions the exact Gaussian on the basket; Black-Scholes
    conditions the Gaussian log-returns on the linearized basket constraint.
    """
    model, ch, g, s = li.model, li.chart, li.gauss, li.s
    w = li.portfolio.weights
    if model.kind is ModelKind.BACHELIER:
        cp = g.cov @ w
        point = g.mean + cp * (s - float(w @ g.mean)) / float(w @ cp)
        return point[ch.free]
    a = w * model.x0
    ca = g.cov @ a
    target = s - float(w @ model.x0)
    what = g.mean + ca * (target - float(a @ g.mean)) / float(a @ ca)
    x = model.x0 * np.exp(what)
    # the eliminated coordinate implied by the constraint must stay positive
    x_piv = (s - float(w[ch.free] @ x[ch.free])) / w[ch.pivot]
    if x_piv <= 0.0:
        if s <= 0.0 or float(w @ model.x0) <= 0.0:
            raise NewtonError("no interior Newton start exists for this (t, s)")
        x = model.x0 * (s / float(w @ model.x0))  # proportional point, always on the hyperplane
    if li.coords is ExpansionCoords.LOG_PRICE:
        return np.log(x[ch.free] / model.x0[ch.free])
    return x[ch.free]


def laplace_point(model: ModelSpec, p: Portfolio, t: float, s: float,
                  coords=None) -> LaplacePoint:
    """Run both Newton maximizations and package the Laplace data.

    coords is as in LogIntegrands.
    """
    li = LogIntegrands(model, p, t, s, coords)
    res_den = newton_maximize(li.ftilde_derivs, newton_start(li))
    res_num = newton_maximize(li.f_derivs, res_den.z)
    return LaplacePoint(
        z_star=res_num.z,
        z_dagger=res_den.z,
        f_star=res_num.value,
        ftilde_dagger=res_den.value,
        logdet_hf=res_num.logdet,
        logdet_hftilde=res_den.logdet,
        iterations=res_num.iterations + res_den.iterations,
    )


def projected_vol_sq(model: ModelSpec, p: Portfolio, t: float, s: float,
                     coords=None) -> float:
    """Projected squared volatility of the basket at (t, s).

    Bachelier: the exact constant P Sigma Sigma^T P^T.  Black-Scholes: the
    Laplace-approximated ratio exp(f* - ftilde*) sqrt(det|H ftilde| / det|H f|).
    """
    if model.kind is ModelKind.BACHELIER:
        row = p.weights @ model.sigma
        return float(row @ row)
    return laplace_point(model, p, t, s, coords=coords).value
