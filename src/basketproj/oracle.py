"""Independent reference computations used only for validation.

Two oracles: the exact hyperplane integral of the projected squared volatility
(d <= 3) and a CRR binomial tree for one-dimensional American puts.  Neither
shares code with the Laplace stage it checks.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .model import ModelKind, ModelSpec, Portfolio

# the trapezoid grid of quadrature_projected_vol on every chart axis.  Within
# 2.5 sd of the basket, halving the spacing or widening the interval moves the
# value by less than 1e-12 relative on bs3d for t >= 0.3, and with vols 0.1-0.9
# over T = 3 for t >= 0.25 (d = 2) and t >= 1 (d = 3).  At small t the law on
# the plane is too narrow for the spacing: bs3d at t = 0.05 is off by 1.7e-4.
U_HALF_WIDTH = 30.0
U_SPACING = 0.05


def quadrature_projected_vol(model: ModelSpec, p: Portfolio, t: float, s):
    """E[P b b^T P^T | P X(t) = s] for d <= 3 at each level s (a float or an
    array), by integrating over the whole hyperplane {P x = s}.

    Black-Scholes only (Bachelier's value is the constant P Sigma Sigma^T P^T,
    which projection.projected_vol_sq returns), with positive weights and
    s > 0.  The plane is x = s theta / w with theta = softmax(u, 0),
    u in R^(d-1), on which the lognormal density times the area element is the
    Gaussian density of the log-returns alone (the area element, proportional
    to prod(theta), cancels the density's 1 / prod(x)).  The ratio of the two
    integrals in u is taken by the trapezoid rule on every axis, spacing
    U_SPACING over [-U_HALF_WIDTH, U_HALF_WIDTH], one grid for every level.
    """
    d = model.d
    if model.kind is not ModelKind.BLACK_SCHOLES or d > 3 or not t > 0:
        raise ValueError("quadrature oracle needs a Black-Scholes model, d <= 3 and t > 0")
    w = p.weights
    levels = np.asarray(s, dtype=float)
    if not (np.all(w > 0.0) and np.all(levels > 0.0)):
        raise ValueError("quadrature oracle needs positive weights and s > 0")
    u = np.linspace(-U_HALF_WIDTH, U_HALF_WIDTH, int(round(2.0 * U_HALF_WIDTH / U_SPACING)) + 1)
    z = [*np.meshgrid(*[u] * (d - 1), indexing="ij", sparse=True), 0.0]  # the logits of theta
    lse = reduce(np.logaddexp, z)
    # the Gaussian law of the log-returns log(X(t) / x0), written out here so
    # that the reference shares no code with the Laplace stage it checks
    omega = model.omega
    mean, cov = (model.r - 0.5 * np.diag(omega)) * t, omega * t
    a = [zi - lse - ci for zi, ci in zip(z, np.log(w * model.x0) + mean)]
    k = np.linalg.inv(cov)
    # a + log s is the log-return deviation, a = log theta - log(w x0) - mean, and
    # -0.5 (a + log s)' K (a + log s) = base - log s * slope + a constant on the plane;
    # the trapezoid end weights, halved on every axis, enter base as logs
    ends = np.zeros(u.size)
    ends[[0, -1]] = np.log(0.5)
    base = sum(np.meshgrid(*[ends] * (d - 1), indexing="ij", sparse=True)) \
        - 0.5 * sum(k[i, j] * a[i] * a[j] for i in range(d) for j in range(d))
    slope = sum(kc * ai for kc, ai in zip(k.sum(axis=1), a))
    del a  # d grid-sized arrays, freed before q's
    # theta' omega theta = P b b^T P^T / s^2, with theta_i theta_j = exp(z_i + z_j - 2 lse)
    q = sum(omega[i, j] * np.exp(z[i] + z[j] - 2.0 * lse) for i in range(d) for j in range(d))
    out = np.empty(levels.shape)
    for idx, log_s in np.ndenumerate(np.log(levels)):
        logw = base - log_s * slope
        weight = np.exp(logw - logw.max())
        out[idx] = np.vdot(weight, q) / weight.sum()
    return (levels * levels * out)[()]


def binomial_american_put_1d(spot: float, vol: float, r: float, strike: float,
                             maturity: float, steps: int) -> float:
    """CRR recombining tree with early exercise at every node."""
    if steps < 2:
        raise ValueError("need at least 2 tree steps")
    dt = maturity / steps
    u = np.exp(vol * np.sqrt(dt))
    d = 1.0 / u
    disc = np.exp(-r * dt)
    q = (np.exp(r * dt) - d) / (u - d)
    if not 0.0 < q < 1.0:
        raise ValueError("tree step too coarse for these parameters (risk-neutral prob outside (0,1))")
    j = np.arange(steps + 1)
    prices = spot * u**j * d ** (steps - j)
    values = np.maximum(strike - prices, 0.0)
    for i in range(steps - 1, -1, -1):
        prices = prices[1 : i + 2] * d
        values = disc * (q * values[1 : i + 2] + (1.0 - q) * values[: i + 1])
        np.maximum(values, strike - prices, out=values)
    return float(values[0])
