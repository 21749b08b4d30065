"""Independent reference computations used only for validation.

Three oracles: composite Gauss-Legendre quadrature of the exact hyperplane
integrals (d = 2), a CRR binomial tree for one-dimensional American puts, and
a binned conditional-expectation estimator of the projected squared volatility
from exact-in-law samples of the forward process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import ExpansionCoords, LogIntegrands, transition_law
from .model import ModelKind, ModelSpec, Portfolio
from .projection import NewtonError, newton_maximize, newton_start
from .rng import normal_matrix

N_PANELS = 16
NODES_PER_PANEL = 32
INTERVAL_STDS = 12.0
MIN_BIN_COUNT = 50  # binned_conditional_vol drops bins with fewer samples


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule on an explicit interval."""

    lo: float
    hi: float
    panels: int = N_PANELS
    nodes_per_panel: int = NODES_PER_PANEL


def _gl_nodes(spec: QuadratureSpec):
    base_x, base_w = np.polynomial.legendre.leggauss(spec.nodes_per_panel)
    edges = np.linspace(spec.lo, spec.hi, spec.panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def quadrature_projected_vol(model: ModelSpec, p: Portfolio, t: float, s: float,
                             spec: QuadratureSpec | None = None,
                             coords=None) -> float:
    """Exact-integrand ratio for d = 2 by composite quadrature in the free coordinate."""
    if model.d != 2:
        raise ValueError("quadrature oracle is one-dimensional: d must be 2")
    li = LogIntegrands(model, p, t, coords)
    z0, failures = newton_start(li, np.array([s]))
    res = newton_maximize(li.ftilde_derivs, np.array([s]), z0)
    if res.failures:  # a start that failed fails the maximization too
        raise NewtonError({**res.failures, **failures}[0])
    mode = float(res.z[0, 0])
    if spec is None:
        std = 1.0 / np.sqrt(-float(res.hess[0, 0, 0]))
        lo, hi = mode - INTERVAL_STDS * std, mode + INTERVAL_STDS * std
        # clip to the support of the chart (both assets positive for Black-Scholes)
        if model.kind is ModelKind.BLACK_SCHOLES:
            ch = li.chart
            w = p.weights
            if li.coords is ExpansionCoords.PRICE:
                zmax = s / w[ch.free[0]] if w[ch.free[0]] * w[ch.pivot] > 0 else np.inf
                lo = max(lo, 1e-12 * abs(s))
                hi = min(hi, zmax * (1 - 1e-12)) if np.isfinite(zmax) else hi
        spec = QuadratureSpec(lo=lo, hi=hi)
    elif not (spec.lo < mode < spec.hi):
        raise ValueError("quadrature interval does not contain the integrand mode")
    xs, ws = _gl_nodes(spec)
    level = np.full(xs.size, float(s))
    fvals = li.f_derivs(level, xs[:, None])[0]
    gvals = li.ftilde_derivs(level, xs[:, None])[0]
    ref = np.max(gvals[np.isfinite(gvals)])
    num = float(ws @ np.where(np.isfinite(fvals), np.exp(fvals - ref), 0.0))
    den = float(ws @ np.where(np.isfinite(gvals), np.exp(gvals - ref), 0.0))
    return num / den


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


def sample_exact(model: ModelSpec, t: float, m: int, seed: int) -> np.ndarray:
    """Draw m exact-in-law samples of X(t) (no time stepping)."""
    xi = normal_matrix(seed, 0, m, model.d)
    mean, cov = transition_law(model, t)
    y = mean + xi @ np.linalg.cholesky(cov).T
    return y if model.kind is ModelKind.BACHELIER else model.x0 * np.exp(y)


def binned_conditional_vol(model: ModelSpec, p: Portfolio, t: float, m: int,
                           bins: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of E[P b b^T P^T | P X(t) = s] on basket-value bins.

    Samples X(t) from its closed-form law so the estimate carries no
    time-stepping bias.  Returns rows (bin center, estimate, standard error);
    bins holding fewer than MIN_BIN_COUNT samples are dropped.
    """
    if m < 10_000:
        raise ValueError("need at least 10^4 samples for the binned estimator")
    x = sample_exact(model, t, m, seed)
    basket = x @ p.weights
    if model.kind is ModelKind.BACHELIER:
        row = p.weights @ model.sigma
        vals = np.full(m, float(row @ row))
    else:
        rows = (x * p.weights) @ model.sigma
        vals = np.einsum("ij,ij->i", rows, rows)
    edges = np.linspace(basket.min(), basket.max(), bins + 1)
    idx = np.clip(np.digitize(basket, edges) - 1, 0, bins - 1)
    out = []
    for b in range(bins):
        sel = idx == b
        n = int(sel.sum())
        if n < MIN_BIN_COUNT:
            continue
        v = vals[sel]
        # report at the realized mean basket level, not the bin midpoint, so
        # sloping-density bins do not carry a systematic offset
        center = float(basket[sel].mean())
        se = float(v.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        out.append((center, float(v.mean()), se))
    return np.array(out)
