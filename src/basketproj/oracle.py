"""Independent reference computations used only for validation.

Three oracles: the exact hyperplane integral of the projected squared
volatility (d = 2), a CRR binomial tree for one-dimensional American puts, and
a binned conditional-expectation estimator of the projected squared volatility
from exact-in-law samples of the forward process.  None of them shares code
with the Laplace stage they check.
"""

from __future__ import annotations

import numpy as np

from .density import transition_law
from .model import ModelKind, ModelSpec, Portfolio
from .rng import normal_matrix

# the trapezoid grid of quadrature_projected_vol's line coordinate u; halving
# the nodes moves its value by less than 1e-15 relative for every t >= 0.01
# tried (vols 0.1-0.9, T <= 3)
U_HALF_WIDTH = 40.0
U_NODES = 32001
MIN_BIN_COUNT = 50  # binned_conditional_vol drops bins with fewer samples


def quadrature_projected_vol(model: ModelSpec, p: Portfolio, t: float, s: float) -> float:
    """E[P b b^T P^T | P X(t) = s] for d = 2 by integrating over the whole line {P x = s}.

    Bachelier: the constant P Sigma Sigma^T P^T.  Black-Scholes with positive
    weights and s > 0: the line is x = (s / w) * (theta, 1 - theta) with
    theta = logistic(u), on which the lognormal density times the line element
    is the Gaussian density of the log-returns alone (the line element
    |dx/du|, proportional to theta (1 - theta), cancels the density's
    1 / (x1 x2)).  The ratio of the two integrals in u is taken by the
    trapezoid rule on U_NODES nodes over [-U_HALF_WIDTH, U_HALF_WIDTH].
    """
    if model.d != 2 or not t > 0:
        raise ValueError("quadrature oracle needs d = 2 and t > 0")
    w = p.weights
    if model.kind is ModelKind.BACHELIER:
        row = w @ model.sigma
        return float(row @ row)
    if not (np.all(w > 0.0) and s > 0.0):
        raise ValueError("quadrature oracle needs positive weights and s > 0 for Black-Scholes")
    u = np.linspace(-U_HALF_WIDTH, U_HALF_WIDTH, U_NODES)
    frac = 1.0 / (1.0 + np.exp(-np.column_stack((u, -u))))  # (theta, 1 - theta) = w x / s
    mean, cov = transition_law(model, t)
    dev = np.log(s * frac / (w * model.x0)) - mean
    logw = -0.5 * np.sum(dev @ np.linalg.inv(cov) * dev, axis=1)
    weight = np.exp(logw - logw.max())
    weight[[0, -1]] *= 0.5  # trapezoid end weights; the uniform spacing cancels in the ratio
    q = s * s * np.sum(frac @ model.omega * frac, axis=1)
    return float(q @ weight / weight.sum())


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
