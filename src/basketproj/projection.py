"""Laplace evaluation of the projected SDE coefficients, one time slice at a time.

The surrogate basket SDE has drift r*s exactly; its squared volatility is the
conditional expectation of the basket quadratic form, approximated here by the
ratio of two Laplace-approximated hyperplane integrals.  The Bachelier model
bypasses the approximation in projected_vol_sq: the conditional expectation
is the constant quadratic form itself, so newton_start and laplace_point take
Black-Scholes models only.

Shapes and failures: newton_start, laplace_point and projected_vol_sq take
a 1-D array of basket levels s, all at one time t, as one stack: each Newton
iteration makes one stacked derivative evaluation and one stacked solve, and
a converged row leaves the stack.  A failed level comes back NaN, with its
reason in a dict {index: reason}; nothing raises.  Each row carries the
arithmetic of a stack of one, so a level's value does not depend on the
other levels of its stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import ExpansionCoords, LogIntegrands, rowdot
from .model import ModelKind, ModelSpec, Portfolio

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class NewtonResult:
    """Maximizers of a stack; a failed row is NaN and named in failures."""

    z: np.ndarray             # (n, m)
    value: np.ndarray         # (n,)
    logdet: np.ndarray        # (n,) log det(-H) at z, from the Cholesky factor that proves -H > 0
    iterations: np.ndarray    # (n,) Newton steps per row
    failures: dict            # row -> reason


@dataclass(frozen=True)
class LaplacePoint:
    """The Laplace values of a stack of levels (NaN where failed)."""

    value: np.ndarray         # (n,) exp(f* - ftilde*) sqrt(det|H ftilde| / det|H f|)
    iterations: int           # Newton iterations of both maximizations, most over the stack
    failures: dict            # level index -> reason


def newton_maximize(derivs, s: np.ndarray, z0: np.ndarray) -> NewtonResult:
    """Damped Newton ascent on a stack of concave log-integrands, one per level.

    derivs(s, z) takes levels (k,) and points (k, m) and returns values (k,),
    gradients (k, m) and Hessians (k, m, m), value -inf outside the support.
    Each row steps z <- z - H^{-1} grad, halving the step while its value
    decreases, and leaves the stack once its gradient is below tolerance.  A
    row fails when it starts outside the support, meets a singular Hessian,
    finds no ascent in 40 halvings, does not converge in NEWTON_MAX_ITER
    iterations or ends at a Hessian that is not negative definite.
    """
    s = np.asarray(s, dtype=float)
    z = np.array(z0, dtype=float, order="C")  # rows contiguous, as derivs sees them
    val, grad, hess = derivs(s, z)
    iterations = np.zeros(s.size, dtype=int)
    failures = {}

    def fail(rows, reason):
        failures.update(dict.fromkeys(rows.tolist(), reason))

    fail(np.flatnonzero(~np.isfinite(val)), "Newton start outside the support")
    active = np.flatnonzero(np.isfinite(val))
    converged = [np.empty(0, dtype=int)]  # a stack may end with no row converged
    for it in range(1, NEWTON_MAX_ITER + 1):
        g = grad[active]
        peak = np.max(np.abs(hess[active]), axis=(1, 2))
        scale = np.where(peak > 1.0, peak, 1.0)
        done = np.sqrt(rowdot(g, g)) <= NEWTON_TOL * scale
        iterations[active[done]] = it - 1
        converged.append(active[done])
        active, g, scale = active[~done], g[~done], scale[~done]
        if not active.size:
            break
        step, singular = _newton_steps(hess[active], g)
        fail(active[singular], "singular Hessian in Newton iteration")
        active, g, step, scale = active[~singular], g[~singular], step[~singular], scale[~singular]
        # an indefinite Hessian falls back to a scaled gradient ascent step
        downhill = rowdot(g, step) <= 0.0
        step[downhill] = g[downhill] / scale[downhill, None]
        lam = 1.0
        search = np.arange(active.size)
        for _ in range(40):
            rows = active[search]
            cand = z[rows] + lam * step[search]
            nval, ngrad, nhess = derivs(s[rows], cand)
            ok = np.isfinite(nval) & (nval >= val[rows] - 1e-14 * np.maximum(1.0, np.abs(val[rows])))
            z[rows[ok]], val[rows[ok]], grad[rows[ok]], hess[rows[ok]] = \
                cand[ok], nval[ok], ngrad[ok], nhess[ok]
            search = search[~ok]
            if not search.size:
                break
            lam *= 0.5
        fail(active[search], "line search failed (iterate left the support)")
        active = np.delete(active, search)
    fail(active, f"Newton did not converge within {NEWTON_MAX_ITER} iterations")
    done = np.sort(np.concatenate(converged))
    logdet = np.full(s.size, np.nan)
    logdet[done], indefinite = _logdet_neg(hess[done])
    fail(done[indefinite], "Hessian not negative definite at the terminal point")
    bad = list(failures)
    z[bad], val[bad], logdet[bad] = np.nan, np.nan, np.nan
    return NewtonResult(z=z, value=val, logdet=logdet, iterations=iterations,
                        failures=dict(sorted(failures.items())))


def _lapack_rows(fun, *args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fun(*args) over stacks of rows as one LAPACK call, shaped as the last
    argument, and which rows raise LinAlgError (NaN there).  Only when the
    stacked call raises is each row called alone, as a stack of one."""
    failed = np.zeros(args[0].shape[0], dtype=bool)
    try:
        return fun(*args), failed
    except np.linalg.LinAlgError:
        out = np.full_like(args[-1], np.nan)
        for i in range(out.shape[0]):
            try:
                out[i:i + 1] = fun(*(a[i:i + 1] for a in args))
            except np.linalg.LinAlgError:
                failed[i] = True
        return out, failed


def _newton_steps(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-hess)^{-1} grad per row, and which rows have a singular Hessian
    (their steps are NaN).  hess is negated in place."""
    return _lapack_rows(lambda a, g: np.linalg.solve(a, g[..., None])[..., 0],
                        np.negative(hess, out=hess), grad)


def _logdet_neg(hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log det(-H) per row by symmetric factorization, and which rows are not
    negative definite (their log-determinant is NaN).  hess is negated in place."""
    chol, indefinite = _lapack_rows(np.linalg.cholesky, np.negative(hess, out=hess))
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1), indefinite


def newton_start(li: LogIntegrands, s: np.ndarray) -> tuple[np.ndarray, dict]:
    """Interior Newton starts: conditional-mean points of the integrands' Gaussian.

    The Gaussian log-returns are conditioned on the linearized basket
    constraint.  Returns the starts (n, d-1) and {index: reason}, NaN at the
    levels with no interior start.
    """
    model, ch, g = li.model, li.chart, li.gauss
    levels = np.asarray(s, dtype=float)
    w = li.portfolio.weights
    a = w * model.x0
    ca = g.cov @ a
    target = levels - float(w @ model.x0)
    what = g.mean + ca * (target - float(a @ g.mean))[:, None] / float(a @ ca)
    x = model.x0 * np.exp(what)
    # the eliminated coordinate implied by the constraint must stay positive
    x_piv = (levels - rowdot(x[:, ch.free], w[ch.free])) / w[ch.pivot]
    wx0 = float(w @ model.x0)
    off = x_piv <= 0.0
    failed = off & ((levels <= 0.0) | (wx0 <= 0.0))
    prop = off & ~failed  # the proportional point, always on the hyperplane
    x[prop] = model.x0 * (levels[prop] / wx0)[:, None]
    z0 = x[:, ch.free]
    if li.coords is ExpansionCoords.LOG_PRICE:
        z0 = np.log(z0 / model.x0[ch.free])
    z0[failed] = np.nan
    return z0, dict.fromkeys(np.flatnonzero(failed).tolist(),
                             "no interior Newton start exists for this (t, s)")


def laplace_point(model: ModelSpec, p: Portfolio, t: float, s: np.ndarray,
                  coords: ExpansionCoords = ExpansionCoords.LOG_PRICE) -> LaplacePoint:
    """Run both Newton maximizations on the levels s of a Black-Scholes model
    and take the Laplace ratio in the chart coords.

    iterations is the most Newton iterations (both maximizations) any level took.
    """
    li = LogIntegrands(model, p, t, coords)
    levels = np.asarray(s, dtype=float)
    z0, start_failures = newton_start(li, levels)
    # a level that failed is NaN from there on, so it fails the next stage at its start
    den = newton_maximize(li.ftilde_derivs, levels, z0)
    num = newton_maximize(li.f_derivs, levels, den.z)
    # each level keeps the reason of its first failure
    failures = dict(sorted({**num.failures, **den.failures, **start_failures}.items()))
    ok = [i for i in range(levels.size) if i not in failures]
    return LaplacePoint(
        value=np.exp(num.value - den.value + 0.5 * (den.logdet - num.logdet)),
        iterations=int(np.max((num.iterations + den.iterations)[ok], initial=0)),
        failures=failures,
    )


def projected_vol_sq(model: ModelSpec, p: Portfolio, t: float,
                     s: np.ndarray) -> tuple[np.ndarray, dict]:
    """Projected squared volatility of the basket at time t and levels s.

    Bachelier: the exact constant P Sigma Sigma^T P^T.  Black-Scholes: the
    Laplace-approximated ratio exp(f* - ftilde*) sqrt(det|H ftilde| / det|H f|)
    in log-price coordinates.
    Returns (values, {index: reason}), the values NaN at the failed levels.
    """
    if model.kind is ModelKind.BACHELIER:
        row = p.weights @ model.sigma
        return np.full(np.shape(s), float(row @ row)), {}
    lp = laplace_point(model, p, t, s)
    return lp.value, lp.failures
