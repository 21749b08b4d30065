"""Reference helpers for the tests: finite differences, one-level views of the
stacked log-integrands, intervals, bound tasks, the level-by-level backward
sweep and a reader for the surface table.

Nothing here is part of the package.  The finite-difference derivatives are
the reference the analytic Laplace derivatives are checked against, and the
level-by-level sweep the one ``hjb.solve`` is held to; the task builders feed
``simulate_bounds`` the way the pipeline does, or with a flat stopping level
and a zero martingale to isolate one estimator.
"""

import numpy as np
from scipy.linalg import solve_banded
from scipy.stats import norm

from basketproj import hjb
from basketproj.density import LogIntegrands
from basketproj.mc import BoundTask, diffusion, step
from basketproj.rng import normal_matrix
from basketproj.surface import CoefficientSurface


def fd_gradient(fun, z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Central finite-difference gradient, step 1e-5 * scale."""
    z = np.asarray(z, dtype=float)
    h = 1e-5 * scale
    g = np.empty(z.size)
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = h
        g[i] = (fun(z + e) - fun(z - e)) / (2 * h)
    return g


def fd_hessian(fun, z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Central finite-difference Hessian, step 1e-5 * scale."""
    z = np.asarray(z, dtype=float)
    h = 1e-5 * scale
    n = z.size
    out = np.empty((n, n))
    f0 = fun(z)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fun(z + ei) - 2 * f0 + fun(z - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (fun(z + ei + ej) - fun(z + ei - ej) - fun(z - ei + ej) + fun(z - ei - ej)) / (4 * h**2)
            out[i, j] = out[j, i] = mixed
    return out


class AtLevel:
    """The log-integrands of one time slice at a single basket level s, as
    scalar functions of a 1-D chart point z: a stack of one row each call."""

    def __init__(self, model, p, t: float, s: float, coords=None):
        self.stack = LogIntegrands(model, p, t, coords)
        self.chart, self.coords = self.stack.chart, self.stack.coords
        self.s = np.array([float(s)])

    def f(self, z) -> float:
        return float(self.stack.f(self.s, np.atleast_2d(z))[0])

    def ftilde(self, z) -> float:
        return float(self.stack.ftilde(self.s, np.atleast_2d(z))[0])

    def f_derivs(self, z):
        val, grad, hess = self.stack.f_derivs(self.s, np.atleast_2d(z))
        return float(val[0]), grad[0], hess[0]

    def ftilde_derivs(self, z):
        val, grad, hess = self.stack.ftilde_derivs(self.s, np.atleast_2d(z))
        return float(val[0]), grad[0], hess[0]


def confidence_interval(mean: float, se: float, level: float) -> tuple[float, float]:
    """Gaussian CLT interval at the given two-sided level."""
    z = norm.ppf(0.5 + 0.5 * level)
    return mean - z * se, mean + z * se


def flat_task(payoff, n_t: int, level: float = -np.inf, s_nodes=(0.0, 1.0)) -> BoundTask:
    """Stop below a constant level; zero delta, so the upper bound is the running max."""
    s_nodes = np.asarray(s_nodes, dtype=float)
    return BoundTask(payoff=payoff, boundary_levels=np.full(n_t + 1, level),
                     delta_rows=np.zeros((n_t + 1, s_nodes.size)), s_nodes=s_nodes)


def solved_tasks(sol: hjb.Sweep, payoffs) -> list[BoundTask]:
    """The pipeline's tasks for one tier's sweep: each strike's boundary and delta."""
    return [BoundTask(payoff=g, boundary_levels=sol.levels[k], delta_rows=sol.delta[k],
                      s_nodes=sol.grid.s_nodes) for k, g in enumerate(payoffs)]


def reference_sweep(surf: CoefficientSurface, payoffs, grid: hjb.Grid) -> np.ndarray:
    """The backward sweep level by level, as first written: eval_b2 and
    solve_banded at every time level.  Returns the (2K, n_t + 1, n_s) value
    grids, every strike's American rows, then its European ones."""
    s, ds, r = grid.s_nodes, grid.ds, surf.r
    interior = s[1:-1]
    k = len(payoffs)
    g = np.array([p(s) for p in payoffs])
    u = np.concatenate((g, g))
    out = np.empty((2 * k, grid.n_t + 1, grid.n_s))
    out[:, grid.n_t] = u
    for n in range(grid.n_t - 1, -1, -1):
        dt = grid.t_grid[n + 1] - grid.t_grid[n]
        b2 = surf.eval_b2(grid.t_grid[n], interior)
        conv = r * interior / (2.0 * ds)
        diff = b2 / (2.0 * ds**2)
        sub = -dt * (diff - conv)
        dia = 1.0 + dt * (r + 2.0 * diff)
        sup = -dt * (diff + conv)
        rhs = u[:, 1:-1].copy()
        rhs[:, 0] -= sub[0] * u[:, 0]
        rhs[:, -1] -= sup[-1] * u[:, -1]
        ab = np.zeros((3, grid.n_s - 2))
        ab[0, 1:] = sup[:-1]
        ab[1] = dia
        ab[2, :-1] = sub[1:]
        u[:, 1:-1] = solve_banded((1, 1), ab, rhs.T).T
        np.maximum(u[:k], g, out=u[:k])
        out[:, n] = u
    return out


def euler_states(model, seed: int, m: int, t_grid: np.ndarray, stride: int = 1):
    """Yield the (m, d) forward-Euler state at every t_grid node, from the bound kernel's streams.

    Step n is driven by fine draws n * stride ... n * stride + stride - 1
    summed, as a tier `stride` times coarser than the finest one of a coupled
    run sees them.
    """
    x = np.tile(model.x0, (m, 1))
    yield x
    for n in range(t_grid.size - 1):
        dt = t_grid[n + 1] - t_grid[n]
        dw = sum(normal_matrix(seed, n * stride + j, m, model.k) for j in range(stride))
        dws = dw * np.sqrt(dt / stride) @ model.sigma.T
        x = step(model, x, dt, diffusion(model, x, dws))
        yield x


def basket_euler(model, p, seed: int, m: int, n_t: int) -> np.ndarray:
    """Terminal Bachelier basket of one pass of S + r S dt + P b dW over all m
    paths, with P b dW = dW @ (sqrt(dt) sigma^T w) from the bound kernel's streams."""
    dt = model.T / n_t
    proj = np.sqrt(dt) * (model.sigma.T @ p.weights)
    s = np.full(m, float(p.weights @ model.x0))
    for n in range(n_t):
        s = step(model, s, dt, normal_matrix(seed, n, m, model.k) @ proj)
    return s


def load_surface(path) -> CoefficientSurface:
    """Read a table written by CoefficientSurface.save: a format line and five
    keyed header lines, then (t, center, halfwidth, coeffs..., rms) per slice."""
    with open(path, encoding="utf-8") as fh:
        head = dict(line.split(maxsplit=1) for line in list(fh)[1:6])
    rows = np.loadtxt(path, skiprows=6, ndmin=2)
    s_min, s_max, t_max = map(float, head["rect"].split())
    return CoefficientSurface(slice_times=rows[:, 0], coeffs=rows[:, 3:-1],
                              floor=float(head["floor"]), s_min=s_min, s_max=s_max,
                              t_max=t_max, r=float(head["r"]), centers=rows[:, 1],
                              halfwidths=rows[:, 2], residual_rms=rows[:, -1])
