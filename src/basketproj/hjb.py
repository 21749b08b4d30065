"""Backward solve of the projected obstacle (American) and linear (European) PDEs.

Projected backward Euler: each time level solves one implicit tridiagonal
system, then the American flavor projects onto the obstacle.  Dirichlet rows
carry the payoff at both ends of the rectangle.  The exercise boundary and the
finite-difference delta extracted here drive the Monte Carlo bounds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import solve_banded

from .model import PutPayoff
from .surface import CoefficientSurface

log = logging.getLogger(__name__)

DEFAULT_COUPLING = 16.0  # N_s = round(sqrt(c * N_t))
REGION_TOL = 1e-9


class Flavor(Enum):
    AMERICAN = "american"
    EUROPEAN = "european"


@dataclass(frozen=True)
class Grid:
    """Uniform (t, s) mesh shared by the backward solver and the MC stepper."""

    t_grid: np.ndarray
    s_nodes: np.ndarray

    def __post_init__(self):
        if self.s_nodes.size < 3:
            raise ValueError("need at least 3 space nodes")
        if self.s_nodes[1] - self.s_nodes[0] <= 0:
            raise ValueError("space step must be positive")

    @property
    def n_t(self) -> int:
        return self.t_grid.size - 1

    @property
    def n_s(self) -> int:
        return self.s_nodes.size

    @property
    def ds(self) -> float:
        return float(self.s_nodes[1] - self.s_nodes[0])


def make_grid(s_min: float, s_max: float, t_max: float, n_t: int,
              n_s: int | None = None, c: float = DEFAULT_COUPLING) -> Grid:
    """Grid with the mesh coupling N_s^2 = c N_t unless n_s is given explicitly."""
    if n_s is None:
        n_s = int(round(np.sqrt(c * n_t)))
    return Grid(t_grid=np.linspace(0.0, t_max, n_t + 1),
                s_nodes=np.linspace(s_min, s_max, n_s))


@dataclass(frozen=True)
class ValueGrid:
    """Discrete value function on the grid, terminal condition g, Dirichlet rows g."""

    grid: Grid
    values: np.ndarray  # (n_t + 1, n_s)
    flavor: Flavor
    payoff: PutPayoff


@dataclass(frozen=True)
class ExerciseBoundary:
    """Largest in-region node per time step; level -inf where the region is empty."""

    t_grid: np.ndarray
    indices: np.ndarray  # int, -1 when absent
    levels: np.ndarray   # s-coordinate, -inf when absent


def solve(surf: CoefficientSurface, payoff: PutPayoff, grid: Grid, flavor: Flavor) -> ValueGrid:
    """Backward Euler with implicit tridiagonal steps; obstacle applied by projection."""
    s = grid.s_nodes
    if s[0] < surf.s_min - 1e-9 * max(1.0, abs(surf.s_min)) or \
       s[-1] > surf.s_max + 1e-9 * max(1.0, abs(surf.s_max)):
        raise ValueError("surface rectangle does not contain the grid")
    if grid.t_grid[-1] > surf.t_max * (1 + 1e-12):
        raise ValueError("surface horizon shorter than the grid")
    r = surf.r
    ds = grid.ds
    g = payoff(s)
    u = g.copy()
    values = np.empty((grid.n_t + 1, grid.n_s))
    values[grid.n_t] = u
    interior = s[1:-1]
    ab = np.zeros((3, grid.n_s - 2))
    warned = False
    for n in range(grid.n_t - 1, -1, -1):
        dt = grid.t_grid[n + 1] - grid.t_grid[n]
        b2 = surf.eval_b2(grid.t_grid[n], interior)
        conv = r * interior / (2.0 * ds)
        diff = b2 / (2.0 * ds**2)
        sub = -dt * (diff - conv)       # couples to u_{m-1}
        dia = 1.0 + dt * (r + 2.0 * diff)
        sup = -dt * (diff + conv)       # couples to u_{m+1}
        if not warned and np.any(np.abs(sub) + np.abs(sup) > np.abs(dia)):
            log.warning("tridiagonal system not diagonally dominant at t=%.6g "
                        "(coarse space step relative to the drift)", grid.t_grid[n])
            warned = True
        rhs = u[1:-1].copy()
        rhs[0] -= sub[0] * g[0]
        rhs[-1] -= sup[-1] * g[-1]
        ab[0, 1:] = sup[:-1]
        ab[1] = dia
        ab[2, :-1] = sub[1:]
        inner = solve_banded((1, 1), ab, rhs)
        if not np.all(np.isfinite(inner)):
            raise RuntimeError(f"backward solve produced non-finite values at t={grid.t_grid[n]}")
        u = np.concatenate(([g[0]], inner, [g[-1]]))
        if flavor is Flavor.AMERICAN:
            np.maximum(u, g, out=u)
        values[n] = u
    values.setflags(write=False)
    return ValueGrid(grid=grid, values=values, flavor=flavor, payoff=payoff)


def exercise_boundary(vg: ValueGrid) -> ExerciseBoundary:
    """Discrete exercise region and its per-time upper frontier.

    Region membership is tested on interior nodes strictly below the strike;
    the Dirichlet rows satisfy u = g by construction and carry no information.
    """
    if vg.flavor is not Flavor.AMERICAN:
        raise ValueError("exercise boundary requires the American flavor")
    s = vg.grid.s_nodes
    g = vg.payoff(s)
    below = (s < vg.payoff.strike)
    below[0] = below[-1] = False
    tol = REGION_TOL * np.maximum(1.0, np.abs(g))
    member = (vg.values - g <= tol) & below
    n_levels = vg.values.shape[0]
    indices = np.full(n_levels, -1, dtype=int)
    levels = np.full(n_levels, -np.inf)
    for n in range(n_levels):
        hits = np.nonzero(member[n])[0]
        if hits.size:
            indices[n] = hits[-1]
            levels[n] = s[hits[-1]]
    return ExerciseBoundary(t_grid=vg.grid.t_grid, indices=indices, levels=levels)


def delta_array(vg: ValueGrid) -> np.ndarray:
    """Finite-difference delta on every node: central inside, one-sided at the edges."""
    return np.gradient(vg.values, vg.grid.s_nodes, axis=1)


def value_at(vg: ValueGrid, t: float, s: float) -> float:
    """Value at (t, s); t must lie on the shared time grid, s interpolates linearly."""
    n = _time_index(vg.grid, t)
    nodes = vg.grid.s_nodes
    if s < nodes[0] or s > nodes[-1]:
        log.warning("value_at query s=%.6g outside [%.6g, %.6g]; clamped to the boundary row",
                    s, nodes[0], nodes[-1])
    return float(np.interp(s, nodes, vg.values[n]))


def _time_index(grid: Grid, t: float) -> int:
    dt = grid.t_grid[1] - grid.t_grid[0]
    n = int(round(t / dt))
    if n < 0 or n > grid.n_t or abs(grid.t_grid[n] - t) > 1e-9 * max(1.0, grid.t_grid[-1]):
        raise ValueError(f"t={t} is not on the shared time grid")
    return n


def export_values(vg: ValueGrid, path) -> None:
    """Plain-text table of the value function for plotting: t, s, value triples."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t s value\n")
        for n, t in enumerate(vg.grid.t_grid):
            for m, s in enumerate(vg.grid.s_nodes):
                fh.write(f"{float(t)!r} {float(s)!r} {float(vg.values[n, m])!r}\n")


def export_boundary(b: ExerciseBoundary, path) -> None:
    """Plain-text table of the exercise frontier: t, level (empty region rows omitted)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t boundary_level\n")
        for t, lvl in zip(b.t_grid, b.levels):
            if np.isfinite(lvl):
                fh.write(f"{float(t)!r} {float(lvl)!r}\n")
