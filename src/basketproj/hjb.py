"""Backward solve of the projected obstacle (American) and linear (European) PDEs.

Projected backward Euler: each time level solves one implicit tridiagonal
system, then the American flavor projects onto the obstacle.  The system does
not depend on the payoff, so one sweep serves every strike and both flavors
with one LAPACK ``?gtsv`` call per level (``solve_banded``'s routine, minus its
checks).  Each surface slice is evaluated at the interior nodes once per
sweep; a level blends two cached rows (``CoefficientSurface.blend``).
Dirichlet rows carry the payoff at both ends of the rectangle.  The exercise
boundary and the finite-difference delta extracted here drive the Monte Carlo
bounds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv as gtsv

from .model import PutPayoff
from .surface import CoefficientSurface

log = logging.getLogger(__name__)

DEFAULT_COUPLING = 16.0  # N_s = round(sqrt(c * N_t))
REGION_TOL = 1e-9
# time levels per boundary/delta extraction: few enough calls that their
# overhead vanishes, few enough rows that their temporaries stay small
BLOCK_LEVELS = 64


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
class Sweep:
    """What one backward sweep over K strikes keeps.

    american and european hold every strike's value grid, (K, n_t + 1, n_s),
    when the sweep was asked for values; otherwise only its t = 0 rows,
    (K, 1, n_s).
    """

    grid: Grid
    levels: np.ndarray    # (K, n_t + 1) American exercise frontier, -inf where the region is empty
    delta: np.ndarray     # (K, n_t + 1, n_s) American finite-difference delta
    american: np.ndarray
    european: np.ndarray


@dataclass(frozen=True)
class ExerciseBoundary:
    """Largest in-region node per strike and time level; -inf where the region is empty."""

    levels: np.ndarray  # (K, L)


def solve(surf: CoefficientSurface, payoffs: list[PutPayoff], grid: Grid,
          values: bool = False) -> Sweep:
    """Backward Euler for every payoff and both flavors; obstacle applied by projection.

    b2 does not depend on the payoff, so each time level builds one implicit
    tridiagonal matrix and solves the American and European column of every
    strike in one call.  The American rows are staged in the delta array and
    turned into boundary levels and delta rows a block of levels at a time;
    the value grids are kept only with values.
    """
    s = grid.s_nodes
    if s[0] < surf.s_min - 1e-9 * max(1.0, abs(surf.s_min)) or \
       s[-1] > surf.s_max + 1e-9 * max(1.0, abs(surf.s_max)):
        raise ValueError("surface rectangle does not contain the grid")
    if grid.t_grid[-1] > surf.t_max * (1 + 1e-12):
        raise ValueError("surface horizon shorter than the grid")
    r = surf.r
    ds = grid.ds
    k = len(payoffs)
    strikes = np.array([p.strike for p in payoffs])
    g = np.array([p(s) for p in payoffs])
    u = np.concatenate((g, g))  # rows: American per strike, then European per strike
    delta = np.empty((k, grid.n_t + 1, grid.n_s))  # the American rows until the blocks below
    delta[:, grid.n_t] = g
    full = np.empty((2 * k, grid.n_t + 1, grid.n_s)) if values else None
    if values:
        full[:, grid.n_t] = u
    interior = s[1:-1]
    conv = r * interior / (2.0 * ds)
    # every slice's polynomial at the interior nodes, once per sweep
    slices = [surf.slice_b2(i, interior) for i in range(surf.slice_times.size)]
    warned = False
    for n in range(grid.n_t - 1, -1, -1):
        t = grid.t_grid[n]
        dt = grid.t_grid[n + 1] - t
        diff = surf.blend(t, slices.__getitem__) / (2.0 * ds**2)
        sub = -dt * (diff - conv)       # couples to u_{m-1}
        dia = 1.0 + dt * (r + 2.0 * diff)
        sup = -dt * (diff + conv)       # couples to u_{m+1}
        if not warned and np.any(np.abs(sub) + np.abs(sup) > np.abs(dia)):
            log.warning("tridiagonal system not diagonally dominant at t=%.6g "
                        "(coarse space step relative to the drift)", t)
            warned = True
        rhs = u[:, 1:-1].copy()
        rhs[:, 0] -= sub[0] * u[:, 0]
        rhs[:, -1] -= sup[-1] * u[:, -1]
        # every strike and flavor is one column of the (n_s - 2, 2K) right-hand
        # side; f2py takes an empty band as length 1, which gtsv never reads at n = 1
        dl, du = (sub[1:], sup[:-1]) if dia.size > 1 else (sub, sup)
        *_, inner, info = gtsv(dl, dia, du, rhs.T, True, True, True, True)
        if info != 0:
            raise RuntimeError(f"backward solve failed at t={t}: LAPACK gtsv info={info}")
        if not np.all(np.isfinite(inner)):
            raise RuntimeError(f"backward solve produced non-finite values at t={t}")
        u[:, 1:-1] = inner.T
        np.maximum(u[:k], g, out=u[:k])
        delta[:, n] = u[:k]
        if values:
            full[:, n] = u
    levels = np.empty((k, grid.n_t + 1))
    for lo in range(0, grid.n_t + 1, BLOCK_LEVELS):
        block = delta[:, lo:lo + BLOCK_LEVELS]
        levels[:, lo:lo + BLOCK_LEVELS] = exercise_boundary(block, g, strikes, s).levels
        block[...] = delta_array(block, s)
    rows = full if values else u[:, None, :]
    for out in (levels, delta, rows):
        out.setflags(write=False)
    return Sweep(grid=grid, levels=levels, delta=delta, american=rows[:k], european=rows[k:])


def exercise_boundary(u: np.ndarray, g: np.ndarray, strikes: np.ndarray,
                      s_nodes: np.ndarray) -> ExerciseBoundary:
    """Discrete exercise region and its upper frontier at L time levels.

    u is (K, L, n_s), the American values of K strikes at L levels, and g the
    (K, n_s) payoffs.  Region membership is tested on interior nodes strictly
    below the strike; the Dirichlet rows satisfy u = g by construction and
    carry no information.
    """
    below = s_nodes < strikes[:, None]
    below[:, [0, -1]] = False
    tol = REGION_TOL * np.maximum(1.0, np.abs(g))
    member = (u - g[:, None] <= tol[:, None]) & below[:, None]
    last = s_nodes.size - 1 - np.argmax(member[..., ::-1], axis=-1)
    return ExerciseBoundary(levels=np.where(member.any(axis=-1), s_nodes[last], -np.inf))


def delta_array(values: np.ndarray, s_nodes: np.ndarray) -> np.ndarray:
    """Finite-difference delta along s: central inside, one-sided at the edges."""
    return np.gradient(values, s_nodes, axis=-1)


def value_at(sol: Sweep, s: float) -> tuple[list[float], list[float]]:
    """American and European value of every strike at (0, s), linear in s."""
    nodes = sol.grid.s_nodes
    if s < nodes[0] or s > nodes[-1]:
        log.warning("value_at query s=%.6g outside [%.6g, %.6g]; clamped to the boundary row",
                    s, nodes[0], nodes[-1])
    return ([float(np.interp(s, nodes, row)) for row in sol.american[:, 0]],
            [float(np.interp(s, nodes, row)) for row in sol.european[:, 0]])


def export_values(grid: Grid, values: np.ndarray, path) -> None:
    """Plain-text table of one (n_t + 1, n_s) value grid for plotting: t, s, value triples."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t s value\n")
        for n, t in enumerate(grid.t_grid):
            for m, s in enumerate(grid.s_nodes):
                fh.write(f"{float(t)!r} {float(s)!r} {float(values[n, m])!r}\n")


def export_boundary(t_grid: np.ndarray, levels: np.ndarray, path) -> None:
    """Plain-text table of one exercise frontier: t, level (empty region rows omitted)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t boundary_level\n")
        for t, lvl in zip(t_grid, levels):
            if np.isfinite(lvl):
                fh.write(f"{float(t)!r} {float(lvl)!r}\n")
