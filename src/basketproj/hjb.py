"""Backward solve of the projected obstacle (American) and linear (European) PDEs.

Projected backward Euler: each time level solves one implicit tridiagonal
system, then the American flavor projects onto the obstacle.  The system does
not depend on the payoff, so one sweep serves every strike and both flavors
with one LAPACK ``dgtsv`` call per level (``solve_banded``'s routine, minus its
checks, loaded by ``lapack`` without the ``scipy.linalg`` package).  Each
surface slice is evaluated at the interior nodes once per sweep, and the
coefficients of a segment of ``BLOCK_LEVELS`` levels come from one
``CoefficientSurface.blend`` call.  Dirichlet rows carry the payoff at
both ends of the rectangle.

The sweep keeps what is small: the exercise boundary of every level, the
t = 0 rows, and the row of both flavors at the top of every segment (a
checkpoint, after Griewank & Walther's revolve).  The Monte Carlo pass reads
the finite-difference delta a segment at a time, recomputed backward from
its checkpoint by the same ``gtsv`` calls on the same inputs, so its rows are
those of the first pass bit for bit; the delta's recompute solves only the
American columns, whose bits do not depend on the columns beside them.  No
``(K, n_t + 1, n_s)`` grid is ever held.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

import numpy as np

from .lapack import dgtsv as gtsv
from .model import PutPayoff
from .surface import CoefficientSurface

log = logging.getLogger(__name__)

DEFAULT_COUPLING = 16.0  # N_s = round(sqrt(c * N_t))
REGION_TOL = 1e-9
# time levels per segment, the unit of the boundary extraction and of the
# recompute: few enough calls that their overhead vanishes, few enough rows
# that a segment stays small next to its tier's checkpoints
BLOCK_LEVELS = 32


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


class _System:
    """One sweep's implicit Euler steps: the surface slices cached at the
    interior nodes, the (K, n_s) payoff rows, and the steps of one segment."""

    def __init__(self, surf: CoefficientSurface, payoffs: list[PutPayoff], grid: Grid):
        interior = grid.s_nodes[1:-1]
        self.surf, self.grid = surf, grid
        self.g = np.array([p(grid.s_nodes) for p in payoffs])
        self.conv = surf.r * interior / (2.0 * grid.ds)
        # every slice's polynomial at the interior nodes, once per sweep
        self.slices = surf.slice_b2(interior)
        self.warned = False

    def coefficients(self, lo: int, top: int):
        """Sub-, main and super-diagonal of levels lo ... top - 1, (top - lo, n_s - 2) each."""
        t = self.grid.t_grid[lo:top]
        dt = (self.grid.t_grid[lo + 1:top + 1] - t)[:, None]
        diff = self.surf.blend(t, self.slices) / (2.0 * self.grid.ds**2)
        sub = -dt * (diff - self.conv)                  # couples to u_{m-1}
        dia = 1.0 + dt * (self.surf.r + 2.0 * diff)
        sup = -dt * (diff + self.conv)                  # couples to u_{m+1}
        return sub, dia, sup

    def segment(self, j: int, u: np.ndarray, checked: bool) -> np.ndarray:
        """The rows of segment j, (L, R, n_s), levels lo = j * BLOCK_LEVELS up to
        L rows on, solved backward from u, the (R, n_s) row at level
        min(lo + L, n_t): both flavors (R = 2K), or the American ones (R = K).

        u ends at level lo.  The first pass is checked: it warns once per sweep
        at the first level met that is not diagonally dominant, and fails at a
        non-finite level.  A recompute solves the same columns on the same
        inputs, so it skips both.
        """
        n_t, k = self.grid.n_t, len(self.g)
        lo = j * BLOCK_LEVELS
        hi = min(lo + BLOCK_LEVELS, n_t + 1)
        top = min(hi, n_t)
        # rows[i] is level lo + i, and the last row the start row at level top;
        # the Dirichlet columns never change
        rows = np.empty((top - lo + 1, *u.shape))
        rows[-1] = u
        rows[:-1, :, 0], rows[:-1, :, -1] = u[:, 0], u[:, -1]
        sub, dia, sup = self.coefficients(lo, top)
        if checked and not self.warned:
            bad = np.flatnonzero(np.any(np.abs(sub) + np.abs(sup) > np.abs(dia), axis=1))
            if bad.size:
                log.warning("tridiagonal system not diagonally dominant at t=%.6g "
                            "(coarse space step relative to the drift)",
                            self.grid.t_grid[lo + bad[-1]])
                self.warned = True
        # every level's Dirichlet terms of the right-hand side, (L, R) each
        left, right = sub[:, :1] * u[:, 0], sup[:, -1:] * u[:, -1]
        for i in range(top - lo - 1, -1, -1):
            rhs = rows[i + 1, :, 1:-1].copy()
            rhs[:, 0] -= left[i]
            rhs[:, -1] -= right[i]
            # every strike and flavor is one column of the (n_s - 2, R) right-hand
            # side; f2py takes an empty band as length 1, which gtsv never reads at n = 1
            dl, du = (sub[i, 1:], sup[i, :-1]) if dia.shape[1] > 1 else (sub[i], sup[i])
            *_, inner, info = gtsv(dl, dia[i], du, rhs.T, True, True, True, True)
            if info != 0:
                raise RuntimeError(f"backward solve failed at t={self.grid.t_grid[lo + i]}: "
                                   f"LAPACK gtsv info={info}")
            if checked and not np.isfinite(inner).all():
                raise RuntimeError(f"backward solve produced non-finite values "
                                   f"at t={self.grid.t_grid[lo + i]}")
            rows[i, :, 1:-1] = inner.T
            american = rows[i, :k]
            np.maximum(american, self.g, out=american)
        u[...] = rows[0]
        return rows if hi > n_t else rows[:-1]


@dataclass(frozen=True)
class Sweep:
    """What one backward sweep over K strikes keeps, and the rows it gives back.

    Row k of every array is strike strikes[k].  Segment j holds time levels
    j * span up to span of them, the last segment ending at n_t.
    checkpoints[j] is the (2K, n_s) row of both flavors (American per
    strike, then European) at level min((j + 1) * span, n_t), the one
    segment j is solved backward from.  american and european are the
    (K, n_s) t = 0 rows.
    """

    span = BLOCK_LEVELS   # time levels per segment

    grid: Grid
    strikes: np.ndarray      # (K,) the strike of each row
    levels: np.ndarray       # (K, n_t + 1) American exercise frontier, -inf where the region is empty
    american: np.ndarray
    european: np.ndarray
    checkpoints: np.ndarray  # (segments, 2K, n_s)
    system: _System

    @property
    def segments(self) -> int:
        return len(self.checkpoints)

    def segment_values(self, j: int) -> np.ndarray:
        """Both flavors' value rows of segment j, (L, 2K, n_s), recomputed from its checkpoint."""
        return self.system.segment(j, self.checkpoints[j].copy(), checked=False)

    def segment_delta(self, j: int) -> np.ndarray:
        """Every strike's American delta on segment j, (L, K, n_s), off the American rows alone."""
        u = self.checkpoints[j, :len(self.american)].copy()
        return delta_array(self.system.segment(j, u, checked=False), self.grid.s_nodes)


@dataclass(frozen=True)
class ExerciseBoundary:
    """Largest in-region node per strike and time level; -inf where the region is empty."""

    levels: np.ndarray  # (K, L)


def solve(surf: CoefficientSurface, payoffs: list[PutPayoff], grid: Grid) -> Sweep:
    """Backward Euler for every payoff and both flavors; obstacle applied by projection.

    b2 does not depend on the payoff, so each time level builds one implicit
    tridiagonal matrix and solves the American and European column of every
    strike in one call.  Each segment's American rows become boundary levels
    as the sweep passes them; the sweep then drops them and keeps the
    segment's checkpoint.
    """
    s = grid.s_nodes
    if s[0] < surf.s_min - 1e-9 * max(1.0, abs(surf.s_min)) or \
       s[-1] > surf.s_max + 1e-9 * max(1.0, abs(surf.s_max)):
        raise ValueError("surface rectangle does not contain the grid")
    if grid.t_grid[-1] > surf.t_max * (1 + 1e-12):
        raise ValueError("surface horizon shorter than the grid")
    system = _System(surf, payoffs, grid)
    k, g = len(payoffs), system.g
    strikes = np.array([p.strike for p in payoffs])
    u = np.concatenate((g, g))  # rows: American per strike, then European per strike
    checkpoints = np.empty((grid.n_t // BLOCK_LEVELS + 1, *u.shape))
    levels = np.empty((k, grid.n_t + 1))
    for j in range(len(checkpoints) - 1, -1, -1):
        checkpoints[j] = u
        rows = system.segment(j, u, checked=True)
        lo = j * BLOCK_LEVELS
        levels[:, lo:lo + len(rows)] = exercise_boundary(
            rows[:, :k].swapaxes(0, 1), g, strikes, s).levels
    for out in (strikes, levels, checkpoints):
        out.setflags(write=False)
    return Sweep(grid=grid, strikes=strikes, levels=levels, american=u[:k].copy(),
                 european=u[k:].copy(), checkpoints=checkpoints, system=system)


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
    return ([float(np.interp(s, nodes, row)) for row in sol.american],
            [float(np.interp(s, nodes, row)) for row in sol.european])


def export_values(sol: Sweep, paths) -> None:
    """Plain-text tables of every strike's American value grid for plotting:
    t, s, value triples, strike k to paths[k], written a segment at a time."""
    grid, k = sol.grid, len(sol.american)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8")) for path in paths]
        for fh in files:
            fh.write("# t s value\n")
        for j in range(sol.segments):
            rows = sol.segment_values(j)
            for t, row in zip(grid.t_grid[j * sol.span:], rows):
                for fh, values in zip(files, row[:k]):
                    fh.writelines(f"{float(t)!r} {float(s)!r} {float(v)!r}\n"
                                  for s, v in zip(grid.s_nodes, values))


def export_boundary(t_grid: np.ndarray, levels: np.ndarray, path) -> None:
    """Plain-text table of one exercise frontier: t, level (empty region rows omitted)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t boundary_level\n")
        for t, lvl in zip(t_grid, levels):
            if np.isfinite(lvl):
                fh.write(f"{float(t)!r} {float(lvl)!r}\n")
