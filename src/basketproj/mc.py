"""Forward-Euler simulation and the two Monte Carlo price bound estimators.

One path batch drives everything: the hitting-time lower bound implied by the
projected exercise boundary, the dual-martingale upper bound built from the
projected value function's delta, and the European put estimate.  Both bounds
see the same Brownian increments.  Increments are keyed by (seed, step, path
chunk), so results do not depend on scheduling or batch composition.  One
kernel serves single-tier and coupled multi-tier runs: a single tier is the
coupled run with one tier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelKind, ModelSpec, Portfolio, PutPayoff
from .rng import normal_matrix

DEFAULT_CI_LEVEL = 0.95


@dataclass(frozen=True)
class PriceBounds:
    """Lower/upper estimators with standard errors and optional bias diagnostics."""

    a_minus: float
    a_plus: float
    se_minus: float
    se_plus: float
    ci_level: float
    n_t: int
    m: int
    bias_minus: float | None = None
    bias_plus: float | None = None

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a_minus + self.a_plus)


@dataclass(frozen=True)
class BoundsResult:
    """Full per-strike output of one batch: bounds plus auxiliary functionals."""

    bounds: PriceBounds
    european: float
    se_european: float
    mean_hit_time: float
    se_hit_time: float
    mean_running_max: float
    se_running_max: float


@dataclass
class BoundTask:
    """Per-strike inputs for the bound estimators, as plain arrays.

    boundary_levels[n] is the basket level at grid time n below which the path
    stops (-inf when the exercise region is empty there); delta_rows[n] holds
    the finite-difference delta of the projected value function on s_nodes.
    """

    payoff: PutPayoff
    boundary_levels: np.ndarray
    delta_rows: np.ndarray
    s_nodes: np.ndarray


@dataclass
class TierTask:
    """One refinement level of a coupled convergence run."""

    n_t: int
    tasks: list[BoundTask]


def step(model: ModelSpec, x: np.ndarray, dt: float, dws: np.ndarray) -> np.ndarray:
    """One forward-Euler step x + r x dt + b(t, x) dW for an (m, d) batch.

    dws is dW @ sigma^T, so the diffusion term is dws (Bachelier) or x * dws.
    Black-Scholes states are floored at zero; drift and diffusion vanish there,
    so the boundary is absorbing.
    """
    if model.kind is ModelKind.BACHELIER:
        return x + model.r * x * dt + dws
    out = x + model.r * x * dt + x * dws
    np.maximum(out, 0.0, out=out)
    return out


def bias_estimate(run_coarse: PriceBounds, run_fine: PriceBounds) -> tuple[float, float]:
    """|A(2 N_t) - A(N_t)| per bound; callers supply runs with identical physical inputs."""
    return (abs(run_fine.a_minus - run_coarse.a_minus),
            abs(run_fine.a_plus - run_coarse.a_plus))


class _TaskState:
    """Streaming accumulators for one strike on one batch."""

    def __init__(self, task: BoundTask, m: int):
        self.task = task
        self.mart = np.zeros(m)
        self.umax = np.full(m, -np.inf)
        self.zmax = np.full(m, -np.inf)
        self.stopped = np.zeros(m, dtype=bool)
        self.lowval = np.zeros(m)
        self.tau = np.zeros(m)
        self._delta_now = None

    def evaluate(self, n: int, t: float, r: float, basket: np.ndarray):
        z = np.exp(-r * t) * self.task.payoff(basket)
        np.maximum(self.umax, z - self.mart, out=self.umax)
        np.maximum(self.zmax, z, out=self.zmax)
        newly = ~self.stopped & (basket <= self.task.boundary_levels[n])
        self.lowval[newly] = z[newly]
        self.tau[newly] = t
        self.stopped |= newly
        self._z = z
        self._delta_now = np.interp(basket, self.task.s_nodes, self.task.delta_rows[n])

    def accumulate_martingale(self, t: float, r: float, pbdw: np.ndarray):
        self.mart += np.exp(-r * t) * self._delta_now * pbdw

    def finish(self, t_final: float, ci_level: float, n_t: int, m: int) -> BoundsResult:
        open_paths = ~self.stopped
        self.lowval[open_paths] = self._z[open_paths]  # exercise at maturity
        self.tau[open_paths] = t_final
        low, se_low = _mean_se(self.lowval)
        up, se_up = _mean_se(self.umax)
        euro, se_euro = _mean_se(self._z)
        tau, se_tau = _mean_se(self.tau)
        zmax, se_zmax = _mean_se(self.zmax)
        bounds = PriceBounds(a_minus=low, a_plus=up, se_minus=se_low, se_plus=se_up,
                             ci_level=ci_level, n_t=n_t, m=m)
        return BoundsResult(bounds=bounds, european=euro, se_european=se_euro,
                            mean_hit_time=tau, se_hit_time=se_tau,
                            mean_running_max=zmax, se_running_max=se_zmax)


def _mean_se(v: np.ndarray) -> tuple[float, float]:
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(v.size))


def _pbdw(model: ModelSpec, p: Portfolio, x: np.ndarray, dws: np.ndarray) -> np.ndarray:
    """P b(t, x) dW for every path; dws is dW @ sigma^T."""
    if model.kind is ModelKind.BACHELIER:
        return dws @ p.weights
    return ((x * p.weights) * dws).sum(axis=1)


def simulate_bounds(model: ModelSpec, p: Portfolio, tasks: list[BoundTask],
                    n_t: int, m: int, seed: int,
                    ci_level: float = DEFAULT_CI_LEVEL) -> list[BoundsResult]:
    """One forward-Euler batch evaluating all strikes' bounds on shared paths."""
    return _simulate(model, p, [TierTask(n_t=n_t, tasks=tasks)], m, seed, ci_level)[0]


def simulate_tiers_coupled(model: ModelSpec, p: Portfolio, tiers: list[TierTask],
                           m: int, seed: int,
                           ci_level: float = DEFAULT_CI_LEVEL) -> list[list[BoundsResult]]:
    """Evaluate several time-step tiers on one shared fine Brownian path.

    Coarser tiers consume sums of the fine increments, so tier differences
    estimate pure discretization bias with far lower variance than independent
    batches.  Tier step counts must divide the finest count.
    """
    return _simulate(model, p, tiers, m, seed, ci_level)


class _TierRun:
    """One tier's paths and per-strike accumulators inside the shared fine loop."""

    def __init__(self, model: ModelSpec, tier: TierTask, n_fine: int, m: int):
        self.n_t = tier.n_t
        self.stride = n_fine // tier.n_t
        self.dt = model.T / tier.n_t
        self.x = np.tile(model.x0, (m, 1))
        self.dw = None  # Brownian increment summed over the current coarse step
        self.states = [_TaskState(task, m) for task in tier.tasks]


def _simulate(model: ModelSpec, p: Portfolio, tiers: list[TierTask], m: int, seed: int,
              ci_level: float) -> list[list[BoundsResult]]:
    """The bound kernel: every tier steps on sums of one fine increment stream."""
    n_fine = max(t.n_t for t in tiers)
    for t in tiers:
        if n_fine % t.n_t != 0:
            raise ValueError(f"tier n_t={t.n_t} does not divide the finest tier {n_fine}")
    sq = np.sqrt(model.T / n_fine)
    sig_t = model.sigma.T
    runs = [_TierRun(model, tier, n_fine, m) for tier in tiers]
    for nf in range(n_fine + 1):
        for run in runs:
            if nf % run.stride == 0:
                n = nf // run.stride
                basket = run.x @ p.weights
                for st in run.states:
                    st.evaluate(n, n * run.dt, model.r, basket)
        if nf == n_fine:
            break
        dw = normal_matrix(seed, nf, m, model.k) * sq
        for run in runs:
            run.dw = dw if nf % run.stride == 0 else run.dw + dw
            if (nf + 1) % run.stride == 0:
                t = (nf // run.stride) * run.dt
                dws = run.dw @ sig_t
                pb = _pbdw(model, p, run.x, dws)
                for st in run.states:
                    st.accumulate_martingale(t, model.r, pb)
                run.x = step(model, run.x, run.dt, dws)
    return [[st.finish(model.T, ci_level, run.n_t, m) for st in run.states] for run in runs]
