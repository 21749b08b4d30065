"""Forward-Euler simulation and the two Monte Carlo price bound estimators.

One path batch drives everything: the hitting-time lower bound implied by the
projected exercise boundary, the dual-martingale upper bound built from the
projected value function's delta, and the European put estimate.  Both bounds
see the same Brownian increments.  One kernel serves single-tier and coupled
multi-tier runs: a single tier is the coupled run with one tier.

The kernel steps only what it reads: the basket P x and the hedge's P b dW.
For Bachelier both are functions of the basket alone and of
dW @ (sigma^T w), so a Bachelier tier carries the (m,) basket, not the (m, d)
state; this is exact because the projection is.  A Black-Scholes tier carries
the (m, d) state and forms its diffusion increment x * (dW @ sigma^T) once per
step, for both the hedge and the Euler update.

The kernel is chunk-outer.  Increments are keyed by (seed, step, chunk of
``rng.CHUNK`` paths), so each chunk's rows run the whole time loop, every tier
and every strike, on their own, and chunks run on a thread pool (numpy
releases the interpreter lock in the elementwise ufuncs, the gathers and the
Philox fill).  A run of exactly one ``rng.CHUNK`` of paths, with a second CPU
under the thread cap, draws step n + 1 on a fill thread while step n runs; the
cap counts that thread too, so one thread starts none.  Each chunk writes its
slice of full-length per-path arrays, and the statistics reduce the whole
arrays once at the end, so results do not depend on the number of workers or
on whether the fill runs ahead.

A tier's K strikes are stacked as (K, rows) arrays, updated by one ufunc
call per operation over row blocks of ``BLOCK_ROWS`` (which bound the
temporaries); the delta is read off the (K, n_s) stack of the step's rows
through one interval lookup, with ``np.interp``'s bits on the uniform
``make_grid`` nodes.  Every operation is elementwise and each strike's
statistics reduce its own contiguous row, so K strikes equal K one-strike runs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .model import ModelKind, ModelSpec, Portfolio, PutPayoff, put_value
from .rng import CHUNK, normal_matrix

# rows per block of the stacked strike update: few enough blocks that their
# calls stay cheap, few enough rows that the (K, rows) temporaries stay small
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class PriceBounds:
    """Lower/upper estimators with their standard errors."""

    a_minus: float
    a_plus: float
    se_minus: float
    se_plus: float
    m: int

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
    mean_running_max: float


@dataclass
class BoundTask:
    """Per-strike inputs for the bound estimators, as plain arrays.

    boundary_levels[n] is the basket level at grid time n below which the path
    stops (-inf when the exercise region is empty there); delta_rows[n] holds
    the finite-difference delta of the projected value function on s_nodes,
    which are uniform and the same for every task of one tier.
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


def diffusion(model: ModelSpec, x: np.ndarray, dws: np.ndarray) -> np.ndarray:
    """The diffusion increment b(t, x) dW of an (m, d) batch; dws is dW @ sigma^T.

    b = sigma for Bachelier, so the increment is dws itself; Black-Scholes
    scales each asset's row by its level, x * dws.
    """
    if model.kind is ModelKind.BACHELIER:
        return dws
    return x * dws


def step(model: ModelSpec, x: np.ndarray, dt: float, bdw: np.ndarray) -> np.ndarray:
    """One forward-Euler step x + r x dt + bdw, bdw being the diffusion increment b(t, x) dW.

    Elementwise, so x is an (m, d) batch with bdw from `diffusion`, or a
    Bachelier basket (m,) with bdw = P b dW.  Black-Scholes states are floored
    at zero; drift and diffusion vanish there, so the boundary is absorbing.
    """
    out = x + model.r * x * dt + bdw
    if model.kind is ModelKind.BLACK_SCHOLES:
        np.maximum(out, 0.0, out=out)
    return out


def bias_estimate(run_coarse: PriceBounds, run_fine: PriceBounds) -> tuple[float, float]:
    """|A(2 N_t) - A(N_t)| per bound; callers supply runs with identical physical inputs."""
    return (abs(run_fine.a_minus - run_coarse.a_minus),
            abs(run_fine.a_plus - run_coarse.a_plus))


def simulate_bounds(model: ModelSpec, p: Portfolio, tasks: list[BoundTask],
                    n_t: int, m: int, seed: int,
                    threads: int | None = None) -> list[BoundsResult]:
    """One forward-Euler batch evaluating all strikes' bounds on shared paths.

    threads caps the threads started, chunk workers and the fill thread
    together (None: every CPU this process may run on); the results do not
    depend on it.
    """
    return _simulate(model, p, [TierTask(n_t=n_t, tasks=tasks)], m, seed, threads)[0]


def simulate_tiers_coupled(model: ModelSpec, p: Portfolio, tiers: list[TierTask],
                           m: int, seed: int,
                           threads: int | None = None) -> list[list[BoundsResult]]:
    """Evaluate several time-step tiers on one shared fine Brownian path.

    Coarser tiers consume sums of the fine increments, so tier differences
    estimate pure discretization bias with far lower variance than independent
    batches.  Tier step counts must divide the finest count.  threads is as in
    simulate_bounds.
    """
    return _simulate(model, p, tiers, m, seed, threads)


def _mean_se(v: np.ndarray) -> tuple[float, float]:
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(v.size))


class _Nodes:
    """One tier's uniform s_nodes, prepared for the interval lookup."""

    def __init__(self, s: np.ndarray):
        s = np.asarray(s, dtype=float)
        n = s.size
        if n < 2 or not s[-1] > s[0]:
            raise ValueError("s_nodes need at least 2 increasing nodes")
        self.s = s
        self.upper = np.append(s[1:], np.inf)  # s[j + 1], +inf past the last node
        self.gaps = np.diff(s)                 # np.interp's slope denominators
        self.inv_ds = (n - 1) / (s[-1] - s[0])
        # the floor estimate below is then off by at most one interval
        if np.any(np.abs((s - s[0]) * self.inv_ds - np.arange(n)) > 0.25):
            raise ValueError("s_nodes must be uniformly spaced")


def _locate(nodes: _Nodes, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval of every x among the nodes, as np.interp finds it.

    Returns j with s[j] <= xc < s[j + 1] (j = n - 1 at the last node) and
    dx = xc - s[j], where xc is x clamped to [s[0], s[-1]].  Clamping puts
    out-of-range points on an end node with offset zero, where _interp returns
    that node's value, as np.interp does.
    """
    s = nodes.s
    xc = np.minimum(np.maximum(x, s[0]), s[-1])
    j = np.floor((xc - s[0]) * nodes.inv_ds).astype(np.intp)
    np.minimum(np.maximum(j, 0, out=j), s.size - 1, out=j)
    # one comparison each way against the nodes themselves makes the index exact
    j -= xc < np.take(s, j, mode="clip")
    j += xc >= np.take(nodes.upper, j, mode="clip")
    return j, xc - np.take(s, j, mode="clip")


def _slopes(nodes: _Nodes, rows: np.ndarray) -> np.ndarray:
    """np.interp's slope on each interval of every (K, n_s) row; zero past the
    last node, where dx is zero."""
    slope = np.zeros(rows.shape)
    slope[:, :-1] = np.diff(rows, axis=1) / nodes.gaps
    return slope


def _interp(rows: np.ndarray, slope: np.ndarray, j: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """np.interp(x, s, rows[k]) of every row k at x located as (j, dx), a
    (K, x.size) array, bit for bit for finite rows."""
    out = np.take(slope, j, axis=1, mode="clip")
    out *= dx
    out += np.take(rows, j, axis=1, mode="clip")
    return out


class _Tier:
    """One tier's strikes, stacked, with their full-length (K, m) per-path values.

    Chunks write disjoint column slices, and each strike's statistics reduce
    its contiguous row.
    """

    def __init__(self, tier: TierTask, m: int):
        tasks = tier.tasks
        if not tasks:
            raise ValueError(f"tier n_t={tier.n_t} has no strikes")
        if any(not np.array_equal(task.s_nodes, tasks[0].s_nodes) for task in tasks):
            raise ValueError(f"tier n_t={tier.n_t}: every strike must share the tier's s_nodes")
        self.n_t = tier.n_t
        self.nodes = _Nodes(tasks[0].s_nodes)
        self.strikes = np.array([[task.payoff.strike] for task in tasks])  # (K, 1)
        self.levels = np.array([task.boundary_levels for task in tasks])   # (K, n_t + 1)
        self.deltas = [task.delta_rows for task in tasks]
        k = len(tasks)
        self.lowval = np.zeros((k, m))          # payoff at the stopping time
        self.umax = np.full((k, m), -np.inf)    # running max of payoff minus martingale
        self.z = np.zeros((k, m))               # discounted payoff now; at the end, the European
        self.tau = np.zeros((k, m))             # stopping time
        self.zmax = np.full((k, m), -np.inf)    # running max of the payoff

    def results(self) -> list[BoundsResult]:
        out = []
        for k in range(self.z.shape[0]):
            low, se_low = _mean_se(self.lowval[k])
            up, se_up = _mean_se(self.umax[k])
            euro, se_euro = _mean_se(self.z[k])
            bounds = PriceBounds(a_minus=low, a_plus=up, se_minus=se_low, se_plus=se_up,
                                 m=self.z.shape[1])
            out.append(BoundsResult(bounds=bounds, european=euro, se_european=se_euro,
                                    mean_hit_time=float(self.tau[k].mean()),
                                    mean_running_max=float(self.zmax[k].mean())))
        return out


class _TierChunk:
    """One tier's paths and strikes on one chunk inside the shared fine loop.

    A Bachelier tier carries the basket S = P x alone, an (m,) array, and
    steps it by S + r S dt + P b dW: b = sigma does not depend on the state,
    so this is P applied to the d-asset Euler step.  A Black-Scholes tier
    carries the (m, d) state.  Per-strike state is (K, rows).
    """

    def __init__(self, model: ModelSpec, p: Portfolio, tier: _Tier, n_fine: int,
                 lo: int, hi: int):
        self.tier = tier
        self.stride = n_fine // tier.n_t
        self.dt = model.T / tier.n_t
        self.basket_only = model.kind is ModelKind.BACHELIER
        if self.basket_only:
            self.x = np.full(hi - lo, float(p.weights @ model.x0))
        else:
            self.x = np.tile(model.x0, (hi - lo, 1))
        self.inc = None  # fine increment summed over the current coarse step (stride > 1)
        self.lowval, self.umax, self.z, self.tau, self.zmax = (
            a[:, lo:hi] for a in (tier.lowval, tier.umax, tier.z, tier.tau, tier.zmax))
        self.mart = np.zeros(self.z.shape)
        self.open = np.ones(self.z.shape, dtype=bool)  # not yet stopped
        self.blocks = [slice(b, b + BLOCK_ROWS) for b in range(0, hi - lo, BLOCK_ROWS)]

    def _evaluate(self, model: ModelSpec, p: Portfolio, n: int):
        """Payoff, running maxima and first stop of every strike at step n."""
        t = n * self.dt
        disc = np.exp(-model.r * t)
        basket = self.x if self.basket_only else self.x @ p.weights
        for c in self.blocks:
            z, opened = self.z[:, c], self.open[:, c]
            np.multiply(disc, put_value(self.tier.strikes, basket[c], out=z), out=z)
            np.maximum(self.umax[:, c], z - self.mart[:, c], out=self.umax[:, c])
            np.maximum(self.zmax[:, c], z, out=self.zmax[:, c])
            newly = (basket[c] <= self.tier.levels[:, n:n + 1]) & opened
            np.copyto(self.lowval[:, c], z, where=newly)
            np.copyto(self.tau[:, c], t, where=newly)
            opened ^= newly
        return disc, basket

    def advance(self, model: ModelSpec, p: Portfolio, n: int, inc: np.ndarray):
        """Evaluate coarse step n, hedge over its increment, step the paths.

        inc is P b dW for a basket tier and dW for a state tier.  The
        martingale increment is disc * delta * P b dW, the delta read at the
        located basket off the (K, n_s) stack of the strikes' step-n rows.
        """
        disc, basket = self._evaluate(model, p, n)
        if self.basket_only:
            bdw = pb = inc
        else:
            bdw = diffusion(model, self.x, inc @ model.sigma.T)
            pb = bdw @ p.weights
        j, dx = _locate(self.tier.nodes, basket)
        rows = np.stack([d[n] for d in self.tier.deltas])
        slope = _slopes(self.tier.nodes, rows)
        for c in self.blocks:
            delta = _interp(rows, slope, j[c], dx[c])
            delta *= disc
            delta *= pb[c]
            mart = self.mart[:, c]
            mart += delta
        self.x = step(model, self.x, self.dt, bdw)

    def finish(self, model: ModelSpec, p: Portfolio):
        self._evaluate(model, p, self.tier.n_t)
        # open paths exercise at maturity
        np.copyto(self.lowval, self.z, where=self.open)
        np.copyto(self.tau, model.T, where=self.open)


def _simulate_chunk(model: ModelSpec, p: Portfolio, tiers: list[_Tier],
                    seed: int, n_fine: int, chunk: int, lo: int, hi: int,
                    run_ahead: bool) -> None:
    """Rows lo:hi (Philox chunk `chunk`) through every tier's time loop.

    With run_ahead, a fill thread draws step nf + 1 while step nf runs.
    """
    sq = np.sqrt(model.T / n_fine)
    # Bachelier tiers read a fine draw only as P b dW = dW @ (sqrt(dt) sigma^T w)
    proj = sq * (model.sigma.T @ p.weights) if model.kind is ModelKind.BACHELIER else None
    runs = [_TierChunk(model, p, tier, n_fine, lo, hi) for tier in tiers]

    def fill(nf: int) -> np.ndarray:
        return normal_matrix(seed, nf, hi - lo, model.k, first_chunk=chunk)

    with ThreadPoolExecutor(max_workers=1) if run_ahead else nullcontext() as fills:
        ahead = fills.submit(fill, 0) if fills else None
        for nf in range(n_fine):
            # dw is the block's only holder, so projecting frees it
            dw, ahead = (ahead.result() if fills else fill(nf)), None
            # scaled or projected here, not on the fill thread: the fill is the longer
            if proj is None:
                np.multiply(dw, sq, out=dw)
            else:
                dw = dw @ proj
            # submitted only now, so a Bachelier run holds one raw block at a time
            if fills and nf + 1 < n_fine:
                ahead = fills.submit(fill, nf + 1)
            for run in runs:
                inc = dw
                if run.stride > 1:
                    if nf % run.stride == 0:
                        run.inc = dw.copy()
                    else:
                        np.add(run.inc, dw, out=run.inc)
                    inc = run.inc
                if (nf + 1) % run.stride == 0:
                    run.advance(model, p, nf // run.stride, inc)
    for run in runs:
        run.finish(model, p)


def _worker_count(threads: int | None) -> int:
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1  # None when the count cannot be found
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return threads


def _simulate(model: ModelSpec, p: Portfolio, tiers: list[TierTask], m: int, seed: int,
              threads: int | None) -> list[list[BoundsResult]]:
    """The bound kernel: every tier steps on sums of one fine increment stream."""
    if m < 1:
        raise ValueError(f"need at least one path, got m={m}")
    n_fine = max(t.n_t for t in tiers)
    for t in tiers:
        if n_fine % t.n_t != 0:
            raise ValueError(f"tier n_t={t.n_t} does not divide the finest tier {n_fine}")
    stacked = [_Tier(t, m) for t in tiers]
    spans = [(lo, min(lo + CHUNK, m)) for lo in range(0, m, CHUNK)]

    # One whole chunk with a second CPU under the cap draws ahead on a fill
    # thread: the one case measured as a gain.  A 1024-row chunk ran slower
    # that way (its kernel holds the interpreter lock through short ufuncs,
    # so each hand-off stalls), and several chunk workers were not measured.
    cpus = _worker_count(threads)
    run_ahead = m == CHUNK and cpus >= 2

    def run(c: int) -> None:
        _simulate_chunk(model, p, stacked, seed, n_fine, c, *spans[c], run_ahead)

    workers = min(len(spans), cpus)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(spans))))  # re-raises a chunk's error
    else:
        for c in range(len(spans)):
            run(c)
    return [tier.results() for tier in stacked]
