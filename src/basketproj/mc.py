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
on whether the fill runs ahead.  The delta is read off each strike's grid row
through one interval lookup per tier step, shared by the strikes, which gives
``np.interp``'s bits on the uniform ``make_grid`` nodes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .model import ModelKind, ModelSpec, Portfolio, PutPayoff
from .rng import CHUNK, normal_matrix


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


class _WorkArrays:
    """Work arrays of one chunk, shared by every tier and strike in it.

    xc, j and dx hold the located interval of the current tier step; they are
    rewritten by the next locate and never outlive one step.  mask, a and b
    are per-strike temporaries.
    """

    def __init__(self, b: int):
        self.xc = np.empty(b)
        self.j = np.empty(b, dtype=np.intp)
        self.dx = np.empty(b)
        self.mask = np.empty(b, dtype=bool)
        self.a = np.empty(b)
        self.b = np.empty(b)


def _locate(nodes: _Nodes, x: np.ndarray, sc: _WorkArrays) -> None:
    """Interval of every x among the nodes, as np.interp finds it.

    Sets sc.j with s[j] <= xc < s[j + 1] (j = n - 1 at the last node) and
    sc.dx = xc - s[j], where xc is x clamped to [s[0], s[-1]].  Clamping puts
    out-of-range points on an end node with offset zero, where _interp returns
    that node's value, as np.interp does.
    """
    s, j, pos, below = nodes.s, sc.j, sc.dx, sc.mask
    np.clip(x, s[0], s[-1], out=sc.xc)
    np.subtract(sc.xc, s[0], out=pos)
    np.multiply(pos, nodes.inv_ds, out=pos)
    np.floor(pos, out=pos)
    np.copyto(j, pos, casting="unsafe")
    np.clip(j, 0, s.size - 1, out=j)
    # one comparison each way against the nodes themselves makes the index exact
    np.take(s, j, out=pos, mode="clip")
    np.less(sc.xc, pos, out=below)
    np.subtract(j, below, out=j)
    np.take(nodes.upper, j, out=pos, mode="clip")
    np.greater_equal(sc.xc, pos, out=below)
    np.add(j, below, out=j)
    np.take(s, j, out=pos, mode="clip")
    np.subtract(sc.xc, pos, out=sc.dx)


def _interp(nodes: _Nodes, row: np.ndarray, sc: _WorkArrays, out: np.ndarray) -> None:
    """np.interp(x, nodes.s, row) at the x last located, bit for bit for finite rows."""
    slope = np.zeros(row.size)  # zero past the last node, where dx is zero
    slope[:-1] = np.diff(row) / nodes.gaps
    np.take(slope, sc.j, out=out, mode="clip")
    np.multiply(out, sc.dx, out=out)
    np.take(row, sc.j, out=sc.b, mode="clip")
    np.add(out, sc.b, out=out)


class _StrikeOutput:
    """Full-length per-path values of one strike; chunks write disjoint slices."""

    def __init__(self, m: int):
        self.lowval = np.zeros(m)           # payoff at the stopping time
        self.umax = np.full(m, -np.inf)     # running max of payoff minus martingale
        self.z = np.zeros(m)                # discounted payoff now; at the end, the European
        self.tau = np.zeros(m)              # stopping time
        self.zmax = np.full(m, -np.inf)     # running max of the payoff

    def result(self) -> BoundsResult:
        low, se_low = _mean_se(self.lowval)
        up, se_up = _mean_se(self.umax)
        euro, se_euro = _mean_se(self.z)
        bounds = PriceBounds(a_minus=low, a_plus=up, se_minus=se_low, se_plus=se_up,
                             m=self.z.size)
        return BoundsResult(bounds=bounds, european=euro, se_european=se_euro,
                            mean_hit_time=float(self.tau.mean()),
                            mean_running_max=float(self.zmax.mean()))


class _StrikeChunk:
    """One strike on one chunk: views of its output slices plus running state."""

    def __init__(self, task: BoundTask, out: _StrikeOutput, lo: int, hi: int):
        self.task = task
        self.lowval = out.lowval[lo:hi]
        self.umax = out.umax[lo:hi]
        self.z = out.z[lo:hi]
        self.tau = out.tau[lo:hi]
        self.zmax = out.zmax[lo:hi]
        self.mart = np.zeros(hi - lo)
        self.open = np.ones(hi - lo, dtype=bool)  # not yet stopped

    def evaluate(self, n: int, t: float, disc: float, basket: np.ndarray, sc: _WorkArrays):
        z = self.z
        np.multiply(disc, self.task.payoff(basket), out=z)
        np.subtract(z, self.mart, out=sc.a)
        np.maximum(self.umax, sc.a, out=self.umax)
        np.maximum(self.zmax, z, out=self.zmax)
        newly = sc.mask
        np.less_equal(basket, self.task.boundary_levels[n], out=newly)
        np.logical_and(newly, self.open, out=newly)
        np.copyto(self.lowval, z, where=newly)
        np.copyto(self.tau, t, where=newly)
        np.logical_xor(self.open, newly, out=self.open)

    def hedge(self, n: int, disc: float, pbdw: np.ndarray, nodes: _Nodes, sc: _WorkArrays):
        """Martingale increment disc * delta * P b dW with the delta at the located basket."""
        delta = sc.a
        _interp(nodes, self.task.delta_rows[n], sc, delta)
        np.multiply(disc, delta, out=delta)
        np.multiply(delta, pbdw, out=delta)
        np.add(self.mart, delta, out=self.mart)

    def finish(self, t_final: float):
        # open paths exercise at maturity
        np.copyto(self.lowval, self.z, where=self.open)
        np.copyto(self.tau, t_final, where=self.open)


class _TierChunk:
    """One tier's paths and strikes on one chunk inside the shared fine loop.

    A Bachelier tier carries the basket S = P x alone, an (m,) array, and
    steps it by S + r S dt + P b dW: b = sigma does not depend on the state,
    so this is P applied to the d-asset Euler step.  A Black-Scholes tier
    carries the (m, d) state.
    """

    def __init__(self, model: ModelSpec, p: Portfolio, tier: TierTask, nodes: _Nodes,
                 outs: list[_StrikeOutput], n_fine: int, lo: int, hi: int):
        self.n_t = tier.n_t
        self.stride = n_fine // tier.n_t
        self.dt = model.T / tier.n_t
        self.nodes = nodes
        self.basket_only = model.kind is ModelKind.BACHELIER
        if self.basket_only:
            self.x = np.full(hi - lo, float(p.weights @ model.x0))
        else:
            self.x = np.tile(model.x0, (hi - lo, 1))
        self.inc = None  # fine increment summed over the current coarse step (stride > 1)
        self.strikes = [_StrikeChunk(task, out, lo, hi) for task, out in zip(tier.tasks, outs)]

    def _evaluate(self, model: ModelSpec, p: Portfolio, n: int, sc: _WorkArrays):
        t = n * self.dt
        disc = np.exp(-model.r * t)
        basket = self.x if self.basket_only else self.x @ p.weights
        for st in self.strikes:
            st.evaluate(n, t, disc, basket, sc)
        return disc, basket

    def advance(self, model: ModelSpec, p: Portfolio, n: int, inc: np.ndarray, sc: _WorkArrays):
        """Evaluate coarse step n, hedge over its increment, step the paths.

        inc is P b dW for a basket tier and dW for a state tier.  The state at
        step n is evaluated once that step's increment is drawn, so the basket
        and its located interval are used within this one call.
        """
        disc, basket = self._evaluate(model, p, n, sc)
        if self.basket_only:
            bdw = pb = inc
        else:
            bdw = diffusion(model, self.x, inc @ model.sigma.T)
            pb = bdw @ p.weights
        _locate(self.nodes, basket, sc)
        for st in self.strikes:
            st.hedge(n, disc, pb, self.nodes, sc)
        self.x = step(model, self.x, self.dt, bdw)

    def finish(self, model: ModelSpec, p: Portfolio, sc: _WorkArrays):
        self._evaluate(model, p, self.n_t, sc)
        for st in self.strikes:
            st.finish(model.T)


def _simulate_chunk(model: ModelSpec, p: Portfolio, tiers: list[TierTask], nodes: list,
                    outs: list, seed: int, n_fine: int, chunk: int, lo: int, hi: int,
                    run_ahead: bool) -> None:
    """Rows lo:hi (Philox chunk `chunk`) through every tier's time loop.

    With run_ahead, a fill thread draws step nf + 1 while step nf runs.
    """
    sq = np.sqrt(model.T / n_fine)
    # Bachelier tiers read a fine draw only as P b dW = dW @ (sqrt(dt) sigma^T w)
    proj = sq * (model.sigma.T @ p.weights) if model.kind is ModelKind.BACHELIER else None
    sc = _WorkArrays(hi - lo)
    runs = [_TierChunk(model, p, tier, nd, touts, n_fine, lo, hi)
            for tier, nd, touts in zip(tiers, nodes, outs)]

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
                    run.advance(model, p, nf // run.stride, inc, sc)
    for run in runs:
        run.finish(model, p, sc)


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
    nodes = []
    for t in tiers:
        if n_fine % t.n_t != 0:
            raise ValueError(f"tier n_t={t.n_t} does not divide the finest tier {n_fine}")
        if not t.tasks:
            raise ValueError(f"tier n_t={t.n_t} has no strikes")
        if any(not np.array_equal(task.s_nodes, t.tasks[0].s_nodes) for task in t.tasks):
            raise ValueError(f"tier n_t={t.n_t}: every strike must share the tier's s_nodes")
        nodes.append(_Nodes(t.tasks[0].s_nodes))
    outs = [[_StrikeOutput(m) for _ in t.tasks] for t in tiers]
    spans = [(lo, min(lo + CHUNK, m)) for lo in range(0, m, CHUNK)]

    # One whole chunk with a second CPU under the cap draws ahead on a fill
    # thread: the one case measured as a gain.  A 1024-row chunk ran slower
    # that way (its kernel holds the interpreter lock through short ufuncs,
    # so each hand-off stalls), and several chunk workers were not measured.
    cpus = _worker_count(threads)
    run_ahead = m == CHUNK and cpus >= 2

    def run(c: int) -> None:
        _simulate_chunk(model, p, tiers, nodes, outs, seed, n_fine, c, *spans[c], run_ahead)

    workers = min(len(spans), cpus)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(spans))))  # re-raises a chunk's error
    else:
        for c in range(len(spans)):
            run(c)
    return [[o.result() for o in touts] for touts in outs]
