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
under the thread cap, queues the next ``FILL_AHEAD`` steps' draws on a fill
thread while step n runs.  When step n's draw is not ready, the kernel thread
draws a queued step the fill thread has not started instead of waiting, so
both CPUs draw.  The cap counts the fill thread too, so one thread starts none.

Per chunk, each fine step takes its increment, normals scaled by sqrt(dt)
(Black-Scholes) or projected to P b dW (Bachelier, drawn ``BLOCK_ROWS`` rows
at a time by ``normal_matrix(project=...)``, so no thread holds a whole raw
block), adds it to every coarser tier's running sum, and advances each tier
whose coarse step ends there.  A tier advances one row block of
``BLOCK_ROWS`` at a time: basket, payoffs and stop test, delta lookup, hedge,
Euler step, before the next block starts, so its temporaries are block-sized.
At maturity each tier evaluates once more and the European payoff takes the
place of the martingale, which nothing reads after that.

A tier's K strikes are stacked: each chunk writes its column slice of the
tier's full-length (K, m) per-path values (lower bound, upper bound,
martingale then European, and the stopping time and payoff maximum only for a
tier with functionals), and the statistics reduce each strike's contiguous
row once at the end, so results do not depend on the number of workers or on
whether the fill runs ahead.  The delta is read off the step's (K, n_s)
rows through one interval lookup, with ``np.interp``'s bits on the uniform
``make_grid`` nodes.  Every operation is elementwise, so K strikes equal K
one-strike runs.

A tier is one ``hjb.Sweep`` and the rows of it that it prices: each row's
strike, exercise levels and delta, the step count and the horizon all come
off that sweep.  Its delta rows are read a segment of time levels at a time
(``hjb.Sweep.segment_delta`` recomputes a segment from its checkpoint).
Each chunk recomputes the segments it reads, so a tier holds one segment per
running chunk, not its whole delta grid, and chunks share nothing but the
column slices they write.  Each strike's result is one flat ``BoundsResult``.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ModelKind, ModelSpec, Portfolio, put_value
from .rng import BLOCK_ROWS, CHUNK, normal_matrix

# steps queued on the fill thread beyond the one the kernel takes next
FILL_AHEAD = 2


@dataclass(frozen=True)
class BoundsResult:
    """One strike's output of one batch: the lower and upper bound estimators
    with their standard errors, the European estimate and the functionals.

    The functionals are None for a tier run without them (TierTask.functionals).
    """

    a_minus: float
    a_plus: float
    se_minus: float
    se_plus: float
    european: float
    se_european: float
    mean_hit_time: float | None
    mean_running_max: float | None


@dataclass
class TierTask:
    """One refinement level of a coupled run: the rows `tasks` of one sweep.

    Row k prices strike sweep.strikes[k]; its path stops below the basket
    level sweep.levels[k][n] at grid time n (-inf: an empty exercise region).
    sweep.segment_delta(j) gives the (L, K', n_s) delta rows of time levels
    j * span onward, on the uniform grid.s_nodes.  The tier takes the grid's
    n_t steps to its horizon grid.t_grid[-1], which must be the model's T.

    functionals asks for the mean stopping time and the mean running maximum
    of the payoff; a tier without them keeps no per-path arrays for them.
    """

    sweep: object
    tasks: list[int]
    functionals: bool = True

    @property
    def n_t(self) -> int:
        return self.sweep.grid.n_t


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


def bias_estimate(run_coarse: BoundsResult, run_fine: BoundsResult) -> tuple[float, float]:
    """|A(2 N_t) - A(N_t)| per bound; callers supply runs with identical physical inputs."""
    return (abs(run_fine.a_minus - run_coarse.a_minus),
            abs(run_fine.a_plus - run_coarse.a_plus))


def simulate_bounds(model: ModelSpec, p: Portfolio, sweep, tasks: list[int],
                    n_t: int, m: int, seed: int) -> list[BoundsResult]:
    """One forward-Euler batch evaluating the bounds of the sweep's rows tasks
    on shared paths: simulate_tiers_coupled with the one tier, on every CPU
    this process may run on.  n_t must be the sweep's step count."""
    tier = TierTask(sweep=sweep, tasks=tasks)
    if n_t != tier.n_t:
        raise ValueError(f"n_t={n_t} is not the sweep's step count {tier.n_t}")
    return _simulate(model, p, [tier], m, seed, None)[0]


def simulate_tiers_coupled(model: ModelSpec, p: Portfolio, tiers: list[TierTask],
                           m: int, seed: int,
                           threads: int | None = None) -> list[list[BoundsResult]]:
    """Evaluate several time-step tiers on one shared fine Brownian path.

    Coarser tiers consume sums of the fine increments, so tier differences
    estimate pure discretization bias with far lower variance than independent
    batches.  Tier step counts must divide the finest count.  The finest tier
    steps on the fine draws themselves, so its results equal a one-tier run at
    the same seed.  threads caps the threads started, chunk workers and the
    fill thread together (None: every CPU this process may run on); the
    results do not depend on it.
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
    # (xc - s[0]) * inv_ds lies in [0, n - 1] to a rounding, so truncation is the floor
    j = ((xc - s[0]) * nodes.inv_ds).astype(np.intp)
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
    its contiguous row.  Every strike is a row of the tier's sweep, which each
    chunk reads a segment at a time.
    """

    def __init__(self, tier: TierTask, m: int):
        if not tier.tasks:
            raise ValueError(f"tier n_t={tier.n_t} has no strikes")
        self.sweep, self.n_t, self.index = tier.sweep, tier.n_t, list(tier.tasks)
        self.nodes = _Nodes(self.sweep.grid.s_nodes)
        self.strikes = self.sweep.strikes[self.index, None]  # (K, 1)
        self.levels = self.sweep.levels[self.index]          # (K, n_t + 1)
        self.span = self.sweep.span
        k = len(self.index)
        self.lowval = np.zeros((k, m))          # payoff at the stopping time
        self.umax = np.full((k, m), -np.inf)    # running max of payoff minus martingale
        self.mart = np.zeros((k, m))            # the martingale; at maturity, the European payoff
        on = tier.functionals
        self.tau = np.zeros((k, m)) if on else None            # stopping time
        self.zmax = np.full((k, m), -np.inf) if on else None   # running max of the payoff

    def results(self) -> list[BoundsResult]:
        out = []
        for k in range(len(self.mart)):
            low, se_low = _mean_se(self.lowval[k])
            up, se_up = _mean_se(self.umax[k])
            euro, se_euro = _mean_se(self.mart[k])
            hit = run_max = None
            if self.tau is not None:
                hit, run_max = float(self.tau[k].mean()), float(self.zmax[k].mean())
            out.append(BoundsResult(a_minus=low, a_plus=up, se_minus=se_low, se_plus=se_up,
                                    european=euro, se_european=se_euro,
                                    mean_hit_time=hit, mean_running_max=run_max))
        return out


class _TierChunk:
    """One tier's paths and strikes on one chunk inside the shared fine loop.

    A Bachelier tier carries the basket S = P x alone, an (m,) array, and
    steps it by S + r S dt + P b dW: b = sigma does not depend on the state,
    so this is P applied to the d-asset Euler step.  A Black-Scholes tier
    carries the (m, d) state.  Per-strike state is (K, rows); the payoff is a
    (K, BLOCK_ROWS) scratch, rewritten by every row block.
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
        self.lowval, self.umax, self.mart, self.tau, self.zmax = (
            None if a is None else a[:, lo:hi]
            for a in (tier.lowval, tier.umax, tier.mart, tier.tau, tier.zmax))
        self.open = np.ones(self.mart.shape, dtype=bool)  # not yet stopped
        self.z = np.empty((len(tier.strikes), min(hi - lo, BLOCK_ROWS)))
        self.blocks = [slice(b, b + BLOCK_ROWS) for b in range(0, hi - lo, BLOCK_ROWS)]
        self.j = None      # the delta segment in use, and its rows
        self.seg = None

    def _evaluate(self, p: Portfolio, n: int, t: float, disc: float, c: slice):
        """Payoff, running maxima and first stop of every strike at step n, on rows c.

        Returns the block's basket and its discounted payoffs (the scratch).
        """
        basket = self.x[c] if self.basket_only else self.x[c] @ p.weights
        z = self.z[:, :basket.size]
        np.multiply(disc, put_value(self.tier.strikes, basket, out=z), out=z)
        umax, opened = self.umax[:, c], self.open[:, c]
        np.maximum(umax, z - self.mart[:, c], out=umax)
        newly = (basket <= self.tier.levels[:, n:n + 1]) & opened
        np.copyto(self.lowval[:, c], z, where=newly)
        opened ^= newly
        if self.tau is not None:
            zmax = self.zmax[:, c]
            np.maximum(zmax, z, out=zmax)
            np.copyto(self.tau[:, c], t, where=newly)
        return basket, z

    def advance(self, model: ModelSpec, p: Portfolio, n: int, inc: np.ndarray):
        """Coarse step n, one row block at a time: evaluate, hedge, step.

        inc is P b dW for a basket tier and dW for a state tier.  Each block
        forms its basket, payoffs and stops, reads the delta at the located
        basket off the strikes' (K, n_s) step-n rows in their segment, adds
        the martingale increment disc * delta * P b dW, and takes its Euler
        step before the next block starts.
        """
        t = n * self.dt
        disc = np.exp(-model.r * t)
        j = n // self.tier.span
        if j != self.j:
            self.j, self.seg = j, self.tier.sweep.segment_delta(j)[:, self.tier.index]
        rows = self.seg[n - j * self.tier.span]
        slope = _slopes(self.tier.nodes, rows)
        for c in self.blocks:
            basket, _ = self._evaluate(p, n, t, disc, c)
            if self.basket_only:
                bdw = pb = inc[c]
            else:
                bdw = diffusion(model, self.x[c], inc[c] @ model.sigma.T)
                pb = bdw @ p.weights
            delta = _interp(rows, slope, *_locate(self.tier.nodes, basket))
            delta *= disc
            delta *= pb
            mart = self.mart[:, c]
            mart += delta
            self.x[c] = step(model, self.x[c], self.dt, bdw)

    def finish(self, model: ModelSpec, p: Portfolio):
        """Evaluate maturity: open paths exercise there, and each strike's
        martingale row takes the European payoff."""
        n = self.tier.n_t
        t = n * self.dt
        disc = np.exp(-model.r * t)
        for c in self.blocks:
            _, z = self._evaluate(p, n, t, disc, c)
            opened = self.open[:, c]
            np.copyto(self.lowval[:, c], z, where=opened)
            if self.tau is not None:
                np.copyto(self.tau[:, c], model.T, where=opened)
            self.mart[:, c] = z


def _take(queued: dict[int, Future], nf: int, fill) -> np.ndarray:
    """Step nf's increment, the first of the queued steps.

    While the fill thread has not finished it, this thread draws the queued
    steps the fill thread has not started, earliest first, rather than wait.
    """
    for s in list(queued):
        if queued[nf].done():
            break
        if queued[s].cancel():
            queued[s] = Future()
            queued[s].set_result(fill(s))
    return queued.pop(nf).result()


def _simulate_chunk(model: ModelSpec, p: Portfolio, tiers: list[_Tier],
                    seed: int, n_fine: int, chunk: int, lo: int, hi: int,
                    run_ahead: bool) -> None:
    """Rows lo:hi (Philox chunk `chunk`) through every tier's time loop.

    With run_ahead, FILL_AHEAD steps past step nf are queued on a fill thread
    while step nf runs, and this thread draws those it would otherwise wait on.
    """
    sq = np.sqrt(model.T / n_fine)
    # Bachelier tiers read a fine draw only as P b dW = dW @ (sqrt(dt) sigma^T w)
    proj = sq * (model.sigma.T @ p.weights) if model.kind is ModelKind.BACHELIER else None
    runs = [_TierChunk(model, p, tier, n_fine, lo, hi) for tier in tiers]

    def fill(nf: int) -> np.ndarray:
        """Step nf's increment: dW scaled by sqrt(dt), or projected to P b dW."""
        if proj is not None:
            return normal_matrix(seed, nf, hi - lo, model.k, first_chunk=chunk, project=proj)
        dw = normal_matrix(seed, nf, hi - lo, model.k, first_chunk=chunk)
        return np.multiply(dw, sq, out=dw)

    fills = ThreadPoolExecutor(max_workers=1) if run_ahead else None
    queued: dict[int, Future] = {}  # steps nf, nf + 1, ... in order
    try:
        for nf in range(n_fine):
            if fills is None:
                dw = fill(nf)
            else:
                for s in range(nf + len(queued), min(nf + 1 + FILL_AHEAD, n_fine)):
                    queued[s] = fills.submit(fill, s)
                dw = _take(queued, nf, fill)
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
    finally:
        if fills is not None:
            # on an error anywhere, drop the steps not started; always join the thread
            fills.shutdown(cancel_futures=True)
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
        if t.sweep.grid.t_grid[-1] != model.T:
            raise ValueError(f"tier n_t={t.n_t}: sweep horizon {t.sweep.grid.t_grid[-1]} "
                             f"is not the model's T={model.T}")
    stacked = [_Tier(t, m) for t in tiers]
    spans = [(lo, min(lo + CHUNK, m)) for lo in range(0, m, CHUNK)]

    # One whole chunk with a second CPU under the cap queues its draws on a
    # fill thread and draws those the fill thread has not started itself: the
    # one case measured as a gain.  A 1024-row chunk ran slower with a fill
    # thread (its kernel holds the interpreter lock through short ufuncs, so
    # each hand-off stalls), and several chunk workers were not measured.
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
