import copy
import dataclasses
import os
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from basketproj import hjb, mc
from basketproj.mc import BoundsResult, bias_estimate, diffusion, simulate_bounds, step
from basketproj.model import ModelKind, ModelSpec, Portfolio, PutPayoff
from basketproj.rng import CHUNK, derive_seed, normal_matrix
from support import (ArrayRows, basket_euler, confidence_interval, euler_states, flat_task,
                     flat_tasks, solved_tasks, streamed)


def _flat_run(model, p, g, n_t, level, n_paths, seed):
    """Bounds for a constant stopping level and a zero martingale."""
    return simulate_bounds(model, p, *flat_task(model, g, n_t, level), n_t, n_paths, seed)[0]


def _one_tier(model, p, sweep, tasks, n_paths, seed, *, threads):
    """simulate_bounds under a thread cap: the coupled run with the one tier."""
    return mc.simulate_tiers_coupled(model, p, [mc.TierTask(sweep, tasks)], n_paths,
                                     seed, threads=threads)[0]


def _bounds(a_minus, a_plus, se_minus, se_plus):
    """A result with the given bounds and a zero European estimate."""
    return BoundsResult(a_minus=a_minus, a_plus=a_plus, se_minus=se_minus, se_plus=se_plus,
                        european=0.0, se_european=0.0, mean_hit_time=None, mean_running_max=None)


class TestStep:
    def test_no_noise_no_rate(self):
        m = ModelSpec(kind=ModelKind.BACHELIER, r=0.0, sigma=np.eye(2), x0=[1.0, 2.0], T=1.0)
        x = np.array([3.0, 4.0])
        assert np.array_equal(step(m, x, 0.01, diffusion(m, x, np.zeros(2) @ m.sigma.T)), x)

    def test_bs_single_step_arithmetic(self):
        m = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.05, sigma=[[0.2]], x0=[100.0], T=1.0)
        x = np.array([100.0])
        got = step(m, x, 1e-3, diffusion(m, x, np.array([0.01]) @ m.sigma.T))
        assert got[0] == pytest.approx(100.0 + 0.05 * 100.0 * 1e-3 + 20.0 * 0.01)

    def test_bs_floor_absorbing(self):
        m = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.0, sigma=[[0.2]], x0=[100.0], T=1.0)
        x = np.array([1.0])
        got = step(m, x, 0.01, diffusion(m, x, np.array([-200.0]) @ m.sigma.T))
        assert got[0] == 0.0
        assert step(m, got, 0.01, diffusion(m, got, np.array([5.0]) @ m.sigma.T))[0] == 0.0

    def test_bachelier_moments(self):
        sigma = np.array([[2.0, 0.0, 0.0], [0.5, 1.5, 0.0], [0.3, -0.2, 1.0]])
        m = ModelSpec(kind=ModelKind.BACHELIER, r=0.1, sigma=sigma, x0=np.zeros(3), T=1.0)
        n, dt = 100_000, 0.04
        x0 = np.tile([10.0, 20.0, 30.0], (n, 1))
        dw = normal_matrix(123, 0, n, 3) * np.sqrt(dt)
        x1 = step(m, x0, dt, diffusion(m, x0, dw @ sigma.T))
        target_mean = np.array([10.0, 20.0, 30.0]) * (1 + 0.1 * dt)
        target_cov = sigma @ sigma.T * dt
        mean_se = np.sqrt(np.diag(target_cov) / n)
        assert np.all(np.abs(x1.mean(axis=0) - target_mean) < 5 * mean_se)
        emp_cov = np.cov(x1.T)
        assert np.allclose(emp_cov, target_cov, rtol=0.05, atol=5e-4)


class TestDiscountedPayoff:
    def test_examples(self):
        # deterministic paths: every estimator is e^{-r t} g(s) at a known (t, s)
        g = PutPayoff(100.0)
        p = Portfolio([1.0])
        n_t = 8

        def model(r, x0, t_mat):
            return ModelSpec(kind=ModelKind.BACHELIER, r=r, sigma=[[0.0]], x0=[x0], T=t_mat)

        now = _flat_run(model(0.05, 90.0, 1.0), p, g, n_t, 1e12, 4, seed=1)
        assert now.a_minus == 10.0  # stopped at t = 0, undiscounted
        assert _flat_run(model(0.0, 90.0, 3.0), p, g, n_t, -np.inf, 4, seed=1).european == 10.0
        x0 = 90.0 / (1.0 + 0.05 / n_t) ** n_t  # the Euler drift brings the basket to 90 at T
        late = _flat_run(model(0.05, x0, 1.0), p, g, n_t, -np.inf, 4, seed=1)
        assert late.european == pytest.approx(10.0 * np.exp(-0.05))


class TestLowerBound:
    def test_immediate_exercise(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        res = _flat_run(m, p, PutPayoff(600.0), 64, 1e12, 500, seed=1)
        assert res.a_minus == pytest.approx(100.0)
        assert res.se_minus == 0.0
        assert np.all(res.mean_hit_time == 0.0)

    def test_empty_boundary_degenerates_to_european(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        res = _flat_run(m, p, PutPayoff(500.0), 64, -np.inf, 2000, seed=2)
        assert res.a_minus == res.european
        assert res.mean_hit_time == pytest.approx(m.T)


class TestUpperBound:
    def test_zero_martingale_dominates_lower(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        g = PutPayoff(500.0)
        n_t = 64
        res = simulate_bounds(m, p, *flat_task(m, g, n_t), n_t, 4000, seed=3)[0]
        assert res.a_plus >= res.a_minus

    def test_wrapper_matches_batched_run(self, bachelier5_model, bachelier5_portfolio,
                                         bachelier5_surface):
        # the upper bound alone (no stopping) and the multi-strike batch see the
        # same paths; the dual bound does not depend on the exercise boundary
        m, p = bachelier5_model, bachelier5_portfolio
        surf, _ = bachelier5_surface
        grid = hjb.make_grid(surf.s_min, surf.s_max, m.T, 128, c=16)
        g = PutPayoff(500.0)
        payoffs = [g, PutPayoff(480.0)]
        sol = hjb.solve(surf, payoffs, grid)
        never = copy.copy(sol)
        never.levels = np.full_like(sol.levels, -np.inf)
        solo = simulate_bounds(m, p, never, [0], 128, 4000, seed=55)[0]
        combined = simulate_bounds(m, p, *solved_tasks(sol), 128, 4000, seed=55)[0]
        assert solo.a_plus == combined.a_plus
        assert solo.se_plus == combined.se_plus

    def test_deterministic_model_exact(self):
        m = ModelSpec(kind=ModelKind.BACHELIER, r=0.05, sigma=np.zeros((2, 2)),
                      x0=[100.0, 100.0], T=1.0)
        p = Portfolio([1.0, 1.0])
        g = PutPayoff(260.0)
        n_t = 16
        dt = m.T / n_t
        res = _flat_run(m, p, g, n_t, -np.inf, 10, seed=4)
        s_path = 200.0 * (1 + 0.05 * dt) ** np.arange(n_t + 1)
        expect = np.max(np.exp(-0.05 * dt * np.arange(n_t + 1)) * np.maximum(260.0 - s_path, 0.0))
        assert res.a_plus == pytest.approx(expect, rel=1e-14)
        assert res.se_plus == 0.0


class TestStatistics:
    def test_confidence_interval(self):
        assert confidence_interval(3.0, 0.0, 0.95) == (3.0, 3.0)
        lo, hi = confidence_interval(0.0, 1.0, 0.95)
        assert lo == pytest.approx(-1.959964, abs=1e-6)
        assert hi == pytest.approx(1.959964, abs=1e-6)

    def test_interval_on_bounds(self):
        b = _bounds(5.0, 6.0, 0.1, 0.2)
        lo = confidence_interval(b.a_minus, b.se_minus, 0.95)[0]
        hi = confidence_interval(b.a_plus, b.se_plus, 0.95)[1]
        assert lo == pytest.approx(5.0 - 1.959964 * 0.1, abs=1e-5)
        assert hi == pytest.approx(6.0 + 1.959964 * 0.2, abs=1e-5)

    def test_se_halves_when_m_quadruples(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        g = PutPayoff(500.0)
        ratios = []
        for seed in (10, 11, 12):
            small = _flat_run(m, p, g, 128, -np.inf, 4000, seed=seed)
            big = _flat_run(m, p, g, 128, -np.inf, 16000, seed=seed + 100)
            ratios.append(small.se_minus / big.se_minus)
        assert all(1.6 <= r <= 2.4 for r in ratios)

    def test_bias_estimate(self):
        b1 = _bounds(5.0, 6.0, 0.1, 0.1)
        b2 = _bounds(5.2, 5.9, 0.1, 0.1)
        assert bias_estimate(b1, b2) == (pytest.approx(0.2), pytest.approx(0.1))
        assert bias_estimate(b1, b1) == (0.0, 0.0)


class TestPathBatch:
    def test_path_is_function_of_seed_and_index(self, bachelier5_model):
        m = bachelier5_model
        t_grid = np.linspace(0.0, m.T, 17)
        xs_small = [x.copy() for x in euler_states(m, 3, 40, t_grid)]
        xs_large = [x.copy() for x in euler_states(m, 3, 90, t_grid)]
        for a, b in zip(xs_small, xs_large):
            assert np.array_equal(a, b[:40])

    def test_increment_variance(self, bachelier5_model):
        dw = normal_matrix(4, 2, 200_000, bachelier5_model.k) * np.sqrt(0.25)
        assert dw.var() == pytest.approx(0.25, rel=0.02)
        assert abs(dw.mean()) < 3 * np.sqrt(0.25 / dw.size)


class TestReproducibility:
    def test_same_seed_bit_identical(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        g = PutPayoff(500.0)
        a = _flat_run(m, p, g, 64, 450.0, 3000, seed=42)
        b = _flat_run(m, p, g, 64, 450.0, 3000, seed=42)
        assert a.a_minus == b.a_minus
        assert a.a_plus == b.a_plus
        assert a.european == b.european

    def test_path_draws_independent_of_batch_size(self):
        full = normal_matrix(7, 3, 100, 4)
        part = normal_matrix(7, 3, 50, 4)
        assert np.array_equal(full[:50], part)

    def test_chunk_block_matches_large_draw(self):
        # a block drawn from its first chunk on is the same rows of one large draw
        full = normal_matrix(7, 3, CHUNK + 40, 2)
        assert np.array_equal(normal_matrix(7, 3, 40, 2, first_chunk=1), full[CHUNK:])

    @pytest.mark.parametrize("n_rows", [1, 2, mc.BLOCK_ROWS + 1, CHUNK, CHUNK + mc.BLOCK_ROWS + 1])
    def test_projected_draw_equals_the_product(self, n_rows):
        # drawn a block at a time, with a last row of its own joined to the
        # block before it; the last case spans two chunks
        v = np.linspace(-1.5, 2.0, 5)
        projected = normal_matrix(7, 3, n_rows, 5, first_chunk=2, project=v)
        assert projected.shape == (n_rows,)
        assert np.array_equal(projected, normal_matrix(7, 3, n_rows, 5, first_chunk=2) @ v)

    def test_streams_differ_by_step_and_seed(self):
        a = normal_matrix(7, 3, 10, 2)
        assert not np.array_equal(a, normal_matrix(7, 4, 10, 2))
        assert not np.array_equal(a, normal_matrix(8, 3, 10, 2))

    def test_reused_generator_matches_a_fresh_one(self):
        # each call resets its thread's generator, wherever the last call left
        # its buffer: odd counts stop mid-buffer, and threads draw at once
        def fresh(seed, step, n_rows, n_cols, first_chunk=0):
            out = np.empty((n_rows, n_cols))
            for lo in range(0, n_rows, CHUNK):
                key = (seed << 64) | (step << 32) | (first_chunk + lo // CHUNK)
                gen = np.random.Generator(np.random.Philox(key=key))
                gen.standard_normal(out=out[lo:lo + CHUNK])
            return out

        calls = [(2**63 + 11, step, n_rows, n_cols, first)
                 for step, (n_rows, n_cols, first) in enumerate(
                     [(1, 1, 0), (3, 5, 0), (1001, 3, 0), (CHUNK + 7, 3, 0),
                      (2 * CHUNK + 5, 1, 0), (333, 7, 4), (CHUNK - 1, 2, 1)] * 3)]

        def check(args):
            # the projected draw reuses its thread's buffer as well as its generator
            v = np.linspace(-1.0, 2.0, args[3])
            raw = fresh(*args)
            return (np.array_equal(normal_matrix(*args), raw)
                    and np.array_equal(normal_matrix(*args, project=v), raw @ v))

        assert all(map(check, calls))
        # more threads than cores, switching often: a shared generator would mix streams
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                done = list(pool.map(check, calls + calls[::-1], timeout=120))
        finally:
            sys.setswitchinterval(switch)
        assert len(done) == 2 * len(calls) and all(done)


class TestOrderingAndConsistency:
    def _bachelier_run(self, m, p, n_t, n_paths, seed, bachelier5_surface):
        surf, _ = bachelier5_surface
        grid = hjb.make_grid(surf.s_min, surf.s_max, m.T, n_t, c=16)
        g = PutPayoff(500.0)
        sol = hjb.solve(surf, [g], grid)
        return simulate_bounds(m, p, *solved_tasks(sol), n_t, n_paths, seed)[0], sol

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bound_ordering(self, bachelier5_model, bachelier5_portfolio, bachelier5_surface, seed):
        res, _ = self._bachelier_run(bachelier5_model, bachelier5_portfolio, 256, 8000,
                                     seed, bachelier5_surface)
        z = 1.959964
        assert res.a_minus <= res.a_plus + z * (res.se_minus + res.se_plus)

    def test_european_mc_matches_pde(self, bachelier5_model, bachelier5_portfolio, bachelier5_surface):
        m, p = bachelier5_model, bachelier5_portfolio
        surf, _ = bachelier5_surface
        res, _ = self._bachelier_run(m, p, 512, 30_000, 77, bachelier5_surface)
        grid = hjb.make_grid(surf.s_min, surf.s_max, m.T, 512, c=16)
        g = PutPayoff(500.0)
        _, (pde_val,) = hjb.value_at(hjb.solve(surf, [g], grid), 500.0)
        fine = hjb.make_grid(surf.s_min, surf.s_max, m.T, 1024, c=16)
        _, (pde_fine,) = hjb.value_at(hjb.solve(surf, [g], fine), 500.0)
        pde_bias = 2 * abs(pde_fine - pde_val)
        assert abs(res.european - pde_val) <= 3 * res.se_european + pde_bias + 0.02

    def test_pde_value_inside_bounds_bachelier(self, bachelier5_model, bachelier5_portfolio, bachelier5_surface):
        # exact projection: the PDE American value is the true price
        m, p = bachelier5_model, bachelier5_portfolio
        res, sol = self._bachelier_run(m, p, 1024, 32_000, 5, bachelier5_surface)
        (value,), _ = hjb.value_at(sol, 500.0)
        slack = 3 * (res.se_minus + res.se_plus) + 0.02 * 0.5 * (res.a_minus + res.a_plus)
        assert res.a_minus - slack <= value <= res.a_plus + slack


class TestCoupledTiers:
    @pytest.mark.parametrize("kind", ["flat", "solved"])
    def test_single_tier_matches_plain_run(self, bachelier5_model, bachelier5_portfolio,
                                           bachelier5_surface, kind):
        m, p = bachelier5_model, bachelier5_portfolio
        g = PutPayoff(500.0)
        n_t = 32
        if kind == "flat":
            sweep, tasks = flat_task(m, g, n_t)
        else:  # a finite boundary and a real delta from a Bachelier solve
            surf, _ = bachelier5_surface
            grid = hjb.make_grid(surf.s_min, surf.s_max, m.T, n_t, c=16)
            sweep, tasks = solved_tasks(hjb.solve(surf, [g], grid))
            assert np.isfinite(sweep.levels[0]).any()
            assert np.any(sweep.segment_delta(0) != 0.0)
        plain = simulate_bounds(m, p, sweep, tasks, n_t, 1000, seed=9)[0]
        tiers = mc.simulate_tiers_coupled(m, p, [mc.TierTask(sweep, tasks)], 1000, seed=9)
        coup = tiers[0][0]
        assert coup.a_minus == plain.a_minus
        assert coup.a_plus == plain.a_plus
        assert coup == plain  # every field, the bounds' standard errors included

    def test_coupled_difference_has_low_variance(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        g = PutPayoff(520.0)
        tier_tasks = []
        for n_t in (32, 64):
            tier_tasks.append(mc.TierTask(*flat_task(m, g, n_t)))
        out = mc.simulate_tiers_coupled(m, p, tier_tasks, 4000, seed=12)
        # same Brownian path: the terminal European values agree to first order
        assert abs(out[0][0].european - out[1][0].european) < 0.2

    def test_bachelier_gap_shrinks_across_tiers(self, bachelier5_model, bachelier5_portfolio,
                                                bachelier5_surface):
        # exact projection: the bound gap is pure discretization and must
        # shrink with the step count (1-se allowance for the residual noise)
        m, p = bachelier5_model, bachelier5_portfolio
        surf, _ = bachelier5_surface
        g = PutPayoff(500.0)
        tiers = []
        for n_t in (256, 512, 1024, 2048):
            grid = hjb.make_grid(surf.s_min, surf.s_max, m.T, n_t, c=16)
            tiers.append(mc.TierTask(*solved_tasks(hjb.solve(surf, [g], grid))))
        out = mc.simulate_tiers_coupled(m, p, tiers, 16_000, seed=71)
        gaps = [res[0].a_plus - res[0].a_minus for res in out]
        ses = [np.hypot(res[0].se_minus, res[0].se_plus) for res in out]
        for i in range(len(gaps) - 1):
            assert gaps[i + 1] <= gaps[i] + ses[i] + ses[i + 1]

    def test_bachelier_basket_matches_d_asset_state(self, bachelier5_model, bachelier5_portfolio):
        # a Bachelier tier carries the basket alone; on each tier's own grid and
        # summed fine draws, the d-asset Euler state must give the same basket
        m, p = bachelier5_model, bachelier5_portfolio
        g = PutPayoff(500.0)
        n_paths, seed = 3000, 31
        tiers = [mc.TierTask(*flat_task(m, g, n)) for n in (16, 32, 64)]
        out = mc.simulate_tiers_coupled(m, p, tiers, n_paths, seed=seed)
        for tier, (res,) in zip(tiers, out):
            t_grid = np.linspace(0.0, m.T, tier.n_t + 1)
            *_, x_t = euler_states(m, seed, n_paths, t_grid, stride=64 // tier.n_t)
            euro = float((np.exp(-m.r * m.T) * g(x_t @ p.weights)).mean())
            assert res.european == pytest.approx(euro, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["bachelier", "black-scholes"])
    def test_top_tier_equals_its_own_run(self, request, kind, threads):
        # the pipeline seeds its coupled pass by the top tier, whose rows must
        # then equal a one-tier run at that seed, bit for bit
        m, p, surf, strikes = _case(request, kind)
        n_paths, seed = CHUNK + 1000, derive_seed(13, "bounds", 64)
        tiers = [mc.TierTask(*_tasks(m, surf, n, strikes)) for n in (16, 32, 64)]
        top = tiers[-1]
        assert top.n_t == 64 and np.isfinite(top.sweep.levels[1]).any()
        coupled = mc.simulate_tiers_coupled(m, p, tiers, n_paths, seed, threads=threads)
        alone = _one_tier(m, p, top.sweep, top.tasks, n_paths, seed, threads=threads)
        assert coupled[-1] == alone  # every BoundsResult field of every strike
        assert coupled[0] != alone

    @pytest.mark.parametrize("kind", ["bachelier", "black-scholes"])
    def test_tier_without_functionals(self, request, kind):
        m, p, surf, strikes = _case(request, kind)
        with_them = [mc.TierTask(*_tasks(m, surf, n, strikes)) for n in (8, 16)]
        without = [dataclasses.replace(t, functionals=False) for t in with_them]
        n_paths = 2 * mc.BLOCK_ROWS + 100
        full = mc.simulate_tiers_coupled(m, p, with_them, n_paths, seed=14)
        bare = mc.simulate_tiers_coupled(m, p, without, n_paths, seed=14)
        for full_tier, bare_tier in zip(full, bare):
            for res, res_bare in zip(full_tier, bare_tier):
                assert res.mean_hit_time is not None and res.mean_running_max is not None
                assert res_bare.mean_hit_time is None and res_bare.mean_running_max is None
                assert res_bare == dataclasses.replace(res, mean_hit_time=None,
                                                       mean_running_max=None)

    def test_tier_must_divide(self, bachelier5_model, bachelier5_portfolio):
        g = PutPayoff(500.0)
        mk = lambda n: mc.TierTask(*flat_task(bachelier5_model, g, n))
        with pytest.raises(ValueError):
            mc.simulate_tiers_coupled(bachelier5_model, bachelier5_portfolio,
                                      [mk(48), mk(64)], 100, seed=1)


class TestTierIsItsSweep:
    """Strike, step count and horizon come off the sweep; an input that
    disagrees with it is an error naming both values, not a number."""

    def _sweep(self, surf, t_max):
        grid = hjb.make_grid(surf.s_min, surf.s_max, t_max, 128, c=16)
        return hjb.solve(surf, [PutPayoff(280.0), PutPayoff(300.0)], grid)

    @pytest.mark.parametrize("n_t", [64, 256])
    def test_step_count_other_than_the_sweeps_raises(self, bs3d_model, bs3d_portfolio,
                                                     bs3d_surface, n_t):
        sol = self._sweep(bs3d_surface[0], bs3d_model.T)
        with pytest.raises(ValueError, match=rf"n_t={n_t} is not the sweep's step count 128"):
            simulate_bounds(bs3d_model, bs3d_portfolio, sol, [1], n_t, 100, seed=7)

    def test_horizon_other_than_the_models_raises(self, bs3d_model, bs3d_portfolio,
                                                  bs3d_surface):
        sol = self._sweep(bs3d_surface[0], 0.25)
        assert bs3d_model.T == 0.5
        match = r"sweep horizon 0\.25 is not the model's T=0\.5"
        with pytest.raises(ValueError, match=match):
            simulate_bounds(bs3d_model, bs3d_portfolio, sol, [1], 128, 100, seed=7)
        with pytest.raises(ValueError, match=match):
            mc.simulate_tiers_coupled(bs3d_model, bs3d_portfolio,
                                      [mc.TierTask(*solved_tasks(sol))], 100, seed=7)

    @pytest.mark.parametrize("tasks, outside", [([-1], "[-1]"), ([2], "[2]"), ([0, 2], "[2]")],
                             ids=["negative", "past-the-end", "one-of-two"])
    def test_rows_outside_the_sweep_raise(self, bachelier5_model, bachelier5_portfolio,
                                          tasks, outside):
        m, p = bachelier5_model, bachelier5_portfolio
        sweep, _ = flat_tasks(m, [PutPayoff(90.0), PutPayoff(100.0)], 8)
        match = rf"tier n_t=8: rows {re.escape(outside)} outside its sweep's \[0, 2\)"
        with pytest.raises(ValueError, match=match):
            simulate_bounds(m, p, sweep, tasks, 8, 100, seed=7)


class TestGridLookup:
    """The kernel's shared interval lookup against np.interp, bit for bit."""

    def _lookup(self, s_nodes, x, rows):
        # every row of the (K, n_s) stack at once, as the kernel reads its strikes
        nodes = mc._Nodes(s_nodes)
        return mc._interp(rows, mc._slopes(nodes, rows), *mc._locate(nodes, x))

    def test_equals_np_interp_on_make_grid_nodes(self):
        grid = hjb.make_grid(37.123, 512.77, 1.0, 64)
        s = grid.s_nodes
        # (s_j - s0) / ds falls below j at some nodes: the floor estimate alone is off there
        estimate = np.floor((s - s[0]) * ((s.size - 1) / (s[-1] - s[0])))
        assert np.any(estimate != np.arange(s.size))
        rng = np.random.default_rng(3)
        x = np.concatenate([
            s,                                              # on nodes
            0.5 * (s[1:] + s[:-1]),                         # midpoints
            np.nextafter(s, -np.inf), np.nextafter(s, np.inf),  # one ulp either side
            rng.uniform(s[0], s[-1], 5000),                 # between nodes
            [s[0] - 1e-9, s[0] - 50.0, -1e300],             # below s0
            [s[-1]],                                        # at the last node
            [s[-1] + 1e-9, s[-1] + 50.0, 1e300],            # above it
        ])
        rows = np.stack([rng.normal(size=s.size), -np.cumsum(rng.uniform(size=s.size)),
                         np.zeros(s.size)])
        for row, got in zip(rows, self._lookup(s, x, rows)):
            assert np.array_equal(got, np.interp(x, s, row))

    def test_rejects_nonuniform_nodes(self):
        with pytest.raises(ValueError, match="uniform"):
            mc._Nodes(np.array([0.0, 1.0, 1.5, 3.0]))


def _case(request, kind):
    """Model, portfolio, surface and two strikes of the Bachelier or Black-Scholes fixtures."""
    name, strikes = {"bachelier": ("bachelier5", (480.0, 500.0)),
                     "black-scholes": ("bs3d", (290.0, 300.0))}[kind]
    m, p, (surf, _) = (request.getfixturevalue(f"{name}_{part}")
                       for part in ("model", "portfolio", "surface"))
    return m, p, surf, strikes


def _tasks(m, surf, n_t, strikes=(480.0, 500.0)):
    grid = hjb.make_grid(surf.s_min, surf.s_max, m.T, n_t, c=16)
    return solved_tasks(hjb.solve(surf, [PutPayoff(k) for k in strikes], grid))


class TestChunkParallelKernel:
    """Paths past one Philox chunk: the worker count must not change any output."""

    M = CHUNK + 1000

    def test_single_tier_workers_agree(self, bachelier5_model, bachelier5_portfolio,
                                       bachelier5_surface):
        m, p = bachelier5_model, bachelier5_portfolio
        sweep, tasks = _tasks(m, bachelier5_surface[0], 16)
        assert np.isfinite(sweep.levels[1]).any()
        one = _one_tier(m, p, sweep, tasks, self.M, seed=21, threads=1)
        two = _one_tier(m, p, sweep, tasks, self.M, seed=21, threads=2)
        assert one == two  # every BoundsResult field

    def test_coupled_tiers_workers_agree(self, bachelier5_model, bachelier5_portfolio,
                                         bachelier5_surface):
        m, p = bachelier5_model, bachelier5_portfolio
        surf, _ = bachelier5_surface
        tiers = [mc.TierTask(*_tasks(m, surf, n, (500.0,))) for n in (8, 16)]
        one = mc.simulate_tiers_coupled(m, p, tiers, self.M, seed=22, threads=1)
        two = mc.simulate_tiers_coupled(m, p, tiers, self.M, seed=22, threads=2)
        assert one == two
        assert one[0][0] != one[1][0]  # the tiers are told apart

    def test_european_matches_path_by_path_reference(self, bachelier5_model,
                                                     bachelier5_portfolio):
        # each chunk must draw its own Philox chunk: the terminal payoffs equal
        # those of one pass of the basket recursion over all paths at once
        m, p = bachelier5_model, bachelier5_portfolio
        g = PutPayoff(500.0)
        res = _one_tier(m, p, *flat_task(m, g, 16), self.M, seed=23, threads=2)[0]
        z = np.exp(-m.r * m.T) * g(basket_euler(m, p, 23, self.M, 16))
        assert res.european == float(z.mean())
        assert res.a_minus == res.european  # nothing stops before maturity

    def test_black_scholes_european_matches_path_by_path_reference(self, bs3d_model,
                                                                   bs3d_portfolio):
        # the same for the (m, d) state: one Euler pass over all paths at once
        # (T / n_t is exact here)
        m, p = bs3d_model, bs3d_portfolio
        g = PutPayoff(300.0)
        res = _one_tier(m, p, *flat_task(m, g, 16), self.M, seed=23, threads=2)[0]
        *_, x_t = euler_states(m, 23, self.M, np.linspace(0.0, m.T, 17))
        z = np.exp(-m.r * m.T) * g(x_t @ p.weights)
        assert res.european == float(z.mean())
        assert res.a_minus == res.european

    def test_each_chunk_recomputes_its_segments(self, bachelier5_model, bachelier5_portfolio,
                                                bachelier5_surface, monkeypatch):
        # each chunk recomputes every delta segment it reads, on one worker or
        # two, and the results do not depend on which
        m, p = bachelier5_model, bachelier5_portfolio
        surf, _ = bachelier5_surface
        tiers = [mc.TierTask(*_tasks(m, surf, n)) for n in (48, 96)]
        calls = []
        segment_delta = hjb.Sweep.segment_delta

        def counted(self, j):
            calls.append((self.grid.n_t, j))
            return segment_delta(self, j)

        monkeypatch.setattr(hjb.Sweep, "segment_delta", counted)
        read = [(n, j) for n in (48, 96) for j in range((n - 1) // hjb.BLOCK_LEVELS + 1)]
        results = []
        for threads in (1, 2):
            calls.clear()
            results.append(mc.simulate_tiers_coupled(m, p, tiers, self.M, seed=24,
                                                     threads=threads))
            assert sorted(calls) == sorted(read * 2)  # self.M is two chunks
        assert results[0] == results[1]


class TestStackedStrikes:
    """A tier's strikes share every ufunc call of a step; each must still see
    only its own row, exactly as when it runs alone."""

    M = CHUNK + 1000  # a whole chunk of mc.BLOCK_ROWS blocks, then a part chunk

    def _tasks(self, model, p, surf, strikes):
        grid = hjb.make_grid(surf.s_min, surf.s_max, model.T, 16, c=16)
        payoffs = [PutPayoff(k) for k in strikes]
        sol = hjb.solve(surf, payoffs, grid)
        _, delta = streamed(sol)  # the sweep's own delta bits, (K, 17, n_s)
        # one stand-in sweep: the solved strikes, an always-empty region that
        # keeps the first strike's delta, and a flat stop level with zero delta
        levels = np.vstack([sol.levels, np.full(17, -np.inf), np.full(17, strikes[-1] - 20.0)])
        rows = np.concatenate([delta, delta[:1], np.zeros_like(delta[:1])]).swapaxes(0, 1)
        sweep = ArrayRows([*strikes, strikes[0] + 5.0, strikes[-1]], levels, rows, grid.s_nodes,
                          model.T)
        return sweep, list(range(len(sweep.strikes)))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["bachelier", "black-scholes"])
    def test_tier_equals_one_strike_runs(self, request, kind, threads):
        m, p, surf, strikes = _case(request, kind)
        sweep, tasks = self._tasks(m, p, surf, strikes)
        assert np.isfinite(sweep.levels[1]).any()
        together = _one_tier(m, p, sweep, tasks, self.M, seed=41, threads=threads)
        assert mc.BLOCK_ROWS < CHUNK and len(together) == len(tasks)
        for task, res in zip(tasks, together):
            alone, = _one_tier(m, p, sweep, [task], self.M, seed=41, threads=threads)
            assert res == alone  # every BoundsResult field


class _CountingExecutor(mc.ThreadPoolExecutor):
    """The kernel's thread pools, with each pool's max_workers recorded."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


class TestRunAheadFill:
    """One whole chunk with a spare CPU draws step n + 1 on a fill thread while step n runs."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(mc, "ThreadPoolExecutor",
                            lambda max_workers: _CountingExecutor(sizes, max_workers))
        return sizes

    def test_coupled_bachelier_tiers_match_inline(self, bachelier5_model, bachelier5_portfolio,
                                                  bachelier5_surface, pools):
        m, p = bachelier5_model, bachelier5_portfolio
        surf, _ = bachelier5_surface
        tiers = [mc.TierTask(*_tasks(m, surf, n)) for n in (8, 16, 32)]
        ahead = mc.simulate_tiers_coupled(m, p, tiers, CHUNK, seed=31, threads=2)
        assert pools == [1]  # one chunk on this thread, one fill thread
        inline = mc.simulate_tiers_coupled(m, p, tiers, CHUNK, seed=31, threads=1)
        assert pools == [1]
        assert ahead == inline  # every BoundsResult field of every tier

    def test_black_scholes_bounds_match_inline(self, bs3d_model, bs3d_portfolio, bs3d_surface,
                                               pools):
        # the step reads its scaled block to the end, while the next fill runs
        m, p = bs3d_model, bs3d_portfolio
        sweep, tasks = _tasks(m, bs3d_surface[0], 16, (290.0, 300.0))
        assert np.isfinite(sweep.levels[1]).any()
        ahead = _one_tier(m, p, sweep, tasks, CHUNK, seed=32, threads=2)
        inline = _one_tier(m, p, sweep, tasks, CHUNK, seed=32, threads=1)
        assert pools == [1]
        assert ahead == inline

    @pytest.mark.parametrize("paths, made", [(CHUNK + 1000, [2]), (CHUNK - 1, [])])
    def test_other_runs_draw_inline(self, bachelier5_model, bachelier5_portfolio,
                                    bachelier5_surface, pools, paths, made):
        # a whole chunk beside a tail, or a part chunk alone: no fill thread
        m, p = bachelier5_model, bachelier5_portfolio
        sweep, tasks = _tasks(m, bachelier5_surface[0], 16)
        four = _one_tier(m, p, sweep, tasks, paths, seed=33, threads=4)
        assert pools == made  # the chunk workers' pool, if two chunks
        one = _one_tier(m, p, sweep, tasks, paths, seed=33, threads=1)
        assert four == one

    @staticmethod
    def _slow_fill_thread(monkeypatch, drawers, delay=0.005):
        """Let the fill thread take delay seconds longer per step, so the kernel
        thread draws the steps it would wait on; drawers maps each step to its
        thread.  Returns the kernel thread's ident."""
        draw, kernel = mc.normal_matrix, threading.get_ident()

        def slow(seed, step, *args, **kwargs):
            drawers[step] = threading.get_ident()
            if drawers[step] != kernel:
                time.sleep(delay)
            return draw(seed, step, *args, **kwargs)

        monkeypatch.setattr(mc, "normal_matrix", slow)
        return kernel

    @pytest.mark.parametrize("kind", ["bachelier", "black-scholes"])
    def test_kernel_thread_draws_what_the_fill_thread_has_not_started(self, request, kind,
                                                                     monkeypatch, pools):
        m, p, surf, strikes = _case(request, kind)
        tiers = [mc.TierTask(*_tasks(m, surf, n, strikes))
                 for n in ((8, 16, 32) if kind == "bachelier" else (32,))]
        inline = mc.simulate_tiers_coupled(m, p, tiers, CHUNK, seed=37, threads=1)
        drawers = {}
        kernel = self._slow_fill_thread(monkeypatch, drawers)
        both = mc.simulate_tiers_coupled(m, p, tiers, CHUNK, seed=37, threads=2)
        assert pools == [1]
        assert sorted(drawers) == list(range(32))
        assert kernel in drawers.values() and len(set(drawers.values())) == 2
        assert both == inline  # every BoundsResult field of every tier

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fill_error_surfaces_and_threads_end(self, bachelier5_model, bachelier5_portfolio,
                                                 monkeypatch, threads):
        draw = mc.normal_matrix

        def failing(seed, step, *args, **kwargs):
            if step == 3:
                raise RuntimeError("fill failed at step 3")
            return draw(seed, step, *args, **kwargs)

        monkeypatch.setattr(mc, "normal_matrix", failing)
        before = threading.active_count()
        sweep, tasks = flat_task(bachelier5_model, PutPayoff(500.0), 16, 450.0)
        with pytest.raises(RuntimeError, match="fill failed at step 3"):
            _one_tier(bachelier5_model, bachelier5_portfolio, sweep, tasks, CHUNK, seed=34,
                      threads=threads)
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["own draw", "advance"])
    def test_kernel_thread_error_cancels_the_queue_and_ends_the_fill_thread(
            self, bachelier5_model, bachelier5_portfolio, monkeypatch, where):
        # the fill thread is slow enough that a queued step waits at the failure
        drawers, failed, late = {}, threading.Event(), []
        kernel = self._slow_fill_thread(monkeypatch, drawers, delay=0.02)
        slow, advance = mc.normal_matrix, mc._TierChunk.advance

        def fail(msg):
            failed.set()
            raise RuntimeError(msg)

        def watched(seed, step, *args, **kwargs):
            if failed.is_set():
                late.append(step)
            if where == "own draw" and threading.get_ident() == kernel and step >= 4:
                fail(f"own draw failed at step {step}")
            return slow(seed, step, *args, **kwargs)

        def failing_advance(self, model, p, n, inc):
            if where == "advance" and n == 5:
                fail("advance failed at step 5")
            return advance(self, model, p, n, inc)

        monkeypatch.setattr(mc, "normal_matrix", watched)
        monkeypatch.setattr(mc._TierChunk, "advance", failing_advance)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            _one_tier(bachelier5_model, bachelier5_portfolio,
                      *flat_task(bachelier5_model, PutPayoff(500.0), 16, 450.0), CHUNK, seed=34,
                      threads=2)
        assert threading.active_count() == before
        assert late == []  # no queued step started after the failure

    def test_no_thread_holds_a_whole_raw_block(self, bachelier5_model, bachelier5_portfolio):
        # a Bachelier draw is projected BLOCK_ROWS rows at a time, so the run
        # stays below what its tiers hold plus one (CHUNK, k) raw block, which
        # drawing each step's raw block whole went over (10.9 MiB against 9.9).
        # This thread's projection buffer, kept like its generator from draw
        # to draw, is made first; the fill thread's is counted.
        m, p = bachelier5_model, bachelier5_portfolio
        normal_matrix(1, 0, 2, m.k, project=np.ones(m.k))
        n_ts, k = (8, 16, 32), 1
        tiers = [mc.TierTask(*flat_task(m, PutPayoff(500.0), n, 450.0), functionals=False)
                 for n in n_ts]
        per_tier = (3 * k * CHUNK * 8          # lower, upper and martingale values
                    + CHUNK * 8 + k * CHUNK    # the basket and the open flags
                    + k * mc.BLOCK_ROWS * 8)   # the payoff scratch
        coarse_sums = (len(n_ts) - 1) * CHUNK * 8
        bound = len(n_ts) * per_tier + coarse_sums + CHUNK * m.k * 8
        tracemalloc.start()
        try:
            mc.simulate_tiers_coupled(m, p, tiers, CHUNK, seed=38, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_one_thread_starts_no_pool(self, bachelier5_model, bachelier5_portfolio,
                                       monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("threads=1 must start no thread")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        sweep, tasks = flat_task(bachelier5_model, PutPayoff(500.0), 8, 450.0)
        res = _one_tier(bachelier5_model, bachelier5_portfolio, sweep, tasks, CHUNK + 1000,
                        seed=35, threads=1)
        assert len(res) == 1 and np.isfinite(res[0].a_minus)

    def test_worker_count_without_affinity_or_cpu_count(self, bachelier5_model,
                                                        bachelier5_portfolio, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mc._worker_count(None) == 1
        assert mc._worker_count(3) == 3
        res = simulate_bounds(bachelier5_model, bachelier5_portfolio,
                              *flat_task(bachelier5_model, PutPayoff(500.0), 8), 8, 100, seed=36)
        assert len(res) == 1 and np.isfinite(res[0].a_minus)
