import logging
from math import erf, exp, log, sqrt
from types import SimpleNamespace

import numpy as np
import pytest

from basketproj import hjb
from basketproj.hjb import exercise_boundary, make_grid, solve, value_at
from basketproj.model import PutPayoff
from basketproj.surface import CoefficientSurface, constant_surface
from support import reference_sweep, streamed

BS3D_STRIKES = (240.0, 260.0, 280.0, 300.0, 320.0, 340.0)


def gbm_surface(vol=0.2, r=0.05, s_max=320.0, t_max=0.5, floor=1e-6):
    return CoefficientSurface(slice_times=np.array([0.0]),
                              coeffs=np.array([[0.0, 0.0, vol**2, 0.0]]),
                              floor=floor, s_min=0.0, s_max=s_max, t_max=t_max, r=r)


def bs_put(spot, strike, r, vol, t):
    ncdf = lambda x: 0.5 * (1.0 + erf(x / sqrt(2.0)))
    d1 = (log(spot / strike) + (r + 0.5 * vol**2) * t) / (vol * sqrt(t))
    d2 = d1 - vol * sqrt(t)
    return strike * exp(-r * t) * ncdf(-d2) - spot * ncdf(-d1)


def t0_sweep(grid, american, european):
    """A stand-in sweep holding only the given (K, n_s) t = 0 rows: all value_at reads."""
    return SimpleNamespace(grid=grid, american=american, european=european)


def reference_levels(values, g, strike, s):
    """Per-level loop over one strike's (n_t + 1, n_s) American grid."""
    below = s < strike
    below[0] = below[-1] = False
    member = (values - g <= hjb.REGION_TOL * np.maximum(1.0, np.abs(g))) & below
    levels = np.full(values.shape[0], -np.inf)
    for n in range(values.shape[0]):
        hits = np.nonzero(member[n])[0]
        if hits.size:
            levels[n] = s[hits[-1]]
    return levels


class TestSolve:
    def test_degenerate_limit_equals_payoff(self):
        surf = CoefficientSurface(slice_times=np.array([0.0]), coeffs=np.array([[0.0]]),
                                  floor=1e-12, s_min=0.0, s_max=200.0, t_max=1.0, r=0.0)
        grid = make_grid(0.0, 200.0, 1.0, 64, n_s=101)
        g = PutPayoff(100.0)
        values, _ = streamed(solve(surf, [g], grid))
        assert np.max(np.abs(values - g(grid.s_nodes))) < 1e-7

    def test_european_against_closed_form(self):
        grid = make_grid(0.0, 320.0, 0.5, 1024, n_s=257)
        _, (euro,) = value_at(solve(gbm_surface(), [PutPayoff(100.0)], grid), 100.0)
        ref = bs_put(100.0, 100.0, 0.05, 0.2, 0.5)
        assert euro == pytest.approx(ref, rel=4e-3)

    def test_terminal_and_dirichlet_rows(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 128, c=16)
        g = PutPayoff(300.0)
        grids, _ = streamed(solve(surf, [g], grid))
        s = grid.s_nodes
        for values in grids:
            assert np.array_equal(values[-1], g(s))
            assert np.all(values[:, 0] == g(s[0]))
            assert np.all(values[:, -1] == g(s[-1]))

    def test_obstacle_invariant(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 256, c=16)
        g = PutPayoff(300.0)
        (american, _), _ = streamed(solve(surf, [g], grid))
        assert float(np.min(american - g(grid.s_nodes))) >= -1e-12

    def test_american_dominates_european(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 256, c=16)
        (american, european), _ = streamed(solve(surf, [PutPayoff(300.0)], grid))
        assert float(np.min(american - european)) >= -1e-10

    def test_monotone_in_strike(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 128, c=16)
        (lo, hi, _, _), _ = streamed(solve(surf, [PutPayoff(280.0), PutPayoff(320.0)], grid))
        assert np.all(hi - lo >= -1e-10)

    def test_comparison_principle(self):
        surf = gbm_surface()
        bumped = CoefficientSurface(slice_times=surf.slice_times, coeffs=1.1 * surf.coeffs,
                                    floor=surf.floor, s_min=surf.s_min, s_max=surf.s_max,
                                    t_max=surf.t_max, r=surf.r)
        grid = make_grid(0.0, 320.0, 0.5, 512, n_s=161)
        g = PutPayoff(100.0)
        _, (base,) = value_at(solve(surf, [g], grid), 100.0)
        _, (more,) = value_at(solve(bumped, [g], grid), 100.0)
        assert more >= base

    def test_refinement_improves(self):
        ref = bs_put(100.0, 100.0, 0.05, 0.2, 0.5)
        errs = []
        for n_t in (256, 1024, 4096):
            grid = make_grid(0.0, 320.0, 0.5, n_t, c=257**2 / 4096)
            _, (euro,) = value_at(solve(gbm_surface(), [PutPayoff(100.0)], grid), 100.0)
            errs.append(abs(euro - ref))
        assert errs[0] > errs[1] > errs[2]

    def test_grid_outside_rectangle_rejected(self, bs3d_surface):
        # the constructor runs the input checks, so solve and Sweep both meet them
        surf, _ = bs3d_surface
        for lo, hi in ((surf.s_min - 50.0, surf.s_max), (surf.s_min, surf.s_max + 50.0)):
            grid = make_grid(lo, hi, surf.t_max, 64, c=16)
            for entry in (solve, hjb.Sweep):
                with pytest.raises(ValueError, match="surface rectangle does not contain the grid"):
                    entry(surf, [PutPayoff(300.0)], grid)

    def test_grid_past_the_surface_horizon_rejected(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, surf.t_max * 1.01, 64, c=16)
        for entry in (solve, hjb.Sweep):
            with pytest.raises(ValueError, match="surface horizon shorter than the grid"):
                entry(surf, [PutPayoff(300.0)], grid)

    def test_coupling_rule(self):
        grid = make_grid(0.0, 1.0, 1.0, 4096, c=16.0)
        assert grid.n_s == 256
        with pytest.raises(ValueError):
            make_grid(0.0, 1.0, 1.0, 1, c=0.5)  # fewer than 3 nodes


class TestOneSweep:
    """Every strike and both flavors share one tridiagonal solve per time level."""

    def test_strikes_equal_one_payoff_sweeps(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 256, c=16)
        payoffs = [PutPayoff(k) for k in BS3D_STRIKES]
        sol = solve(surf, payoffs, grid)
        assert sol.strikes.tolist() == list(BS3D_STRIKES) and not sol.strikes.flags.writeable
        values, delta = streamed(sol)
        k_all = len(payoffs)
        for k, g in enumerate(payoffs):
            one = solve(surf, [g], grid)
            one_values, one_delta = streamed(one)
            for name, got, want in (("levels", sol.levels[k], one.levels[0]),
                                    ("american", sol.american[k], one.american[0]),
                                    ("european", sol.european[k], one.european[0]),
                                    ("american grid", values[k], one_values[0]),
                                    ("european grid", values[k_all + k], one_values[1]),
                                    ("delta", delta[k], one_delta[0])):
                assert np.array_equal(got, want), (g.strike, name)

    def test_keeps_checkpoints_not_grids(self, bs3d_surface):
        # levels, the t = 0 rows and one (2K, n_s) row per segment of
        # BLOCK_LEVELS levels; the t = 0 rows are the first streamed ones
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 128, c=16)
        payoffs = [PutPayoff(280.0), PutPayoff(320.0)]
        sol = solve(surf, payoffs, grid)
        assert sol.american.shape == sol.european.shape == (2, grid.n_s)
        assert sol.checkpoints.shape == (128 // hjb.BLOCK_LEVELS + 1, 4, grid.n_s)
        values, delta = streamed(sol)
        assert values.shape == (4, grid.n_t + 1, grid.n_s)
        assert delta.shape == (2, grid.n_t + 1, grid.n_s)
        assert np.array_equal(sol.american, values[:2, 0])
        assert np.array_equal(sol.european, values[2:, 0])
        # checkpoint j is the row at the top of segment j
        for j, row in enumerate(sol.checkpoints):
            assert np.array_equal(row, values[:, min((j + 1) * hjb.BLOCK_LEVELS, grid.n_t)])

    @pytest.mark.parametrize("r", [0.05, 0.0])  # with r = 0 the region empties early on
    def test_levels_and_delta_come_from_the_american_grid(self, r):
        grid = make_grid(50.0, 320.0, 0.5, 256, n_s=109)
        payoffs = [PutPayoff(k) for k in (80.0, 100.0, 120.0)]
        sol = solve(gbm_surface(r=r), payoffs, grid)
        values, delta = streamed(sol)
        s = grid.s_nodes
        for k, g in enumerate(payoffs):
            assert np.array_equal(sol.levels[k], reference_levels(values[k], g(s), g.strike, s))
            assert np.array_equal(delta[k], np.gradient(values[k], s, axis=1))
        assert np.isfinite(sol.levels[:, -1]).all()
        assert np.isneginf(sol.levels).any() == (r == 0.0)

    def test_values_pinned_to_the_bit(self, bs3d_surface):
        # float.hex of the (0, 300) values of the per-(strike, flavor) solves
        # the sweep replaced, bs3d surface, n_t = 512
        pinned = {
            240.0: ("0x1.795c4f4f05004p-7", "0x1.6cebafacf79c8p-7"),
            260.0: ("0x1.cfc6b793e532fp-3", "0x1.baa5f4c66d2b3p-3"),
            280.0: ("0x1.d2385bd513df4p+0", "0x1.b322e31a2eedcp+0"),
            300.0: ("0x1.eb4b0e61462cep+2", "0x1.bba836ebdada4p+2"),
            320.0: ("0x1.49f44e8506b50p+4", "0x1.1c4ebbd269602p+4"),
            340.0: ("0x1.4000000000000p+5", "0x1.0ae9abfceabfdp+5"),
        }
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 512, c=16)
        american, european = value_at(solve(surf, [PutPayoff(k) for k in pinned], grid), 300.0)
        got = {k: (a.hex(), e.hex()) for k, a, e in zip(pinned, american, european)}
        assert got == pinned


class TestAgainstLevelLoop:
    """The sweep's cached slices, block coefficients and direct gtsv call,
    streamed a segment at a time, against eval_b2 and solve_banded at every
    level, bit for bit."""

    def _surface(self):
        # three slices strictly inside [0, t_max]: the grid starts before the
        # first and ends past the last, so every blend branch runs
        rng = np.random.default_rng(11)
        return CoefficientSurface(slice_times=np.array([0.1, 0.2, 0.35]),
                                  coeffs=rng.normal(40.0, 10.0, (3, 4)), floor=5.0,
                                  s_min=60.0, s_max=140.0, t_max=0.5, r=0.05,
                                  centers=np.array([99.0, 100.0, 101.0]),
                                  halfwidths=np.array([15.0, 18.0, 21.0]))

    def _single_slice(self):
        return CoefficientSurface(slice_times=np.array([0.2]),
                                  coeffs=np.array([[40.0, 3.0, -2.0, 0.5]]), floor=5.0,
                                  s_min=60.0, s_max=140.0, t_max=0.5, r=0.05,
                                  centers=np.array([100.0]), halfwidths=np.array([20.0]))

    def _bachelier(self):
        return constant_surface(30.0, 1.0, (60.0, 140.0), 0.5, 0.05)

    @pytest.mark.parametrize("n_s", [61, 3])  # 3: a 1 x 1 system, which f2py bands oddly
    def test_equals_reference_loop(self, n_s):
        # n_t 1, 31, 32 and 33 put the terminal level alone in its segment, in
        # a full one and one past a full one
        payoffs = [PutPayoff(k) for k in (90.0, 100.0, 110.0)]
        strikes = np.array([p.strike for p in payoffs])
        for surf in (self._surface(), self._single_slice(), self._bachelier()):
            for n_t in (1, 31, 32, 33, 96):
                grid = make_grid(60.0, 140.0, 0.5, n_t, n_s=n_s)
                sol = solve(surf, payoffs, grid)
                values, delta = streamed(sol)
                ref = reference_sweep(surf, payoffs, grid)
                s = grid.s_nodes
                g = np.array([p(s) for p in payoffs])
                case = (surf.slice_times.size, surf.coeffs.shape[1], n_t)
                assert np.array_equal(values, ref), case
                assert np.array_equal(sol.american, ref[:3, 0]), case
                assert np.array_equal(sol.european, ref[3:, 0]), case
                assert np.array_equal(sol.levels,
                                      exercise_boundary(ref[:3], g, strikes, s).levels), case
                assert np.array_equal(delta, hjb.delta_array(ref[:3], s)), case

    def test_delta_recompute_solves_the_american_columns_alone(self, monkeypatch):
        # the European columns are not read by the delta, and a gtsv column's
        # bits do not depend on its neighbours (test_equals_reference_loop)
        payoffs = [PutPayoff(k) for k in (90.0, 100.0, 110.0)]
        sol = solve(self._surface(), payoffs, make_grid(60.0, 140.0, 0.5, 96, n_s=61))
        columns, solve_columns = [], hjb.gtsv

        def spy(dl, d, du, b, *overwrite):
            columns.append(b.shape[1])
            return solve_columns(dl, d, du, b, *overwrite)

        monkeypatch.setattr(hjb, "gtsv", spy)
        for j in range(sol.segments):
            sol.segment_delta(j)
        assert len(columns) == 96
        assert set(columns) == {len(payoffs)}

    def test_dominance_warning_names_the_first_level_going_backward(self, caplog):
        # a strong drift on a coarse space step: the levels from the last
        # slice on (t >= 0.2, the sweep's first segments) stay dominant, the
        # earlier ones lose it somewhere between the slices
        surf = CoefficientSurface(slice_times=np.array([0.1, 0.2]),
                                  coeffs=np.array([[0.5], [20000.0]]), floor=0.1,
                                  s_min=60.0, s_max=140.0, t_max=0.5, r=20.0)
        grid = make_grid(60.0, 140.0, 0.5, 96, n_s=21)
        interior = grid.s_nodes[1:-1]
        first = None
        for n in range(grid.n_t - 1, -1, -1):
            dt = grid.t_grid[n + 1] - grid.t_grid[n]
            diff = surf.eval_b2(grid.t_grid[n], interior) / (2.0 * grid.ds**2)
            conv = surf.r * interior / (2.0 * grid.ds)
            if np.any(np.abs(-dt * (diff - conv)) + np.abs(-dt * (diff + conv))
                      > np.abs(1.0 + dt * (surf.r + 2.0 * diff))):
                first = grid.t_grid[n]
                break
        assert first is not None and first < grid.t_grid[grid.n_t - hjb.BLOCK_LEVELS]
        with caplog.at_level(logging.WARNING, logger="basketproj.hjb"):
            solve(surf, [PutPayoff(100.0)], grid)
        warnings = [r for r in caplog.records if "diagonally dominant" in r.getMessage()]
        assert len(warnings) == 1
        assert warnings[0].args[0] == first

    def test_non_finite_level_names_t(self):
        surf = CoefficientSurface(slice_times=np.array([0.0]), coeffs=np.array([[np.nan]]),
                                  floor=1.0, s_min=60.0, s_max=140.0, t_max=0.5, r=0.05)
        grid = make_grid(60.0, 140.0, 0.5, 64, n_s=41)
        with pytest.raises(RuntimeError, match=rf"non-finite values at t={grid.t_grid[-2]}\b"):
            solve(surf, [PutPayoff(100.0)], grid)

    def test_lapack_failure_names_t(self, monkeypatch):
        def singular(dl, d, du, b, *overwrite):
            return dl, d, du, b, 1

        monkeypatch.setattr(hjb, "gtsv", singular)
        grid = make_grid(60.0, 140.0, 0.5, 64, n_s=41)
        with pytest.raises(RuntimeError, match=rf"t={grid.t_grid[-2]}\b.*info=1"):
            solve(self._surface(), [PutPayoff(100.0)], grid)


class TestExerciseBoundary:
    def test_value_equals_payoff_everywhere(self):
        s = make_grid(0.0, 200.0, 1.0, 8, n_s=21).s_nodes
        g = PutPayoff(100.0)(s)[None, :]
        b = exercise_boundary(np.tile(g, (9, 1))[None], g, np.array([100.0]), s)
        expect = s[s < 100.0][-1]
        assert b.levels.shape == (1, 9)
        assert np.all(b.levels == expect)
        # frontier stays at or below the strike node
        assert np.all(b.levels <= 100.0)

    def test_empty_region(self):
        s = make_grid(150.0, 350.0, 1.0, 4, n_s=11).s_nodes
        g = PutPayoff(100.0)(s)[None, :]  # strike below the whole grid
        values = np.tile(np.maximum(100.0 - s, 0.0) + 1.0, (5, 1))
        b = exercise_boundary(values[None], g, np.array([100.0]), s)
        assert np.all(np.isneginf(b.levels))

    def test_3d_boundary_rises_toward_strike(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 2048, c=16)
        sol = solve(surf, [PutPayoff(300.0)], grid)
        sel = grid.t_grid >= 0.05
        levels = sol.levels[0][sel]
        assert np.all(np.isfinite(levels))
        assert np.all(np.diff(levels) >= -1e-9)

    def test_3d_low_strike_boundary_unreachable_early(self, bs3d_surface):
        # far out-of-the-money strike: the early frontier sits far below the
        # envelope support, so the implied stopping time is effectively never
        # triggered near t=0
        surf, env = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 2048, c=16)
        sol = solve(surf, [PutPayoff(240.0)], grid)
        early = grid.t_grid <= 0.02
        env_lo = np.interp(grid.t_grid[early], env.times, env.s_lo)
        assert np.all(sol.levels[0][early] < env_lo - 10.0)


class TestDeltaAndValueAt:
    def test_delta_on_payoff_region(self):
        grid = make_grid(0.0, 200.0, 1.0, 4, n_s=51)
        g = PutPayoff(100.0)
        values = np.tile(g(grid.s_nodes), (5, 1))
        ds = grid.ds
        for s in grid.s_nodes[(grid.s_nodes < 100.0 - ds) & (grid.s_nodes > 0)]:
            assert np.interp(s, grid.s_nodes, hjb.delta_array(values, grid.s_nodes)[0]) == \
                pytest.approx(-1.0)

    def test_delta_constant_values(self):
        grid = make_grid(0.0, 10.0, 1.0, 2, n_s=11)
        delta = hjb.delta_array(np.full((3, 11), 4.0), grid.s_nodes)
        assert np.interp(3.3, grid.s_nodes, delta[1]) == 0.0  # t = 0.5

    def test_delta_against_closed_form(self):
        grid = make_grid(0.0, 320.0, 0.5, 1024, n_s=257)
        (_, european), _ = streamed(solve(gbm_surface(), [PutPayoff(100.0)], grid))
        ncdf = lambda x: 0.5 * (1.0 + erf(x / sqrt(2.0)))
        d1 = (log(1.0) + (0.05 + 0.02) * 0.5) / (0.2 * sqrt(0.5))
        ref = ncdf(d1) - 1.0
        delta = hjb.delta_array(european, grid.s_nodes)
        assert np.interp(100.0, grid.s_nodes, delta[0]) == pytest.approx(ref, abs=1e-2)

    def test_value_at_nodes_and_midpoints(self):
        grid = make_grid(0.0, 10.0, 1.0, 2, n_s=11)
        rows = np.stack([2.0 * grid.s_nodes, 3.0 * grid.s_nodes])
        sol = t0_sweep(grid, rows, -rows)
        assert value_at(sol, 3.0) == ([6.0, 9.0], [-6.0, -9.0])
        american, european = value_at(sol, 3.5)
        assert american == pytest.approx([7.0, 10.5])
        assert european == pytest.approx([-7.0, -10.5])

    def test_value_at_clamps_below_grid(self, caplog):
        grid = make_grid(10.0, 20.0, 1.0, 2, n_s=11)
        g = PutPayoff(15.0)
        rows = g(grid.s_nodes)[None, :]
        with caplog.at_level(logging.WARNING):
            (got,), _ = value_at(t0_sweep(grid, rows, rows), 5.0)
        assert got == g(10.0)
        assert any("clamped" in rec.message for rec in caplog.records)


class TestExports:
    def test_boundary_export(self, tmp_path, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 64, c=16)
        levels = solve(surf, [PutPayoff(300.0)], grid).levels[0]
        path = tmp_path / "bnd.txt"
        hjb.export_boundary(grid.t_grid, levels, path)
        rows = np.loadtxt(path)
        assert rows.shape[1] == 2
        assert rows.shape[0] == int(np.isfinite(levels).sum())

    def test_values_export(self, tmp_path):
        payoffs = [PutPayoff(90.0), PutPayoff(110.0)]
        for n_t in (2, 40):  # one segment, and two
            grid = make_grid(0.0, 200.0, 1.0, n_t, n_s=5)
            sol = solve(gbm_surface(s_max=200.0, t_max=1.0), payoffs, grid)
            values, _ = streamed(sol)
            paths = [tmp_path / f"vals{n_t}_{k}.txt" for k in range(2)]
            hjb.export_values(sol, paths)
            for k, path in enumerate(paths):
                assert path.read_text().startswith("# t s value\n")
                rows = np.loadtxt(path)
                assert rows.shape == ((n_t + 1) * 5, 3)
                assert np.array_equal(rows[:, 0], np.repeat(grid.t_grid, 5))
                assert np.array_equal(rows[:, 1], np.tile(grid.s_nodes, n_t + 1))
                assert np.array_equal(rows[:, 2], values[k].ravel())
