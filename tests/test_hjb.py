import logging
from math import erf, exp, log, sqrt

import numpy as np
import pytest

from basketproj import hjb
from basketproj.hjb import Flavor, exercise_boundary, make_grid, solve, value_at
from basketproj.model import PutPayoff
from basketproj.surface import CoefficientSurface


def gbm_surface(vol=0.2, r=0.05, s_max=320.0, t_max=0.5, floor=1e-6):
    return CoefficientSurface(slice_times=np.array([0.0]),
                              coeffs=np.array([[0.0, 0.0, vol**2, 0.0]]),
                              floor=floor, s_min=0.0, s_max=s_max, t_max=t_max, r=r)


def bs_put(spot, strike, r, vol, t):
    ncdf = lambda x: 0.5 * (1.0 + erf(x / sqrt(2.0)))
    d1 = (log(spot / strike) + (r + 0.5 * vol**2) * t) / (vol * sqrt(t))
    d2 = d1 - vol * sqrt(t)
    return strike * exp(-r * t) * ncdf(-d2) - spot * ncdf(-d1)


class TestSolve:
    def test_degenerate_limit_equals_payoff(self):
        surf = CoefficientSurface(slice_times=np.array([0.0]), coeffs=np.array([[0.0]]),
                                  floor=1e-12, s_min=0.0, s_max=200.0, t_max=1.0, r=0.0)
        grid = make_grid(0.0, 200.0, 1.0, 64, n_s=101)
        g = PutPayoff(100.0)
        for flavor in (Flavor.AMERICAN, Flavor.EUROPEAN):
            vg = solve(surf, g, grid, flavor)
            assert np.max(np.abs(vg.values - g(grid.s_nodes))) < 1e-7

    def test_european_against_closed_form(self):
        grid = make_grid(0.0, 320.0, 0.5, 1024, n_s=257)
        vg = solve(gbm_surface(), PutPayoff(100.0), grid, Flavor.EUROPEAN)
        ref = bs_put(100.0, 100.0, 0.05, 0.2, 0.5)
        assert value_at(vg, 0.0, 100.0) == pytest.approx(ref, rel=4e-3)

    def test_terminal_and_dirichlet_rows(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 128, c=16)
        g = PutPayoff(300.0)
        vg = solve(surf, g, grid, Flavor.AMERICAN)
        s = grid.s_nodes
        assert np.array_equal(vg.values[-1], g(s))
        assert np.all(vg.values[:, 0] == g(s[0]))
        assert np.all(vg.values[:, -1] == g(s[-1]))

    def test_obstacle_invariant(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 256, c=16)
        g = PutPayoff(300.0)
        vg = solve(surf, g, grid, Flavor.AMERICAN)
        assert float(np.min(vg.values - g(grid.s_nodes))) >= -1e-12

    def test_american_dominates_european(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 256, c=16)
        g = PutPayoff(300.0)
        va = solve(surf, g, grid, Flavor.AMERICAN)
        ve = solve(surf, g, grid, Flavor.EUROPEAN)
        assert float(np.min(va.values - ve.values)) >= -1e-10

    def test_monotone_in_strike(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 128, c=16)
        lo = solve(surf, PutPayoff(280.0), grid, Flavor.AMERICAN)
        hi = solve(surf, PutPayoff(320.0), grid, Flavor.AMERICAN)
        assert np.all(hi.values - lo.values >= -1e-10)

    def test_comparison_principle(self):
        surf = gbm_surface()
        bumped = CoefficientSurface(slice_times=surf.slice_times, coeffs=1.1 * surf.coeffs,
                                    floor=surf.floor, s_min=surf.s_min, s_max=surf.s_max,
                                    t_max=surf.t_max, r=surf.r)
        grid = make_grid(0.0, 320.0, 0.5, 512, n_s=161)
        g = PutPayoff(100.0)
        base = value_at(solve(surf, g, grid, Flavor.EUROPEAN), 0.0, 100.0)
        more = value_at(solve(bumped, g, grid, Flavor.EUROPEAN), 0.0, 100.0)
        assert more >= base

    def test_refinement_improves(self):
        ref = bs_put(100.0, 100.0, 0.05, 0.2, 0.5)
        errs = []
        for n_t in (256, 1024, 4096):
            grid = make_grid(0.0, 320.0, 0.5, n_t, c=257**2 / 4096)
            vg = solve(gbm_surface(), PutPayoff(100.0), grid, Flavor.EUROPEAN)
            errs.append(abs(value_at(vg, 0.0, 100.0) - ref))
        assert errs[0] > errs[1] > errs[2]

    def test_grid_outside_rectangle_rejected(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min - 50.0, surf.s_max, 0.5, 64, c=16)
        with pytest.raises(ValueError):
            solve(surf, PutPayoff(300.0), grid, Flavor.AMERICAN)

    def test_coupling_rule(self):
        grid = make_grid(0.0, 1.0, 1.0, 4096, c=16.0)
        assert grid.n_s == 256
        with pytest.raises(ValueError):
            make_grid(0.0, 1.0, 1.0, 1, c=0.5)  # fewer than 3 nodes


class TestExerciseBoundary:
    def _flat_value_grid(self, strike=100.0):
        grid = make_grid(0.0, 200.0, 1.0, 8, n_s=21)
        g = PutPayoff(strike)
        values = np.tile(g(grid.s_nodes), (9, 1))
        return hjb.ValueGrid(grid=grid, values=values, flavor=Flavor.AMERICAN, payoff=g)

    def test_value_equals_payoff_everywhere(self):
        vg = self._flat_value_grid()
        b = exercise_boundary(vg)
        s = vg.grid.s_nodes
        expect = s[s < 100.0][-1]
        assert np.all(b.levels == expect)
        # frontier stays at or below the strike node
        assert np.all(b.levels <= 100.0)

    def test_empty_region(self):
        grid = make_grid(150.0, 350.0, 1.0, 4, n_s=11)
        g = PutPayoff(100.0)  # strike below the whole grid
        values = np.tile(np.maximum(g.strike - grid.s_nodes, 0.0) + 1.0, (5, 1))
        vg = hjb.ValueGrid(grid=grid, values=values, flavor=Flavor.AMERICAN, payoff=g)
        b = exercise_boundary(vg)
        assert np.all(b.indices == -1)
        assert np.all(np.isneginf(b.levels))

    def test_european_flavor_rejected(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 32, c=16)
        vg = solve(surf, PutPayoff(300.0), grid, Flavor.EUROPEAN)
        with pytest.raises(ValueError):
            exercise_boundary(vg)

    def test_3d_boundary_rises_toward_strike(self, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 2048, c=16)
        vg = solve(surf, PutPayoff(300.0), grid, Flavor.AMERICAN)
        b = exercise_boundary(vg)
        sel = vg.grid.t_grid >= 0.05
        levels = b.levels[sel]
        assert np.all(np.isfinite(levels))
        assert np.all(np.diff(levels) >= -1e-9)

    def test_3d_low_strike_boundary_unreachable_early(self, bs3d_surface):
        # far out-of-the-money strike: the early frontier sits far below the
        # envelope support, so the implied stopping time is effectively never
        # triggered near t=0
        surf, env = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 2048, c=16)
        vg = solve(surf, PutPayoff(240.0), grid, Flavor.AMERICAN)
        b = exercise_boundary(vg)
        early = vg.grid.t_grid <= 0.02
        env_lo = np.interp(vg.grid.t_grid[early], env.times, env.s_lo)
        assert np.all(b.levels[early] < env_lo - 10.0)


class TestDeltaAndValueAt:
    def test_delta_on_payoff_region(self):
        grid = make_grid(0.0, 200.0, 1.0, 4, n_s=51)
        g = PutPayoff(100.0)
        values = np.tile(g(grid.s_nodes), (5, 1))
        vg = hjb.ValueGrid(grid=grid, values=values, flavor=Flavor.AMERICAN, payoff=g)
        ds = grid.ds
        for s in grid.s_nodes[(grid.s_nodes < 100.0 - ds) & (grid.s_nodes > 0)]:
            assert np.interp(s, grid.s_nodes, hjb.delta_array(vg)[0]) == pytest.approx(-1.0)

    def test_delta_constant_values(self):
        grid = make_grid(0.0, 10.0, 1.0, 2, n_s=11)
        vg = hjb.ValueGrid(grid=grid, values=np.full((3, 11), 4.0),
                           flavor=Flavor.EUROPEAN, payoff=PutPayoff(5.0))
        assert np.interp(3.3, grid.s_nodes, hjb.delta_array(vg)[1]) == 0.0  # t = 0.5

    def test_delta_against_closed_form(self):
        grid = make_grid(0.0, 320.0, 0.5, 1024, n_s=257)
        vg = solve(gbm_surface(), PutPayoff(100.0), grid, Flavor.EUROPEAN)
        ncdf = lambda x: 0.5 * (1.0 + erf(x / sqrt(2.0)))
        d1 = (log(1.0) + (0.05 + 0.02) * 0.5) / (0.2 * sqrt(0.5))
        ref = ncdf(d1) - 1.0
        assert np.interp(100.0, grid.s_nodes, hjb.delta_array(vg)[0]) == pytest.approx(ref, abs=1e-2)

    def test_value_at_nodes_and_midpoints(self):
        grid = make_grid(0.0, 10.0, 1.0, 2, n_s=11)
        values = np.tile(2.0 * grid.s_nodes, (3, 1))
        vg = hjb.ValueGrid(grid=grid, values=values, flavor=Flavor.EUROPEAN,
                           payoff=PutPayoff(5.0))
        assert value_at(vg, 0.0, 3.0) == 6.0
        assert value_at(vg, 0.5, 3.5) == pytest.approx(7.0)

    def test_value_at_clamps_below_grid(self, caplog):
        grid = make_grid(10.0, 20.0, 1.0, 2, n_s=11)
        g = PutPayoff(15.0)
        values = np.tile(g(grid.s_nodes), (3, 1))
        vg = hjb.ValueGrid(grid=grid, values=values, flavor=Flavor.AMERICAN, payoff=g)
        with caplog.at_level(logging.WARNING):
            got = value_at(vg, 0.0, 5.0)
        assert got == g(10.0)
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_value_at_requires_grid_time(self):
        grid = make_grid(0.0, 10.0, 1.0, 4, n_s=11)
        vg = hjb.ValueGrid(grid=grid, values=np.zeros((5, 11)),
                           flavor=Flavor.EUROPEAN, payoff=PutPayoff(5.0))
        with pytest.raises(ValueError):
            value_at(vg, 0.13, 5.0)


class TestExports:
    def test_boundary_export(self, tmp_path, bs3d_surface):
        surf, _ = bs3d_surface
        grid = make_grid(surf.s_min, surf.s_max, 0.5, 64, c=16)
        vg = solve(surf, PutPayoff(300.0), grid, Flavor.AMERICAN)
        b = exercise_boundary(vg)
        path = tmp_path / "bnd.txt"
        hjb.export_boundary(b, path)
        rows = np.loadtxt(path)
        assert rows.shape[1] == 2
        assert rows.shape[0] == int(np.isfinite(b.levels).sum())

    def test_values_export(self, tmp_path):
        grid = make_grid(0.0, 10.0, 1.0, 2, n_s=5)
        g = PutPayoff(5.0)
        vg = hjb.ValueGrid(grid=grid, values=np.ones((3, 5)), flavor=Flavor.EUROPEAN, payoff=g)
        path = tmp_path / "vals.txt"
        hjb.export_values(vg, path)
        rows = np.loadtxt(path)
        assert rows.shape == (15, 3)
