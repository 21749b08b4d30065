"""Acceptance gates, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy gates (2, 3, 5)
simulate at their stated scale and together take several minutes.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from basketproj import hjb
from basketproj.density import ExpansionCoords, chart
from basketproj.mc import simulate_bounds
from basketproj.model import Portfolio, PutPayoff
from basketproj.oracle import binomial_american_put_1d, quadrature_projected_vol
from basketproj.pipeline import convergence_study, run_experiment
from basketproj.presets import bachelier5d, bs3d
from basketproj.rng import derive_seed
from basketproj.surface import CoefficientSurface, build_surface
from support import (AtLevel, fd_gradient, fd_hessian, flat_task, solved_tasks, streamed,
                     vol_sq_at)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_appendix_reproduction(appendix_model, appendix_portfolio):
    t0 = time.perf_counter()
    lap_price = vol_sq_at(appendix_model, appendix_portfolio, 1.0, 200.0,
                          coords=ExpansionCoords.PRICE)
    lap_log = vol_sq_at(appendix_model, appendix_portfolio, 1.0, 200.0,
                        coords=ExpansionCoords.LOG_PRICE)
    quad = quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 200.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(lap_price - 200.99) <= 0.05 and abs(lap_log - 200.99) <= 0.05
          and abs(quad - 200.98) <= 0.02
          and abs(lap_price - lap_log) <= 1e-3 * quad
          and elapsed < 1.0)
    _report("1 (appendix reproduction)", ok,
            f"laplace price={lap_price:.5f}, log-price={lap_log:.5f} (target 200.99 +- 0.05), "
            f"quadrature={quad:.5f} (target 200.98 +- 0.02), "
            f"coord diff={abs(lap_price - lap_log) / quad:.2e} (gate 1e-3), {elapsed:.2f}s (< 1s)")


def test_criterion_2_bachelier_exactness(tmp_path):
    cfg = bachelier5d()
    model = cfg.build_model()
    p = cfg.build_portfolio()
    surf, _ = build_surface(model, p, seed=derive_seed(cfg.seed, "pilot"))
    row = p.weights @ model.sigma
    analytic = float(row @ row)
    ss = np.linspace(surf.s_min, surf.s_max, 41)
    surf_err = max(float(np.max(np.abs(surf.eval_b2(float(t), ss) - analytic)))
                   for t in np.linspace(0.0, model.T, 9)) / analytic

    t0 = time.perf_counter()
    cfg.nt_tiers = [4096]                     # the stated top tier, M = 128000
    rep = run_experiment(cfg, tmp_path)
    r = rep.rows[0]
    elapsed = time.perf_counter() - t0
    z = norm.ppf(0.975)
    ordered = r.a_minus <= r.a_plus + z * (r.se_minus + r.se_plus)
    ok = surf_err < 1e-12 and r.rel_gap < 0.01 and ordered
    _report("2 (Bachelier exactness)", ok,
            f"surface rel err={surf_err:.2e} (gate 1e-12), "
            f"gap={100 * r.rel_gap:.3f}% (gate 1%) at N_t=4096 M=128000, "
            f"A-={r.a_minus:.4f} A+={r.a_plus:.4f}, {elapsed:.0f}s")


def test_criterion_3_bs3d_strikes(tmp_path):
    t0 = time.perf_counter()
    cfg = bs3d()
    cfg.nt_tiers = [4096]
    cfg.strikes = [280.0, 300.0, 320.0]
    rep = run_experiment(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    z = norm.ppf(0.975)
    gaps, ok_rows = [], True
    for r in rep.rows:
        gaps.append(r.rel_gap)
        ok_rows &= r.rel_gap <= 0.025
        ok_rows &= r.a_minus <= r.a_plus + z * (r.se_minus + r.se_plus)
        # American dominates European: exactly on the PDE, with CLT slack on MC
        ok_rows &= r.hjb_american >= r.hjb_european - 1e-10
        ok_rows &= r.a_minus >= r.euro_mc - z * (r.se_minus + r.se_euro)
    a_minus = [r.a_minus for r in rep.rows]
    a_plus = [r.a_plus for r in rep.rows]
    monotone = np.all(np.diff(a_minus) > 0) and np.all(np.diff(a_plus) > 0)
    ok = ok_rows and bool(monotone) and elapsed <= 900.0
    _report("3 (Black-Scholes 3d strikes)", ok,
            f"gaps={[f'{100 * g:.2f}%' for g in gaps]} (gate 2.5%), monotone in K: {monotone}, "
            f"American >= European on PDE and MC, {elapsed:.0f}s (<= 900s)")


def test_criterion_4_solver_fidelity():
    from math import erf, exp, log, sqrt

    vol, r, t_mat, strike = 0.2, 0.05, 0.5, 100.0
    surf = CoefficientSurface(slice_times=np.array([0.0]),
                              coeffs=np.array([[0.0, 0.0, vol**2, 0.0]]),
                              floor=1e-6, s_min=0.0, s_max=320.0, t_max=t_mat, r=r)
    grid = hjb.make_grid(0.0, 320.0, t_mat, 4096, n_s=257)
    (price_a,), (price_e,) = hjb.value_at(hjb.solve(surf, [PutPayoff(strike)], grid), 100.0)
    ncdf = lambda x: 0.5 * (1.0 + erf(x / sqrt(2.0)))
    d1 = (log(1.0) + (r + 0.5 * vol**2) * t_mat) / (vol * sqrt(t_mat))
    d2 = d1 - vol * sqrt(t_mat)
    ref_e = strike * exp(-r * t_mat) * ncdf(-d2) - 100.0 * ncdf(-d1)
    ref_a = binomial_american_put_1d(100.0, vol, r, strike, t_mat, 10_000)
    err_e = abs(price_e - ref_e) / ref_e
    err_a = abs(price_a - ref_a) / ref_a
    ok = err_e < 2e-3 and err_a < 5e-3
    _report("4 (1D solver fidelity)", ok,
            f"European rel err={err_e:.2e} (gate 2e-3 vs closed form), "
            f"American rel err={err_a:.2e} (gate 5e-3 vs 10^4-step binomial)")


def test_criterion_5_convergence_orders(tmp_path, bachelier5_model, bachelier5_portfolio):
    # bias decay of the hitting-time and running-maximum functionals over the
    # stated tiers, on the 3d case with coupled Brownian increments
    cfg = bs3d()
    cfg.m_paths = 32_000
    rep = convergence_study(cfg, tmp_path)
    s_tau = rep.slopes["hit_time"]
    s_max = rep.slopes["running_max"]
    slopes_ok = s_tau is not None and s_max is not None and \
        0.3 <= s_tau <= 0.7 and 0.3 <= s_max <= 0.7

    # statistical error halves (within 20%) when M quadruples
    m, p = bachelier5_model, bachelier5_portfolio
    g = PutPayoff(500.0)
    n_t = 512
    sweep, tasks = flat_task(m, g, n_t)
    ratios = []
    for seed in (101, 202):
        small = simulate_bounds(m, p, sweep, tasks, n_t, 8000, seed=seed)[0]
        big = simulate_bounds(m, p, sweep, tasks, n_t, 32_000, seed=seed + 1)[0]
        ratios.append(small.se_minus / big.se_minus)
    se_ok = all(1.6 <= r <= 2.4 for r in ratios)
    ok = slopes_ok and se_ok
    _report("5 (convergence orders)", ok,
            f"bias slopes over tiers {rep.tiers}: hit-time={s_tau:.3f}, "
            f"running-max={s_max:.3f} (gate [0.3, 0.7]); "
            f"se ratios for 4x paths: {[f'{r:.2f}' for r in ratios]} (gate [1.6, 2.4])")


def test_criterion_6_property_suite(bs3d_surface, bachelier5_model, bachelier5_portfolio,
                                    bachelier5_surface, appendix_model, appendix_portfolio):
    details = []

    # obstacle and Dirichlet rows on the 3d projected solve
    surf, _ = bs3d_surface
    grid = hjb.make_grid(surf.s_min, surf.s_max, 0.5, 256, c=16)
    g3 = PutPayoff(300.0)
    (values, _), _ = streamed(hjb.solve(surf, [g3], grid))
    obstacle = float(np.min(values - g3(grid.s_nodes)))
    dirichlet = (np.all(values[:, 0] == g3(grid.s_nodes[0]))
                 and np.all(values[:, -1] == g3(grid.s_nodes[-1])))
    details.append(f"obstacle min={obstacle:.1e}")
    assert obstacle >= -1e-12 and dirichlet

    # bound ordering on a Bachelier batch
    m, p = bachelier5_model, bachelier5_portfolio
    bsurf, _ = bachelier5_surface
    bgrid = hjb.make_grid(bsurf.s_min, bsurf.s_max, m.T, 512, c=16)
    gb = PutPayoff(500.0)
    sol = hjb.solve(bsurf, [gb], bgrid)
    res = simulate_bounds(m, p, *solved_tasks(sol), 512, 16_000, seed=derive_seed(2, "acc6"))[0]
    z = norm.ppf(0.975)
    ordered = res.a_minus <= res.a_plus + z * (res.se_minus + res.se_plus)
    details.append(f"A-={res.a_minus:.4f} <= A+={res.a_plus:.4f} + z se")
    assert ordered

    # payoff Lipschitz
    rng = np.random.default_rng(0)
    a, c = rng.uniform(0, 600, 500), rng.uniform(0, 600, 500)
    assert np.all(np.abs(g3(a) - g3(c)) <= np.abs(a - c) + 1e-12)
    details.append("payoff 1-Lipschitz")

    # gradient/Hessian finite-difference agreement
    li = AtLevel(appendix_model, appendix_portfolio, 1.0, 200.0, ExpansionCoords.LOG_PRICE)
    worst = 0.0
    for _ in range(20):
        zpt = rng.uniform(-0.2, 0.2, 1)
        _, grad, hess = li.f_derivs(zpt)
        worst = max(worst,
                    float(np.linalg.norm(grad - fd_gradient(li.f, zpt))
                          / max(1.0, np.linalg.norm(grad))),
                    float(np.linalg.norm(hess - fd_hessian(li.f, zpt))
                          / max(1.0, np.linalg.norm(hess))))
    details.append(f"grad/hess fd rel err={worst:.1e}")
    assert worst < 1e-5

    # chart / basket round trip
    worst_rt = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        w = rng.uniform(0.2, 2.0, d)
        s = float(rng.uniform(10.0, 500.0))
        ch = chart(Portfolio(w))
        zv = rng.uniform(-100.0, 300.0, d - 1)
        worst_rt = max(worst_rt, abs(float(w @ ch.x_of(s, zv)) - s) / max(1.0, abs(s)))
    details.append(f"chart roundtrip rel err={worst_rt:.1e}")
    assert worst_rt < 1e-10

    # seed-stable reruns are bit-identical
    res2 = simulate_bounds(m, p, *solved_tasks(sol), 512, 16_000, seed=derive_seed(2, "acc6"))[0]
    identical = (res2.a_minus == res.a_minus and res2.a_plus == res.a_plus
                 and res2.european == res.european)
    details.append("bit-identical rerun")
    assert identical

    _report("6 (property suite)", True, "; ".join(details))
