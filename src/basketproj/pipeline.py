"""Experiment pipeline: project, solve, simulate, report.

Wires the stages together for the CLI: envelope -> Laplace surface -> one HJB
sweep per time-step tier (every strike, American and European, with the
boundary extracted as it goes and a checkpoint row kept per segment of
levels) -> one coupled Monte Carlo pass that bounds every strike on every
tier, the coarse tiers stepping on sums of the top tier's fine increments and
each chunk recomputing the American delta segments it reads (an
``mc.TierTask`` is a tier's sweep and the rows of it priced: every strike) ->
machine-readable CSV output, one row per strike and tier read off its flat
``mc.BoundsResult``.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, hjb, mc, oracle, surface as surface_mod
from .config import ConfigError, ExperimentConfig, config_hash, serialize_config
from .density import ExpansionCoords
from .model import ModelSpec, Portfolio, PutPayoff
from .projection import laplace_point, projected_vol_sq
from .rng import derive_seed

log = logging.getLogger(__name__)

# two-sided 95% normal quantile, norm.ppf(0.975) to the bit; kept as a literal
# because a CLI run imports no scipy Python package beyond scipy itself (its
# LAPACK wrappers come from `lapack`)
BOUND_ORDERING_Z = 1.959963984540054

RESULTS_COLUMNS = ["strike", "n_t", "m", "euro_mc", "se_euro", "a_minus", "se_minus",
                   "a_plus", "se_plus", "bias_minus", "bias_plus",
                   "hjb_american", "hjb_european", "rel_gap"]

CONVERGENCE_COLUMNS = ["n_t", "a_minus", "se_minus", "a_plus", "se_plus",
                       "bias_minus", "bias_plus", "bias_hit_time", "bias_running_max"]


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage tag for diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@dataclass
class ReportRow:
    strike: float
    n_t: int
    m: int
    euro_mc: float
    se_euro: float
    a_minus: float
    se_minus: float
    a_plus: float
    se_plus: float
    bias_minus: float | None
    bias_plus: float | None
    hjb_american: float
    hjb_european: float

    @property
    def rel_gap(self) -> float:
        mid = 0.5 * (self.a_plus + self.a_minus)
        if mid == 0.0:
            return 0.0  # worthless option, both bounds exactly zero
        return (self.a_plus - self.a_minus) / mid

    def as_list(self) -> list:
        """The row in RESULTS_COLUMNS order, a missing bias written as an empty cell."""
        return ["" if v is None else v for v in (getattr(self, c) for c in RESULTS_COLUMNS)]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class RunReport:
    rows: list
    checks: list
    config_hash: str
    seed: int
    passed: bool


def build_surface_from_config(cfg: ExperimentConfig, model, p):
    """The surface stage with the config's seed and slice grid; any failure
    is StageError("surface")."""
    try:
        return surface_mod.build_surface(
            model, p, seed=derive_seed(cfg.seed, "pilot"),
            n_slices=cfg.surface_slices, n_abscissae=cfg.surface_abscissae)
    except Exception as exc:
        raise StageError("surface", exc) from exc


def _price_tiers(cfg: ExperimentConfig, model, p, surf, payoffs, tiers, tag: str,
                 functionals: bool, threads: int | None,
                 export_dir: Path | None = None) -> dict[int, tuple]:
    """One sweep per tier for every strike, then one coupled Monte Carlo pass over them all.

    Returns {n_t: ((hjb_american, hjb_european), results)} in tier order.  The
    pass is seeded by tag and the top tier, which is then its stride-1 tier.
    When export_dir is given, the top tier writes each strike's American
    boundary there (and, with export_value_grids, its value grid, recomputed
    a segment at a time).  Each tier's sweep lives through the pass, holding its
    levels and checkpoints; each chunk of the pass recomputes the delta segments
    it reads.  A sweep that fails is StageError("tier-<n_t>"), the pass StageError("bounds").
    """
    top = max(tiers)
    s0 = float(p.weights @ model.x0)
    hjb_values, tier_tasks = {}, []
    for n_t in tiers:
        try:
            grid = hjb.make_grid(surf.s_min, surf.s_max, model.T, n_t, c=cfg.c_coupling)
            export = export_dir if n_t == top else None
            sol = hjb.solve(surf, payoffs, grid)
            if export is not None:
                for k, g in enumerate(payoffs):
                    hjb.export_boundary(grid.t_grid, sol.levels[k],
                                        export / f"boundary_K{g.strike:g}.txt")
                if cfg.export_value_grids:
                    hjb.export_values(sol, [export / f"values_K{g.strike:g}.txt"
                                            for g in payoffs])
            hjb_values[n_t] = hjb.value_at(sol, s0)
            tier_tasks.append(mc.TierTask(sweep=sol, tasks=list(range(len(payoffs))),
                                          functionals=functionals))
        except Exception as exc:
            raise StageError(f"tier-{n_t}", exc) from exc
    try:
        per_tier = mc.simulate_tiers_coupled(model, p, tier_tasks, cfg.m_paths,
                                             derive_seed(cfg.seed, tag, top), threads=threads)
    except Exception as exc:
        raise StageError("bounds", RuntimeError(
            f"coupled pass over tiers {list(tiers)}: {exc}")) from exc
    return {n_t: (hjb_values[n_t], results) for n_t, results in zip(tiers, per_tier)}


def appendix_checks(model: ModelSpec, p: Portfolio) -> list[CheckResult]:
    """Laplace and quadrature values of the hand-checkable 2d case, both coordinate systems."""
    t, s = 1.0, 200.0
    # a failed level is NaN, so its checks fail and show it
    (lap_price,) = laplace_point(model, p, t, [s], ExpansionCoords.PRICE).value
    (lap_log,) = laplace_point(model, p, t, [s], ExpansionCoords.LOG_PRICE).value
    quad = oracle.quadrature_projected_vol(model, p, t, s)
    return [
        CheckResult("laplace-price", abs(lap_price - 200.99) <= 0.05,
                    f"projected vol^2 (price coords) = {lap_price:.5f}, target 200.99 +- 0.05"),
        CheckResult("laplace-log-price", abs(lap_log - 200.99) <= 0.05,
                    f"projected vol^2 (log-price coords) = {lap_log:.5f}, target 200.99 +- 0.05"),
        CheckResult("quadrature", abs(quad - 200.98) <= 0.02,
                    f"quadrature oracle = {quad:.5f}, target 200.98 +- 0.02"),
        CheckResult("coords-agreement", abs(lap_price - lap_log) <= 1e-3 * abs(quad),
                    f"coordinate systems differ by {abs(lap_price - lap_log) / quad:.2e} relative"),
    ]


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int | None = None) -> RunReport:
    """Full pipeline for one configuration.

    Builds the model, portfolio and payoffs first, so a config error is a
    ConfigError before any file is written.  Then writes config.cfg, surface.txt
    and the top tier's plotting files as their stages finish, and results.csv
    once the coupled Monte Carlo pass is done.  threads caps the Monte Carlo
    threads, chunk workers and the fill thread together (None: every CPU this
    process may run on); the outputs do not depend on it.
    """
    model = cfg.build_model()
    p = cfg.build_portfolio()
    payoffs = cfg.build_payoffs()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    (out / "config.cfg").write_text(serialize_config(cfg), encoding="utf-8")

    t0 = time.time()
    surf, _ = build_surface_from_config(cfg, model, p)
    surf.save(out / "surface.txt")
    log.info("surface fitted on [%.4g, %.4g] in %.1fs", surf.s_min, surf.s_max, time.time() - t0)

    priced = _price_tiers(cfg, model, p, surf, payoffs, cfg.nt_tiers, "bounds", False,
                          threads, export_dir=out)
    rows: list[ReportRow] = []
    for n_t, ((hjb_a, hjb_e), results) in priced.items():
        doubled = priced.get(2 * n_t)
        for j, g in enumerate(payoffs):
            res = results[j]
            bias_minus = bias_plus = None
            if doubled is not None:
                bias_minus, bias_plus = mc.bias_estimate(res, doubled[1][j])
            rows.append(ReportRow(strike=g.strike, n_t=n_t, m=cfg.m_paths,
                                  euro_mc=res.european, se_euro=res.se_european,
                                  a_minus=res.a_minus, se_minus=res.se_minus,
                                  a_plus=res.a_plus, se_plus=res.se_plus,
                                  bias_minus=bias_minus, bias_plus=bias_plus,
                                  hjb_american=hjb_a[j], hjb_european=hjb_e[j]))
    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# basketproj results v1 config={chash} seed={cfg.seed} version={__version__}\n")
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        writer.writerows(row.as_list() for row in rows)

    ordering_ok = all(r.a_minus <= r.a_plus + BOUND_ORDERING_Z * (r.se_minus + r.se_plus)
                      for r in rows)
    checks = [CheckResult("bound-ordering", ordering_ok, "A- <= A+ + z(se- + se+) on every row")]
    return RunReport(rows=rows, checks=checks, config_hash=chash, seed=cfg.seed,
                     passed=ordering_ok)


# -- convergence study --------------------------------------------------------


@dataclass
class ConvergenceReport:
    strike: float
    tiers: list
    table: np.ndarray      # columns per CONVERGENCE_COLUMNS
    slopes: dict


def convergence_study(cfg: ExperimentConfig, out_dir,
                      threads: int | None = None) -> ConvergenceReport:
    """Coupled-path bias decay across time-step tiers for the near-the-money strike.

    All tiers, and the finest at twice the top tier, consume the same fine
    Brownian increments so the step-doubling differences measure discretization
    bias, not statistical noise.  threads is as in run_experiment.  A config
    error, or tiers that are not a doubling ladder (at least 3, each twice the
    one before), is a ConfigError before any file is written.
    """
    model = cfg.build_model()
    p = cfg.build_portfolio()
    px0 = float(p.weights @ model.x0)
    g = min(cfg.build_payoffs(), key=lambda g: abs(g.strike - px0))
    tiers = list(cfg.nt_tiers)
    if len(tiers) < 3 or any(b != 2 * a for a, b in zip(tiers, tiers[1:])):
        raise ConfigError(f"nt_tiers {tiers}: convergence needs at least 3 tiers, "
                          "each twice the one before")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    surf, _ = build_surface_from_config(cfg, model, p)

    priced = _price_tiers(cfg, model, p, surf, [g], [*tiers, 2 * tiers[-1]], "convergence",
                          True, threads)
    by_nt = {n_t: results[0] for n_t, (_, results) in priced.items()}

    rows = []
    for n_t in tiers:
        res, fine = by_nt[n_t], by_nt[2 * n_t]
        rows.append([
            n_t,
            res.a_minus, res.se_minus,
            res.a_plus, res.se_plus,
            *mc.bias_estimate(res, fine),
            abs(fine.mean_hit_time - res.mean_hit_time),
            abs(fine.mean_running_max - res.mean_running_max),
        ])
    table = np.array(rows)

    slopes = {}
    for name, col in (("a_minus", 5), ("a_plus", 6), ("hit_time", 7), ("running_max", 8)):
        biases = table[:, col]
        if np.any(biases <= 0.0) or not np.all(np.isfinite(biases)):
            slopes[name] = None  # undefined (deterministic model or exact tier)
            continue
        fit = np.polyfit(np.log(table[:, 0]), np.log(biases), 1)
        slopes[name] = -float(fit[0])  # decay order: bias ~ N_t^(-slope)

    with open(out / "convergence.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# basketproj convergence v1 strike={g.strike:g} m={cfg.m_paths} "
                 f"config={config_hash(cfg)} seed={cfg.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(CONVERGENCE_COLUMNS)
        writer.writerows(rows)
        for name, val in slopes.items():
            fh.write(f"# slope_{name} = {'undefined' if val is None else f'{val:.4f}'}\n")
    return ConvergenceReport(strike=g.strike, tiers=tiers, table=table, slopes=slopes)


# -- validation suite ---------------------------------------------------------


def validation_checks() -> list[CheckResult]:
    """Oracle cross-checks: quadrature vs Laplace at d = 2 and 3, tree vs PDE, exactness.

    Each check runs on its own: one that raises is a failed check showing the error.
    """
    from .presets import appendix2d

    cfg = appendix2d()
    checks: list[CheckResult] = []
    for name, check in (("appendix", lambda: appendix_checks(cfg.build_model(),
                                                             cfg.build_portfolio())),
                        ("solver-1d", check_solver_1d),
                        ("bachelier", bachelier_checks),
                        ("hjb-dominance", check_dominance),
                        ("exact-vs-laplace", check_exact_vs_laplace)):
        try:
            result = check()
        except Exception as exc:
            result = CheckResult(name, False, f"{type(exc).__name__}: {exc}")
        checks.extend(result if isinstance(result, list) else [result])
    return checks


def check_solver_1d() -> CheckResult:
    from math import erf, exp, log as mlog, sqrt

    strike = spot = 100.0
    vol, r, t_mat = 0.2, 0.05, 0.5
    surf = surface_mod.CoefficientSurface(
        slice_times=np.array([0.0]), coeffs=np.array([[0.0, 0.0, vol**2, 0.0]]),
        floor=1e-6, s_min=0.0, s_max=320.0, t_max=t_mat, r=r)
    grid = hjb.make_grid(0.0, 320.0, t_mat, 4096, n_s=257)
    (pa,), (pe,) = hjb.value_at(hjb.solve(surf, [PutPayoff(strike)], grid), spot)
    ncdf = lambda x: 0.5 * (1.0 + erf(x / sqrt(2.0)))
    d1 = (mlog(spot / strike) + (r + 0.5 * vol**2) * t_mat) / (vol * sqrt(t_mat))
    d2 = d1 - vol * sqrt(t_mat)
    ref_e = strike * exp(-r * t_mat) * ncdf(-d2) - spot * ncdf(-d1)
    ref_a = oracle.binomial_american_put_1d(spot, vol, r, strike, t_mat, 10_000)
    err_e = abs(pe - ref_e) / ref_e
    err_a = abs(pa - ref_a) / ref_a
    return CheckResult("solver-1d", err_e < 2e-3 and err_a < 5e-3,
                       f"European rel err {err_e:.2e} (gate 2e-3), American {err_a:.2e} (gate 5e-3)")


def bachelier_checks() -> list[CheckResult]:
    """On the bachelier5d surface, built once: the surface is the analytic
    constant, and, the projection being exact, the PDE value sits inside the
    MC bracket."""
    from .presets import bachelier5d

    n_t, m = 1024, 16_000
    cfg = bachelier5d()
    model = cfg.build_model()
    p = cfg.build_portfolio()
    surf, _ = build_surface_from_config(cfg, model, p)
    row = p.weights @ model.sigma
    analytic = float(row @ row)
    ss = np.linspace(surf.s_min, surf.s_max, 41)
    worst = max(abs(float(surf.eval_b2(t, ss).max()) - analytic)
                for t in np.linspace(0.0, model.T, 9)) / analytic
    grid = hjb.make_grid(surf.s_min, surf.s_max, model.T, n_t, c=cfg.c_coupling)
    sol = hjb.solve(surf, [PutPayoff(cfg.strikes[0])], grid)
    (value,), _ = hjb.value_at(sol, float(p.weights @ model.x0))
    res = mc.simulate_bounds(model, p, sol, [0], n_t, m,
                             derive_seed(cfg.seed, "validate", n_t))[0]
    mid = 0.5 * (res.a_minus + res.a_plus)
    tol = max(3.0 * (res.se_minus + res.se_plus), 0.02 * mid)
    ok = (res.a_minus - tol) <= value <= (res.a_plus + tol)
    return [
        CheckResult("bachelier-exact-surface", worst < 1e-12,
                    f"max relative deviation from the analytic constant {worst:.2e}"),
        CheckResult("bachelier-bracket", ok,
                    f"PDE value {value:.4f} vs bounds [{res.a_minus:.4f}, {res.a_plus:.4f}] "
                    f"(slack {tol:.4f})"),
    ]


def check_dominance() -> CheckResult:
    from .presets import bs3d

    cfg = bs3d()
    model = cfg.build_model()
    p = cfg.build_portfolio()
    surf, _ = build_surface_from_config(cfg, model, p)
    grid = hjb.make_grid(surf.s_min, surf.s_max, model.T, 512, c=cfg.c_coupling)
    g = PutPayoff(300.0)
    sol = hjb.solve(surf, [g], grid)
    # minima over the whole grid, a segment at a time: exact in any order
    obstacle = dominance = np.inf
    for j in range(sol.segments):
        rows = sol.segment_values(j)  # (L, 2, n_s): American, European
        obstacle = np.minimum(obstacle, np.min(rows[:, 0] - g(grid.s_nodes)))
        dominance = np.minimum(dominance, np.min(rows[:, 0] - rows[:, 1]))
    obstacle, dominance = float(obstacle), float(dominance)
    ok = obstacle >= -1e-12 and dominance >= -1e-10
    return CheckResult("hjb-dominance", ok,
                       f"min(u_A - g) = {obstacle:.2e}, min(u_A - u_E) = {dominance:.2e}")


def check_exact_vs_laplace() -> CheckResult:
    """Laplace against the exact hyperplane integral on bs3d at t = 0.5: every
    level inside the basket's central range within 1e-4 relative."""
    from .presets import bs3d

    cfg = bs3d()
    model = cfg.build_model()
    p = cfg.build_portfolio()
    levels = np.array([230.0, 265.0, 300.0, 335.0, 375.0, 415.0])
    exact = oracle.quadrature_projected_vol(model, p, 0.5, levels)
    lap, _ = projected_vol_sq(model, p, 0.5, levels)  # a failed level is NaN: not within
    err = np.abs(lap - exact) / exact
    n_ok = int(np.count_nonzero(err <= 1e-4))
    return CheckResult("exact-vs-laplace", n_ok == len(levels),
                       f"{n_ok}/{len(levels)} levels in [230, 415] within 1e-4 of exact; "
                       f"worst {np.max(err):.2e}")
