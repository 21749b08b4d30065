"""Globally defined coefficient surface (t, s) -> (drift, squared volatility).

Laplace evaluations are taken on a pilot-simulation envelope of the basket,
fitted per time slice with low-order polynomials in s, interpolated linearly
in t, extrapolated as-is outside the fitted range and clamped below by a
positivity floor so the backward solve stays parabolic.  Each time slice is
one batch: its n_abscissae levels go to projected_vol_sq as one (n,) array,
and its levels and values go to fit_surface as they are.  A level whose
Newton maximization fails is logged at INFO with its reason and left out of
its slice's fit; one WARNING then counts the failed levels of the whole
surface ("Laplace evaluation failed at %d of %d points", failed, slices x
abscissae).  A slice left with fewer levels than the fit needs is a
ValueError, never a surface without that slice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .model import ModelKind, ModelSpec, Portfolio
from .projection import projected_vol_sq

log = logging.getLogger(__name__)

DEFAULT_DEGREE = 3
DEFAULT_SLICES = 16
DEFAULT_ABSCISSAE = 24
PILOT_PATHS = 100
PILOT_STEPS = 512


@dataclass(frozen=True)
class Envelope:
    """Per-time min/max basket values over a pilot path batch."""

    times: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray


def estimate_envelope(model: ModelSpec, p: Portfolio, seed: int) -> Envelope:
    """Forward-Euler pilot batch of PILOT_PATHS paths over PILOT_STEPS steps;
    componentwise basket min/max per time step."""
    times = np.linspace(0.0, model.T, PILOT_STEPS + 1)
    dt = model.T / PILOT_STEPS
    x = np.tile(model.x0, (PILOT_PATHS, 1))
    s_lo = np.empty(PILOT_STEPS + 1)
    s_hi = np.empty(PILOT_STEPS + 1)
    basket = x @ p.weights
    s_lo[0] = basket.min()
    s_hi[0] = basket.max()
    sq = np.sqrt(dt)
    for n in range(PILOT_STEPS):
        dws = mc.normal_matrix(seed, n, PILOT_PATHS, model.k) * sq @ model.sigma.T
        x = mc.step(model, x, dt, mc.diffusion(model, x, dws))
        basket = x @ p.weights
        s_lo[n + 1] = basket.min()
        s_hi[n + 1] = basket.max()
    return Envelope(times=times, s_lo=s_lo, s_hi=s_hi)


def rectangle_from_envelope(env: Envelope, model: ModelSpec) -> tuple[float, float]:
    """Computational rectangle: terminal envelope widened by half its width each side.

    Degenerate (deterministic) envelopes get a nominal pad so the rectangle
    keeps positive width.
    """
    pad = 0.5 * float(env.s_hi[-1] - env.s_lo[-1])
    scale = max(abs(env.s_lo[-1]), abs(env.s_hi[-1]), 1.0)
    if pad < 1e-8 * scale:
        pad = 0.05 * scale
    s_min = env.s_lo[-1] - pad
    s_max = env.s_hi[-1] + pad
    if model.kind is ModelKind.BLACK_SCHOLES:
        s_min = max(0.0, s_min)
    return float(s_min), float(s_max)


def default_floor(model: ModelSpec, p: Portfolio) -> float:
    """Positivity floor far below envelope-interior values of the squared volatility."""
    px0 = float(p.weights @ model.x0)
    if model.kind is ModelKind.BLACK_SCHOLES:
        ref_vol = float(np.mean(np.diag(model.sigma)))
        return 1e-4 * px0**2 * ref_vol**2
    return 1e-4 * px0**2 / model.T


@dataclass(frozen=True)
class CoefficientSurface:
    """Per-slice polynomial fit of the projected squared volatility.

    Each slice i holds ascending coefficients in the centered coordinate
    u = (s - centers[i]) / halfwidths[i]; raw-s Vandermonde systems go
    numerically rank-deficient on the narrow early-time envelopes.  Between
    slices the value is linear in t, clamped to the nearest slice outside
    [slice_times[0], slice_times[-1]].
    """

    slice_times: np.ndarray
    coeffs: np.ndarray          # (n_slices, degree + 1)
    floor: float
    s_min: float
    s_max: float
    t_max: float
    r: float
    centers: np.ndarray = field(default=None)
    halfwidths: np.ndarray = field(default=None)
    residual_rms: np.ndarray = field(default=None)

    def __post_init__(self):
        st = np.asarray(self.slice_times, dtype=float)
        if st.ndim != 1 or (st.size > 1 and np.any(np.diff(st) <= 0)):
            raise ValueError("slice times must be strictly increasing")
        if not self.floor > 0:
            raise ValueError("floor must be positive")
        if self.centers is None:
            object.__setattr__(self, "centers", np.zeros(st.size))
        if self.halfwidths is None:
            object.__setattr__(self, "halfwidths", np.ones(st.size))
        if self.residual_rms is None:
            object.__setattr__(self, "residual_rms", np.zeros(st.size))

    def slice_b2(self, s: np.ndarray) -> np.ndarray:
        """Raw (unfloored) polynomial values of every slice at the 1-D s:
        (n_slices, s.size) rows, by Horner in u."""
        u = (s - self.centers[:, None]) / self.halfwidths[:, None]
        out = np.zeros_like(u)
        for c in self.coeffs[:, ::-1].T:
            out = out * u + c[:, None]
        return out

    def blend(self, t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Floored squared volatility at the (L,) times t, as (L, n) rows, from
        rows, the (n_slices, n) raw slice values from slice_b2:
        eval_b2 computes them, the backward sweep caches them.  A time outside
        [slice_times[0], slice_times[-1]] takes the nearest slice as it is; one
        inside is linear between the two slices around it."""
        st = self.slice_times
        j = np.maximum(np.searchsorted(st, t, side="right") - 1, 0)
        out = rows[j]
        inside = (t > st[0]) & (t < st[-1])
        if inside.any():
            j = j[inside]
            w = ((t[inside] - st[j]) / (st[j + 1] - st[j]))[:, None]
            out[inside] = (1.0 - w) * out[inside] + w * rows[j + 1]
        return np.maximum(out, self.floor, out=out)

    def eval_b2(self, t: float, s) -> np.ndarray:
        """Floored squared volatility at time t, vectorized over s."""
        if t < -1e-12 or t > self.t_max * (1 + 1e-12):
            raise ValueError(f"t={t} outside [0, {self.t_max}]")
        s = np.asarray(s, dtype=float)
        rows = self.slice_b2(s.ravel())
        return self.blend(np.array([t], dtype=float), rows)[0].reshape(s.shape)[()]

    def save(self, path) -> None:
        """Plain-text table: header, then one row per slice
        (t, center, halfwidth, coeffs..., rms)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# basketproj coefficient surface v1\n")
            fh.write(f"r {float(self.r)!r}\n")
            fh.write(f"floor {float(self.floor)!r}\n")
            fh.write(f"rect {float(self.s_min)!r} {float(self.s_max)!r} {float(self.t_max)!r}\n")
            fh.write(f"degree {self.coeffs.shape[1] - 1}\n")
            fh.write(f"slices {self.slice_times.size}\n")
            for i, t in enumerate(self.slice_times):
                row = " ".join(repr(float(c)) for c in self.coeffs[i])
                fh.write(f"{float(t)!r} {float(self.centers[i])!r} "
                         f"{float(self.halfwidths[i])!r} {row} "
                         f"{float(self.residual_rms[i])!r}\n")


def fit_surface(slices, floor: float, rect: tuple[float, float],
                t_max: float, r: float) -> CoefficientSurface:
    """Least-squares polynomial of degree DEFAULT_DEGREE per time slice from
    (t, levels, values) per slice, in increasing t.

    Each slice is fitted in its centered coordinate (s - center)/halfwidth so
    narrow slices at large basket levels stay well conditioned.
    """
    n_coef = DEFAULT_DEGREE + 1
    times = np.array([float(t) for t, _, _ in slices])
    coeffs = np.empty((times.size, n_coef))
    centers = np.empty(times.size)
    halfwidths = np.empty(times.size)
    rms = np.empty(times.size)
    for i, (t, s, v) in enumerate(slices):
        if s.size < n_coef:
            raise ValueError(f"slice t={t}: need at least {n_coef} points, got {s.size}")
        centers[i] = 0.5 * (s.max() + s.min())
        halfwidths[i] = max(0.5 * (s.max() - s.min()), 1e-300)
        u = (s - centers[i]) / halfwidths[i]
        vand = np.vander(u, n_coef, increasing=True)
        sol, _, rank, _ = np.linalg.lstsq(vand, v, rcond=None)
        if rank < n_coef:
            raise ValueError(f"slice t={t}: collinear abscissae (rank {rank})")
        coeffs[i] = sol
        rms[i] = float(np.sqrt(np.mean((vand @ sol - v) ** 2)))
    return CoefficientSurface(slice_times=times, coeffs=coeffs, floor=floor,
                              s_min=rect[0], s_max=rect[1], t_max=t_max, r=r,
                              centers=centers, halfwidths=halfwidths,
                              residual_rms=rms)


def constant_surface(value: float, floor: float, rect: tuple[float, float],
                     t_max: float, r: float) -> CoefficientSurface:
    # floor may not override an exact constant (Bachelier exactness)
    return CoefficientSurface(slice_times=np.array([0.0]),
                              coeffs=np.array([[value]]),
                              floor=min(floor, value) if value > 0 else floor,
                              s_min=rect[0], s_max=rect[1], t_max=t_max, r=r)


def build_surface(model: ModelSpec, p: Portfolio, seed: int = 0,
                  n_slices: int = DEFAULT_SLICES,
                  n_abscissae: int = DEFAULT_ABSCISSAE) -> tuple[CoefficientSurface, Envelope]:
    """Envelope estimation, Laplace evaluation and slice fitting in one call.

    For the Bachelier model the conditional expectation is a known constant and
    the fit is bypassed entirely.
    """
    env = estimate_envelope(model, p, seed=seed)
    rect = rectangle_from_envelope(env, model)
    floor = default_floor(model, p)
    if model.kind is ModelKind.BACHELIER:
        (const,), _ = projected_vol_sq(model, p, model.T, np.array([p.weights @ model.x0]))
        return constant_surface(const, floor, rect, model.T, model.r), env
    idx = np.unique(np.round(np.linspace(1, PILOT_STEPS, n_slices)).astype(int))
    slices = []
    n_failed = 0
    for i in idx:
        t = env.times[i]
        levels = np.linspace(env.s_lo[i], env.s_hi[i], n_abscissae)
        values, failures = projected_vol_sq(model, p, t, levels)
        for j, reason in failures.items():
            log.info("skipping Laplace point (t=%.4g, s=%.6g): %s", t, levels[j], reason)
        n_failed += len(failures)
        slices.append((t, np.delete(levels, list(failures)), np.delete(values, list(failures))))
    if n_failed:
        log.warning("Laplace evaluation failed at %d of %d points", n_failed,
                    idx.size * n_abscissae)
    surf = fit_surface(slices, floor=floor, rect=rect, t_max=model.T, r=model.r)
    return surf, env
