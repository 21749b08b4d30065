"""Spans around calls into the program's layers, recorded from the benchmark.

A traced run replaces public functions on the module object their caller
looks them up on: ``basketproj.mc.normal_matrix`` (the name ``mc`` imported),
not ``basketproj.rng.normal_matrix``; ``basketproj.surface.projected_vol_sq``
(the name ``build_surface`` calls), and so on.  Every span records its parent,
so the RNG calls of the pilot envelope nest under the surface layer while
those of the bound simulation nest under ``mc``.  The program itself carries
no instrumentation.  A function that a later version removes or renames
ends the traced run with an error naming it, so that its layer does not
silently read zero; this file must then follow the program.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    failed: bool = False
    count: float = 0.0
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except Exception:
            span.failed = True
            raise
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, count=None, keep_result: bool = False) -> None:
        """Replace module.attr by a recording wrapper.

        count(arguments, result) gives the span's work count from the bound
        call arguments and the return value; it runs outside the span.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            raise SystemExit(f"tracing: {module.__name__}.{attr} not found; "
                             "perfbench/tracing.py no longer matches the program")
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = orig(*args, **kwargs)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.count = count(bound.arguments, result)
            if keep_result:
                span.result = result
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points as the calling modules see them."""
    import numpy as np
    from basketproj import hjb, mc, projection, surface

    tracer.wrap(surface, "build_surface", "surface", keep_result=True)
    tracer.wrap(surface, "estimate_envelope", "surface.envelope")
    tracer.wrap(surface, "fit_surface", "surface.fit")
    tracer.wrap(surface, "projected_vol_sq", "surface.laplace")
    tracer.wrap(projection, "laplace_point", "projection.laplace_point",
                count=lambda a, r: r.iterations)
    tracer.wrap(hjb, "solve", "hjb.solve",
                count=lambda a, r: a["grid"].n_t * a["grid"].n_s)
    tracer.wrap(hjb, "exercise_boundary", "hjb.boundary",
                count=lambda a, r: int(np.count_nonzero(np.isneginf(r.levels))))
    tracer.wrap(hjb, "delta_array", "hjb.delta")
    tracer.wrap(mc, "simulate_bounds", "mc",
                count=lambda a, r: len(a["tasks"]) * a["m"] * a["n_t"])
    tracer.wrap(mc, "simulate_tiers_coupled", "mc",
                count=lambda a, r: a["m"] * sum(len(t.tasks) * t.n_t for t in a["tiers"]))
    tracer.wrap(mc, "normal_matrix", "rng",
                count=lambda a, r: a["n_rows"] * a["n_cols"])


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer seconds, counts and rates of one traced repetition.

    Self time is a span's duration minus that of its direct children.  A
    layer the workload does not run reads zero.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def under(s: Span, name: str) -> bool:
        while s.parent is not None:
            s = spans[s.parent]
            if s.name == name:
                return True
        return False

    mc_s = total("mc")
    rng = named("rng")
    rng_s = sum(s.duration for s in rng)
    rng_in_mc = sum(s.duration for s in rng if under(s, "mc"))
    solve = named("hjb.solve")
    solve_s = sum(s.duration for s in solve)
    laplace = named("surface.laplace")
    laplace_s = sum(s.duration for s in laplace)
    iters = [s.count for s in named("projection.laplace_point") if not s.failed]
    path_steps = sum(s.count for s in named("mc"))
    normals = sum(s.count for s in rng)
    node_steps = sum(s.count for s in solve)
    pipeline_self = sum(s.duration - child_time[i] for i, s in enumerate(spans)
                        if s.name == "pipeline")
    return {
        "mc.s": mc_s,
        "mc.self_s": mc_s - rng_in_mc,
        "mc.strike_path_steps": path_steps,
        "mc.strike_path_steps_per_s": _rate(path_steps, mc_s),
        "rng.s": rng_s,
        "rng.calls": len(rng),
        "rng.normals": normals,
        "rng.normals_per_s": _rate(normals, rng_s),
        "hjb.s": solve_s + total("hjb.boundary") + total("hjb.delta"),
        "hjb.solves": len(solve),
        "hjb.node_steps": node_steps,
        "hjb.node_steps_per_s": _rate(node_steps, solve_s),
        "hjb.boundary_s": total("hjb.boundary"),
        "hjb.delta_s": total("hjb.delta"),
        "hjb.empty_region_steps": sum(s.count for s in named("hjb.boundary")),
        "surface.s": total("surface"),
        "surface.envelope_s": total("surface.envelope"),
        "surface.fit_s": total("surface.fit"),
        "surface.laplace_s": laplace_s,
        "surface.laplace_points": len(laplace),
        "surface.laplace_failed": sum(1 for s in laplace if s.failed),
        "surface.laplace_points_per_s": _rate(len(laplace), laplace_s),
        "projection.newton_iters_median": statistics.median(iters) if iters else 0,
        "projection.newton_iters_max": max(iters) if iters else 0,
        "pipeline.s": total("pipeline"),
        "pipeline.self_s": pipeline_self,
    }


def fitted_surface(tracer: Tracer):
    """The last surface the traced repetition built, or None."""
    built = [s.result for s in tracer.spans if s.name == "surface" and s.result is not None]
    return built[-1][0] if built else None


def surface_health(surf, model, grid) -> dict:
    """Fit residual, floor clamping and the Black-Scholes a-priori bracket on a solver grid.

    The nodes are those the backward solve evaluates: interior space nodes at
    every time level but the last.  For Black-Scholes with non-negative
    weights, E[P b b^T P^T | P x = s] <= lambda_max(sigma sigma^T) s^2, so a
    node above that bound is a surface the data cannot support.
    """
    import numpy as np
    from basketproj.model import ModelKind

    interior = grid.s_nodes[1:-1]
    b2 = np.array([surf.eval_b2(t, interior) for t in grid.t_grid[:-1]])
    excess = 0.0
    if model.kind is ModelKind.BLACK_SCHOLES:
        lam = float(np.linalg.eigvalsh(model.sigma @ model.sigma.T)[-1])
        excess = float(np.mean(b2 > lam * interior**2))
    return {
        "surface.residual_rms_max": float(np.max(surf.residual_rms)),
        "surface.floor_frac": float(np.mean(b2 <= surf.floor)),
        "surface.bracket_excess_frac": excess,
    }
