"""The benchmark's tracer (perfbench/tracing.py) must still match the program.

A traced benchmark run wraps public entry points by name and stops when one
is gone; these tests make a rename or removal fail here as well.
"""

import importlib.util
import logging
import sys
from pathlib import Path

import numpy as np

from basketproj import hjb, mc, pipeline, projection, surface
from basketproj.model import PutPayoff
from basketproj.presets import appendix2d, bs3d
from support import flat_task, flat_tasks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
MODULES = (hjb, mc, projection, surface)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def _attributes():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


def _traced(tracing, call):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # SystemExit naming any entry point the program lacks
        call()
    finally:
        tracer.restore()
    return tracer


def test_install_finds_every_entry_point_and_restore_undoes_it():
    tracing = _load_tracing()
    before = _attributes()
    seen = {}
    tracer = _traced(tracing, lambda: seen.update(_attributes()))
    assert seen[("basketproj.mc", "simulate_bounds")] is not before[("basketproj.mc", "simulate_bounds")]
    assert seen[("basketproj.mc", "simulate_tiers_coupled")] is not \
        before[("basketproj.mc", "simulate_tiers_coupled")]
    assert tracer.spans == []
    assert _attributes() == before


def test_each_bound_entry_point_is_one_mc_span(bachelier5_model, bachelier5_portfolio):
    # neither public bound entry point may call the other: nested mc spans
    # would count the same path-steps twice
    m, p = bachelier5_model, bachelier5_portfolio
    g = PutPayoff(500.0)

    def call():
        mc.simulate_bounds(m, p, *flat_tasks(m, [g, g], 4), 4, 16, seed=1)
        mc.simulate_tiers_coupled(m, p, [mc.TierTask(*flat_task(m, g, 2)),
                                         mc.TierTask(*flat_task(m, g, 4))],
                                  16, seed=1)

    tracing = _load_tracing()
    tracer = _traced(tracing, call)
    mc_spans = [s for s in tracer.spans if s.name == "mc"]
    assert len(mc_spans) == 2
    assert all(s.parent is None for s in mc_spans)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mc.strike_path_steps"] == 2 * 16 * 4 + 16 * (2 + 4)
    assert metrics["rng.calls"] == 4 + 4  # one fine draw per step, shared by the tiers


def test_hjb_counts_on_a_traced_run(tmp_path):
    # a traced run evaluates every count lambda; the HJB ones must read one
    # sweep per tier and every empty-region level of every strike
    cfg = appendix2d()  # r = 0: the exercise region is empty at many levels
    cfg.nt_tiers = [16, 32]
    cfg.m_paths = 256
    cfg.surface_slices = 4
    cfg.surface_abscissae = 8
    tracing = _load_tracing()
    tracer = _traced(tracing, lambda: pipeline.run_experiment(cfg, tmp_path, threads=1))
    assert {"hjb.solve", "hjb.boundary", "hjb.delta", "mc", "rng",
            "projection.laplace_point"} <= {s.name for s in tracer.spans}
    metrics = tracing.layer_metrics(tracer)

    model, p = cfg.build_model(), cfg.build_portfolio()
    surf, _ = pipeline.build_surface_from_config(cfg, model, p)
    grids = [hjb.make_grid(surf.s_min, surf.s_max, model.T, n_t, c=cfg.c_coupling)
             for n_t in cfg.nt_tiers]
    empty = sum(int(np.isneginf(hjb.solve(surf, cfg.build_payoffs(), grid).levels).sum())
                for grid in grids)
    assert metrics["hjb.solves"] == len(cfg.nt_tiers)
    assert metrics["hjb.node_steps"] == sum(grid.n_t * grid.n_s for grid in grids)
    assert empty > 0
    assert metrics["hjb.empty_region_steps"] == empty


def test_surface_failure_warning_is_what_the_benchmark_parses(monkeypatch):
    # perfbench/worker.py counts failed Laplace points from the one WARNING
    # the surface stage logs: msg prefix, failed count, points attempted
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    cfg = bs3d()
    cfg.vols, cfg.T = [0.9, 0.1, 0.5], 3.0  # about 30 of 384 points fail
    model, p = cfg.build_model(), cfg.build_portfolio()
    records = []
    catcher = logging.Handler(logging.INFO)
    catcher.emit = records.append
    counter = worker.LaplaceFailures()
    log = logging.getLogger("basketproj.surface")
    level = log.level
    log.setLevel(logging.INFO)
    log.addHandler(catcher)
    log.addHandler(counter)
    try:
        pipeline.build_surface_from_config(cfg, model, p)
    finally:
        log.removeHandler(catcher)
        log.removeHandler(counter)
        log.setLevel(level)
    warnings = [r for r in records if r.levelno >= logging.WARNING]
    skipped = [r for r in records if r.levelno == logging.INFO
               and r.getMessage().startswith("skipping Laplace point")]
    assert len(warnings) == 1
    assert str(warnings[0].msg).startswith("Laplace evaluation failed")
    assert warnings[0].args[0] == len(skipped) > 0
    assert warnings[0].args[1] == cfg.surface_slices * cfg.surface_abscissae
    assert counter.failed == len(skipped)


def test_surface_counts_on_a_traced_run():
    # one surface.laplace span per slice (the slice is one batch); the Newton
    # count of each projection.laplace_point span is a plain int the median
    # and max of layer_metrics read
    cfg = bs3d()
    cfg.surface_slices, cfg.surface_abscissae = 4, 8
    model, p = cfg.build_model(), cfg.build_portfolio()
    tracing = _load_tracing()
    tracer = _traced(tracing, lambda: pipeline.build_surface_from_config(cfg, model, p))
    metrics = tracing.layer_metrics(tracer)
    assert metrics["surface.laplace_points"] == cfg.surface_slices
    assert metrics["surface.laplace_failed"] == 0
    assert metrics["projection.newton_iters_max"] > 0
    assert metrics["projection.newton_iters_median"] > 0
    counts = [s.count for s in tracer.spans if s.name == "projection.laplace_point"]
    assert len(counts) == cfg.surface_slices and all(type(c) is int for c in counts)
