"""One workload in one fresh process: set up, repeat the entry point, check the outputs.

run.py starts this with the thread and import-path environment it pins:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --scale full|tiny --references FILE --t-spawn EPOCH [--setup-only]

Set-up is everything from process start to a built config, model and
portfolio.  The entry point then runs until ``--seconds`` have passed (at
least once; with tracing, untraced and traced repetitions alternate).  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import SCALES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class LaplaceFailures(logging.Handler):
    """Counts the points the surface stage logs as failed."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.failed = 0

    def emit(self, record):
        if str(record.msg).startswith("Laplace evaluation failed"):
            self.failed += int(record.args[0])


def import_program():
    """Import the package the CLI imports, from this checkout's src/ only."""
    import basketproj
    import basketproj.cli  # noqa: F401  the whole import graph a CLI run pays for

    src = (ROOT / "src").resolve()
    if src not in Path(basketproj.__file__).resolve().parents:
        raise SystemExit(f"basketproj imported from {basketproj.__file__}, not from {src}")


def make_config(workload, scale: str, seed: int):
    from basketproj.presets import get_preset

    cfg = get_preset(workload.preset)
    for key, value in workload.overrides(scale).items():
        if not hasattr(cfg, key):
            raise SystemExit(f"workload {workload.name}: config has no key {key!r}")
        setattr(cfg, key, value)
    cfg.seed = seed
    return cfg


def entry_point(workload, cfg, model, p, out_dir: Path):
    """The pipeline call the CLI makes for this workload's command."""
    from basketproj import pipeline

    if workload.entry == "run":
        return lambda: pipeline.run_experiment(cfg, out_dir)
    if workload.entry == "convergence":
        return lambda: pipeline.convergence_study(cfg, out_dir)
    return lambda: pipeline.build_surface_from_config(cfg, model, p)


def collect(workload, result, model, p, probes, laplace_failed: int) -> dict:
    if workload.entry == "run":
        return checks.collect_run(result)
    if workload.entry == "convergence":
        return checks.collect_convergence(result)
    surf, _ = result
    return checks.collect_surface(surf, probes or checks.probe_points(surf, model, p),
                                  laplace_failed)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def repeat(workload, call, model, p, probes, seconds: float, trace: bool) -> list[dict]:
    """Run the entry point until `seconds` have passed; one record per repetition."""
    reps = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(reps) % 2 == 1 else None
        counter = LaplaceFailures()
        log = logging.getLogger("basketproj.surface")
        log.addHandler(counter)
        if tracer:
            tracing.install(tracer)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with tracer.span("pipeline") if tracer else contextlib.nullcontext():
                result = call()
            error = None
        except Exception as exc:  # every operation of the run fails; report, do not crash
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if tracer:
            tracer.restore()
        log.removeHandler(counter)
        rep = {"wall": wall, "cpu": cpu, "tracer": tracer,
               "passed": getattr(result, "passed", None) if error is None else False}
        if error is None:
            rep["output"] = collect(workload, result, model, p, probes, counter.failed)
        else:
            rep["output"] = {"error": error}
        reps.append(rep)
        if error is not None:
            break
        if time.perf_counter() - start >= seconds and (not trace or len(reps) >= 2):
            break
    return reps


def expected_operations(workload, cfg) -> tuple[int, int]:
    """(operations attempted, Laplace points per surface probe)."""
    if workload.entry == "run":
        return len(cfg.strikes) * len(cfg.nt_tiers), 0
    if workload.entry == "convergence":
        return len(cfg.nt_tiers), 0
    return cfg.surface_slices * cfg.surface_abscissae, cfg.surface_abscissae


def library_versions() -> dict:
    import numpy as np
    import scipy

    out = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        out["blas"] = "unknown"
    return out


def layer_report(cfg, model, reps: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced repetitions, plus derived health."""
    from basketproj import hjb

    plain = [r for r in reps if r["tracer"] is None]
    traced = [r for r in reps if r["tracer"] is not None]
    per_rep = [tracing.layer_metrics(r["tracer"]) for r in traced]
    out = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    surf = tracing.fitted_surface(traced[0]["tracer"])
    if surf is not None:
        grid = hjb.make_grid(surf.s_min, surf.s_max, model.T, max(cfg.nt_tiers),
                             c=cfg.c_coupling)
        out.update(tracing.surface_health(surf, model, grid))
    else:
        out.update({"surface.residual_rms_max": 0.0, "surface.floor_frac": 0.0,
                    "surface.bracket_excess_frac": 0.0})
    out["pipeline.cpu_s"] = statistics.median(r["cpu"] for r in plain)
    out["pipeline.tracing_overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                          - statistics.median(r["wall"] for r in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full")
    ap.add_argument("--references", type=Path, default=None)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.time() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    import_program()
    cfg = make_config(workload, args.scale, args.seed)
    model = cfg.build_model()
    p = cfg.build_portfolio()
    cfg.build_payoffs()
    setup_s = time.time() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = None
    if args.references is not None:
        refs = json.loads(args.references.read_text())[args.scale].get(workload.name)
    probes = [[q["t"], q["s"]] for q in refs["probes"]] if refs and "probes" in refs else None
    out_dir = ROOT / ".perfbench_out" / "work" / workload.name
    call = entry_point(workload, cfg, model, p, out_dir)
    reps = repeat(workload, call, model, p, probes, args.seconds, bool(args.trace))

    attempted, per_probe = expected_operations(workload, cfg)
    outputs = [r["output"] for r in reps]
    failed, notes = checks.count_failures(workload.entry, outputs, refs, attempted, per_probe)
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF,
                                                             resource.RUSAGE_CHILDREN)]
    plain = [r for r in reps if r["tracer"] is None]
    result = {
        "setup_s": setup_s,
        "walls": [r["wall"] for r in plain],
        "wall_s": statistics.median(r["wall"] for r in plain),
        "peak_rss_mb": sum(usage) / 1024.0,  # ru_maxrss is in KiB on Linux
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "program_gates_passed": reps[0]["passed"],
        "quality": checks.quality(workload.entry, outputs[0]),
        "versions": library_versions(),
        "output": outputs[0],
    }
    if args.trace and "error" not in outputs[0]:
        result["layers"] = layer_report(cfg, model, reps)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
