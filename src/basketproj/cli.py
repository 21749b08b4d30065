"""Command-line entry point.

Subcommands: run, validate, convergence, surface.  Exit codes: 0 all gates
pass, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .pipeline import (StageError, build_surface_from_config, convergence_study,
                       run_experiment, validation_checks)
from .presets import PRESETS, get_preset

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2

OUT_DIR_ENV = "BASKETPROJ_OUT"


def _resolve_config(args) -> ExperimentConfig:
    if args.preset:
        cfg = get_preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("provide a config file or --preset")
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _resolve_out_dir(args, cfg: ExperimentConfig | None) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    if cfg is not None and cfg.out_dir:
        return Path(cfg.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "out"))


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = _resolve_out_dir(args, cfg)
    report = run_experiment(cfg, out, threads=args.threads)
    for row in report.rows:
        print(f"K={row.strike:<8g} N_t={row.n_t:<6d} "
              f"A-={row.a_minus:.4f}({row.se_minus:.4f}) "
              f"A+={row.a_plus:.4f}({row.se_plus:.4f}) "
              f"gap={100 * row.rel_gap:.2f}%  euro={row.euro_mc:.4f}  "
              f"hjb={row.hjb_american:.4f}")
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    print(f"results written to {out} (config {report.config_hash}, seed {report.seed})")
    return EXIT_OK if report.passed else EXIT_INVARIANT


def cmd_validate(args) -> int:
    checks = validation_checks()
    width = max(len(c.name) for c in checks)
    n_fail = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        n_fail += not c.passed
        print(f"{status}  {c.name:<{width}}  {c.detail}")
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_INVARIANT


def cmd_convergence(args) -> int:
    cfg = _resolve_config(args)
    out = _resolve_out_dir(args, cfg)
    report = convergence_study(cfg, out, threads=args.threads)
    print(f"strike {report.strike:g}; biases over tiers {report.tiers}")
    for row in report.table:
        print(f"N_t={int(row[0]):<6d} A-={row[1]:.4f} A+={row[3]:.4f} "
              f"bias-={row[5]:.2e} bias+={row[6]:.2e} "
              f"bias_tau={row[7]:.2e} bias_max={row[8]:.2e}")
    for name, val in report.slopes.items():
        print(f"slope {name}: {'undefined' if val is None else f'{val:.3f}'}")
    return EXIT_OK


def cmd_surface(args) -> int:
    cfg = _resolve_config(args)
    model = cfg.build_model()
    p = cfg.build_portfolio()
    out = _resolve_out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    surf, _ = build_surface_from_config(cfg, model, p)
    path = out / "surface.txt"
    surf.save(path)
    print(f"surface on [{surf.s_min:.4f}, {surf.s_max:.4f}] x [0, {surf.t_max:g}], "
          f"floor {surf.floor:.4g}, written to {path}")
    return EXIT_OK


def _thread_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 thread, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketproj",
        description="Price American basket puts by Markovian projection with MC price bounds.")
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, simulates=False):
        sp.add_argument("config", nargs="?", help="experiment config file")
        sp.add_argument("--preset", choices=sorted(PRESETS),
                        help="use a shipped preset instead of a config file")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out-dir", default=None,
                        help=f"output directory (default: config, then ${OUT_DIR_ENV}, then ./out)")
        if simulates:
            sp.add_argument("--threads", type=_thread_count, default=None,
                            help="cap on Monte Carlo threads: workers over 65536-path chunks, "
                                 "or for exactly 65536 paths one worker and a fill thread, "
                                 "both drawing its next steps (default: every available CPU; "
                                 "results do not depend on it)")

    add_common(sub.add_parser("run", help="full pipeline: project, solve, simulate, report"),
               simulates=True)
    sub.add_parser("validate", help="oracle cross-checks and invariant suite")
    add_common(sub.add_parser("convergence", help="bias decay across time-step tiers"),
               simulates=True)
    add_common(sub.add_parser("surface", help="emit the fitted coefficient surface only"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    handlers = {"run": cmd_run, "validate": cmd_validate,
                "convergence": cmd_convergence, "surface": cmd_surface}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
