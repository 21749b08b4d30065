import tracemalloc

import numpy as np
import pytest

from basketproj import hjb, pipeline, presets, projection
from basketproj.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main
from basketproj.config import ConfigError
from basketproj.pipeline import (BOUND_ORDERING_Z, CheckResult, StageError, appendix_checks,
                                 build_surface_from_config, check_solver_1d,
                                 convergence_study, run_experiment, validation_checks)
from basketproj.presets import appendix2d, get_preset
from basketproj.rng import CHUNK
from support import fresh_python, load_surface, reference_sweep


def _value_table(grid, values, path):
    """One (n_t + 1, n_s) value grid as the plotting table: t, s, value triples."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t s value\n")
        for n, t in enumerate(grid.t_grid):
            for m, s in enumerate(grid.s_nodes):
                fh.write(f"{float(t)!r} {float(s)!r} {float(values[n, m])!r}\n")


TINY_BACHELIER = """
[model]
kind = bachelier
r = 0.05
T = 0.25
x0 = [100, 100, 100]
sigma = [[20, 1, 0], [0, 20, 2], [0, 0, 20]]

[portfolio]
weights = [1, 1, 1]

[payoff]
strikes = [310]

[numerics]
nt_tiers = [32, 64, 128]
m_paths = 2000
seed = 6
"""

DETERMINISTIC = """
[model]
kind = bachelier
r = 0.0
T = 0.25
x0 = [100, 100]
sigma = [[0, 0], [0, 0]]

[portfolio]
weights = [1, 1]

[payoff]
strikes = [260]

[numerics]
nt_tiers = [16, 32, 64]
m_paths = 50
seed = 1
"""

TWO_ASSET_BS = """
[model]
kind = black-scholes
r = 0.05
T = 0.25
x0 = [100, 100]
vols = [0.2, 0.3]
correlation = [[1.0, 0.5], [0.5, 1.0]]

[portfolio]
weights = [1, 1]

[payoff]
strikes = [200]

[numerics]
nt_tiers = [32, 64]
m_paths = 2000
seed = 6
"""


class TestRunCommand:
    def test_appendix_preset_passes(self, tmp_path, capsys):
        rc = main(["run", "--preset", "appendix2d", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "PASS  bound-ordering" in out
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "surface.txt").exists()
        assert (tmp_path / "config.cfg").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = appendix2d()
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
               (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "surface.txt").read_bytes() == \
               (tmp_path / "b" / "surface.txt").read_bytes()

    def test_seed_override_changes_hash_and_passes(self, tmp_path):
        cfg = appendix2d()
        cfg.seed = 123
        report = run_experiment(cfg, tmp_path)
        assert report.passed
        assert report.seed == 123

    def test_threads_give_identical_results(self, tmp_path):
        cfg = appendix2d()
        cfg.nt_tiers = [64, 128]
        cfg.m_paths = CHUNK + 1000  # two path chunks, so the workers have work to split
        run_experiment(cfg, tmp_path / "one", threads=1)
        run_experiment(cfg, tmp_path / "two", threads=3)
        names = sorted(f.name for f in (tmp_path / "one").iterdir())
        assert "results.csv" in names and "boundary_K200.txt" in names
        assert names == sorted(f.name for f in (tmp_path / "two").iterdir())
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == \
                   (tmp_path / "two" / name).read_bytes(), name

    def test_coupled_tiers_report_bias_not_noise(self, tmp_path):
        # one coupled pass: the step-doubling difference of the lower bound
        # sits far below the noise two independent batches would show
        cfg = get_preset("bachelier-exact")
        cfg.nt_tiers = [256, 512]
        cfg.m_paths = 16_384
        cfg.seed = 1
        coarse, fine = run_experiment(cfg, tmp_path).rows
        assert coarse.n_t == 256 and fine.bias_minus is None
        independent_noise = np.hypot(coarse.se_minus, fine.se_minus)
        assert coarse.bias_minus < 0.25 * independent_noise

    def test_tiers_must_divide_the_top_tier(self, tmp_path, capsys):
        path = tmp_path / "uneven.cfg"
        path.write_text(TINY_BACHELIER.replace("nt_tiers = [32, 64, 128]", "nt_tiers = [24, 64]"),
                        encoding="utf-8")
        out = tmp_path / "out"
        for command in ("run", "surface"):  # surface, too, reads the config's one rule set
            assert main([command, str(path), "--out-dir", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error" in err and "[24]" in err and "64" in err
            assert not out.exists()  # nothing was written

    def test_bounds_failure_names_stage_and_tiers(self, tmp_path, monkeypatch, capsys):
        def broken_pass(*args, **kwargs):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(pipeline.mc, "simulate_tiers_coupled", broken_pass)
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY_BACHELIER, encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "[bounds]" in err and "[32, 64, 128]" in err and "injected kernel fault" in err

    def test_no_sweep_lives_through_the_pass(self, tmp_path, monkeypatch):
        # no (K, n_t + 1, n_s) array is alive while the pass runs: neither a
        # value grid of the top tier's export nor any tier's delta stack.
        # Every allocation from the run's start is traced; the largest live
        # block is taken as the pass enters and at every segment it reads.
        cfg = get_preset("bachelier-exact")
        cfg.nt_tiers = [512, 1024]
        cfg.m_paths = 256
        cfg.export_value_grids = True
        top = hjb.make_grid(0.0, 1.0, 1.0, 1024, c=cfg.c_coupling)
        stack = len(cfg.strikes) * (top.n_t + 1) * top.n_s * 8
        largest = []
        kernel, segment_delta = pipeline.mc.simulate_tiers_coupled, hjb.Sweep.segment_delta

        def live_max():
            return max(trace.size for trace in tracemalloc.take_snapshot().traces)

        def kernel_spy(*args, **kwargs):
            largest.append(live_max())
            return kernel(*args, **kwargs)

        def segment_spy(self, j):
            rows = segment_delta(self, j)
            largest.append(live_max())
            return rows

        monkeypatch.setattr(pipeline.mc, "simulate_tiers_coupled", kernel_spy)
        monkeypatch.setattr(hjb.Sweep, "segment_delta", segment_spy)
        tracemalloc.start()
        try:
            run_experiment(cfg, tmp_path, threads=1)
        finally:
            tracemalloc.stop()
        assert list(tmp_path.glob("values_K*.txt"))
        assert len(largest) == 1 + 512 // hjb.BLOCK_LEVELS + 1024 // hjb.BLOCK_LEVELS
        assert max(largest) < stack, (max(largest), stack)

    def test_sweeps_and_pass_hold_a_quarter_of_the_delta_stacks(self, bs3d_surface):
        # what the old design held through the pass, every tier's (K, n_t + 1, n_s)
        # delta stack, against the traced peak of the sweeps and the pass
        cfg = get_preset("bs3d")
        cfg.m_paths = 1024
        tiers = [1024, 2048]
        surf, _ = bs3d_surface
        model, p, payoffs = cfg.build_model(), cfg.build_portfolio(), cfg.build_payoffs()
        grids = [hjb.make_grid(surf.s_min, surf.s_max, model.T, n_t, c=cfg.c_coupling)
                 for n_t in tiers]
        stacks = sum(len(payoffs) * (g.n_t + 1) * g.n_s * 8 for g in grids)
        tracemalloc.start()
        try:
            pipeline._price_tiers(cfg, model, p, surf, payoffs, tiers, "bounds", False, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stacks / 4, (peak, stacks)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_exports_come_from_top_tier(self, tmp_path, threads):
        # every plotting file must equal the top tier's American grid and
        # boundary from the level-by-level reference sweep, written as the
        # export writes them
        cfg = get_preset("bs3d")
        cfg.nt_tiers = [16, 32]
        cfg.m_paths = 256
        cfg.surface_slices = 4
        cfg.surface_abscissae = 8
        cfg.strikes = [280.0, 300.0]
        cfg.export_value_grids = True
        out = tmp_path / "run"
        run_experiment(cfg, out, threads=threads)
        model, p = cfg.build_model(), cfg.build_portfolio()
        surf, _ = build_surface_from_config(cfg, model, p)
        names = set()
        differs_from_lower_tier = False
        payoffs = cfg.build_payoffs()
        strikes = np.array(cfg.strikes)
        for n_t in cfg.nt_tiers:
            grid = hjb.make_grid(surf.s_min, surf.s_max, model.T, n_t, c=cfg.c_coupling)
            american = reference_sweep(surf, payoffs, grid)[:len(payoffs)]
            obstacle = np.array([payoff(grid.s_nodes) for payoff in payoffs])
            levels = hjb.exercise_boundary(american, obstacle, strikes, grid.s_nodes).levels
            ref = tmp_path / f"ref{n_t}"
            ref.mkdir(exist_ok=True)
            for k, g in enumerate(payoffs):
                boundary, values = f"boundary_K{g.strike:g}.txt", f"values_K{g.strike:g}.txt"
                hjb.export_boundary(grid.t_grid, levels[k], ref / boundary)
                _value_table(grid, american[k], ref / values)
                for fname in (boundary, values):
                    if n_t == max(cfg.nt_tiers):
                        names.add(fname)
                        assert (out / fname).read_bytes() == (ref / fname).read_bytes(), fname
                    elif (out / fname).read_bytes() != (ref / fname).read_bytes():
                        differs_from_lower_tier = True
        assert names == {f.name for f in out.glob("*_K*.txt")}
        assert differs_from_lower_tier  # the check can tell the tiers apart

    def test_tiny_config_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY_BACHELIER, encoding="utf-8")
        rc = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert rows[1].startswith("strike")
        assert len(rows) == 2 + 3  # header comment + header + one row per tier

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nkind = heston\n", encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("old, new, named", [
        ("weights = [1, 1, 1]", "weights = [1, 1]", "2 weights for 3 assets"),
        ("weights = [1, 1, 1]", "weights = [1, 0, 1]", "nonzero"),
        ("strikes = [310]", "strikes = [0]", "strike must be positive"),
        ("m_paths = 2000", "m_paths = 1e3", "m_paths"),
        ("seed = 6", "seed = 6\n\n[outputs]\nexport_value_grids = on", "export_value_grids"),
        ("weights = [1, 1, 1]", "weights = random(seed=x)", "weights generator random: seed"),
        ("weights = [1, 1, 1]", "weights = random(total=2)", "weights generator random: seed"),
        ("sigma = [[20, 1, 0], [0, 20, 2], [0, 0, 20]]", "sigma = upper_random(diag=20)",
         "sigma generator upper_random: seed"),
        ("weights = [1, 1, 1]", "weights = random(seed=1.5)",
         "weights generator random: seed must be an integer"),
        ("weights = [1, 1, 1]", "weights = random(seed=11, totl=50)",
         "weights generator random: unknown argument 'totl'"),
        ("sigma = [[20, 1, 0], [0, 20, 2], [0, 0, 20]]",
         "vols = [20, 20, 20]\ncorrelation = random(seed=11, bsae=0.9)",
         "correlation generator random: unknown argument 'bsae'"),
        ("seed = 6", "seed = 6\nsurface_slices = 0",
         "surface_slices must be an integer of at least 1"),
        ("seed = 6", "seed = 6\nsurface_abscissae = 3",
         "surface_abscissae must be an integer of at least 4"),
        ("seed = 6", "seed = 6\nc_coupling = 0", "c_coupling must be positive"),
        ("seed = 6", "seed = 6\nc_coupling = -1", "c_coupling must be positive"),
        ("seed = 6", "seed = 6\nc_coupling = 0.05",
         "c_coupling at the smallest tier 32: need at least 3 space nodes"),
        ("nt_tiers = [32, 64, 128]", "nt_tiers = [true, 2, 4]", "true or false"),
        ("strikes = [310]", "strikes = [true]", "true or false"),
        ("x0 = [100, 100, 100]", "x0 = [Infinity, 100, 100]", "x0 must be finite"),
        ("r = 0.05", "r = nan", "r must be finite"),
        ("T = 0.25", "T = inf", "T must be finite"),
        ("weights = [1, 1, 1]", "weights = [NaN, 1, 1]", "weights must be finite"),
        ("strikes = [310]", "strikes = [Infinity]", "strikes must be finite"),
        ("seed = 6", "seed = 6\nc_coupling = inf", "c_coupling must be finite"),
        ("seed = 6", "seed = 6\nc_coupling = 1e308", "c_coupling at the smallest tier 32"),
        ("strikes = [310]", "strikes = 315", "strikes must be a list of numbers"),
        ("x0 = [100, 100, 100]", "x0 = 100", "x0 must be a list of numbers"),
        ("strikes = [310]", "strikes = [[310]]", "strikes must be a list of numbers"),
        ("x0 = [100, 100, 100]", 'x0 = ["100", 100, 100]', "x0 must be a list of numbers"),
        ("strikes = [310]", f"strikes = [1{'0' * 400}]", "strikes must be finite"),
    ], ids=["weights-length", "zero-weight", "strike", "non-numeric", "bool-word",
            "generator-not-a-number", "generator-without-seed", "sigma-generator-without-seed",
            "generator-fractional-seed", "generator-misspelled-total", "generator-misspelled-base",
            "zero-slices", "too-few-abscissae", "zero-coupling", "negative-coupling",
            "coupling-too-small-for-the-first-tier", "bool-tier", "bool-strike",
            "infinite-x0", "nan-rate", "infinite-maturity", "nan-weight", "infinite-strike",
            "infinite-coupling", "coupling-overflowing-the-grid", "unbracketed-strikes",
            "unbracketed-x0", "nested-strikes", "quoted-x0", "strike-past-the-largest-float"])
    def test_config_mistake_exit_code(self, tmp_path, capsys, old, new, named):
        assert old in TINY_BACHELIER
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_BACHELIER.replace(old, new), encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["convergence", "surface"])
    def test_zero_weight_writes_nothing(self, tmp_path, capsys, command):
        # the run command takes this case in test_config_mistake_exit_code
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_BACHELIER.replace("weights = [1, 1, 1]", "weights = [1, 0, 1]"),
                        encoding="utf-8")
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "config error: portfolio weights must all be nonzero" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("corr, named", [
        ("[[1.0, 0.5], [0.4, 1.0]]", "must be symmetric"),
        ("[[1, 1], [1, 1]]", "not positive definite"),
        ("[[1.0, 0.5], [0.5, 2.0]]", "unit diagonal"),
    ], ids=["non-symmetric", "singular", "non-unit-diagonal"])
    def test_correlation_mistake_exit_code(self, tmp_path, capsys, corr, named):
        old = "correlation = [[1.0, 0.5], [0.5, 1.0]]"
        assert old in TWO_ASSET_BS
        path = tmp_path / "bad.cfg"
        path.write_text(TWO_ASSET_BS.replace(old, f"correlation = {corr}"), encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: correlation matrix" in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", [run_experiment, convergence_study],
                             ids=["run", "convergence"])
    @pytest.mark.parametrize("tiers", [[], [0, 16]], ids=["empty", "zero"])
    def test_code_built_bad_tiers_write_nothing(self, tmp_path, entry, tiers):
        # a config built in code never passed parse_config's validate
        cfg = appendix2d()
        cfg.nt_tiers = tiers
        with pytest.raises(ConfigError, match="nt_tiers must be positive integers"):
            entry(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("new", ["nt_tiers = []", "nt_tiers = [0, 16]", "nt_tiers = [16.0, 32.0]",
                                     "m_paths = 0"])
    def test_bad_tiers_or_paths_exit_before_any_output(self, tmp_path, capsys, new):
        # rejected as the config is read, before the run writes anything
        path = tmp_path / "bad.cfg"
        old = "m_paths = 2000" if new.startswith("m_paths") else "nt_tiers = [32, 64, 128]"
        path.write_text(TINY_BACHELIER.replace(old, new), encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"config error: {new.split()[0]} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_config_exit_code(self):
        assert main(["run"]) == EXIT_CONFIG

    def test_missing_config_file_exit_code(self, capsys):
        assert main(["run", "/does/not/exist.cfg"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestHighDimensionalPresets:
    @pytest.mark.parametrize("name", ["bs10d", "bs25d"])
    def test_desk_scale_smoke(self, tmp_path, name):
        # tiny-scale pass through the full pipeline; the slow-tier gates live
        # in test_slow_presets.py
        cfg = get_preset(name)
        cfg.nt_tiers = [64]
        cfg.m_paths = 2000
        cfg.surface_slices = 8
        cfg.strikes = cfg.strikes[-2:]
        rep = run_experiment(cfg, tmp_path / name)
        assert rep.passed
        for r in rep.rows:
            assert r.a_minus <= r.a_plus + 2.0 * (r.se_minus + r.se_plus) + 1e-12
            assert np.isfinite(r.hjb_american)


class TestValidatePieces:
    def test_full_validate_passes_on_fresh_checkout(self, capsys):
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "FAIL" not in out
        for name in ("laplace-price", "quadrature", "solver-1d",
                     "bachelier-exact-surface", "bachelier-bracket",
                     "hjb-dominance", "exact-vs-laplace"):
            assert name in out

    def test_appendix_checks_pass(self):
        cfg = appendix2d()
        checks = appendix_checks(cfg.build_model(), cfg.build_portfolio())
        assert all(c.passed for c in checks)

    def test_corrupted_floor_reported(self, monkeypatch):
        # fault injection: an absurd volatility floor must break the solver
        # fidelity check (reported as a failure, not raised)
        good = check_solver_1d()
        assert good.passed
        surface_cls = pipeline.surface_mod.CoefficientSurface
        monkeypatch.setattr(pipeline.surface_mod, "CoefficientSurface",
                            lambda **kw: surface_cls(**{**kw, "floor": 1e6}))
        bad = check_solver_1d()
        assert not bad.passed
        assert "rel err" in bad.detail

    def test_laplace_failure_is_a_failed_check(self, monkeypatch):
        # no Newton maximization may iterate: every Laplace value is NaN, and
        # each check on it reports that instead of raising; the quadrature
        # reference runs no Newton solve, so it still holds
        monkeypatch.setattr(projection, "NEWTON_MAX_ITER", 0)
        cfg = appendix2d()
        checks = appendix_checks(cfg.build_model(), cfg.build_portfolio())
        assert [c.name for c in checks] == ["laplace-price", "laplace-log-price",
                                            "quadrature", "coords-agreement"]
        assert [c.passed for c in checks] == [False, False, True, False]
        assert [("nan" in c.detail) for c in checks] == [True, True, False, True]

    def test_laplace_failure_exits_with_a_named_stage(self, monkeypatch, capsys):
        # the bs3d surface of hjb-dominance then has no slice to fit; that check
        # fails naming the stage, and every other check still reports: exit 1
        monkeypatch.setattr(projection, "NEWTON_MAX_ITER", 0)
        assert main(["validate"]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert "stage failure" not in captured.err
        lines = captured.out.splitlines()
        status = {line.split()[1]: line.split()[0] for line in lines[:-1]}
        assert list(status) == ["laplace-price", "laplace-log-price", "quadrature",
                                "coords-agreement", "solver-1d", "bachelier-exact-surface",
                                "bachelier-bracket", "hjb-dominance", "exact-vs-laplace"]
        for name in ("quadrature", "solver-1d", "bachelier-exact-surface", "bachelier-bracket"):
            assert status[name] == "PASS", name
        assert status["hjb-dominance"] == "FAIL"
        dominance = next(line for line in lines if line.split()[1] == "hjb-dominance")
        assert "StageError: [surface] slice t=" in dominance
        assert lines[-1] == "4/9 checks passed"

    def test_bachelier_build_failure_is_one_failed_check(self, monkeypatch):
        # both Bachelier checks read one surface; when its build raises, the
        # suite reports one `bachelier` failure naming the error, as for `appendix`
        def broken():
            raise RuntimeError("no bachelier5d")

        monkeypatch.setattr(presets, "bachelier5d", broken)
        for check, name in (("check_solver_1d", "solver-1d"), ("check_dominance", "hjb-dominance"),
                            ("check_exact_vs_laplace", "exact-vs-laplace")):
            monkeypatch.setattr(pipeline, check, lambda name=name: CheckResult(name, True, ""))
        checks = validation_checks()
        assert [(c.name, c.passed) for c in checks[4:]] == [
            ("solver-1d", True), ("bachelier", False),
            ("hjb-dominance", True), ("exact-vs-laplace", True)]
        assert checks[5].detail == "RuntimeError: no bachelier5d"

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--out-dir", "elsewhere"]])
    def test_takes_no_seed_or_out_dir(self, flag):
        # every check runs its own preset's seed and writes nothing
        with pytest.raises(SystemExit) as exc:
            main(["validate", *flag])
        assert exc.value.code == EXIT_CONFIG


class TestConvergenceCommand:
    def test_deterministic_model_biases_zero(self, tmp_path, capsys):
        path = tmp_path / "det.cfg"
        path.write_text(DETERMINISTIC, encoding="utf-8")
        rc = main(["convergence", str(path), "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "undefined" in out
        table = np.genfromtxt(tmp_path / "out" / "convergence.csv", delimiter=",",
                              skip_header=2, comments="#")
        assert np.allclose(table[:, 5:9], 0.0, atol=1e-14)

    def test_tiny_convergence_runs(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY_BACHELIER, encoding="utf-8")
        rc = main(["convergence", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "convergence.csv").exists()

    def test_threads_flag_reaches_the_kernel(self, tmp_path, monkeypatch):
        from basketproj import mc

        seen = []
        kernel = mc.simulate_tiers_coupled

        def spy(*args, **kwargs):
            seen.append(kwargs.get("threads"))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(mc, "simulate_tiers_coupled", spy)
        path = tmp_path / "det.cfg"
        path.write_text(DETERMINISTIC, encoding="utf-8")
        rc = main(["convergence", str(path), "--out-dir", str(tmp_path / "out"), "--threads", "2"])
        assert rc == EXIT_OK
        assert seen == [2]

    def test_bounds_failure_names_stage_and_tiers(self, tmp_path, monkeypatch, capsys):
        def broken_pass(*args, **kwargs):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(pipeline.mc, "simulate_tiers_coupled", broken_pass)
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY_BACHELIER, encoding="utf-8")
        rc = main(["convergence", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_INVARIANT
        # the tier list includes the doubled top tier
        assert ("stage failure: [bounds] coupled pass over tiers [32, 64, 128, 256]: "
                "injected kernel fault") in capsys.readouterr().err

    def test_rejects_uncoupled_tiers_before_any_work(self, tmp_path, monkeypatch):
        def no_surface(*args):
            raise AssertionError("the surface was built before the tiers were checked")

        monkeypatch.setattr(pipeline, "build_surface_from_config", no_surface)
        cfg = get_preset("bachelier-exact")
        cfg.nt_tiers = [6, 8, 10]  # 6 and 8 do not divide the top tier 10
        with pytest.raises(ConfigError, match=r"nt_tiers \[6, 8, 10\]: \[6, 8\] do not divide 10"):
            convergence_study(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        # the command exits as run does on the same mistake
        path = tmp_path / "uncoupled.cfg"
        path.write_text(DETERMINISTIC.replace("16, 32, 64", "24, 64, 128"), encoding="utf-8")
        rc = main(["convergence", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_rejects_a_ladder_that_does_not_double(self, tmp_path, monkeypatch, capsys):
        # every tier divides the top tier, but 12 is not twice 8: no A(2 N_t) to compare
        def no_surface(*args):
            raise AssertionError("the surface was built before the tiers were checked")

        monkeypatch.setattr(pipeline, "build_surface_from_config", no_surface)
        path = tmp_path / "uneven.cfg"
        path.write_text(DETERMINISTIC.replace("16, 32, 64", "8, 12, 24"), encoding="utf-8")
        rc = main(["convergence", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert ("config error: nt_tiers [8, 12, 24]: convergence needs at least 3 tiers, "
                "each twice the one before") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_surface_failure_names_its_stage(self, tmp_path, monkeypatch, capsys):
        def broken_surface(*args, **kwargs):
            raise ValueError("injected surface fault")

        monkeypatch.setattr(pipeline.surface_mod, "build_surface", broken_surface)
        rc = main(["convergence", "--preset", "bachelier-exact", "--out-dir", str(tmp_path)])
        assert rc == EXIT_INVARIANT
        assert "stage failure: [surface] injected surface fault" in capsys.readouterr().err

    def test_needs_three_tiers(self, tmp_path, capsys):
        rc = main(["convergence", "--preset", "appendix2d", "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "needs at least 3 tiers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["validate", "--threads", "2"],
                                  ["surface", "--preset", "appendix2d", "--threads", "2"],
                                  ["run", "--preset", "appendix2d", "--threads", "0"]])
def test_threads_flag_only_where_it_acts(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("command, expected", [
    # three tiers and the doubled top tier
    ("convergence", [(16, 1), (32, 1), (64, 1), (128, 1)]),
    # the top tier's value grid is recomputed from its sweep, not solved again
    ("run", [(16, 1), (32, 1), (64, 1)]),
], ids=["convergence", "run"])
def test_one_sweep_per_tier(tmp_path, monkeypatch, command, expected):
    sweeps = []
    solve = hjb.solve

    def spy(surf, payoffs, grid):
        sweeps.append((grid.n_t, len(payoffs)))
        return solve(surf, payoffs, grid)

    monkeypatch.setattr(pipeline.hjb, "solve", spy)
    path = tmp_path / "det.cfg"
    path.write_text(DETERMINISTIC + "\n[outputs]\nexport_value_grids = true\n",
                    encoding="utf-8")
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    assert sweeps == expected
    assert bool(list((tmp_path / "out").glob("values_K*.txt"))) == (command == "run")


@pytest.mark.parametrize("command, failing", [("run", 64), ("convergence", 64),
                                              ("convergence", 256)])
def test_sweep_failure_names_its_tier(tmp_path, monkeypatch, capsys, command, failing):
    solve = hjb.solve

    def broken_tier(surf, payoffs, grid):
        if grid.n_t == failing:
            raise RuntimeError("injected sweep fault")
        return solve(surf, payoffs, grid)

    monkeypatch.setattr(pipeline.hjb, "solve", broken_tier)
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_BACHELIER, encoding="utf-8")
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_INVARIANT
    assert f"stage failure: [tier-{failing}] injected sweep fault" in capsys.readouterr().err


class TestSurfaceCommand:
    def test_emits_loadable_table(self, tmp_path):
        rc = main(["surface", "--preset", "appendix2d", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        surf = load_surface(tmp_path / "surface.txt")
        assert surf.slice_times.size == 16

    @pytest.mark.parametrize("failing", ["one slice", "every slice"])
    def test_slice_without_laplace_values_is_a_stage_failure(self, tmp_path, monkeypatch,
                                                              capsys, failing):
        # a slice whose every level fails may not drop out of the fit unnoticed
        laplace = pipeline.surface_mod.projected_vol_sq
        calls = []

        def failing_slices(model, p, t, s):
            calls.append(t)
            if failing == "every slice" or len(calls) == 4:
                return np.full(s.shape, np.nan), dict.fromkeys(range(s.size), "injected fault")
            return laplace(model, p, t, s)

        monkeypatch.setattr(pipeline.surface_mod, "projected_vol_sq", failing_slices)
        rc = main(["surface", "--preset", "bs3d", "--out-dir", str(tmp_path)])
        assert rc == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "stage failure: [surface] slice t=" in err
        assert "need at least 4 points, got 0" in err
        assert not (tmp_path / "surface.txt").exists()

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BASKETPROJ_OUT", str(tmp_path / "envout"))
        rc = main(["surface", "--preset", "appendix2d"])
        assert rc == EXIT_OK
        assert (tmp_path / "envout" / "surface.txt").exists()


class TestImportGraph:
    def test_cli_import_leaves_scipy_stats_out(self):
        # every CLI run pays the import time and memory of whatever this graph
        # pulls in; the oracles need no quadrature or special-function library,
        # and of scipy.linalg only the compiled LAPACK wrappers are loaded
        modules = ["scipy.stats", "scipy.integrate", "scipy.special", "scipy.optimize",
                   "scipy.interpolate", "scipy.linalg", "scipy._lib.array_api_compat"]
        code = ("import sys, basketproj.cli; "
                f"print([m for m in {modules!r} if m in sys.modules], "
                "'scipy.linalg._flapack' in sys.modules)")
        assert fresh_python(code) == "[] True"

    @pytest.mark.parametrize("first, second", [("basketproj.cli", "scipy.linalg"),
                                               ("scipy.linalg", "basketproj.cli")])
    def test_one_lapack_extension_in_either_import_order(self, first, second):
        code = (f"import sys, {first}, {second}, basketproj.hjb, basketproj.density; "
                "flapack = sys.modules['scipy.linalg._flapack']; "
                "print(scipy.linalg.lapack.dgtsv is basketproj.hjb.gtsv, "
                "scipy.linalg.lapack._flapack is flapack, "
                "basketproj.density.dpotrs is flapack.dpotrs)")
        assert fresh_python(code) == "True True True"

    def test_bound_ordering_z_is_the_normal_quantile(self):
        from scipy.stats import norm

        assert BOUND_ORDERING_Z.hex() == float(norm.ppf(0.975)).hex()
