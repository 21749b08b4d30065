import itertools
from dataclasses import fields

import numpy as np
import pytest

from basketproj import config
from basketproj.config import (ConfigError, ExperimentConfig, config_hash, load_config,
                               parse_config, random_correlation, serialize_config)
from basketproj.model import ModelKind
from basketproj.presets import PRESETS, get_preset

MINIMAL = """
[model]
kind = black-scholes
r = 0.05
T = 0.5
x0 = [100, 100]
vols = [0.2, 0.2]
correlation = [[1, 0.5], [0.5, 1]]

[portfolio]
weights = [1, 1]

[payoff]
strikes = [200]
"""


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.nt_tiers == [512, 1024, 2048, 4096]
        assert cfg.m_paths == 100_000
        assert cfg.seed == 1

    def test_roundtrip_identity(self):
        cfg = parse_config(MINIMAL)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_all_presets_roundtrip(self):
        for name in PRESETS:
            cfg = get_preset(name)
            assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("name, digest", [
        ("appendix2d", "421fd9df09ca1f57"), ("bachelier-exact", "ef82fdb3b40f7dde"),
        ("bachelier50d", "22d82e3daebc1d43"), ("bs3d", "78d7dc8ee62d3e41"),
        ("bs10d", "d38ea726692747ec"), ("bs25d", "53d62ad8a8590f09"),
    ])
    def test_preset_hash_pinned(self, name, digest):
        # the hash names every output directory's config; a change to the text moves it
        assert config_hash(get_preset(name)) == digest

    def test_key_table_declares_every_field_once(self):
        assert set(config._KEYS) == {f.name for f in fields(ExperimentConfig)}
        # serialize_config writes a section header per run of keys, so a section is one run
        sections = [sec for sec, _ in itertools.groupby(s for s, _, _ in config._KEYS.values())]
        assert len(sections) == len(set(sections))

    @pytest.mark.parametrize("key, value", [("strikes", 315.0), ("x0", [[100], [100]]),
                                            ("x0", np.array([100.0, 100.0])), ("strikes", (200,)),
                                            ("r", "0.05"), ("seed", 1.5),
                                            ("export_value_grids", "yes"), ("sigma", [0.2, 0.2]),
                                            ("weights", [1, True])])
    def test_code_built_value_of_the_wrong_kind_rejected(self, key, value):
        cfg = parse_config(MINIMAL)
        setattr(cfg, key, value)
        with pytest.raises(ConfigError, match=f"{key} must be"):
            cfg.validate()

    def test_hash_stable_and_sensitive(self):
        cfg = parse_config(MINIMAL)
        h1 = config_hash(cfg)
        assert h1 == config_hash(parse_config(MINIMAL))
        cfg.seed = 99
        assert config_hash(cfg) != h1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[numerics]\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[plotting]\ncolor = red\n")

    def test_missing_strikes_rejected(self):
        bad = MINIMAL.replace("strikes = [200]", "")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_decreasing_tiers_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[numerics]\nnt_tiers = [512, 256]\n")

    @pytest.mark.parametrize("line", ["nt_tiers = []", "nt_tiers = [0, 16]", "nt_tiers = [-16, 32]",
                                      "nt_tiers = [16.0, 32.0]", "m_paths = 0"])
    def test_tiers_and_paths_must_be_positive_integers(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(MINIMAL + f"\n[numerics]\n{line}\n")

    def test_bool_tier_rejected(self):
        # json reads true as True, which isinstance(..., int) takes for a one-step tier
        with pytest.raises(ConfigError, match="true or false"):
            parse_config(MINIMAL + "\n[numerics]\nnt_tiers = [true, 2, 4]\n")
        cfg = parse_config(MINIMAL)
        cfg.nt_tiers = [True, 2, 4]
        with pytest.raises(ConfigError, match="nt_tiers must be positive integers"):
            cfg.validate()

    @pytest.mark.parametrize("old, new, build", [
        ("correlation = [[1, 0.5], [0.5, 1]]", "correlation = random(seed=11, bsae=0.9)",
         "build_model"),
        ("weights = [1, 1]", "weights = random(seed=11, totl=50)", "build_portfolio"),
    ], ids=["correlation", "weights"])
    def test_misspelled_generator_argument_rejected(self, old, new, build):
        cfg = parse_config(MINIMAL.replace(old, new))
        with pytest.raises(ConfigError, match="unknown argument"):
            getattr(cfg, build)()

    def test_malformed_matrix_rejected(self):
        bad = MINIMAL.replace("[[1, 0.5], [0.5, 1]]", "[[1, 0.5], [0.5]]")
        with pytest.raises(ConfigError, match="correlation must be"):
            parse_config(bad)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL, encoding="utf-8")
        assert load_config(path) == parse_config(MINIMAL)


class TestBuild:
    def test_model_from_vols_and_correlation(self):
        cfg = parse_config(MINIMAL)
        m = cfg.build_model()
        assert m.kind is ModelKind.BLACK_SCHOLES
        omega = m.omega
        assert omega[0, 0] == pytest.approx(0.04)
        assert omega[0, 1] == pytest.approx(0.5 * 0.2 * 0.2)

    def test_explicit_sigma(self):
        cfg = parse_config(MINIMAL.replace("vols = [0.2, 0.2]", "")
                           .replace("correlation = [[1, 0.5], [0.5, 1]]",
                                    "sigma = [[0.2, 0], [0.1, 0.17]]"))
        m = cfg.build_model()
        assert np.allclose(m.sigma, [[0.2, 0.0], [0.1, 0.17]])

    def test_upper_random_sigma_reproducible(self):
        cfg = get_preset("bachelier-exact")
        a = cfg.build_model().sigma
        b = get_preset("bachelier-exact").build_model().sigma
        assert np.array_equal(a, b)
        assert np.allclose(np.diag(a), 20.0)
        assert np.allclose(np.tril(a, -1), 0.0)

    def test_random_weights_sum(self):
        cfg = get_preset("bs25d")
        p = cfg.build_portfolio()
        assert p.weights.size == 25
        assert float(p.weights.sum()) == pytest.approx(25.0)
        assert np.all((p.weights > 0.3) & (p.weights < 1.8))

    def test_random_correlation_is_valid(self):
        c = random_correlation(25, seed=11, base=0.2)
        assert np.allclose(np.diag(c), 1.0)
        assert np.allclose(c, c.T)
        assert np.min(np.linalg.eigvalsh(c)) > 0.0
        # seeded: regenerating gives the same matrix
        assert np.array_equal(c, random_correlation(25, seed=11, base=0.2))

    def test_preset_models_build(self):
        for name in PRESETS:
            cfg = get_preset(name)
            m = cfg.build_model()
            p = cfg.build_portfolio()
            assert m.d == p.d
            assert all(k > 0 for k in cfg.strikes)

    def test_missing_volatility_spec_rejected(self):
        bad = MINIMAL.replace("vols = [0.2, 0.2]", "").replace(
            "correlation = [[1, 0.5], [0.5, 1]]", "")
        with pytest.raises(ConfigError):
            parse_config(bad)
