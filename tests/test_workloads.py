"""The benchmark's workloads (perfbench/workloads.py) must still fit the config.

A workload overrides preset keys by name and the worker stops on a key the
config lacks; these tests make a removed key fail here as well, and make each
retired surface setting a loud config error rather than a silent no-op.
"""

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from basketproj.config import ConfigError, ExperimentConfig, parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
FIELDS = {f.name for f in fields(ExperimentConfig)}

MINIMAL = """
[model]
kind = black-scholes
T = 0.5
x0 = [100, 100]
vols = [0.2, 0.2]
correlation = [[1, 0.5], [0.5, 1]]

[portfolio]
weights = [1, 1]

[payoff]
strikes = [200]

[numerics]
"""

RETIRED = ("m_pilot", "pilot_steps", "surface_degree", "surface_floor", "expansion_coords",
           "newton_tol", "newton_max_iter", "ci_level", "appendix_check")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def test_every_override_is_a_config_field():
    workloads = _load_workloads().WORKLOADS
    keys = {k for w in workloads.values() for k in (*w.full, *w.tiny)}
    assert keys and keys <= FIELDS
    assert "c_coupling" in FIELDS  # the traced layer report builds its grid from it


@pytest.mark.parametrize("key", RETIRED)
def test_retired_key_is_a_config_error(key):
    assert key not in FIELDS
    with pytest.raises(ConfigError, match=key):
        parse_config(MINIMAL + f"{key} = 1\n")
