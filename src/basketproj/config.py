"""Flat INI-style experiment configuration.

Sections [model], [portfolio], [payoff], [numerics], [outputs].  `_KEYS` is the
one declaration of every key: its section, its kind and its lower bound, read
by parse_config, ExperimentConfig.validate and serialize_config.  Lists are
bracketed JSON-style lists.  Volatility structure is given either as per-asset
vols plus a correlation matrix (factored internally), an explicit loading
matrix, or one of the seeded generators used by the shipped presets:

    correlation = random(seed=3, base=0.2)      # noisy correlation, eigenvalue-clipped
    sigma = upper_random(diag=20, seed=5)       # Bachelier upper-triangular mixing
    weights = random(seed=7, total=25)          # uniform [1/2, 3/2], rescaled to sum
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import json
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .hjb import DEFAULT_COUPLING, make_grid
from .model import ModelKind, ModelSpec, Portfolio, PutPayoff, correlation_to_sigma
from .rng import derive_seed
from .surface import DEFAULT_ABSCISSAE, DEFAULT_DEGREE, DEFAULT_SLICES

_GEN_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")
# eigenvalue floor of random_correlation before the diagonal is renormalized
CORRELATION_CLIP = 1e-3

# The kinds of value a key takes, worded as its errors name them.  Every number
# must be finite as a float, and true and false are not numbers.  A generator is
# the text of a call, such as random(seed=3, base=0.2), that build_*() realizes.
STRING, BOOL, NUMBER, INTEGER = "a string", "true or false", "a number", "an integer"
NUMBERS, INTEGERS = "a list of numbers", "a list of integers"
NUMBERS_OR_GENERATOR = "a list of numbers or a generator"
MATRIX_OR_GENERATOR = "a list of equal-length lists of numbers or a generator"

# key -> (section, kind, bound): the numbers of a bounded key must exceed its bound.
# Sections and keys are written in this order.
_KEYS = {
    "kind": ("model", STRING, None),
    "r": ("model", NUMBER, None),
    "T": ("model", NUMBER, 0),
    "x0": ("model", NUMBERS, None),
    "vols": ("model", NUMBERS, None),
    "correlation": ("model", MATRIX_OR_GENERATOR, None),
    "sigma": ("model", MATRIX_OR_GENERATOR, None),
    "weights": ("portfolio", NUMBERS_OR_GENERATOR, None),
    "strikes": ("payoff", NUMBERS, None),
    "nt_tiers": ("numerics", INTEGERS, 0),
    "c_coupling": ("numerics", NUMBER, 0),
    "m_paths": ("numerics", INTEGER, 0),
    "surface_slices": ("numerics", INTEGER, 0),
    "surface_abscissae": ("numerics", INTEGER, DEFAULT_DEGREE),
    "seed": ("numerics", INTEGER, None),
    "out_dir": ("outputs", STRING, None),
    "export_value_grids": ("outputs", BOOL, None),
}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _generator_args(key: str, text: str, name: str, **numbers) -> dict:
    """The arguments of the `name(k=v, ...)` value given for config key `key`.

    numbers maps each float argument to its default (None: required); every
    generator draws from a seeded stream, so an integer `seed` is required too.
    """
    m = _GEN_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse {key} {text!r}")
    if m.group(1) != name:
        raise ConfigError(f"unknown {key} generator {m.group(1)!r}")
    kwargs = {"seed": None, **numbers}
    for part in filter(None, map(str.strip, m.group(2).split(","))):
        k, eq, v = (x.strip() for x in part.partition("="))
        if not eq:
            raise ConfigError(f"{key} generator {name}: argument {part!r} must be key=value")
        if k not in kwargs:
            raise ConfigError(f"{key} generator {name}: unknown argument {k!r}")
        try:
            kwargs[k] = int(v) if k == "seed" else float(v)
            if not np.isfinite(kwargs[k]):
                raise ValueError(v)
        except ValueError as exc:
            kind = "an integer" if k == "seed" else "a finite number"
            raise ConfigError(f"{key} generator {name}: {k} must be {kind}, got {v!r}") from exc
    for k, v in kwargs.items():
        if v is None:
            raise ConfigError(f"{key} generator {name}: {k} is required")
    return kwargs


def _entries(kind: str, value) -> list | None:
    """The numbers that value holds as a value of this kind, or None if it is not one."""
    if isinstance(value, str) and kind in (STRING, NUMBERS_OR_GENERATOR, MATRIX_OR_GENERATOR):
        return []
    if kind in (STRING, BOOL):
        return [] if kind == BOOL and isinstance(value, bool) else None
    array = np.array(value, dtype=object)  # a ragged list is a 1-d array of lists
    depth = 0 if kind in (NUMBER, INTEGER) else 2 if kind == MATRIX_OR_GENERATOR else 1
    number = int if kind in (INTEGER, INTEGERS) else (int, float)
    if (array.ndim == depth and (depth == 0 or isinstance(value, list))
            and all(isinstance(v, number) and not isinstance(v, bool) for v in array.flat)):
        return list(array.flat)
    return None


def _parse_list(text: str):
    if re.search(r"\b(true|false)\b", text):
        raise ConfigError(f"list value {text!r} holds true or false where numbers belong")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse list value {text!r}") from exc


@dataclass
class ExperimentConfig:
    """Parsed experiment description; validate() checks it, the build_*() methods realize it."""

    kind: str = ""
    r: float = 0.0
    T: float = 0.0
    x0: list = field(default_factory=list)
    vols: list | None = None
    correlation: list | str | None = None
    sigma: list | str | None = None
    weights: list | str = ""
    strikes: list = field(default_factory=list)
    nt_tiers: list = field(default_factory=lambda: [512, 1024, 2048, 4096])
    c_coupling: float = DEFAULT_COUPLING
    m_paths: int = 100_000
    surface_slices: int = DEFAULT_SLICES
    surface_abscissae: int = DEFAULT_ABSCISSAE
    seed: int = 1
    out_dir: str = ""
    export_value_grids: bool = False

    def validate(self) -> None:
        if self.kind not in ("bachelier", "black-scholes"):
            raise ConfigError(f"model kind must be bachelier or black-scholes, got {self.kind!r}")
        for f in fields(self):
            _, kind, bound = _KEYS[f.name]
            value = getattr(self, f.name)
            # None, where it is the default, is a key left out
            entries = [] if value is None and f.default is None else _entries(kind, value)
            if entries is not None and any(not abs(v) <= sys.float_info.max for v in entries):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if entries is None or (bound is not None and not (entries and min(entries) > bound)):
                if bound is not None:  # every bound but an integer's is 0
                    kind = (f"{kind} of at least {bound + 1}" if kind == INTEGER
                            else "positive integers" if kind == INTEGERS else "positive")
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        if not self.x0:
            raise ConfigError("model x0 is required")
        if not self.weights:
            raise ConfigError("portfolio weights are required")
        if not isinstance(self.weights, str) and len(self.weights) != len(self.x0):
            raise ConfigError(f"{len(self.weights)} weights for {len(self.x0)} assets")
        if not self.strikes:
            raise ConfigError("at least one strike is required")
        tiers = self.nt_tiers
        if any(b <= a for a, b in zip(tiers, tiers[1:])):
            raise ConfigError("nt_tiers must be strictly increasing")
        bad = [n_t for n_t in tiers if tiers[-1] % n_t]
        if bad:
            raise ConfigError(f"nt_tiers {tiers}: {bad} do not divide {tiers[-1]}, "
                              "the step count of the coupled Monte Carlo pass")
        try:
            make_grid(0.0, 1.0, self.T, tiers[0], c=self.c_coupling)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"c_coupling at the smallest tier {tiers[0]}: {exc}") from exc
        if self.sigma is None and self.vols is None:
            raise ConfigError("provide either sigma or vols+correlation")
        if self.vols is not None and self.correlation is None:
            raise ConfigError("vols given without a correlation matrix")

    # -- realized objects ---------------------------------------------------

    def build_model(self) -> ModelSpec:
        self.validate()
        x0 = np.array(self.x0, dtype=float)
        d = x0.size
        try:
            if self.sigma is not None:
                sig = self._build_sigma(d)
            else:
                vols = np.array(self.vols, dtype=float)
                corr = self._build_correlation(d)
                if vols.size != d:
                    raise ConfigError(f"{vols.size} vols for {d} assets")
                sig = correlation_to_sigma(vols, corr)
            return ModelSpec(kind=ModelKind(self.kind), r=self.r, sigma=sig, x0=x0, T=self.T)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_portfolio(self) -> Portfolio:
        if isinstance(self.weights, str):
            d = len(self.x0)
            kw = _generator_args("weights", self.weights, "random", total=float(d))
            rng = np.random.Generator(np.random.Philox(key=derive_seed(kw["seed"], "weights")))
            w = rng.uniform(0.5, 1.5, size=d)
            w *= kw["total"] / w.sum()
        else:
            w = np.array(self.weights, dtype=float)
        try:
            return Portfolio(w)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_payoffs(self) -> list[PutPayoff]:
        try:
            return [PutPayoff(float(k)) for k in self.strikes]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _build_sigma(self, d: int) -> np.ndarray:
        if isinstance(self.sigma, str):
            kw = _generator_args("sigma", self.sigma, "upper_random", diag=None)
            rng = np.random.Generator(np.random.Philox(key=derive_seed(kw["seed"], "sigma")))
            sig = np.diag(np.full(d, kw["diag"]))
            iu = np.triu_indices(d, 1)
            sig[iu] = rng.standard_normal(iu[0].size)
            return sig
        sig = np.array(self.sigma, dtype=float)
        if sig.shape[0] != d:
            raise ConfigError(f"sigma has {sig.shape[0]} rows for {d} assets")
        return sig

    def _build_correlation(self, d: int) -> np.ndarray:
        if isinstance(self.correlation, str):
            kw = _generator_args("correlation", self.correlation, "random", base=0.2)
            return random_correlation(d, kw["seed"], kw["base"])
        corr = np.array(self.correlation, dtype=float)
        if corr.shape != (d, d):
            raise ConfigError(f"correlation shape {corr.shape} for {d} assets")
        return corr


def random_correlation(d: int, seed: int, base: float) -> np.ndarray:
    """Identity plus symmetric off-diagonal noise, projected to a correlation matrix.

    Eigenvalues are clipped at CORRELATION_CLIP before renormalizing the diagonal to one.
    """
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "correlation")))
    a = rng.standard_normal((d, d))
    noise = base * 0.5 * (a + a.T)
    np.fill_diagonal(noise, 0.0)
    c = np.eye(d) + noise
    ev, vec = np.linalg.eigh(c)
    c = (vec * np.maximum(ev, CORRELATION_CLIP)) @ vec.T
    dinv = 1.0 / np.sqrt(np.diag(c))
    c = c * np.outer(dinv, dinv)
    np.fill_diagonal(c, 1.0)
    return 0.5 * (c + c.T)


# -- text round trip ---------------------------------------------------------

def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    cfg = ExperimentConfig()
    for sec in cp.sections():
        if sec not in {section for section, _, _ in _KEYS.values()}:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in cp.items(sec):
            if key not in _KEYS or _KEYS[key][0] != sec:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            setattr(cfg, key, _parse_value(key, raw.strip()))
    cfg.validate()
    return cfg


def _parse_value(key: str, raw: str):
    """The text of a key's value as a Python value; validate() checks its kind."""
    kind = _KEYS[key][1]
    if kind in (NUMBER, INTEGER):
        try:
            return int(raw) if kind == INTEGER else float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be {kind}, got {raw!r}") from exc
    if kind == BOOL:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"{key} = {raw!r} is not one of {', '.join(_BOOL_WORDS)}")
        return _BOOL_WORDS[raw.lower()]
    if kind != STRING and raw.startswith("["):
        return _parse_list(raw)
    return raw


def serialize_config(cfg: ExperimentConfig) -> str:
    text = ""
    for sec, keys in itertools.groupby(_KEYS, key=lambda key: _KEYS[key][0]):
        lines = [f"{key} = {val if isinstance(val, str) else json.dumps(val)}" for key in keys
                 if not ((val := getattr(cfg, key)) is None or val == "" or val is False)]
        if lines:
            text += f"[{sec}]\n" + "\n".join(lines) + "\n\n"
    return text


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
