"""Flat INI-style experiment configuration.

Sections [model], [portfolio], [payoff], [numerics], [outputs]; vectors and
matrices are bracketed JSON-style lists.  Volatility structure is given either
as per-asset vols plus a correlation matrix (factored internally), an explicit
loading matrix, or one of the seeded generators used by the shipped presets:

    correlation = random(seed=3, base=0.2)      # noisy correlation, eigenvalue-clipped
    sigma = upper_random(diag=20, seed=5)       # Bachelier upper-triangular mixing
    weights = random(seed=7, total=25)          # uniform [1/2, 3/2], rescaled to sum
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import re
from dataclasses import dataclass, field, asdict

import numpy as np

from .hjb import DEFAULT_COUPLING, make_grid
from .model import ModelKind, ModelSpec, Portfolio, PutPayoff, correlation_to_sigma
from .rng import derive_seed
from .surface import DEFAULT_ABSCISSAE, DEFAULT_DEGREE, DEFAULT_SLICES

_GEN_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")
# eigenvalue floor of random_correlation before the diagonal is renormalized
CORRELATION_CLIP = 1e-3


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


def _numbers(value):
    """The entries of a scalar or of a (nested) list, one at a time."""
    if isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    else:
        yield value


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

    # model (required)
    kind: str = ""
    r: float = 0.0
    T: float = 0.0
    x0: list = field(default_factory=list)
    vols: list | None = None
    correlation: list | str | None = None
    sigma: list | str | None = None
    # portfolio (required)
    weights: list | str = ""
    # payoff
    strikes: list = field(default_factory=list)
    # numerics
    nt_tiers: list = field(default_factory=lambda: [512, 1024, 2048, 4096])
    c_coupling: float = DEFAULT_COUPLING
    m_paths: int = 100_000
    surface_slices: int = DEFAULT_SLICES
    surface_abscissae: int = DEFAULT_ABSCISSAE
    seed: int = 1
    # outputs
    out_dir: str = ""
    export_value_grids: bool = False

    def validate(self) -> None:
        if self.kind not in ("bachelier", "black-scholes"):
            raise ConfigError(f"model kind must be bachelier or black-scholes, got {self.kind!r}")
        for key in ("r", "T", "c_coupling", "x0", "vols", "correlation", "sigma", "weights",
                    "strikes"):
            value = getattr(self, key)
            if any(isinstance(v, float) and not np.isfinite(v) for v in _numbers(value)):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if not self.x0:
            raise ConfigError("model x0 is required")
        if not self.T > 0:
            raise ConfigError("model T must be positive")
        if not self.weights:
            raise ConfigError("portfolio weights are required")
        if not isinstance(self.weights, str) and len(self.weights) != len(self.x0):
            raise ConfigError(f"{len(self.weights)} weights for {len(self.x0)} assets")
        if not self.strikes:
            raise ConfigError("at least one strike is required")
        tiers = list(self.nt_tiers)
        if not tiers or not all(type(n_t) is int and n_t > 0 for n_t in tiers):
            raise ConfigError(f"nt_tiers must be positive integers, got {self.nt_tiers!r}")
        if any(b <= a for a, b in zip(tiers, tiers[1:])):
            raise ConfigError("nt_tiers must be strictly increasing")
        bad = [n_t for n_t in tiers if tiers[-1] % n_t]
        if bad:
            raise ConfigError(f"nt_tiers {tiers}: {bad} do not divide {tiers[-1]}, "
                              "the step count of the coupled Monte Carlo pass")
        for key, least in (("m_paths", 1), ("surface_slices", 1),
                           ("surface_abscissae", DEFAULT_DEGREE + 1)):
            value = getattr(self, key)
            if type(value) is not int or value < least:
                raise ConfigError(f"{key} must be an integer of at least {least}, got {value!r}")
        if not self.c_coupling > 0:
            raise ConfigError(f"c_coupling must be positive, got {self.c_coupling!r}")
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

_SECTIONS = {
    "model": ["kind", "r", "T", "x0", "vols", "correlation", "sigma"],
    "portfolio": ["weights"],
    "payoff": ["strikes"],
    "numerics": ["nt_tiers", "c_coupling", "m_paths", "surface_slices",
                 "surface_abscissae", "seed"],
    "outputs": ["out_dir", "export_value_grids"],
}

_LIST_KEYS = {"x0", "vols", "correlation", "sigma", "weights", "strikes", "nt_tiers"}
_INT_KEYS = {"m_paths", "surface_slices", "surface_abscissae", "seed"}
_FLOAT_KEYS = {"r", "T", "c_coupling"}
_BOOL_KEYS = {"export_value_grids"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    cfg = ExperimentConfig()
    known = {k: sec for sec, keys in _SECTIONS.items() for k in keys}
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in cp.items(sec):
            if key not in known or known[key] != sec:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            setattr(cfg, key, _parse_value(key, raw.strip()))
    cfg.validate()
    return cfg


def _parse_value(key: str, raw: str):
    if key in _LIST_KEYS:
        if raw.startswith("["):
            return _parse_list(raw)
        return raw  # generator expression or symbolic value
    if key in _INT_KEYS or key in _FLOAT_KEYS:
        cast = int if key in _INT_KEYS else float
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be {cast.__name__}, got {raw!r}") from exc
    if key in _BOOL_KEYS:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"{key} = {raw!r} is not one of {', '.join(_BOOL_WORDS)}")
        return _BOOL_WORDS[raw.lower()]
    return raw


def serialize_config(cfg: ExperimentConfig) -> str:
    out = io.StringIO()
    values = asdict(cfg)
    for sec, keys in _SECTIONS.items():
        lines = []
        for key in keys:
            val = values[key]
            if val is None or val == "" or (key in _BOOL_KEYS and not val):
                continue
            lines.append(f"{key} = {_format_value(val)}")
        if lines:
            out.write(f"[{sec}]\n")
            out.write("\n".join(lines))
            out.write("\n\n")
    return out.getvalue()


def _format_value(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (list, tuple)):
        return json.dumps(val)
    return str(val)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
