"""Shipped experiment presets.

The 2d appendix case, the desk-scaled Bachelier verification, and the 3d, 10d
and 25d Black-Scholes parametrizations.  The 10d and 25d presets (and the
50-asset Bachelier original) are slow-tier: shipped and runnable, but not part
of the default test run.
"""

from __future__ import annotations

from .config import ExperimentConfig

# The raw table is not symmetric (seven clashing pairs); the preset uses the
# symmetrized average, which is strictly positive definite.
_10D_CORRELATION_RAW = [
    [1.0, 0.2, 0.2, 0.35, 0.2, 0.25, 0.2, 0.2, 0.3, 0.2],
    [0.2, 1.0, 0.2, 0.2, 0.2, 0.125, 0.45, 0.2, 0.2, 0.45],
    [0.2, 0.2, 1.0, 0.2, 0.2, 0.2, 0.2, 0.2, 0.45, 0.2],
    [0.35, 0.2, 0.2, 1.0, 0.2, 0.2, 0.2, 0.2, 0.425, 0.2],
    [0.25, 0.125, 0.2, 0.2, 1.0, 0.2, 0.2, 0.5, 0.35, 0.2],
    [0.2, 0.45, 0.2, 0.2, 0.2, 1.0, 0.2, 0.2, 0.2, 0.2],
    [0.2, 0.45, 0.2, 0.2, 0.2, 0.2, 1.0, 0.2, 0.2, 0.2],
    [0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 1.0, 0.2, -0.1],
    [0.3, 0.2, 0.45, 0.425, 0.5, 0.35, 0.2, 0.2, 1.0, 0.2],
    [0.2, 0.45, 0.2, 0.2, 0.2, 0.2, 0.2, -0.1, 0.2, 1.0],
]


def _symmetrized(rows):
    n = len(rows)
    return [[0.5 * (rows[i][j] + rows[j][i]) for j in range(n)] for i in range(n)]


_10D_CORRELATION = _symmetrized(_10D_CORRELATION_RAW)


def appendix2d() -> ExperimentConfig:
    """Two uncorrelated lognormal assets at 10% vol; hand-checkable projection values."""
    return ExperimentConfig(
        kind="black-scholes", r=0.0, T=1.0,
        x0=[100.0, 100.0],
        vols=[0.1, 0.1],
        correlation=[[1.0, 0.0], [0.0, 1.0]],
        weights=[1.0, 1.0],
        strikes=[200.0],
        nt_tiers=[256, 512],
        m_paths=20_000,
        seed=1,
    )


def bachelier5d() -> ExperimentConfig:
    """Desk-scaled exactness check: constant-volatility basket, ATM put, T=1/4."""
    return ExperimentConfig(
        kind="bachelier", r=0.05, T=0.25,
        x0=[100.0] * 5,
        sigma="upper_random(diag=20, seed=5)",
        weights=[1.0] * 5,
        strikes=[500.0],
        nt_tiers=[512, 1024, 2048, 4096],
        m_paths=128_000,
        seed=2,
    )


def bachelier50d() -> ExperimentConfig:
    """Full 50-asset version of the exactness study; extended run, hours not minutes."""
    return ExperimentConfig(
        kind="bachelier", r=0.05, T=0.25,
        x0=[100.0] * 50,
        sigma="upper_random(diag=20, seed=5)",
        weights=[1.0] * 50,
        strikes=[5000.0],
        nt_tiers=[16_000, 32_000, 64_000, 128_000],
        m_paths=128_000,
        seed=2,
    )


def bs3d() -> ExperimentConfig:
    """Three moderately correlated lognormal assets, strike sweep at T=1/2."""
    return ExperimentConfig(
        kind="black-scholes", r=0.05, T=0.5,
        x0=[100.0, 100.0, 100.0],
        vols=[0.2, 0.15, 0.1],
        correlation=[[1.0, 0.8, 0.3], [0.8, 1.0, 0.1], [0.3, 0.1, 1.0]],
        weights=[1.0, 1.0, 1.0],
        strikes=[240.0, 260.0, 280.0, 300.0, 320.0, 340.0],
        nt_tiers=[512, 1024, 2048, 4096],
        m_paths=128_000,
        seed=3,
    )


def bs10d() -> ExperimentConfig:
    """Ten assets at 12.5% vol with the dense correlation structure; slow tier."""
    return ExperimentConfig(
        kind="black-scholes", r=0.05, T=0.5,
        x0=[100.0] * 10,
        vols=[0.125] * 10,
        correlation=_10D_CORRELATION,
        weights=[1.0] * 10,
        strikes=[800.0, 900.0, 1000.0, 1100.0, 1200.0],
        nt_tiers=[512, 1024, 2048, 4096],
        m_paths=128_000,
        seed=4,
    )


def bs25d() -> ExperimentConfig:
    """Twenty-five assets with seeded random correlation and randomized weights; slow tier.

    The correlation structure of the source study is external, so a seeded
    random replica is generated: identity plus symmetric noise projected back
    to a correlation matrix, weights uniform on [1/2, 3/2] rescaled to sum 25.
    """
    return ExperimentConfig(
        kind="black-scholes", r=0.05, T=0.5,
        x0=[100.0] * 25,
        vols=[0.15] * 25,
        correlation="random(seed=11, base=0.2)",
        weights="random(seed=11, total=25)",
        strikes=[2250.0, 2500.0, 2750.0],
        nt_tiers=[512, 1024, 2048, 4096],
        m_paths=128_000,
        seed=5,
    )


PRESETS = {
    "appendix2d": appendix2d,
    "bachelier-exact": bachelier5d,
    "bachelier50d": bachelier50d,
    "bs3d": bs3d,
    "bs10d": bs10d,
    "bs25d": bs25d,
}


def get_preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None
