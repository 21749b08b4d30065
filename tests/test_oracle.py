import numpy as np
import pytest

from basketproj import oracle
from basketproj.model import ModelKind, ModelSpec, Portfolio, correlation_to_sigma
from basketproj.oracle import (binned_conditional_vol, binomial_american_put_1d,
                               quadrature_projected_vol, sample_exact)
from basketproj.rng import derive_seed
from support import vol_sq_at

STRESS_C_LEVELS = (40.0, 120.0, 200.0, 300.0, 500.0)


def stress_c(vols=(0.9, 0.3)):
    """Two assets at 100, correlation 0.3, r = 0.05, T = 3: a skewed hyperplane law."""
    return ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.05,
                     sigma=correlation_to_sigma(list(vols), [[1.0, 0.3], [0.3, 1.0]]),
                     x0=[100.0, 100.0], T=3.0)


class TestQuadrature:
    def test_appendix_reference_value(self, appendix_model, appendix_portfolio):
        got = quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 200.0)
        assert got == pytest.approx(200.98, abs=0.02)

    def test_asset_order_invariance(self, appendix_portfolio):
        # the law does not know the asset order, so neither may its reference
        for s in STRESS_C_LEVELS:
            a = quadrature_projected_vol(stress_c((0.9, 0.3)), appendix_portfolio, 3.0, s)
            b = quadrature_projected_vol(stress_c((0.3, 0.9)), appendix_portfolio, 3.0, s)
            assert abs(a - b) <= 1e-12 * abs(a), s

    def _on_reference_points(self, appendix_model, appendix_portfolio):
        points = [(appendix_model, 1.0, 200.0)] + [(stress_c(), 3.0, s) for s in STRESS_C_LEVELS]
        return [quadrature_projected_vol(m, appendix_portfolio, t, s) for m, t, s in points]

    def test_node_halving_invariance(self, appendix_model, appendix_portfolio, monkeypatch):
        base = self._on_reference_points(appendix_model, appendix_portfolio)
        monkeypatch.setattr(oracle, "U_NODES", (oracle.U_NODES + 1) // 2)
        coarse = self._on_reference_points(appendix_model, appendix_portfolio)
        assert np.allclose(coarse, base, rtol=1e-14, atol=0.0)

    def test_interval_doubling_invariance(self, appendix_model, appendix_portfolio, monkeypatch):
        base = self._on_reference_points(appendix_model, appendix_portfolio)
        monkeypatch.setattr(oracle, "U_HALF_WIDTH", 2.0 * oracle.U_HALF_WIDTH)
        monkeypatch.setattr(oracle, "U_NODES", 2 * oracle.U_NODES - 1)  # the same spacing
        wide = self._on_reference_points(appendix_model, appendix_portfolio)
        assert np.allclose(wide, base, rtol=1e-14, atol=0.0)

    def test_bachelier_2d_exact(self):
        m = ModelSpec(kind=ModelKind.BACHELIER, r=0.0, sigma=np.diag([20.0, 25.0]),
                      x0=[100.0, 100.0], T=1.0)
        p = Portfolio([1.0, 1.0])
        got = quadrature_projected_vol(m, p, 1.0, 210.0)
        assert got == pytest.approx(400.0 + 625.0, rel=1e-10)

    def test_close_agreement_with_laplace(self, appendix_model, appendix_portfolio):
        quad = quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 200.0)
        lap = vol_sq_at(appendix_model, appendix_portfolio, 1.0, 200.0)
        assert abs(lap - quad) / quad < 5e-4

    def test_requires_two_assets(self, bs3d_model, bs3d_portfolio):
        with pytest.raises(ValueError):
            quadrature_projected_vol(bs3d_model, bs3d_portfolio, 0.5, 300.0)

    def test_requires_positive_weights_and_level(self, appendix_model, appendix_portfolio):
        with pytest.raises(ValueError, match="positive weights"):
            quadrature_projected_vol(appendix_model, Portfolio([1.0, -1.0]), 1.0, 50.0)
        with pytest.raises(ValueError, match="s > 0"):
            quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 0.0)


class TestBinomial:
    def test_zero_vol_limit(self):
        assert binomial_american_put_1d(90.0, 1e-8, 0.0, 100.0, 1.0, 500) == pytest.approx(10.0, abs=1e-6)
        assert binomial_american_put_1d(110.0, 1e-8, 0.0, 100.0, 1.0, 500) == pytest.approx(0.0, abs=1e-9)

    def test_short_maturity_limit(self):
        assert binomial_american_put_1d(95.0, 0.2, 0.05, 100.0, 1e-7, 16) == pytest.approx(5.0, abs=1e-4)

    def test_reference_configuration(self):
        # frozen value for the solver-fidelity oracle, vol=0.2, r=0.05, T=0.5
        got = binomial_american_put_1d(100.0, 0.2, 0.05, 100.0, 0.5, 10_000)
        assert got == pytest.approx(4.6556232, abs=1e-6)
        finer = binomial_american_put_1d(100.0, 0.2, 0.05, 100.0, 0.5, 20_000)
        assert abs(finer - got) < 2e-4

    def test_monotone_in_vol_and_maturity(self):
        lo = binomial_american_put_1d(100.0, 0.1, 0.03, 100.0, 0.5, 800)
        hi = binomial_american_put_1d(100.0, 0.3, 0.03, 100.0, 0.5, 800)
        assert hi > lo
        short = binomial_american_put_1d(100.0, 0.2, 0.03, 100.0, 0.25, 800)
        long = binomial_american_put_1d(100.0, 0.2, 0.03, 100.0, 1.0, 800)
        assert long > short

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            binomial_american_put_1d(100.0, 0.2, 0.05, 100.0, 0.5, 1)


class TestBinnedConditionalVol:
    def test_bachelier_bins_equal_constant(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        row = p.weights @ m.sigma
        const = float(row @ row)
        table = binned_conditional_vol(m, p, 0.25, 20_000, bins=12, seed=1)
        assert len(table) >= 5
        assert np.allclose(table[:, 1], const, rtol=1e-12)
        assert np.allclose(table[:, 2], 0.0, atol=1e-9)

    def test_appendix_bin_matches_reference(self, appendix_model, appendix_portfolio):
        table = binned_conditional_vol(appendix_model, appendix_portfolio, 1.0,
                                       400_000, bins=30, seed=derive_seed(1, "binned"))
        idx = int(np.argmin(np.abs(table[:, 0] - 200.0)))
        s, est, se = table[idx]
        assert abs(s - 200.0) < 4.0
        # the conditional-expectation target at the realized bin level; at
        # s=200 exactly this is the 200.98 reference
        target = quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, float(s))
        assert abs(est - target) <= 3.0 * se + 0.02
        assert quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 200.0) == \
            pytest.approx(200.98, abs=0.02)

    def test_3d_skew_sign_matches_laplace(self, bs3d_model, bs3d_portfolio):
        m, p = bs3d_model, bs3d_portfolio
        table = binned_conditional_vol(m, p, 0.5, 200_000, bins=24,
                                       seed=derive_seed(3, "binned"))
        binned_slope = np.polyfit(table[:, 0], table[:, 1], 1)[0]
        lap_lo = vol_sq_at(m, p, 0.5, table[2, 0])
        lap_hi = vol_sq_at(m, p, 0.5, table[-3, 0])
        assert np.sign(binned_slope) == np.sign(lap_hi - lap_lo)

    def test_convergence_rate_in_samples(self, appendix_model, appendix_portfolio):
        ses = []
        for m_samples, seed in ((50_000, 21), (200_000, 22)):
            table = binned_conditional_vol(appendix_model, appendix_portfolio, 1.0,
                                           m_samples, bins=20, seed=seed)
            idx = int(np.argmin(np.abs(table[:, 0] - 200.0)))
            s, est, se = table[idx]
            target = quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, float(s))
            assert abs(est - target) <= 3.0 * se + 0.02
            ses.append(se)
        assert 1.4 <= ses[0] / ses[1] <= 2.8  # ~ M^{-1/2}

    def test_small_bins_dropped(self, appendix_model, appendix_portfolio):
        table = binned_conditional_vol(appendix_model, appendix_portfolio, 1.0,
                                       20_000, bins=200, seed=5)
        # extreme bins hold < 50 samples and must be gone
        assert len(table) < 200

    def test_sample_size_floor(self, appendix_model, appendix_portfolio):
        with pytest.raises(ValueError):
            binned_conditional_vol(appendix_model, appendix_portfolio, 1.0, 5000,
                                   bins=10, seed=1)

    def test_exact_sampling_moments(self, bachelier5_model):
        m = bachelier5_model
        x = sample_exact(m, 0.25, 200_000, seed=8)
        scale = np.expm1(2 * m.r * 0.25) / (2 * m.r)
        target_cov = m.omega * scale
        target_mean = m.x0 * np.exp(m.r * 0.25)
        se = np.sqrt(np.diag(target_cov) / x.shape[0])
        assert np.all(np.abs(x.mean(axis=0) - target_mean) < 5 * se)
        # entrywise cov noise ~ sqrt(C_ii C_jj / n) ~ 0.23 here
        assert np.allclose(np.cov(x.T), target_cov, rtol=0.05, atol=1.5)
