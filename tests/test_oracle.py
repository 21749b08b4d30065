import numpy as np
import pytest

from basketproj import oracle
from basketproj.model import ModelKind, ModelSpec, Portfolio, correlation_to_sigma
from basketproj.oracle import binomial_american_put_1d, quadrature_projected_vol
from basketproj.presets import bs3d
from support import vol_sq_at

STRESS_C_LEVELS = (40.0, 120.0, 200.0, 300.0, 500.0)
BS3D_LEVELS = np.array([240.0, 300.0, 380.0])
STRESS_B_LEVELS = np.array([150.0, 300.0, 700.0])


def stress_c(vols=(0.9, 0.3)):
    """Two assets at 100, correlation 0.3, r = 0.05, T = 3: a skewed hyperplane law."""
    return ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.05,
                     sigma=correlation_to_sigma(list(vols), [[1.0, 0.3], [0.3, 1.0]]),
                     x0=[100.0, 100.0], T=3.0)


def bs3d_model(order=(0, 1, 2), vols=(0.2, 0.15, 0.1), T=0.5):
    """The bs3d preset's model with the assets taken in the given order."""
    cfg = bs3d()
    i = list(order)
    return ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=cfg.r,
                     sigma=correlation_to_sigma(np.array(vols)[i],
                                                np.array(cfg.correlation)[np.ix_(i, i)]),
                     x0=np.array(cfg.x0)[i], T=T)


def stress_b(order=(0, 1, 2)):
    """bs3d with vols (0.9, 0.1, 0.5) over T = 3: a strongly skewed plane law in d = 3."""
    return bs3d_model(order, vols=(0.9, 0.1, 0.5), T=3.0)


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
        # at d = 3 each order pins a different asset's logit at 0: another grid on the plane
        weights = np.array([1.0, 2.0, 0.5])
        for model, t, levels in ((bs3d_model, 0.5, BS3D_LEVELS), (stress_b, 1.5, STRESS_B_LEVELS)):
            base = quadrature_projected_vol(model(), Portfolio(weights), t, levels)
            for order in ((2, 0, 1), (1, 2, 0)):
                got = quadrature_projected_vol(model(order), Portfolio(weights[list(order)]), t,
                                               levels)
                assert np.allclose(got, base, rtol=1e-12, atol=0.0), (model.__name__, order)

    def _on_reference_points(self, appendix_model, appendix_portfolio):
        """The values at the d = 2 points, then at the d = 3 points."""
        p3 = Portfolio(np.ones(3))
        return (np.array([quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 200.0),
                          *quadrature_projected_vol(stress_c(), appendix_portfolio, 3.0,
                                                    np.array(STRESS_C_LEVELS))]),
                np.concatenate([quadrature_projected_vol(bs3d_model(), p3, 0.5, BS3D_LEVELS),
                                quadrature_projected_vol(stress_b(), p3, 1.5, STRESS_B_LEVELS),
                                quadrature_projected_vol(stress_b(), p3, 2.7, STRESS_B_LEVELS)]))

    def test_node_halving_invariance(self, appendix_model, appendix_portfolio, monkeypatch):
        base_2d, base_3d = self._on_reference_points(appendix_model, appendix_portfolio)
        monkeypatch.setattr(oracle, "U_SPACING", 0.5 * oracle.U_SPACING)
        fine_2d, fine_3d = self._on_reference_points(appendix_model, appendix_portfolio)
        assert np.allclose(fine_2d, base_2d, rtol=1e-14, atol=0.0)
        assert np.allclose(fine_3d, base_3d, rtol=1e-12, atol=0.0)

    def test_interval_doubling_invariance(self, appendix_model, appendix_portfolio, monkeypatch):
        base_2d, base_3d = self._on_reference_points(appendix_model, appendix_portfolio)
        monkeypatch.setattr(oracle, "U_HALF_WIDTH", 2.0 * oracle.U_HALF_WIDTH)
        wide_2d, wide_3d = self._on_reference_points(appendix_model, appendix_portfolio)
        assert np.allclose(wide_2d, base_2d, rtol=1e-14, atol=0.0)
        assert np.allclose(wide_3d, base_3d, rtol=1e-12, atol=0.0)

    def test_levels_at_once_equal_levels_one_by_one(self):
        p = Portfolio(np.ones(3))
        together = quadrature_projected_vol(stress_b(), p, 1.5, STRESS_B_LEVELS)
        alone = [quadrature_projected_vol(stress_b(), p, 1.5, s) for s in STRESS_B_LEVELS]
        assert together.tolist() == alone

    def test_one_asset_is_its_own_basket(self):
        m = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.05, sigma=np.array([[0.3]]),
                      x0=[100.0], T=1.0)
        got = quadrature_projected_vol(m, Portfolio([2.0]), 0.5, np.array([150.0, 250.0]))
        assert np.allclose(got, 0.09 * np.array([150.0, 250.0]) ** 2, rtol=1e-15)

    def test_bachelier_rejected(self):
        # Bachelier's exact constant is projection.projected_vol_sq's alone
        m = ModelSpec(kind=ModelKind.BACHELIER, r=0.0, sigma=np.diag([20.0, 25.0]),
                      x0=[100.0, 100.0], T=1.0)
        with pytest.raises(ValueError, match="Black-Scholes"):
            quadrature_projected_vol(m, Portfolio([1.0, 1.0]), 1.0, 210.0)

    def test_close_agreement_with_laplace(self, appendix_model, appendix_portfolio):
        quad = quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 200.0)
        lap = vol_sq_at(appendix_model, appendix_portfolio, 1.0, 200.0)
        assert abs(lap - quad) / quad < 5e-4

    def test_at_most_three_assets(self):
        m = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.05, sigma=np.diag(np.full(4, 0.2)),
                      x0=np.full(4, 100.0), T=0.5)
        with pytest.raises(ValueError, match="d <= 3"):
            quadrature_projected_vol(m, Portfolio(np.ones(4)), 0.5, 400.0)

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
