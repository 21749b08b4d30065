import numpy as np
import pytest

from basketproj import density, projection
from basketproj.density import ExpansionCoords, LogIntegrands
from basketproj.model import ModelKind, ModelSpec, Portfolio
from basketproj.oracle import binned_conditional_vol, quadrature_projected_vol
from basketproj.projection import (NewtonError, laplace_point, newton_maximize,
                                   newton_start, projected_vol_sq)
from basketproj.presets import get_preset
from basketproj.rng import derive_seed


class TestNewton:
    def test_quadratic_converges_in_one_iteration(self):
        a = np.array([1.5, -2.0])
        h = -np.array([[3.0, 0.4], [0.4, 2.0]])

        def derivs(z):
            dev = z - a
            return float(0.5 * dev @ h @ dev), h @ dev, h

        res = newton_maximize(derivs, np.array([40.0, -13.0]))
        assert res.iterations == 1
        assert np.allclose(res.z, a, atol=1e-12)

    def test_appendix_maximizer_log_price(self, appendix_model, appendix_portfolio):
        # the symmetric point up to the lognormal drift correction O(sig^2/2)
        li = LogIntegrands(appendix_model, appendix_portfolio, 1.0, 200.0,
                           ExpansionCoords.LOG_PRICE)
        res = newton_maximize(li.f_derivs, np.array([0.3]))
        assert abs(res.z[0]) < 0.01

    def test_appendix_maximizer_price_exactly_symmetric(self, appendix_model, appendix_portfolio):
        li = LogIntegrands(appendix_model, appendix_portfolio, 1.0, 200.0,
                           ExpansionCoords.PRICE)
        res = newton_maximize(li.ftilde_derivs, np.array([130.0]))
        assert res.z[0] == pytest.approx(100.0, abs=1e-8)

    def test_bachelier_maximizer_is_conditional_mean(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        t, s = 0.25, 460.0
        li = LogIntegrands(m, p, t, s, ExpansionCoords.PRICE)
        z0 = newton_start(li)
        res = newton_maximize(li.ftilde_derivs, z0 + 30.0)
        # closed-form Gaussian conditioning
        scale = np.expm1(2 * m.r * t) / (2 * m.r)
        cov = m.omega * scale
        mean = m.x0 * np.exp(m.r * t)
        w = p.weights
        cp = cov @ w
        cond = mean + cp * (s - w @ mean) / (w @ cp)
        assert np.allclose(res.z, cond[li.chart.free], atol=1e-8)

    def test_terminal_minimum_rejected(self):
        # a stationary start with positive curvature: converged, but not a maximum
        def derivs(z):
            return float(z @ z), 2.0 * z, 2.0 * np.eye(2)

        with pytest.raises(NewtonError, match="not negative definite"):
            newton_maximize(derivs, np.zeros(2))

    def test_max_iter_exceeded(self, monkeypatch):
        # -z^4: each Newton step only shrinks z by a third, so convergence
        # takes a couple dozen iterations
        def derivs(z):
            return float(-z[0] ** 4), np.array([-4.0 * z[0] ** 3]), np.array([[-12.0 * z[0] ** 2]])

        assert newton_maximize(derivs, np.array([4.0])).iterations > 3
        monkeypatch.setattr(projection, "NEWTON_MAX_ITER", 3)
        with pytest.raises(NewtonError, match="within 3 iterations"):
            newton_maximize(derivs, np.array([4.0]))

    def test_start_outside_support(self, appendix_model, appendix_portfolio):
        li = LogIntegrands(appendix_model, appendix_portfolio, 1.0, 200.0,
                           ExpansionCoords.PRICE)
        with pytest.raises(NewtonError):
            newton_maximize(li.f_derivs, np.array([260.0]))


class TestProjectedVolSq:
    def test_appendix_value_both_coords(self, appendix_model, appendix_portfolio):
        lap_p = projected_vol_sq(appendix_model, appendix_portfolio, 1.0, 200.0,
                                 coords=ExpansionCoords.PRICE)
        lap_l = projected_vol_sq(appendix_model, appendix_portfolio, 1.0, 200.0,
                                 coords=ExpansionCoords.LOG_PRICE)
        for lap in (lap_p, lap_l):
            assert lap == pytest.approx(200.99, abs=0.05)
        # frozen first-principles values (regression pins)
        assert lap_p == pytest.approx(201.02302, abs=1e-4)
        assert lap_l == pytest.approx(201.01228, abs=1e-4)
        assert abs(lap_p - lap_l) < 1e-3 * lap_p

    def test_appendix_vs_quadrature(self, appendix_model, appendix_portfolio):
        lap = projected_vol_sq(appendix_model, appendix_portfolio, 1.0, 200.0)
        quad = quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 200.0)
        assert quad == pytest.approx(200.98, abs=0.02)
        assert abs(lap - quad) / quad < 5e-4

    def test_bachelier_constant(self):
        m = ModelSpec(kind=ModelKind.BACHELIER, r=0.0, sigma=np.diag([20.0, 20.0]),
                      x0=[100.0, 100.0], T=1.0)
        p = Portfolio([1.0, 1.0])
        for t, s in ((0.1, 50.0), (0.9, 300.0)):
            assert projected_vol_sq(m, p, t, s) == pytest.approx(800.0, rel=1e-15)

    def test_bachelier_exactness_on_envelope(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        row = p.weights @ m.sigma
        analytic = float(row @ row)
        for t in (0.05, 0.15, 0.25):
            for s in np.linspace(420.0, 580.0, 9):
                got = projected_vol_sq(m, p, t, float(s))
                assert abs(got - analytic) <= 1e-12 * analytic

    def test_laplace_tracks_quadrature_across_region(self, appendix_model, appendix_portfolio):
        for t in (0.25, 0.5, 1.0):
            for s in np.linspace(180.0, 220.0, 5):
                lap = projected_vol_sq(appendix_model, appendix_portfolio, t, float(s))
                quad = quadrature_projected_vol(appendix_model, appendix_portfolio, t, float(s))
                assert abs(lap - quad) / quad < 1e-3

    def test_scaling_consistency(self, bs3d_model, bs3d_portfolio):
        lam = 3.7
        scaled = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=bs3d_model.r,
                           sigma=bs3d_model.sigma, x0=lam * bs3d_model.x0, T=bs3d_model.T)
        base_p = projected_vol_sq(bs3d_model, bs3d_portfolio, 0.5, 310.0,
                                  coords=ExpansionCoords.PRICE)
        scal_p = projected_vol_sq(scaled, bs3d_portfolio, 0.5, lam * 310.0,
                                  coords=ExpansionCoords.PRICE)
        # exact up to Newton termination asymmetry (the gradient tolerance
        # floor max(1, |H|) is not scale-invariant)
        assert scal_p == pytest.approx(lam**2 * base_p, rel=5e-10)
        base_l = projected_vol_sq(bs3d_model, bs3d_portfolio, 0.5, 310.0,
                                  coords=ExpansionCoords.LOG_PRICE)
        scal_l = projected_vol_sq(scaled, bs3d_portfolio, 0.5, lam * 310.0,
                                  coords=ExpansionCoords.LOG_PRICE)
        assert scal_l == pytest.approx(lam**2 * base_l, rel=1e-8)

    def test_positive_wherever_finite(self, bs3d_model, bs3d_portfolio):
        for s in np.linspace(220.0, 400.0, 13):
            v = projected_vol_sq(bs3d_model, bs3d_portfolio, 0.4, float(s))
            assert np.isfinite(v) and v > 0.0

    def test_binned_mc_agreement_3d(self, bs3d_model, bs3d_portfolio):
        # exact-in-law conditional expectation vs Laplace at envelope points
        t = 0.5
        table = binned_conditional_vol(bs3d_model, bs3d_portfolio, t, 400_000, bins=30,
                                       seed=derive_seed(3, "binned-test"))
        assert len(table) >= 20
        n_ok = 0
        for s, est, se in table:
            lap = projected_vol_sq(bs3d_model, bs3d_portfolio, t, float(s))
            n_ok += abs(lap - est) <= 3.0 * se + 1e-3 * est
        assert n_ok >= 0.85 * len(table)

    def test_laplace_point_record(self, appendix_model, appendix_portfolio):
        lp = laplace_point(appendix_model, appendix_portfolio, 1.0, 200.0)
        assert lp.value == pytest.approx(201.012, abs=1e-2)
        assert lp.iterations > 0
        assert np.isfinite(lp.logdet_hf) and np.isfinite(lp.logdet_hftilde)


class TestCoords:
    def test_default_log_price_for_bs(self, bs3d_model, bs3d_portfolio):
        li = LogIntegrands(bs3d_model, bs3d_portfolio, 0.5, 300.0)
        assert li.coords is ExpansionCoords.LOG_PRICE

    def test_default_price_for_bachelier(self, bachelier5_model, bachelier5_portfolio):
        li = LogIntegrands(bachelier5_model, bachelier5_portfolio, 0.25, 500.0)
        assert li.coords is ExpansionCoords.PRICE

    def test_log_price_rejected_for_bachelier(self, bachelier5_model, bachelier5_portfolio):
        with pytest.raises(ValueError):
            LogIntegrands(bachelier5_model, bachelier5_portfolio, 0.25, 500.0, "log-price")


class TestOneSetUpPerPoint:
    # float.hex of projected_vol_sq before the Laplace set-up was shared per point
    PINNED = {
        "appendix": [(1.0, 200.0, "price", "0x1.920bc9e09e190p+7"),
                     (1.0, 200.0, "log-price", "0x1.92064971f90c6p+7")],
        "bs3d": [(0.5, 300.0, None, "0x1.4ea224b45da8ep+10"),
                 (0.125, 290.0, None, "0x1.36c400dda66a9p+10"),
                 (0.375, 320.0, None, "0x1.8941cebecdd8ep+10")],
        "bs25d": [(0.25, 2500.0, None, "0x1.17ed218dd88d5p+12"),
                  (0.5, 2400.0, None, "0x1.e6423dfe6f607p+11")],
    }

    @pytest.fixture
    def models(self, appendix_model, appendix_portfolio, bs3d_model, bs3d_portfolio):
        cfg = get_preset("bs25d")
        return {"appendix": (appendix_model, appendix_portfolio),
                "bs3d": (bs3d_model, bs3d_portfolio),
                "bs25d": (cfg.build_model(), cfg.build_portfolio())}

    def test_values_pinned_to_the_bit(self, models):
        for name, points in self.PINNED.items():
            m, p = models[name]
            for t, s, coords, hexval in points:
                assert projected_vol_sq(m, p, t, s, coords=coords) == float.fromhex(hexval)

    def test_one_factorization_per_point(self, models, monkeypatch):
        calls = {"cho_factor": 0, "cho_solve": 0, "cholesky": 0, "derivs": 0}

        def counted(name, fun):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fun(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(density, "cho_factor", counted("cho_factor", density.cho_factor))
        monkeypatch.setattr(density, "cho_solve", counted("cho_solve", density.cho_solve))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        for attr in ("f_derivs", "ftilde_derivs"):
            monkeypatch.setattr(LogIntegrands, attr,
                                counted("derivs", getattr(LogIntegrands, attr)))
        for name, points in self.PINNED.items():
            m, p = models[name]
            for t, s, coords, _ in points:
                calls.update(dict.fromkeys(calls, 0))
                projected_vol_sq(m, p, t, s, coords=coords)
                assert calls["cho_factor"] == 1           # the transition covariance
                assert calls["cholesky"] == 2             # one per Newton maximization
                # one solve per derivative evaluation, one for the inverse covariance
                assert calls["cho_solve"] == calls["derivs"] + 1
