import numpy as np
import pytest

from basketproj import density, projection, surface
from basketproj.density import ExpansionCoords, LogIntegrands
from basketproj.model import ModelKind, ModelSpec, Portfolio
from basketproj.oracle import quadrature_projected_vol
from basketproj.projection import laplace_point, newton_maximize, projected_vol_sq
from basketproj.presets import get_preset
from basketproj.rng import derive_seed
from support import fresh_python, vol_sq_at


def _stacked(fun):
    """derivs(s, z) for a stack from a one-point (value, gradient, Hessian) function."""
    def derivs(s, z):
        rows = [fun(row) for row in z]
        return tuple(np.array([r[k] for r in rows]) for k in range(3))
    return derivs


class TestNewton:
    def test_quadratic_converges_in_one_iteration(self):
        a = np.array([1.5, -2.0])
        h = -np.array([[3.0, 0.4], [0.4, 2.0]])

        def point(z):
            dev = z - a
            return float(0.5 * dev @ h @ dev), h @ dev, h

        res = newton_maximize(_stacked(point), np.zeros(1), np.array([[40.0, -13.0]]))
        assert res.iterations[0] == 1
        assert np.allclose(res.z[0], a, atol=1e-12)

    def test_appendix_maximizer_log_price(self, appendix_model, appendix_portfolio):
        # the symmetric point up to the lognormal drift correction O(sig^2/2)
        li = LogIntegrands(appendix_model, appendix_portfolio, 1.0, ExpansionCoords.LOG_PRICE)
        res = newton_maximize(li.f_derivs, np.array([200.0]), np.array([[0.3]]))
        assert abs(res.z[0, 0]) < 0.01

    def test_appendix_maximizer_price_exactly_symmetric(self, appendix_model, appendix_portfolio):
        li = LogIntegrands(appendix_model, appendix_portfolio, 1.0, ExpansionCoords.PRICE)
        res = newton_maximize(li.ftilde_derivs, np.array([200.0]), np.array([[130.0]]))
        assert res.z[0, 0] == pytest.approx(100.0, abs=1e-8)

    def test_bachelier_maximizer_is_conditional_mean(self, bachelier5_model, bachelier5_portfolio):
        # the Gaussian log density of the Bachelier state on {P x = s}, in the
        # price chart, peaks at the conditional mean of the state given P x = s
        m, p = bachelier5_model, bachelier5_portfolio
        t, s = 0.25, 460.0
        ch = density.chart(p)
        # the law of dX = rX dt + Sigma dW: Gaussian with the integrated covariance
        cov = m.omega * (np.expm1(2 * m.r * t) / (2 * m.r))
        mean = m.x0 * np.exp(m.r * t)
        cinv, b = np.linalg.inv(cov), ch.basis

        def point(z):
            dev = ch.x_of(s, z) - mean
            return float(-0.5 * dev @ cinv @ dev), -b.T @ cinv @ dev, -b.T @ cinv @ b

        res = newton_maximize(_stacked(point), np.array([s]), m.x0[None, ch.free] + 30.0)
        assert not res.failures
        # closed-form Gaussian conditioning
        w = p.weights
        cp = cov @ w
        cond = mean + cp * (s - w @ mean) / (w @ cp)
        assert np.allclose(res.z[0], cond[ch.free], atol=1e-8)

    def test_terminal_minimum_rejected(self):
        # a stationary start with positive curvature: converged, but not a maximum
        def point(z):
            return float(z @ z), 2.0 * z, 2.0 * np.eye(2)

        res = newton_maximize(_stacked(point), np.zeros(1), np.zeros((1, 2)))
        assert "not negative definite" in res.failures[0]
        assert np.isnan(res.logdet[0]) and np.isnan(res.z[0]).all()

    def test_max_iter_exceeded(self, monkeypatch):
        # -z^4: each Newton step only shrinks z by a third, so convergence
        # takes a couple dozen iterations
        def point(z):
            return float(-z[0] ** 4), np.array([-4.0 * z[0] ** 3]), np.array([[-12.0 * z[0] ** 2]])

        derivs = _stacked(point)
        assert newton_maximize(derivs, np.zeros(1), np.array([[4.0]])).iterations[0] > 3
        monkeypatch.setattr(projection, "NEWTON_MAX_ITER", 3)
        res = newton_maximize(derivs, np.zeros(1), np.array([[4.0]]))
        assert res.failures == {0: "Newton did not converge within 3 iterations"}

    def test_start_outside_support(self, appendix_model, appendix_portfolio):
        li = LogIntegrands(appendix_model, appendix_portfolio, 1.0, ExpansionCoords.PRICE)
        res = newton_maximize(li.f_derivs, np.array([200.0]), np.array([[260.0]]))
        assert "outside the support" in res.failures[0]

    def test_failures_are_per_row(self):
        # rows of one stack converge, fail and stop independently: a failed row
        # neither raises nor changes its neighbours' iterates or counts
        a = np.array([1.5, -2.0])
        h = -np.array([[3.0, 0.4], [0.4, 2.0]])

        def point(z):
            if z[0] > 100.0:  # outside the "support"
                return -np.inf, np.zeros(2), np.zeros((2, 2))
            dev = z - a
            return float(0.5 * dev @ h @ dev - (dev @ dev) ** 2), h @ dev - 4 * (dev @ dev) * dev, \
                h - 8 * np.outer(dev, dev) - 4 * (dev @ dev) * np.eye(2)

        z0 = np.array([[3.0, 1.0], [200.0, 0.0], [1.5, -2.0], [-1.0, 2.0]])
        stack = newton_maximize(_stacked(point), np.zeros(4), z0)
        assert list(stack.failures) == [1]
        for i in (0, 2, 3):
            one = newton_maximize(_stacked(point), np.zeros(1), z0[i:i + 1])
            assert np.array_equal(one.z[0], stack.z[i])
            assert one.iterations[0] == stack.iterations[i]
            assert one.logdet[0] == stack.logdet[i]
        assert stack.iterations[2] == 0 and stack.iterations[0] > stack.iterations[2]


class TestProjectedVolSq:
    def test_appendix_value_both_coords(self, appendix_model, appendix_portfolio):
        lap_p = vol_sq_at(appendix_model, appendix_portfolio, 1.0, 200.0,
                          coords=ExpansionCoords.PRICE)
        lap_l = vol_sq_at(appendix_model, appendix_portfolio, 1.0, 200.0,
                          coords=ExpansionCoords.LOG_PRICE)
        for lap in (lap_p, lap_l):
            assert lap == pytest.approx(200.99, abs=0.05)
        # frozen first-principles values (regression pins)
        assert lap_p == pytest.approx(201.02302, abs=1e-4)
        assert lap_l == pytest.approx(201.01228, abs=1e-4)
        assert abs(lap_p - lap_l) < 1e-3 * lap_p

    def test_appendix_vs_quadrature(self, appendix_model, appendix_portfolio):
        lap = vol_sq_at(appendix_model, appendix_portfolio, 1.0, 200.0)
        quad = quadrature_projected_vol(appendix_model, appendix_portfolio, 1.0, 200.0)
        assert quad == pytest.approx(200.98, abs=0.02)
        assert abs(lap - quad) / quad < 5e-4

    def test_bachelier_constant(self):
        m = ModelSpec(kind=ModelKind.BACHELIER, r=0.0, sigma=np.diag([20.0, 20.0]),
                      x0=[100.0, 100.0], T=1.0)
        p = Portfolio([1.0, 1.0])
        for t, s in ((0.1, 50.0), (0.9, 300.0)):
            assert vol_sq_at(m, p, t, s) == pytest.approx(800.0, rel=1e-15)

    def test_bachelier_exactness_on_envelope(self, bachelier5_model, bachelier5_portfolio):
        m, p = bachelier5_model, bachelier5_portfolio
        row = p.weights @ m.sigma
        analytic = float(row @ row)
        for t in (0.05, 0.15, 0.25):
            for s in np.linspace(420.0, 580.0, 9):
                got = vol_sq_at(m, p, t, s)
                assert abs(got - analytic) <= 1e-12 * analytic

    def test_laplace_tracks_quadrature_across_region(self, appendix_model, appendix_portfolio):
        for t in (0.25, 0.5, 1.0):
            for s in np.linspace(180.0, 220.0, 5):
                lap = vol_sq_at(appendix_model, appendix_portfolio, t, s)
                quad = quadrature_projected_vol(appendix_model, appendix_portfolio, t, float(s))
                assert abs(lap - quad) / quad < 1e-3

    def test_scaling_consistency(self, bs3d_model, bs3d_portfolio):
        lam = 3.7
        scaled = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=bs3d_model.r,
                           sigma=bs3d_model.sigma, x0=lam * bs3d_model.x0, T=bs3d_model.T)
        base_p = vol_sq_at(bs3d_model, bs3d_portfolio, 0.5, 310.0, coords=ExpansionCoords.PRICE)
        scal_p = vol_sq_at(scaled, bs3d_portfolio, 0.5, lam * 310.0, coords=ExpansionCoords.PRICE)
        # exact up to Newton termination asymmetry (the gradient tolerance
        # floor max(1, |H|) is not scale-invariant)
        assert scal_p == pytest.approx(lam**2 * base_p, rel=5e-10)
        base_l = vol_sq_at(bs3d_model, bs3d_portfolio, 0.5, 310.0,
                           coords=ExpansionCoords.LOG_PRICE)
        scal_l = vol_sq_at(scaled, bs3d_portfolio, 0.5, lam * 310.0,
                           coords=ExpansionCoords.LOG_PRICE)
        assert scal_l == pytest.approx(lam**2 * base_l, rel=1e-8)

    def test_positive_wherever_finite(self, bs3d_model, bs3d_portfolio):
        for s in np.linspace(220.0, 400.0, 13):
            v = vol_sq_at(bs3d_model, bs3d_portfolio, 0.4, s)
            assert np.isfinite(v) and v > 0.0

    def test_exact_agreement_3d(self, bs3d_model, bs3d_portfolio):
        # Laplace against the exact hyperplane integral, every level gated, as validate does
        levels = np.linspace(230.0, 415.0, 12)
        for t in (0.3, 0.5):
            exact = quadrature_projected_vol(bs3d_model, bs3d_portfolio, t, levels)
            lap, _ = projected_vol_sq(bs3d_model, bs3d_portfolio, t, levels)
            assert np.all(np.abs(lap - exact) <= 1e-4 * exact), t

    def test_laplace_point_record(self, appendix_model, appendix_portfolio):
        lp = laplace_point(appendix_model, appendix_portfolio, 1.0, np.array([200.0]))
        assert lp.value[0] == pytest.approx(201.012, abs=1e-2)
        assert lp.iterations > 0
        assert not lp.failures and np.isfinite(lp.value[0])


class TestCoords:
    def test_default_log_price_for_bs(self, bs3d_model, bs3d_portfolio):
        li = LogIntegrands(bs3d_model, bs3d_portfolio, 0.5)
        assert li.coords is ExpansionCoords.LOG_PRICE

    # projected_vol_sq returns Bachelier's constant before any Laplace call
    def test_log_price_rejected_for_bachelier(self, bachelier5_model, bachelier5_portfolio):
        with pytest.raises(ValueError, match="projected_vol_sq returns it"):
            laplace_point(bachelier5_model, bachelier5_portfolio, 0.25, np.array([500.0]),
                          ExpansionCoords.LOG_PRICE)

    def test_price_rejected_for_bachelier(self, bachelier5_model, bachelier5_portfolio):
        with pytest.raises(ValueError, match="projected_vol_sq returns it"):
            laplace_point(bachelier5_model, bachelier5_portfolio, 0.25, np.array([500.0]),
                          ExpansionCoords.PRICE)


class TestOneSetUpPerPoint:
    # float.hex at one level (a stack of one) before the Laplace set-up was
    # shared per point: laplace_point in the named chart, else projected_vol_sq
    PINNED = {
        "appendix": [(1.0, 200.0, ExpansionCoords.PRICE, "0x1.920bc9e09e190p+7"),
                     (1.0, 200.0, ExpansionCoords.LOG_PRICE, "0x1.92064971f90c6p+7")],
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
                assert vol_sq_at(m, p, t, s, coords=coords) == float.fromhex(hexval)

    def test_public_lapack_gives_the_same_bits(self):
        # with the extension file not found where the loader looks, the public
        # scipy.linalg.lapack serves, and its routines give the pinned bits
        t, s, _, hexval = self.PINNED["bs25d"][0]
        code = f"""if True:
            import sys, tempfile
            import numpy as np, scipy
            with tempfile.TemporaryDirectory() as empty:
                scipy.__path__.insert(0, empty)
                from basketproj import lapack
                scipy.__path__.remove(empty)
            fell_back = "scipy.linalg" in sys.modules
            from scipy.linalg.lapack import dgtsv
            from basketproj.presets import get_preset
            from basketproj.projection import projected_vol_sq
            cfg = get_preset("bs25d")
            (value,), failures = projected_vol_sq(cfg.build_model(), cfg.build_portfolio(),
                                                  {t!r}, np.array([{s!r}]))
            print(fell_back, lapack.dgtsv is dgtsv, failures, value.hex())
        """
        assert fresh_python(code) == f"True True {{}} {hexval}"

    def test_one_factorization_per_point(self, models, monkeypatch):
        calls = {"dpotrf": 0, "dpotrs": 0, "cholesky": 0, "derivs": 0}

        def counted(name, fun):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fun(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(density, "dpotrf", counted("dpotrf", density.dpotrf))
        monkeypatch.setattr(density, "dpotrs", counted("dpotrs", density.dpotrs))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        for attr in ("f_derivs", "ftilde_derivs"):
            monkeypatch.setattr(LogIntegrands, attr,
                                counted("derivs", getattr(LogIntegrands, attr)))
        for name, points in self.PINNED.items():
            m, p = models[name]
            for t, s, coords, _ in points:
                calls.update(dict.fromkeys(calls, 0))
                vol_sq_at(m, p, t, s, coords=coords)
                assert calls["dpotrf"] == 1               # the transition covariance
                assert calls["cholesky"] == 2             # one per Newton maximization
                # one solve per derivative evaluation, one for the inverse covariance
                assert calls["dpotrs"] == calls["derivs"] + 1

    def test_one_factorization_per_slice(self, models, monkeypatch):
        # a 48-level bs25d slice shares one set-up; each derivative call is one
        # multi-right-hand-side solve for the whole stack, not one per level
        calls = {"dpotrf": 0, "dpotrs": 0, "cholesky": 0, "derivs": 0}

        def counted(name, fun):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fun(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(density, "dpotrf", counted("dpotrf", density.dpotrf))
        monkeypatch.setattr(density, "dpotrs", counted("dpotrs", density.dpotrs))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        for attr in ("f_derivs", "ftilde_derivs"):
            monkeypatch.setattr(LogIntegrands, attr,
                                counted("derivs", getattr(LogIntegrands, attr)))
        m, p = models["bs25d"]
        values, failures = projected_vol_sq(m, p, 0.25, np.linspace(2300.0, 2700.0, 48))
        assert not failures and np.all(np.isfinite(values))
        assert calls["dpotrf"] == 1
        assert calls["cholesky"] == 2
        assert calls["dpotrs"] == calls["derivs"] + 1
        # a stack iterates as long as its slowest level, far fewer calls than levels
        assert calls["derivs"] < 48


class TestBatch:
    """An array of levels is one stack; it must equal per-level stacks of one to the bit."""

    @staticmethod
    def _assert_matches_stacks_of_one(m, p, t, levels):
        values, failures = projected_vol_sq(m, p, t, levels)
        assert values.shape == levels.shape
        for j, s in enumerate(levels):
            (one,), one_failures = projected_vol_sq(m, p, t, levels[j:j + 1])
            if j in failures:
                assert one_failures == {0: failures[j]}
                assert np.isnan(values[j]) and np.isnan(one)
            else:
                assert not one_failures and one == values[j]
        return failures

    def test_bs3d_slice(self, bs3d_model, bs3d_portfolio):
        levels = np.linspace(250.0, 350.0, 24)
        assert not self._assert_matches_stacks_of_one(bs3d_model, bs3d_portfolio, 0.25, levels)

    def test_bs25d_slice(self):
        cfg = get_preset("bs25d")
        levels = np.linspace(2300.0, 2700.0, 48)
        assert not self._assert_matches_stacks_of_one(cfg.build_model(), cfg.build_portfolio(),
                                                     0.25, levels)

    @pytest.mark.parametrize("vols, maturity, any_failed", [
        ([0.6, 0.4, 0.2], 2.0, False),
        # 30 of the 384 levels of this surface reach the Newton iteration cap
        ([0.9, 0.1, 0.5], 3.0, True),
    ])
    def test_stress_surface(self, vols, maturity, any_failed):
        cfg = get_preset("bs3d")
        cfg.vols, cfg.T = vols, maturity
        m, p = cfg.build_model(), cfg.build_portfolio()
        env = surface.estimate_envelope(m, p, seed=derive_seed(cfg.seed, "pilot"))
        idx = np.unique(np.round(np.linspace(1, surface.PILOT_STEPS, cfg.surface_slices)).astype(int))
        n_failed = 0
        for i in idx:
            levels = np.linspace(env.s_lo[i], env.s_hi[i], cfg.surface_abscissae)
            n_failed += len(self._assert_matches_stacks_of_one(m, p, env.times[i], levels))
        assert (n_failed > 0) == any_failed

    def test_array_reports_failed_start(self, appendix_model, appendix_portfolio):
        # no interior start below zero: the stack names the level and goes on
        levels = np.array([-5.0, 200.0])
        values, failures = projected_vol_sq(appendix_model, appendix_portfolio, 1.0, levels)
        assert list(failures) == [0] and "no interior Newton start" in failures[0]
        assert np.isnan(values[0])
        assert values[1] == vol_sq_at(appendix_model, appendix_portfolio, 1.0, 200.0)
        lp = laplace_point(appendix_model, appendix_portfolio, 1.0, levels)
        assert isinstance(lp.iterations, int) and lp.iterations > 0
        assert lp.failures == failures

    def test_bachelier_array(self, bachelier5_model, bachelier5_portfolio):
        values, failures = projected_vol_sq(bachelier5_model, bachelier5_portfolio, 0.25,
                                            np.linspace(420.0, 580.0, 5))
        assert not failures
        assert np.all(values == vol_sq_at(bachelier5_model, bachelier5_portfolio, 0.25, 500.0))
