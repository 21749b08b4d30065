import numpy as np
import pytest
from scipy.integrate import quad

from basketproj.density import ExpansionCoords, LogIntegrands, _Gaussian, chart
from basketproj.model import ModelKind, ModelSpec, Portfolio
from support import AtLevel, fd_gradient, fd_hessian

PRICE = ExpansionCoords.PRICE


def log_density(m, t, y):
    """Log transition density at y: ftilde in price coordinates on the hyperplane
    through y (the empty chart when d = 1)."""
    p = Portfolio(np.ones(m.d))
    return AtLevel(m, p, t, float(np.sum(y)), PRICE).ftilde(np.delete(y, 0))


def pbbt(m, p, t, x):
    """P b b^T P^T at x: f - ftilde in price coordinates at x."""
    li = AtLevel(m, p, t, float(p.weights @ x), PRICE)
    z = np.delete(x, li.chart.pivot)
    return float(np.exp(li.f(z) - li.ftilde(z)))


class TestLogDensity:
    def test_lognormal_matches_direct_formula(self, appendix_model):
        # independent hand-coded lognormal density: log Y_i ~ N(log x0 - sig^2/2, sig^2)
        sig = 0.1
        y = np.array([104.0, 96.0])
        w = np.log(y / 100.0) + sig**2 / 2.0
        expected = (-w @ w / (2 * sig**2) - np.log(2 * np.pi * sig**2)
                    - np.log(y[0]) - np.log(y[1]))
        assert log_density(appendix_model, 1.0, y) == pytest.approx(expected, rel=1e-12)

    def test_hyperplane_restriction_closed_form(self, appendix_model):
        # On {y1 + y2 = 200} the density splits into the driftless lognormal
        # form plus the exact risk-neutral drift correction
        # exp(-(w1 + w2)/2 - sig^2/4); both pieces are hand-derivable.
        sig = 0.1
        for s2 in (85.0, 100.0, 117.0):
            y = np.array([200.0 - s2, s2])
            driftless = (-np.log(2 - s2 / 100.0) ** 2 / (2 * sig**2)
                       - np.log(s2 / 100.0) ** 2 / (2 * sig**2)
                       - np.log(200.0 - s2) - np.log(s2)
                       - np.log(2 * np.pi * sig**2))
            w = np.log(y / 100.0)
            correction = -0.5 * (w[0] + w[1]) - sig**2 / 4.0
            assert log_density(appendix_model, 1.0, y) == pytest.approx(driftless + correction, rel=1e-12)

    def test_normalization_1d(self):
        ms = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.03, sigma=[[0.25]], x0=[10.0], T=1.0)
        val, _ = quad(lambda y: np.exp(log_density(ms, 0.7, np.array([y]))), 1e-6, 100.0)
        assert abs(val - 1.0) < 1e-6

    def test_outside_support(self):
        m = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.0, sigma=[[0.2]], x0=[1.0], T=1.0)
        assert log_density(m, 1.0, np.array([-0.5])) == -np.inf

    def test_requires_positive_time(self, appendix_model):
        with pytest.raises(ValueError):
            log_density(appendix_model, 0.0, np.array([100.0, 100.0]))

    def test_singular_covariance(self):
        m = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.0,
                      sigma=[[0.2], [0.2]], x0=[100.0, 100.0], T=1.0)  # rank-1 in d=2
        with pytest.raises(ValueError, match="singular covariance"):
            log_density(m, 1.0, np.array([100.0, 100.0]))


    def test_non_finite_covariance(self):
        cov = np.diag([0.04, 0.04])
        cov[0, 1] = np.nan  # the triangle the factorization does not read
        with pytest.raises(ValueError, match="non-finite covariance"):
            _Gaussian(np.zeros(2), cov)


class TestChart:
    def test_examples(self):
        c = chart(Portfolio([1.0, 1.0]))
        assert np.allclose(c.x_of(200.0, np.array([100.0])), [100.0, 100.0])
        c = chart(Portfolio([2.0, 1.0, 1.0]))
        assert np.allclose(c.x_of(400.0, np.array([100.0, 100.0])), [100.0, 100.0, 100.0])
        c = chart(Portfolio([1.0, 1.0]))
        x = c.x_of(200.0, np.array([150.0]))
        assert np.allclose(x, [50.0, 150.0])
        assert float(np.array([1.0, 1.0]) @ x) == pytest.approx(200.0, abs=1e-10)

    def test_pivot_takes_largest_weight(self):
        c = chart(Portfolio([0.01, -5.0, 1.0]))
        assert c.pivot == 1
        assert list(c.free) == [0, 2]

    def test_roundtrip_constraint(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = rng.integers(2, 6)
            w = rng.uniform(0.2, 2.0, d) * rng.choice([-1.0, 1.0], d)
            w[rng.integers(0, d)] = abs(w[0]) + 1.0  # guarantee one positive
            p = Portfolio(w)
            s = rng.uniform(-50.0, 400.0)
            c = chart(p)
            z = rng.uniform(-100.0, 300.0, d - 1)
            assert abs(float(p.weights @ c.x_of(s, z)) - s) <= 1e-10 * max(1.0, abs(s))


class TestPbbt:
    def test_appendix_point(self, appendix_model, appendix_portfolio):
        got = pbbt(appendix_model, appendix_portfolio, 1.0, np.array([100.0, 100.0]))
        assert got == pytest.approx(200.0)

    def test_antisymmetric_quadratic_form(self):
        m = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.0, sigma=np.diag([0.3, 0.3]),
                      x0=[1.0, 1.0], T=1.0)
        p = Portfolio([1.0, -1.0])
        a = 17.0
        assert pbbt(m, p, 0.2, np.array([a, a])) == pytest.approx(2 * a**2 * 0.09)


class TestLogIntegrands:
    def test_appendix_second_derivatives(self, appendix_model, appendix_portfolio):
        # Hand-derived curvatures at the symmetric point in log-price
        # coordinates: 3 - 2/sig^2 for the density integrand, 5 - 2/sig^2 once
        # the quadratic-form factor is included.
        sig = 0.1
        li = AtLevel(appendix_model, appendix_portfolio, 1.0, 200.0, ExpansionCoords.LOG_PRICE)
        z0 = np.zeros(1)
        assert li.ftilde_derivs(z0)[2][0, 0] == pytest.approx(3.0 - 2.0 / sig**2, rel=1e-9)
        assert li.f_derivs(z0)[2][0, 0] == pytest.approx(5.0 - 2.0 / sig**2, rel=1e-9)

    def test_symmetric_point_is_critical_in_price_coords(self, appendix_model, appendix_portfolio):
        li = AtLevel(appendix_model, appendix_portfolio, 1.0, 200.0, ExpansionCoords.PRICE)
        _, grad, hess = li.ftilde_derivs(np.array([100.0]))
        assert abs(grad[0]) < 1e-12 * abs(hess[0, 0])

    @pytest.mark.parametrize("coords", [ExpansionCoords.PRICE, ExpansionCoords.LOG_PRICE])
    def test_derivatives_match_finite_differences_bs(self, bs3d_model, bs3d_portfolio, coords):
        li = AtLevel(bs3d_model, bs3d_portfolio, 0.5, 300.0, coords)
        rng = np.random.default_rng(5)
        scale = 1.0 if coords is ExpansionCoords.LOG_PRICE else 100.0
        n_checked = 0
        for _ in range(100):
            if coords is ExpansionCoords.LOG_PRICE:
                z = rng.uniform(-0.15, 0.15, 2)
            else:
                z = rng.uniform(70.0, 130.0, 2)
            if not np.isfinite(li.f(z)):
                continue
            for fun, derivs in ((li.f, li.f_derivs), (li.ftilde, li.ftilde_derivs)):
                _, grad, hess = derivs(z)
                fd_g = fd_gradient(fun, z, scale=scale)
                fd_h = fd_hessian(fun, z, scale=scale)
                assert np.linalg.norm(grad - fd_g) <= 1e-5 * max(1.0, np.linalg.norm(grad))
                assert np.linalg.norm(hess - fd_h) <= 1e-5 * max(1.0, np.linalg.norm(hess))
            n_checked += 1
        assert n_checked >= 90

    def test_outside_support(self, appendix_model, appendix_portfolio):
        li = LogIntegrands(appendix_model, appendix_portfolio, 1.0, ExpansionCoords.PRICE)
        s = np.array([200.0, 200.0])
        z = np.array([[250.0], [100.0]])  # the first asset of row 0 would be negative
        for derivs in (li.f_derivs, li.ftilde_derivs):
            val, grad, hess = derivs(s, z)  # a row outside the support does not raise
            assert val[0] == -np.inf and not grad[0].any() and not hess[0].any()
            assert np.isfinite(val[1])

    def test_stack_rows_equal_stacks_of_one(self, bs3d_model, bs3d_portfolio):
        # rows never mix: each row of a stack is the stack of one, to the bit,
        # also when the points arrive as a strided (column-sliced) array
        li = LogIntegrands(bs3d_model, bs3d_portfolio, 0.5)
        rng = np.random.default_rng(9)
        s = rng.uniform(250.0, 350.0, 7)
        z = np.asfortranarray(rng.uniform(-0.1, 0.1, (7, 2)))
        for fun in (li.f_derivs, li.ftilde_derivs):
            stacked = fun(s, z)
            for i in range(s.size):
                one = fun(s[i:i + 1], z[i:i + 1])
                assert all(np.array_equal(a[i], b[0]) for a, b in zip(stacked, one))

    # Bachelier's coefficient is the constant quadratic form: no chart integrates it
    def test_log_price_rejected_for_bachelier(self, bachelier5_model, bachelier5_portfolio):
        with pytest.raises(ValueError, match="projected_vol_sq returns it"):
            LogIntegrands(bachelier5_model, bachelier5_portfolio, 0.25, ExpansionCoords.LOG_PRICE)

    def test_price_rejected_for_bachelier(self, bachelier5_model, bachelier5_portfolio):
        with pytest.raises(ValueError, match="projected_vol_sq returns it"):
            LogIntegrands(bachelier5_model, bachelier5_portfolio, 0.25, PRICE)
