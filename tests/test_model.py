import numpy as np
import pytest

from basketproj.mc import diffusion, step
from basketproj.model import ModelKind, ModelSpec, Portfolio, PutPayoff, correlation_to_sigma
from basketproj.surface import estimate_envelope


def bachelier(sigma, x0, r=0.0, T=1.0):
    return ModelSpec(kind=ModelKind.BACHELIER, r=r, sigma=sigma, x0=x0, T=T)


def black_scholes(sigma, x0, r=0.0, T=1.0):
    return ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=r, sigma=sigma, x0=x0, T=T)


# The model's drift r x and loading b(t, x) are applied by the Euler step and
# its diffusion increment, the only code that evaluates them; these tests read
# them back from mc.step under mc.diffusion.

def euler(m, x, dt, dw):
    """One forward-Euler step of an (n, d) batch under Brownian increments dw (n, k)."""
    return step(m, x, dt, diffusion(m, x, dw @ m.sigma.T))


def drift(m, x, dt=1.0):
    """r x, as the noise-free step's increment over dt."""
    return (euler(m, x[None, :], dt, np.zeros((1, m.k))) - x)[0] / dt


def loading(m, x):
    """b(t, x) as a d x k matrix: column j is the dt = 0 step under dW = e_j."""
    xs = np.tile(x, (m.k, 1))
    return (euler(m, xs, 0.0, np.eye(m.k)) - xs).T


class TestDrift:
    def test_linear(self):
        m = bachelier(np.eye(2), [100.0, 100.0], r=0.05)
        assert np.allclose(drift(m, np.array([100.0, 100.0])), [5.0, 5.0])

    def test_zero_rate(self):
        m = black_scholes(np.eye(3) * 0.2, [1.0, 2.0, 3.0], r=0.0)
        assert np.all(drift(m, np.array([9.0, 8.0, 7.0]), dt=0.3) == 0.0)

    def test_25d_flat(self):
        m = black_scholes(np.eye(25) * 0.15, np.full(25, 100.0), r=0.05)
        assert np.allclose(drift(m, np.full(25, 100.0)), np.full(25, 5.0))

    def test_homogeneous_degree_one(self):
        rng = np.random.default_rng(11)
        for kind in (ModelKind.BACHELIER, ModelKind.BLACK_SCHOLES):
            m = ModelSpec(kind=kind, r=0.07, sigma=np.eye(3) * 0.2,
                          x0=[1.0, 1.0, 1.0], T=1.0)
            x = rng.uniform(0.5, 2.0, 3)
            lam = rng.uniform(0.1, 5.0)
            assert np.allclose(drift(m, lam * x, 0.1), lam * drift(m, x, 0.1))

    def test_dimension_mismatch(self):
        m = bachelier(np.eye(2), [1.0, 1.0])
        with pytest.raises(ValueError):
            euler(m, np.ones((1, 3)), 0.1, np.zeros((1, 2)))


class TestDiffusion:
    def test_bachelier_constant(self):
        m = bachelier(np.diag([20.0, 20.0]), [50.0, 150.0])
        assert np.array_equal(loading(m, np.array([1.0, 7.0])), np.diag([20.0, 20.0]))

    def test_black_scholes_row_scaling(self):
        m = black_scholes(np.diag([0.2, 0.1]), [100.0, 50.0])
        got = loading(m, np.array([100.0, 50.0]))
        assert np.allclose(got, np.diag([20.0, 5.0]))

    def test_3d_correlated_rows(self):
        vols = [0.2, 0.15, 0.1]
        corr = [[1.0, 0.8, 0.3], [0.8, 1.0, 0.1], [0.3, 0.1, 1.0]]
        sigma = correlation_to_sigma(vols, corr)
        x0 = np.full(3, 100.0)
        m = black_scholes(sigma, x0, r=0.05)
        assert np.allclose(loading(m, x0), x0[:, None] * sigma)
        # factorization reproduces the correlation of log-returns
        g = sigma / np.array(vols)[:, None]
        assert np.allclose(g @ g.T, corr, atol=1e-12)

    def test_rows_vanish_at_zero(self):
        sigma = correlation_to_sigma([0.2, 0.15], [[1.0, 0.5], [0.5, 1.0]])
        m = black_scholes(sigma, [100.0, 100.0])
        x = np.array([1e-12, 100.0])
        row = loading(m, x)[0]
        assert np.linalg.norm(row) <= 1e-10 * np.linalg.norm(sigma[0])


def basket_at_start(p, x0):
    """The basket value the pipeline forms: the pilot envelope at t = 0."""
    m = black_scholes(np.eye(len(x0)) * 0.2, x0)
    env = estimate_envelope(m, p, seed=0)
    assert env.s_lo[0] == env.s_hi[0]
    return env.s_lo[0]


class TestBasketAndPayoff:
    def test_basket_examples(self):
        assert basket_at_start(Portfolio([1.0, 1.0, 1.0]), np.full(3, 100.0)) == 300.0
        assert basket_at_start(Portfolio([1.0, -1.0]), np.array([5.0, 5.0])) == 0.0
        assert basket_at_start(Portfolio([1.0, 1.0]), np.array([100.0, 100.0])) == 200.0

    def test_basket_dimension_mismatch(self):
        with pytest.raises(ValueError):
            basket_at_start(Portfolio([1.0, 1.0]), np.ones(3))

    def test_payoff_examples(self):
        g = PutPayoff(100.0)
        assert g(90.0) == 10.0
        assert g(100.0) == 0.0
        assert PutPayoff(300.0)(310.0) == 0.0

    def test_payoff_lipschitz_nonnegative(self):
        g = PutPayoff(123.0)
        rng = np.random.default_rng(7)
        a = rng.uniform(-50, 500, 200)
        b = rng.uniform(-50, 500, 200)
        assert np.all(np.abs(g(a) - g(b)) <= np.abs(a - b) + 1e-12)
        assert np.all(g(a) >= 0.0)
        assert np.all(g(a[a >= 123.0]) == 0.0)


class TestValidation:
    def test_portfolio_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            Portfolio([1.0, 0.0])

    def test_portfolio_needs_positive_weight(self):
        with pytest.raises(ValueError):
            Portfolio([-1.0, -2.0])

    def test_all_negative_but_one_ok(self):
        Portfolio([-1.0, -2.0, 0.5])

    def test_strike_positive(self):
        with pytest.raises(ValueError):
            PutPayoff(0.0)

    def test_bs_needs_positive_x0(self):
        with pytest.raises(ValueError):
            black_scholes(np.eye(2) * 0.2, [100.0, 0.0])

    def test_maturity_positive(self):
        with pytest.raises(ValueError):
            bachelier(np.eye(2), [1.0, 1.0], T=0.0)

    def test_sigma_shape_checked(self):
        with pytest.raises(ValueError):
            ModelSpec(kind=ModelKind.BACHELIER, r=0.0, sigma=np.ones(3), x0=[1.0] * 3, T=1.0)

    def test_broken_factorization_rejected(self):
        with pytest.raises(ValueError):
            bachelier(np.array([[np.nan, 0.0], [0.0, 1.0]]), [1.0, 1.0])

    def test_correlation_not_pd_rejected(self):
        with pytest.raises(ValueError):
            correlation_to_sigma([0.2, 0.2], [[1.0, 1.2], [1.2, 1.0]])

    def test_correlation_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            correlation_to_sigma([0.2, 0.2], [[1.0, 0.5], [0.2, 1.0]])

    def test_immutability(self):
        m = bachelier(np.eye(2), [1.0, 2.0])
        with pytest.raises(ValueError):
            m.x0[0] = 5.0
        with pytest.raises(Exception):
            m.r = 0.1
