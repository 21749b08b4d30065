import numpy as np
import pytest

from basketproj.model import ModelKind, ModelSpec, Portfolio
from basketproj.rng import derive_seed
from basketproj.surface import (PILOT_STEPS, CoefficientSurface, build_surface,
                                constant_surface, default_floor, estimate_envelope,
                                fit_surface, rectangle_from_envelope)
from support import load_surface


class TestEnvelope:
    def test_deterministic_model(self):
        m = ModelSpec(kind=ModelKind.BACHELIER, r=0.05, sigma=np.zeros((2, 2)),
                      x0=[100.0, 100.0], T=1.0)
        p = Portfolio([1.0, 1.0])
        env = estimate_envelope(m, p, seed=1)
        # forward Euler integrates the drift as (1 + r dt)^n
        dt = 1.0 / PILOT_STEPS
        expected = 200.0 * (1 + 0.05 * dt) ** np.arange(PILOT_STEPS + 1)
        assert np.allclose(env.s_lo, expected, rtol=1e-12)
        assert np.allclose(env.s_hi, expected, rtol=1e-12)

    def test_initial_point_pinned(self, appendix_model, appendix_portfolio):
        env = estimate_envelope(appendix_model, appendix_portfolio, seed=4)
        assert env.s_lo[0] == env.s_hi[0] == 200.0
        assert np.all(env.s_lo <= 200.0 + 1e-9) or np.all(env.s_hi >= 200.0 - 1e-9)
        # continuous paths cover the initial value at all times
        assert np.all((env.s_lo <= 200.0) & (env.s_hi >= 200.0))

    def test_3d_envelope_widens(self, bs3d_model, bs3d_portfolio):
        env = estimate_envelope(bs3d_model, bs3d_portfolio, seed=9)
        w = env.s_hi - env.s_lo
        q = PILOT_STEPS // 4
        quarters = np.array([w[1:][i * q:(i + 1) * q].mean() for i in range(4)])
        assert np.all(np.diff(quarters) > 0.0)


class TestFit:
    def test_constant_data(self):
        slices = [(t, np.linspace(90, 110, 12), np.full(12, 7.5)) for t in (0.1, 0.2)]
        surf = fit_surface(slices, floor=1e-6, rect=(80.0, 120.0), t_max=0.3, r=0.0)
        assert np.allclose(surf.residual_rms, 0.0, atol=1e-10)
        assert surf.eval_b2(0.15, np.array([83.0, 101.0, 119.0])) == pytest.approx(7.5)

    def test_exact_cubic_recovered(self):
        coef = np.array([4.0, -0.3, 0.002, 1.5e-5])
        ss = np.linspace(150.0, 450.0, 24)
        surf = fit_surface([(0.5, ss, np.polyval(coef[::-1], ss))], floor=1e-9,
                           rect=(100.0, 500.0), t_max=1.0, r=0.0)
        c, h = surf.centers[0], surf.halfwidths[0]
        got = np.polynomial.Polynomial(surf.coeffs[0], domain=[c - h, c + h]).convert().coef
        assert np.allclose(got, coef, rtol=1e-8, atol=1e-8 * np.abs(coef).max())
        probe = np.linspace(120.0, 480.0, 50)
        assert np.allclose(surf.eval_b2(0.5, probe),
                           np.polyval(coef[::-1], probe), rtol=1e-10)

    def test_3d_residuals_small(self, bs3d_surface):
        surf, env = bs3d_surface
        for i, t in enumerate(surf.slice_times):
            mid = 0.5 * (surf.s_min + surf.s_max)
            level = float(surf.eval_b2(t, np.array(mid)))
            assert surf.residual_rms[i] <= 0.01 * level

    def test_too_few_points(self):
        slices = [(0.1, np.array([1.0, 2.0, 3.0]), np.ones(3))]
        with pytest.raises(ValueError, match="need at least 4 points, got 3"):
            fit_surface(slices, floor=1e-6, rect=(0.0, 4.0), t_max=1.0, r=0.0)

    def test_collinear_abscissae(self):
        slices = [(0.1, np.full(6, 2.0), np.arange(6.0))]
        with pytest.raises(ValueError):
            fit_surface(slices, floor=1e-6, rect=(0.0, 4.0), t_max=1.0, r=0.0)


class TestEval:
    def _surf(self):
        # two slices: value 2 + s at t=0.2, 4 + s at t=0.4
        return CoefficientSurface(slice_times=np.array([0.2, 0.4]),
                                  coeffs=np.array([[2.0, 1.0], [4.0, 1.0]]),
                                  floor=1.0, s_min=0.0, s_max=10.0, t_max=0.5, r=0.05)

    def test_floor_clamp(self):
        surf = CoefficientSurface(slice_times=np.array([0.0]), coeffs=np.array([[-5.0]]),
                                  floor=1.0, s_min=0.0, s_max=1.0, t_max=1.0, r=0.0)
        assert surf.eval_b2(0.5, 0.3) == 1.0

    def test_slice_time_exact(self):
        surf = self._surf()
        assert surf.eval_b2(0.2, 3.0) == pytest.approx(5.0)
        assert surf.eval_b2(0.4, 3.0) == pytest.approx(7.0)

    def test_linear_in_time_between_slices(self):
        surf = self._surf()
        assert surf.eval_b2(0.3, 3.0) == pytest.approx(6.0)

    def test_clamped_outside_slices(self):
        surf = self._surf()
        assert surf.eval_b2(0.0, 3.0) == pytest.approx(5.0)
        assert surf.eval_b2(0.5, 3.0) == pytest.approx(7.0)

    def test_time_domain_checked(self):
        surf = self._surf()
        with pytest.raises(ValueError):
            surf.eval_b2(0.7, 3.0)

    def test_continuity(self, bs3d_surface):
        surf, _ = bs3d_surface
        ss = np.linspace(surf.s_min, surf.s_max, 200)
        prev = surf.eval_b2(0.0, ss)
        for t in np.linspace(0.0, surf.t_max, 101)[1:]:
            cur = surf.eval_b2(float(t), ss)
            assert np.all(np.abs(cur - prev) <= 0.08 * np.maximum(prev, 1.0))
            prev = cur
        # continuity in s: nearby abscissae give nearby values
        fine = np.linspace(surf.s_min, surf.s_max, 4000)
        vals = surf.eval_b2(0.25, fine)
        assert np.max(np.abs(np.diff(vals))) < 0.01 * np.max(vals)

    def test_floor_everywhere(self, bs3d_surface):
        surf, _ = bs3d_surface
        ss = np.linspace(surf.s_min, surf.s_max, 300)
        for t in np.linspace(0.0, surf.t_max, 21):
            assert np.all(surf.eval_b2(float(t), ss) >= surf.floor)


def all_slice_b2(surf, t, s):
    """Reference eval_b2: every slice's polynomial in u, then the bracketing pair."""
    s = np.asarray(s, dtype=float)
    shape = (-1,) + (1,) * s.ndim
    u = (s[None, ...] - surf.centers.reshape(shape)) / surf.halfwidths.reshape(shape)
    vals = np.zeros_like(u)
    for k in range(surf.coeffs.shape[1] - 1, -1, -1):
        vals = vals * u + surf.coeffs[:, k].reshape(shape)
    st = surf.slice_times
    if t <= st[0]:
        out = vals[0]
    elif t >= st[-1]:
        out = vals[-1]
    else:
        j = int(np.searchsorted(st, t, side="right")) - 1
        w = (t - st[j]) / (st[j + 1] - st[j])
        out = (1.0 - w) * vals[j] + w * vals[j + 1]
    return np.maximum(out, surf.floor)


class TestTwoSliceEval:
    def _inner_slices(self):
        # last slice before t_max, so times after it are inside the domain
        rng = np.random.default_rng(4)
        return CoefficientSurface(slice_times=np.array([0.1, 0.2, 0.35]),
                                  coeffs=rng.normal(50.0, 20.0, (3, 4)), floor=1.0,
                                  s_min=80.0, s_max=120.0, t_max=0.5, r=0.05,
                                  centers=np.array([99.0, 100.0, 101.0]),
                                  halfwidths=np.array([5.0, 8.0, 11.0]))

    def test_equals_all_slice_formula(self, bs3d_surface):
        for surf in (bs3d_surface[0], self._inner_slices()):
            st = surf.slice_times
            times = [0.0, 0.5 * st[0], *st, *(0.5 * (st[1:] + st[:-1])),
                     0.5 * (st[-1] + surf.t_max), surf.t_max]
            ss = np.linspace(surf.s_min, surf.s_max, 57)
            for t in times:
                t = float(t)
                assert np.array_equal(surf.eval_b2(t, ss), all_slice_b2(surf, t, ss))
                for s in (float(ss[3]), np.asarray(ss[40])):
                    assert surf.eval_b2(t, s) == all_slice_b2(surf, t, s)


    def test_blend_of_many_times_equals_one_at_a_time(self, bs3d_surface):
        # the backward sweep blends a segment of levels from its cached slices
        # in one call: clamped, interior and single-slice times alike
        single = CoefficientSurface(slice_times=np.array([0.2]),
                                    coeffs=np.array([[40.0, 3.0, -2.0, 0.5]]), floor=5.0,
                                    s_min=80.0, s_max=120.0, t_max=0.5, r=0.05,
                                    centers=np.array([100.0]), halfwidths=np.array([20.0]))
        for surf in (bs3d_surface[0], self._inner_slices(), single):
            st = surf.slice_times
            times = np.sort(np.concatenate(([0.0, 0.5 * st[0]], st, 0.5 * (st[1:] + st[:-1]),
                                            np.linspace(0.0, surf.t_max, 37))))
            ss = np.linspace(surf.s_min, surf.s_max, 57)
            slices = surf.slice_b2(ss)
            rows = surf.blend(times, slices)
            assert np.array_equal(rows, [all_slice_b2(surf, float(t), ss) for t in times])


class TestBachelierShortcut:
    def test_constant_equals_quadratic_form(self, bachelier5_surface, bachelier5_model, bachelier5_portfolio):
        surf, _ = bachelier5_surface
        row = bachelier5_portfolio.weights @ bachelier5_model.sigma
        analytic = float(row @ row)
        ss = np.linspace(surf.s_min, surf.s_max, 64)
        worst = 0.0
        for t in np.linspace(0.0, 0.25, 11):
            worst = max(worst, float(np.max(np.abs(surf.eval_b2(float(t), ss) - analytic))))
        assert worst == 0.0

    def test_zero_vol_surface_uses_floor(self):
        surf = constant_surface(0.0, floor=0.5, rect=(0.0, 1.0), t_max=1.0, r=0.0)
        assert surf.eval_b2(0.3, 0.5) == 0.5


class TestRectangleAndFloor:
    def test_bs_rectangle_clamped_at_zero(self):
        m = ModelSpec(kind=ModelKind.BLACK_SCHOLES, r=0.0, sigma=[[1.5]], x0=[10.0], T=1.0)
        p = Portfolio([1.0])
        env = estimate_envelope(m, p, seed=3)
        s_min, s_max = rectangle_from_envelope(env, m)
        assert s_min >= 0.0
        assert s_max > env.s_hi[-1]

    def test_floor_magnitudes(self, bs3d_model, bs3d_portfolio, bachelier5_model, bachelier5_portfolio):
        f_bs = default_floor(bs3d_model, bs3d_portfolio)
        ref_vol = float(np.mean(np.diag(bs3d_model.sigma)))
        assert f_bs == pytest.approx(1e-4 * 300.0**2 * ref_vol**2)
        f_b = default_floor(bachelier5_model, bachelier5_portfolio)
        assert f_b == pytest.approx(1e-4 * 500.0**2 / 0.25)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, bs3d_surface):
        surf, _ = bs3d_surface
        path = tmp_path / "surf.txt"
        surf.save(path)
        back = load_surface(path)
        assert np.array_equal(back.slice_times, surf.slice_times)
        assert np.array_equal(back.coeffs, surf.coeffs)
        assert back.floor == surf.floor
        ss = np.linspace(surf.s_min, surf.s_max, 17)
        for t in (0.0, 0.21, 0.5):
            assert np.array_equal(back.eval_b2(t, ss), surf.eval_b2(t, ss))


class TestPinnedBits:
    # float.hex of the fit with the default 512-step pilot batch, as computed
    # before the surface settings became fixed constants
    COEFFS = [
        ["0x1.54502e22d3c61p+10", "0x1.3aad911dd6183p+5", "0x1.5c436a212452ep-2", "0x1.d0fbf62ba8394p-12"],
        ["0x1.6555091ad9744p+10", "0x1.b6bf3dc5607aap+8", "0x1.4176f879ad3a0p+5", "0x1.194206667ceeap-1"],
        ["0x1.60590bcde83b4p+10", "0x1.5e5231b9d15b9p+9", "0x1.9fd360d2ce0b9p+6", "0x1.316dd6e8a9038p+1"],
        ["0x1.719863ac575abp+10", "0x1.9e9636daedf39p+9", "0x1.14ec2d647e207p+7", "0x1.c496756d1cfdap+1"],
    ]
    RESIDUAL_RMS = ["0x1.386c1736204c5p-22", "0x1.11b27a3ef2daap-8",
                    "0x1.d92af9403c2efp-6", "0x1.8ea0648f188b0p-5"]

    def test_reduced_bs3d_fit(self, bs3d_model, bs3d_portfolio):
        surf, _ = build_surface(bs3d_model, bs3d_portfolio, seed=derive_seed(3, "pilot"),
                                n_slices=4, n_abscissae=8)
        assert surf.coeffs.tolist() == [[float.fromhex(h) for h in row] for row in self.COEFFS]
        assert surf.residual_rms.tolist() == [float.fromhex(h) for h in self.RESIDUAL_RMS]
