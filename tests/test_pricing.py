"""Price construction, OLS calibration, and the windowed temperature fit."""

import math

import numpy as np
import pytest

from newsmarket.core import ModelParams, Series
from newsmarket.pricing import (
    calibrate_price,
    decompose_price,
    initial_sentiment,
    iterative_theta_fit,
    price_from_sentiment,
)
from newsmarket.reference import solve_sbar
from newsmarket.sentiment import integrate_sentiment

PARAMS = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55,
                     a1=0.374, a2=0.002, a4=6.5, s_star=0.131)


def test_price_from_constant_sentiment_is_linear():
    # constant s: p(t) = a1*s + a4 + a2*(s - s_star)*t exactly (trapezoid
    # rule is exact on constants)
    s0 = 0.4
    s = Series(np.full(50, s0))
    p = price_from_sentiment(s, PARAMS)
    t = np.arange(50.0)
    want = PARAMS.a1 * s0 + PARAMS.a4 + PARAMS.a2 * (s0 - PARAMS.s_star) * t
    assert np.allclose(p.values, want, atol=1e-14)


def test_price_from_ramp_sentiment():
    # linear s(t) = m*t: integral term is exactly a2*(m*t^2/2 - s_star*t)
    m = 0.01
    s = Series(m * np.arange(60.0))
    p = price_from_sentiment(s, PARAMS)
    t = np.arange(60.0)
    want = (PARAMS.a1 * m * t + PARAMS.a4
            + PARAMS.a2 * (0.5 * m * t**2 - PARAMS.s_star * t))
    assert np.allclose(p.values, want, atol=1e-14)
    assert p.values[0] == PARAMS.a4


def test_decompose_sums_bitwise():
    rng = np.random.default_rng(11)
    s = Series(np.clip(rng.normal(0.2, 0.3, 300), -1, 1))
    fast, slow = decompose_price(s, PARAMS)
    p = price_from_sentiment(s, PARAMS)
    assert np.array_equal(fast.values + slow.values, p.values)
    assert np.array_equal(fast.values, PARAMS.a1 * s.values)
    assert slow.values[0] == PARAMS.a4


@pytest.mark.parametrize("changes, named", [
    (dict(a1=1.7e308, a4=1.7e308), "log price in a1, a2, a4 and s_star"),
    (dict(a2=1e308, s_star=-1.0),
     "log price's slow channel in a2, s_star and a4"),
], ids=["sum", "slow-channel"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_price_names_its_fields(changes, named):
    # both failed as "non-finite sample at position 0" (or 1) after a
    # numpy warning, naming no field
    s = Series(np.full(20, 0.9))
    with pytest.raises(ValueError, match=f"{named} overflows the float"):
        price_from_sentiment(s, PARAMS.replace(**changes))


def test_calibrate_round_trip():
    rng = np.random.default_rng(5)
    H = Series(np.clip(rng.normal(0.0, 0.4, 500), -1, 1))
    s = integrate_sentiment(H, 0.5, PARAMS)
    p = price_from_sentiment(s, PARAMS)
    fit = calibrate_price(s, p)
    assert fit.a1 == pytest.approx(PARAMS.a1, abs=1e-8)
    assert fit.a2 == pytest.approx(PARAMS.a2, abs=1e-8)
    assert fit.a4 == pytest.approx(PARAMS.a4, abs=1e-8)
    assert fit.s_star == pytest.approx(PARAMS.s_star, abs=1e-6)
    assert fit.residual_rms < 1e-10
    assert fit.correlation == pytest.approx(1.0, abs=1e-12)


def test_calibrate_with_noise_stays_close():
    rng = np.random.default_rng(6)
    H = Series(np.clip(rng.normal(0.0, 0.4, 2000), -1, 1))
    s = integrate_sentiment(H, 0.5, PARAMS)
    p = price_from_sentiment(s, PARAMS)
    noisy = Series(p.values + rng.normal(0.0, 0.001, len(p)))
    fit = calibrate_price(s, noisy)
    assert fit.a1 == pytest.approx(PARAMS.a1, rel=0.05)
    assert fit.a2 == pytest.approx(PARAMS.a2, rel=0.05)
    assert fit.correlation > 0.999


def test_calibrate_errors():
    s = Series(np.linspace(-0.5, 0.5, 100))
    with pytest.raises(ValueError, match="equal length"):
        calibrate_price(s, Series(np.zeros(99)))
    with pytest.raises(ValueError, match="at least 30"):
        calibrate_price(Series(np.linspace(0, 1, 10)),
                        Series(np.zeros(10)))
    flat = Series(np.full(100, 0.3))
    with pytest.raises(ValueError, match="degenerate"):
        calibrate_price(flat, Series(np.arange(100.0)))


@pytest.mark.parametrize("price", [3.0, 0.0])
def test_calibrate_refuses_a_constant_price(price):
    # 3.0 gave correlation nan with two invalid-value warnings, and 0.0 a
    # bare ZeroDivisionError from s_star = -ct/a2
    s = Series(np.sin(np.arange(100) / 7.0))
    with pytest.raises(ValueError, match="p_obs has zero spread"):
        calibrate_price(s, Series(np.full(100, price)))


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_calibrate_refuses_an_s_star_outside_its_range(noise):
    # a price without sentiment in it: a2 came out at 1.05e-15 with
    # s_star = -4.74e14 (correlation 0.9999999999999999), or with noise
    # at -3.2e-5 with s_star = 15751
    s = Series(np.sin(np.arange(100) / 7.0))
    p = 0.5 * np.arange(100.0)
    p += noise * np.random.default_rng(0).standard_normal(100)
    with pytest.raises(ValueError, match=r"s_star leaves \[-1, 1\]: a2 = "):
        calibrate_price(s, Series(p))


def test_initial_sentiment_branches():
    top = initial_sentiment(1.1, 0.55, 0.0)
    assert top == pytest.approx(0.5029405749446065, abs=1e-9)
    # subcritical: single root follows the drive sign
    lo = initial_sentiment(0.8, 0.55, -0.5)
    assert lo < 0
    # strong negative drive: only the pessimistic branch remains
    neg = initial_sentiment(1.1, 0.55, -0.8)
    assert neg < -0.8
    # a NaN drive has no equilibrium: a named error, not an IndexError
    with pytest.raises(ValueError, match="c must be finite"):
        initial_sentiment(1.1, 1.0, math.nan)


def _ar1(rng, coef, innov, n, clip):
    x = np.empty(n)
    x[0] = 0.0
    for i in range(1, n):
        x[i] = np.clip(coef * x[i - 1] + rng.normal(0.0, innov), -clip, clip)
    return x


def test_theta_fit_recovers_constant_temperature():
    rng = np.random.default_rng(7)
    H = Series(_ar1(rng, 0.97, 0.06, 1000, 0.8))
    b1 = 1.12
    pars = PARAMS.replace(beta1=b1, beta2=1.0)
    s0 = initial_sentiment(b1, 1.0, H.values[0])
    s = integrate_sentiment(H, s0, pars)
    star = solve_sbar(b1, 0.3)
    p = price_from_sentiment(s, pars.replace(s_star=star))
    theta, p_fit = iterative_theta_fit(H, p, pars, window=250, sigma=0.3)
    assert np.allclose(theta.values, 1.0 / b1, atol=1e-12)
    assert len(theta) == 1000
    rms = np.sqrt(np.mean((p_fit.values - p.values) ** 2))
    assert rms < 1e-6


def test_theta_fit_short_trailing_window_dropped():
    rng = np.random.default_rng(8)
    H = Series(_ar1(rng, 0.95, 0.05, 540, 0.8))
    pars = PARAMS.replace(beta1=1.1, beta2=1.0)
    s = integrate_sentiment(H, 0.5, pars)
    p = price_from_sentiment(s, pars)
    theta, p_fit = iterative_theta_fit(H, p, pars, window=250)
    # 540 = 250 + 250 + 40; the 40-day remainder is below the minimum
    assert len(theta) == 500
    assert len(p_fit) == 500


def test_theta_fit_trailing_window_kept_when_long_enough():
    rng = np.random.default_rng(9)
    H = Series(_ar1(rng, 0.95, 0.05, 560, 0.8))
    pars = PARAMS.replace(beta1=1.1, beta2=1.0)
    s = integrate_sentiment(H, 0.5, pars)
    p = price_from_sentiment(s, pars)
    theta, _ = iterative_theta_fit(H, p, pars, window=250)
    assert len(theta) == 560


def test_theta_fit_errors():
    H = Series(np.zeros(300))
    p = Series(np.zeros(300))
    with pytest.raises(ValueError, match="window"):
        iterative_theta_fit(H, p, PARAMS, window=10)
    with pytest.raises(ValueError, match="sigma"):
        iterative_theta_fit(H, p, PARAMS, sigma=1.5)
    with pytest.raises(ValueError, match="equal length"):
        iterative_theta_fit(H, Series(np.zeros(200)), PARAMS)
    with pytest.raises(ValueError, match="shorter than one window"):
        iterative_theta_fit(Series(np.zeros(100)), Series(np.zeros(100)),
                            PARAMS, window=250)


def test_theta_fit_flat_drive_is_degenerate():
    # H identically zero pins sentiment at its equilibrium, which leaves
    # the window design rank-deficient; the failure must surface, not be
    # silently absorbed
    H = Series(np.zeros(300))
    pars = PARAMS.replace(beta1=1.1, beta2=1.0)
    s0 = initial_sentiment(1.1, 1.0, 0.0)
    s = integrate_sentiment(H, s0, pars)
    p = price_from_sentiment(s, pars)
    with pytest.raises(ValueError, match="degenerate"):
        iterative_theta_fit(H, p, pars, window=300)
