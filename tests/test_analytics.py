"""Return statistics, correlation diagnostics, volatility, smoothing,
and singular-spectrum reconstruction."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from newsmarket.analytics import (
    _hankel_average,
    autocorrelation,
    cross_correlation,
    distribution_stats,
    fourier_lowpass,
    log_returns,
    mssa_leading,
    rolling_volatility,
)
from newsmarket.core import Series


def test_log_returns_on_ramp():
    p = Series(0.01 * np.arange(100.0), start_index=5)
    r = log_returns(p, 21)
    assert len(r) == 79
    assert r.start_index == 26
    assert np.allclose(r.values, 0.21, atol=1e-15)


def test_log_returns_errors():
    p = Series(np.arange(50.0))
    with pytest.raises(ValueError, match="cannot support"):
        log_returns(p, 50)
    with pytest.raises(ValueError, match="not a positive"):
        log_returns(p, 0)
    coarse = Series(np.arange(50.0), step=2.0)
    with pytest.raises(ValueError, match="not a positive"):
        log_returns(coarse, 3)
    r = log_returns(coarse, 4)
    assert len(r) == 48 and r.start_index == 4
    # a half-day shift is named by the argument, not by the output's start
    half = Series(np.arange(40.0), step=0.5)
    with pytest.raises(ValueError, match="^horizon_days must move the "
                       "output start by whole days, not 1.5$"):
        log_returns(half, 1.5)


def test_distribution_stats_two_point():
    # symmetric +-1 sample: biased m2 = 1, m4 = 1, so the excess
    # kurtosis is exactly -2, the flattest any distribution can be
    x = Series(np.tile([1.0, -1.0], 20))
    mean, var, skew, kurt = distribution_stats(x)
    assert mean == 0.0
    assert var == pytest.approx(40 / 39, rel=1e-12)
    assert skew == 0.0
    assert kurt == -2.0


def test_distribution_stats_normal_baseline():
    g = np.random.default_rng(3).normal(size=100_000)
    mean, var, skew, kurt = distribution_stats(Series(g))
    assert mean == pytest.approx(0.0, abs=0.02)
    assert var == pytest.approx(1.0, abs=0.02)
    assert skew == pytest.approx(0.0, abs=0.03)
    assert kurt == pytest.approx(0.0, abs=0.06)


def test_distribution_stats_normalize():
    g = np.random.default_rng(4).normal(3.0, 2.5, size=5000)
    raw = distribution_stats(Series(g))
    normed = distribution_stats(Series(g), normalize=True)
    assert normed[0] == pytest.approx(0.0, abs=1e-12)
    assert normed[1] == pytest.approx(1.0, abs=1e-12)
    # shape moments are scale-free
    assert normed[2] == pytest.approx(raw[2], abs=1e-12)
    assert normed[3] == pytest.approx(raw[3], abs=1e-12)


def test_distribution_stats_errors():
    with pytest.raises(ValueError, match="at least 30"):
        distribution_stats(Series(np.arange(10.0)))
    with pytest.raises(ValueError, match="zero variance"):
        distribution_stats(Series(np.full(50, 2.0)))
    # varies only in its last bit, where scipy.stats returns NaN moments
    near = np.full(40, 1e8)
    near[::2] += 1.5e-8
    assert np.var(near) > 0.0
    for normalize in (False, True):
        with pytest.raises(ValueError, match="undefined"):
            distribution_stats(Series(near), normalize)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=30, max_value=3000),
       kind=st.sampled_from(("normal", "t3", "exponential", "lognormal")),
       loc=st.floats(min_value=-1e3, max_value=1e3),
       scale=st.floats(min_value=1e-6, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_shape_moments_match_scipy_bitwise(seed, n, kind, loc, scale):
    g = np.random.default_rng(seed)
    draw = {"normal": lambda: g.standard_normal(n),
            "t3": lambda: g.standard_t(3, n),
            "exponential": lambda: g.exponential(size=n),
            "lognormal": lambda: g.lognormal(size=n)}[kind]
    x = loc + scale * draw()
    for normalize in (False, True):
        _, _, skew, kurt = distribution_stats(Series(x), normalize)
        y = x
        if normalize:
            y = (x - np.mean(x)) / math.sqrt(float(np.var(x, ddof=1)))
        assert repr(skew) == repr(float(stats.skew(y, bias=True)))
        assert repr(kurt) == repr(float(stats.kurtosis(y, bias=True)))


def test_autocorrelation_lag0_and_band():
    x = Series(np.random.default_rng(1).normal(size=400))
    rows = autocorrelation(x, 3)
    assert rows[0] == (0, 1.0, 1.96 / math.sqrt(400))
    assert len(rows) == 4
    assert all(b == rows[0][2] for _, _, b in rows)


def test_autocorrelation_white_noise_inside_band():
    x = Series(np.random.default_rng(14).normal(size=4000))
    rows = autocorrelation(x, 20)
    exceed = sum(1 for _, a, band in rows[1:] if abs(a) > band)
    assert exceed <= 2


def test_autocorrelation_ar1_decay():
    phi = 0.8
    rng = np.random.default_rng(14)
    e = rng.normal(size=20_000)
    ar = np.empty(e.size)
    ar[0] = e[0]
    for i in range(1, e.size):
        ar[i] = phi * ar[i - 1] + e[i]
    rows = autocorrelation(Series(ar), 5)
    for k, a, _ in rows[1:]:
        assert a == pytest.approx(phi ** k, abs=0.03)


def test_autocorrelation_errors():
    x = Series(np.arange(10.0))
    with pytest.raises(ValueError, match="max_lag"):
        autocorrelation(x, 10)
    with pytest.raises(ValueError, match="max_lag"):
        autocorrelation(x, -1)
    with pytest.raises(ValueError, match="zero variance"):
        autocorrelation(Series(np.ones(10)), 2)


def test_cross_correlation_shift_convention():
    x = np.random.default_rng(2).normal(size=500)
    y = np.empty_like(x)
    y[3:] = x[:-3]          # y lags x by 3 days
    y[:3] = 0.0
    rows = dict(cross_correlation(Series(x), Series(y), [-3, 0, 3]))
    assert rows[3] == pytest.approx(1.0, abs=1e-9)
    assert abs(rows[0]) < 0.1
    assert abs(rows[-3]) < 0.1
    # and the mirrored query sees the mirror lag
    back = dict(cross_correlation(Series(y), Series(x), [-3]))
    assert back[-3] == pytest.approx(1.0, abs=1e-9)


def test_cross_correlation_identity():
    x = Series(np.random.default_rng(5).normal(size=100))
    assert cross_correlation(x, x, [0]) == [(0, pytest.approx(1.0))]


def test_cross_correlation_errors():
    x = Series(np.arange(50.0))
    with pytest.raises(ValueError, match="lengths differ"):
        cross_correlation(x, Series(np.arange(40.0)), [0])
    with pytest.raises(ValueError, match="fewer than two"):
        cross_correlation(x, x, [49])
    flat = Series(np.r_[np.zeros(25), np.arange(25.0)])
    with pytest.raises(ValueError, match="zero variance"):
        cross_correlation(flat, x, [30])


@pytest.mark.parametrize("lag", [2.5, math.nan, "2", None])
def test_cross_correlation_rejects_non_integral_lags(lag):
    # 2.5 used to return a row labelled lag 2
    x = Series(np.random.default_rng(7).normal(size=200))
    with pytest.raises(ValueError,
                       match=re.escape(f"lag must be an integer, got {lag!r}")):
        cross_correlation(x, x, [0, lag])


def test_cross_correlation_takes_numpy_integer_lags():
    x = Series(np.random.default_rng(7).normal(size=200))
    y = Series(np.random.default_rng(8).normal(size=200))
    got = cross_correlation(x, y, np.arange(-3, 4))
    assert got == cross_correlation(x, y, range(-3, 4))
    assert all(type(lag) is int for lag, _ in got)
    with pytest.raises(ValueError, match="lag -199 leaves fewer than two"):
        cross_correlation(x, y, [np.int64(-199)])
    with pytest.raises(ValueError, match="lag must be >= -200"):
        cross_correlation(x, y, [-201])


def test_rolling_volatility_hand_example():
    # x = cumsum(0..6): daily diffs 1..6; with a 2-day window each
    # output is the stdev of two consecutive diffs = sqrt(1/2)
    x = Series(np.cumsum(np.arange(7.0)))
    v = rolling_volatility(x, 1, 2)
    assert v.start_index == 2
    assert len(v) == 5
    assert np.allclose(v.values, math.sqrt(0.5), atol=1e-12)


def test_rolling_volatility_matches_direct_loop():
    rng = np.random.default_rng(8)
    x = Series(np.cumsum(rng.normal(size=300)), start_index=10)
    inc, win = 5, 21
    v = rolling_volatility(x, inc, win)
    m = win // inc
    for j, t in enumerate(range(m * inc, 300)):
        window = [x.values[t - i * inc] - x.values[t - (i + 1) * inc]
                  for i in range(m)]
        assert v.values[j] == pytest.approx(np.std(window, ddof=1),
                                            abs=1e-12)
    assert v.start_index == 10 + m * inc


def test_rolling_volatility_errors():
    x = Series(np.arange(100.0))
    # a window no longer than the increment holds fewer than two of them
    for inc, win in ((21, 21), (21, 5), (2, 3)):
        with pytest.raises(ValueError, match="two increments"):
            rolling_volatility(x, inc, win)
    with pytest.raises(ValueError, match="too short"):
        rolling_volatility(Series(np.arange(10.0)), 5, 10)
    # the rule is on the shift m * increment, not on whole-day spans
    half = Series(np.arange(40.0), step=0.5)
    with pytest.raises(ValueError, match="^increment_days and window_days "
                       "must move the output start by whole days, not 4.5$"):
        rolling_volatility(half, 1.5, 4.5)
    assert rolling_volatility(half, 1, 4.5).start_index == 4
    assert rolling_volatility(half, 1.5, 6).start_index == 6


def test_fourier_lowpass_keeps_slow_removes_fast():
    t = np.arange(1000.0)
    slow = np.sin(2 * np.pi * t / 100)
    fast = 0.5 * np.sin(2 * np.pi * t / 10)
    x = Series(3.0 + slow + fast)
    kept = fourier_lowpass(x, 50.0)
    assert np.allclose(kept.values, 3.0 + slow, atol=1e-10)
    removed = fourier_lowpass(x, 150.0)
    assert np.allclose(removed.values, 3.0, atol=1e-10)


def test_fourier_lowpass_respects_step():
    # 100-day period sampled every 2 days: the day-valued cutoff decides
    t = np.arange(500.0)
    x = Series(np.sin(2 * np.pi * t / 50), step=2.0)
    assert np.allclose(fourier_lowpass(x, 60.0).values, x.values,
                       atol=1e-10)
    assert np.allclose(fourier_lowpass(x, 150.0).values, 0.0, atol=1e-10)


def test_fourier_lowpass_idempotent():
    x = Series(np.random.default_rng(9).normal(size=512))
    once = fourier_lowpass(x, 40.0)
    twice = fourier_lowpass(once, 40.0)
    assert np.allclose(once.values, twice.values, atol=1e-12)


def test_fourier_lowpass_error():
    with pytest.raises(ValueError, match="two samples"):
        fourier_lowpass(Series([1.0]), 10.0)


def test_mssa_recovers_shared_cycle():
    rng = np.random.default_rng(14)
    t = np.arange(1200.0)
    clean_x = np.sin(2 * np.pi * t / 60)
    clean_y = np.cos(2 * np.pi * t / 60)
    xs = Series(clean_x + rng.normal(0, 0.3, 1200))
    ys = Series(clean_y + rng.normal(0, 0.3, 1200))
    xr, yr = mssa_leading(xs, ys, window=120, n_components=2)
    assert np.sqrt(np.mean((xr.values - clean_x) ** 2)) < 0.06
    assert np.sqrt(np.mean((yr.values - clean_y) ** 2)) < 0.06
    # the reconstruction strips most of the injected noise
    raw_rms = np.sqrt(np.mean((xs.values - clean_x) ** 2))
    assert np.sqrt(np.mean((xr.values - clean_x) ** 2)) < 0.25 * raw_rms


def test_mssa_more_components_fit_tighter():
    rng = np.random.default_rng(14)
    t = np.arange(1200.0)
    xs = Series(np.sin(2 * np.pi * t / 60) + rng.normal(0, 0.3, 1200))
    ys = Series(np.cos(2 * np.pi * t / 60) + rng.normal(0, 0.3, 1200))
    rms = []
    for k in (1, 2, 6):
        xr, _ = mssa_leading(xs, ys, window=120, n_components=k)
        rms.append(np.sqrt(np.mean((xr.values - xs.values) ** 2)))
    assert rms[0] > rms[1] > rms[2]


def test_mssa_restores_scale():
    rng = np.random.default_rng(15)
    t = np.arange(600.0)
    xs = Series(5.0 + 3.0 * np.sin(2 * np.pi * t / 60)
                + rng.normal(0, 0.2, 600))
    ys = Series(-2.0 + np.cos(2 * np.pi * t / 60)
                + rng.normal(0, 0.2, 600))
    xr, yr = mssa_leading(xs, ys, window=60)
    assert np.mean(xr.values) == pytest.approx(5.0, abs=0.1)
    assert np.mean(yr.values) == pytest.approx(-2.0, abs=0.1)
    assert np.ptp(xr.values) == pytest.approx(6.0, rel=0.1)


def test_mssa_errors():
    x = Series(np.sin(np.arange(100.0)))
    with pytest.raises(ValueError, match="lengths differ"):
        mssa_leading(x, Series(np.arange(99.0)))
    with pytest.raises(ValueError, match="window"):
        mssa_leading(x, x, window=1)
    with pytest.raises(ValueError, match="window"):
        mssa_leading(x, x, window=51)
    with pytest.raises(ValueError, match="n_components"):
        mssa_leading(x, x, window=10, n_components=0)
    with pytest.raises(ValueError, match="constant input"):
        mssa_leading(Series(np.ones(100)), x, window=10)


def test_sentiment_leads_price_on_the_cycle():
    # on the closed-loop limit cycle the price mixes an in-phase and an
    # integrated (quadrature) sentiment channel, so its best alignment
    # with sentiment sits a few days after the sentiment swing
    from newsmarket.core import MarketState, ModelParams
    from newsmarket.market import simulate

    pars = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.374,
                       a2=0.002, gamma=62.0, delta=0.0)
    run = simulate(pars, MarketState(0.9, 0.0), 4000)
    s = Series(run.s.values[1000:])
    p = Series(run.p.values[1000:])
    rows = cross_correlation(s, p, range(-40, 41))
    lag, corr = max(rows, key=lambda r: r[1])
    assert 5 <= lag <= 30
    assert corr > 0.99


@pytest.mark.parametrize("days", [math.nan, math.inf, -math.inf])
def test_log_returns_rejects_non_finite_horizon(days):
    with pytest.raises(ValueError, match="horizon_days"):
        log_returns(Series(np.arange(50.0)), days)


@pytest.mark.parametrize("kw, name", [
    (dict(increment_days=math.nan, window_days=30), "increment_days"),
    (dict(increment_days=math.inf, window_days=30), "increment_days"),
    (dict(increment_days=5, window_days=math.nan), "window_days"),
    (dict(increment_days=5, window_days=math.inf), "window_days"),
])
def test_rolling_volatility_rejects_non_finite_days(kw, name):
    with pytest.raises(ValueError, match=name):
        rolling_volatility(Series(np.arange(100.0)), **kw)


@pytest.mark.parametrize("min_period", [math.nan, 0.0, -10.0])
def test_fourier_lowpass_rejects_a_non_positive_period(min_period):
    with pytest.raises(ValueError, match="min_period_days"):
        fourier_lowpass(Series(np.sin(np.arange(40.0))), min_period)


def test_mssa_rejects_more_components_than_channels():
    x = Series(np.sin(np.arange(40.0)))
    with pytest.raises(ValueError, match="exceeds the number of channels"):
        mssa_leading(x, x, window=3, n_components=7)


def _gathered_mssa(x, y, window, n_components):
    """mssa_leading with its trajectory matrix gathered through an index
    array, as it was before the strided embedding: the reference for
    byte equality."""
    n = len(x)
    mx, my = float(np.mean(x.values)), float(np.mean(y.values))
    sx, sy = float(np.std(x.values)), float(np.std(y.values))
    zx = (x.values - mx) / sx
    zy = (y.values - my) / sy
    k = n - window + 1
    idx = np.arange(window)[:, None] + np.arange(k)[None, :]
    traj = np.vstack([zx[idx], zy[idx]])
    cov = traj @ traj.T / k
    eigvecs = np.linalg.eigh(cov)[1]
    lead = eigvecs[:, -n_components:]
    rec = lead @ (lead.T @ traj)
    return (_hankel_average(rec[:window], n) * sx + mx,
            _hankel_average(rec[window:], n) * sy + my)


@st.composite
def _mssa_shapes(draw):
    n = draw(st.integers(min_value=4, max_value=700))
    window = draw(st.integers(min_value=2, max_value=n // 2))
    n_components = draw(st.integers(min_value=1, max_value=2 * window))
    return n, window, n_components


@given(shape=_mssa_shapes(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       cycle=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=150, deadline=None)
def test_mssa_strided_embedding_matches_gather_bytewise(shape, seed, cycle):
    n, window, n_components = shape
    g = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    x = Series(cycle * np.sin(t / 9.0) + g.standard_normal(n))
    y = Series(cycle * np.cos(t / 9.0) + 50.0 * g.standard_normal(n) + 7.0,
               start_index=3)
    xr, yr = mssa_leading(x, y, window=window, n_components=n_components)
    want_x, want_y = _gathered_mssa(x, y, window, n_components)
    assert xr.values.tobytes() == want_x.tobytes()
    assert yr.values.tobytes() == want_y.tobytes()
    assert (yr.start_index, yr.step) == (3, 1.0)


def test_mssa_holds_one_trajectory_matrix_at_a_time():
    # the index-array form held the index matrix, two gathered copies
    # and their stack at once: about twice this bound
    n, window = 3000, 100
    g = np.random.default_rng(8)
    x = Series(np.sin(np.arange(n) / 30.0) + g.standard_normal(n))
    y = Series(np.cos(np.arange(n) / 30.0) + g.standard_normal(n))
    mssa_leading(x, y, window=window)
    tracemalloc.start()
    try:
        mssa_leading(x, y, window=window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    traj = 2 * window * (n - window + 1) * 8
    cov = (2 * window)**2 * 8
    assert peak <= traj + 4 * cov


_HUGE = Series(np.tile([1e160, -1e160], 100))
_WAVE = Series(np.sin(np.arange(200.0)))


@pytest.mark.parametrize("func, kwargs, named", [
    (distribution_stats, dict(returns=_HUGE), "returns: fourth"),
    (distribution_stats, dict(returns=_HUGE, normalize=True),
     "returns: second"),
    (autocorrelation, dict(x=_HUGE, max_lag=3), "x: second"),
    (cross_correlation, dict(x=_HUGE, y=_WAVE, lags=[0]), "x: second"),
    (cross_correlation, dict(x=_WAVE, y=_HUGE, lags=[0]), "y: second"),
    (rolling_volatility, dict(x=_HUGE, increment_days=5, window_days=20),
     "x's 5-day differences: second"),
    (mssa_leading, dict(x=_HUGE, y=_WAVE, window=10), "x: second"),
    (mssa_leading, dict(x=_WAVE, y=_HUGE, window=10), "y: second"),
], ids=["moments", "moments-normalize", "acf", "xcorr-x", "xcorr-y",
        "volatility", "mssa-x", "mssa-y"])
def test_an_overflowing_spread_is_named(func, kwargs, named):
    with pytest.raises(ValueError, match=re.escape(
            f"{named} central moment overflows the float range")):
        func(**kwargs)


def test_rolling_volatility_checks_the_differences_it_spreads():
    # x's own second moment (6.4e307) is finite; its 1-day differences,
    # +-1.6e154, square past the float range
    x = Series(np.tile([8e153, -8e153], 50))
    with pytest.raises(ValueError, match="x's 1-day differences: second"):
        rolling_volatility(x, 1, 10)


def test_large_finite_spreads_still_pass():
    g = np.random.default_rng(4)
    noise = g.standard_normal(400)
    big = Series(1e100 * noise)
    got = [a for _, a, _ in autocorrelation(big, 5)]
    want = [a for _, a, _ in autocorrelation(Series(noise), 5)]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert np.all(np.isfinite(rolling_volatility(big, 5, 50).values))
    # at 1e80 the fourth moment overflows but the normalized sample's
    # does not, so only the raw shape moments are refused
    at80 = Series(1e80 * noise)
    with pytest.raises(ValueError, match="returns: fourth"):
        distribution_stats(at80)
    _, var, skew, kurt = distribution_stats(at80, normalize=True)
    assert var == pytest.approx(1.0)
    z = (at80.values - np.mean(at80.values)) / math.sqrt(
        float(np.var(at80.values, ddof=1)))
    assert repr(skew) == repr(float(stats.skew(z, bias=True)))
    assert repr(kurt) == repr(float(stats.kurtosis(z, bias=True)))
