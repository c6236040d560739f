"""Cross-form consistency: the spin system's rate equations are the
full-mode market model with the couplings divided by the temperature.

With beta1..beta4 = J11/theta, J12/theta, J21/theta, J22/theta, zero
fields, gamma = kappa = 0 (no price feedback, no noise) and a1 = a2 = 1,
the full-mode drift is ds/dt = -w_s*s + w_s*tanh(beta1*s + beta2*h) and
dh/dt = -w_h*h + w_h*tanh(beta3*s + beta4*h), which is
glauber._meanfield_rhs written with beta = 1/theta factored out.  The two
differ only in where the division by theta is rounded.

The last test holds the daily RK4 integrator to an adaptive solver on
one held noise path, at the protocol of acceptance criterion 9.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from newsmarket import analytics, phase
from newsmarket.core import MarketState, ModelParams, RandomSource, Series
from newsmarket.glauber import SpinSystemConfig, _meanfield_rhs, _runs
from newsmarket.market import FULL, SIMPLIFIED, _make_drift, drift, simulate
from newsmarket.pricing import price_from_sentiment


def market_twin(config: SpinSystemConfig) -> ModelParams:
    """The full-mode market parameters whose drift is config's rate
    equation."""
    theta = config.theta
    return ModelParams(w_s=config.w_s, w_h=config.w_h,
                       beta1=config.J11 / theta, beta2=config.J12 / theta,
                       beta3=config.J21 / theta, beta4=config.J22 / theta,
                       a1=1.0, a2=1.0, gamma=0.0, kappa=0.0)


@st.composite
def spin_configs(draw):
    """Zero-field configs with couplings in [0, 5]; J21 is set from J12 so
    that J21/J12 = N_s/N_h holds."""
    n_s = draw(st.integers(min_value=1, max_value=10_000))
    n_h = draw(st.integers(min_value=1, max_value=10_000))
    coupling = st.floats(min_value=0.0, max_value=5.0)
    j12 = draw(coupling) * min(1.0, n_h / n_s)
    return SpinSystemConfig(
        N_s=n_s, N_h=n_h, J11=draw(coupling), J12=j12, J21=j12 * n_s / n_h,
        J22=draw(coupling), theta=draw(st.floats(min_value=0.05,
                                                 max_value=20.0)),
        w_s=draw(st.floats(min_value=1e-3, max_value=1.0)),
        w_h=draw(st.floats(min_value=1e-3, max_value=1.0)))


unit = st.floats(min_value=-1.0, max_value=1.0)


@given(config=spin_configs(), s=unit, h=unit)
@settings(max_examples=300, deadline=None)
def test_full_mode_drift_is_the_spin_rate_equation(config, s, h):
    params = market_twin(config)
    got = drift(MarketState(s, h), params, mode=FULL)
    want = _meanfield_rhs(0.0, [s, h], config)
    # a few roundings of each tanh argument, of size |beta_i*x| each, and
    # of the outer sum: 4 eps * w * (1 + |argument terms|) bounds them (the
    # largest ratio seen over 50,000 random cases was 0.30 of it)
    eps = np.finfo(float).eps
    terms = ((params.w_s, abs(params.beta1 * s) + abs(params.beta2 * h)),
             (params.w_h, abs(params.beta3 * s) + abs(params.beta4 * h)))
    for g, w, (rate, size) in zip(got, want, terms):
        assert abs(g - w) <= 4 * eps * rate * (1 + size)


@pytest.mark.parametrize("config, init", [
    # the criterion-4 spin system, started off its fixed point
    (SpinSystemConfig(N_s=10_000, N_h=1_000, J11=1.1, J12=0.55, J21=5.5,
                      theta=1.0, w_s=0.04, w_h=0.4), (0.3, -0.6)),
    # a small, warm system with every coupling on and fast rates
    (SpinSystemConfig(N_s=8, N_h=4, J11=1.2, J12=0.5, J21=1.0, J22=0.3,
                      theta=0.9, w_s=0.5, w_h=0.25), (-0.9, 0.8)),
], ids=["criterion-4", "N_s=8"])
def test_full_mode_path_tracks_the_spin_rate_equation(config, init):
    # 200 days of 8 RK4 substeps against an adaptive solver at rtol 1e-12
    days = 200
    run = simulate(market_twin(config), MarketState(*init), days, 8,
                   mode=FULL)
    sol = solve_ivp(_meanfield_rhs, (0.0, days - 1.0), list(init),
                    t_eval=np.arange(days, dtype=float), args=(config,),
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    gap = max(np.max(np.abs(run.s.values - sol.y[0])),
              np.max(np.abs(run.h.values - sol.y[1])))
    assert gap < 1e-6
    # and the comparison is not between two resting states
    assert max(np.ptp(run.s.values), np.ptp(run.h.values)) > 0.1


def test_glauber_ensemble_tracks_the_full_mode_path():
    # Kurtz (1970): the density of a jump process whose rates scale with N
    # follows its rate equation within O(N^-1/2); the mean of R
    # independent runs is within O((N*R)^-1/2).  Over 200 seeds of this
    # set-up the largest gap times sqrt(N*R) had median 1.75 and maximum
    # 4.1, so c = 5 bounds it.
    n, runs, days = 1000, 20, 20
    config = SpinSystemConfig(N_s=n, N_h=n, J11=1.1, J12=0.55, J21=0.55,
                              theta=1.0, w_s=0.2, w_h=0.4)
    path = simulate(market_twin(config), MarketState(1.0, 1.0), days + 1, 8,
                    mode=FULL)
    rng = RandomSource(11)
    trajs = list(map(_runs(config, float(days), runs, None, 1.0)[2],
                     [rng.substream(i) for i in range(runs)]))
    mean_s = np.mean([r.s for r in trajs], axis=0)
    mean_h = np.mean([r.h for r in trajs], axis=0)
    gap = max(np.max(np.abs(mean_s - path.s.values)),
              np.max(np.abs(mean_h - path.h.values)))
    assert gap < 5.0 / np.sqrt(n * runs)
    # both start all-up and relax: h falls by more than half
    assert mean_s[0] == mean_h[0] == 1.0
    assert np.ptp(path.h.values) > 0.5


def monthly_shape(p):
    """Skewness and excess kurtosis of non-overlapping 21-day returns, as
    criterion 9 takes them."""
    monthly = Series(analytics.log_returns(p, 21).values[::21])
    return analytics.distribution_stats(monthly)[2:]


def test_rk4_path_tracks_rk45_on_the_same_noise(capsys):
    # criterion 9's protocol: upper equilibrium, one draw per day held over
    # the day's 8 substeps; seeds 0-4 gave gaps of 1.2e-7 (s), 7.6e-8 (h)
    # and 1e-7 (moments) at most
    days = 2000
    params = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.374,
                         a2=0.002, a4=6.5, s_star=0.131, delta=0.03,
                         kappa=1.0, gamma=56.0)
    top = phase.find_equilibria(params.replace(kappa=0.0))[-1]
    run = simulate(params, MarketState(top.s_star_pt, top.h_star_pt), days,
                   8, rng=RandomSource(0))
    s, h = np.empty(days), np.empty(days)
    s[0], h[0] = run.s.values[0], run.h.values[0]
    for d, xi in enumerate(run.xi):
        f = _make_drift(params, params.beta1, xi, SIMPLIFIED)
        sol = solve_ivp(lambda t, y: f(*y), (0.0, 1.0), [s[d], h[d]],
                        rtol=1e-10, atol=1e-12)
        assert sol.success
        s[d + 1], h[d + 1] = sol.y[:, -1]
    gap_s = np.max(np.abs(run.s.values - s))
    gap_h = np.max(np.abs(run.h.values - h))
    shape = monthly_shape(run.p)
    adaptive = monthly_shape(price_from_sentiment(Series(s), params))
    gap_skew, gap_kurt = (abs(a - b) for a, b in zip(shape, adaptive))
    with capsys.disabled():
        print(f"RK4 vs RK45 on one noise path: |ds| {gap_s:.2e}, |dh| "
              f"{gap_h:.2e}, skewness {gap_skew:.2e}, excess kurtosis "
              f"{gap_kurt:.2e}")
    assert gap_s < 1e-6 and gap_h < 1e-6
    assert gap_skew < 1e-6 and gap_kurt < 1e-6
