"""Exact spin-flip kinetics: rates, Gibbs equilibrium, trajectories,
and the deterministic (rate-equation) limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsmarket.core import RandomSource
from newsmarket.glauber import (
    _BLOCK,
    GlauberTrajectory,
    SpinMacroState,
    SpinSystemConfig,
    equilibrium_distribution,
    meanfield_compare,
    simulate_glauber,
    transition_rates,
)

# small two-species system with every term switched on
DB = SpinSystemConfig(N_s=8, N_h=4, J11=1.2, J12=0.5, J21=1.0, J22=0.3,
                      mu_s=0.7, mu_h=0.4, theta=0.9, w_s=1.0, w_h=1.0,
                      b_s=0.2, b_h=-0.1)


def gibbs_by_enumeration(config, t=0.0):
    """Independent Gibbs weights: binomial coefficients times explicit
    Boltzmann factors, no log-space tricks."""
    ns, nh = config.N_s, config.N_h
    js, jsh = config.J11 / ns, config.J12 / nh
    jh = config.J22 / nh
    bs = config.b_s(t) if callable(config.b_s) else config.b_s
    bh = config.b_h(t) if callable(config.b_h) else config.b_h
    states = {}
    for S in range(-ns, ns + 1, 2):
        for H in range(-nh, nh + 1, 2):
            g = math.comb(ns, (ns + S) // 2) * math.comb(nh, (nh + H) // 2)
            E = (-0.5 * js * S * S - jsh * S * H - config.mu_s * bs * S
                 - 0.5 * jh * H * H - config.mu_h * bh * H)
            states[(S, H)] = g * math.exp(-E / config.theta)
    z = sum(states.values())
    return {k: v / z for k, v in states.items()}


def test_config_validation():
    with pytest.raises(ValueError, match="N_s"):
        SpinSystemConfig(N_s=0, N_h=4)
    with pytest.raises(ValueError, match="theta"):
        SpinSystemConfig(N_s=4, N_h=4, theta=0.0)
    with pytest.raises(ValueError, match="w_h"):
        SpinSystemConfig(N_s=4, N_h=4, w_h=-1.0)
    with pytest.raises(ValueError, match="J21/J12"):
        SpinSystemConfig(N_s=8, N_h=4, J12=0.5, J21=0.9)
    # consistent cross couplings pass
    SpinSystemConfig(N_s=8, N_h=4, J12=0.5, J21=1.0)


@given(name=st.sampled_from(["J11", "J12", "J21", "J22", "mu_s", "mu_h",
                             "w_s", "w_h", "b_s", "b_h"]),
       value=st.sampled_from([math.inf, -math.inf, math.nan]))
@settings(max_examples=60, deadline=None)
def test_config_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=name):
        SpinSystemConfig(N_s=4, N_h=4, **{name: value})


def test_state_validation():
    cfg = SpinSystemConfig(N_s=4, N_h=2)
    with pytest.raises(ValueError, match="exceeds N_s"):
        transition_rates(SpinMacroState(6, 0), cfg)
    with pytest.raises(ValueError, match="S parity"):
        transition_rates(SpinMacroState(1, 0), cfg)
    with pytest.raises(ValueError, match="H parity"):
        transition_rates(SpinMacroState(0, 1), cfg)


def test_boundary_rates_vanish():
    r_up, r_dn, _, _ = transition_rates(SpinMacroState(DB.N_s, 0), DB)
    assert r_up == 0.0 and r_dn > 0.0
    r_up, r_dn, _, _ = transition_rates(SpinMacroState(-DB.N_s, 0), DB)
    assert r_dn == 0.0 and r_up > 0.0
    _, _, h_up, h_dn = transition_rates(SpinMacroState(0, DB.N_h), DB)
    assert h_up == 0.0 and h_dn > 0.0


def test_free_spin_rates_exact():
    # no couplings, no fields: every flip is a fair coin at rate w/2
    cfg = SpinSystemConfig(N_s=10, N_h=4, w_s=2.0, w_h=0.5)
    r1, r2, r3, r4 = transition_rates(SpinMacroState(4, -2), cfg)
    assert r1 == 2.0 * 0.5 * (10 - 4) * 0.5
    assert r2 == 2.0 * 0.5 * (10 + 4) * 0.5
    assert r3 == 0.5 * 0.5 * (4 + 2) * 0.5
    assert r4 == 0.5 * 0.5 * (4 - 2) * 0.5


def test_infinite_temperature_limit():
    hot = SpinSystemConfig(N_s=8, N_h=4, J11=1.2, J12=0.5, J21=1.0,
                           J22=0.3, mu_s=0.7, theta=1e12, b_s=0.2)
    r1, r2, r3, r4 = transition_rates(SpinMacroState(2, 0), hot)
    assert r1 == pytest.approx(0.5 * (8 - 2) * 0.5, rel=1e-9)
    assert r2 == pytest.approx(0.5 * (8 + 2) * 0.5, rel=1e-9)


def test_detailed_balance_exact():
    P = gibbs_by_enumeration(DB)
    worst = 0.0
    for (S, H), p in P.items():
        r1, r2, r3, r4 = transition_rates(SpinMacroState(S, H), DB)
        moves = [(r1, (S + 2, H), 1), (r2, (S - 2, H), 0),
                 (r3, (S, H + 2), 3), (r4, (S, H - 2), 2)]
        for rate, target, back_idx in moves:
            if target not in P:
                assert rate == 0.0
                continue
            back = transition_rates(SpinMacroState(*target), DB)[back_idx]
            flow = p * rate
            counter = P[target] * back
            if flow > 0 or counter > 0:
                worst = max(worst, abs(flow - counter) / max(flow, counter))
    assert worst < 1e-12


def test_equilibrium_distribution_matches_enumeration():
    S_vals, H_vals, P = equilibrium_distribution(DB)
    ref = gibbs_by_enumeration(DB)
    assert P.sum() == pytest.approx(1.0, abs=1e-12)
    assert P.shape == (len(S_vals), len(H_vals))
    for i, S in enumerate(S_vals):
        for j, H in enumerate(H_vals):
            assert P[i, j] == pytest.approx(ref[(S, H)], rel=1e-12)


def test_equilibrium_distribution_free_spins():
    cfg = SpinSystemConfig(N_s=6, N_h=4)
    S_vals, H_vals, P = equilibrium_distribution(cfg)
    for i, S in enumerate(S_vals):
        for j, H in enumerate(H_vals):
            want = (math.comb(6, (6 + S) // 2) * math.comb(4, (4 + H) // 2)
                    / 2.0 ** 10)
            assert P[i, j] == pytest.approx(want, rel=1e-12)


def test_equilibrium_distribution_time_dependent_field():
    varying = SpinSystemConfig(N_s=6, N_h=2, mu_s=1.0,
                               b_s=lambda t: 0.3 * math.sin(t))
    t = 1.2
    frozen = SpinSystemConfig(N_s=6, N_h=2, mu_s=1.0,
                              b_s=0.3 * math.sin(t))
    _, _, P_t = equilibrium_distribution(varying, t=t)
    _, _, P_c = equilibrium_distribution(frozen)
    assert np.allclose(P_t, P_c, rtol=1e-14)


def test_trajectory_parity_and_bounds():
    run = simulate_glauber(DB, 50.0, RandomSource(2))
    S = np.rint(run.s * DB.N_s).astype(int)
    H = np.rint(run.h * DB.N_h).astype(int)
    assert np.all(np.abs(S) <= DB.N_s)
    assert np.all(np.abs(H) <= DB.N_h)
    assert np.all((S - DB.N_s) % 2 == 0)
    assert np.all((H - DB.N_h) % 2 == 0)
    assert run.times[0] == 0.0
    assert run.s[0] == 1.0 and run.h[0] == 1.0
    assert np.all(np.diff(run.times) > 0)
    assert run.n_events == len(run.times) - 1


def test_trajectory_determinism():
    a = simulate_glauber(DB, 30.0, RandomSource(9))
    b = simulate_glauber(DB, 30.0, RandomSource(9))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.s, b.s)
    c = simulate_glauber(DB, 30.0, RandomSource(10))
    assert not np.array_equal(a.s, c.s)


def test_grid_sampling_holds_state():
    # the gridded trajectory must be the zero-order hold of the event
    # trajectory generated by the same draws
    cfg = SpinSystemConfig(N_s=6, N_h=2, J11=0.8, J12=0.25, J21=0.75,
                           J22=0.1, theta=1.0)
    events = simulate_glauber(cfg, 40.0, RandomSource(4))
    grid = simulate_glauber(cfg, 40.0, RandomSource(4), sample_step=0.7)
    assert grid.n_events == events.n_events
    n = int(math.floor(40.0 / 0.7)) + 1
    assert len(grid.times) == n
    assert np.allclose(grid.times, 0.7 * np.arange(n))
    idx = np.searchsorted(events.times, grid.times, side="right") - 1
    assert np.array_equal(grid.s, events.s[idx])
    assert np.array_equal(grid.h, events.h[idx])


def scalar_event_loop(config, horizon, rng, init=None, sample_step=None):
    """Reference direct-method loop: one rng.exponential() per waiting
    time, one rng.uniform() per event choice, rates from
    transition_rates at the event time."""
    if init is None:
        init = SpinMacroState(S=config.N_s, H=config.N_h)
    S, H = init.S, init.H
    t = 0.0
    n_events = 0
    ts, ss, hs = [0.0], [S], [H]
    if sample_step is not None:
        n_samples = int(math.floor(horizon / sample_step)) + 1
        grid = sample_step * np.arange(n_samples)
        ss = np.empty(n_samples)
        hs = np.empty(n_samples)
        ss[0], hs[0] = S, H
        next_k = 1
    while True:
        r1, r2, r3, r4 = transition_rates(SpinMacroState(S, H), config, t)
        total = r1 + r2 + r3 + r4
        t_new = t + float(rng.exponential()) / total
        if sample_step is not None:
            while next_k < n_samples and grid[next_k] <= t_new:
                ss[next_k], hs[next_k] = S, H
                next_k += 1
        if t_new > horizon:
            break
        u = float(rng.uniform()) * total
        if u < r1:
            S += 2
        elif u < r1 + r2:
            S -= 2
        elif u < r1 + r2 + r3:
            H += 2
        else:
            H -= 2
        t = t_new
        n_events += 1
        if sample_step is None:
            ts.append(t)
            ss.append(S)
            hs.append(H)
    times = np.asarray(ts) if sample_step is None else grid
    return (times, np.asarray(ss, dtype=float) / config.N_s,
            np.asarray(hs, dtype=float) / config.N_h, n_events)


DRIVEN = SpinSystemConfig(N_s=8, N_h=4, J11=1.2, J12=0.5, J21=1.0, J22=0.3,
                          mu_s=0.7, mu_h=0.4, theta=0.9,
                          b_s=lambda t: 0.3 * math.sin(0.5 * t),
                          b_h=lambda t: -0.2 * math.cos(t))
LARGE = SpinSystemConfig(N_s=1000, N_h=100, J11=1.1, J12=0.55, J21=5.5,
                         theta=1.0, w_s=0.04, w_h=0.4)


@given(config=st.sampled_from([DB, DRIVEN, LARGE]),
       horizon=st.sampled_from([0.05, 3.0, 2000.0]),
       sample_step=st.sampled_from([None, 0.7, 10.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       start=st.sampled_from(["all-up", "zero"]))
@settings(max_examples=40, deadline=None)
def test_event_loop_matches_scalar_draws_bitwise(config, horizon,
                                                 sample_step, seed, start):
    init = None if start == "all-up" else SpinMacroState(
        config.N_s % 2, config.N_h % 2)
    run = simulate_glauber(config, horizon, RandomSource(seed), init,
                           sample_step)
    times, s, h, n_events = scalar_event_loop(config, horizon,
                                              RandomSource(seed), init,
                                              sample_step)
    assert run.n_events == n_events
    assert np.array_equal(run.times, times)
    assert np.array_equal(run.s, s)
    assert np.array_equal(run.h, h)


def test_event_loop_parity_spans_several_blocks():
    # the longest horizon above crosses block boundaries for every config
    for config in (DB, DRIVEN, LARGE):
        run = simulate_glauber(config, 2000.0, RandomSource(0))
        assert run.n_events > 2 * _BLOCK


def test_simulate_errors():
    with pytest.raises(ValueError, match="horizon"):
        simulate_glauber(DB, 0.0, RandomSource(0))
    with pytest.raises(ValueError, match="sample_step"):
        simulate_glauber(DB, 10.0, RandomSource(0), sample_step=0.0)
    with pytest.raises(ValueError, match="invalid macrostate"):
        simulate_glauber(DB, 10.0, RandomSource(0),
                         init=SpinMacroState(99, 0))


class FieldCalledTooOften(Exception):
    pass


def test_nan_field_raises_instead_of_hanging():
    calls = 0

    def b_s(t):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise FieldCalledTooOften
        return math.nan

    cfg = SpinSystemConfig(N_s=8, N_h=4, J11=1.0, mu_s=1.0, b_s=b_s)
    with pytest.raises(ValueError, match="rate"):
        simulate_glauber(cfg, 10.0, RandomSource(0))


def test_time_average_matches_gibbs_mean():
    # long-run occupancy average of s against the exact ensemble mean;
    # subcritical coupling so the chain decorrelates in a few time units
    cfg = SpinSystemConfig(N_s=8, N_h=4, J11=0.6, J12=0.25, J21=0.5,
                           J22=0.2, mu_s=0.5, mu_h=0.3, theta=1.0,
                           b_s=0.3, b_h=-0.2)
    S_vals, H_vals, P = equilibrium_distribution(cfg)
    exact_s = float((P.sum(axis=1) * S_vals).sum()) / cfg.N_s
    exact_h = float((P.sum(axis=0) * H_vals).sum()) / cfg.N_h
    run = simulate_glauber(cfg, 20000.0, RandomSource(31), sample_step=5.0)
    skip = int(20.0 / 5.0)
    assert run.s[skip:].mean() == pytest.approx(exact_s, abs=0.02)
    assert run.h[skip:].mean() == pytest.approx(exact_h, abs=0.02)


def test_fluctuations_scale_as_inverse_sqrt_n():
    # paramagnetic fluctuations: std(s) ~ N^(-1/2), here inflated by the
    # susceptibility factor 1/sqrt(1 - J11) = 1.195
    stds = {}
    for k, n in enumerate((100, 1000, 10000)):
        cfg = SpinSystemConfig(N_s=n, N_h=2, J11=0.3, theta=1.0)
        run = simulate_glauber(cfg, 300.0, RandomSource(40 + k),
                               init=SpinMacroState(0, 0), sample_step=1.0)
        stds[n] = run.s[20:].std()
    for n, sd in stds.items():
        assert 1.0 / 1.5 < sd * math.sqrt(n) < 1.5
    # and the scaling between sizes is the square-root law itself
    assert stds[100] / stds[10000] == pytest.approx(10.0, rel=0.25)


def test_driven_ensemble_tracks_rate_equation():
    cfg = SpinSystemConfig(N_s=1000, N_h=2, J11=0.8, mu_s=1.0, theta=1.0,
                           b_s=lambda t: 0.3 * math.sin(0.5 * t))
    rep = meanfield_compare(cfg, 30.0, 30, RandomSource(8),
                            init=SpinMacroState(0, 0), sample_step=0.5)
    assert rep.max_deviation_s < 0.05
    assert rep.rms_deviation_s < 0.02
    # the drive actually moves the system; this is not a null comparison
    assert np.ptp(rep.ode_s) > 0.3


def test_meanfield_deviation_shrinks_with_n():
    small = SpinSystemConfig(N_s=10, N_h=2, J11=0.5, theta=1.0)
    big = SpinSystemConfig(N_s=2000, N_h=2, J11=0.5, theta=1.0)
    rep_small = meanfield_compare(small, 10.0, 20, RandomSource(12),
                                  init=SpinMacroState(0, 0), sample_step=0.5)
    rep_big = meanfield_compare(big, 10.0, 20, RandomSource(12),
                                init=SpinMacroState(0, 0), sample_step=0.5)
    # compare the large species only; the two-spin h component fluctuates
    # at order one for any N_s
    assert rep_big.max_deviation_s < rep_small.max_deviation_s
    assert rep_big.max_deviation_s < 0.05


def test_meanfield_report_fields():
    cfg = SpinSystemConfig(N_s=500, N_h=2, J11=0.5, theta=1.0)
    rep = meanfield_compare(cfg, 5.0, 4, RandomSource(1), sample_step=1.0)
    assert rep.times.shape == rep.mean_s.shape == rep.ode_s.shape
    assert rep.max_deviation == max(rep.max_deviation_s, rep.max_deviation_h)
    assert rep.rms_deviation == pytest.approx(
        math.hypot(rep.rms_deviation_s, rep.rms_deviation_h), abs=1e-15)
    # all-up default start matches the ODE initial condition
    assert rep.mean_s[0] == 1.0 and rep.ode_s[0] == 1.0


def test_meanfield_rejects_zero_realizations():
    cfg = SpinSystemConfig(N_s=100, N_h=2)
    with pytest.raises(ValueError, match="n_realizations"):
        meanfield_compare(cfg, 5.0, 0, RandomSource(0))
