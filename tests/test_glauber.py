"""Exact spin-flip kinetics: rates, Gibbs equilibrium, trajectories,
and the deterministic (rate-equation) limit."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import gammaln, logsumexp

from newsmarket import glauber
from newsmarket.core import RandomSource
from newsmarket.glauber import (
    _BLOCK,
    GlauberTrajectory,
    SpinMacroState,
    SpinSystemConfig,
    _meanfield_rhs,
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


@pytest.mark.parametrize("theta", [1e-310, 5e-324, 2.2e-308])
def test_config_rejects_a_subnormal_theta(theta):
    # 1/theta overflowed: equilibrium_distribution returned an all-NaN P
    # and simulate_glauber blamed the fields b_s, b_h
    with pytest.raises(ValueError, match="theta must be at least"):
        SpinSystemConfig(N_s=4, N_h=2, theta=theta)
    SpinSystemConfig(N_s=4, N_h=2, theta=2.2250738585072014e-308)


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


def test_infinite_theta_is_the_free_spin_limit():
    # theta = inf is beta = 0: couplings and fields drop out exactly
    hot = SpinSystemConfig(N_s=6, N_h=4, J11=1.2, J12=0.5, J21=0.75,
                           J22=0.3, mu_s=0.7, mu_h=0.4, theta=math.inf,
                           w_s=2.0, w_h=0.5, b_s=0.2, b_h=-0.1)
    free = SpinSystemConfig(N_s=6, N_h=4, w_s=2.0, w_h=0.5)
    for S in range(-6, 7, 2):
        for H in range(-4, 5, 2):
            state = SpinMacroState(S, H)
            assert transition_rates(state, hot) == transition_rates(state,
                                                                    free)
    S_vals, H_vals, P = equilibrium_distribution(hot)
    for i, S in enumerate(S_vals):
        for j, H in enumerate(H_vals):
            want = (math.comb(6, (6 + S) // 2) * math.comb(4, (4 + H) // 2)
                    / 2.0 ** 10)
            assert P[i, j] == pytest.approx(want, rel=1e-12)
    # equal rates make equal chains from the same draws
    a = simulate_glauber(hot, 50.0, RandomSource(5))
    b = simulate_glauber(free, 50.0, RandomSource(5))
    assert a.n_events == b.n_events > 0
    assert a.times.tobytes() == b.times.tobytes()
    assert a.s.tobytes() == b.s.tobytes() and a.h.tobytes() == b.h.tobytes()


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


def assert_run_is_scalar_loop(config, horizon, seed, init, sample_step):
    run = simulate_glauber(config, horizon, RandomSource(seed), init,
                           sample_step)
    times, s, h, n_events = scalar_event_loop(config, horizon,
                                              RandomSource(seed), init,
                                              sample_step)
    assert run.n_events == n_events
    assert run.times.tobytes() == times.tobytes()
    assert run.s.tobytes() == s.tobytes()
    assert run.h.tobytes() == h.tobytes()
    return run


@given(config=st.sampled_from([DB, DRIVEN, LARGE]),
       horizon=st.sampled_from([0.05, 3.0, 300.0]),
       sample_step=st.sampled_from([None, 0.7]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       start=st.sampled_from(["all-up", "zero"]))
@settings(max_examples=20, deadline=None)
def test_event_loop_takes_numpy_integer_sizes_and_states(
        config, horizon, sample_step, seed, start):
    config = dataclasses.replace(config, N_s=np.int64(config.N_s),
                                 N_h=np.int64(config.N_h))
    init = (SpinMacroState(config.N_s, config.N_h) if start == "all-up"
            else SpinMacroState(config.N_s % 2, config.N_h % 2))
    assert isinstance(init.S, np.int64) and isinstance(init.H, np.int64)
    assert_run_is_scalar_loop(config, horizon, seed, init, sample_step)


@pytest.mark.parametrize("size", [int, np.int64])
@pytest.mark.parametrize("shape", [(2**40, 2**40), (2, 2**61)])
@pytest.mark.parametrize("start", ["all-up", "zero"])
@pytest.mark.parametrize("gridded", [False, True])
def test_event_loop_with_a_state_index_beyond_int64(size, shape, start,
                                                    gridded):
    # the index (S + N_s)*(2*N_h + 1) + (H + N_h) reaches about 2**83 in
    # the first shape and lies between 2**63 and 2**64 in the second, with
    # H below zero from the zero start: neither the loop nor the decoding
    # may wrap, whatever type the sizes and the state have
    n_s, n_h = map(size, shape)
    config = SpinSystemConfig(N_s=n_s, N_h=n_h, J11=1.1, J12=0.5,
                              J21=0.5 * shape[0] / shape[1], J22=0.3,
                              mu_s=0.7, theta=0.9, b_s=0.2)
    init = (SpinMacroState(n_s, n_h) if start == "all-up"
            else SpinMacroState(size(0), size(0)))
    horizon = 2000.0 / sum(shape)
    run = assert_run_is_scalar_loop(config, horizon, 5, init,
                                    horizon / 100 if gridded else None)
    assert 100 < run.n_events < 2000


@given(config=st.sampled_from([DB, DRIVEN, LARGE]),
       cache_size=st.sampled_from([1, 2, 7]),
       horizon=st.sampled_from([3.0, 2000.0]),
       sample_step=st.sampled_from([None, 0.7]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       start=st.sampled_from(["all-up", "zero"]))
@settings(max_examples=30, deadline=None)
def test_event_loop_matches_scalar_draws_with_a_tiny_rate_table(
        config, cache_size, horizon, sample_step, seed, start):
    # a table this small is emptied many times over; the stored rates must
    # stay the ones the scalar loop computes
    init = None if start == "all-up" else SpinMacroState(
        config.N_s % 2, config.N_h % 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glauber, "_RATE_CACHE", cache_size)
        run = simulate_glauber(config, horizon, RandomSource(seed), init,
                               sample_step)
    times, s, h, n_events = scalar_event_loop(config, horizon,
                                              RandomSource(seed), init,
                                              sample_step)
    assert run.n_events == n_events
    assert run.times.tobytes() == times.tobytes()
    assert run.s.tobytes() == s.tobytes()
    assert run.h.tobytes() == h.tobytes()


@given(config=st.sampled_from([DB, DRIVEN, LARGE]),
       cache_size=st.sampled_from([None, 1, 2, 7]),
       horizon=st.sampled_from([3.0, 300.0]),
       sample_step=st.sampled_from([None, 0.7]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       start=st.sampled_from(["all-up", "zero"]))
@settings(max_examples=30, deadline=None)
def test_every_realization_of_one_call_is_its_own_simulate_glauber(
        config, cache_size, horizon, sample_step, seed, start):
    # one set-up and one rate table shared by three streams leave each
    # trajectory the bytes that simulate_glauber gives on its stream alone
    init = None if start == "all-up" else SpinMacroState(
        config.N_s % 2, config.N_h % 2)
    rng = RandomSource(seed)
    with pytest.MonkeyPatch.context() as mp:
        if cache_size is not None:
            mp.setattr(glauber, "_RATE_CACHE", cache_size)
        runs = list(glauber._runs(config, horizon,
                                  [rng.substream(i) for i in range(3)],
                                  init, sample_step))
        if sample_step is not None:
            report = meanfield_compare(config, horizon, 3, rng, init,
                                       sample_step)
        alone = [simulate_glauber(config, horizon, rng.substream(i), init,
                                  sample_step) for i in range(3)]
    for run, want in zip(runs, alone):
        assert run.n_events == want.n_events
        assert run.times.tobytes() == want.times.tobytes()
        assert run.s.tobytes() == want.s.tobytes()
        assert run.h.tobytes() == want.h.tobytes()
    if sample_step is not None:
        assert report.times.tobytes() == alone[0].times.tobytes()
        for got, arrays in ((report.mean_s, [r.s for r in alone]),
                            (report.mean_h, [r.h for r in alone])):
            assert got.tobytes() == np.mean(arrays, axis=0).tobytes()


@pytest.mark.parametrize("sample_step", [None, 0.5])
def test_the_runs_of_one_call_own_their_times(sample_step):
    runs = list(glauber._runs(DB, 10.0, [RandomSource(0).substream(i)
                                         for i in range(3)],
                              None, sample_step))
    first = runs[1].times.copy()
    runs[0].times[:] = -1.0
    assert np.array_equal(runs[1].times, first)
    assert not np.shares_memory(runs[0].times, runs[2].times)


def counted_rates(monkeypatch):
    """Patch glauber._make_rates so that every rate evaluation is counted;
    returns the counter, a list of [rate evaluations, closures built]."""
    calls = [0, 0]
    make = glauber._make_rates

    def counting_make_rates(config):
        calls[1] += 1
        rates = make(config)

        def counted(*args):
            calls[0] += 1
            return rates(*args)
        return counted

    monkeypatch.setattr(glauber, "_make_rates", counting_make_rates)
    return calls


def test_constant_fields_compute_rates_once_per_visited_state(monkeypatch):
    calls = counted_rates(monkeypatch)
    run = simulate_glauber(DB, 2000.0, RandomSource(3))
    # every recorded state, the final one included, had its rates computed
    visited = set(zip(run.s.tolist(), run.h.tolist()))
    assert run.n_events > 20 * len(visited)
    assert calls[0] == len(visited)
    # an emptied table computes a state's rates again on the next visit
    monkeypatch.setattr(glauber, "_RATE_CACHE", 4)
    calls[0] = 0
    simulate_glauber(DB, 2000.0, RandomSource(3))
    assert len(visited) < calls[0] < run.n_events


def test_meanfield_compare_computes_each_state_once_for_all_runs(
        monkeypatch):
    calls = counted_rates(monkeypatch)
    meanfield_compare(DB, 200.0, 5, RandomSource(3))
    evaluations, builds = calls
    assert builds == 1
    # the states each realization visits, from its per-event trajectory
    runs = [simulate_glauber(DB, 200.0, RandomSource(3).substream(i))
            for i in range(5)]
    visited = [set(zip(r.s.tolist(), r.h.tolist())) for r in runs]
    assert evaluations == len(set().union(*visited))
    # realizations share states, so one table per realization costs more
    assert evaluations < sum(map(len, visited))


def test_callable_fields_compute_rates_at_every_event(monkeypatch):
    calls = counted_rates(monkeypatch)
    run = simulate_glauber(DRIVEN, 200.0, RandomSource(3))
    # one evaluation per event plus the one whose wait passes the horizon
    assert calls[0] == run.n_events + 1


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


def _counted_field():
    """A constant field that fails the test after 10,000 evaluations."""
    calls = 0

    def b_s(t):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise FieldCalledTooOften
        return 0.1

    return b_s


@pytest.mark.parametrize("run", [
    lambda cfg: simulate_glauber(cfg, math.inf, RandomSource(0)),
    lambda cfg: simulate_glauber(cfg, math.inf, RandomSource(0),
                                 sample_step=1.0),
    lambda cfg: meanfield_compare(cfg, math.inf, 2, RandomSource(0)),
], ids=["per-event", "grid", "meanfield"])
def test_infinite_horizon_is_rejected_by_name(run):
    # per-event sampling never reached the horizon (the field's call count
    # stops it here); the grid size overflowed without a name
    cfg = SpinSystemConfig(N_s=8, N_h=4, J11=1.0, mu_s=1.0,
                           b_s=_counted_field())
    with pytest.raises(ValueError,
                       match="horizon must be positive and finite"):
        run(cfg)


@pytest.mark.parametrize("run", [
    lambda cfg: simulate_glauber(cfg, 2.0, RandomSource(0),
                                 sample_step=math.inf),
    lambda cfg: meanfield_compare(cfg, 2.0, 2, RandomSource(0),
                                  sample_step=math.inf),
], ids=["grid", "meanfield"])
def test_infinite_sample_step_is_rejected_by_name(run):
    # the grid was inf * 0 = nan: one row at time nan for a trajectory,
    # numpy's "need at least one array to concatenate" for meanfield
    with pytest.raises(ValueError,
                       match="sample_step must be positive and finite"):
        run(DB)


def test_underflowing_constant_rates_raise_on_first_visit():
    # from the all-up state every flip rate underflows to 0.0
    frozen = SpinSystemConfig(N_s=8, N_h=4, J11=1000.0, J22=1000.0,
                              theta=1e-3)
    assert transition_rates(SpinMacroState(8, 4), frozen) == (0.0,) * 4
    with pytest.raises(ValueError, match=r"total flip rate 0\.0 at t = 0\.0"):
        simulate_glauber(frozen, 10.0, RandomSource(0))


def test_underflowing_rates_name_theta_and_the_state():
    # a tiny but normal theta freezes the all-up state; the message
    # blamed only the fields b_s, b_h
    cold = SpinSystemConfig(N_s=50, N_h=10, J11=0.8, J12=0.2, J21=1.0,
                            J22=0.1, theta=1e-300)
    with pytest.raises(ValueError,
                       match=r"\(S, H\) = \(50, 10\).*theta"):
        simulate_glauber(cold, 2.0, RandomSource(0))


# every rate of the all-up state is subnormal or 0: the total is positive,
# but the first waiting time divides to inf
FROZEN = SpinSystemConfig(N_s=8, N_h=8, J11=1.0, J22=1.0, theta=2.4e-3)


@pytest.mark.parametrize("sample_step", [None, 1.0])
def test_an_infinite_waiting_time_holds_the_start_state(sample_step):
    total = sum(transition_rates(SpinMacroState(8, 8), FROZEN))
    assert 0.0 < total < sys.float_info.min
    assert float(RandomSource(0).exponential()) / total == math.inf
    run = assert_run_is_scalar_loop(FROZEN, 10.0, 0, None, sample_step)
    assert run.n_events == 0
    want = [0.0] if sample_step is None else np.arange(11.0).tolist()
    assert run.times.tolist() == want
    assert run.s.tolist() == run.h.tolist() == [1.0] * len(want)


@pytest.mark.parametrize("config", [DB, DRIVEN], ids=["DB", "DRIVEN"])
def test_a_sample_step_past_the_horizon_records_the_start_only(config):
    # the grid is the one point t = 0, so the hold meets its end at once
    run = assert_run_is_scalar_loop(config, 0.9, 3, SpinMacroState(0, 0), 1.0)
    assert run.n_events > 0
    assert run.times.tolist() == [0.0]
    assert run.s.tolist() == run.h.tolist() == [0.0]


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


def test_state_beyond_n_h_is_named():
    cfg = SpinSystemConfig(N_s=4, N_h=2)
    with pytest.raises(ValueError, match=r"\|H\| = 4 exceeds N_h = 2"):
        transition_rates(SpinMacroState(0, 4), cfg)


@pytest.mark.parametrize("n_realizations", [1, 2])
def test_meanfield_compare_needs_a_sample_grid(n_realizations):
    # per-event samples have no common times to average or compare at
    cfg = SpinSystemConfig(N_s=100, N_h=10, J11=0.5)
    with pytest.raises(ValueError, match="sample_step"):
        meanfield_compare(cfg, 5.0, n_realizations, RandomSource(0),
                          sample_step=None)


# ---------------------------------------------------------------------------
# the scipy code glauber no longer imports, as the oracle of what replaced
# it: solve_ivp's RK45 path, and the gammaln/logsumexp Gibbs weights

CRITERION_4 = SpinSystemConfig(N_s=10_000, N_h=1_000, J11=1.1, J12=0.55,
                               J21=5.5, theta=1.0, w_s=0.04, w_h=0.4)


def rk45_pair(config, horizon, y0, times):
    """(solve_ivp's result, _rk45's y) on the rate equations."""
    sol = solve_ivp(_meanfield_rhs, (0.0, horizon), y0, t_eval=times,
                    args=(config,), rtol=1e-10, atol=1e-12)
    try:
        ours = glauber._rk45(lambda t, y: _meanfield_rhs(t, y, config),
                             (0.0, horizon), y0, times)
    except RuntimeError as exc:
        ours = exc
    return sol, ours


def assert_rk45_is_solve_ivp(config, horizon, y0, times):
    sol, y = rk45_pair(config, horizon, y0, times)
    assert sol.success
    assert y.tobytes() == sol.y.tobytes()


def test_rk45_is_solve_ivp_on_the_criterion_4_config():
    assert_rk45_is_solve_ivp(CRITERION_4, 500.0, [1.0, 1.0],
                             np.arange(501.0))
    assert_rk45_is_solve_ivp(CRITERION_4, 500.0, [0.3, -0.6],
                             np.arange(501.0))


def test_rk45_is_solve_ivp_on_driven_configs():
    cfg = SpinSystemConfig(N_s=1000, N_h=2, J11=0.8, mu_s=1.0, theta=1.0,
                           b_s=lambda t: 0.3 * math.sin(0.5 * t))
    assert_rk45_is_solve_ivp(cfg, 30.0, [0.0, 0.0], 0.5 * np.arange(61))
    # the horizon between two grid points, as meanfield_compare passes it
    assert_rk45_is_solve_ivp(DRIVEN, 40.5, [-0.5, 0.25], 0.7 * np.arange(58))


@given(j=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3,
                  max_size=3),
       fields=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4,
                       max_size=4),
       theta=st.floats(min_value=0.1, max_value=10.0),
       rates=st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=2,
                      max_size=2),
       y0=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2,
                   max_size=2),
       step=st.sampled_from([0.1, 0.5, 1.0, 7.0]),
       n=st.integers(min_value=1, max_value=300),
       extra=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_rk45_is_solve_ivp_on_constant_field_configs(j, fields, theta, rates,
                                                     y0, step, n, extra):
    cfg = SpinSystemConfig(N_s=100, N_h=50, J11=j[0], J12=j[1],
                           J21=2.0 * j[1], J22=j[2], mu_s=fields[0],
                           mu_h=fields[1], b_s=fields[2], b_h=fields[3],
                           theta=theta, w_s=rates[0], w_h=rates[1])
    times = step * np.arange(n + 1)
    assert_rk45_is_solve_ivp(cfg, float(times[-1]) + extra * step, y0,
                             times)


def test_rk45_fails_like_solve_ivp_when_the_step_collapses():
    # a NaN field makes every step past t = 1 fail its error test, so the
    # step shrinks below the spacing of the floats at t
    cfg = SpinSystemConfig(N_s=100, N_h=10, J11=0.5, mu_s=1.0,
                           b_s=lambda t: math.nan if t > 1.0 else 0.1)
    sol, ours = rk45_pair(cfg, 5.0, [1.0, 1.0], np.arange(6.0))
    assert not sol.success
    assert isinstance(ours, RuntimeError)
    assert str(ours) == f"rate-equation integration failed: {sol.message}"


def test_meanfield_compare_reaches_a_grid_point_past_the_horizon():
    # 317 * 0.1 rounds above 31.7: solve_ivp rejected that t_eval as
    # outside the span, so the comparison failed on scipy's message
    cfg = SpinSystemConfig(N_s=100, N_h=10, J11=0.5)
    rep = meanfield_compare(cfg, 31.7, 2, RandomSource(0), sample_step=0.1)
    assert len(rep.times) == 318 and rep.times[-1] > 31.7
    sol = solve_ivp(_meanfield_rhs, (0.0, rep.times[-1]), [1.0, 1.0],
                    t_eval=rep.times, args=(cfg,), rtol=1e-10, atol=1e-12)
    assert rep.ode_s.tobytes() == sol.y[0].tobytes()
    assert rep.ode_h.tobytes() == sol.y[1].tobytes()


def gibbs_with_scipy(config):
    """equilibrium_distribution's P as it was computed with scipy's
    gammaln and logsumexp."""
    ns, nh = config.N_s, config.N_h
    S = np.arange(-ns, ns + 1, 2, dtype=float)
    H = np.arange(-nh, nh + 1, 2, dtype=float)
    ln_gs = (gammaln(ns + 1) - gammaln((ns + S) / 2 + 1)
             - gammaln((ns - S) / 2 + 1))
    ln_gh = (gammaln(nh + 1) - gammaln((nh + H) / 2 + 1)
             - gammaln((nh - H) / 2 + 1))
    energy = (-0.5 * config.J11 / ns * S[:, None] ** 2
              - config.J12 / nh * S[:, None] * H[None, :]
              - config.mu_s * config.b_s * S[:, None]
              - 0.5 * config.J22 / nh * H[None, :] ** 2
              - config.mu_h * config.b_h * H[None, :])
    ln_p = ln_gs[:, None] + ln_gh[None, :] - energy / config.theta
    return np.exp(ln_p - logsumexp(ln_p))


@pytest.mark.parametrize("config", [
    DB,
    SpinSystemConfig(N_s=6, N_h=4, J11=1.2, J12=0.5, J21=0.75, J22=0.3,
                     mu_s=0.7, mu_h=0.4, theta=1.3, b_s=0.2, b_h=-0.1),
    SpinSystemConfig(N_s=6, N_h=4),
    SpinSystemConfig(N_s=6, N_h=4, J11=1.2, J12=0.5, J21=0.75, J22=0.3,
                     mu_s=0.7, mu_h=0.4, theta=math.inf, b_s=0.2, b_h=-0.1),
    SpinSystemConfig(N_s=5, N_h=3, J11=-0.7, J12=0.3, J21=0.5, J22=2.0,
                     mu_s=1.5, mu_h=-0.4, theta=0.3, b_s=-0.6, b_h=0.9),
], ids=["criterion-3", "warm", "free", "hot", "odd-sizes"])
def test_equilibrium_distribution_matches_the_scipy_form(config):
    _, _, P = equilibrium_distribution(config)
    np.testing.assert_allclose(P, gibbs_with_scipy(config), rtol=1e-14,
                               atol=0.0)
    assert P.sum() == pytest.approx(1.0, abs=1e-15)


def test_equilibrium_distribution_matches_the_scipy_form_at_large_sizes():
    # each weight is exp of log-factorials up to lgamma(N + 1); a few
    # roundings of those, in either form, bound the relative gap
    cfg = SpinSystemConfig(N_s=200, N_h=100, J11=1.1, J12=0.5, J21=1.0,
                           J22=0.2, mu_s=0.3, b_s=0.1, theta=1.0)
    _, _, P = equilibrium_distribution(cfg)
    want = gibbs_with_scipy(cfg)
    assert want.min() > 1e-280
    scale = math.lgamma(cfg.N_s + 1) + math.lgamma(cfg.N_h + 1)
    np.testing.assert_allclose(P, want, atol=0.0,
                               rtol=16 * np.finfo(float).eps * scale)
    assert P.sum() == pytest.approx(1.0, abs=1e-15)
