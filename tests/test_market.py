"""Closed-loop market simulation: drift, integration, ensembles, noise map."""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsmarket.core import (_BOUND_SLACK, MarketState, ModelParams,
                             RandomSource, Series)
from newsmarket.market import (
    FULL,
    SIMPLIFIED,
    _left_box,
    _make_drift,
    _rk4_step,
    drift,
    ensemble,
    noise_dominance_map,
    simulate,
)
from newsmarket.phase import integrate_autonomous

MAIN = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.374,
                   a2=0.002, gamma=56.0, delta=0.03, kappa=1.0, a4=6.5,
                   s_star=0.131)
QUIET = MAIN.replace(kappa=0.0)


def test_drift_zero_at_origin_without_tilt():
    p = QUIET.replace(delta=0.0)
    ds, dh = drift(MarketState(0.0, 0.0), p)
    assert ds == 0.0 and dh == 0.0


def test_drift_formula_simplified():
    st = MarketState(0.5, 0.5)
    ds, dh = drift(st, QUIET)
    ds_want = -0.04 * 0.5 + 0.04 * math.tanh(1.1 * 0.5 + 0.55 * 0.5)
    dh_want = -0.4 * 0.5 + 0.4 * math.tanh(56.0 * ds_want + 0.03)
    assert ds == pytest.approx(ds_want, abs=1e-15)
    assert dh == pytest.approx(dh_want, abs=1e-15)


def test_drift_full_mode_reduction():
    # with beta3 = beta4 = 0 and s = s_star the full-mode trend argument
    # collapses to gamma*ds/dt, i.e. the simplified argument at delta = 0
    pars = QUIET.replace(delta=0.0, s_star=0.25)
    st = MarketState(0.25, 0.4)
    assert drift(st, pars, mode=FULL) == pytest.approx(
        drift(st, pars, mode=SIMPLIFIED), abs=1e-15)
    # away from s_star the slow-channel term shifts the argument
    st2 = MarketState(0.6, 0.4)
    ds_f, dh_f = drift(st2, pars, mode=FULL)
    ds_s, dh_s = drift(st2, pars, mode=SIMPLIFIED)
    assert ds_f == ds_s
    assert dh_f != dh_s


def test_drift_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        drift(MarketState(0.0, 0.0), QUIET, mode="hybrid")


def test_fixed_point_residual():
    # a true equilibrium of the noiseless loop: s solves the closed
    # relation with h = tanh(delta), since ds/dt = 0 there
    from newsmarket.phase import find_equilibria

    pts = find_equilibria(QUIET)
    q = max(pts, key=lambda e: e.s_star_pt)
    ds, dh = drift(MarketState(q.s_star_pt, q.h_star_pt), QUIET)
    assert abs(ds) < 1e-10 and abs(dh) < 1e-10


def test_quiet_run_converges_to_focus():
    # gamma_bar = 2.24 sits below the Hopf range: trajectories spiral in
    run = simulate(QUIET, MarketState(0.9, 0.0), 2001)
    from newsmarket.phase import find_equilibria

    target = max(find_equilibria(QUIET), key=lambda e: e.s_star_pt)
    assert abs(run.s.values[-1] - target.s_star_pt) < 1e-6
    assert abs(run.h.values[-1] - target.h_star_pt) < 1e-6


def test_run_shapes_and_xi():
    run = simulate(MAIN, MarketState(0.5, 0.0), 100, rng=RandomSource(1))
    assert len(run.s) == len(run.h) == len(run.p) == 100
    assert run.xi.shape == (99,)
    assert run.s.values[0] == 0.5 and run.h.values[0] == 0.0
    assert run.seed == 1 and run.stream_id == 0 and run.mode == SIMPLIFIED
    quiet = simulate(QUIET, MarketState(0.5, 0.0), 10)
    assert np.array_equal(quiet.xi, np.zeros(9))
    assert quiet.seed is None


def test_xi_is_the_scalar_draw_sequence():
    # simulate draws the day's noise in one block; it must equal, bit for
    # bit, n - 1 successive scalar draws from the same stream
    run = simulate(MAIN, MarketState(0.5, 0.0), 200, rng=RandomSource(42, 3))
    src = RandomSource(42, 3)
    want = np.array([src.standard_normal() for _ in range(199)])
    assert run.xi.tobytes() == want.tobytes()


def test_simulate_is_deterministic():
    a = simulate(MAIN, MarketState(0.5, 0.0), 300, rng=RandomSource(42))
    b = simulate(MAIN, MarketState(0.5, 0.0), 300, rng=RandomSource(42))
    assert np.array_equal(a.s.values, b.s.values)
    assert np.array_equal(a.h.values, b.h.values)
    assert np.array_equal(a.p.values, b.p.values)
    assert np.array_equal(a.xi, b.xi)
    c = simulate(MAIN, MarketState(0.5, 0.0), 300, rng=RandomSource(43))
    assert not np.array_equal(a.s.values, c.s.values)


def test_single_day_run():
    run = simulate(MAIN, MarketState(0.3, 0.1, 5.0), 1, rng=RandomSource(0))
    assert len(run.s) == 1
    assert run.xi.shape == (0,)
    assert run.s.values[0] == 0.3


def test_initial_price_offset():
    base = simulate(QUIET, MarketState(0.5, 0.0), 50)
    lifted = simulate(QUIET, MarketState(0.5, 0.0, 2.0), 50)
    assert np.allclose(lifted.p.values, base.p.values + 2.0, atol=1e-12)
    assert base.p.values[0] == MAIN.a1 * 0.5 + MAIN.a4


def test_simulate_errors():
    with pytest.raises(ValueError, match="requires a RandomSource"):
        simulate(MAIN, MarketState(0.0, 0.0), 10)
    with pytest.raises(ValueError, match="horizon"):
        simulate(QUIET, MarketState(0.0, 0.0), 0)
    with pytest.raises(ValueError, match="substeps"):
        simulate(QUIET, MarketState(0.0, 0.0), 10, substeps=0)
    with pytest.raises(ValueError, match="theta_profile"):
        simulate(QUIET, MarketState(0.0, 0.0), 10,
                 theta_profile=Series(np.ones(5)))
    # a non-daily profile would drive day k with sample k
    with pytest.raises(ValueError, match="theta_profile must be sampled "
                       r"daily \(step = 1\), got step 2.0"):
        simulate(MAIN, MarketState(0.5, 0.03), 10, rng=RandomSource(1),
                 theta_profile=Series(np.full(50, 1 / 1.1), start_index=7,
                                      step=2.0))
    with pytest.raises(ValueError, match="mode"):
        simulate(QUIET, MarketState(0.0, 0.0), 10, mode="bogus")
    with pytest.raises(ValueError, match="invalid parameters"):
        simulate(QUIET.replace(w_s=-1.0), MarketState(0.0, 0.0), 10)


@pytest.mark.parametrize("start", [7, -3])
def test_simulate_rejects_a_theta_profile_not_starting_on_day_0(start):
    # a profile starting on another day would drive day 0 with its first
    # sample
    th = np.full(50, 1 / 1.1)
    with pytest.raises(ValueError, match="theta_profile must start on the "
                       f"run's day 0, got start day {start}"):
        simulate(MAIN, MarketState(0.5, 0.03), 10, rng=RandomSource(1),
                 theta_profile=Series(th, start_index=start))


@pytest.mark.parametrize("theta", [0.0, -1.0])
def test_simulate_rejects_nonpositive_theta(theta):
    prof = Series(np.r_[np.ones(5), theta, np.ones(4)])
    for mode in (SIMPLIFIED, FULL):
        # rejected before any 1/theta is formed
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="theta_profile"):
                simulate(QUIET, MarketState(0.5, 0.0), 10,
                         theta_profile=prof, mode=mode)
        # only the days that set a beta1 are checked: the last sample is
        # unused
        simulate(QUIET, MarketState(0.5, 0.0), 6, theta_profile=prof,
                 mode=mode)


@pytest.mark.parametrize("theta", [1e-320, 5e-324, 2e-308])
def test_simulate_rejects_subnormal_theta(theta):
    prof = Series(np.r_[np.ones(3), theta, np.ones(6)])
    for mode in (SIMPLIFIED, FULL):
        # named as the profile's fault, before 1/theta can overflow
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="theta_profile.*day 3"):
                simulate(QUIET, MarketState(0.5, 0.0), 10,
                         theta_profile=prof, mode=mode)


@pytest.mark.parametrize("field, value", [
    ("horizon_days", 10.5), ("horizon_days", 10.0), ("horizon_days", "10"),
    ("substeps", 2.5), ("substeps", np.float64(8.0)), ("substeps", None)])
def test_simulate_rejects_non_integral_counts(field, value):
    kw = {"horizon_days": 10, "substeps": 8, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        simulate(QUIET, MarketState(0.5, 0.0), **kw)


def test_simulate_accepts_numpy_integer_counts():
    plain = simulate(QUIET, MarketState(0.5, 0.0), 12, substeps=4)
    numpy_ints = simulate(QUIET, MarketState(0.5, 0.0), np.int64(12),
                          substeps=np.int32(4))
    assert plain.s.values.tobytes() == numpy_ints.s.values.tobytes()
    assert plain.h.values.tobytes() == numpy_ints.h.values.tobytes()


def test_simulate_rejects_negative_beta1_from_shift():
    with pytest.raises(ValueError, match="beta1_shift"):
        simulate(QUIET, MarketState(0.5, 0.0), 10, beta1_shift=-5.0)
    prof = Series(np.full(10, 0.5))
    with pytest.raises(ValueError, match="beta1_shift"):
        simulate(QUIET, MarketState(0.5, 0.0), 10, theta_profile=prof,
                 beta1_shift=-2.5)


@st.composite
def bad_simulate_input(draw):
    """(horizon_days, keyword arguments, name of the offending field)."""
    horizon = draw(st.integers(min_value=2, max_value=40))
    case = draw(st.sampled_from(["short", "theta", "shift", "substeps",
                                 "horizon"]))
    if case == "horizon":
        return draw(st.integers(max_value=0)), {}, "horizon_days"
    if case == "substeps":
        return (horizon, {"substeps": draw(st.integers(max_value=0))},
                "substeps")
    if case == "short":
        n = draw(st.integers(min_value=1, max_value=horizon - 1))
        return (horizon, {"theta_profile": Series(np.ones(n))},
                "theta_profile")
    theta = draw(st.lists(st.floats(min_value=0.2, max_value=5.0),
                          min_size=horizon, max_size=horizon + 3))
    if case == "theta":
        # a bad value on a day that sets a beta1 (the last sample does not)
        theta[draw(st.integers(0, horizon - 2))] = draw(
            st.floats(max_value=0.0, allow_infinity=False))
        return (horizon, {"theta_profile": Series(np.array(theta))},
                "theta_profile")
    # 1/theta <= 5 and beta1 = 1.1, so a shift below -5 turns beta1 negative
    kw = {"beta1_shift": draw(st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats(min_value=-1e6, max_value=-5.01)))}
    if draw(st.booleans()):
        kw["theta_profile"] = Series(np.array(theta))
    return horizon, kw, "beta1_shift"


@given(bad=bad_simulate_input(), mode=st.sampled_from([SIMPLIFIED, FULL]))
@settings(max_examples=60, deadline=None)
def test_simulate_input_checks_name_the_field(bad, mode):
    horizon, kw, name = bad
    with pytest.raises(ValueError, match=name):
        simulate(QUIET, MarketState(0.5, 0.0), horizon, mode=mode, **kw)


def _closure_days(params, beta1, xi, s, h, substeps, dt):
    """The reference day loop: _rk4_step over one _make_drift closure per
    day, raising like market._daily_path when the state leaves the box."""
    lim = 1.0 + _BOUND_SLACK
    s_out, h_out = [s], [h]
    for d, (b1, x) in enumerate(zip(beta1.tolist(), xi.tolist())):
        f = _make_drift(params, b1, x, SIMPLIFIED)
        for _ in range(substeps):
            s, h = _rk4_step(f, s, h, dt)
            if not (abs(s) <= lim and abs(h) <= lim):
                raise _left_box(d, s, h)
        s_out.append(s)
        h_out.append(h)
    return np.array(s_out), np.array(h_out)


def _outcome(run):
    """The bytes of a run's (s, h) path, or its integrator-failure message."""
    try:
        s, h = run()
    except RuntimeError as err:
        return str(err)
    return s.tobytes(), h.tobytes()


@given(params=st.builds(
           MAIN.replace,
           w_s=st.floats(min_value=0.005, max_value=0.5),
           w_h=st.floats(min_value=0.05, max_value=40.0),
           beta1=st.floats(min_value=0.0, max_value=2.0),
           beta2=st.floats(min_value=0.0, max_value=2.0),
           gamma=st.floats(min_value=0.0, max_value=200.0),
           delta=st.floats(min_value=0.0, max_value=0.5),
           kappa=st.sampled_from([0.0, 0.3, 1.0, 3.0])),
       s0=st.floats(min_value=-0.99, max_value=0.99),
       h0=st.floats(min_value=-0.99, max_value=0.99),
       n=st.integers(min_value=1, max_value=60),
       substeps=st.integers(min_value=1, max_value=8),
       theta=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
       shift=st.floats(min_value=0.0, max_value=0.5),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       reverse=st.booleans())
@example(params=QUIET.replace(w_h=500.0), s0=0.9, h0=-0.9, n=10,
         substeps=1, theta=None, shift=0.0, seed=0, reverse=False)
@settings(max_examples=80, deadline=None)
def test_simplified_kernel_matches_closure_loop_bitwise(
        params, s0, h0, n, substeps, theta, shift, seed, reverse):
    # the kernel behind simulate and integrate_autonomous against
    # _rk4_step over _make_drift: the same bytes, or the same failure
    prof = None if theta is None else Series(
        np.random.default_rng(theta).uniform(0.3, 3.0, 60))
    init = MarketState(s0, h0)

    def run_simulate():
        r = simulate(params, init, n, substeps, RandomSource(seed), prof,
                     SIMPLIFIED, shift)
        return r.s.values, r.h.values

    def run_autonomous():
        s, h = integrate_autonomous(params, init, n, substeps, reverse)
        return s.values, h.values

    # daily beta1 and xi formed as simulate forms them
    beta1 = (np.full(n - 1, params.beta1 + shift) if prof is None
             else 1.0 / prof.values[:n - 1] + shift)
    xi = (RandomSource(seed).standard_normal(n - 1) if params.kappa != 0.0
          else np.zeros(n - 1))
    pairs = [
        (run_simulate, lambda: _closure_days(params, beta1, xi, s0, h0,
                                             substeps, 1.0 / substeps)),
        (run_autonomous, lambda: _closure_days(
            params, np.full(n - 1, params.beta1), np.zeros(n - 1), s0, h0,
            substeps, (-1.0 if reverse else 1.0) / substeps)),
    ]
    for run, reference in pairs:
        assert _outcome(run) == _outcome(reference)


def test_unstable_step_raises():
    stiff = QUIET.replace(w_h=500.0)
    with pytest.raises(RuntimeError, match="integrator failure"):
        simulate(stiff, MarketState(0.9, -0.9), 10, substeps=1)


def test_parity_with_autonomous_integrator():
    # the phase-plane integrator must be the same map when kappa = 0
    from newsmarket.phase import integrate_autonomous

    pars = QUIET.replace(delta=0.0, gamma=62.0)
    run = simulate(pars, MarketState(0.9, 0.0), 500)
    s_auto, h_auto = integrate_autonomous(pars, MarketState(0.9, 0.0), 500)
    assert np.array_equal(run.s.values, s_auto.values)
    assert np.array_equal(run.h.values, h_auto.values)


def test_theta_profile_switches_regime():
    # theta > 1 means beta1 < 1: single well, small |s|; theta < 1 deepens
    # the wells and pushes |s| outward.  Switch mid-run and watch the mean.
    # gamma = 30 keeps both phases below their oscillation thresholds.
    prof = Series(np.r_[np.full(300, 1.25), np.full(300, 0.8)])
    run = simulate(QUIET.replace(gamma=30.0), MarketState(0.5, 0.0), 600,
                   substeps=4, theta_profile=prof)
    early = np.abs(run.s.values[200:300]).mean()
    late = np.abs(run.s.values[500:]).mean()
    assert early < 0.15
    assert late > 0.4
    assert run.theta_profile is prof


def test_beta1_shift():
    up = simulate(QUIET, MarketState(0.5, 0.0), 400, beta1_shift=0.2)
    flat = simulate(QUIET.replace(beta1=1.1 + 0.2), MarketState(0.5, 0.0), 400)
    assert np.array_equal(up.s.values, flat.s.values)


def test_ensemble_matches_serial_single():
    rng = RandomSource(17)
    mean, runs = ensemble(MAIN, MarketState(0.5, 0.0), 50, 1, rng)
    solo = simulate(MAIN, MarketState(0.5, 0.0), 50, rng=RandomSource(17, 0))
    assert np.array_equal(mean.values, solo.s.values)
    assert len(runs) == 1


def test_ensemble_substreams_and_mean():
    mean, runs = ensemble(MAIN, MarketState(0.5, 0.0), 40, 4, RandomSource(3))
    assert [r.stream_id for r in runs] == [0, 1, 2, 3]
    assert all(r.seed == 3 for r in runs)
    stack = np.array([r.s.values for r in runs])
    assert np.array_equal(mean.values, stack.mean(axis=0))
    # distinct substreams produce distinct paths
    assert not np.array_equal(runs[0].s.values, runs[1].s.values)


def test_ensemble_worker_count_invariance():
    serial_mean, serial = ensemble(MAIN, MarketState(0.5, 0.0), 60, 3,
                                   RandomSource(29), workers=1)
    par_mean, par = ensemble(MAIN, MarketState(0.5, 0.0), 60, 3,
                             RandomSource(29), workers=2)
    assert np.array_equal(serial_mean.values, par_mean.values)
    for a, b in zip(serial, par):
        assert np.array_equal(a.s.values, b.s.values)
        assert np.array_equal(a.xi, b.xi)


def test_ensemble_workers_env(monkeypatch):
    monkeypatch.setenv("NEWSMARKET_WORKERS", "2")
    env_mean, _ = ensemble(MAIN, MarketState(0.5, 0.0), 30, 2, RandomSource(5))
    monkeypatch.setenv("NEWSMARKET_WORKERS", "1")
    one_mean, _ = ensemble(MAIN, MarketState(0.5, 0.0), 30, 2, RandomSource(5))
    assert np.array_equal(env_mean.values, one_mean.values)


@pytest.mark.parametrize("workers, match", [
    (2.5, "workers must be an integer, got 2.5"),
    (0, "workers must be >= 1"),
    (-3, "workers must be >= 1"),
])
def test_ensemble_rejects_a_bad_worker_count(workers, match):
    # 2.5 died inside concurrent.futures; 0 and -3 ran serially
    with pytest.raises(ValueError, match=match):
        ensemble(MAIN, MarketState(0.5, 0.0), 10, 2, RandomSource(0),
                 workers=workers)


def test_ensemble_rejects_zero_realizations():
    with pytest.raises(ValueError, match="n_realizations"):
        ensemble(MAIN, MarketState(0.0, 0.0), 10, 0, RandomSource(0))


def test_states_property():
    run = simulate(QUIET, MarketState(0.5, 0.0, 1.0), 5)
    states = run.states
    assert len(states) == 5
    assert states[0].s == 0.5 and states[0].h == 0.0
    assert states[0].p == run.p.values[0]
    assert states[3].s == run.s.values[3]


def test_noise_dominance_map_values():
    s_grid = np.array([0.0, 0.5])
    h_grid = np.array([-0.5, 0.0, 0.5])
    m = noise_dominance_map(MAIN, s_grid, h_grid)
    assert m.shape == (2, 3)
    ds = -0.04 * 0.5 + 0.04 * math.tanh(1.1 * 0.5 + 0.55 * 0.5)
    assert m[1, 2] == pytest.approx(56.0 * abs(ds) / 1.0, abs=1e-15)
    # the sentiment nullcline s = tanh(beta1*s + beta2*h) zeroes the ratio
    from newsmarket.sentiment import equilibria_1d

    root = max(r for r, _ in equilibria_1d(1.1, 0.0))
    m0 = noise_dominance_map(MAIN, [root], [0.0])
    assert m0[0, 0] < 1e-10


def test_noise_dominance_requires_noise():
    with pytest.raises(ValueError, match="kappa"):
        noise_dominance_map(QUIET, [0.0], [0.0])


@pytest.mark.parametrize("changes", [dict(kappa=1e-320), dict(w_s=1e308)],
                         ids=["subnormal-kappa", "huge-w_s"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_noise_dominance_map_names_an_overflowing_ratio(changes):
    # the ratio came back with inf cells and a numpy warning
    grid = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="ratio in w_s, gamma and kappa "
                       "overflows the float range"):
        noise_dominance_map(MAIN.replace(**changes), grid, grid)


def test_full_mode_step_failure_raises():
    # the full-mode branch of the day loop has its own bound check
    stiff = QUIET.replace(w_s=1e300)
    with pytest.raises(RuntimeError, match="integrator failure at day 0"):
        simulate(stiff, MarketState(0.9, 0.0), 5, mode=FULL)
