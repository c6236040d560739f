"""Equilibria, linear classification, bifurcation structure, limit cycles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsmarket.core import _BOUND_SLACK, MarketState, ModelParams
from newsmarket.market import (SIMPLIFIED, _left_box, _make_drift, _rk4_step,
                               drift)
from newsmarket.phase import (
    SADDLE,
    STABLE_FOCUS,
    STABLE_NODE,
    UNSTABLE_FOCUS,
    UNSTABLE_NODE,
    LimitCycleReport,
    _psi_phi_eta,
    bifurcation_sweep,
    classify,
    delta_critical,
    delta_critical_asymptotic,
    detect_limit_cycle,
    find_equilibria,
    gamma_thresholds,
    integrate_autonomous,
    oscillator_reduction,
)

MAIN = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.374,
                   a2=0.002, gamma=56.0, delta=0.03)
SYM = MAIN.replace(delta=0.0)
# a forward box exit on day 5 of substeps 3, where k // substeps is not k
STIFF = MAIN.replace(w_s=0.4, w_h=12.0, beta1=1.5, beta2=1.0, gamma=30.0,
                     delta=0.5)


def fd_jacobian(s, h, params, eps=1e-6):
    """Centered-difference Jacobian of the per-day drift."""
    def f(x, y):
        return np.array(drift(MarketState(x, y), params))

    return np.column_stack([
        (f(s + eps, h) - f(s - eps, h)) / (2 * eps),
        (f(s, h + eps) - f(s, h - eps)) / (2 * eps),
    ])


def test_find_equilibria_main_case():
    pts = find_equilibria(MAIN)
    assert [q.branch for q in pts] == ["s_minus", "s_zero", "s_plus"]
    assert all(q.h_star_pt == pytest.approx(math.tanh(0.03), abs=1e-15)
               for q in pts)
    assert [q.stability for q in pts] == [UNSTABLE_FOCUS, SADDLE,
                                          STABLE_FOCUS]
    assert pts[2].s_star_pt == pytest.approx(0.5590495114704737, abs=1e-9)
    assert pts[0].s_star_pt == pytest.approx(-0.3983924669297514, abs=1e-9)


def test_find_equilibria_paramagnetic():
    pts = find_equilibria(MAIN.replace(beta1=0.8))
    assert len(pts) == 1
    assert pts[0].branch == "paramagnetic"


def test_classify_rejects_non_equilibrium():
    with pytest.raises(ValueError, match="not an equilibrium"):
        classify((0.3, math.tanh(0.03)), MAIN)
    with pytest.raises(ValueError, match="not an equilibrium"):
        classify((0.5590495114704737, 0.5), MAIN)


def test_class_sequence_with_gain():
    # the outer branch walks node -> focus -> unstable focus -> unstable
    # node as the feedback gain grows (rescaled gains 1.6, 2.0, 2.6, 3.4)
    want = {40.0: STABLE_NODE, 50.0: STABLE_FOCUS,
            65.0: UNSTABLE_FOCUS, 85.0: UNSTABLE_NODE}
    for gamma, expected in want.items():
        pts = find_equilibria(SYM.replace(gamma=gamma))
        assert pts[2].stability == expected, gamma
        assert pts[0].stability == expected, gamma
        assert pts[1].stability == SADDLE


def test_eigenvalues_match_fd_jacobian():
    for pars in (MAIN, SYM.replace(gamma=40.0), SYM.replace(gamma=85.0)):
        for q in find_equilibria(pars):
            J = fd_jacobian(q.s_star_pt, q.h_star_pt, pars)
            got = sorted(np.linalg.eigvals(J),
                         key=lambda z: (z.real, z.imag))
            want = sorted([lam * pars.w_s for lam in q.eigenvalues],
                          key=lambda z: (z.real, z.imag))
            for a, b in zip(got, want):
                assert abs(a - b) < 1e-6


def test_eigenvalue_form():
    pts = find_equilibria(SYM.replace(gamma=40.0))
    assert all(lam.imag == 0.0 for lam in pts[2].eigenvalues)
    pts = find_equilibria(SYM.replace(gamma=50.0))
    lam = pts[2].eigenvalues
    assert lam[0].imag > 0 and lam[1].imag < 0
    assert lam[0] == lam[1].conjugate()


def test_delta_critical_frozen_and_fold():
    dc = delta_critical(1.1, 0.55)
    assert dc == pytest.approx(0.03725582228588204, abs=1e-12)
    assert len(find_equilibria(MAIN.replace(delta=dc - 5e-4))) == 3
    assert len(find_equilibria(MAIN.replace(delta=dc + 5e-4))) == 1


def test_delta_critical_errors():
    with pytest.raises(ValueError, match="beta1"):
        delta_critical(0.9, 0.55)
    with pytest.raises(ValueError, match="beta2"):
        delta_critical(1.1, 0.0)
    with pytest.raises(ValueError, match="no finite bias"):
        delta_critical(2.0, 0.01)


def test_delta_critical_at_a_huge_beta1():
    # q = sqrt((beta1 - 1)/beta1) rounds to 1 above beta1 of about 1e16,
    # where log((1 - q)/(1 + q)) failed as "math domain error"
    with pytest.raises(ValueError, match="no finite bias"):
        delta_critical(1e17, 1.0)
    # the tilt is (beta1 - 1/2 - log(2) - log(beta1)/2)/beta2 + O(1/beta1),
    # 0.1 - 2.1e-17 here
    assert delta_critical(1e17, 1e18) == pytest.approx(math.atanh(0.1),
                                                       rel=1e-15)


def test_delta_critical_asymptotic_near_transition():
    exact = delta_critical(1.01, 0.55)
    approx = delta_critical_asymptotic(1.01, 0.55)
    assert approx == pytest.approx(exact, rel=0.02)
    # further from the transition the expansion degrades visibly
    assert delta_critical_asymptotic(1.1, 0.55) != pytest.approx(
        delta_critical(1.1, 0.55), rel=0.05)
    with pytest.raises(ValueError, match="beta1"):
        delta_critical_asymptotic(1.0, 0.55)


@pytest.mark.parametrize("fold", [delta_critical, delta_critical_asymptotic])
@pytest.mark.parametrize("beta1, beta2, name", [
    (math.inf, 1.0, "beta1"), (math.nan, 1.0, "beta1"),
    (2.0, 0.0, "beta2"), (2.0, -1.0, "beta2"), (2.0, math.nan, "beta2"),
    (2.0, math.inf, "beta2")])
def test_fold_forms_name_a_field_outside_their_domain(fold, beta1, beta2,
                                                      name):
    # the asymptotic form divided by zero at beta2 = 0 and returned NaN or
    # a negative bias elsewhere; delta_critical(inf, 1) blamed "tilt nan"
    with pytest.raises(ValueError, match=name):
        fold(beta1, beta2)


def test_gamma_thresholds_frozen():
    sp = max(find_equilibria(MAIN), key=lambda q: q.s_star_pt)
    g1, g2, g3 = gamma_thresholds(sp.s_star_pt, MAIN)
    assert g1 == pytest.approx(47.126100077919446, rel=1e-10)
    assert g2 == pytest.approx(67.79209518035427, rel=1e-10)
    assert g3 == pytest.approx(88.4580902827891, rel=1e-10)
    assert g1 < g2 < g3


def test_gamma_thresholds_match_classification_changes():
    # classify() must flip class exactly at each threshold
    sp = max(find_equilibria(MAIN), key=lambda q: q.s_star_pt)
    g1, g2, g3 = gamma_thresholds(sp.s_star_pt, MAIN)
    point = (sp.s_star_pt, sp.h_star_pt)
    eps = 1e-6
    pairs = [(g1, STABLE_NODE, STABLE_FOCUS),
             (g2, STABLE_FOCUS, UNSTABLE_FOCUS),
             (g3, UNSTABLE_FOCUS, UNSTABLE_NODE)]
    for g, before, after in pairs:
        assert classify(point, MAIN.replace(gamma=g * (1 - eps))).stability \
            == before
        assert classify(point, MAIN.replace(gamma=g * (1 + eps))).stability \
            == after


def test_gamma_thresholds_saddle_branch_error():
    mid = find_equilibria(MAIN)[1]
    with pytest.raises(ValueError, match="saddle branch"):
        gamma_thresholds(mid.s_star_pt, MAIN)


def test_gamma_thresholds_undefined_without_news_coupling():
    # beta2 = 0 keeps the s_plus branch off the saddle but removes the
    # feedback that gamma scales
    pars = MAIN.replace(beta2=0.0)
    sp = max(find_equilibria(pars), key=lambda q: q.s_star_pt)
    assert sp.branch == "s_plus"
    with pytest.raises(ValueError, match="thresholds undefined"):
        gamma_thresholds(sp.s_star_pt, pars)


def test_oscillator_reduction_force_is_potential_gradient():
    eps = 1e-6
    for s in (-0.5, -0.1, 0.0, 0.2, 0.6):
        _, du, _ = oscillator_reduction(s, 0.0, MAIN)
        _, _, u_hi = oscillator_reduction(s + eps, 0.0, MAIN)
        _, _, u_lo = oscillator_reduction(s - eps, 0.0, MAIN)
        assert du == pytest.approx((u_hi - u_lo) / (2 * eps), abs=1e-8)


def test_oscillator_damping_sign_flip():
    # at the origin the damping flips sign at gamma_bar = (1+eta-beta1)
    # / (beta2*eta) = 1.8 for the reference couplings
    flip = (1 + 10 - 1.1) / (0.55 * 10)
    g_lo, _, _ = oscillator_reduction(0.0, 0.0,
                                      SYM.replace(gamma=(flip - 0.01) / 0.04))
    g_hi, _, _ = oscillator_reduction(0.0, 0.0,
                                      SYM.replace(gamma=(flip + 0.01) / 0.04))
    assert g_lo > 0 > g_hi


def test_oscillator_reduction_domain():
    with pytest.raises(ValueError, match="reduction valid"):
        oscillator_reduction(1.0, 0.0, MAIN)


def test_integrate_autonomous_shapes_and_errors():
    s, h = integrate_autonomous(MAIN, MarketState(0.9, 0.0), 50)
    assert len(s) == len(h) == 50
    assert s.values[0] == 0.9 and h.values[0] == 0.0
    with pytest.raises(ValueError, match="days"):
        integrate_autonomous(MAIN, MarketState(0.0, 0.0), 0)
    with pytest.raises(ValueError, match="substeps"):
        integrate_autonomous(MAIN, MarketState(0.0, 0.0), 10, substeps=0)


def test_short_reverse_round_trip():
    s_f, h_f = integrate_autonomous(MAIN, MarketState(0.9, 0.0), 11)
    back = MarketState(s_f.values[-1], h_f.values[-1])
    s_b, h_b = integrate_autonomous(MAIN, back, 11, reverse=True)
    assert abs(s_b.values[-1] - 0.9) < 1e-9
    assert abs(h_b.values[-1]) < 1e-9


def test_no_cycle_below_onset():
    rep = detect_limit_cycle(SYM.replace(gamma=40.0), MarketState(0.9, 0.0),
                             6000)
    assert not rep.exists
    assert rep.period_days == 0.0


def test_spiral_into_focus_is_not_a_cycle():
    # crossings converge at the fixed point itself; the amplitude floor
    # must reject them
    rep = detect_limit_cycle(SYM.replace(gamma=50.0), MarketState(0.9, 0.0),
                             8000)
    assert not rep.exists
    assert rep.convergence_iterations > 0
    assert rep.s_amplitude[1] - rep.s_amplitude[0] < 1e-3


def test_stable_cycle_detected():
    rep = detect_limit_cycle(SYM.replace(gamma=62.0), MarketState(0.9, 0.0),
                             6000)
    assert rep.exists and rep.stable
    assert rep.period_days == pytest.approx(323.0, abs=0.5)
    assert rep.s_amplitude[0] == pytest.approx(-0.55695, abs=1e-3)
    assert rep.s_amplitude[1] == pytest.approx(0.55695, abs=1e-3)


def test_cycle_amplitude_matches_long_run():
    # independent route: a long direct integration settles onto the same
    # orbit; its late swing must match the reported amplitude
    pars = SYM.replace(gamma=62.0)
    rep = detect_limit_cycle(pars, MarketState(0.9, 0.0), 6000)
    s, _ = integrate_autonomous(pars, MarketState(0.9, 0.0), 12000)
    tail = s.values[-3000:]
    assert tail.min() == pytest.approx(rep.s_amplitude[0], abs=1e-4)
    assert tail.max() == pytest.approx(rep.s_amplitude[1], abs=1e-4)


def test_unstable_cycle_found_in_reverse():
    rep = detect_limit_cycle(SYM.replace(gamma=61.5325),
                             MarketState(0.53, 0.0), 20000, reverse=True)
    assert rep.exists and not rep.stable
    assert rep.period_days == pytest.approx(856.265, abs=0.5)


def test_reverse_escape_reports_no_cycle():
    # in reverse time the stable cycle repels; a start outside the
    # unstable cycle basin runs off to the box edge
    rep = detect_limit_cycle(SYM.replace(gamma=62.0), MarketState(0.9, 0.0),
                             20000, reverse=True)
    assert not rep.exists


def test_detect_errors():
    with pytest.raises(ValueError, match="max_days"):
        detect_limit_cycle(MAIN, MarketState(0.0, 0.0), 0)
    with pytest.raises(ValueError, match="substeps"):
        detect_limit_cycle(MAIN, MarketState(0.0, 0.0), 10, substeps=0)


PARAM_FIELDS = ("w_s", "w_h", "beta1", "beta2", "beta3", "beta4", "gamma",
                "delta", "kappa", "a1", "a2", "a4", "s_star", "h_bar")


@given(name=st.sampled_from(PARAM_FIELDS),
       value=st.sampled_from([math.nan, math.inf, -math.inf]),
       cycle=st.booleans())
@settings(max_examples=80, deadline=None)
def test_autonomous_integrators_reject_non_finite_params(name, value, cycle):
    # before validation a NaN gamma ran all of max_days on NaN states and
    # reported exists=False; now such a record cannot be made
    with pytest.raises(ValueError, match=name):
        params = MAIN.replace(**{name: value})
        if cycle:
            detect_limit_cycle(params, MarketState(0.9, 0.0), 2000)
        else:
            integrate_autonomous(params, MarketState(0.9, 0.0), 100)


@given(w_s=st.floats(min_value=1e300, max_value=1e308))
@settings(max_examples=20, deadline=None)
def test_overflow_to_nan_stops_at_the_first_day(w_s):
    # finite but absurd rates overflow the RK4 sums to NaN; the bound
    # check must catch NaN, not let it run to the end
    with pytest.raises(RuntimeError, match="day 0"):
        integrate_autonomous(MAIN.replace(w_s=w_s), MarketState(0.9, 0.0),
                             100)


def test_box_exit_fails_forward_and_ends_the_search_in_reverse():
    # forward in time the drift points inward on the boundary, so an exit
    # is an integrator failure, as in integrate_autonomous; it used to be
    # reported as exists=False after one step
    params = MAIN.replace(w_s=1e300)
    with pytest.raises(RuntimeError, match="integrator failure at day 0"):
        detect_limit_cycle(params, MarketState(0.9, 0.0), 100)
    rep = detect_limit_cycle(params, MarketState(0.9, 0.0), 100,
                             reverse=True)
    assert not rep.exists and not rep.stable
    assert rep.convergence_iterations == 0
    # the message names the day, k // substeps, not the substep k
    with pytest.raises(RuntimeError, match="at day 5:"):
        detect_limit_cycle(STIFF, MarketState(-0.2, -0.4), 100, 3)


def _closure_cycle(params, init, max_days, substeps, reverse, tol):
    """The reference hunt: _rk4_step over one _make_drift closure, with
    detect_limit_cycle's crossing bookkeeping copied unchanged."""
    min_amplitude = 1e-3
    h_section = math.tanh(params.delta)
    f = _make_drift(params, params.beta1, 0.0, SIMPLIFIED)
    dt = 1.0 / substeps
    step = -dt if reverse else dt
    lim = 1.0 + _BOUND_SLACK
    s, h = init.s, init.h
    t = 0.0
    prev_s_c = None
    prev_t_c = None
    crossings = 0
    smin = smax = s
    for k in range(max_days * substeps):
        s0, g0 = s, h - h_section
        s, h = _rk4_step(f, s, h, step)
        t += dt
        if not (abs(s) <= lim and abs(h) <= lim):
            if not reverse:
                raise _left_box(k // substeps, s, h)
            break
        if s < smin:
            smin = s
        elif s > smax:
            smax = s
        g1 = h - h_section
        if g0 * g1 < 0.0:
            frac = g0 / (g0 - g1)
            s_c = s0 + frac * (s - s0)
            t_c = (t - dt) + frac * dt
            if f(s_c, h_section)[0] > 0.0:
                crossings += 1
                if prev_s_c is not None and abs(s_c - prev_s_c) < tol:
                    closed = (smax - smin) >= min_amplitude
                    return LimitCycleReport(
                        exists=closed,
                        period_days=(t_c - prev_t_c) if closed else 0.0,
                        s_amplitude=(smin, smax),
                        convergence_iterations=crossings,
                        stable=not reverse)
                prev_s_c, prev_t_c = s_c, t_c
                smin = smax = s
    return LimitCycleReport(False, 0.0, (smin, smax), crossings,
                            stable=not reverse)


def _report_or_error(hunt):
    """repr of a hunt's report, or its integrator-failure message."""
    try:
        return repr(hunt())
    except RuntimeError as err:
        return str(err)


@given(params=st.builds(
           MAIN.replace,
           w_s=st.floats(min_value=0.005, max_value=0.5),
           w_h=st.floats(min_value=0.05, max_value=40.0),
           beta1=st.floats(min_value=0.0, max_value=2.0),
           beta2=st.floats(min_value=0.0, max_value=2.0),
           gamma=st.floats(min_value=0.0, max_value=200.0),
           delta=st.floats(min_value=0.0, max_value=0.5),
           kappa=st.sampled_from([0.0, 0.3, 1.0, 3.0])),
       s0=st.floats(min_value=-1.0, max_value=1.0),
       h0=st.floats(min_value=-1.0, max_value=1.0),
       max_days=st.integers(min_value=1, max_value=300),
       substeps=st.integers(min_value=1, max_value=10),
       reverse=st.booleans(),
       tol=st.sampled_from([1e-6, 1e-3]))
@example(params=STIFF, s0=-0.2, h0=-0.4, max_days=100, substeps=3,
         reverse=False, tol=1e-6)
@example(params=SYM.replace(gamma=62.0), s0=0.9, h0=0.0, max_days=20000,
         substeps=8, reverse=True, tol=1e-6)
@example(params=SYM.replace(gamma=62.0), s0=0.9, h0=0.0, max_days=6000,
         substeps=8, reverse=False, tol=1e-6)
@settings(max_examples=80, deadline=None)
def test_limit_cycle_hunt_matches_closure_loop_bitwise(
        params, s0, h0, max_days, substeps, reverse, tol):
    # the written-out stages against _rk4_step over _make_drift: the same
    # report, or the same failure text
    init = MarketState(s0, h0)
    assert _report_or_error(lambda: detect_limit_cycle(
        params, init, max_days, substeps, reverse, tol)) == \
        _report_or_error(lambda: _closure_cycle(
            params, init, max_days, substeps, reverse, tol))


def test_bifurcation_sweep_gamma():
    rows, trans = bifurcation_sweep(SYM, "gamma", (40.0, 90.0), 6)
    assert len(rows) == 6
    assert rows[0][0] == 40.0 and rows[-1][0] == 90.0
    plus = [(t[3], t[4]) for t in trans if t[2] == "s_plus"]
    assert plus == [(STABLE_NODE, STABLE_FOCUS),
                    (STABLE_FOCUS, UNSTABLE_FOCUS),
                    (UNSTABLE_FOCUS, UNSTABLE_NODE)]
    # the shallow branch never changes class
    assert not any(t[2] == "s_zero" for t in trans)


def test_bifurcation_sweep_delta_fold():
    rows, trans = bifurcation_sweep(MAIN, "delta", (0.03, 0.045), 4)
    gone = {(t[2], t[4]) for t in trans}
    assert ("s_minus", "absent") in gone
    assert ("s_zero", "absent") in gone
    assert rows[0][1].keys() == {"s_minus", "s_zero", "s_plus"}
    assert set(rows[-1][1].keys()) == {"s_plus"}


def test_bifurcation_sweep_errors():
    with pytest.raises(ValueError, match="cannot sweep"):
        bifurcation_sweep(MAIN, "w_s", (0.01, 0.1), 5)
    with pytest.raises(ValueError, match="steps"):
        bifurcation_sweep(MAIN, "gamma", (40.0, 90.0), 1)
    for value_range in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                        (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="gamma range must be finite"):
            bifurcation_sweep(MAIN, "gamma", value_range, 3)
    # every swept parameter set must pass validate, at either end
    for sweep, value_range in (("gamma", (-10.0, 10.0)),
                               ("beta2", (0.5, -1.0)),
                               ("delta", (-0.1, 0.0))):
        with pytest.raises(ValueError, match=f"{sweep} must be non-negative"):
            bifurcation_sweep(MAIN, sweep, value_range, 3)


def test_negative_bias_mirrors_positive():
    # classify handles a mirrored system (constructed directly; the
    # record is not routed through parameter validation)
    neg = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.374,
                      a2=0.002, gamma=56.0, delta=-0.03)
    pos_pts = find_equilibria(MAIN)
    neg_pts = find_equilibria(neg)
    assert len(neg_pts) == len(pos_pts) == 3
    for p, q in zip(pos_pts, reversed(neg_pts)):
        assert q.s_star_pt == pytest.approx(-p.s_star_pt, abs=1e-9)
        assert q.h_star_pt == pytest.approx(-p.h_star_pt, abs=1e-15)
        assert q.stability == p.stability


@pytest.mark.parametrize("name, value", [
    ("gamma", math.nan), ("delta", math.inf), ("w_h", math.inf)])
def test_find_equilibria_rejects_non_finite_fields(name, value):
    # gamma = nan used to classify all three roots as UnstableFocus
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        find_equilibria(MAIN.replace(**{name: value}))


@given(beta1=st.floats(min_value=1.02, max_value=1.6),
       gamma_bar=st.floats(min_value=0.3, max_value=4.0),
       delta=st.floats(min_value=0.0, max_value=0.01))
@settings(max_examples=80, deadline=None)
def test_saddle_iff_shallow_well(beta1, gamma_bar, delta):
    pars = MAIN.replace(beta1=beta1, gamma=gamma_bar / 0.04, delta=delta)
    for q in find_equilibria(pars):
        psi = 1.0 - beta1 * (1.0 - q.s_star_pt ** 2)
        if abs(psi) < 1e-10:
            continue
        assert (q.stability == SADDLE) == (psi < 0)


@pytest.mark.parametrize("point", [(math.nan, math.nan),
                                   (math.nan, math.tanh(0.03)),
                                   (0.5590495114704737, math.nan)])
def test_classify_rejects_a_nan_point(point):
    with pytest.raises(ValueError, match="point .* is not an equilibrium"):
        classify(point, MAIN)


@pytest.mark.parametrize("s_star", [math.nan, math.inf, 1.5, -1.5])
def test_gamma_thresholds_rejects_a_point_outside_the_box(s_star):
    with pytest.raises(ValueError, match="s_star_pt"):
        gamma_thresholds(s_star, MAIN)


@pytest.mark.parametrize("kw, name", [
    (dict(tol=math.nan), "tol"),
    (dict(tol=-1.0), "tol"),
    (dict(tol=0.0), "tol"),
    (dict(min_amplitude=math.nan), "min_amplitude"),
    (dict(min_amplitude=-1e-3), "min_amplitude"),
])
def test_detect_limit_cycle_rejects_bad_tolerances(kw, name):
    with pytest.raises(ValueError, match=name):
        detect_limit_cycle(SYM.replace(gamma=62.0), MarketState(0.9, 0.0),
                           200, **kw)


def test_tangency_labels_the_two_outer_branches():
    # at delta = delta_critical the shallow well and the middle root merge
    # into one double root at s = -sqrt((beta1 - 1)/beta1), where psi = 0
    pts = find_equilibria(MAIN.replace(delta=delta_critical(1.1, 0.55)))
    assert [p.branch for p in pts] == ["s_minus", "s_plus"]
    assert pts[0].s_star_pt == pytest.approx(-math.sqrt(0.1 / 1.1), abs=1e-6)


@pytest.mark.parametrize("beta1", [1e6, 1e100])
def test_find_equilibria_takes_its_own_roots_at_a_large_beta1(beta1):
    # the middle root's residual is about beta1 times the root tolerance;
    # classify's 1e-8 check refused it at beta1 = 1e6 and 1e100
    pts = find_equilibria(MAIN.replace(beta1=beta1))
    assert [(p.branch, p.stability) for p in pts] == [
        ("s_minus", STABLE_NODE), ("s_zero", SADDLE), ("s_plus", STABLE_NODE)]
    assert all(math.isfinite(abs(lam)) for p in pts for lam in p.eigenvalues)


def test_find_equilibria_names_beta1_when_the_linearization_overflows():
    with pytest.raises(ValueError, match="not finite: its terms in beta1,"):
        find_equilibria(MAIN.replace(beta1=1e300))


@given(beta1=st.one_of(st.floats(min_value=0.0, max_value=2.0),
                       st.floats(min_value=0.0, max_value=300.0).map(
                           lambda x: 10.0 ** x)),
       gamma=st.floats(min_value=0.0, max_value=200.0),
       delta=st.floats(min_value=-0.5, max_value=0.5),
       w_h=st.floats(min_value=0.05, max_value=40.0))
@example(beta1=1e17, gamma=56.0, delta=0.03, w_h=0.4)
@example(beta1=1e20, gamma=56.0, delta=0.03, w_h=0.4)
@example(beta1=1e100, gamma=56.0, delta=0.03, w_h=0.4)
@settings(max_examples=200, deadline=None)
def test_eigenvalues_keep_the_trace_and_determinant(beta1, gamma, delta, w_h):
    # lambda1 + lambda2 = tr and lambda1*lambda2 = psi*eta; a saddle's
    # smaller eigenvalue, a difference of tr and sqrt(disc), read -8 at
    # beta1 = 1e17 and 0 from 1e20 up, where about -eta = -10 is right
    params = MAIN.replace(beta1=beta1, gamma=gamma, delta=delta, w_h=w_h)
    try:
        pts = find_equilibria(params)
    except ValueError as err:
        # tr**2 overflows for the middle root from beta1 of about 1e154
        assert "is not finite" in str(err) and beta1 > 1e100
        return
    for p in pts:
        psi, phi, eta = _psi_phi_eta(p.s_star_pt, params)
        lam1, lam2 = p.eigenvalues
        size = abs(lam1) + abs(lam2)
        assert abs(lam1 + lam2 - (phi - psi)) <= 1e-12 * size
        assert abs(lam1 * lam2 - psi * eta) <= 1e-12 * abs(psi * eta)
