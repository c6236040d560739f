"""Sentiment relaxation, its potential, and the 1-D equilibrium solver."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from newsmarket.core import _BOUND_SLACK, ModelParams, Series
from newsmarket.phase import delta_critical
from newsmarket.sentiment import (
    STABLE,
    UNSTABLE,
    equilibria_1d,
    integrate_sentiment,
    potential_u0,
    potential_uc,
    sentiment_rhs,
)

PARAMS = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55,
                     a1=0.374, a2=0.002)


def brentq_roots(beta1, c):
    """Independent root finder: brentq on sign changes of a coarse scan."""
    g = lambda s: math.tanh(beta1 * s + c) - s
    xs = np.linspace(-1, 1, 4001)
    vals = [g(x) for x in xs]
    roots = []
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0:
            roots.append(brentq(g, a, b, xtol=1e-14))
    return roots


def test_rhs_zero_at_origin_and_roots():
    assert sentiment_rhs(0.0, 0.0, PARAMS) == 0.0
    for r, _ in equilibria_1d(PARAMS.beta1, 0.0):
        assert sentiment_rhs(r, 0.0, PARAMS) == pytest.approx(0.0, abs=1e-12)


def test_rhs_matches_formula():
    got = sentiment_rhs(0.3, -0.2, PARAMS)
    want = -0.04 * 0.3 + 0.04 * math.tanh(1.1 * 0.3 + 0.55 * (-0.2))
    assert got == pytest.approx(want, abs=1e-15)


def test_constant_drive_converges_to_fixed_point():
    h0 = 0.25
    H = Series(np.full(3000, h0))
    s = integrate_sentiment(H, 0.9, PARAMS)
    roots = equilibria_1d(PARAMS.beta1, PARAMS.beta2 * h0)
    target = max(r for r, kind in roots if kind == STABLE)
    assert s.values[-1] == pytest.approx(target, abs=1e-9)
    assert len(s) == len(H)
    assert s.values[0] == 0.9


def test_substep_refinement_is_converged():
    rng = np.random.default_rng(3)
    H = Series(np.clip(rng.normal(0.0, 0.3, 400), -1, 1))
    coarse = integrate_sentiment(H, 0.1, PARAMS, substeps=8)
    fine = integrate_sentiment(H, 0.1, PARAMS, substeps=64)
    assert np.max(np.abs(coarse.values - fine.values)) < 1e-9


def test_integrate_input_errors():
    H = Series([0.0, 0.1], step=2.0)
    with pytest.raises(ValueError, match="daily"):
        integrate_sentiment(H, 0.0, PARAMS)
    H = Series([0.0, 0.1])
    with pytest.raises(ValueError, match="s0"):
        integrate_sentiment(H, 1.5, PARAMS)
    with pytest.raises(ValueError, match="substeps"):
        integrate_sentiment(H, 0.0, PARAMS, substeps=0)


@pytest.mark.parametrize("s0, params, error, match", [
    # params holds the field changes to PARAMS, made inside the check
    # because a NaN rate cannot be made at all
    (0.5, dict(w_s=math.nan), ValueError, "w_s must be finite"),
    (math.nan, dict(), ValueError, r"s0 must lie in \[-1, 1\]"),
    # the step overflows to a NaN state, which the bound check must catch
    (0.5, dict(w_s=1e300), RuntimeError, "integrator failure"),
])
def test_integrate_names_nan_inputs_and_states(s0, params, error, match):
    # each used to surface as "non-finite sample at position ..."
    with pytest.raises(error, match=match):
        integrate_sentiment(Series(np.zeros(5)), s0, PARAMS.replace(**params))


def test_unstable_step_raises_rather_than_clipping():
    # w_s*dt = 500 is far past the RK4 stability limit.
    stiff = PARAMS.replace(w_s=500.0)
    H = Series(np.full(10, 1.0))
    with pytest.raises(RuntimeError, match="integrator failure"):
        integrate_sentiment(H, -1.0, stiff, substeps=1)


def _numpy_scalar_days(H, s0, params, substeps):
    """integrate_sentiment's day loop as it read the drive before: one
    numpy scalar H.values[d] per day, so every stage adds a numpy
    scalar."""
    w_s, b1, b2 = params.w_s, params.beta1, params.beta2
    hvals = H.values
    out = np.empty(len(hvals))
    out[0] = s = float(s0)
    dt = 1.0 / substeps
    for d in range(len(hvals) - 1):
        drive = b2 * hvals[d]
        for _ in range(substeps):
            k1 = w_s * (math.tanh(b1 * s + drive) - s)
            y = s + 0.5 * dt * k1
            k2 = w_s * (math.tanh(b1 * y + drive) - y)
            y = s + 0.5 * dt * k2
            k3 = w_s * (math.tanh(b1 * y + drive) - y)
            y = s + dt * k3
            k4 = w_s * (math.tanh(b1 * y + drive) - y)
            s = s + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            if not abs(s) <= 1.0 + _BOUND_SLACK:
                return (f"integrator failure at day {d}: state left "
                        f"[-1, 1] (s = {s})")
        out[d + 1] = s
    return out.tobytes()


@given(params=st.builds(
           PARAMS.replace,
           w_s=st.floats(min_value=0.001, max_value=2.0),
           beta1=st.floats(min_value=0.0, max_value=3.0),
           beta2=st.floats(min_value=0.0, max_value=3.0)),
       s0=st.floats(min_value=-1.0, max_value=1.0),
       n=st.integers(min_value=1, max_value=80),
       substeps=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(params=PARAMS.replace(w_s=500.0), s0=-1.0, n=10, substeps=1, seed=0)
@settings(max_examples=80, deadline=None)
def test_day_loop_matches_the_numpy_scalar_loop_bitwise(params, s0, n,
                                                        substeps, seed):
    # the drive is read from a list of floats; the path keeps its bytes
    H = Series(np.random.default_rng(seed).normal(0.0, 0.5, n),
               start_index=seed % 7)
    try:
        got = integrate_sentiment(H, s0, params, substeps)
    except RuntimeError as err:
        outcome = str(err)
    else:
        outcome = got.values.tobytes()
        assert got.start_index == H.start_index
    assert outcome == _numpy_scalar_days(H, s0, params, substeps)


def test_potential_is_even_without_tilt():
    curve = potential_u0(PARAMS, grid_size=801)
    assert np.allclose(curve.u_values, curve.u_values[::-1], atol=1e-14)
    kinds = [k for _, k in curve.extrema]
    assert kinds == ["min", "max", "min"]


def test_potential_gradient_matches_negative_drift():
    c = 0.15
    curve = potential_uc(PARAMS, c, grid_size=2001)
    ds = curve.s_grid[1] - curve.s_grid[0]
    grad = np.gradient(curve.u_values, ds)
    expect = PARAMS.w_s * (curve.s_grid
                           - np.tanh(PARAMS.beta1 * curve.s_grid + c))
    # interior points only: one-sided ends are first-order accurate
    assert np.allclose(grad[1:-1], expect[1:-1], atol=1e-6)


def test_potential_extrema_are_exact_equilibria():
    curve = potential_uc(PARAMS, 0.01)
    roots = equilibria_1d(PARAMS.beta1, 0.01)
    assert len(curve.extrema) == len(roots) == 3
    for (se, kind_e), (sr, kind_r) in zip(curve.extrema, roots):
        assert se == sr
        assert kind_e == ("min" if kind_r == STABLE else "max")


def test_potential_beta1_zero_limit():
    p0 = PARAMS.replace(beta1=0.0)
    curve = potential_uc(p0, 0.3, grid_size=5)
    # the quadratic-plus-linear limit has its single minimum at tanh(c)
    assert len(curve.extrema) == 1
    s_min, kind = curve.extrema[0]
    assert kind == "min"
    assert s_min == pytest.approx(math.tanh(0.3), abs=1e-9)


def test_potential_grid_size_error():
    with pytest.raises(ValueError, match="grid_size"):
        potential_uc(PARAMS, 0.0, grid_size=2)


def test_equilibria_symmetric_case():
    roots = equilibria_1d(1.1, 0.0)
    assert [k for _, k in roots] == [STABLE, UNSTABLE, STABLE]
    assert roots[0][0] == pytest.approx(-0.5029405749446065, abs=1e-9)
    assert abs(roots[1][0]) < 1e-9
    assert roots[2][0] == pytest.approx(0.5029405749446065, abs=1e-9)


def test_equilibria_tilt_collapses_negative_well():
    # tangency tilt for beta1=1.1 is atanh(q) - ... = 0.02048
    assert len(equilibria_1d(1.1, 0.01)) == 3
    assert len(equilibria_1d(1.1, 0.1)) == 1
    only = equilibria_1d(1.1, 0.1)[0]
    assert only[0] == pytest.approx(0.7031056871960903, abs=1e-9)
    assert only[1] == STABLE


def test_equilibria_subcritical_single_root():
    roots = equilibria_1d(0.5, 0.3)
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(0.5008318876695432, abs=1e-9)


def test_equilibria_against_brentq():
    for beta1, c in [(1.1, 0.0), (1.1, 0.015), (1.3, -0.05),
                     (0.8, 0.2), (1.5, 0.0), (1.05, 0.002)]:
        ours = [r for r, _ in equilibria_1d(beta1, c)]
        ref = brentq_roots(beta1, c)
        assert len(ours) == len(ref)
        assert np.allclose(ours, ref, atol=1e-10)


def test_equilibria_resolve_pairs_near_the_fold():
    # 1e-10 below the fold tilt the merging pair sits ~3e-5 apart, closer
    # than any fixed scan grid would resolve
    c_fold = 0.55 * math.tanh(delta_critical(1.1, 0.55))
    below = equilibria_1d(1.1, c_fold - 1e-10)
    assert [k for _, k in below] == [STABLE, UNSTABLE, STABLE]
    assert len(equilibria_1d(1.1, c_fold + 1e-10)) == 1


def test_equilibria_tangent_root_counted_once():
    c_fold = 0.55 * math.tanh(delta_critical(1.1, 0.55))
    for k in range(-40, 41):
        c = c_fold + k * 1e-18
        ss = [r for r, _ in equilibria_1d(1.1, c)]
        assert all(b > a for a, b in zip(ss, ss[1:]))
        assert 1 <= len(ss) <= 3
        s_turn = (-math.acosh(math.sqrt(1.1)) - c) / 1.1
        if math.tanh(1.1 * s_turn + c) - s_turn == 0.0:
            # the double root is a bracket end shared by two brackets
            assert ss.count(s_turn) == 1 and len(ss) == 2


def test_equilibria_rejects_negative_beta1():
    with pytest.raises(ValueError, match="beta1"):
        equilibria_1d(-0.1, 0.0)


@given(name=st.sampled_from(["beta1", "c"]),
       value=st.sampled_from([math.nan, math.inf, -math.inf]),
       other=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_equilibria_reject_non_finite_inputs(name, value, other):
    args = {"beta1": other, "c": other, name: value}
    with pytest.raises(ValueError, match=name):
        equilibria_1d(**args)


@given(beta1=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       c=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_equilibria_roots_are_true_roots(beta1, c):
    roots = equilibria_1d(beta1, c)
    ss = [r for r, _ in roots]
    assert all(abs(math.tanh(beta1 * r + c) - r) < 1e-9 for r in ss)
    assert ss == sorted(ss)
    if len(roots) == 3:
        assert [k for _, k in roots] == [STABLE, UNSTABLE, STABLE]


@given(beta1=st.one_of(st.floats(min_value=0.0, max_value=3.0),
                      st.floats(min_value=0.0, max_value=1e308)),
       c=st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                   st.floats(min_value=-1e308, max_value=1e308)),
       near_fold=st.booleans())
@settings(max_examples=300, deadline=None)
def test_equilibria_always_hold_a_stable_root(beta1, c, near_fold):
    # the gap is >= 0 at s = -1 and <= 0 at s = 1, so an end is a root or
    # the first sign change falls; pricing.initial_sentiment relies on it
    if near_fold:
        # within 20 of +-beta1, where a fold can sit near s = -+1
        c = math.copysign(beta1 - c % 20.0, c)
    assert STABLE in [k for _, k in equilibria_1d(beta1, c)]


def test_equilibria_at_the_critical_point_is_one_stable_root():
    # the bottom of the quartic well at beta1 = 1 has a slope that rounds
    # to 0.0, which a slope test read as unstable
    assert equilibria_1d(1.0, 0.0) == [(0.0, STABLE)]


@pytest.mark.parametrize("c", [0.0, 0.03, -0.2])
@pytest.mark.parametrize("beta1", [1e14, 1e50, 1e100, 1e200])
def test_equilibria_labels_alternate_at_huge_beta1(beta1, c):
    # the middle root lands on a turning point within the solver's
    # tolerance, where the slope is about 0; a slope test made it stable
    roots = equilibria_1d(beta1, c)
    assert [k for _, k in roots] == [STABLE, UNSTABLE, STABLE]


@pytest.mark.parametrize("beta1, c, middle", [
    (7057989524665945, -7057989524665925, 0.9999999999999999),
    (6347007782352872, 6347007782352852, -0.9999999999999999),
])
def test_equilibria_pinned_pair_holds_the_unstable_root(beta1, c, middle):
    # beta1*s has an ulp of about 1 here: the gap rounds to 0 at a
    # turning point and at the box end next to it, and all three roots
    # read stable
    assert equilibria_1d(beta1, c) == [(-1.0, STABLE), (middle, UNSTABLE),
                                       (1.0, STABLE)]


@given(beta1=st.one_of(st.floats(min_value=0.0, max_value=3.0),
                      st.floats(min_value=0.0, max_value=300.0)
                      .map(lambda e: 10.0 ** e)),
       c=st.floats(min_value=-2.0, max_value=2.0),
       near_end=st.sampled_from([None, -1.0, 1.0]),
       offset=st.floats(min_value=-40.0, max_value=40.0))
@example(beta1=7057989524665945.0, c=0.0, near_end=-1.0, offset=20.0)
@settings(max_examples=300, deadline=None)
def test_equilibria_three_roots_read_stable_unstable_stable(beta1, c,
                                                           near_end, offset):
    if near_end is not None:
        # within 40 of +-beta1, where the turning points and roots crowd
        # s = +-1
        c = near_end * beta1 + offset
    roots = equilibria_1d(beta1, c)
    ss, kinds = [r for r, _ in roots], [k for _, k in roots]
    assert all(b >= a for a, b in zip(ss, ss[1:]))
    assert STABLE in kinds
    if len(roots) == 3:
        assert kinds == [STABLE, UNSTABLE, STABLE]
