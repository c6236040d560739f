"""Sentiment relaxation, its potential, and the 1-D equilibrium solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from newsmarket.core import ModelParams, Series
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


def test_unstable_step_raises_rather_than_clipping():
    # w_s*dt = 500 is far past the RK4 stability limit.
    stiff = PARAMS.replace(w_s=500.0)
    H = Series(np.full(10, 1.0))
    with pytest.raises(RuntimeError, match="integrator failure"):
        integrate_sentiment(H, -1.0, stiff, substeps=1)


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
    if len(roots) == 3 and min(np.diff(ss)) > 1e-3:
        assert [k for _, k in roots] == [STABLE, UNSTABLE, STABLE]
