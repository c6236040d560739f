"""The model's mirror symmetry as an oracle with no reference output.

Flip the signs of s, h, the noise, delta and s_star (in the Glauber chain:
S, H, b_s and b_h), and every path and root flips with them.  IEEE
negation is exact and math.tanh is odd, so wherever the code treats both
signs alike the mirror holds bit for bit (Chen, Cheung & Yiu 1998,
metamorphic testing).  Paths and failing states are compared as floats,
not as bytes: a sum that cancels to zero is +0.0 on both sides.
"""

import dataclasses
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsmarket.core import FULL, SIMPLIFIED, ModelParams, Series
from newsmarket.glauber import (SpinMacroState, SpinSystemConfig,
                                equilibrium_distribution, transition_rates)
from newsmarket.market import _daily_path
from newsmarket.phase import find_equilibria
from newsmarket.sentiment import equilibria_1d, integrate_sentiment

_MIRROR_BRANCH = {"s_minus": "s_plus", "s_plus": "s_minus"}

unit = st.floats(min_value=-1.0, max_value=1.0)
params_st = st.builds(
    ModelParams,
    w_s=st.floats(min_value=0.005, max_value=0.5),
    w_h=st.floats(min_value=0.05, max_value=10.0),
    beta1=st.floats(min_value=0.0, max_value=3.0),
    beta2=st.floats(min_value=0.0, max_value=3.0),
    a1=st.floats(min_value=0.01, max_value=2.0),
    a2=st.floats(min_value=0.0005, max_value=0.1),
    beta3=st.floats(min_value=0.0, max_value=2.0),
    beta4=st.floats(min_value=0.0, max_value=2.0),
    gamma=st.floats(min_value=0.0, max_value=200.0),
    delta=st.floats(min_value=-1.0, max_value=1.0),
    kappa=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
    s_star=unit)


def _mirrored(params: ModelParams) -> ModelParams:
    return params.replace(delta=-params.delta, s_star=-params.s_star)


_STATE = re.compile(r"(?<=[sh] = )[^,)]+")


def _failure(err: RuntimeError):
    """A box-exit message split into its text and its state components."""
    msg = str(err)
    return _STATE.sub("#", msg), np.array(_STATE.findall(msg), dtype=float)


def _outcome(run, *args):
    """A run's paths, or the RuntimeError it raised."""
    try:
        return run(*args)
    except RuntimeError as err:
        return err


def _assert_mirror(got, mirror):
    if isinstance(got, RuntimeError):
        assert isinstance(mirror, RuntimeError), mirror
        text, state = _failure(got)
        mirror_text, mirror_state = _failure(mirror)
        assert mirror_text == text
        assert np.array_equal(-mirror_state, state, equal_nan=True)
    else:
        assert not isinstance(mirror, RuntimeError), mirror
        for a, b in zip(got, mirror):
            assert np.array_equal(-b, a)


@given(params=params_st, s0=unit, h0=unit,
       n=st.integers(min_value=1, max_value=60),
       substeps=st.integers(min_value=1, max_value=8),
       mode=st.sampled_from([SIMPLIFIED, FULL]),
       reverse=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
# a forward box exit on day 0 (w_h*dt = 500)
@example(params=ModelParams(w_s=0.04, w_h=500.0, beta1=1.1, beta2=0.55,
                            a1=0.374, a2=0.002, gamma=56.0, delta=0.03),
         s0=0.9, h0=-0.9, n=10, substeps=1, mode=SIMPLIFIED, reverse=False,
         seed=0)
@settings(max_examples=80, deadline=None)
def test_daily_path_is_odd_under_the_mirror(params, s0, h0, n, substeps,
                                            mode, reverse, seed):
    # the kernel of simulate and integrate_autonomous; the public entries
    # validate params and so refuse a negative delta
    rng = np.random.default_rng(seed)
    beta1 = params.beta1 + rng.uniform(-0.2, 0.2, n)
    xi = rng.standard_normal(n)
    got = _outcome(_daily_path, params, beta1, xi, s0, h0, substeps, mode,
                   reverse)
    mirror = _outcome(_daily_path, _mirrored(params), beta1, -xi, -s0, -h0,
                      substeps, mode, reverse)
    _assert_mirror(got, mirror)


@given(params=params_st.map(lambda p: p.replace(delta=abs(p.delta),
                                                s_star=0.0)),
       s0=unit, n=st.integers(min_value=1, max_value=80),
       substeps=st.integers(min_value=1, max_value=8),
       scale=st.sampled_from([0.5, 3.0, 300.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
# a box exit on day 0 (w_s*dt = 500)
@example(params=ModelParams(w_s=500.0, w_h=0.4, beta1=1.1, beta2=0.55,
                            a1=0.374, a2=0.002),
         s0=-1.0, n=10, substeps=1, scale=3.0, seed=0)
@settings(max_examples=80, deadline=None)
def test_integrate_sentiment_is_odd_under_the_mirror(params, s0, n, substeps,
                                                     scale, seed):
    H = np.random.default_rng(seed).normal(0.0, scale, n)

    def run(H, s0):
        return (integrate_sentiment(Series(H), s0, params, substeps).values,)

    _assert_mirror(_outcome(run, H, s0), _outcome(run, -H, -s0))


@given(params=params_st)
@settings(max_examples=150, deadline=None)
def test_equilibria_are_odd_under_the_mirror(params):
    # points, eigenvalues and classes; the outer branches swap names
    got = find_equilibria(params)
    mirror = find_equilibria(_mirrored(params))
    assert len(mirror) == len(got)
    for p, q in zip(got, reversed(mirror)):
        assert q.s_star_pt == -p.s_star_pt
        assert q.h_star_pt == -p.h_star_pt
        assert q.eigenvalues == p.eigenvalues
        assert q.stability == p.stability
        assert q.branch == _MIRROR_BRANCH.get(p.branch, p.branch)


@given(beta1=st.floats(min_value=0.0, max_value=3.0),
       c=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=300, deadline=None)
def test_equilibria_1d_is_odd_in_the_tilt(beta1, c):
    got = equilibria_1d(beta1, c)
    mirror = equilibria_1d(beta1, -c)
    assert [(-s, kind) for s, kind in reversed(mirror)] == got


_coupling = st.floats(min_value=-3.0, max_value=3.0)


@st.composite
def spin_configs(draw):
    n_s = draw(st.integers(min_value=1, max_value=40))
    n_h = draw(st.integers(min_value=1, max_value=40))
    j12 = draw(_coupling)
    return SpinSystemConfig(
        N_s=n_s, N_h=n_h, J11=draw(_coupling), J12=j12,
        J21=j12 * n_s / n_h, J22=draw(_coupling), mu_s=draw(_coupling),
        mu_h=draw(_coupling),
        theta=draw(st.floats(min_value=0.2, max_value=5.0)),
        w_s=draw(st.floats(min_value=0.01, max_value=10.0)),
        w_h=draw(st.floats(min_value=0.01, max_value=10.0)),
        b_s=draw(_coupling), b_h=draw(_coupling))


def _negated_fields(config):
    return dataclasses.replace(config, b_s=-config.b_s, b_h=-config.b_h)


def _swapped_species(c):
    return SpinSystemConfig(
        N_s=c.N_h, N_h=c.N_s, J11=c.J22, J12=c.J21, J21=c.J12, J22=c.J11,
        mu_s=c.mu_h, mu_h=c.mu_s, theta=c.theta, w_s=c.w_h, w_h=c.w_s,
        b_s=c.b_h, b_h=c.b_s)


@given(config=spin_configs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_transition_rates_swap_under_the_mirror_and_the_species_swap(
        config, data):
    S = -config.N_s + 2 * data.draw(st.integers(0, config.N_s))
    H = -config.N_h + 2 * data.draw(st.integers(0, config.N_h))
    up_s, dn_s, up_h, dn_h = transition_rates(SpinMacroState(S, H), config)
    assert transition_rates(SpinMacroState(-S, -H),
                            _negated_fields(config)) == (dn_s, up_s,
                                                         dn_h, up_h)
    assert transition_rates(SpinMacroState(H, S),
                            _swapped_species(config)) == (up_h, dn_h,
                                                          up_s, dn_s)


@given(config=spin_configs())
@settings(max_examples=60, deadline=None)
def test_equilibrium_distribution_under_the_mirror_and_the_species_swap(
        config):
    # not bit for bit: the normalizing sum runs in another order, and the
    # swap also regroups the energy and forms J21/N_s for J12/N_h
    _, _, P = equilibrium_distribution(config)
    _, _, mirror = equilibrium_distribution(_negated_fields(config))
    _, _, swapped = equilibrium_distribution(_swapped_species(config))
    np.testing.assert_allclose(mirror[::-1, ::-1], P, rtol=1e-11, atol=1e-14)
    np.testing.assert_allclose(swapped.T, P, rtol=1e-11, atol=1e-14)
