"""Closed two-component market model with price feedback and daily noise.

Sentiment s relaxes toward tanh(beta1*s + beta2*h); the information flow h
relaxes toward a tanh of the perceived price trend.  In the simplified
mode that trend is gamma*ds/dt + delta (the sentiment drift substituted
analytically, which closes the system); the full mode keeps the separate
couplings beta3*s + beta4*h plus kappa1*(a1*ds/dt + a2*(s - s_star)) with
kappa1 = gamma/a1.  Noise is white on the daily grid only: one standard
normal xi_d per business day, held constant across that day's substeps.

Two RK4 paths step the same equations.  _make_drift and _rk4_step are the
reference: the public drift and full-mode runs use them.  Simplified-mode
day loops (simulate and phase.integrate_autonomous) run a kernel in
_daily_path with the drift written into the stage loop, because the
criterion-9 protocol spends nearly all its time there, and
phase.detect_limit_cycle runs the same written-out stages in its
per-substep section watch.  Both make the floating-point operations of the
reference in the same order, so all paths give bitwise-identical states;
a test holds each kernel to the reference.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (_BOUND_SLACK, _MIN_THETA, _SUBSTEPS, FULL, SIMPLIFIED,
                   MarketState, ModelParams, RandomSource, Series, _count,
                   _finite, _fixed_steps, _left_box, _size, _streams,
                   _work)
from .pricing import price_from_sentiment

__all__ = [
    "SIMPLIFIED",
    "FULL",
    "SimulationRun",
    "drift",
    "simulate",
    "ensemble",
    "noise_dominance_map",
]

_WORKERS_ENV = "NEWSMARKET_WORKERS"


def _make_drift(params: ModelParams, beta1: float, xi: float, mode: str):
    """Drift closure (s, h) -> (ds/dt, dh/dt) of one mode, with beta1 and
    the held noise xi bound in."""
    w_s, w_h, b2 = params.w_s, params.w_h, params.beta2
    kxi = params.kappa * xi
    tanh = math.tanh
    if mode == SIMPLIFIED:
        gamma, delta = params.gamma, params.delta

        def f(s, h):
            ds = -w_s * s + w_s * tanh(beta1 * s + b2 * h)
            return ds, -w_h * h + w_h * tanh(gamma * ds + delta + kxi)
    elif mode == FULL:
        b3, b4, a1, a2 = params.beta3, params.beta4, params.a1, params.a2
        s_star = params.s_star
        kappa1 = params.gamma / a1

        def f(s, h):
            ds = -w_s * s + w_s * tanh(beta1 * s + b2 * h)
            arg = (b3 * s + b4 * h + kappa1 * (a1 * ds + a2 * (s - s_star))
                   + kxi)
            return ds, -w_h * h + w_h * tanh(arg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return f


def _rk4_step(f, s: float, h: float, dt: float):
    """One classical Runge-Kutta step under drift f; dt < 0 reverses time."""
    k1s, k1h = f(s, h)
    k2s, k2h = f(s + 0.5 * dt * k1s, h + 0.5 * dt * k1h)
    k3s, k3h = f(s + 0.5 * dt * k2s, h + 0.5 * dt * k2h)
    k4s, k4h = f(s + dt * k3s, h + dt * k3h)
    return (s + dt * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0,
            h + dt * (k1h + 2.0 * k2h + 2.0 * k3h + k4h) / 6.0)


def _daily_path(params: ModelParams, beta1: np.ndarray, xi: np.ndarray,
                s: float, h: float, substeps: int, mode: str,
                reverse: bool = False):
    """len(beta1) + 1 daily samples of (s, h), the first the initial
    state; day d runs `substeps` RK4 steps of size 1/substeps (backward
    in time when reverse) with beta1[d] and the held noise xi[d].

    Simplified mode runs the drift written out in the four stages, with
    the operations and their order of _rk4_step over _make_drift (hence
    bitwise-equal paths) but no closure calls or tuple builds, which
    makes a substep about 1.8x faster.  phase.detect_limit_cycle writes
    out the same stages, as it needs every substep rather than one
    sample a day.  Full mode steps one _make_drift closure per day with
    _rk4_step; those two stay the reference that the tests compare both
    kernels against.

    Raises core._left_box once the state leaves the box, in either time
    direction.
    """
    dt = (-1.0 if reverse else 1.0) / substeps
    lim = 1.0 + _BOUND_SLACK
    # list appends and one range object: cheaper per day than numpy item
    # stores and a new range
    s_out, h_out = [s], [h]
    add_s, add_h = s_out.append, h_out.append
    steps = range(substeps)
    days = zip(beta1.tolist(), xi.tolist())
    if mode == SIMPLIFIED:
        w_s, w_h, b2 = params.w_s, params.w_h, params.beta2
        nw_s, nw_h = -w_s, -w_h
        gamma, delta, kappa = params.gamma, params.delta, params.kappa
        half = 0.5 * dt
        tanh = math.tanh
        for d, (b1, x) in enumerate(days):
            kxi = kappa * x
            for _ in steps:
                k1s = nw_s * s + w_s * tanh(b1 * s + b2 * h)
                k1h = nw_h * h + w_h * tanh(gamma * k1s + delta + kxi)
                y = s + half * k1s
                z = h + half * k1h
                k2s = nw_s * y + w_s * tanh(b1 * y + b2 * z)
                k2h = nw_h * z + w_h * tanh(gamma * k2s + delta + kxi)
                y = s + half * k2s
                z = h + half * k2h
                k3s = nw_s * y + w_s * tanh(b1 * y + b2 * z)
                k3h = nw_h * z + w_h * tanh(gamma * k3s + delta + kxi)
                y = s + dt * k3s
                z = h + dt * k3h
                k4s = nw_s * y + w_s * tanh(b1 * y + b2 * z)
                k4h = nw_h * z + w_h * tanh(gamma * k4s + delta + kxi)
                s = s + dt * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0
                h = h + dt * (k1h + 2.0 * k2h + 2.0 * k3h + k4h) / 6.0
                if not (abs(s) <= lim and abs(h) <= lim):
                    raise _left_box(d, s, h)
            add_s(s)
            add_h(h)
    else:
        for d, (b1, x) in enumerate(days):
            f = _make_drift(params, b1, x, mode)
            for _ in steps:
                s, h = _rk4_step(f, s, h, dt)
                if not (abs(s) <= lim and abs(h) <= lim):
                    raise _left_box(d, s, h)
            add_s(s)
            add_h(h)
    return np.array(s_out, dtype=float), np.array(h_out, dtype=float)


def drift(state: MarketState, params: ModelParams, mode: str = SIMPLIFIED):
    """Deterministic drift (ds_dt, dh_dt) of the closed system at a state."""
    return _make_drift(params, params.beta1, 0.0, mode)(state.s, state.h)


@dataclass(frozen=True)
class SimulationRun:
    """One realization on the daily grid.

    s, h, p are daily Series; xi holds the realized daily noise draws
    (zeros when kappa = 0 or no source was supplied).
    """

    s: Series
    h: Series
    p: Series
    params: ModelParams
    seed: int | None
    stream_id: int | None
    mode: str
    theta_profile: Series | None = None
    xi: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def states(self) -> list:
        """The run as MarketState objects (materialized on demand)."""
        return [MarketState(s=float(a), h=float(b), p=float(c))
                for a, b, c in zip(self.s.values, self.h.values, self.p.values)]


def simulate(params: ModelParams, init: MarketState, horizon_days: int,
             substeps: int = _SUBSTEPS, rng: RandomSource | None = None,
             theta_profile: Series | None = None, mode: str = SIMPLIFIED,
             beta1_shift: float = 0.0) -> SimulationRun:
    """Integrate the closed system for horizon_days daily samples.

    One noise draw per day, zero-order held over the day's `substeps`
    Runge-Kutta steps.  Day 0 is the initial state; p is accumulated from
    the daily sentiment path with the same trapezoidal rule as the pricing
    module.  theta_profile (step 1, starting on day 0, length >= horizon)
    overrides beta1 daily as 1/theta(day); beta2 is never rescaled.  beta1_shift is added
    to whatever beta1 is in force (a documented variant of the
    temperature-modulated runs).  horizon_days and substeps must be
    integers >= 1 (numpy integers included) with a product of at most
    core._MAX_WORK = 10**9, the used part of theta_profile positive and
    not subnormal, and the daily beta1 finite and non-negative.
    """
    if mode not in (SIMPLIFIED, FULL):
        raise ValueError(f"unknown mode {mode!r}")
    horizon_days = _size("horizon_days", horizon_days)
    substeps = _fixed_steps(params, "horizon_days", horizon_days, substeps)
    if theta_profile is not None and theta_profile.step != 1.0:
        raise ValueError("theta_profile must be sampled daily (step = 1), "
                         f"got step {theta_profile.step}")
    if theta_profile is not None and theta_profile.start_index != 0:
        raise ValueError("theta_profile must start on the run's day 0, "
                         f"got start day {theta_profile.start_index}")
    if theta_profile is not None and len(theta_profile) < horizon_days:
        raise ValueError(f"theta_profile has {len(theta_profile)} days, "
                         f"fewer than horizon_days = {horizon_days}")
    if params.kappa != 0.0 and rng is None:
        raise ValueError("noisy run (kappa != 0) requires a RandomSource")

    n = horizon_days
    if theta_profile is None:
        beta1 = np.full(n - 1, params.beta1 + beta1_shift)
    else:
        theta = theta_profile.values[:n - 1]
        bad_days = np.flatnonzero(theta < _MIN_THETA)
        if bad_days.size:
            bad = int(bad_days[0])
            raise ValueError("theta_profile must be positive and at least "
                             f"{_MIN_THETA}: day {bad} has theta = "
                             f"{theta[bad]}")
        beta1 = 1.0 / theta + beta1_shift
    if not np.all(np.isfinite(beta1) & (beta1 >= 0.0)):
        raise ValueError(f"beta1_shift = {beta1_shift} leaves the daily "
                         "beta1 negative or non-finite")
    xi_seq = (rng.standard_normal(n - 1) if params.kappa != 0.0
              else np.zeros(n - 1))
    s_out, h_out = _daily_path(params, beta1, xi_seq, init.s, init.h,
                               substeps, mode)

    s_series = Series(s_out, start_index=0, step=1.0)
    h_series = Series(h_out, start_index=0, step=1.0)
    p_series = price_from_sentiment(s_series, params)
    # p(0) = a1*s(0) + a4 by the pricing convention; add init.p as offset.
    if init.p != 0.0:
        p_series = Series(p_series.values + init.p, 0, 1.0)
    return SimulationRun(
        s=s_series, h=h_series, p=p_series, params=params,
        seed=rng.seed if rng is not None else None,
        stream_id=rng.stream_id if rng is not None else None,
        mode=mode, theta_profile=theta_profile, xi=xi_seq)


def ensemble(params: ModelParams, init: MarketState, horizon: int,
             n_realizations: int, rng: RandomSource,
             theta_profile: Series | None = None, mode: str = SIMPLIFIED,
             substeps: int = _SUBSTEPS, beta1_shift: float = 0.0,
             workers: int | None = None):
    """Run n_realizations (an integer >= 1) of simulate; realization i
    runs on rng.substream(i).  The RK4 substeps of all of them,
    n_realizations * horizon_days * substeps, may not exceed
    core._MAX_WORK = 10**9.

    Returns (mean sentiment Series, list of SimulationRun).  Worker count
    (an integer >= 1) comes from the NEWSMARKET_WORKERS environment
    variable unless passed explicitly; results are identical for any
    worker count.
    """
    n, streams = _streams("n_realizations", n_realizations, rng)
    name = "workers"
    if workers is None:
        name, env = _WORKERS_ENV, os.environ.get(_WORKERS_ENV, "1")
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{_WORKERS_ENV} must be an integer, "
                             f"got {env!r}") from None
    workers = _count(name, workers)
    days = _size("horizon_days", horizon)
    steps = _fixed_steps(params, "horizon_days", days, substeps)
    _work(n * days * steps, "n_realizations * horizon_days * substeps = "
          f"{n} * {days} * {steps}")
    run = partial(simulate, params, init, horizon, substeps,
                  theta_profile=theta_profile, mode=mode,
                  beta1_shift=beta1_shift)
    if workers > 1 and n > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run, streams))
    else:
        runs = list(map(run, streams))
    mean = np.mean([r.s.values for r in runs], axis=0)
    return Series(mean, start_index=0, step=1.0), runs


def noise_dominance_map(params: ModelParams, s_grid, h_grid) -> np.ndarray:
    """Feedback-to-noise ratio gamma*|ds/dt|/kappa on an (s, h) grid.

    Entry [i, j] corresponds to (s_grid[i], h_grid[j]).  Large values mark
    regions where the deterministic feedback dwarfs the noise; the ratio
    vanishes on the sentiment nullcline, where noise dominates.  A ratio
    past the float range raises ValueError naming w_s, gamma and kappa.
    """
    if not (params.kappa > 0):
        raise ValueError("kappa must be positive for the dominance map")

    def ratio(s, h):
        ds = -params.w_s * s + params.w_s * np.tanh(
            params.beta1 * s + params.beta2 * h)
        return params.gamma * np.abs(ds) / params.kappa

    return _finite("feedback-to-noise ratio in w_s, gamma and kappa "
                   "overflows", ratio,
                   np.asarray(s_grid, dtype=float)[:, None],
                   np.asarray(h_grid, dtype=float)[None, :])
