"""Closed two-component market model with price feedback and daily noise.

Sentiment s relaxes toward tanh(beta1*s + beta2*h); the information flow h
relaxes toward a tanh of the perceived price trend.  In the simplified
mode that trend is gamma*ds/dt + delta (the sentiment drift substituted
analytically, which closes the system); the full mode keeps the separate
couplings beta3*s + beta4*h plus kappa1*(a1*ds/dt + a2*(s - s_star)) with
kappa1 = gamma/a1.  Noise is white on the daily grid only: one standard
normal xi_d per business day, held constant across that day's substeps.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (_BOUND_SLACK, MarketState, ModelParams, RandomSource,
                   Series, validate)
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

SIMPLIFIED = "simplified"
FULL = "full"

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


def _daily_path(drifts, s: float, h: float, days: int, substeps: int,
                dt: float):
    """`days` daily samples of (s, h) from the initial state, one day per
    drift closure in drifts, each day `substeps` RK4 steps of size dt.

    Raises once |s| or |h| exceeds 1 by more than the slack or is NaN.  Forward in
    time the drift points inward on the boundary, so that is a step-size
    failure; in reverse time it is an orbit escaping the physical box.
    """
    lim = 1.0 + _BOUND_SLACK
    s_out = np.empty(days)
    h_out = np.empty(days)
    s_out[0] = s
    h_out[0] = h
    for d, f in enumerate(drifts):
        for _ in range(substeps):
            s, h = _rk4_step(f, s, h, dt)
            if not (abs(s) <= lim and abs(h) <= lim):
                raise RuntimeError(
                    f"integrator failure at day {d}: state left [-1, 1] "
                    f"(s = {s}, h = {h})")
        s_out[d + 1] = s
        h_out[d + 1] = h
    return s_out, h_out


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
             substeps: int = 8, rng: RandomSource | None = None,
             theta_profile: Series | None = None, mode: str = SIMPLIFIED,
             beta1_shift: float = 0.0) -> SimulationRun:
    """Integrate the closed system for horizon_days daily samples.

    One noise draw per day, zero-order held over the day's `substeps`
    Runge-Kutta steps.  Day 0 is the initial state; p is accumulated from
    the daily sentiment path with the same trapezoidal rule as the pricing
    module.  theta_profile (length >= horizon) overrides beta1 daily as
    1/theta(day); beta2 is never rescaled.  beta1_shift is added to
    whatever beta1 is in force (a documented variant of the
    temperature-modulated runs).  The used part of theta_profile must be
    positive, and the daily beta1 finite and non-negative.
    """
    validate(params)
    if mode not in (SIMPLIFIED, FULL):
        raise ValueError(f"unknown mode {mode!r}")
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if theta_profile is not None and len(theta_profile) < horizon_days:
        raise ValueError("theta profile shorter than horizon")
    if params.kappa != 0.0 and rng is None:
        raise ValueError("noisy run (kappa != 0) requires a RandomSource")

    n = horizon_days
    if theta_profile is None:
        beta1 = np.full(n - 1, params.beta1 + beta1_shift)
    else:
        theta = theta_profile.values[:n - 1]
        if np.any(theta <= 0.0):
            bad = int(np.flatnonzero(theta <= 0.0)[0])
            raise ValueError(f"theta_profile must be positive: day {bad} "
                             f"has theta = {theta[bad]}")
        beta1 = 1.0 / theta + beta1_shift
    if not np.all(np.isfinite(beta1) & (beta1 >= 0.0)):
        raise ValueError(f"beta1_shift = {beta1_shift} leaves the daily "
                         "beta1 negative or non-finite")
    xi_seq = (rng.standard_normal(n - 1) if params.kappa != 0.0
              else np.zeros(n - 1))
    drifts = (_make_drift(params, float(b1), float(xi), mode)
              for b1, xi in zip(beta1, xi_seq))
    s_out, h_out = _daily_path(drifts, init.s, init.h, n, substeps,
                               1.0 / substeps)

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


def _run_realization(args):
    (params, init, horizon, substeps, seed, stream, theta_profile, mode,
     shift) = args
    return simulate(params, init, horizon, substeps,
                    RandomSource(seed, stream), theta_profile, mode, shift)


def ensemble(params: ModelParams, init: MarketState, horizon: int,
             n_realizations: int, rng: RandomSource,
             theta_profile: Series | None = None, mode: str = SIMPLIFIED,
             substeps: int = 8, beta1_shift: float = 0.0,
             workers: int | None = None):
    """Run n_realizations with independent substreams; realization i uses
    stream_id = rng.stream_id + i.

    Returns (mean sentiment Series, list of SimulationRun).  Worker count
    comes from the NEWSMARKET_WORKERS environment variable unless passed
    explicitly; results are identical for any worker count.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    if workers is None:
        workers = int(os.environ.get(_WORKERS_ENV, "1"))
    jobs = [(params, init, horizon, substeps, rng.seed, rng.stream_id + i,
             theta_profile, mode, beta1_shift)
            for i in range(n_realizations)]
    if workers > 1 and n_realizations > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_run_realization, jobs))
    else:
        runs = [_run_realization(j) for j in jobs]
    mean = np.mean([r.s.values for r in runs], axis=0)
    return Series(mean, start_index=0, step=1.0), runs


def noise_dominance_map(params: ModelParams, s_grid, h_grid) -> np.ndarray:
    """Feedback-to-noise ratio gamma*|ds/dt|/kappa on an (s, h) grid.

    Entry [i, j] corresponds to (s_grid[i], h_grid[j]).  Large values mark
    regions where the deterministic feedback dwarfs the noise; the ratio
    vanishes on the sentiment nullcline, where noise dominates.
    """
    if not (params.kappa > 0):
        raise ValueError("kappa must be positive for the dominance map")
    s = np.asarray(s_grid, dtype=float)[:, None]
    h = np.asarray(h_grid, dtype=float)[None, :]
    ds = -params.w_s * s + params.w_s * np.tanh(
        params.beta1 * s + params.beta2 * h)
    return params.gamma * np.abs(ds) / params.kappa
