"""Exact spin-flip kinetics for the two-species all-to-all model.

Because every spin couples to the totals only, the per-spin dynamics
collapses to a birth-death chain on the macrostate (S, H): flipping one
investor spin moves S by +/-2 at a rate that depends on (S, H) alone.
Simulating the macrostate is therefore exact, not an approximation, and
costs O(1) per event instead of O(N).

The directional rates

    W(S -> S+2) = w_s * (N_s - S)/2 * 1/(1 + exp(-2*beta*(J_s*(S+1) + J_sh*H + mu_s*b_s)))
    W(S -> S-2) = w_s * (N_s + S)/2 * 1/(1 + exp(+2*beta*(J_s*(S-1) + J_sh*H + mu_s*b_s)))

(and the H analogues, with J_s = J11/N_s, J_sh = J12/N_h = J21/N_s,
J_h = J22/N_h, beta = 1/theta) satisfy detailed balance against the
Gibbs distribution

    P0(S, H) prop. C(N_s, (N_s+S)/2) * C(N_h, (N_h+H)/2) * exp(-E/theta)
    E = -J_s*S^2/2 - J_sh*S*H - mu_s*b_s*S - J_h*H^2/2 - mu_h*b_h*H

exactly, including the (S +/- 1) self-interaction term in the exponent:
the multiplicity ratio (N-S)/(N+S+2) and the logistic ratio e^{2*beta*g}
reproduce the Gibbs ratio identically.  The constraint J21/J12 = N_s/N_h
is what makes the cross term a single, consistent energy.

b_s and b_h accept either constants or callables of time; rates use the
field value at the current event time (the fields vary slowly compared
with the waiting times in every intended use).

simulate_glauber consumes its RandomSource in blocks of uniforms, each
block bitwise equal to the same number of scalar rng.exponential() and
rng.uniform() draws taken alternately; the stream's state after the
call is therefore unspecified, and callers that need more draws use a
fresh stream (meanfield_compare gives each realization its own
substream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln, logsumexp

from .core import RandomSource

__all__ = [
    "SpinSystemConfig",
    "SpinMacroState",
    "GlauberTrajectory",
    "MeanFieldReport",
    "transition_rates",
    "equilibrium_distribution",
    "simulate_glauber",
    "meanfield_compare",
]


# Events per block of uniforms drawn in simulate_glauber: enough to spread
# the cost of one numpy call thinly, few enough that a short run wastes
# little.
_BLOCK = 1024


def _eval_field(field, t):
    return field(t) if callable(field) else field


@dataclass(frozen=True)
class SpinSystemConfig:
    """Sizes, couplings, and rates of the two-species spin system.

    J11, J12, J21, J22 follow the thermodynamic-limit convention: the
    per-pair couplings are J11/N_s, J12/N_h, J21/N_s, J22/N_h.  The
    cross couplings must satisfy J21/J12 = N_s/N_h, otherwise no single
    energy function generates both flip rates.
    """

    N_s: int
    N_h: int
    J11: float = 0.0
    J12: float = 0.0
    J21: float = 0.0
    J22: float = 0.0
    mu_s: float = 0.0
    mu_h: float = 0.0
    theta: float = 1.0
    w_s: float = 1.0
    w_h: float = 1.0
    b_s: object = 0.0
    b_h: object = 0.0

    def __post_init__(self):
        bad = []
        if self.N_s < 1:
            bad.append("N_s must be >= 1")
        if self.N_h < 1:
            bad.append("N_h must be >= 1")
        if not self.theta > 0:
            bad.append("theta must be positive")
        if not self.w_s > 0:
            bad.append("w_s must be positive")
        if not self.w_h > 0:
            bad.append("w_h must be positive")
        for name in ("J11", "J12", "J21", "J22", "mu_s", "mu_h", "w_s",
                     "w_h", "b_s", "b_h"):
            value = getattr(self, name)
            if not callable(value) and not math.isfinite(value):
                bad.append(f"{name} must be finite")
        if abs(self.J21 * self.N_h - self.J12 * self.N_s) > 1e-9 * max(
                1.0, abs(self.J12 * self.N_s)):
            bad.append("J21/J12 must equal N_s/N_h")
        if bad:
            raise ValueError("invalid spin config: " + "; ".join(bad))


@dataclass(frozen=True)
class SpinMacroState:
    """Total spins (S, H).  Bounds and parity are checked against a
    config by the operations, since the state alone does not know N."""

    S: int
    H: int


def _check_state(state: SpinMacroState, config: SpinSystemConfig) -> None:
    bad = []
    if abs(state.S) > config.N_s:
        bad.append(f"|S| = {abs(state.S)} exceeds N_s = {config.N_s}")
    if abs(state.H) > config.N_h:
        bad.append(f"|H| = {abs(state.H)} exceeds N_h = {config.N_h}")
    if (state.S - config.N_s) % 2 != 0:
        bad.append("S parity does not match N_s")
    if (state.H - config.N_h) % 2 != 0:
        bad.append("H parity does not match N_h")
    if bad:
        raise ValueError("invalid macrostate: " + "; ".join(bad))


def _logistic(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _make_rates(config: SpinSystemConfig):
    """rates(S, H, b_s, b_h) -> the four directional rates (S+2, S-2,
    H+2, H-2), with beta, the couplings and the rate constants hoisted.

    Each product below groups exactly as in the rate formula written
    left to right, so the rates are the same floats however they are
    called.
    """
    ns, nh = config.N_s, config.N_h
    beta = 1.0 / config.theta
    two_beta = 2.0 * beta
    js = config.J11 / ns
    jsh = config.J12 / nh
    jh = config.J22 / nh
    jhs = config.J21 / ns
    mu_s, mu_h = config.mu_s, config.mu_h
    half_ws = config.w_s * 0.5
    half_wh = config.w_h * 0.5

    def rates(S, H, bs, bh):
        gs_up = js * (S + 1) + jsh * H + mu_s * bs
        gs_dn = js * (S - 1) + jsh * H + mu_s * bs
        gh_up = jh * (H + 1) + jhs * S + mu_h * bh
        gh_dn = jh * (H - 1) + jhs * S + mu_h * bh
        return (
            half_ws * (ns - S) * _logistic(two_beta * gs_up),
            half_ws * (ns + S) * _logistic(-two_beta * gs_dn),
            half_wh * (nh - H) * _logistic(two_beta * gh_up),
            half_wh * (nh + H) * _logistic(-two_beta * gh_dn),
        )

    return rates


def transition_rates(state: SpinMacroState, config: SpinSystemConfig,
                     t: float = 0.0):
    """Rates for S -> S+2, S -> S-2, H -> H+2, H -> H-2 at time t."""
    _check_state(state, config)
    return _make_rates(config)(state.S, state.H, _eval_field(config.b_s, t),
                               _eval_field(config.b_h, t))


def equilibrium_distribution(config: SpinSystemConfig, t: float = 0.0):
    """Exact Gibbs distribution over all macrostates.

    Returns (S_values, H_values, P) with P[i, j] the probability of
    (S_values[i], H_values[j]); P sums to 1.  Time-dependent fields are
    evaluated at t (the instantaneous equilibrium).
    """
    ns, nh = config.N_s, config.N_h
    S = np.arange(-ns, ns + 1, 2, dtype=float)
    H = np.arange(-nh, nh + 1, 2, dtype=float)
    ln_gs = (gammaln(ns + 1) - gammaln((ns + S) / 2 + 1)
             - gammaln((ns - S) / 2 + 1))
    ln_gh = (gammaln(nh + 1) - gammaln((nh + H) / 2 + 1)
             - gammaln((nh - H) / 2 + 1))
    js = config.J11 / ns
    jsh = config.J12 / nh
    jh = config.J22 / nh
    bs = _eval_field(config.b_s, t)
    bh = _eval_field(config.b_h, t)
    energy = (-0.5 * js * S[:, None] ** 2
              - jsh * S[:, None] * H[None, :]
              - config.mu_s * bs * S[:, None]
              - 0.5 * jh * H[None, :] ** 2
              - config.mu_h * bh * H[None, :])
    ln_p = ln_gs[:, None] + ln_gh[None, :] - energy / config.theta
    ln_p -= logsumexp(ln_p)
    return S.astype(int), H.astype(int), np.exp(ln_p)


@dataclass(frozen=True)
class GlauberTrajectory:
    """One realization: times, s = S/N_s, h = H/N_h, and the number of
    flips applied.  With grid sampling the arrays hold the zero-order
    held state at uniform times; otherwise one row per event."""

    times: np.ndarray
    s: np.ndarray
    h: np.ndarray
    n_events: int
    config: SpinSystemConfig


def _block_draws(rng: RandomSource):
    """Endless (waiting time, event uniform) pairs: the unit exponential
    and the uniform that rng.exponential() and rng.uniform() would return
    if called alternately, drawn _BLOCK pairs at a time.

    np.log1p on the array gives the same bits as the scalar np.log1p in
    rng.exponential(); math.log1p can differ in the last bit.
    """
    while True:
        block = rng.uniform(2 * _BLOCK)
        yield from zip((-np.log1p(-block[0::2])).tolist(),
                       block[1::2].tolist())


def simulate_glauber(config: SpinSystemConfig, horizon: float,
                     rng: RandomSource,
                     init: SpinMacroState | None = None,
                     sample_step: float | None = None) -> GlauberTrajectory:
    """Continuous-time single-flip evolution up to the horizon.

    Waiting times are exponential in the total rate; the event is chosen
    proportionally to the four directional rates.  init defaults to the
    all-up state (S = N_s, H = N_h).  With sample_step the trajectory is
    recorded on the uniform grid k*sample_step (state held between
    events); otherwise every event is recorded.

    rng is consumed in blocks of uniform draws, so its state after the
    call is unspecified: pass a stream that nothing else draws from.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if sample_step is not None and not sample_step > 0:
        raise ValueError("sample_step must be positive")
    if init is None:
        init = SpinMacroState(S=config.N_s, H=config.N_h)
    _check_state(init, config)

    rates = _make_rates(config)
    # constant fields are read once; callables are called at each event
    b_s, b_h = bs, bh = config.b_s, config.b_h
    bs_varies, bh_varies = callable(b_s), callable(b_h)
    S, H = init.S, init.H
    t = 0.0
    n_events = 0
    ts, ss, hs = [0.0], [S], [H]
    if sample_step is not None:
        n_samples = int(math.floor(horizon / sample_step)) + 1
        grid = sample_step * np.arange(n_samples)
        # inf follows the last grid point; the length check in the hold
        # loop stops it for an infinite waiting time too
        grid_t = grid.tolist() + [math.inf]
        next_t = grid_t[1]

    for wait, pick in _block_draws(rng):
        if bs_varies:
            bs = b_s(t)
        if bh_varies:
            bh = b_h(t)
        r1, r2, r3, r4 = rates(S, H, bs, bh)
        r12 = r1 + r2
        r123 = r12 + r3
        total = r123 + r4
        if not 0.0 < total < math.inf:
            raise ValueError(f"total flip rate {total} at t = {t} is not "
                             "positive and finite (check the fields b_s, "
                             "b_h)")
        t_new = t + wait / total
        if sample_step is not None:
            while next_t <= t_new and len(ss) < n_samples:
                ss.append(S)
                hs.append(H)
                next_t = grid_t[len(ss)]
        if t_new > horizon:
            break
        u = pick * total
        if u < r1:
            S += 2
        elif u < r12:
            S -= 2
        elif u < r123:
            H += 2
        else:
            H -= 2
        t = t_new
        n_events += 1
        if sample_step is None:
            ts.append(t)
            ss.append(S)
            hs.append(H)

    if sample_step is None:
        times = np.asarray(ts)
    else:
        times = grid
        # k*sample_step can round just above the horizon, and past the
        # last waiting time; that point holds the final state
        ss.extend([S] * (n_samples - len(ss)))
        hs.extend([H] * (n_samples - len(hs)))
    s_arr = np.asarray(ss, dtype=float) / config.N_s
    h_arr = np.asarray(hs, dtype=float) / config.N_h
    return GlauberTrajectory(times=times, s=s_arr, h=h_arr,
                             n_events=n_events, config=config)


def _meanfield_rhs(t, y, config):
    s, h = y
    beta = 1.0 / config.theta
    bs = _eval_field(config.b_s, t)
    bh = _eval_field(config.b_h, t)
    ds = -config.w_s * s + config.w_s * math.tanh(
        beta * (config.J11 * s + config.J12 * h + config.mu_s * bs))
    dh = -config.w_h * h + config.w_h * math.tanh(
        beta * (config.J21 * s + config.J22 * h + config.mu_h * bh))
    return [ds, dh]


@dataclass(frozen=True)
class MeanFieldReport:
    """Ensemble-averaged kinetics against the deterministic limit."""

    times: np.ndarray
    mean_s: np.ndarray
    mean_h: np.ndarray
    ode_s: np.ndarray
    ode_h: np.ndarray
    max_deviation_s: float
    max_deviation_h: float
    rms_deviation_s: float
    rms_deviation_h: float

    @property
    def max_deviation(self) -> float:
        return max(self.max_deviation_s, self.max_deviation_h)

    @property
    def rms_deviation(self) -> float:
        return math.hypot(self.rms_deviation_s, self.rms_deviation_h)


def meanfield_compare(config: SpinSystemConfig, horizon: float,
                      n_realizations: int, rng: RandomSource,
                      init: SpinMacroState | None = None,
                      sample_step: float = 1.0) -> MeanFieldReport:
    """Ensemble mean of the kinetics vs the deterministic rate equations.

    Realization i runs on rng.substream(i).  The deterministic limit
    drops the (S +/- 1) self-term, so its argument is
    beta*(J11*s + J12*h + mu_s*b_s) and the H analogue; deviations at
    matched times scale as N^(-1/2).  N_s, N_h >= 100 recommended for
    the comparison to be meaningful.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    runs = [simulate_glauber(config, horizon, rng.substream(i), init,
                             sample_step)
            for i in range(n_realizations)]
    times = runs[0].times
    mean_s = np.mean([r.s for r in runs], axis=0)
    mean_h = np.mean([r.h for r in runs], axis=0)

    if init is None:
        y0 = [1.0, 1.0]
    else:
        y0 = [init.S / config.N_s, init.H / config.N_h]
    sol = solve_ivp(_meanfield_rhs, (0.0, float(horizon)), y0,
                    t_eval=times, args=(config,), rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"rate-equation integration failed: {sol.message}")
    dev_s = mean_s - sol.y[0]
    dev_h = mean_h - sol.y[1]
    return MeanFieldReport(
        times=times, mean_s=mean_s, mean_h=mean_h,
        ode_s=sol.y[0], ode_h=sol.y[1],
        max_deviation_s=float(np.max(np.abs(dev_s))),
        max_deviation_h=float(np.max(np.abs(dev_h))),
        rms_deviation_s=float(np.sqrt(np.mean(dev_s ** 2))),
        rms_deviation_h=float(np.sqrt(np.mean(dev_h ** 2))),
    )
