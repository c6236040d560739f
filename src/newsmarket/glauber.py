"""Spin-flip kinetics for the two-species all-to-all model.

Because every spin couples to the totals only, the per-spin dynamics
collapses to a birth-death chain on the macrostate (S, H): flipping one
investor spin moves S by +/-2 at a rate that depends on (S, H) alone.
Simulating the macrostate instead of every spin therefore approximates
nothing, and costs O(1) per event instead of O(N).

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

b_s and b_h accept constants or callables of time.  The kinetics are
exact for constant fields only: a callable is read at the last event time
and held until the next event, an approximation of the time-varying chain
(close while the fields vary slowly against the waiting times).  Constant
fields make the rates a function of (S, H) alone, so each visited state's
rates are computed once per call, for all its realizations, and looked up
afterwards in a table keyed by the macrostate index
k = (S + N_s)*(2*N_h + 1) + (H + N_h), the one integer the event loop
carries; with callable fields they are computed at every event.

simulate_glauber consumes its RandomSource in blocks of uniforms, each
block bitwise equal to the same number of scalar rng.exponential() and
rng.uniform() draws taken alternately; the stream's state after the
call is therefore unspecified, and callers that need more draws use a
fresh stream (meanfield_compare gives each realization its own
substream).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .core import RandomSource, _count, _length, _size, _work

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
# Macrostates whose rates simulate_glauber keeps under constant fields;
# the table is emptied when full, which bounds its memory on long runs
# that wander over many states.
_RATE_CACHE = 4096


def _eval_field(field, t):
    return field(t) if callable(field) else field


def _pairs(rng):
    """_BLOCK (waiting time, event uniform) pairs: the unit exponential and
    the uniform that rng.exponential() and rng.uniform() would return if
    called alternately.  np.log1p on the array gives the same bits as the
    scalar np.log1p in rng.exponential(); math.log1p can differ in the last
    bit."""
    block = rng.uniform(2 * _BLOCK)
    return zip((-np.log1p(-block[0::2])).tolist(), block[1::2].tolist())


@dataclass(frozen=True)
class SpinSystemConfig:
    """Sizes, couplings, and rates of the two-species spin system.

    The sizes N_s and N_h are integers >= 1 (numpy integers pass).
    J11, J12, J21, J22 follow the thermodynamic-limit convention: the
    per-pair couplings are J11/N_s, J12/N_h, J21/N_s, J22/N_h.  The
    cross couplings must satisfy J21/J12 = N_s/N_h, otherwise no single
    energy function generates both flip rates.

    theta must be at least sys.float_info.min, as 1/theta can overflow
    for a subnormal theta.  theta = inf is accepted as the
    infinite-temperature limit beta = 0:
    every flip is a fair coin at rate w/2, whatever the couplings and
    fields, and the Gibbs distribution is the product of two binomials.
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
        for name in ("N_s", "N_h"):
            try:
                _count(name, getattr(self, name))
            except ValueError as exc:
                bad.append(str(exc))
        sizes_ok = not bad
        if not self.theta > 0:
            bad.append("theta must be positive")
        elif self.theta < sys.float_info.min:
            # 1/theta can overflow for a subnormal theta
            bad.append(f"theta must be at least {sys.float_info.min}, got "
                       f"{self.theta!r}")
        if not self.w_s > 0:
            bad.append("w_s must be positive")
        if not self.w_h > 0:
            bad.append("w_h must be positive")
        for name in ("J11", "J12", "J21", "J22", "mu_s", "mu_h", "w_s",
                     "w_h", "b_s", "b_h"):
            value = getattr(self, name)
            if not callable(value) and not math.isfinite(value):
                bad.append(f"{name} must be finite")
        if sizes_ok and abs(self.J21 * self.N_h - self.J12 * self.N_s) > (
                1e-9 * max(1.0, abs(self.J12 * self.N_s))):
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


def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, from math.lgamma."""
    lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    return lg[n] - lg - lg[::-1]


def equilibrium_distribution(config: SpinSystemConfig, t: float = 0.0):
    """Exact Gibbs distribution over all macrostates.

    Returns (S_values, H_values, P) with P[i, j] the probability of
    (S_values[i], H_values[j]); P sums to 1.  Time-dependent fields are
    evaluated at t (the instantaneous equilibrium).  The log-weights take
    their multiplicities from math.lgamma; shifted by their maximum, they
    are exponentiated and divided by their sum.  P agrees with the
    weights of scipy's gammaln and logsumexp to a few roundings of the
    log-factorials (relative gaps of 3e-15 at N_s = 8, 4e-13 at N_s =
    200), not bit for bit.
    """
    ns, nh = config.N_s, config.N_h
    S = np.arange(-ns, ns + 1, 2, dtype=float)
    H = np.arange(-nh, nh + 1, 2, dtype=float)
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
    ln_p = (_log_binomials(ns)[:, None] + _log_binomials(nh)[None, :]
            - energy / config.theta)
    p = np.exp(ln_p - ln_p.max())
    return S.astype(int), H.astype(int), p / p.sum()


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


def simulate_glauber(config: SpinSystemConfig, horizon: float,
                     rng: RandomSource,
                     init: SpinMacroState | None = None,
                     sample_step: float | None = None) -> GlauberTrajectory:
    """Continuous-time single-flip evolution up to a finite horizon > 0.

    Waiting times are exponential in the total rate; the event is chosen
    proportionally to the four directional rates.  init defaults to the
    all-up state (S = N_s, H = N_h).  With sample_step the trajectory is
    recorded on the uniform grid i*sample_step (state held between
    events); otherwise every event is recorded.

    rng is consumed in blocks of uniform draws, so its state after the
    call is unspecified: pass a stream that nothing else draws from.
    The bound on the expected events, (w_s*N_s + w_h*N_h)*horizon, may
    not exceed core._MAX_WORK = 10**9 (summed over the realizations of
    meanfield_compare).

    With constant b_s and b_h the rates of each visited (S, H) are
    computed on its first visit and looked up on later ones, in a table
    keyed by the macrostate index k = (S + N_s)*(2*N_h + 1) + (H + N_h)
    (it holds at most _RATE_CACHE states and is emptied when full); the
    stored values are the floats the first visit computed, so the
    trajectory is the same bit for bit.  Callable fields skip the table;
    they are read at the last event time and held until the next event,
    which approximates the time-varying chain (exact for constants only).
    """
    return next(_runs(config, horizon, [rng], init, sample_step))


def _runs(config, horizon, rngs, init, sample_step):
    """simulate_glauber's trajectory on each stream in rngs, with the checks,
    the rates, the sampling grid and the constant-field rate table (whose
    floats depend on (S, H) alone) set up once for all of them."""
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if sample_step is not None and not 0 < sample_step < math.inf:
        raise ValueError("sample_step must be positive and finite")
    if init is None:
        init = SpinMacroState(S=config.N_s, H=config.N_h)
    _check_state(init, config)
    # the total flip rate is at most w_s*N_s + w_h*N_h
    flips = config.w_s * config.N_s + config.w_h * config.N_h
    _work(flips * horizon * len(rngs),
          f"(w_s*N_s + w_h*N_h) * horizon * realizations = {flips:.6g} * "
          f"{horizon:.6g} * {len(rngs)}")

    rates = _make_rates(config)
    if sample_step is not None:
        ratio = horizon / sample_step
        n_samples = _length(ratio, f"sample_step {sample_step!r} is too "
                            "small: a grid of horizon / sample_step = "
                            f"{ratio!r} points does not fit in an "
                            "array") + 1
        grid = sample_step * np.arange(n_samples)
        # nan <= t is never true, so the hold stops after the last point
        grid_t = grid.tolist() + [math.nan]

    # The macrostate travels as one index k = (S + N_s)*stride + (H + N_h)
    # with stride = 2*N_h + 1: an S flip moves k by 2*stride, an H flip by
    # 2, and the rate table is keyed by k.  k is a Python int, as numpy
    # integers would wrap once it passes 2**63; past that, the trajectory
    # decodes it from an object array.
    ns, nh = int(config.N_s), int(config.N_h)
    stride = 2 * nh + 1
    s_step = 2 * stride
    k0 = (int(init.S) + ns) * stride + (int(init.H) + nh)
    k_max = 2 * ns * stride + 2 * nh
    index_type = np.int64 if k_max <= np.iinfo(np.int64).max else object

    def partial_sums(k, t):
        S = k // stride - ns
        H = k % stride - nh
        r1, r2, r3, r4 = rates(S, H, _eval_field(config.b_s, t),
                               _eval_field(config.b_h, t))
        r12 = r1 + r2
        r123 = r12 + r3
        total = r123 + r4
        if not 0.0 < total < math.inf:
            raise ValueError(f"total flip rate {total} at t = {t} in state "
                             f"(S, H) = ({S}, {H}) is not positive and "
                             "finite: check w_s, w_h, theta, the couplings "
                             "J11, J12, J21, J22, mu_s, mu_h and the fields "
                             "b_s, b_h")
        return r1, r12, r123, total

    cache = None if callable(config.b_s) or callable(config.b_h) else {}
    for rng in rngs:
        k, t, n_events = k0, 0.0, 0
        ts, ks = [0.0], [k]
        next_t = math.nan if sample_step is None else grid_t[1]
        for wait, pick in chain.from_iterable(map(_pairs, repeat(rng))):
            if cache is None:
                r1, r12, r123, total = partial_sums(k, t)
            else:
                try:
                    r1, r12, r123, total = cache[k]
                except KeyError:
                    if len(cache) >= _RATE_CACHE:
                        cache.clear()
                    r1, r12, r123, total = cache[k] = partial_sums(k, t)
            t_new = t + wait / total
            while next_t <= t_new:
                ks.append(k)
                next_t = grid_t[len(ks)]
            if t_new > horizon:
                break
            u = pick * total
            if u < r1:
                k += s_step
            elif u < r12:
                k -= s_step
            elif u < r123:
                k += 2
            else:
                k -= 2
            t = t_new
            n_events += 1
            if sample_step is None:
                ts.append(t)
                ks.append(k)

        if sample_step is None:
            times = np.asarray(ts)
        else:
            times = grid.copy()  # no run shares its times with another
            # i*sample_step can round just above the horizon, and past the
            # last waiting time; that point holds the final state
            ks.extend([k] * (n_samples - len(ks)))
        idx = np.array(ks, dtype=index_type)
        yield GlauberTrajectory(
            times=times,
            s=(idx // stride - ns).astype(float) / ns,
            h=(idx % stride - nh).astype(float) / nh,
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
    return np.array([ds, dh])


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

    Realization i (of n_realizations >= 1) runs on rng.substream(i), and
    all are sampled on the grid k*sample_step (None is rejected).  The
    deterministic limit drops the (S +/- 1) self-term, so its argument is
    beta*(J11*s + J12*h + mu_s*b_s) and the H analogue; deviations at
    matched times scale as N^(-1/2).  N_s, N_h >= 100 recommended for
    the comparison to be meaningful.  The rate equations are integrated
    by _rk45 (Dormand-Prince, rtol 1e-10, atol 1e-12) up to the horizon,
    or to the last grid time where k*sample_step rounds past it.
    """
    if sample_step is None:
        raise ValueError("meanfield_compare needs a sample_step: runs "
                         "sampled per event cannot be averaged")
    n_realizations = _size("n_realizations", n_realizations)
    runs = list(_runs(config, horizon,
                      [rng.substream(i) for i in range(n_realizations)],
                      init, sample_step))
    times = runs[0].times
    mean_s = np.mean([r.s for r in runs], axis=0)
    mean_h = np.mean([r.h for r in runs], axis=0)

    ode = _rk45(lambda t, y: _meanfield_rhs(t, y, config),
                (0.0, max(float(horizon), float(times[-1]))),
                [runs[0].s[0], runs[0].h[0]], times)
    dev_s = mean_s - ode[0]
    dev_h = mean_h - ode[1]
    return MeanFieldReport(
        times=times, mean_s=mean_s, mean_h=mean_h,
        ode_s=ode[0], ode_h=ode[1],
        max_deviation_s=float(np.max(np.abs(dev_s))),
        max_deviation_h=float(np.max(np.abs(dev_h))),
        rms_deviation_s=float(np.sqrt(np.mean(dev_s ** 2))),
        rms_deviation_h=float(np.sqrt(np.mean(dev_h ** 2))),
    )


# The Dormand-Prince 5(4) pair with Shampine's quartic dense output, as
# scipy.integrate's RK45 tabulates it (Dormand & Prince 1980, J. Comput.
# Appl. Math. 6:19; Shampine 1986, Math. Comp. 46:135).
_RK45_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200,
                    -22/525, 1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# Step-size control: the tolerances, safety factor, least and greatest
# step change, and the error exponent -1/(error estimator order + 1).
_RK45_RTOL = 1e-10
_RK45_ATOL = 1e-12
_RK45_SAFETY = 0.9
_RK45_MIN_FACTOR = 0.2
_RK45_MAX_FACTOR = 10
_RK45_EXPONENT = -1 / 5
# The most right-hand-side calls one _rk45 solve may make.
_RK45_MAX_CALLS = 10**6


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(fun, t_span, y0, t_eval):
    """y of y' = fun(t, y) from y(t0) = y0 over t_span = (t0, t1), t0 < t1,
    with y[:, k] the solution at the sorted t_eval[k] in [t0, t1]; fun
    returns y' as a float array.

    A port of the path scipy.integrate.solve_ivp takes with method
    "RK45", a t_eval and no events: select_initial_step, rk_step, the
    error norm and step-size control of RungeKutta._step_impl, and
    RkDenseOutput at each step's share of t_eval.  The numpy calls and
    their order are scipy's, so y equals solve_ivp's bit for bit at
    rtol = _RK45_RTOL and atol = _RK45_ATOL.
    Raises RuntimeError when the step size falls below ten spacings of
    the floats at t, or when a step would take fun past _RK45_MAX_CALLS
    = 10**6 calls (a stalled solve, which solve_ivp would continue).
    """
    t, t_bound = map(float, t_span)
    t_eval = np.asarray(t_eval)
    y = np.asarray(y0).astype(float, copy=False)

    # select_initial_step, for direction +1 and no max_step
    f = fun(t, y)
    interval_length = abs(t_bound - t)
    scale = _RK45_ATOL + np.abs(y) * _RK45_RTOL
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t + h0, y + h0 * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval_length)
    calls = 2

    K = np.empty((_RK45_A.shape[0] + 1, y.size))
    ys = []
    i_eval = 0
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("rate-equation integration failed: "
                                   "Required step size is less than "
                                   "spacing between numbers.")
            calls += 6
            if calls > _RK45_MAX_CALLS:
                raise RuntimeError(
                    "rate-equation integration used up its "
                    f"{_RK45_MAX_CALLS:.0e} right-hand-side calls at t = "
                    f"{t} of {t_bound}: check w_s, w_h, theta, the "
                    "couplings J11, J12, J21, J22, mu_s, mu_h and the "
                    "fields b_s, b_h")
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            # rk_step
            K[0] = f
            for s, (a, c) in enumerate(zip(_RK45_A[1:], _RK45_C[1:]),
                                       start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _RK45_B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = (_RK45_ATOL
                     + np.maximum(np.abs(y), np.abs(y_new)) * _RK45_RTOL)
            error_norm = _rms(np.dot(K.T, _RK45_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _RK45_MAX_FACTOR
                else:
                    factor = min(_RK45_MAX_FACTOR, _RK45_SAFETY
                                 * error_norm ** _RK45_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_RK45_MIN_FACTOR,
                         _RK45_SAFETY * error_norm ** _RK45_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        # RkDenseOutput at the t_eval points up to t
        i_new = np.searchsorted(t_eval, t, side="right")
        t_step = t_eval[i_eval:i_new]
        if t_step.size > 0:
            Q = K.T.dot(_RK45_P)
            h = t - t_old
            p = np.cumprod(np.tile((t_step - t_old) / h, (Q.shape[1], 1)),
                           axis=0)
            y_step = h * np.dot(Q, p)
            y_step += y_old[:, None]
            ys.append(y_step)
            i_eval = i_new
        if t - t_bound >= 0:
            return np.hstack(ys)
