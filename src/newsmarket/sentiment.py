"""One-component sentiment dynamics driven by a daily information series.

The sentiment s relaxes at rate w_s toward tanh(beta1*s + beta2*H) where
H is the measured direct-information flow.  The same right-hand side is
the negative gradient of a potential that is single-welled for beta1 < 1
and double-welled for beta1 > 1; a nonzero information mean tilts the
well.  All of the module is pure computation on scalars and Series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_BOUND_SLACK, ModelParams, Series, _brentq, _count,
                   _size, _work, validate)

__all__ = [
    "STABLE",
    "UNSTABLE",
    "PotentialCurve",
    "sentiment_rhs",
    "integrate_sentiment",
    "potential_u0",
    "potential_uc",
    "equilibria_1d",
]

STABLE = "stable"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class PotentialCurve:
    """Sampled potential with its interior extrema.

    extrema is a list of (s, kind) with kind "min" or "max"; minima and
    maxima alternate along s.
    """

    s_grid: np.ndarray
    u_values: np.ndarray
    extrema: list


def sentiment_rhs(s: float, H: float, params: ModelParams) -> float:
    """Drift of sentiment at (s, H): -w_s*s + w_s*tanh(beta1*s + beta2*H)."""
    return -params.w_s * s + params.w_s * math.tanh(
        params.beta1 * s + params.beta2 * H)


def integrate_sentiment(H: Series, s0: float, params: ModelParams,
                        substeps: int = 8) -> Series:
    """Integrate sentiment over the daily grid of H.

    Classical 4-stage Runge-Kutta with `substeps` (an integer >= 1, at
    most core._MAX_WORK = 10**9 over the len(H) days) steps per day; H is
    held constant within each day (zero-order hold).  params must pass
    validate and s0 lie in [-1, 1].  The drift points inward at s = +-1
    for any finite H, so the integrator asserts |s| <= 1 + 1e-9 and raises
    rather than clipping: a bound violation (or a NaN state) means an
    integrator failure, not a modeling outcome.
    """
    validate(params)
    if H.step != 1.0:
        raise ValueError("H must be sampled daily (step = 1)")
    substeps = _count("substeps", substeps)
    _work(len(H) * substeps, f"len(H) * substeps = {len(H)} * {substeps}")
    if not abs(s0) <= 1:
        raise ValueError("s0 must lie in [-1, 1]")
    w_s = params.w_s
    b1 = params.beta1
    b2 = params.beta2
    hvals = H.values
    out = np.empty(len(hvals))
    out[0] = s = float(s0)
    dt = 1.0 / substeps
    half = 0.5 * dt
    steps = range(substeps)
    lim = 1.0 + _BOUND_SLACK
    tanh = math.tanh
    # Inlined rather than routed through market._rk4_step: the 1-D system
    # runs twice as fast this way, and iterative_theta_fit integrates it
    # once per theta candidate.
    for d, hv in enumerate(hvals[:-1].tolist()):
        drive = b2 * hv
        for _ in steps:
            k1 = w_s * (tanh(b1 * s + drive) - s)
            y = s + half * k1
            k2 = w_s * (tanh(b1 * y + drive) - y)
            y = s + half * k2
            k3 = w_s * (tanh(b1 * y + drive) - y)
            y = s + dt * k3
            k4 = w_s * (tanh(b1 * y + drive) - y)
            s = s + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            if not abs(s) <= lim:
                raise RuntimeError(
                    f"integrator failure: |s| = {abs(s)} beyond 1 at day {d}")
        out[d + 1] = s
    return Series(out, start_index=H.start_index, step=1.0)


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def potential_u0(params: ModelParams, grid_size: int = 1001) -> PotentialCurve:
    """Symmetric sentiment potential w_s*(s^2/2 - ln cosh(beta1*s)/beta1)."""
    return potential_uc(params, 0.0, grid_size)


def potential_uc(params: ModelParams, c: float,
                 grid_size: int = 1001) -> PotentialCurve:
    """Tilted sentiment potential w_s*(s^2/2 - ln cosh(beta1*s + c)/beta1).

    A positive tilt c deepens the positive well; above a critical tilt the
    negative minimum disappears.  The curve is sampled at grid_size (an
    integer >= 3) points of [-1, 1]; extrema are located exactly (roots of
    s = tanh(beta1*s + c)), not from the sampled grid.
    """
    grid_size = _size("grid_size", grid_size, least=3)
    b1 = params.beta1
    grid = np.linspace(-1.0, 1.0, grid_size)
    if b1 > 0:
        u = params.w_s * (0.5 * grid**2
                          - np.array([_log_cosh(b1 * s + c) for s in grid]) / b1)
    else:
        # beta1 -> 0 limit: ln cosh(beta1*s + c)/beta1 -> s*tanh(c) + const.
        u = params.w_s * (0.5 * grid**2 - grid * math.tanh(c))
    extrema = [(s, "min" if kind == STABLE else "max")
               for s, kind in equilibria_1d(b1, c)]
    return PotentialCurve(s_grid=grid, u_values=u, extrema=extrema)


def _self_consistency_gap(s: float, beta1: float, c: float) -> float:
    return math.tanh(beta1 * s + c) - s


def equilibria_1d(beta1: float, c: float) -> list:
    """All roots of s = tanh(beta1*s + c) in [-1, 1] with their stability.

    The gap g(s) = tanh(beta1*s + c) - s is monotone between its turning
    points s_pm = (+-acosh(sqrt(beta1)) - c)/beta1, which exist for
    beta1 > 1.  [-1, s_-, s_+, 1] therefore cuts [-1, 1] into at most three
    brackets with at most one root each; core._brentq solves every bracket
    whose ends differ in sign to 1e-12, and a root on a bracket end is
    taken as is, once.  A root is stable where g falls across its bracket,
    and on a bracket end (s = +-1, or a fold whose gap rounds to 0), and
    unstable where g rises.  Returns (s, "stable"|"unstable") sorted by s.
    """
    for name, value in (("beta1", beta1), ("c", c)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if beta1 < 0:
        raise ValueError("beta1 must be non-negative")
    inner = set()
    if beta1 > 1.0:
        a = math.acosh(math.sqrt(beta1))
        inner = {x for x in ((-a - c) / beta1, (a - c) / beta1)
                 if -1.0 < x < 1.0}
    ends = [-1.0, *sorted(inner), 1.0]
    vals = [_self_consistency_gap(x, beta1, c) for x in ends]
    roots = [(x, STABLE) for x, v in zip(ends, vals) if v == 0.0]
    for lo, hi, f_lo, f_hi in zip(ends, ends[1:], vals, vals[1:]):
        if f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo:
            roots.append((_brentq(_self_consistency_gap, lo, hi,
                                  args=(beta1, c)),
                          UNSTABLE if f_lo < 0.0 else STABLE))
    # by s alone: roots that round to one float keep their bracket order
    return sorted(roots, key=lambda root: root[0])
