"""Log-price construction and calibration.

Price follows sentiment through a fast channel (a1*s, the immediate
repricing of positions) and a slow channel (the running integral of
a2*(s - s_star), capital flowing while sentiment sits away from the level
investors consider normal).  Calibration inverts this map by ordinary
least squares; the windowed temperature fit re-estimates beta1 per window
through the noise-averaged reference relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Series, _count
from .reference import solve_sbar
from .sentiment import STABLE, equilibria_1d, integrate_sentiment

__all__ = [
    "PriceFit",
    "price_from_sentiment",
    "decompose_price",
    "calibrate_price",
    "initial_sentiment",
    "iterative_theta_fit",
]

THETA_GRID_LO = 1.0
THETA_GRID_HI = 1.3
THETA_GRID_STEP = 0.005
MIN_WINDOW = 60


@dataclass(frozen=True)
class PriceFit:
    """Calibrated price coefficients with residual diagnostics."""

    a1: float
    a2: float
    a4: float
    s_star: float
    residual_rms: float
    correlation: float


def _cumtrapz0(y: np.ndarray, step: float) -> np.ndarray:
    """Running trapezoidal integral with I[0] = 0."""
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * step * (y[1:] + y[:-1]), out=out[1:])
    return out


def decompose_price(s: Series, params: ModelParams):
    """Split price into its fast and slow components.

    fast = a1*s; slow = trapezoidal integral of a2*(s - s_star) plus a4.
    The two sum exactly (bitwise) to the price_from_sentiment output.
    """
    fast = params.a1 * s.values
    slow = _cumtrapz0(params.a2 * (s.values - params.s_star), s.step) + params.a4
    return (Series(fast, s.start_index, s.step),
            Series(slow, s.start_index, s.step))


def price_from_sentiment(s: Series, params: ModelParams) -> Series:
    """Log price from a sentiment series; p(0) = a1*s(0) + a4."""
    fast, slow = decompose_price(s, params)
    return Series(fast.values + slow.values, s.start_index, s.step)


def _least_squares(columns, target):
    """Ordinary least squares of target on the regressor columns plus an
    intercept.  Returns (coef, fitted), the intercept last in coef.
    Raises "degenerate sentiment series" when the design is
    rank-deficient.
    """
    design = np.column_stack([*columns, np.ones(len(target))])
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("degenerate sentiment series")
    return coef, design @ coef


def calibrate_price(s: Series, p_obs: Series) -> PriceFit:
    """Least-squares fit of (a1, a2, a4, s_star) to an observed log price.

    Regressors are {s, running integral of s, t} plus an intercept; the
    time coefficient is -a2*s_star, which recovers s_star.  Raises
    "degenerate sentiment series" when the design is rank-deficient
    (constant s, for instance).
    """
    if len(s) != len(p_obs):
        raise ValueError("sentiment and price series must have equal length")
    n = len(s)
    if n < 30:
        raise ValueError("need at least 30 samples to calibrate")
    t = s.step * np.arange(n)
    integ = _cumtrapz0(s.values, s.step)
    coef, fitted = _least_squares([s.values, integ, t], p_obs.values)
    a1, a2, ct, a4 = (float(v) for v in coef)
    s_star = -ct / a2
    resid = fitted - p_obs.values
    rms = float(np.sqrt(np.mean(resid**2)))
    corr = float(np.corrcoef(fitted, p_obs.values)[0, 1])
    return PriceFit(a1=a1, a2=a2, a4=a4, s_star=s_star,
                    residual_rms=rms, correlation=corr)


def initial_sentiment(beta1: float, beta2: float, h0: float) -> float:
    """Most positive stable equilibrium of sentiment under drive h0.

    The standard starting point for integrations: the optimistic branch
    when it exists, the single root otherwise.
    """
    return max(r for r, kind in equilibria_1d(beta1, beta2 * h0)
               if kind == STABLE)


def iterative_theta_fit(H: Series, p_obs: Series, params: ModelParams,
                        window: int = 250, sigma: float = 0.3,
                        substeps: int = 8):
    """Windowed temperature fit: piecewise-constant beta1(t) = 1/theta(t).

    For each consecutive window, every candidate beta1 on the grid
    [1.0, 1.3] (step 0.005) gets: a reference level from solve_sbar, a
    sentiment path re-integrated from H with that beta1, and a restricted
    price refit of (a1, a2, a4).  The candidate with the smallest window
    residual wins; theta = 1/beta1.  Windows are non-overlapping and
    `window` days long (an integer >= MIN_WINDOW = 60); a trailing
    remainder is fitted as a shorter final window when it spans at least
    60 days, else dropped.

    Returns (theta, p_fit) covering exactly the fitted days.
    """
    window = _count("window", window, least=MIN_WINDOW)
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must lie in (0, 1)")
    if len(H) != len(p_obs):
        raise ValueError("H and price series must have equal length")
    n = len(H)
    if n < window:
        raise ValueError("series shorter than one window")

    n_grid = int(round((THETA_GRID_HI - THETA_GRID_LO) / THETA_GRID_STEP)) + 1
    grid = np.linspace(THETA_GRID_LO, THETA_GRID_HI, n_grid)

    # One full-series integration per candidate; windows slice into it.
    paths = []
    stars = []
    for b1 in grid:
        pars = params.replace(beta1=float(b1))
        s0 = initial_sentiment(b1, params.beta2, H.values[0])
        paths.append(integrate_sentiment(H, s0, pars, substeps=substeps).values)
        stars.append(solve_sbar(float(b1), sigma))

    edges = list(range(0, n - window + 1, window))
    ends = [e + window for e in edges]
    if n - ends[-1] >= MIN_WINDOW:
        edges.append(ends[-1])
        ends.append(n)

    theta_vals = np.empty(ends[-1])
    fit_vals = np.empty(ends[-1])
    for lo, hi in zip(edges, ends):
        # restricted refit: p on {s, integral of (s - s_star)} + intercept
        t = H.step * np.arange(hi - lo)
        p_win = p_obs.values[lo:hi]
        best = None
        for k, b1 in enumerate(grid):
            s_win = paths[k][lo:hi]
            reg2 = _cumtrapz0(s_win, H.step) - stars[k] * t
            _, fitted = _least_squares([s_win, reg2], p_win)
            resid = fitted - p_win
            rss = float(resid @ resid)
            if best is None or rss < best[0]:
                best = (rss, float(b1), fitted)
        _, b1_win, fitted = best
        theta_vals[lo:hi] = 1.0 / b1_win
        fit_vals[lo:hi] = fitted
    return (Series(theta_vals, H.start_index, H.step),
            Series(fit_vals, H.start_index, H.step))
