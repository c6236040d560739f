"""Time-series diagnostics: returns, moments, correlation, volatility,
Fourier smoothing, and multichannel singular spectrum reconstruction."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Series, _count, _finite

_EPS = np.finfo(float).eps
_FMAX = np.finfo(float).max

__all__ = [
    "log_returns",
    "distribution_stats",
    "autocorrelation",
    "cross_correlation",
    "rolling_volatility",
    "fourier_lowpass",
    "mssa_leading",
]


def _lag_samples(series: Series, days: float, name: str) -> int:
    lag = days / series.step
    if not (math.isfinite(lag) and abs(lag - round(lag)) <= 1e-9
            and round(lag) >= 1):
        raise ValueError(f"{name} = {days} is not a positive multiple "
                         f"of the {series.step}-day step")
    return int(round(lag))


def _spread(x: np.ndarray, name: str) -> float:
    """x's second central moment (np.var(x), the same float), checked by
    core._finite and named `name` there: the overflow check of every
    statistic that squares deviations, which would otherwise come out inf
    or nan."""
    return _finite(f"{name}: second central moment overflows",
                   lambda x: float(np.mean((x - np.mean(x))**2)), x)


def _shifted_start(series: Series, shift: float, names: str) -> float:
    """series' start moved `shift` days later, which must be whole days
    since a Series starts on a day index."""
    if not float(shift).is_integer():
        raise ValueError(f"{names} must move the output start by whole "
                         f"days, not {shift}")
    return series.start_index + shift


def log_returns(p: Series, horizon_days: int) -> Series:
    """Differences p_t - p_(t-horizon); p is already a log price.

    The output keeps p's grid, starting `horizon_days` (whole days)
    later.
    """
    lag = _lag_samples(p, horizon_days, "horizon_days")
    if len(p) <= lag:
        raise ValueError(f"series length {len(p)} cannot support a "
                         f"{horizon_days}-day return")
    start = _shifted_start(p, horizon_days, "horizon_days")
    vals = _finite(f"p: {horizon_days}-day differences overflow",
                   np.subtract, p.values[lag:], p.values[:-lag])
    return Series(vals, start_index=start, step=p.step)


def _moments(x: np.ndarray, order: str = "fourth") -> tuple:
    """(mean, variance, m2, m3, m4) of x in one pass over its deviations:
    the n - 1 variance and central moments m_k by the operations of
    np.mean, np.var(ddof=1) and scipy.stats.skew and kurtosis(bias=True),
    in their order, so each float is theirs.  Order "second" stops at m2.
    core._finite checks the `order` central moment's sums; a sample that
    _check_variance finds constant to float precision raises ValueError."""
    def sums(x):
        mean = np.mean(x)
        d = x - mean
        d2 = d**2
        shape = [np.mean(d2 * d), np.mean(d2**2)] if order == "fourth" else []
        return np.array([mean, np.sum(d2), *shape])
    mean, s2, *shape = _finite(f"returns: {order} central moment overflows",
                               sums, x)
    m2 = s2 / len(x)
    _check_variance(m2, mean)
    return mean, s2 / (len(x) - 1), m2, *shape


def _check_variance(m2: float, mean: float) -> None:
    """Raise ValueError where the second central moment m2 of a sample
    with this mean is at or below (eps * mean)**2, scipy's test for a
    sample that varies only in its last bits."""
    if m2 <= (_EPS * mean)**2:
        raise ValueError("zero variance at float precision: skewness "
                         "and kurtosis are undefined")


def distribution_stats(returns: Series, normalize: bool = False):
    """(mean, variance, skewness, excess_kurtosis) of a sample.

    Variance uses the n-1 convention; skewness and excess kurtosis are
    the plain moment-ratio estimators.  normalize first rescales the
    sample to zero mean and unit variance (affecting only the first two
    outputs; the shape moments are scale-free).  A sample that is
    constant to float precision, or whose fourth central moment (second,
    with normalize) overflows, raises ValueError.
    """
    if len(returns) < 30:
        raise ValueError("need at least 30 samples for stable moments")
    x = returns.values
    if normalize:
        mean, var, _ = _moments(x, "second")
        x = (x - mean) / math.sqrt(var)
    mean, var, m2, m3, m4 = _moments(x)
    return (float(mean), float(var), float(m3 / m2**1.5),
            float(m4 / m2**2.0 - 3))


def autocorrelation(x: Series, max_lag: int) -> list:
    """Sample ACF with biased normalization, as (lag, acf, band) rows.

    Lags run 0..max_lag, an integer >= 0 below the series length.  band
    is the white-noise 95% half-width 1.96/sqrt(n), identical for every
    lag.  acf at lag 0 is exactly 1.
    """
    max_lag = _count("max_lag", max_lag, least=0)
    n = len(x)
    if max_lag >= n:
        raise ValueError("max_lag must be below the series length")
    _spread(x.values, "x")
    d = x.values - np.mean(x.values)
    c0 = float(np.dot(d, d))
    if c0 == 0.0:
        raise ValueError("zero variance: autocorrelation undefined")
    band = 1.96 / math.sqrt(n)
    out = [(0, 1.0, band)]
    for k in range(1, max_lag + 1):
        out.append((k, float(np.dot(d[:-k], d[k:])) / c0, band))
    return out


def cross_correlation(x: Series, y: Series, lags) -> list:
    """Pearson correlation of x_t with y_(t+lag) for each requested lag."""
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    n = len(x)
    xv, yv = x.values, y.values
    _spread(xv, "x")
    _spread(yv, "y")
    out = []
    for lag in lags:
        k = _count("lag", lag, least=-n)
        if abs(k) >= n - 1:
            raise ValueError(f"lag {k} leaves fewer than two pairs")
        if k >= 0:
            a, b = xv[:n - k], yv[k:]
        else:
            a, b = xv[-k:], yv[:n + k]
        sa, sb = np.std(a), np.std(b)
        if sa == 0.0 or sb == 0.0:
            raise ValueError(f"zero variance in the lag-{k} overlap")
        out.append((k, float(np.corrcoef(a, b)[0, 1])))
    return out


def rolling_volatility(x: Series, increment_days: int,
                       window_days: int) -> Series:
    """Stdev of non-overlapping increment-day differences in a trailing
    window, evaluated at every date with a full window behind it.

    The window holds m = floor(window/increment) increments; the output
    starts m*increment days after the input (shortened head), which must
    be whole days.
    """
    inc = _lag_samples(x, increment_days, "increment_days")
    win = _lag_samples(x, window_days, "window_days")
    m = win // inc
    if m < 2:
        raise ValueError("window must contain at least two increments")
    n = len(x)
    if n <= m * inc:
        raise ValueError(f"series too short: need more than {m * inc} "
                         "samples")
    start = _shifted_start(x, m * inc * x.step,
                           "increment_days and window_days")
    diffs = x.values[inc:] - x.values[:-inc]          # diffs[t-inc] = x_t - x_(t-inc)
    _spread(diffs, f"x's {increment_days}-day differences")
    anchors = np.arange(m * inc, n)
    cols = anchors[:, None] - inc * np.arange(m)[None, :] - inc
    vols = np.std(diffs[cols], axis=1, ddof=1)
    return Series(vols, start_index=start, step=x.step)


def fourier_lowpass(x: Series, min_period_days: float) -> Series:
    """Zero every Fourier bin with period below min_period, keep the rest.

    min_period_days must be positive.  The mean (zero-frequency bin)
    always survives.  Endpoint behavior reflects the transform's periodic
    extension, so the first and last half-periods are smoothed toward
    each other; treat them as edge artifacts.  The operation is a
    projection: applying it twice changes nothing.
    """
    if not min_period_days > 0:
        raise ValueError(f"min_period_days must be positive, got "
                         f"{min_period_days}")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples")
    spec = _finite("x: Fourier coefficients overflow", np.fft.rfft, x.values)
    k = np.arange(len(spec))
    period = np.empty(len(spec))
    period[0] = np.inf
    period[1:] = n * x.step / k[1:]
    spec[period < min_period_days] = 0.0
    # irfft sums n terms before it scales by 1/n.  Each term is at most
    # sqrt(2) times the larger of |real| and |imag| (|coef| itself can
    # overflow), so where the sum could pass the float range, scale first.
    norm = "backward"
    if max(np.abs(spec.real).max(), np.abs(spec.imag).max()) > _FMAX / 2 / n:
        spec /= n
        norm = "forward"
    vals = _finite("x: filtered values overflow", np.fft.irfft, spec, n,
                   -1, norm)
    return Series(vals, start_index=x.start_index, step=x.step)


def _hankel_average(block: np.ndarray, n: int) -> np.ndarray:
    """Average a (window x K) matrix over its anti-diagonals."""
    w, k = block.shape
    sums = np.zeros(n)
    counts = np.zeros(n)
    for i in range(w):
        sums[i:i + k] += block[i]
        counts[i:i + k] += 1.0
    return sums / counts


def mssa_leading(x: Series, y: Series, window: int = 250,
                 n_components: int = 2):
    """Joint singular-spectrum reconstruction of two series from their
    leading components.

    Both series are standardized, embedded as trajectory matrices of
    window lags (an integer in [2, len // 2]), and stacked; the
    eigenvectors of the joint lag-covariance with the n_components (an
    integer in [1, 2*window]) largest eigenvalues define the
    reconstruction subspace.  Each output is diagonal-averaged back to
    full length and returned on the original scale.  An oscillatory mode
    occupies a pair of components, so n_components = 2 isolates the
    leading quasiperiodic cycle shared by the two channels.

    The trajectory matrix (2*window x K, K = len - window + 1) is
    stacked from strided window views of the standardized series, and
    only one copy of it is alive at a time: it is freed while the
    eigensolver runs and stacked again for the projection.  Working
    memory is therefore one trajectory matrix plus the 2*window-square
    lag covariance and its eigenvectors, and the outputs are bitwise
    equal to those of the same matrix gathered through an index array.
    """
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    n = len(x)
    window = _count("window", window, least=2)
    if window > n // 2:
        raise ValueError(f"window must lie in [2, {n // 2}] for length {n}")
    n_components = _count("n_components", n_components)
    if n_components > 2 * window:
        raise ValueError("n_components exceeds the number of channels")
    sx = math.sqrt(_spread(x.values, "x"))
    sy = math.sqrt(_spread(y.values, "y"))
    mx, my = float(np.mean(x.values)), float(np.mean(y.values))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("constant input has no spectral structure")
    zx = (x.values - mx) / sx
    zy = (y.values - my) / sy

    k = n - window + 1
    # views[c][i, j] = z_c[i + j]: lag i, window start j, no copy
    views = [sliding_window_view(z, window).T for z in (zx, zy)]
    traj = np.vstack(views)                       # (2*window, K)
    cov = traj @ traj.T
    cov /= k
    del traj
    eigvecs = np.linalg.eigh(cov)[1]              # ascending eigenvalues
    del cov
    lead = eigvecs[:, -n_components:]
    rec = lead @ (lead.T @ np.vstack(views))

    x_rec = _hankel_average(rec[:window], n) * sx + mx
    y_rec = _hankel_average(rec[window:], n) * sy + my
    return (Series(x_rec, start_index=x.start_index, step=x.step),
            Series(y_rec, start_index=y.start_index, step=y.step))
