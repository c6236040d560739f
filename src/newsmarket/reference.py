"""Reference sentiment level: noise-averaged equilibria of the sentiment well.

When the drive fluctuates around its mean with standard deviation sigma,
the time-averaged sentiment s_bar shifts away from the deterministic
equilibrium s_plus.  This module solves the averaged fixed-point relation

    s_bar = tanh(beta1*s_bar) * (1 + sigma^2*(tanh(beta1*s_bar)^2 - 1))

exactly (solve_sbar), provides the leading-order and first-corrected
perturbative forms (s_star_leading, s_star_corrected), and inverts the
exact relation to recover beta1 from an observed reference level.

Note the exact and corrected forms deviate strongly near the ordering
transition: the noise factor lowers the effective critical coupling to
1/(1 - sigma^2), so at sigma = 0.3 the exact root is nonzero only for
beta1 > 1.0989 and sits well below the perturbative value until beta1
clears the transition region.
"""

from __future__ import annotations

import math

from .core import _brentq

__all__ = [
    "solve_sbar",
    "s_star_leading",
    "s_star_corrected",
    "beta1_from_sstar",
]

_BRACKET_LO = 1e-6


def _averaged_gap(s: float, beta1: float, sigma: float) -> float:
    t = math.tanh(beta1 * s)
    return t * (1.0 + sigma * sigma * (t * t - 1.0)) - s


def _check_domain(beta1: float, sigma: float) -> None:
    if not (0.0 <= beta1 <= 2.0):
        raise ValueError("beta1 must lie in [0, 2]")
    if not (0.0 <= sigma < 1.0):
        raise ValueError("sigma must lie in [0, 1)")


def solve_sbar(beta1: float, sigma: float, full_output: bool = False):
    """Positive root of the noise-averaged fixed-point relation.

    core._brentq on the bracket [1e-6, 1] to 1e-12.  Returns 0 for
    beta1 <= 1, and 0 with the paramagnetic flag when the bracket holds
    no sign change (beta1 below the noise-shifted transition).  With
    full_output=True returns (root, paramagnetic).

    Negative-branch callers negate the result by symmetry.
    """
    _check_domain(beta1, sigma)
    args = (beta1, sigma)
    if beta1 <= 1.0 or (_averaged_gap(_BRACKET_LO, *args)
                        * _averaged_gap(1.0, *args) > 0.0):
        return (0.0, True) if full_output else 0.0
    root = _brentq(_averaged_gap, _BRACKET_LO, 1.0, args=args)
    return (root, False) if full_output else root


def s_star_leading(beta1: float) -> float:
    """Leading-order reference level: positive root of s = tanh(beta1*s).

    Zero for beta1 <= 1 (single symmetric equilibrium).
    """
    return solve_sbar(beta1, 0.0)


def s_star_corrected(beta1: float, sigma: float) -> float:
    """First-corrected reference level.

    s_plus * (1 + sigma^2*(1 - s_plus^2) / (beta1*(1 - s_plus^2) - 1))
    with s_plus from s_star_leading.  The denominator is negative in the
    ordered phase, so the correction pulls the level toward the origin.
    Takes solve_sbar's domain, beta1 in [0, 2] and sigma in [0, 1), and
    returns 0 for beta1 <= 1.
    """
    _check_domain(beta1, sigma)
    if beta1 <= 1.0:
        return 0.0
    sp = s_star_leading(beta1)
    one_m = 1.0 - sp * sp
    return sp * (1.0 + sigma * sigma * one_m / (beta1 * one_m - 1.0))


def beta1_from_sstar(s_star: float, sigma: float) -> float:
    """Invert solve_sbar over beta1 in (1, 2] by core._brentq, to 1e-12.

    Raises when s_star is outside the attainable range of solve_sbar on
    the bracket.  solve_sbar is monotone in beta1 there, so the root is
    unique.
    """
    if not (0.0 < s_star < 1.0):
        raise ValueError("s_star must lie in (0, 1)")
    hi_val = solve_sbar(2.0, sigma)
    if s_star > hi_val:
        raise ValueError(
            f"s_star = {s_star} not attainable: solve_sbar(2, {sigma}) = {hi_val}")
    return _brentq(lambda b1: solve_sbar(b1, sigma) - s_star, 1.0, 2.0)
