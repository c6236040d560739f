"""Noise-averaged reference sentiment level and its perturbative forms."""

import math

import pytest
from scipy.optimize import brentq

from newsmarket.reference import (
    beta1_from_sstar,
    s_star_corrected,
    s_star_leading,
    solve_sbar,
)


def averaged_gap(s, beta1, sigma):
    t = math.tanh(beta1 * s)
    return t * (1.0 + sigma * sigma * (t * t - 1.0)) - s


def test_solve_sbar_frozen_value():
    assert solve_sbar(1.1, 0.3) == pytest.approx(0.05936328989949698, abs=1e-8)


def test_solve_sbar_against_brentq():
    for beta1, sigma in [(1.1, 0.3), (1.2, 0.2), (1.5, 0.0),
                         (1.8, 0.45), (1.11, 0.3)]:
        ours = solve_sbar(beta1, sigma)
        ref = brentq(averaged_gap, 1e-6, 1.0, args=(beta1, sigma), xtol=1e-14)
        assert ours == pytest.approx(ref, abs=1e-10)


def test_solve_sbar_residual_is_zero():
    root = solve_sbar(1.3, 0.25)
    assert abs(averaged_gap(root, 1.3, 0.25)) < 1e-11


def test_solve_sbar_paramagnetic_flags():
    root, para = solve_sbar(0.9, 0.0, full_output=True)
    assert root == 0.0 and para is True
    # noise raises the effective transition to 1/(1 - sigma^2) = 1.0989
    root, para = solve_sbar(1.05, 0.3, full_output=True)
    assert root == 0.0 and para is True
    root, para = solve_sbar(1.2, 0.3, full_output=True)
    assert root > 0.0 and para is False


def test_solve_sbar_domain_errors():
    with pytest.raises(ValueError, match="beta1"):
        solve_sbar(2.5, 0.1)
    with pytest.raises(ValueError, match="beta1"):
        solve_sbar(-0.2, 0.1)
    with pytest.raises(ValueError, match="sigma"):
        solve_sbar(1.1, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        solve_sbar(1.1, -0.1)


@pytest.mark.parametrize("beta1, sigma, name", [
    (-1.0, 0.3, "beta1"), (2.5, 0.3, "beta1"), (0.5, math.nan, "sigma"),
    (1.5, math.nan, "sigma"), (1.5, -2.0, "sigma"), (1.5, 1.0, "sigma")])
def test_corrected_takes_the_domain_of_solve_sbar(beta1, sigma, name):
    # beta1 <= 1 returned 0.0 unchecked, and sigma was never checked
    with pytest.raises(ValueError, match=name):
        s_star_corrected(beta1, sigma)


def test_leading_matches_equilibrium_solver():
    from newsmarket.sentiment import equilibria_1d

    sp = s_star_leading(1.1)
    top = max(r for r, _ in equilibria_1d(1.1, 0.0))
    assert sp == pytest.approx(top, abs=1e-9)
    assert s_star_leading(0.9) == 0.0


def test_corrected_frozen_value():
    assert s_star_corrected(1.1, 0.3) == pytest.approx(
        0.3132289102345829, abs=1e-9)


def test_corrected_below_leading_in_ordered_phase():
    for beta1 in (1.05, 1.1, 1.3, 1.7, 2.0):
        sp = s_star_leading(beta1)
        sc = s_star_corrected(beta1, 0.3)
        assert sc < sp
        assert s_star_corrected(beta1, 0.0) == sp
    assert s_star_corrected(0.95, 0.3) == 0.0


def test_corrected_formula_direct():
    sp = s_star_leading(1.4)
    one_m = 1.0 - sp * sp
    want = sp * (1.0 + 0.09 * one_m / (1.4 * one_m - 1.0))
    assert s_star_corrected(1.4, 0.3) == pytest.approx(want, abs=1e-15)


def test_beta1_inversion_round_trip():
    for beta1 in (1.12, 1.3, 1.6):
        target = solve_sbar(beta1, 0.3)
        back = beta1_from_sstar(target, 0.3)
        assert back == pytest.approx(beta1, abs=1e-8)


def test_beta1_inversion_errors():
    with pytest.raises(ValueError, match="s_star"):
        beta1_from_sstar(0.0, 0.3)
    with pytest.raises(ValueError, match="s_star"):
        beta1_from_sstar(1.0, 0.3)
    with pytest.raises(ValueError, match="not attainable"):
        beta1_from_sstar(0.99, 0.3)
