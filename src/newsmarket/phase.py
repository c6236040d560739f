"""Phase-plane analysis of the autonomous sentiment/information system.

Equilibria lie on h* = tanh(delta) with s* a root of the self-consistency
relation s = tanh(beta1*s + beta2*h*).  Linearization is carried out in
rescaled time tau = w_s*t, where the characteristic exponents take the
two-parameter form lambda = ((phi - psi) +/- sqrt((phi - psi)^2 -
4*psi*eta))/2 with

    psi = 1 - beta1*(1 - s*^2)
    phi = beta2*w_h*gamma*(1 - s*^2)*sech^2(delta) - w_h/w_s
    eta = w_h/w_s.

psi < 0 marks the middle (shallow-well) branch, which is always a saddle.
On the outer branches the class walks StableNode -> StableFocus ->
UnstableFocus -> UnstableNode as the feedback gain gamma grows; the three
boundary values are returned by gamma_thresholds.  Reported periods and
times are always converted back to business days.

Limit cycles are found by direct integration with a Poincare section on
the line h = tanh(delta), crossings restricted to one orientation
(ds/dt > 0).  A cycle is declared only when successive crossings agree in
s to within tol AND the last loop has non-vanishing s-extent; without the
amplitude floor, a trajectory spiralling into a focus also produces
converged crossings (at the fixed point itself) and would masquerade as a
cycle.  Unstable cycles are attracting in reverse time and are located by
the same machinery with reverse=True.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_BOUND_SLACK, MarketState, ModelParams, Series, _count,
                   _div_cosh2, _size, _work, validate)
from .market import SIMPLIFIED, _daily_path, _left_box, _make_drift
from .sentiment import equilibria_1d

__all__ = [
    "STABLE_NODE",
    "STABLE_FOCUS",
    "UNSTABLE_FOCUS",
    "UNSTABLE_NODE",
    "SADDLE",
    "EquilibriumPoint",
    "LimitCycleReport",
    "find_equilibria",
    "delta_critical",
    "delta_critical_asymptotic",
    "classify",
    "gamma_thresholds",
    "oscillator_reduction",
    "integrate_autonomous",
    "detect_limit_cycle",
    "bifurcation_sweep",
]

STABLE_NODE = "StableNode"
STABLE_FOCUS = "StableFocus"
UNSTABLE_FOCUS = "UnstableFocus"
UNSTABLE_NODE = "UnstableNode"
SADDLE = "Saddle"

_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class EquilibriumPoint:
    """A classified fixed point of the autonomous system.

    eigenvalues are in rescaled time tau = w_s*t; multiply by w_s for
    per-day rates.  branch is one of s_minus / s_zero / s_plus on the
    three-root side of the fold and "paramagnetic" for the single
    weak-coupling root.
    """

    s_star_pt: float
    h_star_pt: float
    eigenvalues: tuple
    stability: str
    branch: str


@dataclass(frozen=True)
class LimitCycleReport:
    """Outcome of a Poincare-section cycle search.

    stable reflects the integration direction: a cycle attracting in
    forward time is stable, one found with reverse=True is unstable.  The
    flag is meaningful only when exists is True.  convergence_iterations
    counts section crossings consumed before the verdict.
    """

    exists: bool
    period_days: float
    s_amplitude: tuple
    convergence_iterations: int
    stable: bool = True


def _psi_phi_eta(s_star: float, params: ModelParams):
    sech2 = _div_cosh2(1.0, params.delta)
    psi = 1.0 - params.beta1 * (1.0 - s_star * s_star)
    phi = (params.beta2 * params.w_h * params.gamma
           * (1.0 - s_star * s_star) * sech2 - params.eta)
    return psi, phi, params.eta


def classify(point, params: ModelParams, branch: str = "") -> EquilibriumPoint:
    """Classify a fixed point (s*, h*) by its linearization.

    The point must satisfy both equilibrium relations to 1e-8 (a NaN
    coordinate does not).  Returns the full EquilibriumPoint record;
    eigenvalues in rescaled time.  A linearization that overflows raises
    ValueError naming the fields it is built from.
    """
    s_star, h_star = float(point[0]), float(point[1])
    r1 = abs(s_star - math.tanh(params.beta1 * s_star
                                + params.beta2 * h_star))
    r2 = abs(h_star - math.tanh(params.delta))
    if not (r1 <= _RESIDUAL_TOL and r2 <= _RESIDUAL_TOL):
        raise ValueError(
            f"point ({s_star}, {h_star}) is not an equilibrium: residuals "
            f"{r1:.3g}, {r2:.3g} exceed {_RESIDUAL_TOL}"
            " in s = tanh(beta1*s + beta2*h), h = tanh(delta)")
    return _classify(s_star, h_star, params, branch)


def _classify(s_star: float, h_star: float, params: ModelParams,
              branch: str) -> EquilibriumPoint:
    """classify without the residual check, for roots the package solved
    itself."""
    psi, phi, eta = _psi_phi_eta(s_star, params)
    tr = phi - psi
    disc = tr * tr - 4.0 * psi * eta
    if not math.isfinite(disc):
        raise ValueError(
            f"the linearization at ({s_star}, {h_star}) is not finite: its "
            "terms in beta1, beta2, gamma, delta, w_h and w_s overflow")
    if disc >= 0.0:
        root = math.sqrt(disc)
        hi, lo = (tr + root) / 2.0, (tr - root) / 2.0
        prod = psi * eta
        # The root that takes the difference of tr and the square root
        # cancels (to 0 for a saddle from beta1 of about 1e20, where about
        # -eta is right), so it comes from the product hi*lo = psi*eta.
        if tr > 0.0:
            lo = prod / hi
        elif tr < 0.0:
            hi = prod / lo
        lam = (hi + 0.0j, lo + 0.0j)
        if prod < 0.0:
            stability = SADDLE
        elif tr < 0.0:
            stability = STABLE_NODE
        else:
            stability = UNSTABLE_NODE
    else:
        root = math.sqrt(-disc)
        lam = (complex(tr / 2.0, root / 2.0), complex(tr / 2.0, -root / 2.0))
        stability = STABLE_FOCUS if tr < 0.0 else UNSTABLE_FOCUS
    return EquilibriumPoint(s_star_pt=s_star, h_star_pt=h_star,
                            eigenvalues=lam, stability=stability,
                            branch=branch)


def find_equilibria(params: ModelParams) -> list:
    """All fixed points of the autonomous system, classified.

    h* = tanh(delta) for every point; the s* values are the roots of the
    self-consistency relation with tilt c = beta2*tanh(delta), found by
    equilibria_1d (analytic brackets, core._brentq).  Points come back
    sorted by s*.  params need not pass validate: delta may be negative.
    The roots are classified without classify's residual check, which
    their residual (about beta1 times the root tolerance) can exceed; a
    linearization that overflows (beta1 of order 1e150) raises as there.
    """
    h_star = math.tanh(params.delta)
    c = params.beta2 * h_star
    roots = equilibria_1d(params.beta1, c)
    labels = _branch_labels([r for r, _ in roots], params.beta1)
    return [_classify(r, h_star, params, lab)
            for (r, _), lab in zip(roots, labels)]


def _branch_labels(roots, beta1: float) -> list:
    if beta1 <= 1.0 and len(roots) == 1:
        return ["paramagnetic"]
    if len(roots) == 3:
        return ["s_minus", "s_zero", "s_plus"]
    if len(roots) == 1:
        return ["s_plus" if roots[0] > 0.0 else "s_minus"]
    # Tangency case (delta exactly critical): outer labels by position.
    return ["s_minus", "s_plus"][:len(roots)]


def _check_fold_domain(beta1: float, beta2: float) -> None:
    """The fold exists for 1 < beta1 < inf and 0 < beta2 < inf."""
    if not 1.0 < beta1 < math.inf:
        raise ValueError(f"the fold needs 1 < beta1 < inf, got {beta1}")
    if not 0.0 < beta2 < math.inf:
        raise ValueError(f"the fold needs 0 < beta2 < inf, got {beta2}")


def delta_critical(beta1: float, beta2: float) -> float:
    """Bias at which the shallow well disappears (fold of the fixed points).

    Three equilibria exist for delta below this value, one above; needs
    1 < beta1 < inf and 0 < beta2 < inf.
    """
    _check_fold_domain(beta1, beta2)
    q = math.sqrt((beta1 - 1.0) / beta1)
    # 0.5*log((1 - q)/(1 + q)) without forming 1 - q, which cancels and
    # rounds to 0 for beta1 above about 1e16: (1 - q)*(1 + q) = 1/beta1
    arg = (math.sqrt(beta1 * (beta1 - 1.0)) - math.log1p(q)
           - 0.5 * math.log(beta1)) / beta2
    if not -1.0 < arg < 1.0:
        raise ValueError(f"critical tilt {arg:.6g} outside (-1, 1); "
                         "no finite bias angle exists")
    return math.atanh(arg)


def delta_critical_asymptotic(beta1: float, beta2: float) -> float:
    """Small-(beta1 - 1) expansion of delta_critical, on its domain."""
    _check_fold_domain(beta1, beta2)
    return 2.0 / (3.0 * beta2 * beta1 ** 1.5) * (beta1 - 1.0) ** 1.5


def gamma_thresholds(s_star_pt: float, params: ModelParams):
    """The three gamma values bounding the class sequence on a stable branch.

    Returns (g_node_focus, g_focus_unstable, g_unstable_node), always
    increasing.  s_star_pt must lie in [-1, 1].  Only defined where
    psi > 0; the shallow-well branch is a saddle at every gamma.
    """
    if not abs(s_star_pt) <= 1.0:
        raise ValueError(f"s_star_pt must lie in [-1, 1], got {s_star_pt}")
    one_m = 1.0 - s_star_pt * s_star_pt
    x = (params.w_s / params.w_h) * (1.0 - params.beta1 * one_m)
    if x <= 0.0:
        raise ValueError("saddle branch: beta1*(1 - s*^2) >= 1 has no "
                         "node/focus transitions")
    num = params.w_s * params.beta2 * one_m
    if num <= 0.0:
        raise ValueError("thresholds undefined: beta2*(1 - s*^2) must be "
                         "positive")
    den = _div_cosh2(num, params.delta)
    if den == 0.0:
        raise ValueError("thresholds undefined: w_s*beta2*(1 - s*^2)*"
                         f"sech^2(delta) underflows to 0 at delta = "
                         f"{params.delta}")
    rx = math.sqrt(x)
    return ((1.0 - rx) ** 2 / den, (1.0 + x) / den, (1.0 + rx) ** 2 / den)


def oscillator_reduction(s: float, s_dot: float, params: ModelParams):
    """Damping G(s), force dU/ds, and potential U(s) of the reduced
    oscillator s'' + G(s)*s' + dU/ds = 0 (rescaled time, small-s form).

    s_dot is accepted so callers evaluating the friction force
    G(s)*s_dot or the energy s_dot^2/2 + U(s) carry one state tuple; the
    returned coefficients depend on s only.
    """
    if not abs(s) < 1.0:
        raise ValueError("reduction valid for |s| < 1")
    b1, b2 = params.beta1, params.beta2
    eta, gbar, delta = params.eta, params.gamma_bar, params.delta
    g = ((1.0 - b1 - b2 * eta * gbar + eta)
         + 2.0 * b2 * eta * delta * s
         + (b1 + b2 * eta * gbar + 2.0 * b1 * eta - 2.0 * eta) * s * s)
    u = -eta * ((b1 - 1.0) * s * s / 2.0
                - (b1 - 2.0 / 3.0) * s ** 4 / 4.0
                + b2 * delta * s)
    du = -eta * ((b1 - 1.0) * s
                 - (b1 - 2.0 / 3.0) * s ** 3
                 + b2 * delta)
    return g, du, u


def integrate_autonomous(params: ModelParams, init: MarketState,
                         days: int, substeps: int = 8,
                         reverse: bool = False):
    """Daily-sampled trajectory of the autonomous system from init.

    Returns (s, h) as daily Series of length days; sample 0 is the
    initial state.  days and substeps are integers >= 1 whose product is
    at most core._MAX_WORK = 10**9.  Uses the same fixed-step scheme as
    the stochastic simulator, so a noise-free simulation from the same
    state produces the identical path.
    """
    validate(params)
    days = _size("days", days)
    substeps = _count("substeps", substeps)
    _work(days * substeps, f"days * substeps = {days} * {substeps}")
    s_out, h_out = _daily_path(params, np.full(days - 1, params.beta1),
                               np.zeros(days - 1), init.s, init.h, substeps,
                               SIMPLIFIED, reverse)
    return Series(s_out, 0, 1.0), Series(h_out, 0, 1.0)


def detect_limit_cycle(params: ModelParams, init: MarketState,
                       max_days: int, substeps: int = 8,
                       reverse: bool = False, tol: float = 1e-6,
                       min_amplitude: float = 1e-3) -> LimitCycleReport:
    """Hunt for a closed orbit of the autonomous system from init.

    Integrates up to max_days with substeps RK4 steps a day (both
    integers >= 1, with a product of at most core._MAX_WORK = 10**9;
    noise is ignored, the system is treated as autonomous regardless of
    params.kappa) and watches crossings of the
    section h = tanh(delta) with ds/dt > 0.  Existence requires both
    successive-crossing agreement in s within tol and an s-extent of at
    least min_amplitude over the final loop (tol > 0, min_amplitude >= 0,
    neither NaN).  reverse=True integrates
    backward in time, which turns unstable cycles into attractors; orbits
    may then leave [-1, 1], which ends the search with exists False.
    Forward in time the drift points inward on the boundary, so leaving
    the box (or a NaN state) is an integrator failure and raises
    RuntimeError.

    Each substep runs the simplified-mode drift written out in the four
    RK4 stages, as in market._daily_path: the operations and their order
    of market._rk4_step over market._make_drift, so a test holds the
    reports bitwise equal to that closure loop, at about 1.6x its speed.
    """
    validate(params)
    max_days = _count("max_days", max_days)
    substeps = _count("substeps", substeps)
    _work(max_days * substeps,
          f"max_days * substeps = {max_days} * {substeps}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not min_amplitude >= 0.0:
        raise ValueError(f"min_amplitude must be non-negative, got "
                         f"{min_amplitude}")
    h_section = math.tanh(params.delta)
    f = _make_drift(params, params.beta1, 0.0, SIMPLIFIED)
    dt = 1.0 / substeps
    step = -dt if reverse else dt
    lim = 1.0 + _BOUND_SLACK
    w_s, w_h, b1, b2 = params.w_s, params.w_h, params.beta1, params.beta2
    nw_s, nw_h = -w_s, -w_h
    gamma, delta, kxi = params.gamma, params.delta, params.kappa * 0.0
    half = 0.5 * step
    tanh = math.tanh
    s, h = init.s, init.h
    t = 0.0
    prev_s_c = None
    prev_t_c = None
    crossings = 0
    smin = smax = s
    for k in range(max_days * substeps):
        s0, g0 = s, h - h_section
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
        y = s + step * k3s
        z = h + step * k3h
        k4s = nw_s * y + w_s * tanh(b1 * y + b2 * z)
        k4h = nw_h * z + w_h * tanh(gamma * k4s + delta + kxi)
        s = s + step * (k1s + 2.0 * k2s + 2.0 * k3s + k4s) / 6.0
        h = h + step * (k1h + 2.0 * k2h + 2.0 * k3h + k4h) / 6.0
        t += dt
        if not (abs(s) <= lim and abs(h) <= lim):
            if not reverse:
                raise _left_box(k // substeps, s, h)
            break  # reverse-time escape from the physical box: no cycle
        if s < smin:
            smin = s
        elif s > smax:
            smax = s
        g1 = h - h_section
        if g0 * g1 < 0.0:
            frac = g0 / (g0 - g1)
            s_c = s0 + frac * (s - s0)
            t_c = (t - dt) + frac * dt
            if f(s_c, h_section)[0] > 0.0:
                crossings += 1
                if prev_s_c is not None and abs(s_c - prev_s_c) < tol:
                    closed = (smax - smin) >= min_amplitude
                    return LimitCycleReport(
                        exists=closed,
                        period_days=(t_c - prev_t_c) if closed else 0.0,
                        s_amplitude=(smin, smax),
                        convergence_iterations=crossings,
                        stable=not reverse)
                prev_s_c, prev_t_c = s_c, t_c
                smin = smax = s
    return LimitCycleReport(False, 0.0, (smin, smax), crossings,
                            stable=not reverse)


def bifurcation_sweep(params: ModelParams, sweep: str, value_range,
                      steps: int):
    """Classify every equilibrium branch along a one-parameter sweep.

    sweep names the varied field (gamma, beta2, or delta), value_range
    its finite (lo, hi) and steps (an integer >= 2) the grid size; the
    parameters at both ends must pass validate, so neither end may be
    negative.  Returns (rows, transitions): rows is a list of (value,
    {branch: class}), transitions lists (value_before, value_after,
    branch, class_before, class_after) for every branch whose class
    changed between adjacent grid values, with "absent" marking
    appearance or disappearance.
    """
    if sweep not in ("gamma", "beta2", "delta"):
        raise ValueError(f"cannot sweep {sweep!r}: pick gamma, beta2, "
                         "or delta")
    steps = _size("steps", steps, least=2)
    lo, hi = float(value_range[0]), float(value_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{sweep} range must be finite, got {lo}:{hi}")
    # Each sweepable field is valid on [0, inf), so the ends cover the grid.
    for end in (lo, hi):
        validate(params.replace(**{sweep: end}))
    rows = []
    for v in np.linspace(lo, hi, steps).tolist():
        pts = find_equilibria(params.replace(**{sweep: v}))
        rows.append((v, {p.branch: p.stability for p in pts}))
    transitions = []
    for (v0, before), (v1, after) in zip(rows, rows[1:]):
        for branch in sorted(set(before) | set(after)):
            c0 = before.get(branch, "absent")
            c1 = after.get(branch, "absent")
            if c0 != c1:
                transitions.append((v0, v1, branch, c0, c1))
    return rows, transitions
