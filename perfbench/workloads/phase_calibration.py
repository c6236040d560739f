"""phase_calibration: root finding, sweeps, limit cycles and the theta fit.

One round is bifurcation_sweep over gamma, beta2 and delta (101 points
each, beta2 and delta crossing the fold), the criterion-6 limit-cycle
quartet, the criterion-7 cycle, iterative_theta_fit and calibrate_price on
a seeded 2000-day AR(1) news series, beta1_from_sstar and mssa_leading.
The noise path of market and all of glauber are bypassed.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from newsmarket import analytics, phase
from newsmarket.core import MarketState, ModelParams, Series
from newsmarket.pricing import (THETA_GRID_HI, THETA_GRID_LO, THETA_GRID_STEP,
                                calibrate_price, initial_sentiment,
                                iterative_theta_fit, price_from_sentiment)
from newsmarket.reference import beta1_from_sstar, solve_sbar
from newsmarket.sentiment import equilibria_1d, integrate_sentiment

from .common import (MAIN, OpResult, Workload, ar1_series, digest_arrays,
                     median_ms, metric, probe, rate)
from tracing import span_seconds

SIGMA = 0.3
FIT_BETA1 = 1.12
FIT_TOL = 0.02          # herding-level recovery, as criterion 11
PRICE_TOL = 1e-6        # calibrate_price on a noiseless price
CYCLE_WINDOW = (2.4612, 2.4613)   # gamma_bar on either side of cycle birth
SWEEPS = (("gamma", (0.0, 100.0)), ("beta2", (0.3, 1.0)),
          ("delta", (0.0, 0.08)))


def _n_theta_candidates() -> int:
    return int(round((THETA_GRID_HI - THETA_GRID_LO) / THETA_GRID_STEP)) + 1


class PhaseCalibration(Workload):
    name = "phase_calibration"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.params = ModelParams(**MAIN, delta=0.03, kappa=0.0, gamma=56.0)
        self.steps = 11 if tiny else 101
        self.days = 500 if tiny else 2000
        self.mssa_window = 100 if tiny else 250
        self.news = Series(ar1_series(self.seed, self.days))
        self.s_star = solve_sbar(FIT_BETA1, SIGMA)
        self.fit_params = ModelParams(**{**MAIN, "beta1": FIT_BETA1,
                                         "beta2": 1.0, "s_star": self.s_star})
        h0 = float(self.news.values[0])
        self.s0 = initial_sentiment(FIT_BETA1, 1.0, h0)
        self.sent = integrate_sentiment(self.news, self.s0, self.fit_params)
        self.price = price_from_sentiment(self.sent, self.fit_params)

    def warm_up(self):
        phase.bifurcation_sweep(self.params, "gamma", (0.0, 100.0), 3)

    def ops(self):
        return ([("sweep", lambda tr, s=s, r=r: self._sweep(tr, s, r))
                 for s, r in SWEEPS]
                + [("limit_cycle_window", self._cycle_window),
                   ("limit_cycle_c7", self._cycle_c7),
                   ("theta_fit", self._theta_fit),
                   ("calibrate_price", self._calibrate),
                   ("beta1_from_sstar", self._beta1),
                   ("mssa", self._mssa)])

    # -- sweeps ------------------------------------------------------------

    def _sweep(self, tr, field, value_range):
        with tr.span("phase.bifurcation_sweep", field=field,
                     points=self.steps) as sp:
            rows, transitions = phase.bifurcation_sweep(
                self.params, field, value_range, self.steps)
            sp["transitions"] = len(transitions)
        step = (value_range[1] - value_range[0]) / (self.steps - 1)
        problem = (self._check_gamma(transitions, value_range, step)
                   if field == "gamma"
                   else self._check_fold(transitions, field, step))
        return OpResult(problem is None, work=self.steps,
                        detail=problem or "",
                        digest=repr((rows, transitions)).encode())

    def _check_gamma(self, transitions, value_range, step):
        """Every class change on an outer branch lies within one grid step
        of a gamma_thresholds value, and every threshold in range has one."""
        lo, hi = value_range
        for pt in phase.find_equilibria(self.params):
            found = [(v0, v1) for v0, v1, br, _, _ in transitions
                     if br == pt.branch]
            if pt.branch == "s_zero":
                if found:
                    return "the saddle branch changed class"
                continue
            want = [g for g in phase.gamma_thresholds(pt.s_star_pt,
                                                      self.params)
                    if lo <= g <= hi]
            if len(found) != len(want) or any(
                    not v0 - step <= g <= v1 + step
                    for (v0, v1), g in zip(found, want)):
                return (f"{pt.branch} transitions {found} do not match "
                        f"thresholds {want}")
        return None

    def _check_fold(self, transitions, field, step):
        """s_minus and s_zero vanish within one grid step of the fold."""
        p = self.params
        tilt = p.beta2 * math.tanh(phase.delta_critical(p.beta1, p.beta2))
        fold = (math.atanh(tilt / p.beta2) if field == "delta"
                else tilt / math.tanh(p.delta))
        for branch in ("s_minus", "s_zero"):
            gone = [(v0, v1) for v0, v1, br, _, after in transitions
                    if br == branch and after == "absent"]
            if len(gone) != 1 or not (gone[0][0] - step <= fold
                                      <= gone[0][1] + step):
                return f"{branch} vanishes at {gone}, fold at {fold:.6g}"
        return None

    # -- limit cycles ------------------------------------------------------

    def _cycle(self, tr, params, init, reverse=False):
        with tr.span("phase.detect_limit_cycle") as sp:
            rep = phase.detect_limit_cycle(params, init, 20000,
                                           reverse=reverse)
            sp["crossings"] = rep.convergence_iterations
        return rep

    def _cycle_window(self, tr):
        reps = []
        for gbar in CYCLE_WINDOW:
            pars = ModelParams(**MAIN, delta=0.0, kappa=0.0,
                               gamma=gbar / MAIN["w_s"])
            reps.append(self._cycle(tr, pars, MarketState(0.9, 0.0)))
            reps.append(self._cycle(tr, pars, MarketState(0.53, 0.0),
                                    reverse=True))
        below_f, below_r, above_f, above_r = reps
        ok = (not below_f.exists and not below_r.exists
              and above_f.exists and above_f.stable
              and above_r.exists and not above_r.stable)
        return OpResult(ok, work=0.0,
                        detail="" if ok else "criterion-6 window not found",
                        digest=repr(reps).encode())

    def _cycle_c7(self, tr):
        pars = ModelParams(**MAIN, delta=0.03, kappa=0.0, gamma=67.7)
        rep = self._cycle(tr, pars, MarketState(0.9, 0.0))
        ok = rep.exists and rep.stable and abs(rep.period_days - 295.0) <= 75.0
        return OpResult(ok, work=0.0,
                        detail="" if ok else f"criterion-7 cycle {rep}",
                        digest=repr(rep).encode())

    # -- calibration -------------------------------------------------------

    def _theta_fit(self, tr):
        with tr.span("pricing.iterative_theta_fit") as sp:
            theta, p_fit = iterative_theta_fit(self.news, self.price,
                                               self.fit_params, sigma=SIGMA)
        # Candidates scored: every grid value in every 250-day window.
        sp["candidates"] = _n_theta_candidates() * math.ceil(len(theta) / 250)
        err = float(np.max(np.abs(1.0 / theta.values - FIT_BETA1)))
        ok = err <= FIT_TOL
        return OpResult(ok, work=0.0,
                        detail="" if ok else f"herding level error {err:.3g}",
                        digest=digest_arrays(theta.values, p_fit.values))

    def _calibrate(self, tr):
        with tr.span("pricing.calibrate_price"):
            fit = calibrate_price(self.sent, self.price)
        p = self.fit_params
        err = max(abs(fit.a1 - p.a1), abs(fit.a2 - p.a2),
                  abs(fit.a4 - p.a4), abs(fit.s_star - p.s_star))
        ok = err <= PRICE_TOL
        return OpResult(ok, work=0.0,
                        detail="" if ok else f"price fit error {err:.3g}",
                        digest=repr(fit).encode())

    def _beta1(self, tr):
        with tr.span("reference.beta1_from_sstar"):
            b1 = beta1_from_sstar(self.s_star, SIGMA)
        ok = abs(b1 - FIT_BETA1) <= 1e-6
        return OpResult(ok, work=0.0,
                        detail="" if ok else f"beta1 round trip {b1}",
                        digest=repr(b1).encode())

    def _mssa(self, tr):
        with tr.span("analytics.mssa_leading"):
            xr, yr = analytics.mssa_leading(self.sent, self.news,
                                            window=self.mssa_window)
        ok = (len(xr) == len(yr) == self.days
              and bool(np.all(np.isfinite(xr.values)))
              and bool(np.all(np.isfinite(yr.values))))
        return OpResult(ok, work=0.0,
                        detail="" if ok else "mssa output malformed",
                        digest=digest_arrays(xr.values, yr.values))

    # -- probes and metrics ------------------------------------------------

    def probes(self, tr):
        n = 5 if self.tiny else 50
        p, fp = self.params, self.fit_params
        h0 = float(self.news.values[0])
        probe(tr, "phase.find_equilibria",
              lambda: phase.find_equilibria(p), n)
        probe(tr, "pricing.initial_sentiment",
              lambda: initial_sentiment(FIT_BETA1, 1.0, h0), n)
        probe(tr, "sentiment.equilibria_1d",
              lambda: equilibria_1d(p.beta1, p.beta2 * math.tanh(p.delta)), n)
        probe(tr, "reference.solve_sbar",
              lambda: solve_sbar(FIT_BETA1, SIGMA), 10 * n)
        probe(tr, "sentiment.integrate_sentiment",
              lambda: integrate_sentiment(self.news, self.s0, fp),
              1 if self.tiny else 5)
        init = MarketState(0.9, 0.0)
        with tr.span("phase.integrate_autonomous", days=self.days,
                     substeps=8):
            phase.integrate_autonomous(p, init, self.days)

    def summary(self, records, positions):
        per_s = rate(positions, "sweep")
        fits = [r["s"] for r in records if r["kind"] == "theta_fit"]
        return per_s, {
            "sweep_points_per_s": metric(per_s, "1/s"),
            "theta_fit_s": metric(statistics.median(fits), "s", len(fits)),
        }

    def layer_metrics(self, tr):
        sweeps = tr.named("phase.bifurcation_sweep")
        cycles = tr.named("phase.detect_limit_cycle")
        # Rounds repeat their inputs, so the first round's counts stand
        # for every round.
        round_sweeps = sweeps[:len(SWEEPS)]
        round_cycles = cycles[:len(CYCLE_WINDOW) * 2 + 1]
        auto = tr.named("phase.integrate_autonomous")[0]
        sent_steps = (self.days - 1) * 8
        return {
            "phase.find_equilibria_us": metric(
                tr.per_call_us("phase.find_equilibria"), "us"),
            "phase.sweep_point_ms": metric(
                1e3 * sum(span_seconds(s) for s in sweeps)
                / sum(s["points"] for s in sweeps), "ms"),
            "phase.sweep_points": metric(
                sum(s["points"] for s in round_sweeps), "count"),
            "phase.transitions": metric(
                sum(s["transitions"] for s in round_sweeps), "count"),
            "phase.rk4_substep_us": metric(
                1e6 * span_seconds(auto) / ((auto["days"] - 1) * 8), "us",
                computed="integrate_autonomous time / substeps"),
            "phase.limit_cycle_ms": metric(
                median_ms(tr, "phase.detect_limit_cycle"), "ms", len(cycles)),
            "phase.limit_cycle_crossings": metric(
                sum(s["crossings"] for s in round_cycles), "count"),
            "pricing.theta_fit_ms": metric(
                median_ms(tr, "pricing.iterative_theta_fit"), "ms"),
            "pricing.theta_fit_candidates": metric(
                tr.named("pricing.iterative_theta_fit")[0]["candidates"],
                "count"),
            "pricing.calibrate_price_ms": metric(
                median_ms(tr, "pricing.calibrate_price"), "ms"),
            "pricing.initial_sentiment_us": metric(
                tr.per_call_us("pricing.initial_sentiment"), "us"),
            "sentiment.integrate_sentiment_ms": metric(
                tr.per_call_us("sentiment.integrate_sentiment") / 1e3, "ms"),
            "sentiment.substep_us": metric(
                tr.per_call_us("sentiment.integrate_sentiment") / sent_steps,
                "us", computed="integrate_sentiment time / substeps"),
            "sentiment.equilibria_1d_us": metric(
                tr.per_call_us("sentiment.equilibria_1d"), "us"),
            "reference.solve_sbar_us": metric(
                tr.per_call_us("reference.solve_sbar"), "us"),
            "reference.beta1_from_sstar_ms": metric(
                median_ms(tr, "reference.beta1_from_sstar"), "ms"),
            "analytics.mssa_ms": metric(
                median_ms(tr, "analytics.mssa_leading"), "ms"),
        }
