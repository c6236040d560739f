"""ensemble_returns: the criterion-9 return-distribution protocol.

Twenty seeded realizations of the closed model in simplified mode
(kappa = 1, gamma = 56, delta = 0.03, 8 substeps) over 15120 days from
the upper equilibrium; each is reduced to monthly log returns and their
moments.  The RK4 substep and the scalar daily normal draw do nearly all
the work; glauber and the phase sweeps never run.
"""

from __future__ import annotations

import math
from functools import partial

from newsmarket import analytics, market, phase
from newsmarket.core import MarketState, ModelParams, RandomSource, Series
from newsmarket.pricing import price_from_sentiment

from .common import (MAIN, OpResult, Workload, all_within_unit, digest_arrays,
                     latency_metric, median_ms, metric, probe, rate)
from tracing import span_seconds

# Realization i draws from RandomSource(seed, i); probes use streams far
# above any realization index.
_PROBE_STREAM = 1_000_000


class EnsembleReturns(Workload):
    name = "ensemble_returns"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.params = ModelParams(**MAIN, delta=0.03, kappa=1.0, gamma=56.0)
        # Tiny runs still leave 30 monthly returns for the moments.
        self.horizon = 800 if tiny else 15120
        self.realizations = 2 if tiny else 20
        self.substeps = 8
        top = max(phase.find_equilibria(self.params.replace(kappa=0.0)),
                  key=lambda q: q.s_star_pt)
        self.init = MarketState(top.s_star_pt, top.h_star_pt)
        self.last_s = None

    def warm_up(self):
        market.simulate(self.params, self.init, 200, self.substeps,
                        rng=RandomSource(self.seed, _PROBE_STREAM))

    def ops(self):
        return [("realization", partial(self._realization, i))
                for i in range(self.realizations)]

    def _realization(self, i, tr):
        with tr.span("market.simulate", days=self.horizon,
                     substeps=self.substeps):
            run = market.simulate(self.params, self.init, self.horizon,
                                  self.substeps,
                                  rng=RandomSource(self.seed, i))
        with tr.span("analytics.returns_moments"):
            monthly = Series(analytics.log_returns(run.p, 21).values[::21])
            moments = analytics.distribution_stats(monthly)
        self.last_s = run.s
        # Series already rejects a non-finite price.
        ok = (all_within_unit(run.s.values, run.h.values)
              and all(math.isfinite(m) for m in moments))
        return OpResult(ok, work=self.horizon,
                        detail="" if ok else f"realization {i} out of bounds",
                        digest=digest_arrays(run.s.values, run.h.values,
                                             run.p.values, moments))

    def probes(self, tr):
        n = 2000 if self.tiny else 20000
        state, params = self.init, self.params
        probe(tr, "market.drift", lambda: market.drift(state, params), n)
        rng = RandomSource(self.seed, _PROBE_STREAM + 1)
        probe(tr, "core.RandomSource.standard_normal", rng.standard_normal,
              5 * n)
        s = self.last_s
        probe(tr, "pricing.price_from_sentiment",
              lambda: price_from_sentiment(s, params), 5 if self.tiny else 50)

    def summary(self, records, positions):
        per_s = rate(positions, "realization")
        sims = [r["s"] for r in records if r["kind"] == "realization"]
        return per_s, {
            "realization_days_per_s": metric(per_s, "1/s", len(sims)),
            "realization_ms_p50": latency_metric(sims, 1e3, "ms"),
        }

    def layer_metrics(self, tr):
        sims = tr.named("market.simulate")
        substeps = sum((s["days"] - 1) * s["substeps"] for s in sims)
        return {
            "market.simulate_ms_p50": metric(median_ms(tr, "market.simulate"),
                                             "ms", len(sims)),
            "market.substep_us": metric(
                1e6 * sum(span_seconds(s) for s in sims) / substeps, "us",
                computed="simulate time / substeps"),
            "market.substeps": metric(
                self.realizations * (self.horizon - 1) * self.substeps,
                "count"),
            "market.drift_us": metric(tr.per_call_us("market.drift"), "us"),
            "core.rng_normal_us": metric(
                tr.per_call_us("core.RandomSource.standard_normal"), "us"),
            "pricing.price_from_sentiment_ms": metric(
                tr.per_call_us("pricing.price_from_sentiment") / 1e3, "ms"),
            "analytics.returns_moments_us": metric(
                1e3 * median_ms(tr, "analytics.returns_moments"), "us"),
        }
