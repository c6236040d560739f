"""spin_oracle: the exact Glauber chain in two opposite shapes.

Phase A is meanfield_compare on the criterion-4 configuration (N_s = 10^4,
N_h = 10^3, 500 time units, sample step 1): many short trajectories plus
one solve_ivp.  Phase B is one long chain on the criterion-3 configuration
(N_s = 8, N_h = 4, constant fields, horizon 2*10^5, about 2.7*10^5
events), checked against the enumerated equilibrium.  It is the only
workload that runs glauber.
"""

from __future__ import annotations

import statistics

import numpy as np
from scipy import stats as sstats

from newsmarket.core import RandomSource
from newsmarket.glauber import (SpinMacroState, SpinSystemConfig,
                                equilibrium_distribution, meanfield_compare,
                                simulate_glauber, transition_rates)

from .common import (OpResult, Workload, all_within_unit, digest_arrays,
                     latency_metric, metric, probe)
from tracing import span_seconds

MEANFIELD = SpinSystemConfig(N_s=10_000, N_h=1_000, J11=1.1, J12=0.55,
                             J21=5.5, theta=1.0, w_s=0.04, w_h=0.4)
CHAIN = SpinSystemConfig(N_s=8, N_h=4, J11=1.2, J12=0.5, J21=1.0, J22=0.3,
                         mu_s=0.7, mu_h=0.4, theta=0.9, w_s=1.0, w_h=1.0,
                         b_s=0.2, b_h=-0.1)
MAX_DEVIATION = 0.03
# Chain samples 100 time units apart are independent (relaxation time ~1),
# so a correct chain fails this chi-square test with probability 1e-4.
CHI2_P_MIN = 1e-4
CHAIN_SAMPLE_STEP = 100.0
# Phase A uses streams 0 .. realizations-1, the chain and the probes
# streams far above them.
_CHAIN_STREAM = 1_000_000
REST_PAIRS = 5


class SpinOracle(Workload):
    name = "spin_oracle"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.mf_horizon = 50.0 if tiny else 500.0
        self.realizations = 8 if tiny else 20
        self.chain_horizon = 2e4 if tiny else 2e5
        _, _, self.p0 = equilibrium_distribution(CHAIN)
        self.mf_events = 0

    def warm_up(self):
        simulate_glauber(CHAIN, 100.0, RandomSource(self.seed, _CHAIN_STREAM))
        meanfield_compare(MEANFIELD, 2.0, 1,
                          RandomSource(self.seed, _CHAIN_STREAM + 1))

    def ops(self):
        return [("meanfield", self._meanfield), ("chain", self._chain)]

    def _meanfield(self, tr):
        with tr.span("glauber.meanfield_compare",
                     realizations=self.realizations):
            rep = meanfield_compare(MEANFIELD, self.mf_horizon,
                                    self.realizations,
                                    RandomSource(self.seed, 0),
                                    sample_step=1.0)
        ok = (rep.max_deviation <= MAX_DEVIATION
              and all_within_unit(rep.mean_s, rep.mean_h))
        # meanfield_compare does not report its event count; decompose()
        # counts it once, outside the timed rounds.
        return OpResult(ok, work=0.0,
                        detail="" if ok else
                        f"mean-field max deviation {rep.max_deviation:.4f}",
                        digest=digest_arrays(rep.mean_s, rep.mean_h))

    def _chain(self, tr):
        with tr.span("glauber.simulate_glauber", chain=True) as sp:
            traj = simulate_glauber(CHAIN, self.chain_horizon,
                                    RandomSource(self.seed, _CHAIN_STREAM),
                                    sample_step=CHAIN_SAMPLE_STEP)
            sp["events"] = traj.n_events
        p_value = self._chi2_p(traj)
        ok = p_value > CHI2_P_MIN and all_within_unit(traj.s, traj.h)
        return OpResult(ok, work=traj.n_events,
                        detail="" if ok else f"chain chi-square p {p_value:.2e}",
                        digest=digest_arrays(traj.s, traj.h))

    def _chi2_p(self, traj) -> float:
        keep = traj.times >= CHAIN_SAMPLE_STEP
        i_s = ((traj.s[keep] * CHAIN.N_s).round().astype(int) + CHAIN.N_s) // 2
        i_h = ((traj.h[keep] * CHAIN.N_h).round().astype(int) + CHAIN.N_h) // 2
        counts = np.zeros_like(self.p0)
        np.add.at(counts, (i_s, i_h), 1)
        expected = len(i_s) * self.p0
        # Pool the cells expected to hold fewer than five samples.
        big = expected >= 5.0
        obs = np.append(counts[big], counts[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        if exp[-1] == 0.0:
            obs, exp = obs[:-1], exp[:-1]
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        return float(sstats.chi2.sf(chi2, len(exp) - 1))

    def decompose(self, tr):
        """Rerun phase A's trajectories one by one, on the substreams
        meanfield_compare gives them, to count their events and to time
        them apart from the ODE solve and the averaging.

        The rest is a few percent of phase A, below the run-to-run noise of
        the whole, so it is timed on one-realization calls instead: each
        against its own trajectory, in interleaved pairs."""
        rng = RandomSource(self.seed, 0)
        events = 0
        for i in range(self.realizations):
            with tr.span("glauber.simulate_glauber",
                         inner_of="glauber.meanfield_compare") as sp:
                traj = simulate_glauber(MEANFIELD, self.mf_horizon,
                                        rng.substream(i), None, 1.0)
                sp["events"] = traj.n_events
            events += traj.n_events
        self.mf_events = events
        if not tr.enabled:
            return
        for _ in range(REST_PAIRS):
            with tr.span("glauber.meanfield_compare", pair=True):
                meanfield_compare(MEANFIELD, self.mf_horizon, 1, rng,
                                  sample_step=1.0)
            with tr.span("glauber.simulate_glauber", pair=True):
                simulate_glauber(MEANFIELD, self.mf_horizon,
                                 rng.substream(0), None, 1.0)

    def probes(self, tr):
        n = 2000 if self.tiny else 20000
        state = SpinMacroState(S=MEANFIELD.N_s // 2, H=MEANFIELD.N_h // 2)
        probe(tr, "glauber.transition_rates",
              lambda: transition_rates(state, MEANFIELD), n)
        rng = RandomSource(self.seed, _CHAIN_STREAM + 2)
        probe(tr, "core.RandomSource.uniform", rng.uniform, 5 * n)
        probe(tr, "core.RandomSource.exponential", rng.exponential, 5 * n)

    def summary(self, records, positions):
        mf, chain = positions
        per_s = (self.mf_events + chain["work"]) / (mf["s"] + chain["s"])
        return per_s, {
            "ensemble_events_per_s": metric(self.mf_events / mf["s"], "1/s"),
            "chain_events_per_s": metric(chain["work"] / chain["s"], "1/s"),
            "meanfield_ms_p50": latency_metric(
                [r["s"] for r in records if r["kind"] == "meanfield"], 1e3,
                "ms"),
            "chain_ms_p50": latency_metric(
                [r["s"] for r in records if r["kind"] == "chain"], 1e3, "ms"),
        }

    def layer_metrics(self, tr):
        traj = tr.named("glauber.simulate_glauber")
        mfc = tr.named("glauber.meanfield_compare")
        inner = [s for s in traj if "inner_of" in s]
        chains = [s for s in traj if s.get("chain")]
        inner_s = sum(span_seconds(s) for s in inner)
        chain_us = [1e6 * span_seconds(s) / s["events"] for s in chains]
        return {
            "glauber.trajectory_ms_p50": latency_metric(
                [span_seconds(s) for s in inner], 1e3, "ms"),
            "glauber.ensemble_event_us": metric(
                1e6 * inner_s / self.mf_events, "us"),
            "glauber.events": metric(self.mf_events + chains[0]["events"],
                                     "count"),
            "glauber.meanfield_rest_ms": metric(
                1e3 * statistics.median(
                    span_seconds(m) - span_seconds(t) for m, t in zip(
                        [s for s in mfc if s.get("pair")],
                        [s for s in traj if s.get("pair")])),
                "ms", REST_PAIRS,
                computed="one-realization meanfield_compare minus its "
                         "trajectory"),
            "glauber.chain_event_us": metric(statistics.median(chain_us),
                                             "us", len(chain_us)),
            "glauber.transition_rates_us": metric(
                tr.per_call_us("glauber.transition_rates"), "us"),
            "core.rng_uniform_us": metric(
                tr.per_call_us("core.RandomSource.uniform"), "us"),
            "core.rng_exponential_us": metric(
                tr.per_call_us("core.RandomSource.exponential"), "us"),
        }
