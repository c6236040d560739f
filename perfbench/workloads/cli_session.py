"""cli_session: a scripted sequence of `python -m newsmarket` calls.

Each call is its own subprocess, started only when the previous one has
exited, so interpreter start and imports dominate.  The session drives
market in full mode with a time-varying beta1 profile, reads its CSVs
back through `stats`, and runs simulate-empirical, every `analyze` task
and a small `glauber` pair.  Every call must exit 0, and an output file
written again later in the same session must come out byte-identical.
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from .common import (MAIN, OpResult, Workload, ar1_series, latency_metric,
                     metric, probe, rate)
from tracing import span_seconds

SUBCOMMANDS = ("simulate-theory", "simulate-empirical", "analyze", "glauber",
               "stats")
IMPORT_PROBES = ("newsmarket.core", "newsmarket.analytics", "newsmarket.cli")
_IMPORT_CODE = ("import time; t = time.perf_counter(); import {}; "
                "print(time.perf_counter() - t)")


def _kv(values: dict) -> str:
    return "".join(f"{k} = {v!r}\n" for k, v in values.items())


class CliSession(Workload):
    name = "cli_session"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        d = Path(workdir)
        self.dir = d
        self.horizon = 700 if tiny else 2000
        main = {**MAIN, "gamma": 56.0, "delta": 0.03, "kappa": 1.0}
        files = {
            "main.txt": _kv(main),
            "full.txt": _kv({**main, "beta3": 0.1, "beta4": 0.2}),
            "cycle.txt": _kv({**main, "gamma": 62.0, "delta": 0.0,
                              "kappa": 0.0}),
            "spin.txt": _kv({"N_s": 200, "N_h": 50, "J11": 1.1, "J12": 0.55,
                             "J21": 2.2, "theta": 1.0, "w_s": 0.04,
                             "w_h": 0.4}),
        }
        for name, text in files.items():
            (d / name).write_text(text)
        # Seeded beta1 = 1/theta profile wandering around the main 1.1.
        rng = np.random.default_rng(self.seed)
        theta = 1.0 / (1.1 + 0.03 * np.sin(np.arange(self.horizon) / 150.0
                                           + rng.uniform(0, 2 * np.pi)))
        self._write_csv("theta.csv", "theta", theta)
        self._write_csv("news.csv", "H", ar1_series(self.seed, 1000))
        self.calls = self._script()
        # Output digest and size of each call's first run in this process.
        self.seen: dict = {}
        self.sizes: dict = {}

    def _write_csv(self, name, label, values):
        lines = [f"date_index,{label}"]
        lines += [f"{i},{v!r}" for i, v in enumerate(values.tolist())]
        (self.dir / name).write_text("\n".join(lines) + "\n")

    def _script(self) -> list:
        """(argv, output paths) per call, in session order."""
        d, seed = self.dir, str(self.seed)
        run0 = str(d / "theory" / "run_000.csv")
        theory = ["simulate-theory", "--params", str(d / "full.txt"),
                  "--mode", "full", "--theta", str(d / "theta.csv"),
                  "--horizon", str(self.horizon), "--realizations", "2",
                  "--seed", seed, "--out", str(d / "theory")]
        theory_out = [d / "theory" / n for n in
                      ("run_000.csv", "run_001.csv", "ensemble_mean.csv",
                       "manifest.txt")]

        def out(name):
            return str(d / name)

        calls = [
            (theory, theory_out),
            (["stats", "returns", "--input", run0, "--column", "p",
              "--out", out("returns.csv")], None),
            (["stats", "moments", "--input", out("returns.csv"),
              "--out", out("moments.txt")], None),
            (["stats", "acf", "--input", run0, "--column", "s",
              "--out", out("acf.csv")], None),
            (["stats", "volatility", "--input", run0, "--column", "p",
              "--out", out("volatility.csv")], None),
            (["stats", "lowpass", "--input", run0, "--column", "s",
              "--out", out("lowpass.csv")], None),
            (["simulate-empirical", "--input", out("news.csv"),
              "--params", out("main.txt"), "--out", out("empirical.csv")],
             None),
            (["analyze", "equilibria", "--params", out("main.txt"),
              "--out", out("equilibria.csv")], None),
            (["analyze", "thresholds", "--params", out("main.txt"),
              "--out", out("thresholds.csv")], None),
            (["analyze", "sweep", "--params", out("main.txt"),
              "--sweep", "gamma", "--range", "0:100", "--steps", "41",
              "--out", out("sweep.csv")], None),
            (["analyze", "potential", "--params", out("main.txt"),
              "--out", out("potential.csv")], None),
            (["analyze", "heatmap", "--params", out("main.txt"),
              "--grid", "61", "--out", out("heatmap.csv")], None),
            (["analyze", "limit-cycle", "--params", out("cycle.txt"),
              "--out", out("limit_cycle.txt")], None),
            (["glauber", "trajectory", "--params", out("spin.txt"),
              "--horizon", "100", "--sample-step", "1", "--seed", seed,
              "--out", out("glauber_trajectory.csv")], None),
            (["glauber", "meanfield", "--params", out("spin.txt"),
              "--horizon", "100", "--realizations", "4", "--seed", seed,
              "--out", out("glauber_meanfield.txt")], None),
        ]
        if self.tiny:
            keep = (0, 1, 6, 7, 13)
            calls = [calls[i] for i in keep]
        return [(argv, outs or [Path(argv[argv.index("--out") + 1])])
                for argv, outs in calls]

    def _run_cli(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "newsmarket", *argv],
                              cwd=self.dir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)

    def warm_up(self):
        self._run_cli(["analyze", "equilibria", "--params",
                       str(self.dir / "main.txt"),
                       "--out", str(self.dir / "warm_up.csv")])

    def ops(self):
        return [("call", lambda tr, i=i: self._call(tr, i))
                for i in range(len(self.calls))]

    def _call(self, tr, i):
        argv, outs = self.calls[i]
        with tr.span("cli.subprocess", sub=argv[0], call=i):
            proc = self._run_cli(argv)
        if proc.returncode != 0:
            return OpResult(False, work=1.0, detail=f"{argv[:2]} exited "
                            f"{proc.returncode}: {proc.stderr.strip()[-200:]}")
        h = hashlib.sha256()
        size = 0
        for path in outs:
            data = path.read_bytes()
            size += len(data)
            h.update(data)
        digest = h.digest()
        first = self.seen.setdefault(i, digest)
        self.sizes.setdefault(i, size)
        ok = size > 0 and digest == first
        return OpResult(ok, work=1.0,
                        detail="" if ok else f"{argv[:2]} output changed "
                                             "between identical calls",
                        digest=digest)

    def decompose(self, tr):
        """Run each call of the session in-process through cli.main, so
        that subprocess time minus in-process time gives the start-up."""
        if not tr.enabled:
            return
        from newsmarket import cli
        for i, (argv, _) in enumerate(self.calls):
            with tr.span("cli.main", sub=argv[0], call=i):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"in-process {argv[:2]} returned {code}")

    def probes(self, tr):
        from newsmarket import analytics, market
        from newsmarket.core import (MarketState, RandomSource, load_params,
                                     read_series, write_series)
        n = 3 if self.tiny else 20
        run0 = self.dir / "theory" / "run_000.csv"
        main = self.dir / "main.txt"
        probe(tr, "core.read_series", lambda: read_series(run0, "p"), n)
        p = read_series(run0, "p")
        s = read_series(run0, "s")
        scratch = self.dir / "probe_write.csv"
        probe(tr, "core.write_series", lambda: write_series(scratch, p), n)
        probe(tr, "core.load_params", lambda: load_params(main), 10 * n)
        probe(tr, "analytics.autocorrelation",
              lambda: analytics.autocorrelation(s, 50), n)
        probe(tr, "analytics.rolling_volatility",
              lambda: analytics.rolling_volatility(p, 21, 300), n)
        probe(tr, "analytics.fourier_lowpass",
              lambda: analytics.fourier_lowpass(s, 850.0), n)
        params = load_params(self.dir / "full.txt")
        theta = read_series(self.dir / "theta.csv")
        with tr.span("market.simulate", mode="full", days=self.horizon,
                     substeps=8):
            market.simulate(params, MarketState(0.5, 0.03), self.horizon,
                            rng=RandomSource(self.seed, 1_000_000),
                            theta_profile=theta, mode=market.FULL)
        for module in IMPORT_PROBES:
            for _ in range(1 if self.tiny else 3):
                with tr.span("import." + module) as sp:
                    out = subprocess.run(
                        [sys.executable, "-c", _IMPORT_CODE.format(module)],
                        cwd=self.dir, capture_output=True, text=True,
                        check=True)
                    sp["import_s"] = float(out.stdout.strip())

    def summary(self, records, positions):
        calls = [r["s"] for r in records if r["kind"] == "call"]
        return rate(positions, "call"), {
            "cli_call_p50_ms": latency_metric(calls, 1e3, "ms"),
        }

    def layer_metrics(self, tr):
        out = {}
        inproc = {sp["call"]: sp for sp in tr.named("cli.main")}
        for sub in SUBCOMMANDS:
            ms = [1e3 * span_seconds(s) for s in inproc.values()
                  if s["sub"] == sub]
            out[f"cli.{sub.replace('-', '_')}_ms"] = metric(
                statistics.median(ms), "ms", len(ms))
        startup = []
        for i, sp in inproc.items():
            sub_s = [span_seconds(s) for s in tr.named("cli.subprocess")
                     if s["call"] == i]
            startup.append(statistics.median(sub_s) - span_seconds(sp))
        out["cli.startup_ms"] = metric(
            1e3 * statistics.median(startup), "ms", len(startup),
            computed="subprocess time minus in-process cli.main time")
        for module in IMPORT_PROBES:
            layer = module.split(".")[1]
            # Measured inside the child; scaled like the span around it.
            secs = [s["import_s"] * s["s"] / s["raw_s"]
                    for s in tr.named("import." + module)]
            out[f"{layer}.import_ms"] = metric(1e3 * statistics.median(secs),
                                               "ms", len(secs))
        full = tr.named("market.simulate")[0]
        out.update({
            "core.read_series_ms": metric(
                tr.per_call_us("core.read_series") / 1e3, "ms"),
            "core.write_series_ms": metric(
                tr.per_call_us("core.write_series") / 1e3, "ms"),
            "core.load_params_ms": metric(
                tr.per_call_us("core.load_params") / 1e3, "ms"),
            "core.bytes_written": metric(sum(self.sizes.values()), "bytes"),
            "analytics.acf_ms": metric(
                tr.per_call_us("analytics.autocorrelation") / 1e3, "ms"),
            "analytics.volatility_ms": metric(
                tr.per_call_us("analytics.rolling_volatility") / 1e3, "ms"),
            "analytics.lowpass_ms": metric(
                tr.per_call_us("analytics.fourier_lowpass") / 1e3, "ms"),
            "market.full_substep_us": metric(
                1e6 * span_seconds(full)
                / ((full["days"] - 1) * full["substeps"]), "us",
                computed="full-mode simulate time / substeps"),
        })
        return out
