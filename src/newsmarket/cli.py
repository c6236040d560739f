"""Command-line front end: reproducible runs of every pipeline.

Every output file starts with comment lines recording the package
version, the command, the parameters, and the seed, so a file is enough
to rerun the computation that produced it.  Identical invocations give
byte-identical files; nothing time- or host-dependent is written.

Each subcommand imports the modules it runs when it runs, so one call
loads only its own: `stats` needs core and analytics, `glauber` core and
glauber.  Every call is a fresh interpreter that loads, and without a
bytecode cache compiles, each module it imports; start-up dominates the
short calls.

Worker count for ensembles comes from the NEWSMARKET_WORKERS environment
variable (default 1); results do not depend on it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import (FULL, SIMPLIFIED, MarketState, RandomSource, _PARAM_FIELDS,
                   _SUBSTEPS, _count, _fields_line, _finite, _fmt, _length,
                   _load_record, _size, _streams, _write_report, _write_table,
                   load_params, read_series, write_series)

__all__ = ["main"]


def _header(command: str, *extra: str) -> list:
    return [f"newsmarket {__version__}", f"command: {command}", *extra]


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate_empirical(args) -> None:
    from .pricing import initial_sentiment, price_from_sentiment
    from .sentiment import integrate_sentiment

    params = load_params(args.params)
    h_series = read_series(args.input)
    s0 = (args.init_s if args.init_s is not None
          else initial_sentiment(params.beta1, params.beta2,
                                 float(h_series.values[0])))
    s = integrate_sentiment(h_series, s0, params, substeps=args.substeps)
    p = price_from_sentiment(s, params)
    head = _header("simulate-empirical", _fields_line("params", params,
                                                      _PARAM_FIELDS),
                   f"input: {Path(args.input).name}",
                   f"init_s: {_fmt(s0)}")
    _write_table(args.out, head, ("date_index", "H", "s", "p"),
                 zip(s.times().astype(int), h_series.values, s.values,
                     p.values))


def cmd_simulate_theory(args) -> None:
    from .market import ensemble
    from .pricing import initial_sentiment

    params = load_params(args.params)
    theta = read_series(args.theta) if args.theta else None
    h0 = args.init_h if args.init_h is not None else math.tanh(params.delta)
    if args.init_s is not None:
        s0 = args.init_s
    elif args.init_h is not None:
        s0 = 0.0
    else:
        s0 = initial_sentiment(params.beta1, params.beta2, h0)
    init = MarketState(s=s0, h=h0)
    rng = RandomSource(args.seed)
    mean, runs = ensemble(
        params, init, args.horizon, args.realizations, rng,
        theta_profile=theta, mode=args.mode, substeps=args.substeps,
        beta1_shift=args.beta1_shift)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = _header("simulate-theory",
                   _fields_line("params", params, _PARAM_FIELDS),
                   f"seed: {args.seed}")
    for i, run in enumerate(runs):
        head = base + [f"realization: {i} (stream {run.stream_id})"]
        _write_table(out_dir / f"run_{i:03d}.csv", head,
                     ("date_index", "s", "h", "p"),
                     zip(run.s.times().astype(int), run.s.values,
                         run.h.values, run.p.values))
    write_series(out_dir / "ensemble_mean.csv", mean, label="mean_s",
                 header=base + [f"realizations: {args.realizations}"])
    _write_report(out_dir / "manifest.txt", _header("simulate-theory"), [
        ("version", __version__),
        ("seed", args.seed),
        ("horizon", args.horizon),
        ("realizations", args.realizations),
        ("mode", args.mode),
        ("substeps", args.substeps),
        ("beta1_shift", args.beta1_shift),
        ("theta_profile", Path(args.theta).name if args.theta else "none"),
        ("init_s", init.s),
        ("init_h", init.h),
    ] + [(k, getattr(params, k)) for k in _PARAM_FIELDS])


def cmd_analyze(args) -> None:
    from . import phase
    from .market import noise_dominance_map
    from .sentiment import potential_uc

    params = load_params(args.params)
    head = _header(f"analyze {args.task}",
                   _fields_line("params", params, _PARAM_FIELDS))

    if args.task == "equilibria":
        _write_table(args.out, head, (
            "s_star", "h_star", "branch", "class", "re_lambda_plus",
            "im_lambda_plus", "re_lambda_minus", "im_lambda_minus",
        ), [(p.s_star_pt, p.h_star_pt, p.branch, p.stability,
             p.eigenvalues[0].real, p.eigenvalues[0].imag,
             p.eigenvalues[1].real, p.eigenvalues[1].imag)
            for p in phase.find_equilibria(params)])
    elif args.task == "thresholds":
        rows = []
        for pt in phase.find_equilibria(params):
            if phase._psi_phi_eta(pt.s_star_pt, params)[0] <= 0.0:
                continue                      # saddle branch: no thresholds
            g = phase.gamma_thresholds(pt.s_star_pt, params)
            rows.append((pt.branch, pt.s_star_pt, *g))
        if not rows:
            raise ValueError("no branch admits node/focus transitions")
        _write_table(args.out,
                     head + ["gamma units: multiply by w_s for gamma_bar"],
                     ("branch", "s_star", "gamma_node_focus",
                      "gamma_focus_unstable", "gamma_unstable_node"), rows)
    elif args.task == "sweep":
        lo, _, hi = args.range.partition(":")
        try:
            value_range = float(lo), float(hi)
        except ValueError:
            raise ValueError("--range must have the form LO:HI, got "
                             f"{args.range!r}") from None
        rows, transitions = phase.bifurcation_sweep(
            params, args.sweep, value_range, args.steps)
        extra = [f"sweep: {args.sweep} from {lo} to {hi} in {args.steps} steps"]
        extra += [f"transition: {br} {_fmt(v0)}->{_fmt(v1)} {c0}->{c1}"
                  for v0, v1, br, c0, c1 in transitions]
        _write_table(args.out, head + extra, (args.sweep, "branch", "class"),
                     [(v, br, classes[br]) for v, classes in rows
                      for br in sorted(classes)])
    elif args.task == "limit-cycle":
        init = MarketState(s=args.init_s, h=args.init_h)
        rep = phase.detect_limit_cycle(params, init, args.max_days,
                                       substeps=args.substeps,
                                       reverse=args.reverse)
        _write_report(args.out, head + [
            f"init: s={_fmt(init.s)} h={_fmt(init.h)}",
            f"max_days: {args.max_days}",
            f"direction: {'reverse' if args.reverse else 'forward'}",
        ], [
            ("exists", rep.exists),
            ("period_days", rep.period_days),
            ("s_min", rep.s_amplitude[0]),
            ("s_max", rep.s_amplitude[1]),
            ("convergence_iterations", rep.convergence_iterations),
            ("stable", rep.stable),
        ])
    elif args.task == "heatmap":
        n = _count("grid", args.grid)
        _length(n * n, f"grid = {n} is too large: a {n}x{n} map does not "
                "fit in an array")
        grid = np.linspace(-1.0, 1.0, n)
        values = noise_dominance_map(params, grid, grid)
        _write_table(args.out, head + [f"grid: {args.grid}x{args.grid}"],
                     ("s", "h", "feedback_to_noise"),
                     zip(np.repeat(grid, args.grid), np.tile(grid, args.grid),
                         values.ravel()))
    elif args.task == "potential":
        curve = potential_uc(params, params.c, grid_size=args.grid)
        extra = [f"extremum: s={_fmt(s)} kind={kind}"
                 for s, kind in curve.extrema]
        _write_table(args.out, head + extra, ("s", "potential"),
                     zip(curve.s_grid, curve.u_values))


def cmd_glauber(args) -> None:
    from .glauber import (SpinMacroState, SpinSystemConfig, _runs,
                          meanfield_compare)

    config = _load_record(args.params, SpinSystemConfig)
    head = _header(f"glauber {args.task}",
                   _fields_line("config", config,
                                [f.name for f in fields(config)]),
                   f"seed: {args.seed}")
    rng = RandomSource(args.seed)
    init = SpinMacroState(
        S=config.N_s if args.init_S is None else args.init_S,
        H=config.N_h if args.init_H is None else args.init_H)

    if args.task == "trajectory":
        n, streams = _streams("realizations", args.realizations, rng)
        run = _runs(config, args.horizon, n, init, args.sample_step)[2]
        out = Path(args.out)
        if n > 1:
            out.mkdir(parents=True, exist_ok=True)
        for i, traj in enumerate(map(run, streams)):
            path, extra = ((out, []) if n == 1 else
                           (out / f"run_{i:03d}.csv", [f"realization: {i}"]))
            _write_table(path, head + extra + [f"events: {traj.n_events}"],
                         ("t", "s", "h"), zip(traj.times, traj.s, traj.h))
    elif args.task == "meanfield":
        report = meanfield_compare(config, args.horizon, args.realizations,
                                   rng, init,
                                   1.0 if args.sample_step is None
                                   else args.sample_step)
        _write_report(args.out, head + [
            f"horizon: {_fmt(args.horizon)}",
            f"realizations: {args.realizations}",
        ], [
            ("max_deviation_s", report.max_deviation_s),
            ("max_deviation_h", report.max_deviation_h),
            ("rms_deviation_s", report.rms_deviation_s),
            ("rms_deviation_h", report.rms_deviation_h),
            ("max_deviation", report.max_deviation),
            ("rms_deviation", report.rms_deviation),
        ])


def cmd_stats(args) -> None:
    from . import analytics

    x = read_series(args.input, column=args.column)
    head = _header(f"stats {args.task}", f"input: {Path(args.input).name}",
                   f"column: {args.column if args.column else 'first'}")

    if args.task == "returns":
        r = analytics.log_returns(x, args.horizon)
        write_series(args.out, r, label="log_return",
                     header=head + [f"horizon_days: {args.horizon}"])
    elif args.task == "moments":
        mean, var, skew, kurt = analytics.distribution_stats(
            x, normalize=args.normalize)
        _write_report(args.out,
                      head + [f"normalize: {_fmt(args.normalize)}",
                              f"samples: {len(x)}"], [
                          ("mean", mean),
                          ("variance", var),
                          ("skewness", skew),
                          ("excess_kurtosis", kurt),
                      ])
    elif args.task == "histogram":
        vals = x.values
        name = Path(args.input).name
        if args.raw:
            _finite(f"{name}: data range max - min overflows", np.ptp, vals)
        else:
            std = math.sqrt(analytics._spread(vals, name))
            if std == 0.0:
                raise ValueError("constant input cannot be normalized")
            vals = (vals - np.mean(vals)) / std
        _size("bins", args.bins)
        density, edges = np.histogram(vals, bins=args.bins, density=True)
        _write_table(args.out, head + [
            f"bins: {args.bins}",
            f"normalized: {_fmt(not args.raw)}",
            f"samples: {len(x)}",
        ], ("bin_left", "bin_right", "density"),
            zip(edges[:-1], edges[1:], density))
    elif args.task == "acf":
        _write_table(args.out, head + [f"samples: {len(x)}"],
                     ("lag", "acf", "band"),
                     analytics.autocorrelation(x, args.max_lag))
    elif args.task == "volatility":
        v = analytics.rolling_volatility(x, args.increment, args.window)
        write_series(args.out, v, label="volatility", header=head + [
            f"increment_days: {args.increment}",
            f"window_days: {args.window}",
        ])
    elif args.task == "lowpass":
        f = analytics.fourier_lowpass(x, args.min_period)
        write_series(args.out, f, label="filtered", header=head + [
            f"min_period_days: {_fmt(args.min_period)}",
        ])


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsmarket",
        description="Sentiment-driven market model: simulation, phase "
                    "analysis, spin kinetics, and series statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-empirical",
                       help="drive sentiment with a measured information "
                            "series and emit (day, H, s, p)")
    p.add_argument("--input", required=True,
                   help="information series CSV (date_index,value)")
    p.add_argument("--params", required=True, help="parameter file")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--init-s", type=float, default=None,
                   help="initial sentiment (default: equilibrium for H[0])")
    p.add_argument("--substeps", type=int, default=_SUBSTEPS)
    p.set_defaults(func=cmd_simulate_empirical)

    p = sub.add_parser("simulate-theory",
                       help="run the closed stochastic model; one CSV per "
                            "realization plus ensemble mean and manifest")
    p.add_argument("--params", required=True)
    p.add_argument("--horizon", type=int, required=True,
                   help="daily samples per realization")
    p.add_argument("--realizations", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", default=None,
                   help="temperature profile CSV overriding beta1 = 1/theta")
    p.add_argument("--mode", choices=(SIMPLIFIED, FULL), default=SIMPLIFIED)
    p.add_argument("--substeps", type=int, default=_SUBSTEPS)
    p.add_argument("--beta1-shift", type=float, default=0.0)
    p.add_argument("--init-s", type=float, default=None)
    p.add_argument("--init-h", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate_theory)

    p = sub.add_parser("analyze",
                       help="equilibria, thresholds, sweeps, limit cycles, "
                            "noise heat map, potential curve")
    p.add_argument("task", choices=("equilibria", "thresholds", "sweep",
                                    "limit-cycle", "heatmap", "potential"))
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sweep", choices=("gamma", "beta2", "delta"),
                   default="gamma", help="sweep: which field to vary")
    p.add_argument("--range", default="0:100",
                   help="sweep: LO:HI of the varied field; write a "
                   "negative LO as --range=LO:HI")
    p.add_argument("--steps", type=int, default=101, help="sweep: grid size")
    p.add_argument("--init-s", type=float, default=0.9,
                   help="limit-cycle: starting sentiment")
    p.add_argument("--init-h", type=float, default=0.0,
                   help="limit-cycle: starting information flow")
    p.add_argument("--max-days", type=int, default=20000,
                   help="limit-cycle: integration budget")
    p.add_argument("--reverse", action="store_true",
                   help="limit-cycle: integrate backward (unstable cycles)")
    p.add_argument("--substeps", type=int, default=_SUBSTEPS)
    p.add_argument("--grid", type=int, default=101,
                   help="heatmap/potential: grid points per axis")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("glauber",
                       help="spin-kinetics trajectories and the "
                            "deterministic-limit comparison")
    p.add_argument("task", choices=("trajectory", "meanfield"))
    p.add_argument("--params", required=True, help="spin config file")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--realizations", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-step", type=float, default=None,
                   help="record on a uniform grid instead of per event")
    p.add_argument("--init-S", type=int, default=None)
    p.add_argument("--init-H", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_glauber)

    p = sub.add_parser("stats",
                       help="returns, moments, histogram, acf, rolling "
                            "volatility, Fourier low-pass")
    p.add_argument("task", choices=("returns", "moments", "histogram",
                                    "acf", "volatility", "lowpass"))
    p.add_argument("--input", required=True,
                   help="series CSV (date_index,value)")
    p.add_argument("--column", default=None,
                   help="value column name for multi-column inputs "
                        "(default: first column after the index)")
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, default=21,
                   help="returns: difference horizon in days")
    p.add_argument("--normalize", action="store_true",
                   help="moments: rescale to zero mean / unit variance")
    p.add_argument("--bins", type=int, default=50, help="histogram: bins")
    p.add_argument("--raw", action="store_true",
                   help="histogram: skip zero-mean/unit-variance rescaling")
    p.add_argument("--max-lag", type=int, default=50, help="acf: last lag")
    p.add_argument("--increment", type=int, default=21,
                   help="volatility: increment days")
    p.add_argument("--window", type=int, default=300,
                   help="volatility: trailing window days")
    p.add_argument("--min-period", type=float, default=850.0,
                   help="lowpass: shortest surviving period, days")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
