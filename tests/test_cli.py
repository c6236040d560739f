"""End-to-end command-line runs, parsed back and checked against the API.

The inputs are those of tools/cli_digests.py, the CLI listing."""

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from cli_digests import CALLS, INPUTS, MAIN, SPINS, _fold
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from newsmarket import analytics, phase
from newsmarket.cli import main
from newsmarket.core import (
    MarketState,
    ModelParams,
    RandomSource,
    Series,
    load_params,
    read_series,
    write_series,
)
from newsmarket.glauber import SpinSystemConfig, simulate_glauber
from newsmarket.market import noise_dominance_map, simulate
from newsmarket.sentiment import integrate_sentiment, potential_uc


# The listing's calls by their --out file
_LISTED = {call.split()[-1]: call for call in CALLS}


def _write(directory, more=()):
    """Write the listing's inputs, and more, into directory."""
    for name, text in dict(INPUTS, **dict(more)).items():
        (directory / name).write_text(text)


def _input(name):
    """A fixture: the listing's input `name`, written into tmp_path."""
    @pytest.fixture
    def path(tmp_path):
        (tmp_path / name).write_text(INPUTS[name])
        return tmp_path / name
    return path


params_file, cycle_file, spin_file, h_file = map(
    _input, ["main.txt", "cycle.txt", "spins.txt", "H.csv"])


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        k, _, v = line.partition("=")
        out[k.strip()] = v.strip()
    return out


def read_text_table(path):
    """Parse a CSV with possibly non-numeric cells into column lists."""
    rows = [l for l in path.read_text().splitlines()
            if l and not l.startswith("#")]
    names = rows[0].split(",")
    cols = {n: [] for n in names}
    for r in rows[1:]:
        for n, cell in zip(names, r.split(",")):
            cols[n].append(cell)
    return cols


def test_help_and_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "newsmarket" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "bogus-task", "--params", "x", "--out", "y"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "newsmarket", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "newsmarket" in proc.stdout


# Every task of each subcommand, on the listing's inputs, and the package
# modules the subcommand may not load: it runs none of them
_SUBCOMMANDS = {
    "stats": ([f"stats {task} --input H.csv --horizon 5 --max-lag 5 "
               f"--increment 5 --window 20 --min-period 20 --out {task}"
               for task in ("returns", "moments", "histogram", "acf",
                            "volatility", "lowpass")],
              {"glauber", "phase", "market", "pricing", "sentiment",
               "reference"}),
    "glauber": ([f"glauber {task} --params spins.txt --horizon 5 "
                 f"--realizations 2 --sample-step 1 --out {task}"
                 for task in ("trajectory", "meanfield")],
                {"market", "phase", "analytics"}),
    "analyze": ([f"analyze {task} --params main.txt --steps 5 --grid 5 "
                 f"--max-days 400 --out {task}"
                 for task in ("equilibria", "thresholds", "sweep",
                              "limit-cycle", "heatmap", "potential")],
                {"glauber", "analytics"}),
    "simulate-theory": (
        ["simulate-theory --params main.txt --horizon 20 --out theory",
         "simulate-theory --params full.txt --mode full --theta theta.csv "
         "--horizon 80 --realizations 2 --out full"],
        {"glauber", "phase", "analytics"}),
    "simulate-empirical": (
        ["simulate-empirical --input H.csv --params main.txt --out emp.csv"],
        {"glauber", "phase", "analytics"}),
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_each_subcommand_loads_only_its_modules(tmp_path, command):
    # every call is a fresh interpreter that compiles what it imports, and
    # the CLI used to import all of the package for any subcommand; scipy
    # is a test dependency only, so importing it fails here, and with one
    # worker no process pool's modules load
    _write(tmp_path, {"full.txt": MAIN + "beta3 = 0.1\nbeta4 = 0.2\n"})
    calls, not_loaded = _SUBCOMMANDS[command]
    code = f"""
import sys
sys.modules["scipy"] = None
from newsmarket import cli
from newsmarket.core import RandomSource
for call in {calls!r}:
    assert cli.main(call.split()) == 0, call
assert RandomSource(0).standard_normal(8).shape == (8,)
if {command!r} == "glauber":
    from newsmarket import glauber
    config = glauber.SpinSystemConfig(N_s=4, N_h=2)
    assert glauber.equilibrium_distribution(config)[2].size == 15
print(*(m for m, v in sys.modules.items() if v is not None))
"""
    env = {k: v for k, v in os.environ.items() if k != "NEWSMARKET_WORKERS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    ours = {m.split(".")[1] for m in loaded if m.startswith("newsmarket.")}
    assert "cli" in ours and not ours & not_loaded, sorted(ours)
    assert not [m for m in loaded if m.split(".")[0] in (
        "scipy", "multiprocessing", "concurrent")]


def test_counts_too_large_for_an_array_are_named(tmp_path):
    # numpy refuses each size at once (10**15 floats are 7 PiB) and used to
    # escape as a MemoryError traceback; the realization counts used to
    # build 10**15 random streams one by one, so the calls run in a child
    # whose address space is capped at 512 MiB
    big = str(10 ** 15)
    _write(tmp_path)
    cases = [(f"{call} {big} --out out".split(), name) for call, name in [
        ("simulate-theory --params main.txt --horizon", "horizon_days"),
        ("simulate-theory --params main.txt --horizon 5 --realizations",
         "n_realizations"),
        ("analyze sweep --params main.txt --steps", "steps"),
        ("analyze heatmap --params main.txt --grid", "grid"),
        ("analyze potential --params main.txt --grid", "grid_size"),
        ("glauber trajectory --params spins.txt --horizon 5 --realizations",
         "realizations"),
        ("glauber meanfield --params spins.txt --horizon 5 --realizations",
         "n_realizations"),
        ("stats histogram --input H.csv --bins", "bins")]]
    code = f"""
import contextlib, io, resource
resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))
from newsmarket import cli
for argv, name in {cases!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(argv)
    print(status, err.getvalue().strip())
"""
    # one BLAS thread keeps numpy's own buffers well inside the cap
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases)
    for line, (_, name) in zip(lines, cases):
        assert line.startswith(f"1 error: {name} = {big} is too large"), line


@pytest.mark.parametrize("out, named", [
    ("err12", ["horizon_days * substeps = 5 * 1000000000000000"]),
    ("err13.csv",
     ["(w_s*N_s + w_h*N_h) * horizon * realizations = 5e+16 * 2 * 1"]),
    ("err14.txt", ["integration stalled at t = 0.69", "w_s", "theta", "J11"]),
], ids=["substeps", "flip-rate", "rate-equation"])
def test_calls_that_ran_for_ever_exit_by_name(tmp_path, out, named):
    # 10**15 RK4 substeps a day, about 10**17 flips, and a rate-equation
    # solve whose steps shrank to 1e-10 each ran past a 30 s timeout
    _write(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "newsmarket", *_LISTED[out].split()],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    for name in named:
        assert name in proc.stderr


# Bad inputs for the refusals below that the listing does not need
_BAD = {
    "bogus.txt": "w_s = 0.04\nbogus = 1\n",
    "no_w_s.txt": MAIN.replace("w_s = 0.04\n", ""),
    "bad_ratio.txt": "N_s = 8\nN_h = 4\nJ12 = 0.5\nJ21 = 0.9\n",
    "no_N_s.txt": "N_h = 4\n",
    "theta7.csv": "date_index,theta\n" + "".join(
        f"{d},1.25\n" for d in range(7, 57)),
    "flat.csv": "date_index,x\n" + "".join(f"{d},1.5\n" for d in range(60)),
    "flat.txt": _fold(1.0, 0.0, 0.03),
}

_SPREAD = "central moment overflows the float range"
_RANGE = "the float range"
_RATIO = "feedback-to-noise ratio in w_s, gamma and kappa overflows"
_GAMMAS = "gamma thresholds in w_s, w_h, beta1, beta2 and delta overflow"

# Calls that exit 1 with an error naming what is wrong, by the test each
# came from: a (call, fragment) pair, or a list of (id, call, fragment)
# rows.  A call runs with --out out, but one that the listing makes is
# named by its --out file.
REFUSALS = {
    # the run directory was made before the Glauber set-up ran, so each of
    # these calls exited 1 and left it empty behind
    "test_a_refused_glauber_trajectory_creates_no_directory": [
        ("budget-100000", "err31", "work budget"),
        *[(name, "glauber trajectory --params spins.txt --realizations 3 "
           + argv, fragment) for name, argv, fragment in [
              ("budget-3", "--horizon 1e8", "work budget"),
              ("horizon", "--horizon -1", "horizon"),
              ("sample-step", "--horizon 2 --sample-step 0", "sample_step"),
              ("init-S", "--horizon 2 --init-S 3", "S parity")]]],
    "test_missing_file_reports_error": (
        "simulate-empirical --input no.csv --params main.txt", "no.csv"),
    "test_bad_params_reports_error": (
        "simulate-empirical --input H.csv --params bogus.txt", "bogus"),
    "test_missing_required_param_names_the_key": (
        "simulate-empirical --input H.csv --params no_w_s.txt",
        "missing required keys: w_s"),
    "test_simulate_theory_rejects_a_theta_csv_not_starting_on_day_0": (
        "simulate-theory --params main.txt --horizon 20 --theta theta7.csv",
        "theta_profile must start on the run's day 0, got start day 7"),
    # horizon 1 sets no daily beta1, whose check refused longer runs
    "test_simulate_theory_rejects_a_non_finite_beta1_shift": [
        (shift, f"simulate-theory --params main.txt --horizon 1 "
         f"--beta1-shift={shift}", f"beta1_shift = {shift} is not finite")
        for shift in ("nan", "inf", "-inf")],
    # the --range=LO:HI form, so that a negative LO is not read as an option
    "test_analyze_sweep_rejects_bad_range": [
        (f"{text}-{fragment}", "analyze sweep --params main.txt --steps 3 "
         f"--range={text}", fragment) for text, fragment in [
            ("0:nan", "gamma range must be finite"),
            ("nan:100", "gamma range must be finite"),
            ("0:inf", "gamma range must be finite"),
            *[(t, "--range must have the form LO:HI")
              for t in ("5", "5:", ":5", "a:b", "0:1:2")],
            ("-10:10", "gamma must be non-negative")]],
    # 0 wrote a table with no rows; -2 failed in numpy without the flag
    "test_analyze_heatmap_rejects_an_empty_grid": [
        (grid, f"analyze heatmap --params main.txt --grid {grid}",
         "grid must be >= 1") for grid in ("0", "-2")],
    # beta1 = 1, beta2 = 0: the one root s* = 0 has beta1*(1 - s*^2) = 1
    "test_analyze_thresholds_without_a_stable_branch": (
        "analyze thresholds --params flat.txt",
        "no branch admits node/focus transitions"),
    "test_glauber_rejects_bad_config": [
        (name, f"glauber trajectory --params {name}.txt --horizon 1", part)
        for name, part in [("bad_ratio", "J21/J12"), ("no_N_s", "N_s")]],
    "test_glauber_trajectory_rejects_zero_realizations": (
        "glauber trajectory --params spins.txt --horizon 1.0 "
        "--realizations 0", "realizations must be >= 1"),
    "test_glauber_meanfield_rejects_zero_sample_step": (
        "glauber meanfield --params spins.txt --horizon 1.0 --sample-step 0",
        "sample_step must be positive"),
    # horizon / step is inf, far above any array length, or below
    # sys.maxsize but more points than numpy can hold; numpy refuses the
    # last before allocating anything
    "test_glauber_rejects_a_sample_step_too_small_for_its_grid": [
        (f"{step}-{task}", f"glauber {task} --params spins.txt --horizon 10 "
         f"--sample-step {step}", f"sample_step {float(step)!r} is too small")
        for task in ("trajectory", "meanfield")
        for step in ("5e-324", "1e-300", "2e-18")],
    "test_stats_zero_variance_error": (
        "stats moments --input flat.csv", "zero variance"),
    "test_stats_histogram_of_a_constant_column": (
        "stats histogram --input flat.csv",
        "constant input cannot be normalized"),
    "test_stats_histogram_names_a_bin_count_below_one": [
        (bins, f"stats histogram --input H.csv --bins {bins}",
         "bins must be >= 1") for bins in ("0", "-3")],
    "test_stats_lowpass_rejects_a_nan_period": (
        "stats lowpass --input H.csv --min-period nan", "min_period_days"),
    "test_stats_on_an_overflowing_spread_name_it": [
        ("moments", "err16.txt", f"returns: fourth {_SPREAD}"),
        ("moments-normalize", "stats moments --input huge.csv --normalize",
         f"returns: second {_SPREAD}"),
        ("acf", "err17.csv", f"x: second {_SPREAD}"),
        ("histogram", "err18.csv", f"huge.csv: second {_SPREAD}"),
        ("volatility", "err19.csv",
         f"x's 5-day differences: second {_SPREAD}")],
    "test_stats_on_an_overflowing_range_name_it": [
        ("returns", "err20.csv", f"p: 21-day differences overflow {_RANGE}"),
        ("lowpass", "err21.csv", f"x: Fourier coefficients overflow {_RANGE}"),
        ("histogram-raw", "err22.csv",
         f"edge.csv: data range max - min overflows {_RANGE}")],
    # heatmap and thresholds exited 0 with inf cells; the price failed as
    # "non-finite sample at position 0" (or 1), naming no field
    "test_an_overflowing_output_names_its_fields": [
        (name, out, f"{fragment} {_RANGE}") for name, out, fragment in [
            ("heatmap-kappa", "err23.csv", _RATIO),
            ("heatmap-w_s", "err24.csv", _RATIO),
            ("thresholds-delta", "err25.csv", _GAMMAS),
            ("thresholds-beta2", "err26.csv", _GAMMAS),
            ("empirical-price", "err27.csv",
             "log price in a1, a2, a4 and s_star overflows"),
            ("theory-slow-channel", "err28",
             "log price's slow channel in a2, s_star and a4 overflows"),
            ("potential", "err29.csv",
             "sentiment potential in w_s, beta1 and the tilt c overflows"),
            ("potential-tilt", "err30.csv",
             "tilt c = beta2*h_bar overflows")]],
}


def _refusal_test(rows):
    """A test over rows of REFUSALS: each call exits 1 with an error that
    holds the fragment, and leaves no --out path behind."""
    def test(call, fragment, tmp_path, monkeypatch, capsys):
        # main runs under pyproject's error::RuntimeWarning filter, so a
        # numpy warning on the way to the error fails the row
        _write(tmp_path, _BAD)
        monkeypatch.chdir(tmp_path)
        argv = _LISTED.get(call, call + " --out out").split()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err, err
        assert not (tmp_path / argv[-1]).exists()
    if isinstance(rows, list):
        return pytest.mark.parametrize(
            "call, fragment", [row[1:] for row in rows],
            ids=[row[0] for row in rows])(test)

    def one(tmp_path, monkeypatch, capsys):
        test(*rows, tmp_path, monkeypatch, capsys)
    return one


globals().update((name, _refusal_test(rows))
                 for name, rows in REFUSALS.items())


@pytest.mark.parametrize("task", ["equilibria", "thresholds"])
@pytest.mark.parametrize("field", ["beta1", "delta"])
def test_analyze_with_a_huge_field_names_it_or_succeeds(tmp_path, capsys,
                                                        field, task):
    # cosh(x)**2 overflowed and escaped main as an OverflowError traceback
    f = tmp_path / "p.txt"
    f.write_text(MAIN.replace(f"{field} = ", f"{field} = 1e300 # "))
    out = tmp_path / "o.csv"
    code = main(["analyze", task, "--params", str(f), "--out", str(out)])
    if code == 0:
        cells = read_text_table(out)
        numbers = [float(v) for col in cells.values() for v in col
                   if v[0] in "-0123456789in"]
        assert numbers and all(map(math.isfinite, numbers))
    else:
        assert code == 1
        assert field in capsys.readouterr().err


def test_analyze_equilibria_at_beta1_1e6(tmp_path, monkeypatch):
    # classify's residual check refused find_equilibria's own middle root
    _write(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(_LISTED["big_beta1.csv"].split()) == 0
    cells = read_text_table(tmp_path / "big_beta1.csv")
    assert cells["class"] == ["StableNode", "Saddle", "StableNode"]


def test_simulate_empirical_round_trip(params_file, h_file, tmp_path):
    out = tmp_path / "emp.csv"
    assert main(["simulate-empirical", "--input", str(h_file),
                 "--params", str(params_file), "--out", str(out),
                 "--init-s", "0.5"]) == 0
    params = load_params(params_file)
    H = read_series(h_file)
    want = integrate_sentiment(H, 0.5, params)
    got = read_series(out, column="s")
    assert np.array_equal(got.values, want.values)
    h_back = read_series(out, column="H")
    assert np.array_equal(h_back.values, H.values)
    p_col = read_series(out, column="p")
    assert len(p_col) == len(H)


def test_simulate_theory_outputs_and_determinism(params_file, tmp_path):
    args = ["simulate-theory", "--params", str(params_file),
            "--horizon", "60", "--realizations", "2", "--seed", "9"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    for name in ("run_000.csv", "run_001.csv", "ensemble_mean.csv",
                 "manifest.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    # files agree with a direct API run on the same stream
    params = load_params(params_file)
    init_s = float(read_report(d1 / "manifest.txt")["init_s"])
    init_h = float(read_report(d1 / "manifest.txt")["init_h"])
    run0 = simulate(params, MarketState(init_s, init_h), 60,
                    rng=RandomSource(9, 0))
    s_file = read_series(d1 / "run_000.csv", column="s")
    assert np.array_equal(s_file.values, run0.s.values)
    mean = read_series(d1 / "ensemble_mean.csv", column="mean_s")
    s1 = read_series(d1 / "run_001.csv", column="s")
    assert np.array_equal(mean.values,
                          np.mean([s_file.values, s1.values], axis=0))


def test_simulate_theory_default_init_is_equilibrium(params_file, tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate-theory", "--params", str(params_file),
                 "--horizon", "5", "--seed", "1", "--out", str(out)]) == 0
    manifest = read_report(out / "manifest.txt")
    params = load_params(params_file)
    top = max(phase.find_equilibria(params), key=lambda q: q.s_star_pt)
    assert float(manifest["init_s"]) == top.s_star_pt
    assert float(manifest["init_h"]) == top.h_star_pt


def test_simulate_theory_worker_env_parity(params_file, tmp_path,
                                           monkeypatch):
    args = ["simulate-theory", "--params", str(params_file),
            "--horizon", "40", "--realizations", "2", "--seed", "3"]
    monkeypatch.setenv("NEWSMARKET_WORKERS", "1")
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    monkeypatch.setenv("NEWSMARKET_WORKERS", "2")
    assert main(args + ["--out", str(tmp_path / "par")]) == 0
    for name in ("run_000.csv", "run_001.csv", "ensemble_mean.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "par" / name).read_bytes()


@pytest.mark.parametrize("workers", ["abc", "2.5", "0", "-1"])
def test_simulate_theory_names_a_malformed_worker_env(params_file, tmp_path,
                                                      monkeypatch, capsys,
                                                      workers):
    # 0 and -1 used to run serially without a word
    monkeypatch.setenv("NEWSMARKET_WORKERS", workers)
    code = main(["simulate-theory", "--params", str(params_file),
                 "--horizon", "10", "--out", str(tmp_path / "runs")])
    assert code == 1
    want = ("must be >= 1" if workers in ("0", "-1")
            else f"must be an integer, got {workers!r}")
    assert f"NEWSMARKET_WORKERS {want}" in capsys.readouterr().err


def test_simulate_theory_theta_profile(params_file, tmp_path):
    prof = tmp_path / "theta.csv"
    write_series(prof, Series(np.full(50, 1.25)), label="theta")
    out = tmp_path / "runs"
    assert main(["simulate-theory", "--params", str(params_file),
                 "--horizon", "50", "--seed", "2", "--theta", str(prof),
                 "--init-s", "0.5", "--init-h", "0.0",
                 "--out", str(out)]) == 0
    params = load_params(params_file)
    want = simulate(params, MarketState(0.5, 0.0), 50, rng=RandomSource(2, 0),
                    theta_profile=read_series(prof))
    got = read_series(out / "run_000.csv", column="s")
    assert np.array_equal(got.values, want.s.values)


def test_analyze_equilibria(params_file, tmp_path):
    out = tmp_path / "eq.csv"
    assert main(["analyze", "equilibria", "--params", str(params_file),
                 "--out", str(out)]) == 0
    cols = read_text_table(out)
    params = load_params(params_file)
    pts = phase.find_equilibria(params)
    assert cols["branch"] == [p.branch for p in pts]
    assert cols["class"] == [p.stability for p in pts]
    got_s = [float(v) for v in cols["s_star"]]
    assert got_s == pytest.approx([p.s_star_pt for p in pts], abs=1e-15)


def test_analyze_thresholds(params_file, tmp_path):
    out = tmp_path / "thr.csv"
    assert main(["analyze", "thresholds", "--params", str(params_file),
                 "--out", str(out)]) == 0
    cols = read_text_table(out)
    assert cols["branch"] == ["s_minus", "s_plus"]
    params = load_params(params_file)
    for i, branch in enumerate(cols["branch"]):
        pt = next(p for p in phase.find_equilibria(params)
                  if p.branch == branch)
        g = phase.gamma_thresholds(pt.s_star_pt, params)
        assert float(cols["gamma_node_focus"][i]) == pytest.approx(g[0])
        assert float(cols["gamma_focus_unstable"][i]) == pytest.approx(g[1])
        assert float(cols["gamma_unstable_node"][i]) == pytest.approx(g[2])


def test_analyze_sweep(cycle_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["analyze", "sweep", "--params", str(cycle_file),
                 "--sweep", "gamma", "--range", "40:90", "--steps", "6",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "transition: s_plus" in text
    cols = read_text_table(out)
    assert len(cols["gamma"]) == 18          # 6 values x 3 branches
    params = load_params(cycle_file)
    rows, _ = phase.bifurcation_sweep(params, "gamma", (40.0, 90.0), 6)
    want = [(v, br, classes[br]) for v, classes in rows
            for br in sorted(classes)]
    got = list(zip((float(v) for v in cols["gamma"]), cols["branch"],
                   cols["class"]))
    assert got == want


def test_analyze_limit_cycle(cycle_file, tmp_path):
    out = tmp_path / "cycle.txt"
    assert main(["analyze", "limit-cycle", "--params", str(cycle_file),
                 "--init-s", "0.9", "--init-h", "0.0",
                 "--max-days", "6000", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["exists"] == "true"
    assert rep["stable"] == "true"
    assert float(rep["period_days"]) == pytest.approx(323.0, abs=0.5)
    assert float(rep["s_max"]) == pytest.approx(0.55695, abs=1e-3)


def test_analyze_heatmap(params_file, tmp_path):
    out = tmp_path / "map.csv"
    assert main(["analyze", "heatmap", "--params", str(params_file),
                 "--grid", "5", "--out", str(out)]) == 0
    cols = read_text_table(out)
    assert len(cols["s"]) == 25
    params = load_params(params_file)
    grid = np.linspace(-1.0, 1.0, 5)
    want = noise_dominance_map(params, grid, grid)
    got = np.array([float(v) for v in cols["feedback_to_noise"]])
    assert np.array_equal(got.reshape(5, 5), want)


def test_analyze_potential(params_file, tmp_path):
    out = tmp_path / "pot.csv"
    assert main(["analyze", "potential", "--params", str(params_file),
                 "--grid", "7", "--out", str(out)]) == 0
    params = load_params(params_file)
    curve = potential_uc(params, params.c, grid_size=7)
    cols = read_text_table(out)
    got_u = np.array([float(v) for v in cols["potential"]])
    assert np.array_equal(got_u, curve.u_values)
    assert "extremum:" in out.read_text()


@pytest.mark.parametrize("beta1, kinds", [("1.0", ["min"]),
                                          ("1e100", ["min", "max", "min"])])
def test_analyze_potential_labels_alternate(tmp_path, beta1, kinds):
    # beta1 = 1 wrote the single well's bottom as a max, and huge beta1
    # wrote three minima
    params = tmp_path / "params.txt"
    params.write_text(MAIN.replace("beta1 = 1.1", f"beta1 = {beta1}"))
    out = tmp_path / "pot.csv"
    assert main(["analyze", "potential", "--params", str(params),
                 "--grid", "7", "--out", str(out)]) == 0
    assert [line.split("kind=")[1] for line in out.read_text().splitlines()
            if "kind=" in line] == kinds


def test_analyze_potential_at_a_pinned_root_pair(tmp_path, monkeypatch):
    # c = beta2*h_bar within 20 of -beta1 at beta1 ~ 7e15: the maximum
    # was written as a third minimum
    _write(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(_LISTED["potential_pinned.csv"].split()) == 0
    out = tmp_path / "potential_pinned.csv"
    assert [line for line in out.read_text().splitlines()
            if "kind=" in line] == [
        "# extremum: s=-1.0 kind=min",
        "# extremum: s=0.9999999999999999 kind=max",
        "# extremum: s=1.0 kind=min"]


def test_glauber_trajectory(spin_file, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["glauber", "trajectory", "--params", str(spin_file),
                 "--horizon", "5.0", "--seed", "3", "--sample-step", "0.5",
                 "--out", str(out)]) == 0
    cfg = SpinSystemConfig(N_s=50, N_h=10, J11=0.8, J12=0.2, J21=1.0,
                           J22=0.1, theta=1.0)
    want = simulate_glauber(cfg, 5.0, RandomSource(3), sample_step=0.5)
    got_s = read_series(out, column="s")
    assert np.array_equal(got_s.values, want.s)
    assert f"events: {want.n_events}" in out.read_text()


def test_glauber_trajectory_ensemble_dir(spin_file, tmp_path):
    out = tmp_path / "runs"
    assert main(["glauber", "trajectory", "--params", str(spin_file),
                 "--horizon", "2.0", "--seed", "3", "--sample-step", "0.5",
                 "--realizations", "3", "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == [
        "run_000.csv", "run_001.csv", "run_002.csv"]


def test_glauber_meanfield(spin_file, tmp_path):
    out = tmp_path / "mf.txt"
    assert main(["glauber", "meanfield", "--params", str(spin_file),
                 "--horizon", "5.0", "--seed", "7", "--realizations", "5",
                 "--init-S", "0", "--init-H", "0",
                 "--out", str(out)]) == 0
    rep = read_report(out)
    assert 0.0 <= float(rep["max_deviation_s"]) < 1.0
    assert float(rep["max_deviation"]) == max(
        float(rep["max_deviation_s"]), float(rep["max_deviation_h"]))


@given(key=st.sampled_from(["N_s", "N_h"]),
       value=st.one_of(
           st.sampled_from([math.inf, -math.inf, math.nan]),
           st.floats(min_value=-1e6, max_value=1e6).filter(
               lambda v: not v.is_integer())))
@settings(max_examples=40, deadline=None)
def test_glauber_rejects_non_integral_sizes(tmp_path_factory, key, value):
    # inf used to escape as OverflowError, nan as a message without the key
    f = tmp_path_factory.mktemp("cfg") / "spins.txt"
    line = {"N_s": "N_s = 50", "N_h": "N_h = 10"}[key]
    f.write_text(SPINS.replace(line, f"{key} = {value!r}"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["glauber", "trajectory", "--params", str(f),
                     "--horizon", "1.0", "--out", str(f.with_suffix(".csv"))])
    assert code == 1
    assert f"{key} must be an integer" in err.getvalue()


def make_price_file(tmp_path):
    pars = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.374,
                       a2=0.002, gamma=62.0, delta=0.0, kappa=1.0)
    run = simulate(pars, MarketState(0.5, 0.0), 1200, rng=RandomSource(5))
    f = tmp_path / "price.csv"
    write_series(f, run.p, label="p")
    return f, run


def test_stats_returns_and_moments(tmp_path):
    f, run = make_price_file(tmp_path)
    out = tmp_path / "ret.csv"
    assert main(["stats", "returns", "--input", str(f), "--horizon", "21",
                 "--out", str(out)]) == 0
    got = read_series(out)
    want = analytics.log_returns(run.p, 21)
    assert np.array_equal(got.values, want.values)
    assert got.start_index == want.start_index

    mom = tmp_path / "mom.txt"
    assert main(["stats", "moments", "--input", str(out), "--normalize",
                 "--out", str(mom)]) == 0
    rep = read_report(mom)
    stats = analytics.distribution_stats(want, normalize=True)
    assert float(rep["mean"]) == pytest.approx(stats[0], abs=1e-12)
    assert float(rep["variance"]) == pytest.approx(stats[1], abs=1e-12)
    assert float(rep["skewness"]) == stats[2]
    assert float(rep["excess_kurtosis"]) == stats[3]


def test_stats_histogram(tmp_path):
    f, _ = make_price_file(tmp_path)
    out = tmp_path / "hist.csv"
    assert main(["stats", "histogram", "--input", str(f), "--bins", "30",
                 "--out", str(out)]) == 0
    cols = read_text_table(out)
    left = np.array([float(v) for v in cols["bin_left"]])
    right = np.array([float(v) for v in cols["bin_right"]])
    dens = np.array([float(v) for v in cols["density"]])
    assert len(dens) == 30
    assert np.sum(dens * (right - left)) == pytest.approx(1.0, abs=1e-9)


def test_stats_acf_volatility_lowpass(tmp_path):
    f, run = make_price_file(tmp_path)
    acf_out = tmp_path / "acf.csv"
    assert main(["stats", "acf", "--input", str(f), "--max-lag", "10",
                 "--out", str(acf_out)]) == 0
    cols = read_text_table(acf_out)
    assert [int(v) for v in cols["lag"]] == list(range(11))
    assert float(cols["acf"][0]) == 1.0

    vol_out = tmp_path / "vol.csv"
    assert main(["stats", "volatility", "--input", str(f),
                 "--increment", "21", "--window", "300",
                 "--out", str(vol_out)]) == 0
    got = read_series(vol_out)
    want = analytics.rolling_volatility(run.p, 21, 300)
    assert np.array_equal(got.values, want.values)
    assert got.start_index == want.start_index

    low_out = tmp_path / "low.csv"
    assert main(["stats", "lowpass", "--input", str(f),
                 "--min-period", "200.0", "--out", str(low_out)]) == 0
    got = read_series(low_out)
    want = analytics.fourier_lowpass(run.p, 200.0)
    assert np.array_equal(got.values, want.values)


def test_stats_column_selection(params_file, h_file, tmp_path):
    emp = tmp_path / "emp.csv"
    assert main(["simulate-empirical", "--input", str(h_file),
                 "--params", str(params_file), "--out", str(emp)]) == 0
    out = tmp_path / "acf_s.csv"
    assert main(["stats", "acf", "--input", str(emp), "--column", "s",
                 "--max-lag", "5", "--out", str(out)]) == 0
    cols = read_text_table(out)
    s = read_series(emp, column="s")
    want = analytics.autocorrelation(s, 5)
    assert float(cols["acf"][3]) == pytest.approx(want[3][1], abs=1e-15)


# delta within 40 ulps of the fold, where the saddle test by libm's pow,
# beta1*(1 - s**2) >= 1, and psi = 1 - beta1*(1 - s*s) disagreed: at the
# first example `analyze equilibria` called s_minus a saddle and
# thresholds exited 1 with "saddle branch"; the second left out the
# s_minus row of an unstable node
@given(beta1=st.floats(1.01, 3.0), beta2=st.floats(0.2, 2.0),
       ulps=st.integers(-40, 40))
@example(beta1=2.8780598834968814, beta2=1.9427836502873443, ulps=0)
@example(beta1=1.783757976226252, beta2=1.1368747058603559, ulps=1)
@settings(max_examples=100, deadline=None)
def test_analyze_thresholds_skips_exactly_the_points_psi_calls_saddles(
        tmp_path_factory, beta1, beta2, ulps):
    try:
        critical = phase.delta_critical(beta1, beta2)
    except ValueError:
        assume(False)
    f = tmp_path_factory.mktemp("fold") / "params.txt"
    f.write_text(_fold(beta1, beta2, critical + ulps * math.ulp(critical)))
    params = load_params(f)
    want = [(p.branch, p.s_star_pt) for p in phase.find_equilibria(params)
            if phase._psi_phi_eta(p.s_star_pt, params)[0] > 0.0]
    out = f.with_name("thresholds.csv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["analyze", "thresholds", "--params", str(f),
                     "--out", str(out)])
    assert "saddle branch" not in err.getvalue()
    if not want:
        assert code == 1 and "no branch admits" in err.getvalue()
        return
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert [(b, float(s)) for b, s, *_ in rows] == want


@pytest.mark.parametrize("text", [
    MAIN.replace("beta1 = 1.1", "beta1 = 0.9"),
    MAIN.replace("delta = 0.03", "delta = 0.5"),
    # the lone root s* = 0 has zero slope: initial_sentiment's fallback
    MAIN.replace("beta1 = 1.1", "beta1 = 1.0")
    .replace("delta = 0.03", "delta = 0.0"),
], ids=["paramagnetic", "past-the-fold", "critical"])
def test_default_theory_start_with_one_root(tmp_path, text):
    # test_simulate_theory_default_init_is_equilibrium covers three roots
    f = tmp_path / "p.txt"
    f.write_text(text)
    out = tmp_path / "run"
    assert main(["simulate-theory", "--params", str(f), "--horizon", "3",
                 "--out", str(out)]) == 0
    manifest = read_report(out / "manifest.txt")
    top = max(phase.find_equilibria(load_params(f)),
              key=lambda p: p.s_star_pt)
    assert float(manifest["init_s"]) == top.s_star_pt
    assert float(manifest["init_h"]) == top.h_star_pt


def test_theory_start_with_only_init_h_takes_s_zero(params_file, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate-theory", "--params", str(params_file),
                 "--horizon", "3", "--init-h", "0.1", "--out", str(out)]) == 0
    manifest = read_report(out / "manifest.txt")
    assert float(manifest["init_s"]) == 0.0
    assert float(manifest["init_h"]) == 0.1
    assert read_series(out / "run_000.csv", column="s").values[0] == 0.0
    assert read_series(out / "run_000.csv", column="h").values[0] == 0.1
