"""End-to-end command-line runs, parsed back and checked against the API."""

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
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

MAIN_TEXT = """\
w_s = 0.04
w_h = 0.4
beta1 = 1.1
beta2 = 0.55
a1 = 0.374
a2 = 0.002
gamma = 56.0
delta = 0.03
kappa = 1.0
a4 = 6.5
s_star = 0.131
"""

CYCLE_TEXT = MAIN_TEXT.replace("gamma = 56.0", "gamma = 62.0").replace(
    "delta = 0.03", "delta = 0.0").replace("kappa = 1.0", "kappa = 0.0")

SPIN_TEXT = """\
N_s = 50
N_h = 10
J11 = 0.8
J12 = 0.2
J21 = 1.0
J22 = 0.1
theta = 1.0
w_s = 1.0
w_h = 1.0
"""


@pytest.fixture
def params_file(tmp_path):
    f = tmp_path / "params.txt"
    f.write_text(MAIN_TEXT)
    return f


@pytest.fixture
def cycle_file(tmp_path):
    f = tmp_path / "cycle.txt"
    f.write_text(CYCLE_TEXT)
    return f


@pytest.fixture
def spin_file(tmp_path):
    f = tmp_path / "spins.txt"
    f.write_text(SPIN_TEXT)
    return f


@pytest.fixture
def h_file(tmp_path):
    rng = np.random.default_rng(21)
    vals = np.empty(300)
    vals[0] = 0.1
    for i in range(1, 300):
        vals[i] = np.clip(0.95 * vals[i - 1] + rng.normal(0, 0.08),
                          -0.9, 0.9)
    f = tmp_path / "H.csv"
    write_series(f, Series(vals), label="H")
    return f


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


def test_cli_runs_without_scipy(params_file, spin_file, tmp_path):
    # scipy is a test dependency only: every subcommand and task, and the
    # Gaussian draws and Gibbs distribution behind them, run in a process
    # where importing scipy raises; and with one worker no process pool's
    # modules load
    theta = tmp_path / "theta.csv"
    write_series(theta, Series(np.full(80, 1 / 1.1)), label="theta")
    news = tmp_path / "news.csv"
    write_series(news, Series(0.3 * np.sin(np.arange(120) / 9.0)), label="H")
    full = tmp_path / "full.txt"
    full.write_text(MAIN_TEXT + "beta3 = 0.1\nbeta4 = 0.2\n")
    run0 = str(tmp_path / "theory" / "run_000.csv")

    def out(name):
        return str(tmp_path / name)

    calls = [["simulate-theory", "--params", str(full), "--mode", "full",
              "--theta", str(theta), "--horizon", "80", "--realizations",
              "2", "--out", out("theory")],
             ["simulate-empirical", "--input", str(news), "--params",
              str(params_file), "--out", out("emp.csv")]]
    calls += [["analyze", task, "--params", str(params_file), "--steps",
               "5", "--grid", "5", "--max-days", "400", "--out", out(task)]
              for task in ("equilibria", "thresholds", "sweep",
                           "limit-cycle", "heatmap", "potential")]
    calls += [["glauber", task, "--params", str(spin_file), "--horizon",
               "5", "--realizations", "2", "--sample-step", "1", "--out",
               out(task)] for task in ("trajectory", "meanfield")]
    calls += [["stats", task, "--input", run0, "--column", "p", "--horizon",
               "5", "--max-lag", "5", "--increment", "5", "--window", "20",
               "--min-period", "20", "--out", out(task)]
              for task in ("returns", "moments", "histogram", "acf",
                           "volatility", "lowpass")]
    code = f"""
import sys
sys.modules["scipy"] = None
from newsmarket import cli
from newsmarket.core import RandomSource
from newsmarket.glauber import SpinSystemConfig, equilibrium_distribution
for argv in {calls!r}:
    assert cli.main(argv) == 0, argv
assert RandomSource(0).standard_normal(8).shape == (8,)
assert equilibrium_distribution(SpinSystemConfig(N_s=4, N_h=2))[2].size == 15
print(sorted(m for m, v in sys.modules.items() if v is not None and
             m.split(".")[0] in ("scipy", "multiprocessing", "concurrent")))
"""
    env = {k: v for k, v in os.environ.items() if k != "NEWSMARKET_WORKERS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The package modules each subcommand may not load: it runs none of them.
_NOT_LOADED = {
    "stats": {"glauber", "phase", "market", "pricing", "sentiment",
              "reference"},
    "glauber": {"market", "phase", "analytics"},
    "analyze": {"glauber", "analytics"},
    "simulate-theory": {"glauber", "phase", "analytics"},
    "simulate-empirical": {"glauber", "phase", "analytics"},
}


@pytest.mark.parametrize("command", sorted(_NOT_LOADED))
def test_each_subcommand_loads_only_its_modules(params_file, spin_file,
                                                h_file, tmp_path, command):
    # every call is a fresh interpreter that compiles what it imports, and
    # the CLI used to import all of the package for any subcommand
    def out(name):
        return str(tmp_path / name)

    calls = {
        "stats": [["stats", task, "--input", str(h_file), "--horizon", "5",
                   "--max-lag", "5", "--increment", "5", "--window", "20",
                   "--min-period", "20", "--out", out(task)]
                  for task in ("returns", "moments", "histogram", "acf",
                               "volatility", "lowpass")],
        "glauber": [["glauber", task, "--params", str(spin_file),
                     "--horizon", "5", "--sample-step", "1", "--out",
                     out(task)] for task in ("trajectory", "meanfield")],
        "analyze": [["analyze", task, "--params", str(params_file),
                     "--steps", "5", "--grid", "5", "--max-days", "400",
                     "--out", out(task)]
                    for task in ("equilibria", "thresholds", "sweep",
                                 "limit-cycle", "heatmap", "potential")],
        "simulate-theory": [["simulate-theory", "--params", str(params_file),
                             "--horizon", "20", "--out", out("theory")]],
        "simulate-empirical": [["simulate-empirical", "--input", str(h_file),
                                "--params", str(params_file),
                                "--out", out("emp.csv")]],
    }[command]
    code = f"""
import sys
from newsmarket import cli
for argv in {calls!r}:
    assert cli.main(argv) == 0, argv
print(" ".join(m.split(".")[1] for m in sys.modules
               if m.startswith("newsmarket.")))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "cli" in loaded
    assert not loaded & _NOT_LOADED[command], sorted(loaded)


def test_counts_too_large_for_an_array_are_named(params_file, spin_file,
                                                 h_file, tmp_path):
    # numpy refuses each size at once (10**15 floats are 7 PiB) and used to
    # escape as a MemoryError traceback; the realization counts used to
    # build 10**15 random streams one by one, so the calls run in a child
    # whose address space is capped at 512 MiB
    big = str(10 ** 15)
    params, spins, series = str(params_file), str(spin_file), str(h_file)
    out = str(tmp_path / "out")
    cases = [
        (["simulate-theory", "--params", params, "--horizon", big],
         "horizon_days"),
        (["simulate-theory", "--params", params, "--horizon", "5",
          "--realizations", big], "n_realizations"),
        (["analyze", "sweep", "--params", params, "--steps", big], "steps"),
        (["analyze", "heatmap", "--params", params, "--grid", big], "grid"),
        (["analyze", "potential", "--params", params, "--grid", big],
         "grid_size"),
        (["glauber", "trajectory", "--params", spins, "--horizon", "5",
          "--realizations", big], "realizations"),
        (["glauber", "meanfield", "--params", spins, "--horizon", "5",
          "--realizations", big], "n_realizations"),
        (["stats", "histogram", "--input", series, "--bins", big], "bins"),
    ]
    code = f"""
import contextlib, io, resource
resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))
from newsmarket import cli
for argv, name in {cases!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(argv + ["--out", {out!r}])
    print(status, err.getvalue().strip())
"""
    # one BLAS thread keeps numpy's own buffers well inside the cap
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases)
    for line, (_, name) in zip(lines, cases):
        assert line.startswith(f"1 error: {name} = {big} is too large"), line


@pytest.mark.parametrize("text, argv, named", [
    (MAIN_TEXT, ["simulate-theory", "--horizon", "5", "--substeps",
                 str(10 ** 15)],
     ["horizon_days * substeps = 5 * 1000000000000000"]),
    (SPIN_TEXT.replace("w_s = 1.0", "w_s = 1e15"),
     ["glauber", "trajectory", "--horizon", "2", "--sample-step", "1"],
     ["(w_s*N_s + w_h*N_h) * horizon * realizations = 5e+16 * 2 * 1"]),
    (SPIN_TEXT.replace("J11 = 0.8", "J11 = -1e300"),
     ["glauber", "meanfield", "--horizon", "2", "--realizations", "1"],
     ["1e+06 right-hand-side calls at t = 0.69", "w_s", "theta", "J11"]),
], ids=["substeps", "flip-rate", "rate-equation"])
def test_calls_that_ran_for_ever_exit_by_name(tmp_path, text, argv, named):
    # 10**15 RK4 substeps a day, about 10**17 flips, and a rate-equation
    # solve whose steps shrank to 1e-10 each ran past a 30 s timeout
    f = tmp_path / "in.txt"
    f.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "newsmarket", *argv, "--params", str(f),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    for name in named:
        assert name in proc.stderr


@pytest.mark.parametrize("task", ["equilibria", "thresholds"])
@pytest.mark.parametrize("field", ["beta1", "delta"])
def test_analyze_with_a_huge_field_names_it_or_succeeds(tmp_path, capsys,
                                                        field, task):
    # cosh(x)**2 overflowed and escaped main as an OverflowError traceback
    f = tmp_path / "p.txt"
    f.write_text(MAIN_TEXT.replace(f"{field} = ", f"{field} = 1e300 # "))
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


def test_analyze_equilibria_at_beta1_1e6(tmp_path):
    # classify's residual check refused find_equilibria's own middle root
    f = tmp_path / "p.txt"
    f.write_text(MAIN_TEXT.replace("beta1 = 1.1", "beta1 = 1e6"))
    out = tmp_path / "o.csv"
    assert main(["analyze", "equilibria", "--params", str(f),
                 "--out", str(out)]) == 0
    cells = read_text_table(out)
    assert cells["class"] == ["StableNode", "Saddle", "StableNode"]


def test_missing_file_reports_error(capsys, params_file, tmp_path):
    code = main(["simulate-empirical", "--input", str(tmp_path / "no.csv"),
                 "--params", str(params_file),
                 "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_params_reports_error(capsys, tmp_path, h_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("w_s = 0.04\nbogus = 1\n")
    code = main(["simulate-empirical", "--input", str(h_file),
                 "--params", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


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


def test_simulate_theory_rejects_a_theta_csv_not_starting_on_day_0(
        params_file, tmp_path, capsys):
    prof = tmp_path / "theta.csv"
    write_series(prof, Series(np.full(50, 1.25), start_index=7),
                 label="theta")
    assert main(["simulate-theory", "--params", str(params_file),
                 "--horizon", "20", "--theta", str(prof),
                 "--out", str(tmp_path / "runs")]) == 1
    assert ("theta_profile must start on the run's day 0, got start day 7"
            in capsys.readouterr().err)


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


@pytest.mark.parametrize("text, message", [
    ("0:nan", "gamma range must be finite"),
    ("nan:100", "gamma range must be finite"),
    ("0:inf", "gamma range must be finite"),
    *[(t, "--range must have the form LO:HI")
      for t in ("5", "5:", ":5", "a:b", "0:1:2")],
    ("-10:10", "gamma must be non-negative"),
])
def test_analyze_sweep_rejects_bad_range(params_file, tmp_path, capsys,
                                         text, message):
    out = tmp_path / "sweep.csv"
    # the --range=LO:HI form, so that a negative LO is not read as an option
    assert main(["analyze", "sweep", "--params", str(params_file),
                 f"--range={text}", "--steps", "3", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_analyze_heatmap_rejects_an_empty_grid(params_file, tmp_path, capsys,
                                               grid):
    # 0 wrote a table with no rows; -2 failed in numpy without the flag
    out = tmp_path / "map.csv"
    code = main(["analyze", "heatmap", "--params", str(params_file),
                 "--grid", grid, "--out", str(out)])
    assert code == 1 and not out.exists()
    assert "grid must be >= 1" in capsys.readouterr().err


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
    params.write_text(MAIN_TEXT.replace("beta1 = 1.1", f"beta1 = {beta1}"))
    out = tmp_path / "pot.csv"
    assert main(["analyze", "potential", "--params", str(params),
                 "--grid", "7", "--out", str(out)]) == 0
    assert [line.split("kind=")[1] for line in out.read_text().splitlines()
            if "kind=" in line] == kinds


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


def test_glauber_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("N_s = 8\nN_h = 4\nJ12 = 0.5\nJ21 = 0.9\n")
    code = main(["glauber", "trajectory", "--params", str(bad),
                 "--horizon", "1.0", "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "J21/J12" in capsys.readouterr().err
    bad.write_text("N_h = 4\n")
    code = main(["glauber", "trajectory", "--params", str(bad),
                 "--horizon", "1.0", "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "N_s" in capsys.readouterr().err


def test_missing_required_param_names_the_key(capsys, tmp_path, h_file):
    bad = tmp_path / "no_ws.txt"
    bad.write_text(MAIN_TEXT.replace("w_s = 0.04\n", ""))
    code = main(["simulate-empirical", "--input", str(h_file),
                 "--params", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing required keys: w_s" in err


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
    f.write_text(SPIN_TEXT.replace(line, f"{key} = {value!r}"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["glauber", "trajectory", "--params", str(f),
                     "--horizon", "1.0", "--out", str(f.with_suffix(".csv"))])
    assert code == 1
    assert f"{key} must be an integer" in err.getvalue()


def test_glauber_trajectory_rejects_zero_realizations(spin_file, tmp_path,
                                                      capsys):
    out = tmp_path / "runs"
    code = main(["glauber", "trajectory", "--params", str(spin_file),
                 "--horizon", "1.0", "--realizations", "0",
                 "--out", str(out)])
    assert code == 1
    assert "realizations must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_glauber_meanfield_rejects_zero_sample_step(spin_file, tmp_path,
                                                    capsys):
    code = main(["glauber", "meanfield", "--params", str(spin_file),
                 "--horizon", "1.0", "--sample-step", "0",
                 "--out", str(tmp_path / "mf.txt")])
    assert code == 1
    assert "sample_step must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["trajectory", "meanfield"])
@pytest.mark.parametrize("step", ["5e-324", "1e-300", "2e-18"])
def test_glauber_rejects_a_sample_step_too_small_for_its_grid(
        spin_file, tmp_path, capsys, task, step):
    # horizon / step is inf, far above any array length, or below
    # sys.maxsize but more points than numpy can hold; numpy refuses the
    # last before allocating anything
    code = main(["glauber", task, "--params", str(spin_file),
                 "--horizon", "10", "--sample-step", step,
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert (f"sample_step {float(step)!r} is too small"
            in capsys.readouterr().err)


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


def test_stats_zero_variance_error(tmp_path, capsys):
    f = tmp_path / "flat.csv"
    write_series(f, Series(np.full(60, 1.5)))
    code = main(["stats", "moments", "--input", str(f),
                 "--out", str(tmp_path / "m.txt")])
    assert code == 1
    assert "zero variance" in capsys.readouterr().err


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_stats_histogram_names_a_bin_count_below_one(tmp_path, capsys, bins):
    f, _ = make_price_file(tmp_path)
    out = tmp_path / "hist.csv"
    code = main(["stats", "histogram", "--input", str(f), "--bins", bins,
                 "--out", str(out)])
    assert code == 1 and not out.exists()
    assert "bins must be >= 1" in capsys.readouterr().err


def test_stats_histogram_of_a_constant_column(tmp_path, capsys):
    f = tmp_path / "flat.csv"
    write_series(f, Series(np.full(60, 1.5)))
    code = main(["stats", "histogram", "--input", str(f),
                 "--out", str(tmp_path / "h.csv")])
    assert code == 1
    assert "constant input cannot be normalized" in capsys.readouterr().err


@pytest.mark.parametrize("task, extra, named", [
    ("moments", [], "returns: fourth"),
    ("moments", ["--normalize"], "returns: second"),
    ("acf", [], "x: second"),
    ("histogram", [], "huge.csv: second"),
    ("volatility", ["--increment", "5", "--window", "20"],
     "x's 5-day differences: second"),
], ids=["moments", "moments-normalize", "acf", "histogram", "volatility"])
def test_stats_on_an_overflowing_spread_name_it(tmp_path, capsys, task,
                                                extra, named):
    f = tmp_path / "huge.csv"
    write_series(f, Series(np.tile([1e160, -1e160], 100)))
    out = tmp_path / "out"
    code = main(["stats", task, "--input", str(f), *extra,
                 "--out", str(out)])
    assert code == 1 and not out.exists()
    assert (f"{named} central moment overflows the float range"
            in capsys.readouterr().err)


def test_stats_lowpass_rejects_a_nan_period(tmp_path, capsys):
    f, _ = make_price_file(tmp_path)
    out = tmp_path / "low.csv"
    code = main(["stats", "lowpass", "--input", str(f), "--min-period",
                 "nan", "--out", str(out)])
    assert code == 1 and not out.exists()
    assert "min_period_days" in capsys.readouterr().err


def test_analyze_thresholds_without_a_stable_branch(tmp_path, capsys):
    # beta1 = 1, beta2 = 0: the one root s* = 0 has beta1*(1 - s*^2) = 1
    f = tmp_path / "flat.txt"
    f.write_text(MAIN_TEXT.replace("beta1 = 1.1", "beta1 = 1.0")
                 .replace("beta2 = 0.55", "beta2 = 0.0"))
    out = tmp_path / "thr.csv"
    code = main(["analyze", "thresholds", "--params", str(f),
                 "--out", str(out)])
    assert code == 1 and not out.exists()
    assert ("no branch admits node/focus transitions"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text", [
    MAIN_TEXT.replace("beta1 = 1.1", "beta1 = 0.9"),
    MAIN_TEXT.replace("delta = 0.03", "delta = 0.5"),
    # the lone root s* = 0 has zero slope: initial_sentiment's fallback
    MAIN_TEXT.replace("beta1 = 1.1", "beta1 = 1.0")
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
