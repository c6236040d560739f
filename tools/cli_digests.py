"""Digest every output of a fixed set of `python -m newsmarket` calls.

Writes fixed inputs to a temporary directory, runs each call below in it
(every subcommand and task, with a few rejected inputs), and prints one
block per call: the arguments, the exit status, the last stderr line and
a sha256 of stdout when they are not empty.  Then it prints
`sha256  path` for every file the calls wrote.  Paths are relative to
the temporary directory, so two listings compare with `diff`; equal
listings mean byte-identical CLI outputs.  The first line names the
platform (Python, numpy, machine, libc), since libm and numpy can move
last bits.

    python tools/cli_digests.py [SRC] > listing.txt

SRC is the `src` directory of the checkout to run (default: the one next
to this script), for instance an unpacked `git archive` of another
commit.  Each call runs as a `python -m newsmarket` subprocess.
tests/test_listing.py runs the same calls in-process through
`cli.main` and compares them with tests/cli_listing.txt, this script's
output on the platform its first line names; a change that alters an
output on purpose rewrites that file with this script.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MAIN = """\
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

CYCLE = (MAIN.replace("gamma = 56.0", "gamma = 62.0")
         .replace("delta = 0.03", "delta = 0.0")
         .replace("kappa = 1.0", "kappa = 0.0"))

SPINS = """\
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

# The criterion-4 shape: macrostate indices up to about 4*10^7, against
# about 10^3 in SPINS.
BIG_SPINS = """\
N_s = 10000
N_h = 1000
J11 = 1.1
J12 = 0.55
J21 = 5.5
theta = 1.0
w_s = 0.04
w_h = 0.4
"""


def _fold(beta1: float, beta2: float, delta: float) -> str:
    return (MAIN.replace("beta1 = 1.1", f"beta1 = {beta1!r}")
            .replace("beta2 = 0.55", f"beta2 = {beta2!r}")
            .replace("delta = 0.03", f"delta = {delta!r}"))


def _csv(name: str, values, header: bool = True) -> str:
    rows = [f"{i},{v!r}" for i, v in enumerate(values)]
    return "\n".join(([f"date_index,{name}"] if header else []) + rows) + "\n"


INPUTS = {
    "main.txt": MAIN,
    "cycle.txt": CYCLE,
    "big_beta1.txt": MAIN.replace("beta1 = 1.1", "beta1 = 1e6"),
    "critical.txt": MAIN.replace("beta1 = 1.1", "beta1 = 1.0"),
    "huge_beta1.txt": MAIN.replace("beta1 = 1.1", "beta1 = 1e100"),
    "stiff_cycle.txt": CYCLE.replace("w_h = 0.4", "w_h = 10.0"),
    "spins.txt": SPINS,
    "big_spins.txt": BIG_SPINS,
    "fast_spins.txt": SPINS.replace("w_s = 1.0", "w_s = 1e15"),
    "stalled_spins.txt": SPINS.replace("J11 = 0.8", "J11 = -1e300"),
    "H.csv": _csv("H", [0.4 * math.sin(2 * math.pi * d / 250.0)
                        + 0.1 * math.sin(2 * math.pi * d / 17.0)
                        for d in range(600)]),
    "theta.csv": _csv("theta", [1 / 1.1 + 0.02 * math.sin(d / 40.0)
                                for d in range(300)]),
    "no_header.csv": _csv("H", [0.1, 0.2, 0.3], header=False),
    "header_only.csv": "date_index,H\n",
    "empty.csv": "# nothing here\n",
    "short_row.csv": "date_index,H\n0,0.1\n1\n",
    "fractional_start.csv": "date_index,H\n\n0.25,0.1\n1.25,0.2\n",
    # finite samples whose squared deviations overflow
    "huge.csv": _csv("H", [(-1) ** d * 1e160 for d in range(200)]),
    # finite samples whose differences and data range overflow
    "edge.csv": _csv("H", [(-1) ** d * 1.7e308 for d in range(200)]),
    # finite fields whose heat map, thresholds or price overflow
    "tiny_kappa.txt": MAIN.replace("kappa = 1.0", "kappa = 1e-320"),
    "huge_w_s.txt": MAIN.replace("w_s = 0.04", "w_s = 1e308"),
    "far_delta.txt": MAIN.replace("delta = 0.03", "delta = 354"),
    "tiny_beta2.txt": MAIN.replace("beta2 = 0.55", "beta2 = 1e-310"),
    "huge_price.txt": (MAIN.replace("a1 = 0.374", "a1 = 1.7e308")
                       .replace("a4 = 6.5", "a4 = 1.7e308")),
    "huge_slow.txt": (MAIN.replace("a2 = 0.002", "a2 = 1e308")
                      .replace("s_star = 0.131", "s_star = -1")),
    # every Fourier coefficient is 1e308, and so is the filtered day 0
    "spike.csv": _csv("H", [1e308] + [0.0] * 199),
    # beta1*s has an ulp of about 1: a root pair pinned to s ~ 1 and 1
    "pinned.txt": (MAIN.replace("beta1 = 1.1", "beta1 = 7057989524665945")
                   .replace("beta2 = 0.55", "beta2 = 1.0")
                   + "h_bar = -7057989524665925\n"),
    # a potential past the float range (tilt c = 1e20 over beta1 = 1e-300)
    "flat_tilt.txt": (MAIN.replace("beta1 = 1.1", "beta1 = 1e-300")
                      .replace("beta2 = 0.55", "beta2 = 1e10")
                      + "h_bar = 1e10\n"),
    # x = (w_s/w_h)*(1 - beta1*(1 - s*^2)) = 1e300: thresholds that round
    # together
    "huge_x.txt": (MAIN.replace("w_s = 0.04", "w_s = 1e300")
                   .replace("w_h = 0.4", "w_h = 1.0")
                   .replace("beta1 = 1.1", "beta1 = 0.0")
                   .replace("beta2 = 0.55", "beta2 = 1e-300")
                   .replace("delta = 0.03", "delta = 0.0")),
    # delta at (fold_a) and 1 ulp past (fold_b) delta_critical, where
    # beta1*(1 - s**2) by libm's pow and psi by s*s disagreed on a saddle
    "fold_a.txt": _fold(2.8780598834968814, 1.9427836502873443,
                        0.7247594694873871),
    "fold_b.txt": _fold(1.783757976226252, 1.1368747058603559,
                        0.3520514830677309),
    # a tilt c = beta2*h_bar past the float range
    "huge_tilt.txt": (MAIN.replace("beta2 = 0.55", "beta2 = 1e300")
                      + "h_bar = 1e300\n"),
}

CALLS = [
    "simulate-empirical --input H.csv --params main.txt --out emp.csv",
    "simulate-empirical --input H.csv --params main.txt --init-s 0.5 "
    "--substeps 4 --out emp_s05.csv",
    "simulate-theory --params main.txt --horizon 400 --realizations 2 "
    "--seed 7 --out theory",
    "simulate-theory --params main.txt --horizon 300 --mode full "
    "--theta theta.csv --seed 3 --out full",
    "simulate-theory --params main.txt --horizon 200 --init-s 0.2 "
    "--beta1-shift 0.01 --substeps 4 --out shifted",
    "analyze equilibria --params main.txt --out equilibria.csv",
    "analyze equilibria --params big_beta1.txt --out big_beta1.csv",
    "analyze thresholds --params main.txt --out thresholds.csv",
    "analyze sweep --params main.txt --sweep gamma --range 40:90 "
    "--steps 51 --out sweep_gamma.csv",
    "analyze sweep --params main.txt --sweep delta --range 0:0.2 "
    "--steps 21 --out sweep_delta.csv",
    "analyze limit-cycle --params cycle.txt --init-s 0.9 --max-days 4000 "
    "--out limit_cycle.txt",
    "analyze limit-cycle --params cycle.txt --init-s 0.3 --init-h 0.1 "
    "--max-days 2000 --reverse --out limit_cycle_reverse.txt",
    # the hunt's two box exits: a forward step failure, a reverse escape
    "analyze limit-cycle --params stiff_cycle.txt --substeps 1 "
    "--out err15.txt",
    "analyze limit-cycle --params cycle.txt --init-s 0.9 --reverse "
    "--out limit_cycle_escape.txt",
    "analyze heatmap --params main.txt --grid 11 --out heatmap.csv",
    "analyze potential --params main.txt --grid 51 --out potential.csv",
    "analyze potential --params critical.txt --grid 51 "
    "--out potential_critical.csv",
    "analyze potential --params huge_beta1.txt --grid 51 "
    "--out potential_huge_beta1.csv",
    "glauber trajectory --params spins.txt --horizon 20 --seed 3 "
    "--out trajectory.csv",
    "glauber trajectory --params spins.txt --horizon 20 --sample-step 0.5 "
    "--realizations 2 --seed 4 --out trajectories",
    "glauber meanfield --params spins.txt --horizon 20 --realizations 5 "
    "--seed 21 --out meanfield.txt",
    "glauber meanfield --params big_spins.txt --horizon 20 --realizations 4 "
    "--seed 5 --out meanfield_big.txt",
    "glauber trajectory --params big_spins.txt --horizon 5 --init-S 0 "
    "--init-H 0 --realizations 3 --seed 6 --out trajectories_big",
    "glauber trajectory --params spins.txt --horizon 20 "
    "--realizations 1000000000000000 --seed 3 --out err8",
    "glauber trajectory --params spins.txt --horizon 2 --sample-step inf "
    "--out err10.csv",
    "glauber meanfield --params spins.txt --horizon 2 --sample-step inf "
    "--out err11.txt",
    # three calls past a work budget, which once ran for ever
    "simulate-theory --params main.txt --horizon 5 "
    "--substeps 1000000000000000 --out err12",
    "glauber trajectory --params fast_spins.txt --horizon 2 --sample-step 1 "
    "--out err13.csv",
    "glauber meanfield --params stalled_spins.txt --horizon 2 "
    "--realizations 1 --out err14.txt",
    "stats returns --input emp.csv --column p --out returns.csv",
    "stats moments --input returns.csv --normalize --out moments.txt",
    "stats histogram --input returns.csv --bins 20 --out histogram.csv",
    "stats histogram --input returns.csv --bins 0 --out err9.csv",
    "stats acf --input emp.csv --column s --max-lag 20 --out acf.csv",
    "stats volatility --input emp.csv --column p --increment 5 "
    "--window 120 --out volatility.csv",
    "stats lowpass --input emp.csv --column s --min-period 100 "
    "--out lowpass.csv",
    "stats returns --input no_header.csv --column p --out err1.csv",
    "stats returns --input emp.csv --column nope --out err2.csv",
    "stats moments --input header_only.csv --out err3.txt",
    "stats moments --input header_only.csv --column H --out err4.txt",
    "stats moments --input empty.csv --column H --out err5.txt",
    "stats moments --input short_row.csv --out err6.txt",
    "stats moments --input fractional_start.csv --out err7.txt",
    "simulate-theory --help",
    "stats moments --input huge.csv --out err16.txt",
    "stats acf --input huge.csv --max-lag 5 --out err17.csv",
    "stats histogram --input huge.csv --out err18.csv",
    "stats volatility --input huge.csv --increment 5 --window 20 "
    "--out err19.csv",
    "stats returns --input edge.csv --out err20.csv",
    "stats lowpass --input edge.csv --min-period 10 --out err21.csv",
    "stats histogram --input edge.csv --raw --bins 4 --out err22.csv",
    "analyze heatmap --params tiny_kappa.txt --grid 5 --out err23.csv",
    "analyze heatmap --params huge_w_s.txt --grid 5 --out err24.csv",
    "analyze thresholds --params far_delta.txt --out err25.csv",
    "analyze thresholds --params tiny_beta2.txt --out err26.csv",
    "simulate-empirical --input H.csv --params huge_price.txt "
    "--out err27.csv",
    "simulate-theory --params huge_slow.txt --horizon 50 --out err28",
    "analyze potential --params pinned.txt --grid 51 "
    "--out potential_pinned.csv",
    "stats lowpass --input spike.csv --min-period 1 --out lowpass_spike.csv",
    "simulate-theory --params main.txt --horizon 50 --init-h 0.1 "
    "--out init_h",
    "analyze potential --params flat_tilt.txt --grid 51 --out err29.csv",
    "analyze thresholds --params huge_x.txt --out thresholds_huge_x.csv",
    "analyze thresholds --params fold_a.txt --out thresholds_fold_a.csv",
    "analyze thresholds --params fold_b.txt --out thresholds_fold_b.csv",
    "analyze potential --params huge_tilt.txt --grid 51 --out err30.csv",
    # past a work budget over all realizations, refused before any
    # realization's stream is made
    "glauber trajectory --params spins.txt --horizon 2000 "
    "--realizations 100000 --out err31",
    "glauber meanfield --params spins.txt --horizon 2000 "
    "--realizations 100000 --out err32.txt",
    "simulate-theory --params main.txt --horizon 1000 "
    "--realizations 200000 --out err33",
    # beta2 across the fold, and a sweep past its work budget
    "analyze sweep --params main.txt --sweep beta2 --range 0.3:1 "
    "--steps 36 --out sweep_beta2.csv",
    "analyze sweep --params main.txt --sweep gamma --range 40:90 "
    "--steps 100000000 --out err34.csv",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint() -> str:
    """The platform a listing was taken on."""
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"machine {platform.machine()}, "
            f"libc {' '.join(platform.libc_ver())}")


def listing(tmp: Path, run) -> list:
    """The listing of CALLS run in tmp, which holds INPUTS, as lines (the
    fingerprint line aside); run(argv) returns the call's exit status,
    stdout bytes and stderr text."""
    lines = []
    for call in CALLS:
        code, out, err = run(call.split())
        lines += [f"$ newsmarket {call}", f"exit {code}"]
        err = err.strip().splitlines()
        if err:
            lines.append(f"stderr: {err[-1]}")
        if out:
            lines.append(f"stdout {_sha(out)}")
    lines.append("")
    for path in sorted(tmp.rglob("*")):
        name = path.relative_to(tmp).as_posix()
        if path.is_file() and name not in INPUTS:
            lines.append(f"{_sha(path.read_bytes())}  {name}")
    return lines


def main(argv) -> int:
    src = Path(argv[1] if len(argv) > 1
               else Path(__file__).resolve().parents[1] / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("NEWSMARKET_WORKERS", None)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in INPUTS.items():
            (tmp / name).write_text(text)

        def run(args):
            proc = subprocess.run(
                [sys.executable, "-m", "newsmarket", *args],
                cwd=tmp, env=env, capture_output=True, timeout=300)
            return proc.returncode, proc.stdout, proc.stderr.decode()

        print(f"# fingerprint: {fingerprint()}")
        print("\n".join(listing(tmp, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
