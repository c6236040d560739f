"""Run one newsmarket benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the package in src/.
Each run starts the workload in fresh worker processes, all on one CPU,
with ensemble workers and BLAS threads pinned to 1.  With --trace 0 it
first starts two workers that only set up, so that set-up time is the
median of three fresh starts, then measures with the third.  Times are
reported at reference machine speed (see speed.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json for --trace 0, its
per-layer metrics for --trace 1.  Lines before it name every metric with
its unit and sample count, including the workload's named metrics.  The
full result, with raw per-operation samples and a machine fingerprint, is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
PINNED_ENV = {
    "NEWSMARKET_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Worker:
    """A worker process; ready() waits for READY and returns the time."""

    def __init__(self, argv: list, deadline: float):
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise BenchError(f"worker failed during set-up: {line.strip()!r}")
        return time.perf_counter()

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def fingerprint(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu_model": model,
            "git_commit": git_commit(), "src_lines": src_lines}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "newsmarket" / "__init__.py").is_file():
        raise BenchError(f"no package at {ROOT / 'src' / 'newsmarket'}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    # One CPU for this process and every process it starts, so that the
    # speed samples come from the CPU doing the work: the CPUs of a shared
    # host are slowed by their neighbours independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    workers = []
    try:
        with speed.Speedometer() as meter:
            n = 1 if args.trace else SETUP_SAMPLES
            for i in range(n):
                setup_only = i < n - 1
                w = Worker(argv + ["--setup-only"] * setup_only, deadline)
                workers.append(w)
                setups.append(meter.measure(w.t0, w.ready()))
                if setup_only:
                    w.finish()
        result = json.loads(w.finish().strip().splitlines()[-1])
    finally:
        for w in workers:
            w.stop()

    metrics = result.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setups),
                              "unit": "s", "n": len(setups)}
        result["named"]["raw_setup_s"] = {
            "value": statistics.median(r for r, _ in setups), "unit": "s",
            "n": len(setups)}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    wrong_unit = [m["name"] for m in wanted if m["name"] in metrics
                  and metrics[m["name"]]["unit"] != m["unit"]]
    if missing or wrong_unit:
        raise BenchError(f"missing metrics {missing}, wrong units "
                         f"{wrong_unit}")
    result.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_samples_s": setups, "pinned_env": PINNED_ENV,
        "fingerprint": fingerprint(result.pop("versions")),
        "all_metrics": metrics,
        "summary": {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                    "unit": m["unit"]} for m in wanted},
        },
    })
    return result


def report(result: dict, path: Path) -> None:
    fp = result["fingerprint"]
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['attempted']} operations, "
          f"{result['failed']} failed, output digest "
          f"{result['output_digest']}")
    print("# " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    named = dict(result["all_metrics"], **result.get("named", {}))
    if not result["trace"]:
        named["failed_frac"] = {"value": result["failed"]
                                / result["attempted"], "unit": "1"}
    for name, m in sorted(named.items()):
        extra = " ".join(f"{k}={v}" for k, v in m.items()
                         if k not in ("value", "unit"))
        print(f"{name} {m['value']:.6g} {m['unit']} {extra}".rstrip())
    if "spans_file" in result:
        print(f"# spans {result['spans_file']}")
    print(f"# result {path.relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args()
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = BENCH / "out"
    path = out / (f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
                  f"-{time.time_ns()}.json")
    path.write_text(json.dumps(result, indent=1))
    report(result, path)
    print(json.dumps(result["summary"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
