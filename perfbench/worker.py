"""One workload in one fresh process; started by run.py, never by hand.

The worker imports the package from the checkout's src/, generates the
workload's inputs from the seed and warms up, then prints READY.  run.py
times set-up up to that line.  A worker started with --setup-only exits
there.  Otherwise it runs the closed loop and prints one JSON line.

Untraced (--trace 0): rounds back to back for --seconds, at least one.
Traced (--trace 1): one untraced round, then traced rounds for --seconds,
then the decomposition calls and the probes.  Every other workload then
runs one traced round at tiny size, so each per-layer metric has a value
on every workload; its own workload measures it at full size.  A
Speedometer samples machine speed throughout, and every operation and
span time is also given at reference speed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from speed import Speedometer  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads.common import OpResult  # noqa: E402

# Imported on demand, so that a worker's set-up pays only for the imports
# of its own workload.
WORKLOADS = {
    "ensemble_returns": "ensemble_returns:EnsembleReturns",
    "spin_oracle": "spin_oracle:SpinOracle",
    "phase_calibration": "phase_calibration:PhaseCalibration",
    "cli_session": "cli_session:CliSession",
}


def load(name: str):
    module, cls = WORKLOADS[name].split(":")
    return getattr(importlib.import_module("workloads." + module), cls)


def run_op(tr, kind, fn, rnd, pos) -> dict:
    tr.new_op()
    t0 = time.perf_counter()
    try:
        with tr.span("op." + kind):
            res = fn(tr)
    except Exception as exc:  # a failing call is a failed operation
        traceback.print_exc(file=sys.stderr)
        res = OpResult(False, detail=f"{type(exc).__name__}: {exc}")
    return {"round": rnd, "pos": pos, "kind": kind, "t0": t0,
            "t1": time.perf_counter(), "work": res.work, "ok": res.ok,
            "detail": res.detail, "digest": res.digest}


def run_rounds(wl, tr, seconds: float, records: list) -> range:
    """Closed loop with one client: each operation starts when the previous
    one has returned.  Finishes the first round, then stops at the first
    operation boundary after `seconds`.  Returns the indices of the
    complete rounds."""
    start = time.perf_counter()
    first = rnd = 1 + max((r["round"] for r in records), default=-1)
    while True:
        for pos, (kind, fn) in enumerate(wl.ops()):
            records.append(run_op(tr, kind, fn, rnd, pos))
            if rnd > first and time.perf_counter() - start >= seconds:
                return range(first, rnd)
        rnd += 1
        if time.perf_counter() - start >= seconds:
            return range(first, rnd)


def run_step(tr, kind, fn, records) -> None:
    """Decomposition and probes count as operations: they can fail too."""
    records.append(run_op(tr, kind, lambda t: fn(t) or OpResult(True), -1, 0))


def scale(records: list, meter) -> None:
    """Give each record its raw time and its time at reference speed."""
    for r in records:
        if "t0" in r:
            r["raw_s"], r["s"] = meter.measure(r.pop("t0"), r.pop("t1"))


def positions(records: list, rounds: range) -> list:
    """Median time and work of each operation of a round, across the
    complete rounds."""
    by_pos: dict = {}
    for r in records:
        if r["round"] in rounds:
            by_pos.setdefault(r["pos"], []).append(r)
    return [{"kind": recs[0]["kind"],
             **{k: statistics.median(r[k] for r in recs)
                for k in ("s", "raw_s", "work")}}
            for _, recs in sorted(by_pos.items())]


def round_seconds(pos: list, key: str = "s") -> float:
    return sum(p[key] for p in pos)


def output_digest(records: list) -> str:
    """Digest of the first round's outputs; identical for identical bits."""
    h = hashlib.sha256()
    for r in records:
        if r["round"] == 0:
            h.update(r["digest"])
    return h.hexdigest()[:16]


def peak_rss_mb(name: str) -> float:
    # cli_session's work runs in its child processes.
    who = resource.RUSAGE_CHILDREN if name == "cli_session" else \
        resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced(wl, args, records, workdir, meter) -> dict:
    plain = run_rounds(wl, NullTracer(wl.name), 0.0, records)
    tr = Tracer(wl.name)
    rounds = run_rounds(wl, tr, args.seconds, records)
    run_step(tr, "decompose", wl.decompose, records)
    run_step(tr, "probes", wl.probes, records)
    tr.scale(meter)
    layer = {k: dict(v, source="full") for k, v in
             wl.layer_metrics(tr).items()}
    tracers = [tr]
    for other in WORKLOADS:
        if other == wl.name:
            continue
        sub = workdir / other
        sub.mkdir()
        o = load(other)(args.seed, True, sub)
        o.warm_up()
        otr = Tracer(other)
        run_rounds(o, otr, 0.0, records)
        run_step(otr, "decompose", o.decompose, records)
        run_step(otr, "probes", o.probes, records)
        otr.scale(meter)
        for k, v in o.layer_metrics(otr).items():
            layer[k] = dict(v, source="tiny " + other)
        tracers.append(otr)
    scale(records, meter)
    layer["trace.overhead_s"] = {
        "value": round_seconds(positions(records, rounds))
        - round_seconds(positions(records, plain)),
        "unit": "s", "n": len(rounds),
        "computed": "traced wall_s minus untraced wall_s"}
    layer["trace.spans"] = {"value": float(sum(len(t.spans)
                                               for t in tracers)),
                            "unit": "count"}
    spans_file = BENCH / "out" / (f"spans-{wl.name}-seed{args.seed}-"
                                  f"{os.getpid()}.jsonl")
    with open(spans_file, "w") as fh:
        for t in tracers:
            t.dump(fh)
    return {"metrics": layer, "spans_file": str(spans_file.relative_to(ROOT)),
            "layer_self_s": tr.self_seconds_by_layer(),
            "rounds": len(rounds)}


def untraced(wl, args, records, meter) -> dict:
    rounds = run_rounds(wl, NullTracer(wl.name), args.seconds, records)
    run_step(NullTracer(wl.name), "decompose", wl.decompose, records)
    scale(records, meter)
    pos = positions(records, rounds)
    per_s, named = wl.summary([r for r in records if r["round"] >= 0], pos)
    named["raw_wall_s"] = {"value": round_seconds(pos, "raw_s"), "unit": "s",
                           "n": len(rounds)}
    named["speed_factor"] = {"value": meter.median_factor(), "unit": "1",
                             "n": len(meter.durations)}
    return {"metrics": {
        "wall_s": {"value": round_seconds(pos), "unit": "s",
                   "n": len(rounds)},
        "work_per_s": {"value": per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(wl.name), "unit": "MB"},
    }, "named": named, "rounds": len(rounds)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import newsmarket
    if Path(newsmarket.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"newsmarket imported from {newsmarket.__file__}, "
                         f"not from {ROOT / 'src'}")
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = load(args.workload)(args.seed, args.tiny, workdir)
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        records: list = []
        with Speedometer() as meter:
            result = (traced(wl, args, records, workdir, meter) if args.trace
                      else untraced(wl, args, records, meter))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy
    import scipy
    failures = [r for r in records if not r["ok"]]
    digest = output_digest(records)
    for r in records:
        r["digest"] = r["digest"].hex()[:16]
    result.update({
        "attempted": len(records),
        "failed": len(failures),
        "failures": [f"{r['kind']}: {r['detail']}" for r in failures],
        "output_digest": digest,
        "records": records,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
