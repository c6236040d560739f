"""Self-test of the benchmark: every workload at tiny size, in both modes.

    python3 perfbench/selftest.py

For each workload it runs run.py untraced and traced with --tiny and
checks that the run exits 0 with every operation correct, that the last
line holds exactly the result keys, that every metric named in
BENCHMARK.json is there with its unit (end-to-end untraced, per-layer
traced), and that the traced run wrote its spans, with a span in every
module.  Last, it checks that run.py refuses, with a non-zero exit and no
result line, in a directory that holds only the benchmark.  Takes about
three minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAYERS = ("core", "sentiment", "reference", "pricing", "market", "phase",
          "glauber", "analytics", "cli")
SPAN_KEYS = {"name", "start_ns", "end_ns", "parent", "op"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    problems = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(last)}")
    if last["correct"] is not True or last["failed"] != 0 \
            or last["attempted"] < 1:
        problems.append(f"correct={last['correct']} failed={last['failed']} "
                        f"attempted={last['attempted']}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = last["metrics"]
    if set(got) != set(wanted):
        problems.append(f"metrics differ: missing "
                        f"{sorted(set(wanted) - set(got))}, extra "
                        f"{sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        if m.get("unit") != wanted.get(name) or not isinstance(
                m.get("value"), (int, float)):
            problems.append(f"{name}: {m}")
    printed = {line.split()[0] for line in lines[:-1]
               if not line.startswith("#")}
    if not set(wanted) <= printed:
        problems.append(f"not printed: {sorted(set(wanted) - printed)}")
    if trace:
        problems += check_spans(lines)
    return problems


def check_spans(lines: list) -> list:
    path = [line.split()[-1] for line in lines if line.startswith("# spans ")]
    if not path or not (ROOT / path[0]).is_file():
        return ["no spans file"]
    spans = [json.loads(line)
             for line in (ROOT / path[0]).read_text().splitlines()]
    bad = [s for s in spans if not SPAN_KEYS <= set(s)
           or s["end_ns"] < s["start_ns"]]
    layers = {s["name"].split(".", 1)[0] for s in spans}
    problems = [f"malformed span {s}" for s in bad[:3]]
    if not set(LAYERS) <= layers:
        problems.append(f"no spans for {sorted(set(LAYERS) - layers)}")
    return problems


def check_refuses_without_source() -> list:
    bare = BENCH / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "ensemble_returns", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit {proc.returncode}, stdout {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    cases = [(w["name"], t) for w in spec["workloads"] for t in (0, 1)]
    for workload, trace in cases:
        problems = check_run(spec, workload, trace)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {workload} trace {trace}"
              + "".join(f"\n  {p}" for p in problems), flush=True)
    problems = check_refuses_without_source()
    failed += bool(problems)
    print(f"{'FAIL' if problems else 'PASS'} refuses without src/"
          + "".join(f"\n  {p}" for p in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
