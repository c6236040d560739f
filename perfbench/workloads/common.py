"""Pieces shared by the workloads: the operation result, the workload
interface, probes, generated inputs and small statistics helpers."""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass

import numpy as np

# The paper's main parameter set, as the acceptance suite pins it.
MAIN = dict(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.374, a2=0.002,
            a4=6.5, s_star=0.131)


@dataclass
class OpResult:
    """Outcome of one operation: its correctness verdict, the work it did
    in the workload's unit, and the bytes that enter the output digest."""

    ok: bool
    work: float = 0.0
    detail: str = ""
    digest: bytes = b""


class Workload:
    """One benchmark workload.

    A round is the workload's whole protocol, a list of operations run
    back to back.  Every round repeats the same generated inputs, so round
    times differ only by the machine.  Subclasses generate their inputs
    from the seed in __init__ (set-up), and provide:

    - ops(): the round, as (kind, fn) pairs; fn(tracer) -> OpResult;
    - decompose(tracer): calls that a traced run makes outside the timed
      rounds, such as the inner calls of a wrapper;
    - probes(tracer): single public calls timed in a loop;
    - summary(records, positions): work per second and the named
      metrics, from all operation records and from each operation's
      median across the complete rounds;
    - layer_metrics(tracer): the per-layer metrics it owns.
    """

    name = ""

    def __init__(self, seed: int, tiny: bool, workdir):
        self.seed = int(seed)
        self.tiny = tiny
        self.workdir = workdir

    def warm_up(self) -> None:
        pass

    def ops(self) -> list:
        raise NotImplementedError

    def decompose(self, tr) -> None:
        pass

    def probes(self, tr) -> None:
        pass

    def summary(self, records: list, positions: list) -> tuple:
        raise NotImplementedError

    def layer_metrics(self, tr) -> dict:
        raise NotImplementedError


def probe(tr, name: str, fn, calls: int) -> None:
    """Time `calls` back-to-back calls of fn under one span."""
    with tr.span(name, calls=calls):
        for _ in range(calls):
            fn()


def ar1_series(seed: int, n: int, coef: float = 0.97, innov: float = 0.06,
               clip: float = 0.8) -> np.ndarray:
    """Seeded AR(1) news series, as in the calibration acceptance test."""
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = 0.0
    for i in range(1, n):
        x[i] = coef * x[i - 1] + innov * rng.standard_normal()
    return np.clip(x, -clip, clip)


def digest_arrays(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.digest()


def all_within_unit(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) and float(np.max(np.abs(a))) <= 1.0
               for a in arrays)


def metric(value, unit: str, n: int | None = None, **extra) -> dict:
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = int(n)
    out.update(extra)
    return out


def latency_metric(seconds: list, scale: float, unit: str) -> dict:
    """Median with the sample count, plus the highest of p75/p90/p95/p99
    that still has at least ten samples beyond it."""
    vals = sorted(v * scale for v in seconds)
    out = metric(statistics.median(vals), unit, len(vals))
    for pct in (99, 95, 90, 75):
        if len(vals) * (1 - pct / 100) >= 10:
            out[f"p{pct}"] = vals[min(len(vals) - 1,
                                      math.ceil(pct / 100 * len(vals)) - 1)]
            break
    return out


def rate(positions: list, kind: str) -> float:
    """Work per second over a round's operations of one kind."""
    sel = [p for p in positions if p["kind"] == kind]
    return sum(p["work"] for p in sel) / sum(p["s"] for p in sel)


def median_ms(tr, name: str) -> float:
    return 1e3 * statistics.median(tr.seconds(name))
