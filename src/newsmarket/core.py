"""Shared domain types: parameters, states, series, and the random source.

Everything downstream (sentiment integration, the closed market model,
phase analysis, the spin-kinetics oracle) shares these carriers.  Time is
measured in business days throughout; rates are per business day.

Plain-text interfaces: every file the package reads or writes is built
here from `#` header lines plus either `name = value` lines (parameter
and spin-config records, reports) or comma-separated rows under a row of
column names (`date_index,value` series, tables).  Record loaders reject
unknown, missing and duplicate keys and non-integral integer fields by
name.  Values are written as ints, true/false, or the shortest
round-trip float repr, so identical runs give identical bytes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "ModelParams",
    "MarketState",
    "Series",
    "RandomSource",
    "validate",
    "parse_kv_file",
    "load_params",
    "read_series",
    "write_series",
]

# Integrators raise once |s| or |h| exceeds 1 by more than this slack.
_BOUND_SLACK = 1e-9
# Absolute root tolerance of every _brentq solve in the package.
_ROOT_XTOL = 1e-12
# Relative tolerance and iteration budget of _brentq (scipy's defaults).
_ROOT_RTOL = 4 * float(np.finfo(float).eps)
_ROOT_MAXITER = 100

# The two forms of the closed market model (market.simulate's mode); kept
# here so that the CLI parser can offer them without importing market.
SIMPLIFIED = "simplified"
FULL = "full"

# ModelParams fields in output order (the order of params lines and
# manifests), which differs from the dataclass's declaration order.
_PARAM_FIELDS = ("w_s", "w_h", "beta1", "beta2", "beta3", "beta4", "gamma",
                 "delta", "kappa", "a1", "a2", "a4", "s_star", "h_bar")


@dataclass(frozen=True)
class ModelParams:
    """All rate, coupling, and noise constants of the sentiment/price model.

    One record carries both the empirical-mode fields (driven by a measured
    information series) and the theory-mode fields (closed feedback loop);
    fields a given mode does not use default to zero.

    Units: w_s, w_h, a2 are 1/business-day; gamma is day-valued (it
    multiplies a rate); everything else is dimensionless.  A record with
    a non-finite field or w_s, w_h <= 0 cannot be made.
    """

    w_s: float
    w_h: float
    beta1: float
    beta2: float
    a1: float
    a2: float
    beta3: float = 0.0
    beta4: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    kappa: float = 0.0
    a4: float = 0.0
    s_star: float = 0.0
    h_bar: float = 0.0

    @property
    def eta(self) -> float:
        """Relaxation-rate ratio w_h / w_s."""
        return self.w_h / self.w_s

    @property
    def gamma_bar(self) -> float:
        """Feedback gain in rescaled time, w_s * gamma."""
        return self.w_s * self.gamma

    @property
    def c(self) -> float:
        """Potential-tilt constant beta2 * h_bar (empirical mode)."""
        return self.beta2 * self.h_bar

    def __post_init__(self):
        rates = [f"{name} must be positive" for name in ("w_s", "w_h")
                 if not (getattr(self, name) > 0)]
        finite = [f"{name} must be finite" for name in _PARAM_FIELDS
                  if not math.isfinite(getattr(self, name))]
        if rates or finite:
            raise ValueError("invalid parameters: "
                             + "; ".join(rates + self.validate() + finite))

    def validate(self) -> list[str]:
        """One message per violated model range (empty when valid); a
        record may be made outside them, as phase analysis takes a
        negative delta."""
        bad = [f"{name} must be non-negative"
               for name in ("beta1", "beta2", "beta3", "beta4", "gamma",
                            "delta", "kappa")
               if getattr(self, name) < 0]
        for name in ("a1", "a2"):
            if not (getattr(self, name) > 0):
                bad.append(f"{name} must be positive")
        if abs(self.s_star) > 1:
            bad.append("s_star must lie in [-1, 1]")
        return bad

    def replace(self, **changes) -> "ModelParams":
        return type(self)(**{**vars(self), **changes})


def _count(name: str, value, least: int = 1) -> int:
    """value as an int of at least `least` (numpy integers pass), or a
    ValueError naming it; the one check of every count argument."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _length(n, error: str) -> int:
    """floor(n) for the length of an array that user input sets (n an int
    or a float, inf included), once numpy has shown it can allocate that
    many floats (a count goes through _size).  A length numpy
    refuses at once, past its index range or more than memory can hold,
    raises ValueError(error), which names the flag or field that set it.
    """
    try:
        n = math.floor(n)
        np.empty(n)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(error) from None
    return n


def _size(name: str, value, least: int = 1) -> int:
    """_count(name, value, least), checked by _length as an array length;
    the one rule of every count that sizes an array."""
    return _length(_count(name, value, least),
                   f"{name} = {value} is too large for an array")


# The work budget of _work, in elementary steps.
_MAX_WORK = 10**9


def _work(work, expr: str) -> None:
    """Reject a call whose work, the `expr` of the flags or fields that set
    it, exceeds _MAX_WORK = 10**9 elementary steps: the RK4 substeps of one
    fixed-step realization (days * substeps), or the bound on a Glauber
    call's expected events (flip rate bound * horizon * realizations).
    A loop that large would run for hours (a count such as substeps =
    10**15 for ever); it raises ValueError naming expr instead."""
    if not work <= _MAX_WORK:
        raise ValueError(f"{expr} = {work:.4g} exceeds the work budget of "
                         f"{_MAX_WORK:.0e} steps")


def _div_cosh2(a: float, x: float) -> float:
    """a / cosh(x)**2, that is a*sech(x)**2, written so that it cannot
    overflow: where cosh(x)**2 would (|x| above about 355) the quotient
    is 0.0 (with a's sign), and everywhere else it is the same float."""
    try:
        return a / math.cosh(x) ** 2
    except OverflowError:
        return 0.0 * a


def validate(params: ModelParams) -> ModelParams:
    """Return params unchanged iff every invariant holds; raise otherwise.

    The error message lists every violated invariant by field name.
    """
    bad = params.validate()
    if bad:
        raise ValueError("invalid parameters: " + "; ".join(bad))
    return params


@dataclass(frozen=True)
class MarketState:
    """Instantaneous (s, h, p): sentiment, information flow, log price."""

    s: float
    h: float
    p: float = 0.0

    def __post_init__(self):
        bad = []
        if not (abs(self.s) <= 1):
            bad.append("s must lie in [-1, 1]")
        if not (abs(self.h) <= 1):
            bad.append("h must lie in [-1, 1]")
        if not math.isfinite(self.p):
            bad.append("p must be finite")
        if bad:
            raise ValueError("invalid state: " + "; ".join(bad))


class Series:
    """Uniformly sampled business-day series.

    start_index is the integer day index of the first sample (3.0 passes
    as 3), step the finite positive spacing in days (1.0 for daily
    series).  values is a 1-D float array.
    """

    __slots__ = ("start_index", "step", "values")

    def __init__(self, values, start_index: int = 0, step: float = 1.0):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if len(values) < 1:
            raise ValueError("series must contain at least one sample")
        if not np.all(np.isfinite(values)):
            i = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(f"non-finite sample at position {i}")
        if not 0 < step < math.inf:
            raise ValueError(f"step must be positive and finite, got {step!r}")
        if not float(start_index).is_integer():
            raise ValueError(f"start_index {start_index!r} is not an integer")
        self.values = values
        self.start_index = int(start_index)
        self.step = float(step)

    def __len__(self) -> int:
        return len(self.values)

    def times(self) -> np.ndarray:
        """Sample times in business days."""
        return self.start_index + self.step * np.arange(len(self.values))

    def __repr__(self) -> str:
        return (f"Series(n={len(self.values)}, start_index={self.start_index}, "
                f"step={self.step})")


class RandomSource:
    """Deterministic random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) produce bitwise-identical draw sequences
    across runs and thread schedules: the underlying bit generator is
    PCG64 keyed by SeedSequence(entropy=seed, spawn_key=(stream_id,)),
    and Gaussian draws use the inverse-CDF transform of the generator's
    uniforms rather than a rejection method, so the mapping from bit
    stream to normal deviates is a fixed pure function.  The transform is
    _ndtri, a port of Cephes ndtri (Moshier 1989) whose draws equal
    scipy.special.ndtri's bit for bit.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _count("seed", seed, least=0)
        self.stream_id = _count("stream_id", stream_id, least=0)
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, offset: int) -> "RandomSource":
        """Independent stream at stream_id + offset (one per realization)."""
        return RandomSource(self.seed,
                            self.stream_id + _count("offset", offset, least=0))

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def standard_normal(self, size=None):
        """Standard normal via inverse CDF of the uniform stream."""
        u = self._gen.random(size)
        # Guard the measure-zero u == 0 (ndtri(0) = -inf).
        z = _ndtri(np.where(u > 0.0, u, np.finfo(float).tiny))
        return float(z) if size is None else z

    def exponential(self, size=None):
        """Unit-mean exponential draws, -log(1 - U) with U in [0, 1)."""
        u = self._gen.random(size)
        return -np.log1p(-u)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"


def _brentq(f, a, b, args=()):
    """Root of f on [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy.optimize.brentq (its brentq.c, with
    xtol = _ROOT_XTOL, rtol = 4*eps and maxiter = 100), so roots are
    bitwise equal to scipy's and the solvers do not load scipy.  Raises
    ValueError on a NaN function value or when f(a) and f(b) have the
    same sign, RuntimeError when 100 iterations do not converge.
    """
    def fx(x):
        v = float(f(x, *args))
        if math.isnan(v):
            raise ValueError(f"the function value at x={x} is NaN; "
                             "solver cannot continue")
        return v

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry          # good short step
            else:
                spre = scur = sbis               # bisect
        else:
            spre = scur = sbis                   # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"failed to converge after {_ROOT_MAXITER} "
                       f"iterations, value is {xcur}")


# Cephes ndtri (Moshier 1989), the inverse normal CDF that scipy.special
# ndtri evaluates: a rational function of (y - 1/2)**2 for exp(-2) < y <=
# 1 - exp(-2), else of 1/x with x = sqrt(-2 log y) (of 1 - y in the upper
# tail), with one table pair below x = 8 (y = exp(-32)) and one above.
# Each denominator's leading 1 is written out, so that _polevl serves as
# Cephes' p1evl too (1*x + q is x + q).
_NDTRI_EXPM2 = 0.13533528323661269189
_NDTRI_S2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coefs):
    """coefs[0]*x**n + ... + coefs[n] in Horner's order (Cephes polevl),
    elementwise."""
    a = coefs[0]
    for c in coefs[1:]:
        a = a * x + c
    return a


def _ndtri_tail(x, log_x, far):
    """The tail branch's |result| at x = sqrt(-2 log y), given log(x)."""
    p, q = (_NDTRI_P2, _NDTRI_Q2) if far else (_NDTRI_P1, _NDTRI_Q1)
    z = 1.0 / x
    return x - log_x / x - z * _polevl(z, p) / _polevl(z, q)


def _log(x: np.ndarray) -> np.ndarray:
    """libm's log of each element (math.log): np.log may round a
    different way in the last bit."""
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Cephes ndtri of each element of a float array with values in (0, 1),
    as scipy computes it.

    numpy operations in Cephes' order give its bits, except for the
    tails' two logs, which are math.log.  Cephes reflects y > 1 - exp(-2)
    to 1 - y; as 1 - (1 - exp(-2)) is exp(-2) in floats, every reflected
    u lies in a tail, so the central branch takes u itself.  It runs on
    every element (it is finite on [0, 1], and picking out the central
    ~73% would cost more), and the tails are then overwritten.
    """
    flat = u.ravel()
    d = flat - 0.5
    d2 = d * d
    out = (d + d * (d2 * _polevl(d2, _NDTRI_P0)
                    / _polevl(d2, _NDTRI_Q0))) * _NDTRI_S2PI
    tail = np.flatnonzero((flat <= _NDTRI_EXPM2)
                          | (flat > 1.0 - _NDTRI_EXPM2))
    u_t = flat[tail]
    upper = u_t > 1.0 - _NDTRI_EXPM2
    x = np.sqrt(-2.0 * _log(np.where(upper, 1.0 - u_t, u_t)))
    t = _ndtri_tail(x, _log(x), False)
    far = x >= 8.0
    if far.any():
        t[far] = _ndtri_tail(x[far], _log(x[far]), True)
    out[tail] = np.where(upper, t, -t)
    return out.reshape(u.shape)


# ---------------------------------------------------------------------------
# plain-text interfaces


def _lines(path):
    """(line number, text) of every non-blank line of an input file, with
    the `#` comment and the surrounding whitespace removed."""
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def parse_kv_file(path) -> dict[str, float]:
    """Parse a `name = value` config file; `#` starts a comment.

    Returns the raw name -> float mapping.  Malformed lines and repeated
    keys raise with the line number.
    """
    out: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, line in _lines(path):
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'name = value'")
        name, _, value = line.partition("=")
        name = name.strip()
        if name in first_line:
            raise ValueError(f"{path}: line {lineno}: duplicate key {name!r} "
                             f"(first set on line {first_line[name]})")
        first_line[name] = lineno
        try:
            out[name] = float(value.strip())
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: cannot parse value for {name!r}"
            ) from None
    return out


def _load_record(path, cls, **overrides):
    """Build the dataclass cls from a `name = value` file.

    overrides replace file values.  Unknown keys, missing required keys
    (fields without a default) and non-integral values of the fields
    annotated int raise ValueError naming the key.
    """
    raw = parse_kv_file(path)
    raw.update(overrides)
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{path}: unknown keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in raw]
    if missing:
        raise ValueError(
            f"{path}: missing required keys: {', '.join(missing)}")
    for f in fields(cls):
        # the package's annotations are strings (from __future__ import)
        if f.type == "int" and f.name in raw:
            if not float(raw[f.name]).is_integer():
                raise ValueError(f"{path}: {f.name} must be an integer")
            raw[f.name] = int(raw[f.name])
    return cls(**raw)


def load_params(path, **overrides) -> ModelParams:
    """Load ModelParams from a key/value file.  Unknown, missing and
    duplicate keys are errors, as is any invariant validate() checks."""
    return validate(_load_record(path, ModelParams, **overrides))


def read_series(path, column=None) -> Series:
    """Read one value column of a `date_index,...` CSV into a Series.

    `#` starts a comment; an optional non-numeric first row names the
    columns.  column picks the value column by name or 0-based position
    (default: the first column after the index).  Malformed or
    non-finite rows raise with the line number; indices must be
    uniformly spaced, and the first is the Series' start_index.
    """
    lines = list(_lines(path))
    names = None
    if lines:
        head = [p.strip() for p in lines[0][1].split(",")]
        try:
            float(head[0])
        except ValueError:
            names = head
            del lines[0]
    if isinstance(column, str):
        if names is None:
            raise ValueError(f"{path}: column {column!r} requested but "
                             "the file has no header row")
        if column not in names:
            raise ValueError(f"{path}: no column named {column!r}; "
                             f"have {', '.join(names)}")
        col = names.index(column)
    else:
        col = 1 if column is None else _count("column", column, least=0)
    if not lines:
        raise ValueError(f"{path}: no data rows")
    width = max(col, 1) + 1
    indices: list[float] = []
    values: list[float] = []
    for lineno, line in lines:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < width:
            raise ValueError(f"{path}: line {lineno}: expected at least "
                             f"{width} columns")
        try:
            idx = float(parts[0])
            val = float(parts[col])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed row") from None
        if not math.isfinite(val):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        indices.append(idx)
        values.append(val)
    step = indices[1] - indices[0] if len(values) > 1 else 1.0
    if not (step > 0 and np.allclose(np.diff(indices), step, rtol=0,
                                     atol=1e-9)):
        raise ValueError(f"{path}: indices are not uniformly increasing")
    try:
        return Series(values, start_index=indices[0], step=step)
    except ValueError as e:
        raise ValueError(f"{path}: line {lines[0][0]}: {e}") from None


def write_series(path, series: Series, label: str = "value",
                 header: list[str] | None = None) -> None:
    """Write a Series as `date_index,<label>` CSV with `#` header lines;
    indices are ints when the step is integral."""
    t = series.times()
    if series.step.is_integer():
        t = t.astype(int)
    _write_table(path, header or [], ("date_index", label),
                 zip(t.tolist(), series.values.tolist()))


def _fmt(v) -> str:
    """One value as written to every output file."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    # repr of a float is the shortest exact round-trip form.
    return repr(float(v))


def _fields_line(label: str, record, names) -> str:
    """`label: name=value ...` over the named fields of record."""
    return f"{label}: " + " ".join(
        f"{k}={_fmt(getattr(record, k))}" for k in names)


def _write_text(path, header, lines) -> None:
    """Write `# `-prefixed header lines, then lines, newline-terminated."""
    Path(path).write_text(
        "\n".join([f"# {h}" for h in header] + lines) + "\n")


def _write_table(path, header, names, rows) -> None:
    """CSV table: header comments, the column names, one line per row."""
    _write_text(path, header, [",".join(names)] + [
        ",".join(map(_fmt, row)) for row in rows])


def _write_report(path, header, items) -> None:
    """`name = value` report, one line per (name, value) item."""
    _write_text(path, header, [f"{k} = {_fmt(v)}" for k, v in items])
