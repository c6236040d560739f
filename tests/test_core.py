"""Parameter records, series carrier, random source, and text round-trips."""

import concurrent.futures
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtri

from newsmarket import cli, core, market
from newsmarket.analytics import autocorrelation, mssa_leading
from newsmarket.core import (
    MarketState,
    ModelParams,
    RandomSource,
    Series,
    _MAX_WORK,
    _NDTRI_EXPM2,
    _ROOT_XTOL,
    _brentq,
    _div_cosh2,
    _load_record,
    _ndtri,
    _work,
    load_params,
    parse_kv_file,
    read_series,
    validate,
    write_series,
)
from newsmarket.glauber import (SpinSystemConfig, meanfield_compare,
                                simulate_glauber)
from newsmarket.market import ensemble, simulate
from newsmarket.phase import (bifurcation_sweep, detect_limit_cycle,
                              integrate_autonomous)
from newsmarket.pricing import iterative_theta_fit
from newsmarket.reference import _averaged_gap, solve_sbar
from newsmarket.sentiment import (_self_consistency_gap, integrate_sentiment,
                                  potential_uc)

GOOD = dict(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.374, a2=0.002,
            gamma=56.0, delta=0.03, kappa=1.0, a4=6.5, s_star=0.131)


def test_validate_accepts_reference_params():
    p = ModelParams(**GOOD)
    assert p.validate() == []
    assert validate(p) is p


def test_validate_reports_every_violation():
    # a non-positive rate is rejected when the record is made, and the
    # error names the model ranges too
    with pytest.raises(ValueError) as err:
        ModelParams(w_s=-1.0, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.0,
                    a2=0.002, delta=-0.1, s_star=2.0)
    for needle in ("w_s", "a1", "delta", "s_star"):
        assert needle in str(err.value)
    p = ModelParams(w_s=0.04, w_h=0.4, beta1=1.1, beta2=0.55, a1=0.0,
                    a2=0.002, delta=-0.1, s_star=2.0)
    joined = " ".join(p.validate())
    for needle in ("a1", "delta", "s_star"):
        assert needle in joined
    with pytest.raises(ValueError, match="a1"):
        validate(p)


def test_validate_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        ModelParams(**{**GOOD, "gamma": math.nan})


@pytest.mark.parametrize("name, value, rule", [
    *[(name, value, "finite") for name in core._PARAM_FIELDS
      for value in (math.nan, math.inf)],
    *[(name, value, "positive") for name in ("w_s", "w_h")
      for value in (0.0, -1.0)],
])
def test_params_with_an_unusable_field_cannot_be_made(name, value, rule):
    with pytest.raises(ValueError,
                       match=f"^invalid parameters: .*{name} must be {rule}"):
        ModelParams(**GOOD).replace(**{name: value})


def test_construction_error_keeps_the_validate_order():
    # rates, then the model ranges, then finiteness, as load_params wrote
    # them before construction checked anything
    with pytest.raises(ValueError) as err:
        ModelParams(**{**GOOD, "w_s": math.nan, "a1": 0.0, "kappa": -2.0})
    assert str(err.value) == (
        "invalid parameters: w_s must be positive; kappa must be "
        "non-negative; a1 must be positive; w_s must be finite")


def test_derived_properties():
    p = ModelParams(**GOOD, h_bar=0.017 / 0.55)
    assert p.eta == pytest.approx(10.0)
    assert p.gamma_bar == pytest.approx(2.24)
    assert p.c == pytest.approx(0.017)


def test_replace_returns_new_record():
    p = ModelParams(**GOOD)
    q = p.replace(gamma=60.0)
    assert q.gamma == 60.0 and p.gamma == 56.0
    assert q is not p


def test_market_state_bounds():
    MarketState(s=1.0, h=-1.0, p=123.0)
    with pytest.raises(ValueError, match="s must"):
        MarketState(s=1.5, h=0.0)
    with pytest.raises(ValueError, match="h must"):
        MarketState(s=0.0, h=-2.0)
    with pytest.raises(ValueError, match="p must"):
        MarketState(s=0.0, h=0.0, p=math.inf)


def test_series_basics():
    s = Series([1.0, 2.0, 3.0], start_index=5, step=2.0)
    assert len(s) == 3
    assert list(s.times()) == [5.0, 7.0, 9.0]
    with pytest.raises(ValueError, match="one-dimensional"):
        Series([[1.0, 2.0]])
    with pytest.raises(ValueError, match="at least one"):
        Series([])
    with pytest.raises(ValueError, match="non-finite sample at position 1"):
        Series([0.0, math.nan])
    # an infinite step made times() return [nan, inf, ...]
    for step in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="step must be positive and "
                           "finite"):
            Series([1.0, 2.0], step=step)


_QUIET = ModelParams(**{**GOOD, "kappa": 0.0})
_AT = MarketState(0.5, 0.0)
_SIM = dict(params=_QUIET, init=_AT, horizon_days=5)
_AUTO = dict(params=_QUIET, init=_AT, days=5)
_CYCLE = dict(params=_QUIET, init=_AT, max_days=5)
_SPINS = dict(N_s=4, N_h=2)
_WAVE = Series(np.sin(np.arange(40)))

# Every count argument in the package: (callable, valid keyword arguments,
# the count's name, its least value).  The CLI's --realizations arrives as
# an argparse int, so only its lower bound reaches core._count
# (test_glauber_trajectory_rejects_zero_realizations).
COUNT_SITES = [
    (simulate, _SIM, "horizon_days", 1),
    (simulate, _SIM, "substeps", 1),
    (ensemble, dict(params=_QUIET, init=_AT, horizon=5, rng=RandomSource(0)),
     "n_realizations", 1),
    (meanfield_compare, dict(config=SpinSystemConfig(**_SPINS), horizon=1.0,
                             rng=RandomSource(0)), "n_realizations", 1),
    (integrate_autonomous, _AUTO, "days", 1),
    (integrate_autonomous, _AUTO, "substeps", 1),
    (detect_limit_cycle, _CYCLE, "max_days", 1),
    (detect_limit_cycle, _CYCLE, "substeps", 1),
    (bifurcation_sweep, dict(params=_QUIET, sweep="gamma",
                             value_range=(0.0, 10.0)), "steps", 2),
    (integrate_sentiment, dict(H=Series(np.zeros(5)), s0=0.5,
                               params=_QUIET), "substeps", 1),
    (potential_uc, dict(params=_QUIET, c=0.0), "grid_size", 3),
    (SpinSystemConfig, _SPINS, "N_s", 1),
    (SpinSystemConfig, _SPINS, "N_h", 1),
    (autocorrelation, dict(x=_WAVE), "max_lag", 0),
    (mssa_leading, dict(x=_WAVE, y=_WAVE), "window", 2),
    (mssa_leading, dict(x=_WAVE, y=_WAVE, window=5), "n_components", 1),
    (iterative_theta_fit, dict(H=_WAVE, p_obs=_WAVE, params=_QUIET),
     "window", 60),
    (RandomSource, dict(seed=0), "seed", 0),
    (RandomSource, dict(seed=0), "stream_id", 0),
    (RandomSource(0).substream, {}, "offset", 0),
]


@pytest.mark.parametrize("value", [
    2.5, math.nan, math.inf, "3",
    pytest.param(None, id="below-least")])
@pytest.mark.parametrize("call, kwargs, name, least", COUNT_SITES, ids=[
    f"{call.__name__}-{name}" for call, _, name, _ in COUNT_SITES])
def test_count_arguments_are_checked_by_name(call, kwargs, name, least,
                                             value):
    # non-integers used to truncate, pass, or die in range() unnamed
    if value is None:
        value, message = least - 1, f"{name} must be >= {least}"
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(**{**kwargs, name: value})


# Every count that sizes an array from its value alone.  numpy refuses
# 10**15 floats (7 PiB) at once; the refusal used to escape as its
# MemoryError.  The realization counts build their random streams first,
# so test_cli checks them in a child with a capped address space.
SIZE_SITES = [
    (simulate, _SIM, "horizon_days"),
    (integrate_autonomous, _AUTO, "days"),
    (bifurcation_sweep, dict(params=_QUIET, sweep="gamma",
                             value_range=(0.0, 10.0)), "steps"),
    (potential_uc, dict(params=_QUIET, c=0.0), "grid_size"),
]


@pytest.mark.parametrize("call, kwargs, name", SIZE_SITES, ids=[
    f"{call.__name__}-{name}" for call, _, name in SIZE_SITES])
def test_counts_too_large_for_an_array_are_named(call, kwargs, name):
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} = {10 ** 15} is too large")):
        call(**{**kwargs, name: 10 ** 15})


# Every call whose arguments set the length of its loop: 10**15 substeps
# or about 10**15 flips used to run for ever.  A meanfield horizon of
# 10**15 is refused for its work before its grid is sized.  The test
# cuts the budget to 1000 steps, so that an ensemble is refused for the
# substeps of all its realizations (5 * 50 days * 8) without running
# one at full size; each realization alone (400) is within it.  A sweep
# is charged three brackets of 100 Brent iterations a point.
_HUGE = 10 ** 15
WORK_SITES = [
    (simulate, {**_SIM, "substeps": _HUGE},
     f"horizon_days * substeps = 5 * {_HUGE} = 5e+15"),
    (integrate_autonomous, {**_AUTO, "substeps": _HUGE},
     f"days * substeps = 5 * {_HUGE} = 5e+15"),
    (detect_limit_cycle, {**_CYCLE, "substeps": _HUGE},
     f"max_days * substeps = 5 * {_HUGE} = 5e+15"),
    (integrate_sentiment, dict(H=Series(np.zeros(5)), s0=0.5, params=_QUIET,
                               substeps=_HUGE),
     f"len(H) * substeps = 5 * {_HUGE} = 5e+15"),
    (simulate_glauber, dict(config=SpinSystemConfig(**_SPINS, w_s=1e15),
                            horizon=2.0, rng=RandomSource(0)),
     "(w_s*N_s + w_h*N_h) * horizon * realizations = 4e+15 * 2 * 1 = 8e+15"),
    (meanfield_compare, dict(config=SpinSystemConfig(**_SPINS),
                             horizon=1e15, n_realizations=3,
                             rng=RandomSource(0)),
     "(w_s*N_s + w_h*N_h) * horizon * realizations = 6 * 1e+15 * 3 = "
     "1.8e+16"),
    (ensemble, dict(params=_QUIET, init=_AT, horizon=50, n_realizations=5,
                    rng=RandomSource(0)),
     "n_realizations * horizon_days * substeps = 5 * 50 * 8 = 2000"),
    (bifurcation_sweep, dict(params=_QUIET, sweep="gamma",
                             value_range=(0.0, 10.0), steps=4),
     "steps * 3 * 100 = 4 * 3 * 100 = 1200"),
]


@pytest.mark.parametrize("call, kwargs, expr", WORK_SITES, ids=[
    call.__name__ for call, _, _ in WORK_SITES])
def test_work_past_the_budget_is_refused_by_name(call, kwargs, expr,
                                                 monkeypatch):
    monkeypatch.setattr(core, "_MAX_WORK", 1000)
    with pytest.raises(ValueError, match=re.escape(
            f"{expr} exceeds the work budget of 1e+03 steps")):
        call(**kwargs)


def test_a_call_its_budget_refuses_makes_no_stream(tmp_path, monkeypatch):
    # every realization's substream used to be made before the budget
    # was checked: 100,000 Glauber realizations took 1.8 s and 133 MB
    # before their refusal
    made = []
    substream = RandomSource.substream
    monkeypatch.setattr(RandomSource, "substream",
                        lambda rng, i: made.append(i) or substream(rng, i))
    spins = SpinSystemConfig(**_SPINS)
    with pytest.raises(ValueError, match="work budget"):
        meanfield_compare(spins, 1e15, 3, RandomSource(0))
    f = tmp_path / "spins.txt"
    f.write_text("N_s = 4\nN_h = 2\n")
    assert cli.main(["glauber", "trajectory", "--params", str(f),
                     "--horizon", "1e15", "--realizations", "3",
                     "--out", str(tmp_path / "runs")]) == 1
    monkeypatch.setattr(core, "_MAX_WORK", 1000)
    with pytest.raises(ValueError, match="work budget"):
        ensemble(_QUIET, _AT, 50, 5, RandomSource(0))
    assert made == []
    simulate_glauber(spins, 1.0, RandomSource(0))   # one stream, no fan-out
    assert ensemble(_QUIET, _AT, 5, 2, RandomSource(0))[1][1].stream_id == 1
    assert made == [0, 1]


_THETA = np.full(5, 0.9)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kwargs, message", [
    (dict(mode="bogus"), "unknown mode 'bogus'"),
    (dict(theta_profile=Series(_THETA, step=2.0)), "sampled daily"),
    (dict(theta_profile=Series(_THETA, start_index=1)), "start on the run's"),
    (dict(theta_profile=Series(_THETA[:3])), "has 3 days, fewer than"),
    (dict(theta_profile=Series([0.9, 1e-310, 0.9, 0.9, 0.9])),
     "day 1 has theta = 1e-310"),
    (dict(beta1_shift=-5.0), "leaves the daily beta1 negative"),
    (dict(max_work=100), "n_realizations .* exceeds the work budget"),
], ids=["mode", "theta-step", "theta-start", "theta-short",
        "theta-subnormal", "beta1-shift", "budget"])
def test_a_refused_ensemble_makes_no_stream_and_starts_no_pool(
        kwargs, message, workers, monkeypatch):
    # simulate's own checks ran per realization, after the streams and the
    # pool: 100,000 realizations on two workers took 5.7 s and 338 MB to
    # refuse a short theta profile
    made, pools = [], []
    substream = RandomSource.substream
    monkeypatch.setattr(RandomSource, "substream",
                        lambda rng, i: made.append(i) or substream(rng, i))
    pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: pools.append(kw) or pool(**kw))
    kwargs = dict(kwargs)
    monkeypatch.setattr(core, "_MAX_WORK", kwargs.pop("max_work", _MAX_WORK))
    with pytest.raises(ValueError, match=message):
        ensemble(_QUIET, _AT, 5, 4, RandomSource(0), workers=workers,
                 **kwargs)
    assert made == [] and pools == []
    ensemble(_QUIET, _AT, 5, 2, RandomSource(0), workers=workers)
    assert made == [0, 1] and len(pools) == (workers > 1)


def test_one_market_call_admits_its_runs_once(monkeypatch):
    # ensemble checked the fixed-step rule once itself and then once in
    # each realization's simulate
    admitted = []
    fixed_steps = market._fixed_steps
    monkeypatch.setattr(market, "_fixed_steps",
                        lambda *a: admitted.append(a) or fixed_steps(*a))
    noisy = ModelParams(**GOOD)
    ensemble(noisy, _AT, 5, 4, RandomSource(0))
    assert len(admitted) == 1
    simulate(noisy, _AT, 5, rng=RandomSource(0))
    assert len(admitted) == 2


def test_the_work_budget_admits_its_limit():
    _work(_MAX_WORK, "n")
    for work in (_MAX_WORK + 1, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^n = \S+ exceeds the work "
                           r"budget of 1e\+09 steps$"):
            _work(work, "n")


@given(a=st.floats(-1e300, 1e300),
       x=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_div_cosh2_is_the_quotient_wherever_that_is_finite(a, x):
    # the quotient used to raise OverflowError past |x| ~ 355
    try:
        want = a / math.cosh(x) ** 2
    except OverflowError:
        assert abs(x) > 355 and _div_cosh2(a, x) == 0.0
    else:
        assert repr(_div_cosh2(a, x)) == repr(want)


def test_random_source_reproducible():
    a = RandomSource(42).standard_normal(64)
    b = RandomSource(42).standard_normal(64)
    assert np.array_equal(a, b)
    c = RandomSource(42, stream_id=1).standard_normal(64)
    assert not np.array_equal(a, c)


def test_random_source_takes_numpy_integers():
    # 2.5 used to draw the seed-2 stream and substream(1.7) stream 1
    rng = RandomSource(np.int64(7), np.int32(3)).substream(np.uint8(2))
    assert (rng.seed, rng.stream_id) == (7, 5)
    assert type(rng.seed) is int and type(rng.stream_id) is int
    assert np.array_equal(rng.uniform(16), RandomSource(7, 5).uniform(16))


def test_substream_matches_direct_construction():
    base = RandomSource(7, stream_id=3)
    via_sub = base.substream(2).uniform(16)
    direct = RandomSource(7, stream_id=5).uniform(16)
    assert np.array_equal(via_sub, direct)


def test_random_source_scalar_and_array_draws():
    r = RandomSource(0)
    x = r.standard_normal()
    assert isinstance(x, float)
    u = RandomSource(1).uniform(1000)
    assert np.all((0.0 <= u) & (u < 1.0))
    e = RandomSource(2).exponential(20000)
    assert np.all(e >= 0.0)
    assert np.mean(e) == pytest.approx(1.0, abs=0.03)


def test_normal_moments():
    x = RandomSource(9).standard_normal(200_000)
    assert np.mean(x) == pytest.approx(0.0, abs=0.01)
    assert np.std(x) == pytest.approx(1.0, abs=0.01)


def test_parse_kv_file(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("# comment\n a = 1.5 \n\nb=2 # trailing\n")
    assert parse_kv_file(f) == {"a": 1.5, "b": 2.0}
    f.write_text("a 1.5\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_kv_file(f)
    f.write_text("a = x\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_kv_file(f)
    f.write_text("beta1 = 1.1\nw_s = 0.04\nbeta1 = 1.2\n")
    with pytest.raises(ValueError, match="line 3: duplicate key 'beta1' "
                                         r"\(first set on line 1\)"):
        parse_kv_file(f)


def test_load_params(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("".join(f"{k} = {v}\n" for k, v in GOOD.items()))
    p = load_params(f)
    assert p.gamma == 56.0
    q = load_params(f, gamma=60.0)
    assert q.gamma == 60.0
    f.write_text("w_s = 0.04\nbogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        load_params(f)


def test_series_round_trip(tmp_path):
    f = tmp_path / "s.csv"
    src = Series([0.1, -2.5e-7, 3.0], start_index=4, step=1.0)
    write_series(f, src, label="s", header=["demo"])
    back = read_series(f)
    assert np.array_equal(back.values, src.values)
    assert back.start_index == 4 and back.step == 1.0


def test_write_series_exact_bytes_at_half_day_step(tmp_path):
    f = tmp_path / "half.csv"
    src = Series([0.1, 1.0 / 3.0, -2.0, 1e-300], start_index=3, step=0.5)
    write_series(f, src, label="x", header=["demo", "step: 0.5"])
    assert f.read_bytes() == (b"# demo\n# step: 0.5\ndate_index,x\n"
                              b"3.0,0.1\n3.5,0.3333333333333333\n"
                              b"4.0,-2.0\n4.5,1e-300\n")
    back = read_series(f)
    assert np.array_equal(back.values, src.values)
    assert (back.start_index, back.step) == (3, 0.5)


def test_report_exact_bytes(tmp_path):
    f = tmp_path / "report.txt"
    cli._write_report(f, ["newsmarket test", "command: demo"], [
        ("flag", True), ("np_flag", np.bool_(False)), ("n", 7),
        ("np_n", np.int64(-3)), ("x", 0.1), ("np_x", np.float64(2.5e-8)),
        ("whole", 56.0), ("name", "none"),
    ])
    assert f.read_bytes() == (b"# newsmarket test\n# command: demo\n"
                              b"flag = true\nnp_flag = false\nn = 7\n"
                              b"np_n = -3\nx = 0.1\nnp_x = 2.5e-08\n"
                              b"whole = 56.0\nname = none\n")


def test_load_record_makes_int_annotated_fields_ints(tmp_path):
    f = tmp_path / "spins.txt"
    f.write_text("N_s = 8.0\nN_h = 4\ntheta = 2\n")
    config = _load_record(f, SpinSystemConfig)
    assert (config.N_s, config.N_h, config.theta) == (8, 4, 2.0)
    assert (type(config.N_s), type(config.N_h), type(config.theta)) == (
        int, int, float)


def test_read_series_column_selection(tmp_path):
    f = tmp_path / "multi.csv"
    f.write_text("date_index,s,h\n0,0.1,0.9\n1,0.2,0.8\n")
    assert np.array_equal(read_series(f).values, [0.1, 0.2])
    assert np.array_equal(read_series(f, column="h").values, [0.9, 0.8])
    assert np.array_equal(read_series(f, column=2).values, [0.9, 0.8])
    assert np.array_equal(read_series(f, column=np.int64(2)).values,
                          [0.9, 0.8])
    with pytest.raises(ValueError, match="no column named"):
        read_series(f, column="zzz")
    g = tmp_path / "bare.csv"
    g.write_text("0,0.1\n1,0.2\n")
    with pytest.raises(ValueError, match="no header"):
        read_series(g, column="s")
    # no header and no data: the missing header is reported
    g.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no header"):
        read_series(g, column="s")


@pytest.mark.parametrize("column", [2.0, -1])
def test_read_series_rejects_a_position_that_is_not_a_count(tmp_path, column):
    # 2.0 silently read column 1 and -1 the last column
    f = tmp_path / "multi.csv"
    f.write_text("date_index,s,h\n0,0.1,0.9\n1,0.2,0.8\n")
    with pytest.raises(ValueError, match="column"):
        read_series(f, column=column)


def test_read_series_errors(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("date_index,value\n0,1.0\n1,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        read_series(f)
    f.write_text("date_index,value\n0,1.0\n2,2.0\n3,3.0\n")
    with pytest.raises(ValueError, match="uniformly"):
        read_series(f)
    f.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no data"):
        read_series(f)
    f.write_text("date_index,value\n# no rows\n")
    for column in (None, "value"):
        with pytest.raises(ValueError, match="no data rows"):
            read_series(f, column)
    f.write_text("date_index,value\n0,inf\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_series(f)


@given(values=st.lists(st.floats(min_value=-1e12, max_value=1e12,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40),
       start=st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_series_round_trip_property(tmp_path_factory, values, start):
    f = tmp_path_factory.mktemp("rt") / "s.csv"
    src = Series(values, start_index=start, step=1.0)
    write_series(f, src)
    back = read_series(f)
    # repr() emits the shortest digits that parse back to the same float
    assert np.array_equal(back.values, src.values)
    assert back.start_index == start


@given(st.floats(min_value=0.001, max_value=10, allow_nan=False),
       st.floats(min_value=0.001, max_value=10, allow_nan=False),
       st.floats(min_value=0, max_value=2, allow_nan=False),
       st.floats(min_value=0, max_value=2, allow_nan=False),
       st.floats(min_value=0, max_value=200, allow_nan=False),
       st.floats(min_value=0, max_value=1, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_validate_accepts_entire_legal_box(w_s, w_h, b1, b2, gamma, delta):
    p = ModelParams(w_s=w_s, w_h=w_h, beta1=b1, beta2=b2, a1=0.374,
                    a2=0.002, gamma=gamma, delta=delta)
    assert p.validate() == []


# ---------------------------------------------------------------------------
# _brentq, the port of scipy.optimize.brentq


def assert_same_root(f, lo, hi, args=()):
    """_brentq returns scipy's root bit for bit, or both raise ValueError."""
    try:
        want = brentq(f, lo, hi, args=args, xtol=_ROOT_XTOL)
    except ValueError:
        with pytest.raises(ValueError):
            _brentq(f, lo, hi, args)
        return
    assert repr(_brentq(f, lo, hi, args)) == repr(want)


@given(beta1=st.floats(min_value=0.0, max_value=3.0),
       c=st.floats(min_value=-2.0, max_value=2.0),
       cut=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_brentq_matches_scipy_on_equilibria_brackets(beta1, c, cut):
    # equilibria_1d's analytic brackets, cut once more at a random point
    ends = {-1.0, 1.0, cut}
    if beta1 > 1.0:
        a = math.acosh(math.sqrt(beta1))
        ends |= {x for x in ((-a - c) / beta1, (a - c) / beta1)
                 if -1.0 < x < 1.0}
    ends = sorted(ends)
    for lo, hi in zip(ends, ends[1:]):
        assert_same_root(_self_consistency_gap, lo, hi, (beta1, c))


@given(beta1=st.floats(min_value=1.0, max_value=2.0),
       sigma=st.floats(min_value=0.0, max_value=0.99),
       lo=st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_brentq_matches_scipy_on_solve_sbar_brackets(beta1, sigma, lo):
    assert_same_root(_averaged_gap, 1e-6, 1.0, (beta1, sigma))
    assert_same_root(_averaged_gap, lo, 1.0, (beta1, sigma))


@given(sigma=st.floats(min_value=0.0, max_value=0.6),
       frac=st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_brentq_matches_scipy_on_nested_beta1_solves(sigma, frac):
    s_star = frac * solve_sbar(2.0, sigma)
    assert_same_root(lambda b1: solve_sbar(b1, sigma) - s_star, 1.0, 2.0)


def test_brentq_raises_like_scipy():
    hole = lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5  # noqa: E731
    for f, lo, hi in ((lambda x: math.nan, 0.0, 1.0), (hole, 0.0, 1.0)):
        for solver in (brentq, _brentq):
            with pytest.raises(ValueError, match="NaN"):
                solver(f, lo, hi)
    for solver in (brentq, _brentq):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)
    # a sign step in a huge bracket needs ~1000 halvings, past maxiter
    step = lambda x: -1.0 if x < 1.0 / 3.0 else 1.0  # noqa: E731
    for solver in (brentq, _brentq):
        with pytest.raises(RuntimeError, match="converge"):
            solver(step, -1e300, 1e300)


# ---------------------------------------------------------------------------
# _ndtri, the port of Cephes ndtri behind RandomSource.standard_normal


def assert_same_ndtri(u):
    """_ndtri gives scipy's ndtri bit for bit."""
    assert _ndtri(u).tobytes() == ndtri(u).tobytes()


def test_ndtri_matches_scipy_on_uniform_draws():
    assert_same_ndtri(np.random.default_rng(15).random(2_000_000))


def _ulps_around(x, n):
    """x and the n floats on either side of it."""
    lo, hi = [x], [x]
    for _ in range(n):
        lo.append(np.nextafter(lo[-1], -np.inf))
        hi.append(np.nextafter(hi[-1], np.inf))
    return np.unique(np.array(lo + hi))


def test_ndtri_matches_scipy_at_branch_edges_and_extremes():
    # the array path takes u itself in the central branch because the
    # reflected edge maps back onto the lower one exactly
    assert 1.0 - (1.0 - _NDTRI_EXPM2) == _NDTRI_EXPM2
    tiny = np.finfo(float).tiny
    edges = np.concatenate([
        _ulps_around(_NDTRI_EXPM2, 40),            # central / lower tail
        _ulps_around(1.0 - _NDTRI_EXPM2, 40),      # central / upper tail
        _ulps_around(math.exp(-32.0), 200),        # x = 8 table switch
        _ulps_around(1.0 - math.exp(-32.0), 40),   # its upper-tail image
        [5e-324, tiny, 1e-300, 1e-100, 1 - 1e-16, 0.5],
        np.geomspace(5e-324, 0.2, 20_000),
        1.0 - np.geomspace(1e-16, 0.2, 20_000),
    ])
    assert np.all((edges > 0.0) & (edges < 1.0))
    assert_same_ndtri(edges)


@pytest.mark.parametrize("size", [0, 1, 7, (3, 5), (2, 0, 4), None])
def test_standard_normal_is_ndtri_of_the_uniform_stream(size):
    got = RandomSource(4, 2).standard_normal(size)
    u = RandomSource(4, 2).uniform(size)
    if size is None:
        # one draw is a Python float, as numpy's Generator gives it
        assert type(got) is float
        got = np.float64(got)
    assert got.shape == np.shape(u)
    assert got.tobytes() == ndtri(u).tobytes()


@pytest.mark.parametrize("start", [2.5, math.nan, math.inf, -math.inf])
def test_series_rejects_a_non_integral_start_by_name(start):
    with pytest.raises(ValueError, match="start_index"):
        Series([1.0, 2.0], start_index=start)


def test_series_takes_an_integral_float_start():
    s = Series([1.0], start_index=np.float64(-3.0))
    assert s.start_index == -3 and type(s.start_index) is int


@pytest.mark.parametrize("text", [
    "date_index,value\n0.25,1.0\n1.25,2.0\n",    # used to read as day 0
    "date_index,value\n2.7,1.0\n",                # used to read as day 2
    "date_index,value\nnan,1.0\n",
])
def test_read_series_rejects_a_non_integral_first_index(tmp_path, text):
    f = tmp_path / "s.csv"
    f.write_text(text)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(f))}: line 2: start_index"):
        read_series(f)


def test_read_series_one_row(tmp_path):
    f = tmp_path / "one.csv"
    f.write_text("date_index,value\n7,0.5\n")
    back = read_series(f)
    assert (back.start_index, back.step, list(back.values)) == (7, 1.0, [0.5])


def test_read_series_trailing_comment_is_a_comment(tmp_path):
    plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
    plain.write_text("date_index,s,h\n0,0.1,0.9\n1,0.2,0.8\n")
    noted.write_text("date_index,s,h  # names\n0,0.1,0.9 # note\n"
                     "  # indented comment\n1,0.2,0.8#\n")
    for column in (None, "h"):
        a, b = read_series(plain, column), read_series(noted, column)
        assert np.array_equal(a.values, b.values)
        assert (a.start_index, a.step) == (b.start_index, b.step)


def test_read_series_short_row_is_named(tmp_path):
    f = tmp_path / "short.csv"
    f.write_text("date_index,s,h\n0,0.1,0.9\n1\n")
    with pytest.raises(ValueError, match="line 3: expected at least 2 "
                                         "columns"):
        read_series(f)
    f.write_text("0,0.1\n")
    with pytest.raises(ValueError, match="line 1: expected at least 3 "
                                         "columns"):
        read_series(f, column=2)
