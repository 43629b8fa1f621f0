"""Growth-model fitting, classification, and witness extraction."""

import functools
import math
import operator

import mpmath
import numpy as np
import pytest

from graphgrowth import (
    GraphFamily,
    GrowthFit,
    GrowthModel,
    GrowthSample,
    InsufficientSamplesError,
    NonPositiveAreaError,
    NoWitnessError,
    QuadConfig,
    QuadMode,
    SampleSource,
    SublevelDomain,
    classify_growth,
    fit_growth,
    graph_area,
    packet_growth_lower_bound,
    witness_constants,
)
from graphgrowth import growth
from graphgrowth.growth import _least_squares
from graphgrowth.schedule import RadiiVariant, ScheduleConfig, build_schedule


def synth(fn, rs):
    return [GrowthSample(r=r, area_lower=fn(r)) for r in rs]


@pytest.fixture(scope="module")
def packet_samples():
    return [
        GrowthSample(
            r=float(r),
            area_lower=packet_growth_lower_bound(GraphFamily.SIN_EXP, float(r)),
            source=SampleSource.PACKETS,
        )
        for r in range(6, 15)
    ]


@pytest.fixture(scope="module")
def gaussian_samples():
    return [
        GrowthSample(
            r=r,
            area_lower=packet_growth_lower_bound(GraphFamily.SIN_EXP_SQ, r, delta=0.01),
            source=SampleSource.PACKETS,
        )
        for r in (2.5, 3.0, 3.5, 4.0, 4.5)
    ]


# ---------------------------------------------------------------------------
# exact synthetic recovery: rate to 1e-9, residual below 1e-9
# ---------------------------------------------------------------------------

def test_fit_exact_exponential():
    fit = fit_growth(synth(lambda r: math.exp(2 * r), [1.0, 1.5, 2.0, 2.5, 3.0]),
                     GrowthModel.EXPONENTIAL)
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.residual_rms <= 1e-9
    assert fit.log_intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.r_range == (1.0, 3.0)


def test_fit_exact_polynomial():
    fit = fit_growth(synth(lambda r: 5 * r**2, [1.0, 2.0, 3.0, 4.0]),
                     GrowthModel.POLYNOMIAL)
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.residual_rms <= 1e-9
    assert fit.log_intercept == pytest.approx(math.log(5), abs=1e-9)


def test_fit_exact_gaussian():
    fit = fit_growth(synth(lambda r: 0.5 * math.exp(3 * r**2), [1.0, 1.2, 1.4, 1.6]),
                     GrowthModel.GAUSSIAN)
    assert fit.rate == pytest.approx(3.0, abs=1e-9)
    assert fit.residual_rms <= 1e-9


def test_classify_exact_models():
    rs = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
    assert classify_growth(synth(lambda r: 3 * r**4, rs)).model is GrowthModel.POLYNOMIAL
    assert classify_growth(synth(lambda r: math.exp(1.5 * r), rs)).model is GrowthModel.EXPONENTIAL
    assert classify_growth(synth(lambda r: math.exp(0.8 * r**2), rs)).model is GrowthModel.GAUSSIAN


def test_classify_skips_models_that_cannot_be_fit():
    # r^2 of 2e154 overflows, so only the Gaussian model has no fit
    samples = synth(lambda r: 2.0 + math.log(r), [1.0, 2.0, 3.0, 2e154])
    with pytest.raises(ValueError, match="finite"):
        fit_growth(samples, GrowthModel.GAUSSIAN)
    fits = [fit_growth(samples, m) for m in (GrowthModel.POLYNOMIAL,
                                              GrowthModel.EXPONENTIAL)]
    assert classify_growth(samples) == min(fits, key=lambda f: f.residual_rms)


def test_classify_raises_when_no_model_fits():
    # all areas equal to 0 fail every model with the first model's error
    samples = [GrowthSample(r=float(k), area_lower=0.0) for k in range(1, 5)]
    with pytest.raises(NonPositiveAreaError):
        classify_growth(samples)
    with pytest.raises(InsufficientSamplesError):
        classify_growth(synth(lambda r: r, [1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# measured samples
# ---------------------------------------------------------------------------

def test_packet_samples_fit_exponential(packet_samples):
    fit = fit_growth(packet_samples, GrowthModel.EXPONENTIAL)
    assert 0.9 <= fit.rate <= 1.1
    assert fit.rate == 1.0018328557874241  # frozen


def test_packet_samples_classify_exponential(packet_samples):
    assert classify_growth(packet_samples).model is GrowthModel.EXPONENTIAL


def test_gaussian_samples_classify(gaussian_samples):
    fit = classify_growth(gaussian_samples)
    assert fit.model is GrowthModel.GAUSSIAN
    assert fit.rate == pytest.approx(0.99070634675120006, rel=1e-12)


def test_ez_quadrature_classify_polynomial():
    cfg = QuadConfig(mode=QuadMode.ESTIMATE, max_depth=12)
    samples = []
    for R in (2.0, 4.0, 8.0, 16.0):
        res = graph_area(SublevelDomain(GraphFamily.EXP, R), cfg)
        samples.append(GrowthSample(r=R, area_lower=res.lower,
                                    area_estimate=res.estimate))
    fit = classify_growth(samples)
    assert fit.model is GrowthModel.POLYNOMIAL
    assert fit.rate == pytest.approx(2.4744050115537233, rel=1e-12)


def test_ez_quadrature_rate_two():
    # Expected to FAIL: the area mass near x = log R grows like R^3, so
    # the fitted degree exceeds 2.3 already on R <= 16.  Kept faithful
    # to the stated tolerance; see the decisions ledger.
    cfg = QuadConfig(mode=QuadMode.ESTIMATE, max_depth=12)
    samples = []
    for R in (2.0, 4.0, 8.0, 16.0):
        res = graph_area(SublevelDomain(GraphFamily.EXP, R), cfg)
        samples.append(GrowthSample(r=R, area_lower=res.lower,
                                    area_estimate=res.estimate))
    fit = classify_growth(samples)
    assert abs(fit.rate - 2.0) <= 0.3


# ---------------------------------------------------------------------------
# scale invariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [7.3, 1e-4, 2.5e5])
def test_classification_scale_invariant(scale, packet_samples):
    base = classify_growth(packet_samples)
    scaled = [GrowthSample(r=s.r, area_lower=s.area_lower * scale,
                           source=s.source) for s in packet_samples]
    fit = classify_growth(scaled)
    assert fit.model is base.model
    assert fit.rate == pytest.approx(base.rate, abs=1e-9)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_exact_exponential():
    samples = synth(lambda r: math.exp(r), [2.0, 3.0, 4.0, 5.0, 6.0])
    c, r0 = witness_constants(samples, GrowthModel.EXPONENTIAL)
    assert c >= 0.999
    assert r0 == 2.0


def test_witness_packet_samples(packet_samples):
    c, r0 = witness_constants(packet_samples, GrowthModel.EXPONENTIAL)
    assert 0.5 <= c <= 1.0
    assert r0 <= 6.0
    assert (c, r0) == (0.999, 6.0)  # frozen


def test_witness_decreasing_area():
    samples = synth(lambda r: math.exp(-r) + 1e-3, [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(NoWitnessError):
        witness_constants(samples, GrowthModel.EXPONENTIAL)


@pytest.mark.parametrize("model,fn", [
    (GrowthModel.EXPONENTIAL, lambda r: math.exp(1.3 * r) * (1 + 0.1 * math.sin(r))),
    (GrowthModel.POLYNOMIAL, lambda r: 2 * r**3 * (1 + 0.05 * math.cos(r))),
    (GrowthModel.GAUSSIAN, lambda r: math.exp(0.7 * r**2) * (1 + 0.08 * math.sin(3 * r))),
])
def test_witness_inequality_holds_post_hoc(model, fn):
    rs = [1.5 + 0.25 * k for k in range(12)]
    samples = synth(fn, rs)
    c, r0 = witness_constants(samples, model)
    assert c > 0
    fit = fit_growth(samples, model)
    C = math.exp(fit.log_intercept)
    for s in samples:
        if s.r >= r0:
            m = {GrowthModel.POLYNOMIAL: math.log(s.r),
                 GrowthModel.EXPONENTIAL: s.r,
                 GrowthModel.GAUSSIAN: s.r**2}[model]
            assert s.area_lower >= C * math.exp(c * m) * (1 - 1e-12)


def test_witness_polynomial_needs_r_above_one():
    samples = synth(lambda r: r**2, [0.5, 0.8, 1.0, 1.2])
    with pytest.raises((NoWitnessError, ValueError)):
        witness_constants(samples, GrowthModel.POLYNOMIAL)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        fit_growth(synth(lambda r: r, [1.0, 2.0, 3.0]), GrowthModel.POLYNOMIAL)


def test_non_monotone_radii():
    samples = [GrowthSample(r=r, area_lower=1.0) for r in (1.0, 2.0, 2.0, 3.0)]
    with pytest.raises(ValueError):
        fit_growth(samples, GrowthModel.EXPONENTIAL)


def test_non_positive_area():
    samples = [GrowthSample(r=float(k), area_lower=0.0) for k in range(1, 5)]
    with pytest.raises(NonPositiveAreaError):
        fit_growth(samples, GrowthModel.EXPONENTIAL)


def test_equal_model_coordinates_rejected():
    # distinct radii one ulp apart near 1e300 share one double log
    rs = [1e300]
    for _ in range(3):
        rs.append(math.nextafter(rs[-1], math.inf))
    assert len(set(map(math.log, rs))) == 1
    samples = synth(lambda r: 2.0, rs)
    with pytest.raises(ValueError, match="degenerate"):
        fit_growth(samples, GrowthModel.POLYNOMIAL)
    assert fit_growth(samples, GrowthModel.EXPONENTIAL).rate == 0.0


def test_sample_validation():
    with pytest.raises(ValueError):
        GrowthSample(r=-1.0, area_lower=1.0)
    with pytest.raises(ValueError):
        GrowthSample(r=1.0, area_lower=-0.5)


def test_growth_fit_validation():
    with pytest.raises(ValueError):
        GrowthFit(model=GrowthModel.EXPONENTIAL, rate=float("inf"),
                  log_intercept=0.0, residual_rms=0.0, r_range=(1.0, 2.0))
    with pytest.raises(ValueError):
        GrowthFit(model=GrowthModel.EXPONENTIAL, rate=1.0,
                  log_intercept=0.0, residual_rms=-1.0, r_range=(1.0, 2.0))


# ---------------------------------------------------------------------------
# the exact fit against a Python-int reference
# ---------------------------------------------------------------------------

def _scaled_ints(values):
    """Integers M_i and a common k with values[i] == M_i * 2**k exactly."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("least squares needs finite values")
    mant, exp = np.frexp(arr)
    ints = (mant * 2.0**53).astype(np.int64).tolist()
    low = int(exp.min())
    return list(map(operator.lshift, ints, (exp - low).tolist())), low - 53


def _rounded_ratio(num, den, shift):
    try:
        return (num << shift) / den if shift >= 0 else num / (den << -shift)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _least_squares_reference(x, y):
    """The fit with its five sums taken over Python ints, term by term."""
    X, kx = _scaled_ints(x)
    Y, ky = _scaled_ints(y)
    n = len(X)
    sx, sy = sum(X), sum(Y)
    sxx = sum(map(operator.mul, X, X))
    sxy = sum(map(operator.mul, X, Y))
    den = n * sxx - sx * sx
    if den == 0:
        raise ValueError("degenerate abscissae: all x values equal")
    num = n * sxy - sx * sy
    p = (n * sum(map(operator.mul, Y, Y)) - sy * sy) * den - num * num
    q = n * n * den
    m = max(0, (q.bit_length() - p.bit_length() + 112) // 2)
    scaled = p << (2 * m)
    root = math.isqrt(scaled // q)
    if root * root * q != scaled:
        root |= 1
    return (_rounded_ratio(num, den, ky - kx),
            _rounded_ratio(sy * sxx - sx * sxy, den, ky),
            _rounded_ratio(root, 1, ky - m))


_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.0, -3.5, 1e308, -1e308, 2.0**-1000, -(2.0**1000)])


_FIT_KINDS = ("logs", "normal", "spread", "edge", "binades")

# (lowest binary exponent, span) of x and of y in each chunk of
# growth._FIT_CHUNK values, cycled; None is a chunk of zeros.  With random
# mantissas, a chunk takes the Gram path exactly when its two spans are
# both at most 10.
_BINADE_CHUNKS = (
    ((-60, 10), (5, 10)),  # both exactly 10: Gram
    ((5, 10), (-3, 11)),  # y exactly 11: Python ints
    ((-1020, 11), (0, 10)),  # x exactly 11: Python ints
    ((-1070, 3), (900, 10)),  # subnormal x: Gram after a wide chunk
    ((40, 11), (-40, 11)),
    ((0, 0), None),
    ((-3, 10), (60, 0)),
)


@functools.cache
def _stage_logs():
    """log k for k = 2..100001, correctly rounded: mpmath at 200 bits."""
    with mpmath.workprec(200):
        return np.array([float(mpmath.log(k)) for k in range(2, 100_002)])


def _binade_column(spec, size, rng):
    """size values of the given (lowest exponent, span), the first two at
    both ends of it, a tenth of the rest zeros, of either sign."""
    if spec is None:
        return np.zeros(size)
    low, span = spec
    v = np.ldexp(rng.uniform(0.5, 1.0, size), low + rng.integers(0, span + 1, size))
    v[:2] = np.ldexp([0.5, 0.75], [low, low + span])[:size]
    v[2:][rng.random(max(size - 2, 0)) < 0.1] = 0.0
    return v * rng.choice([-1.0, 1.0], size)


def _binade_inputs(n, rng):
    chunks = [(lo, _BINADE_CHUNKS[i % len(_BINADE_CHUNKS)])
              for i, lo in enumerate(range(0, n, growth._FIT_CHUNK))]
    return tuple(np.concatenate([_binade_column(spec[j], min(growth._FIT_CHUNK, n - lo), rng)
                                 for lo, spec in chunks]) for j in range(2))


def _fit_inputs(kind, n, rng):
    if kind == "binades":
        return _binade_inputs(n, rng)
    if kind == "logs":  # the trend: correctly rounded logs of stages and of sigma
        x = _stage_logs()[:n]
        return x, -0.5 * x + np.log(rng.uniform(0.5, 2.0, n))
    columns = []
    for _ in range(2):
        v = rng.standard_normal(n)
        if kind == "spread":  # binary exponents over -1000..1000, both signs
            v = np.ldexp(v, rng.integers(-1000, 1001, n))
        elif kind == "edge":  # zeros, subnormals and extremes among normals
            pick = rng.random(n) < 0.5
            v[pick] = rng.choice(_EDGE_VALUES, int(pick.sum()))
        columns.append(v)
    return tuple(columns)


@pytest.mark.parametrize("n", [2, 2**14 - 1, 2**14, 2**14 + 1, 100_000])
@pytest.mark.parametrize("kind", _FIT_KINDS)
def test_least_squares_matches_python_int_reference(kind, n):
    # the Gram and Python-int sums are the reference's integers, so the rounded
    # slope, intercept and rms are identical, overflow to +-inf included
    rng = np.random.default_rng([n, _FIT_KINDS.index(kind)])
    x, y = _fit_inputs(kind, n, rng)
    want = _least_squares_reference(x.tolist(), y.tolist())
    assert _least_squares(x, y) == want
    assert _least_squares(x.tolist(), y.tolist()) == want


def _spy_gram_sums(monkeypatch):
    """The sizes of the chunks growth._gram_sums is called on, as they come."""
    gram = []
    sums = growth._gram_sums
    monkeypatch.setattr(growth, "_gram_sums",
                        lambda x, *rest: gram.append(x.size) or sums(x, *rest))
    return gram


def test_least_squares_gram_path_takes_integer_columns(monkeypatch):
    # the Gram path takes exactly the chunks whose x and y are each
    # integers below 2**63 at one power of two (a chunk of zeros is); with
    # random 53-bit mantissas that needs a span of at most 10 binades, and
    # the other chunks are summed over Python ints
    gram = _spy_gram_sums(monkeypatch)
    n = 100_000
    x, y = _binade_inputs(n, np.random.default_rng(7))
    assert _least_squares(x, y) == _least_squares_reference(x.tolist(), y.tolist())
    sizes = [min(growth._FIT_CHUNK, n - lo) for lo in range(0, n, growth._FIT_CHUNK)]
    specs = [_BINADE_CHUNKS[i % len(_BINADE_CHUNKS)] for i in range(len(sizes))]
    narrow = [all(spec is None or spec[1] <= 10 for spec in pair) for pair in specs]
    assert gram == [size for size, ok in zip(sizes, narrow) if ok]
    assert 0 < len(gram) < len(sizes)


def test_least_squares_plot_fit_takes_the_gram_path(monkeypatch):
    # the schedule plot fits r_n against the stage numbers n = 1..10**5,
    # whose first chunk spans 15 binades but holds integers: every chunk
    # is a Gram product
    gram = _spy_gram_sums(monkeypatch)
    n = 100_000
    sched = build_schedule(ScheduleConfig(RadiiVariant.GAUSSIAN_RADII, N=n, n0=1))
    x, y = np.arange(1.0, n + 1), sched.r[:n]
    assert _least_squares(x, y) == _least_squares_reference(x.tolist(), y.tolist())
    assert gram == [min(growth._FIT_CHUNK, n - lo) for lo in range(0, n, growth._FIT_CHUNK)]


# integers 70 binades apart (60 bits past 2**63), and 21 binades whose
# 1 + 2**-52 is no integer once scaled down by the 10 bits past 2**63
@pytest.mark.parametrize("column", [[1.0, 2.0**70, 3.0, 5.0],
                                    [1.0 + 2.0**-52, 2.0**20, 3.0, 5.0]])
def test_least_squares_wide_columns_take_python_ints(monkeypatch, column):
    gram = _spy_gram_sums(monkeypatch)
    other = [0.5, 1.0, 2.0, 4.0]
    for x, y in ((column, other), (other, column)):
        assert _least_squares(x, y) == _least_squares_reference(x, y)
    assert gram == []


@pytest.mark.parametrize("x", [[3.0, 3.0], [0.0, -0.0, 0.0], [5e-324] * 5])
def test_least_squares_equal_abscissae(x):
    y = [1.0, 2.0, 4.0, 8.0, 16.0][:len(x)]
    for fit in (_least_squares, _least_squares_reference):
        with pytest.raises(ValueError, match="degenerate"):
            fit(x, y)
