"""Growth-model fitting, classification, and witness extraction."""

import math

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


def test_use_estimate_flag():
    samples = [GrowthSample(r=float(k), area_lower=1.0,
                            area_estimate=math.exp(2.0 * k))
               for k in range(1, 6)]
    fit = fit_growth(samples, GrowthModel.EXPONENTIAL, use_estimate=True)
    assert fit.rate == pytest.approx(2.0, abs=1e-9)


def test_growth_fit_validation():
    with pytest.raises(ValueError):
        GrowthFit(model=GrowthModel.EXPONENTIAL, rate=float("inf"),
                  log_intercept=0.0, residual_rms=0.0, r_range=(1.0, 2.0))
    with pytest.raises(ValueError):
        GrowthFit(model=GrowthModel.EXPONENTIAL, rate=1.0,
                  log_intercept=0.0, residual_rms=-1.0, r_range=(1.0, 2.0))
