"""Transmittance laws: closed moments, selection, joint channels."""

import copy
import math
import pickle
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate as sp_integrate
from scipy import special

from oracles import sample_joint, sample_law
from turbulight import pdt
from turbulight.bell import BellSettings, bell_parameter
from turbulight.numerics import QuadratureAccuracyError
from turbulight.pdt import (
    AdaptiveCorrelated,
    Beta,
    Dirac,
    Empirical,
    EmptySelectionError,
    PerfectlyCorrelated,
    Product,
    Scaled,
    TruncatedLogNormal,
    adaptive_correlate,
)
from turbulight.photocount import DetectorModel

betas = st.tuples(
    st.floats(0.3, 5.0), st.floats(0.3, 5.0), st.floats(0.0, 0.6)
).map(lambda t: Beta(*t))
# Keep at least ~0.1% of the mass above the truncation point, otherwise the
# scipy oracle integrates a needle it cannot see.
lognormals = (
    st.tuples(st.floats(-3.0, 0.0), st.floats(0.2, 1.5), st.floats(0.0, 0.5))
    .map(lambda t: TruncatedLogNormal(*t))
    .filter(lambda d: TruncatedLogNormal(d.mu, d.sigma).survival(d.lo) > 1e-3)
)


def quad_moment(dist, k):
    """Moment by direct scipy integration of the density (oracle path)."""
    lo, hi = dist.support
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp_integrate.IntegrationWarning)
        value, _ = sp_integrate.quad(
            lambda e: e**k * dist.density(np.array([e]))[0], lo, hi,
            epsabs=1e-13, epsrel=1e-13, limit=500,
        )
    return value


# ---------------------------------------------------------------------------
# one-mode families
# ---------------------------------------------------------------------------


def test_dirac_moments_and_bounds():
    d = Dirac(0.4)
    assert d.moment(0.5) == pytest.approx(math.sqrt(0.4), abs=1e-15)
    assert d.moment(1.0) == 0.4
    assert d.moment(2.0) == pytest.approx(0.16, abs=1e-15)
    assert d.variance() == 0.0
    assert d.t_variance() == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        Dirac(1.2)


def test_dirac_truncation_keeps_or_empties():
    d = Dirac(0.4)
    assert d.truncate(0.3) is d
    with pytest.raises(EmptySelectionError) as err:
        d.truncate(0.6)
    assert err.value.threshold == 0.6
    assert err.value.surviving_mass == 0.0


def test_uniform_beta_frozen_moments():
    u = Beta(1.0, 1.0)
    assert u.moment(0.5) == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert u.moment(1.0) == pytest.approx(0.5, rel=1e-13)
    assert u.moment(2.0) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert u.truncate(0.5).mean() == pytest.approx(0.75, rel=1e-13)


def test_beta_25_mean():
    assert Beta(2.0, 5.0).mean() == pytest.approx(2.0 / 7.0, rel=1e-13)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Beta(math.inf, 2.0),
        lambda: Beta(2.0, math.inf),
        lambda: Beta(math.nan, 2.0),
        lambda: TruncatedLogNormal(-1.0, math.inf),
        lambda: TruncatedLogNormal(math.inf, 0.5),
        lambda: TruncatedLogNormal(-1.0, math.nan),
    ],
    ids=["beta-inf-p", "beta-inf-q", "beta-nan-p", "lognormal-inf-sigma",
         "lognormal-inf-mu", "lognormal-nan-sigma"],
)
def test_non_finite_law_parameters_are_rejected(make):
    # An infinite shape or scale once gave nan moments and a silent 0.0 mean.
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: Empirical(0.3, 1.0), "Empirical etas"),
        (lambda: Empirical((0.3,), None), "Empirical weights"),
        (lambda: Dirac("x"), "Dirac value"),
        (lambda: Beta(None, 2.0), "Beta p"),
        (lambda: Beta(2.0, 1j), "Beta q"),
        (lambda: Beta(2.0, 2.0, "x"), "lower truncation point"),
        (lambda: TruncatedLogNormal("a", 1.0), "log-normal mu"),
        (lambda: TruncatedLogNormal(-1.0, [0.5]), "log-normal sigma"),
        (lambda: Scaled(Dirac(0.5), None), "scale factor"),
    ],
    ids=["empirical-etas", "empirical-weights", "dirac", "beta-p", "beta-q",
         "beta-lo", "lognormal-mu", "lognormal-sigma", "scaled"],
)
def test_wrongly_typed_law_parameters_raise_value_error_naming_them(make, name):
    # Not a TypeError from deep inside a comparison or len().
    with pytest.raises(ValueError, match=f"^{name} "):
        make()


def test_beta_thin_upper_tail_against_mpmath():
    # Little mass above lo: 1 - I_lo(p, q) lost 8 digits of it here.
    dist = Beta(0.2, 8.0, lo=0.9)
    with mp.workdps(40):
        p, q, lo = mp.mpf(0.2), mp.mpf(8), mp.mpf(0.9)
        mass = mp.betainc(p, q, lo, 1)
        moment = mp.betainc(p + mp.mpf(0.5), q, lo, 1) / mass
        survival = mp.betainc(p, q, mp.mpf(0.95), 1) / mass
    assert dist.moment(0.5) == pytest.approx(float(moment), rel=1e-13)
    assert dist.survival(0.95) == pytest.approx(float(survival), rel=1e-13)


@given(dist=betas, k=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
def test_beta_closed_moment_matches_quadrature(dist, k):
    assert dist.moment(k) == pytest.approx(quad_moment(dist, k), rel=1e-8)


@given(dist=lognormals, k=st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0]))
def test_lognormal_closed_moment_matches_quadrature(dist, k):
    assert dist.moment(k) == pytest.approx(quad_moment(dist, k), rel=1e-7)


@given(dist=st.one_of(betas, lognormals))
def test_density_normalizes(dist):
    lo, hi = dist.support
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp_integrate.IntegrationWarning)
        mass, _ = sp_integrate.quad(
            lambda e: dist.density(np.array([e]))[0], lo, hi,
            epsabs=1e-12, epsrel=1e-12, limit=500,
        )
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_beta_negative_moment_needs_positive_edge():
    with pytest.raises(ValueError, match="diverges"):
        Beta(0.5, 0.5).moment(-2.0)


def test_beta_negative_moment_quadrature_fallback():
    dist = Beta(0.5, 0.5, lo=0.3)
    # At 15 digits mpmath's own quadrature of these end singularities is
    # off by 2e-10; 30 digits take it to rounding.
    with mp.workdps(30):
        num = mp.quad(
            lambda x: x ** mp.mpf(-2) / (mp.sqrt(x) * mp.sqrt(1 - x)),
            [mp.mpf(0.3), 1],
        )
        den = mp.quad(
            lambda x: 1 / (mp.sqrt(x) * mp.sqrt(1 - x)), [mp.mpf(0.3), 1]
        )
    assert dist.moment(-2.0) == pytest.approx(float(num / den), rel=1e-12)


def test_beta_average_is_one_integrate_call_of_few_panels(monkeypatch):
    # Both pieces go through one public integrate call, under one tolerance.
    # Averaged in eta, each of these took 49-54 integrand calls.
    calls = []
    real = pdt.integrate
    monkeypatch.setattr(pdt, "integrate", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for law, k in ((Beta(0.5, 0.5, lo=0.3), -2.0), (Beta(0.5, 0.5), 2.0), (Beta(2.0, 0.5), 1.0)):
        calls.clear()
        sizes = []
        law.expectation(lambda e: sizes.append(e.size) or e**k)
        assert calls == [1]
        assert len(sizes) <= 3


def test_beta_mean_with_singular_upper_end():
    # (1 - eta)**-1/2 at eta = 1: averaged in eta this came out 1.3e-8 low.
    assert Beta(2.0, 0.5).expectation(lambda e: e) == pytest.approx(0.8, rel=1e-14)


def test_scaled_beta_keeps_the_substitution():
    law = Scaled(Beta(2.0, 0.5), 0.7)
    assert law.expectation(lambda e: e) == pytest.approx(0.56, abs=1e-14)


@settings(max_examples=400)
@given(
    p=st.floats(0.2, 8.0),
    q=st.floats(0.2, 8.0),
    lo=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    k=st.sampled_from([0.5, 1.0, 2.0]),
)
@example(p=0.2, q=8.0, lo=0.9, k=0.5)
def test_beta_expectation_matches_closed_moment(p, q, lo, k):
    # Singular ends (p or q below 1), smooth ones and truncated laws all
    # meet the integrator's own tolerance.
    law = Beta(p, q, lo)
    assert law.expectation(lambda e: e**k) == pytest.approx(law.moment(k), rel=1e-9)


def test_lognormal_negative_moment_closed_form():
    dist = TruncatedLogNormal(-1.0, 0.7)
    assert dist.moment(-2.0) == pytest.approx(quad_moment(dist, -2.0), rel=1e-7)


@pytest.mark.parametrize("lo", [0.0, 1e-3])
@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("sigma", [20.0, 40.0])
def test_lognormal_moment_wide_law_against_mpmath(sigma, k, lo):
    # exp(k mu + k^2 sigma^2 / 2) alone overflows a double here.
    mu = -1.0
    with mp.workdps(40):
        y_lo = mp.log(lo) if lo > 0.0 else -mp.inf

        def weight(y, power):
            return mp.exp(power * y - (y - mu) ** 2 / (2 * mp.mpf(sigma) ** 2))

        num = mp.quad(lambda y: weight(y, k), [y_lo, mu, 0])
        den = mp.quad(lambda y: weight(y, 0), [y_lo, mu, 0])
        expected = float(num / den)
    dist = TruncatedLogNormal(mu, sigma, lo)
    assert dist.moment(k) == pytest.approx(expected, rel=1e-11)


def mp_lognormal_mass(mu, sigma, a, b):
    """P(a <= X <= b) for ln X ~ N(mu, sigma^2), at 60 digits."""
    with mp.workdps(60):
        z_a = (mp.log(a) - mu) / sigma if a > 0.0 else -mp.inf
        z_b = (mp.log(b) - mu) / sigma
        # Complementary CDFs: no cancellation however far up the tail.
        return mp.ncdf(-z_a) - mp.ncdf(-z_b)


def mp_lognormal_moment(mu, sigma, lo, k):
    """<X**k> of the law conditioned on [lo, 1], by quadrature in ln X."""
    with mp.workdps(40):
        y_lo = mp.log(lo) if lo > 0.0 else -mp.inf

        def weight(y, power):
            return mp.exp(power * y - (y - mu) ** 2 / (2 * mp.mpf(sigma) ** 2))

        points = [y_lo] + ([mu] if y_lo < mu < 0 else []) + [0]
        return float(mp.quad(lambda y: weight(y, k), points)
                     / mp.quad(lambda y: weight(y, 0), points))


# Upper tail: lo far above the bulk of ln X (both normal CDFs round to 1);
# lower tail: the bulk far above eta = 1, so all the mass sits in the tail.
TAIL_LAWS = [(-5.0, 0.3, 0.05), (-5.0, 0.3, 0.12), (-5.0, 0.3, 0.02),
             (2.0, 0.3, 0.0), (2.0, 0.3, 0.5)]


@pytest.mark.parametrize("mu,sigma,lo", TAIL_LAWS)
def test_lognormal_tail_survival_against_mpmath(mu, sigma, lo):
    dist = TruncatedLogNormal(mu, sigma, lo)
    etas = lo + (1.0 - lo) * np.array([1e-3, 0.05, 0.2, 0.5, 0.9])
    mass = mp_lognormal_mass(mu, sigma, lo, 1.0)
    expected = [float(mp_lognormal_mass(mu, sigma, e, 1.0) / mass) for e in etas]
    np.testing.assert_allclose(dist.survival(etas), expected, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("mu,sigma,lo", [(-0.54, 0.94, 0.0)] + TAIL_LAWS)
@pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7, 1e-9])
def test_lognormal_survival_near_one_against_mpmath(mu, sigma, lo, gap):
    # P(X > 1 - gap) is a difference of two nearly equal normal CDFs.
    dist = TruncatedLogNormal(mu, sigma, lo)
    eta = 1.0 - gap
    expected = (mp_lognormal_mass(mu, sigma, eta, 1.0)
                / mp_lognormal_mass(mu, sigma, lo, 1.0))
    assert dist.survival(eta) == pytest.approx(float(expected), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu,sigma", [(-0.54, 0.94), (-5.0, 0.3), (2.0, 0.3)])
@pytest.mark.parametrize("gap", [1e-4, 1e-7, 1e-10])
def test_lognormal_truncated_near_one_against_mpmath(mu, sigma, gap):
    # The mass of [1 - gap, 1] cancels the same way as the survival.
    dist = TruncatedLogNormal(mu, sigma).truncate(1.0 - gap)
    mass = mp_lognormal_mass(mu, sigma, dist.lo, 1.0)
    for k in (0.5, 1.0, 2.0):
        with mp.workdps(60):
            # E[X^k; lo <= X <= 1] is the mass of the law shifted by k sigma^2.
            shifted = mp.mpf(mu) + k * mp.mpf(sigma) ** 2
            scale = mp.exp(k * mp.mpf(mu) + k * k * mp.mpf(sigma) ** 2 / 2)
        expected = scale * mp_lognormal_mass(shifted, sigma, dist.lo, 1.0) / mass
        assert dist.moment(k) == pytest.approx(float(expected), rel=1e-13, abs=0.0)
    eta = 1.0 - 0.5 * gap
    expected = mp_lognormal_mass(mu, sigma, eta, 1.0) / mass
    assert dist.survival(eta) == pytest.approx(float(expected), rel=1e-13, abs=0.0)


def test_lognormal_upper_tail_survival_is_not_zero():
    value = TruncatedLogNormal(-5.0, 0.3, 0.05).survival(0.1)
    mass = mp_lognormal_mass(-5.0, 0.3, 0.05, 1.0)
    expected = float(mp_lognormal_mass(-5.0, 0.3, 0.1, 1.0) / mass)
    assert expected == pytest.approx(1.03e-8, rel=0.01)
    assert value == pytest.approx(expected, rel=1e-11)


def test_upper_tail_z_literal_is_the_normal_quantile_bit_for_bit():
    # pdt writes the literal so that importing it needs no scipy.special.
    assert pdt._UPPER_TAIL_Z == float(-special.ndtri(1e-3))


@pytest.mark.parametrize("mu,sigma,lo", TAIL_LAWS)
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_lognormal_tail_moments_against_mpmath(mu, sigma, lo, k):
    dist = TruncatedLogNormal(mu, sigma, lo)
    assert dist.moment(k) == pytest.approx(
        mp_lognormal_moment(mu, sigma, lo, k), rel=1e-11
    )


def test_lognormal_truncation_deep_in_upper_tail():
    mu, sigma, threshold = -5.0, 0.3, 0.12
    dist = TruncatedLogNormal(mu, sigma).truncate(threshold)
    assert dist.lo == threshold
    assert float(mp_lognormal_mass(mu, sigma, threshold, 1.0)) == pytest.approx(
        4e-22, rel=0.5
    )
    assert dist.mean() == pytest.approx(
        mp_lognormal_moment(mu, sigma, threshold, 1.0), rel=1e-11
    )
    # Beyond every representable mass the selection is empty, as before.
    with pytest.raises(EmptySelectionError):
        TruncatedLogNormal(-50.0, 0.3).truncate(0.9)



# sigma = 0.002 in ln eta: the whole peak lies between two nodes of the
# first 15-node panel on [0, 1].  Started from that one panel, every
# average over this law read ~0 (expectation(1) gave 2.2e-251).
NARROW = TruncatedLogNormal(math.log(0.37), 0.002)


def test_lognormal_edges_bracket_the_peak():
    z = np.array([-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0])
    np.testing.assert_allclose(NARROW.edges, 0.37 * np.exp(0.002 * z), rtol=1e-15)
    _, _, points, g = NARROW.scale(0.5).chart()
    np.testing.assert_allclose(g(np.array(points))[0], 0.185 * np.exp(0.002 * z), rtol=1e-15)
    # Edges at or above 1 are left out, so a wide law cannot overflow.
    assert len(TruncatedLogNormal(-0.1, 0.5).edges) == 4
    assert max(TruncatedLogNormal(-1.0, 300.0).edges) == math.exp(-1.0)
    assert Beta(2.0, 3.0).edges == () and Dirac(0.5).edges == ()


def test_narrow_lognormal_expectation_is_normalized():
    assert NARROW.expectation(np.ones_like) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("factor", [1.0, 0.5])
def test_narrow_lognormal_mean_matches_closed_form(factor):
    law = NARROW.scale(factor)
    exact = factor * 0.37 * float(mp.exp(mp.mpf(0.002) ** 2 / 2))  # 0.370000740001 * factor
    assert law.moment(1.0) == pytest.approx(exact, rel=1e-14)
    assert law.expectation(lambda e: e) == pytest.approx(exact, rel=1e-9)


@settings(max_examples=150)
@given(
    mu=st.floats(math.log(0.01), math.log(0.9)),
    sigma=st.floats(1e-4, 3.0),
    quantile=st.one_of(st.none(), st.floats(0.05, 0.95)),
    factor=st.one_of(st.just(1.0), st.floats(0.2, 0.99)),
    k=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_lognormal_expectation_matches_closed_moment_or_raises(mu, sigma, quantile, factor, k):
    # Narrow, wide and edge-truncated laws, scaled or not: the adaptive
    # average either meets the closed-form moment or says it cannot.
    law = TruncatedLogNormal(mu, sigma)
    if quantile is not None:
        # The quantile of the law conditioned on eta <= 1.
        z = special.ndtri(quantile * special.ndtr(-mu / sigma))
        law = TruncatedLogNormal(mu, sigma, math.exp(mu + sigma * z))
    law = law.scale(factor)
    try:
        got = law.expectation(lambda e: e**k)
    except QuadratureAccuracyError:
        return
    assert got == pytest.approx(law.moment(k), rel=1e-8)

def test_empirical_is_exact_weighted_sum():
    e = Empirical((0.2, 0.8), (1.0, 1.0))
    assert e.mean() == pytest.approx(0.5, abs=1e-15)
    assert e.moment(2.0) == pytest.approx(0.5 * 0.04 + 0.5 * 0.64, abs=1e-15)
    assert e.weights == (0.5, 0.5)


def test_empirical_renormalizes_and_sorts():
    e = Empirical((0.7, 0.1), (3.0, 1.0))
    assert e.etas == (0.1, 0.7)
    assert e.weights == (0.25, 0.75)


@pytest.mark.parametrize("include_equal", [False, True])
def test_empirical_survival_matches_brute_force_sum(include_equal):
    rng = np.random.default_rng(5)
    # Few distinct etas, so many bins tie; some weights are zero.
    etas = rng.choice(np.linspace(0.0, 1.0, 9), size=40)
    weights = rng.choice([0.0, 0.5, 1.0, 3.0], size=40)
    e = Empirical(tuple(etas), tuple(weights))
    # Probes on every atom, between atoms and beyond both ends.
    probe = np.concatenate([
        np.asarray(e.etas), rng.uniform(-0.1, 1.1, 50), [-1.0, 0.0, 1.0, 2.0],
    ]).reshape(2, -1)
    atoms = np.asarray(e.etas)
    w = np.asarray(e.weights)
    above = atoms >= probe[..., None] if include_equal else atoms > probe[..., None]
    expected = np.sum(above * w, axis=-1)
    got = e.survival(probe, include_equal=include_equal)
    assert got.shape == probe.shape
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)
    assert e.survival(float(atoms[3]), include_equal=include_equal) == (
        pytest.approx(float(expected.reshape(-1)[3]), rel=1e-13, abs=1e-15)
    )


def test_empirical_truncation_and_empty():
    e = Empirical((0.2, 0.5, 0.9), (0.25, 0.5, 0.25))
    kept = e.truncate(0.4)
    assert kept.etas == (0.5, 0.9)
    assert kept.weights == (pytest.approx(2.0 / 3.0), pytest.approx(1.0 / 3.0))
    with pytest.raises(EmptySelectionError) as err:
        e.truncate(0.95)
    assert err.value.surviving_mass == 0.0


def _truncate_pairwise(law, threshold):
    """Selection as a filter over (eta, weight) pairs, renormalized by math.fsum."""
    keep = [(e, w) for e, w in zip(law.etas, law.weights) if e >= threshold]
    surviving = math.fsum(w for _, w in keep)
    if not keep or surviving <= 0.0:
        raise EmptySelectionError(threshold, surviving)
    return tuple(e for e, _ in keep), tuple(w / surviving for _, w in keep)


def test_empirical_truncation_matches_pairwise_filter():
    rng = np.random.default_rng(11)
    # Ties, zero weights inside, and a tail of zero-weight bins below 1.
    etas = np.concatenate([rng.choice(np.linspace(0.05, 0.7, 12), size=60), [0.8, 0.85, 0.9]])
    weights = np.concatenate([rng.choice([0.0, 0.2, 1.0, 3.0], size=60), [0.0, 0.0, 0.0]])
    law = Empirical(tuple(etas), tuple(weights))
    edges = np.unique(law.etas)
    thresholds = np.concatenate(
        [[0.0], edges, 0.5 * (edges[1:] + edges[:-1]), [0.95, np.nextafter(1.0, 0.0)]]
    )
    emptied = 0
    for t in thresholds.tolist():
        try:
            expected = _truncate_pairwise(law, t)
        except EmptySelectionError as err:
            emptied += 1
            with pytest.raises(EmptySelectionError) as got:
                law.truncate(t)
            assert got.value.surviving_mass == err.surviving_mass == 0.0
            continue
        kept = law.truncate(t)
        assert (kept.etas, kept.weights) == expected
        assert kept.atoms[0].tolist() == list(expected[0])
        assert kept.atoms[1].tolist() == list(expected[1])
    # Every threshold above 0.7 leaves only zero-weight bins.
    assert emptied == sum(t > 0.7 for t in thresholds)


def test_empirical_arrays_are_read_only():
    law = Empirical((0.2, 0.5, 0.9), (1.0, 2.0, 1.0))
    copies = (copy.deepcopy(law), pickle.loads(pickle.dumps(law)))
    for atomic in (law, law.truncate(0.3), Dirac(0.4), Scaled(law, 0.5), *copies):
        etas, weights = atomic.atoms
        with pytest.raises(ValueError):
            etas[0] = 0.0
        with pytest.raises(ValueError):
            weights[...] = 1.0
    assert law.etas == (0.2, 0.5, 0.9)
    assert all(c == law and c.survival(0.5) == law.survival(0.5) for c in copies)


def test_empirical_from_lists_tuples_and_arrays_is_one_law():
    etas, weights = [0.6, 0.1, 0.35], [2.0, 1.0, 5.0]
    laws = [
        Empirical(etas, weights),
        Empirical(tuple(etas), tuple(weights)),
        Empirical(np.array(etas), np.array(weights)),
    ]
    for law in laws:
        assert law == laws[0]
        assert hash(law) == hash(laws[0])
        assert repr(law) == repr(laws[0])
        assert type(law.etas) is tuple and type(law.etas[0]) is float
        assert type(law.weights) is tuple and type(law.weights[0]) is float
    assert laws[0].etas == (0.1, 0.35, 0.6)
    assert laws[0].weights == (1.0 / 8.0, 5.0 / 8.0, 2.0 / 8.0)


@pytest.mark.parametrize(
    "etas, weights, message",
    [
        ((0.1, 1.5, -0.2), (1.0, 1.0, 1.0), "bin eta must lie in the unit interval, got 1.5"),
        ((0.1, math.nan), (1.0, 1.0), "bin eta must lie in the unit interval, got nan"),
        ((0.1, 0.2, 0.3), (1.0, -0.5, 2.0), "bin weight must be nonnegative, got -0.5"),
        # The first bad bin is named; within a bin, its eta first.
        ((0.1, 0.2, 1.2), (1.0, -0.5, 2.0), "bin weight must be nonnegative, got -0.5"),
        ((0.1, -0.2, 0.3), (1.0, -0.5, 2.0), "bin eta must lie in the unit interval, got -0.2"),
        ((0.1, 0.2), (1.0, math.inf), "bin weights must sum to a positive finite value"),
        ((0.1, 0.2), (0.0, 0.0), "bin weights must sum to a positive finite value"),
        ((0.1, 0.2), (1.0,), "need matching, nonempty eta and weight sequences"),
        ((), (), "need matching, nonempty eta and weight sequences"),
    ],
)
def test_empirical_bad_bin_message(etas, weights, message):
    with pytest.raises(ValueError) as err:
        Empirical(etas, weights)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Empirical(np.array(etas), np.array(weights))
    assert str(err.value).split(", got ")[0] == message.split(", got ")[0]


def test_atoms_are_arrays_for_atomic_laws():
    law = Empirical((0.7, 0.1, 0.4), (1.0, 1.0, 2.0))
    for atomic, etas, weights in [
        (Dirac(0.3), [0.3], [1.0]),
        (law, [0.1, 0.4, 0.7], [0.25, 0.5, 0.25]),
        (Scaled(law, 0.5), [0.1 * 0.5, 0.4 * 0.5, 0.7 * 0.5], [0.25, 0.5, 0.25]),
    ]:
        got_etas, got_weights = atomic.atoms
        for got, expected in ((got_etas, etas), (got_weights, weights)):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.tolist() == expected
    for continuous in (Beta(2.0, 2.0), TruncatedLogNormal(-1.0, 0.5), Scaled(Beta(2.0, 3.0), 0.5)):
        assert continuous.atoms is None


def test_scaled_moments_factor_out():
    inner = Beta(2.0, 2.0)
    s = Scaled(inner, 0.25)
    for k in (0.5, 1.0, 2.0):
        assert s.moment(k) == pytest.approx(0.25**k * inner.moment(k), rel=1e-12)
    assert s.support == (0.0, 0.25)


def test_scaled_collapses_nesting():
    s = Scaled(Scaled(Dirac(0.8), 0.5), 0.5)
    assert isinstance(s.inner, Dirac)
    assert s.factor == 0.25
    assert s.mean() == pytest.approx(0.2, rel=1e-15)


def test_scaled_rejects_nested_factors_that_underflow():
    # Each factor lies in (0, 1], but their product is 0.0.
    with pytest.raises(ValueError, match="scale factor"):
        Scaled(Scaled(Beta(2.0, 2.0), 1e-200), 1e-200)
    with pytest.raises(ValueError, match="scale factor"):
        Beta(2.0, 2.0).scale(1e-200).scale(1e-200)


def test_scaled_scale_multiplies_the_factor():
    s = Scaled(Beta(2.0, 2.0), 0.3).scale(0.7)
    assert s == Scaled(Beta(2.0, 2.0), 0.7 * 0.3)
    assert s.scale(1.0) is s


def test_scaled_survival_keeps_boundary_atom():
    s = Scaled(Dirac(1.0), 0.4)
    assert s.survival(0.4, include_equal=True) == 1.0
    assert s.survival(0.4, include_equal=False) == 0.0
    assert s.survival(0.39, include_equal=False) == 1.0
    assert s.survival(0.41, include_equal=True) == 0.0


def assert_chart_finite_at_ends(law):
    """g is finite one ulp inside both limits and on both sides of each point."""
    a, b, points, g = law.chart()
    s = [np.nextafter(a, b), np.nextafter(b, a)]
    for point in points:
        if a < point < b:
            s += [np.nextafter(point, a), np.nextafter(point, b)]
    eta, w = g(np.array(s))
    assert np.all(np.isfinite(eta)) and np.all(np.isfinite(w)) and np.all(w >= 0.0)


@settings(max_examples=200)
@given(
    p=st.floats(0.2, 8.0),
    q=st.floats(0.2, 8.0),
    lo=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    factor=st.one_of(st.just(1.0), st.floats(0.2, 0.99)),
)
# p >= 1 at lo = 0: one ulp above s = 0 its w variable rounds to 0 (p = 1 gave nan).
@example(p=1.0, q=1.0, lo=0.0, factor=1.0)
@example(p=1.0, q=0.5, lo=0.0, factor=0.5)
@example(p=0.2, q=8.0, lo=0.9, factor=1.0)
def test_beta_chart_is_finite_at_its_ends(p, q, lo, factor):
    # So no average over a law meets the raw-endpoint caveat of integrate.
    assert_chart_finite_at_ends(Beta(p, q, lo).scale(factor))


@pytest.mark.parametrize("factor", [1.0, 0.5])
@pytest.mark.parametrize(
    "law",
    [NARROW, TruncatedLogNormal(-1.0, 0.5), TruncatedLogNormal(-0.1, 3.0),
     TruncatedLogNormal(-5.0, 0.3, 0.12), TruncatedLogNormal(-0.54, 0.94, 0.999)],
)
def test_lognormal_chart_is_finite_at_its_ends(law, factor):
    assert_chart_finite_at_ends(law.scale(factor))


@given(
    dist=st.one_of(betas, lognormals),
    t1=st.floats(0.0, 0.8),
    t2=st.floats(0.0, 0.8),
)
def test_truncation_composes(dist, t1, t2):
    twice = dist.truncate(t1).truncate(t2)
    once = dist.truncate(max(t1, t2))
    for k in (0.5, 1.0, 2.0):
        assert twice.moment(k) == pytest.approx(once.moment(k), rel=1e-12)


@given(dist=st.one_of(betas, lognormals), threshold=st.floats(0.0, 0.8))
def test_truncation_raises_conditional_mean(dist, threshold):
    assert dist.truncate(threshold).mean() >= dist.mean() - 1e-12


@pytest.mark.parametrize(
    "dist",
    [
        Beta(2.0, 2.0),
        TruncatedLogNormal(-1.0, 0.9),
        Empirical((0.2, 0.5, 0.9), (1.0, 2.0, 1.0)),
        Scaled(Beta(2.0, 2.0), 0.5),
    ],
)
def test_sampling_matches_mean_and_support(dist):
    n = 200_000
    draws = sample_law(dist, n, np.random.default_rng(123))
    lo, hi = dist.support
    assert draws.min() >= lo - 1e-12 and draws.max() <= hi + 1e-12
    se = draws.std() / math.sqrt(n)
    assert abs(draws.mean() - dist.mean()) < 4.0 * se + 1e-12


def test_truncated_sampling_respects_threshold():
    dist = TruncatedLogNormal(-1.2, 0.8).truncate(0.35)
    draws = sample_law(dist, 50_000, np.random.default_rng(5))
    assert draws.min() >= 0.35
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - dist.mean()) < 4.0 * se + 1e-12


def test_expectation_handles_vector_integrands():
    dist = Beta(2.0, 2.0)
    vec = dist.expectation(lambda e: np.stack([e, e * e], axis=-1))
    assert vec[0] == pytest.approx(dist.moment(1.0), rel=1e-10)
    assert vec[1] == pytest.approx(dist.moment(2.0), rel=1e-10)


# ---------------------------------------------------------------------------
# joint laws
# ---------------------------------------------------------------------------


def test_product_t_moments_factorize():
    joint = Product(Beta(2.0, 2.0), TruncatedLogNormal(-0.8, 0.5))
    assert joint.t_moment(2, 0) == pytest.approx(joint.a.moment(1.0), rel=1e-12)
    assert joint.t_moment(1, 1) == pytest.approx(
        joint.a.moment(0.5) * joint.b.moment(0.5), rel=1e-12
    )
    assert joint.t_moment(0, 0) == 1.0


def test_correlated_t_moment_depends_on_total_order():
    joint = PerfectlyCorrelated(Beta(2.0, 5.0))
    assert joint.t_moment(2, 0) == pytest.approx(joint.t_moment(0, 2), rel=1e-14)
    assert joint.t_moment(1, 1) == pytest.approx(
        joint.dist.moment(1.0), rel=1e-14
    )


def test_product_average_mixes_atoms_and_density():
    for e, b in [
        (Empirical((0.25, 0.75), (1.0, 3.0)), Beta(2.0, 2.0)),
        (Dirac(0.4), TruncatedLogNormal(-0.8, 0.5)),
        (Scaled(Empirical((0.1, 0.5, 0.9), (1.0, 2.0, 1.0)), 0.8), Beta(1.5, 3.0, 0.1)),
    ]:
        f = lambda x, y: x * y * y
        expected = e.moment(1.0) * b.moment(2.0)
        assert Product(e, b).average(f) == pytest.approx(expected, rel=1e-10)
        assert Product(b, e).average(lambda x, y: x * x * y) == pytest.approx(
            b.moment(2.0) * e.moment(1.0), rel=1e-10
        )


def _histogram(n, seed):
    rng = np.random.default_rng(seed)
    return Empirical(tuple(rng.uniform(0.01, 1.0, n)), tuple(rng.uniform(0.0, 1.0, n)))


def _vector_f(x, y):
    # Vector valued, not separable, with a cusp-free but curved profile.
    return np.stack(np.broadcast_arrays(1.0 / (1.0 + 3.0 * x * y), np.sqrt(x) * y * y),
                    axis=-1)


@pytest.mark.parametrize("swapped", [False, True])
def test_product_average_sums_atoms_in_one_pass(swapped):
    atoms, smooth = _histogram(127, 3), TruncatedLogNormal(-0.9, 0.5)
    calls = []

    def f(x, y):
        calls.append(1)
        return _vector_f(x, y)

    joint = Product(smooth, atoms) if swapped else Product(atoms, smooth)
    value = joint.average(lambda x, y: f(y, x) if swapped else f(x, y))
    # One 1D expectation per atom, summed with the atom weights.
    expected = sum(
        w * smooth.expectation(lambda y, e=e: _vector_f(np.asarray(e), y))
        for e, w in zip(*atoms.atoms)
    )
    np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0.0)
    assert len(calls) <= 20


def test_product_of_histograms_is_outer_product_sum():
    a, b = _histogram(40, 4), _histogram(70, 5)
    value = Product(a, b).average(_vector_f)
    ea, wa = np.asarray(a.etas), np.asarray(a.weights)
    eb, wb = np.asarray(b.etas), np.asarray(b.weights)
    expected = np.einsum("i,j,ijk->k", wa, wb, _vector_f(ea[:, None], eb[None, :]))
    np.testing.assert_allclose(value, expected, rtol=1e-13, atol=0.0)
    # A constant f broadcasts over every pair of atoms.
    assert Product(a, b).average(lambda x, y: 2.0) == pytest.approx(2.0, rel=1e-14)


def test_large_histogram_product_is_fast():
    a, b = _histogram(5000, 6), _histogram(5000, 7)
    start = time.perf_counter()
    value = Product(a, b).average(lambda x, y: np.sqrt(x * y))
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(a.moment(0.5) * b.moment(0.5), rel=1e-12)
    assert elapsed < 1.0


def test_product_average_continuous_matches_factorization():
    joint = Product(Beta(2.0, 2.0), Beta(1.0, 3.0))
    value = joint.average(lambda x, y: np.sqrt(x) * y)
    assert value == pytest.approx(
        joint.a.moment(0.5) * joint.b.moment(1.0), rel=1e-9
    )


def test_product_average_of_two_edge_cusps_is_cheap():
    # Both densities have a power-law cusp at 0 (x**-0.4 and y**0.4), in
    # fixed places, so every inner integral starts from the partition of
    # y the previous batch of outer nodes found.
    joint = Product(Beta(0.6, 3.0), Beta(1.4, 2.0))
    calls = []

    def f(x, y):
        calls.append(1)
        return np.sqrt(x) * y

    value = joint.average(f)
    assert value == pytest.approx(joint.a.moment(0.5) * joint.b.moment(1.0), rel=1e-9)
    # Refining every inner integral from one panel took 160 calls.
    assert len(calls) <= 40


def test_product_average_resolves_beta_edge_cusp():
    # Beta(1.3, .) has an x**0.3 cusp at 0 on one axis only; refining both
    # axes together made this average and the Bell value take minutes.
    p, q, r, s = 1.3, 4.0, 5.0, 5.0
    joint = Product(Beta(p, q), Beta(r, s))
    value = joint.average(lambda x, y: 1.0 / (1.0 + x + y))

    def beta_pdf(x, a, b):
        return x ** (a - 1.0) * (1.0 - x) ** (b - 1.0) / math.exp(
            math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        )

    expected, _ = sp_integrate.dblquad(
        lambda y, x: beta_pdf(x, p, q) * beta_pdf(y, r, s) / (1.0 + x + y),
        0.0, 1.0, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13,
    )
    assert expected == pytest.approx(0.58280074916, rel=1e-10)
    assert value == pytest.approx(expected, rel=1e-9)
    chsh = bell_parameter(BellSettings(0.2, DetectorModel(0.9, 1e-3), joint))
    assert math.isfinite(chsh) and 2.0 < chsh < 2.0 * math.sqrt(2.0)


def _mp_beta_moment(p, q, lo, k):
    """<eta**k> of Beta(p, q) on [lo, 1], from mpmath's incomplete beta."""
    with mp.workdps(40):
        p, q, lo, k = (mp.mpf(v) for v in (p, q, lo, k))
        return float(mp.betainc(p + k, q, lo, 1) / mp.betainc(p, q, lo, 1))


# Arms with a shape below 1: averaged by their densities in eta, each of
# these came out 9e-9 to 1.7e-4 low without raising.
@pytest.mark.parametrize(
    "a,b,f,expected",
    [
        (Beta(2.0, 0.5), Beta(2.0, 0.5), lambda x, y: x * y, 0.64),
        (Beta(0.5, 0.5), Beta(0.5, 0.5), lambda x, y: x * y, 0.25),
        (Beta(0.5, 0.5), TruncatedLogNormal(-1.0, 0.5), lambda x, y: x * y,
         0.5 * mp_lognormal_moment(-1.0, 0.5, 0.0, 1.0)),
        (Beta(0.5, 1.0, lo=0.77), Beta(3.5, 0.25), lambda x, y: np.sqrt(x) * y * y,
         _mp_beta_moment(0.5, 1.0, 0.77, 0.5) * _mp_beta_moment(3.5, 0.25, 0.0, 2.0)),
    ],
)
def test_product_average_with_singular_beta_arms_against_oracle(a, b, f, expected):
    assert Product(a, b).average(f) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=300)
@given(
    pa=st.floats(0.2, 8.0),
    qa=st.floats(0.2, 8.0),
    lo_a=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    pb=st.floats(0.2, 8.0),
    qb=st.floats(0.2, 8.0),
    lo_b=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    factor=st.one_of(st.just(1.0), st.floats(0.2, 0.99)),
    j=st.sampled_from([0.5, 1.0, 2.0]),
    k=st.sampled_from([0.5, 1.0, 2.0]),
)
@example(pa=0.2, qa=8.0, lo_a=0.9, pb=0.5, qb=0.5, lo_b=0.0, factor=0.7, j=0.5, k=1.0)
def test_product_beta_average_matches_closed_moments(pa, qa, lo_a, pb, qb, lo_b, factor, j, k):
    # The 2D route meets the tolerance on every Beta pair, one arm scaled.
    a, b = Beta(pa, qa, lo_a), Beta(pb, qb, lo_b).scale(factor)
    got = Product(a, b).average(lambda x, y: x**j * y**k)
    assert got == pytest.approx(a.moment(j) * b.moment(k), rel=1e-9)


def test_adaptive_min_law_exact_on_atoms():
    a = Empirical((0.2, 0.6), (1.0, 1.0))
    b = Empirical((0.3, 0.6), (1.0, 3.0))
    joint = AdaptiveCorrelated(a, b)
    # Enumerating the four independent outcomes: min is 0.2 w.p. 1/2,
    # 0.3 w.p. 1/8, 0.6 w.p. 3/8.
    assert joint.t_moment(2, 0) == pytest.approx(0.3625, abs=1e-15)
    assert joint.t_moment(0, 2) == pytest.approx(0.3625, abs=1e-15)
    assert joint.average(lambda x, y: x * y) == pytest.approx(
        0.5 * 0.04 + 0.125 * 0.09 + 0.375 * 0.36, abs=1e-15
    )


def test_adaptive_min_law_matches_tensor_quadrature():
    a = Beta(2.0, 2.0)
    b = TruncatedLogNormal(-0.7, 0.6)
    joint = AdaptiveCorrelated(a, b)
    direct = Product(a, b).average(lambda x, y: np.sqrt(np.minimum(x, y)))
    assert joint.t_moment(1, 0) == pytest.approx(direct, rel=1e-7)


def test_adaptive_min_law_matches_monte_carlo():
    a = Beta(2.0, 2.0)
    b = Beta(3.0, 1.5)
    joint = AdaptiveCorrelated(a, b)
    ea, eb = sample_joint(joint, 200_000, np.random.default_rng(77))
    np.testing.assert_array_equal(ea, eb)
    se = ea.std() / math.sqrt(ea.size)
    assert abs(ea.mean() - joint.t_moment(2, 0)) < 4.0 * se


def test_adaptive_correlate_collapses_constants():
    joint = adaptive_correlate(Dirac(0.7), Dirac(0.4))
    assert isinstance(joint, PerfectlyCorrelated)
    assert isinstance(joint.dist, Dirac)
    assert joint.dist.value == 0.4
    assert isinstance(
        adaptive_correlate(Dirac(0.7), Beta(1.0, 1.0)), AdaptiveCorrelated
    )


def test_joint_preselection_truncates_support():
    joint = Product(Beta(2.0, 2.0), Beta(2.0, 2.0)).preselect(0.5)
    assert joint.support_inf == (0.5, 0.5)
    corr = PerfectlyCorrelated(TruncatedLogNormal(-1.0, 0.8)).preselect(0.25)
    assert corr.support_inf == (0.25, 0.25)
