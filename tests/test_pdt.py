"""Transmittance laws: closed moments, selection, joint channels."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sp_integrate

from turbulight.bell import BellSettings, bell_parameter
from turbulight.numerics import RandomSource
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
    num = mp.quad(
        lambda x: x ** mp.mpf(-2) / (mp.sqrt(x) * mp.sqrt(1 - x)),
        [mp.mpf("0.3"), 1],
    )
    den = mp.quad(
        lambda x: 1 / (mp.sqrt(x) * mp.sqrt(1 - x)), [mp.mpf("0.3"), 1]
    )
    assert dist.moment(-2.0) == pytest.approx(float(num / den), rel=1e-7)


def test_lognormal_negative_moment_closed_form():
    dist = TruncatedLogNormal(-1.0, 0.7)
    assert dist.moment(-2.0) == pytest.approx(quad_moment(dist, -2.0), rel=1e-7)


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


def test_scaled_survival_keeps_boundary_atom():
    s = Scaled(Dirac(1.0), 0.4)
    assert s.survival(0.4, include_equal=True) == 1.0
    assert s.survival(0.4, include_equal=False) == 0.0
    assert s.survival(0.39, include_equal=False) == 1.0
    assert s.survival(0.41, include_equal=True) == 0.0


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
def test_sampling_matches_mean_and_is_reproducible(dist):
    rng = RandomSource(seed=123)
    n = 200_000
    draws = dist.sample(n, rng)
    again = dist.sample(n, RandomSource(seed=123))
    np.testing.assert_array_equal(draws, again)
    lo, hi = dist.support
    assert draws.min() >= lo - 1e-12 and draws.max() <= hi + 1e-12
    se = draws.std() / math.sqrt(n)
    assert abs(draws.mean() - dist.mean()) < 4.0 * se + 1e-12


def test_truncated_sampling_respects_threshold():
    dist = TruncatedLogNormal(-1.2, 0.8).truncate(0.35)
    draws = dist.sample(50_000, RandomSource(seed=5))
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
    e = Empirical((0.25, 0.75), (1.0, 3.0))
    b = Beta(2.0, 2.0)
    f = lambda x, y: x * y * y
    expected = e.moment(1.0) * b.moment(2.0)
    assert Product(e, b).average(f) == pytest.approx(expected, rel=1e-10)
    assert Product(b, e).average(lambda x, y: x * x * y) == pytest.approx(
        b.moment(2.0) * e.moment(1.0), rel=1e-10
    )


def test_product_average_continuous_matches_factorization():
    joint = Product(Beta(2.0, 2.0), Beta(1.0, 3.0))
    value = joint.average(lambda x, y: np.sqrt(x) * y)
    assert value == pytest.approx(
        joint.a.moment(0.5) * joint.b.moment(1.0), rel=1e-9
    )


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
    ea, eb = joint.sample(200_000, RandomSource(seed=77))
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


def test_joint_sampling_is_reproducible_and_independent_streams():
    joint = Product(Beta(2.0, 2.0), Beta(2.0, 2.0))
    ea, eb = joint.sample(2_000, RandomSource(seed=3))
    ea2, eb2 = joint.sample(2_000, RandomSource(seed=3))
    np.testing.assert_array_equal(ea, ea2)
    np.testing.assert_array_equal(eb, eb2)
    assert not np.allclose(ea, eb)


def test_correlated_sampling_shares_realization():
    joint = PerfectlyCorrelated(Beta(2.0, 2.0))
    ea, eb = joint.sample(100, RandomSource(seed=11))
    np.testing.assert_array_equal(ea, eb)
    assert ea is not eb
