"""CHSH machinery against high-precision and event-sampling oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    c_terms,
    mc_bell_parameter,
    mp_c_terms,
    mp_click_probabilities,
    mp_reciprocal_averages,
    sample_joint,
)
from turbulight.bell import (
    DEFAULT_ANGLES_A,
    DEFAULT_ANGLES_B,
    BellSettings,
    BellSingularityError,
    bell_parameter,
    bell_sweep,
    click_probabilities,
    correlation,
    _click_pair,
    _reciprocal_averages,
)
from turbulight.pdt import (
    Beta,
    Dirac,
    Empirical,
    PerfectlyCorrelated,
    Product,
    Scaled,
    TruncatedLogNormal,
)
from turbulight.photocount import DetectorModel


def _settings(squeezing, channel, efficiency=1.0, noise=0.0, **kw):
    det = DetectorModel(efficiency=efficiency, noise_counts=noise)
    return BellSettings(squeezing=squeezing, detector=det, channel=channel, **kw)


@pytest.mark.parametrize(
    "eta_a,eta_b,eta_c,squeezing,theta_a,theta_b",
    [
        (0.3, 0.7, 0.6, 0.4, 0.0, math.pi / 8),
        (1.0, 1.0, 1.0, 0.1, math.pi / 4, 3 * math.pi / 8),
        (0.9, 0.2, 0.75, 1.1, -0.3, 0.9),
        # 1 - tanh^2 cancels here; the factored form takes it as sech^2.
        (0.3, 0.7, 0.6, 4.0, 0.0, math.pi / 8),
        (0.9, 0.2, 0.75, 6.0, -0.3, 0.9),
    ],
)
def test_conditional_polynomials_match_reference(eta_a, eta_b, eta_c,
                                                 squeezing, theta_a, theta_b):
    got = c_terms(eta_a, eta_b, eta_c, squeezing, theta_a, theta_b)
    ref = mp_c_terms(eta_a, eta_b, eta_c, squeezing, theta_a, theta_b)
    for val, expected in zip((got.c0, got.c1a, got.c1b), ref[:3]):
        assert val == pytest.approx(float(expected), rel=1e-14, abs=0)
    for val, expected in zip((got.same, got.different), ref[3:]):
        assert val == pytest.approx(float(expected), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("squeezing", [0.02, 0.5, 2.0, 3.0])
def test_integrand_components_match_high_precision(squeezing):
    pairs = [(ta, tb) for ta in DEFAULT_ANGLES_A for tb in DEFAULT_ANGLES_B]
    for eta_a, eta_b, efficiency in ((0.83, 0.61, 0.9), (0.05, 0.1, 0.9)):
        channel = Product(Dirac(eta_a), Dirac(eta_b))
        settings = _settings(squeezing, channel, efficiency=efficiency)
        per_pair, a2, a3, a4 = _reciprocal_averages(settings, pairs)
        got = [v for pair in per_pair for v in pair] + [a2, a3, a4]
        expected = mp_reciprocal_averages(eta_a, eta_b, efficiency, squeezing, pairs)
        assert got == pytest.approx(expected, rel=1e-14, abs=0)


def test_click_probabilities_match_high_precision_reference():
    settings = _settings(0.4, Product(Dirac(0.3), Dirac(0.7)),
                         efficiency=0.6, noise=1e-3)
    ps, pd = click_probabilities(settings, 0.0, math.pi / 8)
    ref_s, ref_d = mp_click_probabilities(0.3, 0.7, 0.6, 1e-3, 0.4,
                                          0.0, math.pi / 8)
    assert ps == pytest.approx(ref_s, rel=1e-12)
    assert pd == pytest.approx(ref_d, rel=1e-12)
    assert 0.0 < pd < ps < 1.0 or 0.0 < ps < pd < 1.0


def test_ideal_small_squeezing_reaches_tsirelson():
    settings = _settings(1e-3, Product(Dirac(1.0), Dirac(1.0)))
    b = bell_parameter(settings)
    assert b == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-4)
    assert b <= 2.0 * math.sqrt(2.0) + 1e-12


def test_correlation_approaches_negative_cosine():
    settings = _settings(1e-3, Product(Dirac(1.0), Dirac(1.0)))
    for delta in (math.pi / 8, math.pi / 3, 1.1):
        e = correlation(settings, 0.0, delta)
        assert e == pytest.approx(-math.cos(2.0 * delta), abs=1e-4)


def test_zero_squeezing_with_noise_gives_zero():
    settings = _settings(0.0, Product(Dirac(0.9), Dirac(0.9)), noise=1e-3)
    assert bell_parameter(settings) == 0.0


def test_zero_squeezing_without_noise_is_undefined():
    settings = _settings(0.0, Product(Dirac(0.9), Dirac(0.9)))
    with pytest.raises(ZeroDivisionError):
        bell_parameter(settings)


def test_correlation_depends_only_on_angle_difference():
    settings = _settings(0.45, Product(Dirac(0.8), Dirac(0.6)),
                         efficiency=0.9, noise=5e-4)
    base = correlation(settings, 0.3, 0.1)
    shifted = correlation(settings, 0.3 + 0.7, 0.1 + 0.7)
    assert shifted == pytest.approx(base, rel=1e-12)
    # analyzer angles enter through squared trig functions: period pi
    assert correlation(settings, 0.3 + math.pi, 0.1) == pytest.approx(
        base, rel=1e-12
    )


def test_noise_degrades_violation():
    channel = Product(Dirac(0.8), Dirac(0.8))
    values = [
        bell_parameter(_settings(0.4, channel, efficiency=0.9, noise=nu))
        for nu in (0.0, 1e-3, 1e-2)
    ]
    assert values[0] > values[1] > values[2]
    assert values[0] > 2.0  # still a violation at this working point


def test_copropagation_beats_independent_fading():
    fading = Beta(2.0, 2.0)
    for xi in (0.05, 0.2, 0.4):
        independent = bell_parameter(
            _settings(xi, Product(fading, fading), efficiency=0.85, noise=1e-3)
        )
        correlated = bell_parameter(
            _settings(xi, PerfectlyCorrelated(fading), efficiency=0.85,
                      noise=1e-3)
        )
        assert correlated > independent


def test_quadrature_matches_event_sampling():
    joint = Product(Beta(2.0, 2.0), Beta(2.0, 2.0))
    settings = _settings(0.3, joint, efficiency=0.85, noise=1e-3)
    b_quad = bell_parameter(settings)
    etas = sample_joint(joint, 400_000, np.random.default_rng(31))
    b_mc, se = mc_bell_parameter(etas, 0.85, 1e-3, 0.3,
                                 DEFAULT_ANGLES_A, DEFAULT_ANGLES_B)
    assert abs(b_quad - b_mc) < 4.0 * se


def test_atomic_channels_average_exactly():
    # a two-atom channel is the weighted mix of its constant channels at the
    # level of the averaged reciprocals, hence of the click probabilities
    law = Empirical((0.5, 0.9), (0.25, 0.75))
    settings = _settings(0.35, Product(law, Dirac(0.7)), noise=2e-3)
    ps, pd = click_probabilities(settings, 0.0, math.pi / 8)
    parts = [
        mp_click_probabilities(e, 0.7, 1.0, 2e-3, 0.35, 0.0, math.pi / 8)
        for e in (0.5, 0.9)
    ]
    assert ps == pytest.approx(0.25 * parts[0][0] + 0.75 * parts[1][0],
                               rel=1e-11)
    assert pd == pytest.approx(0.25 * parts[0][1] + 0.75 * parts[1][1],
                               rel=1e-11)


# A sin^2 factor of the pair (0, B2) equals, as a float, the cos^2 factor
# of the pair (0, B1); every other factor differs.
_B1 = 0.3
_B2 = math.pi / 2.0 - _B1
ANGLE_SETS = {
    "default": (DEFAULT_ANGLES_A, DEFAULT_ANGLES_B, 3),
    "distinct": ((0.0, 0.7), (0.2, 1.1), 8),
    "sin2_equals_cos2": ((0.0, 0.9), (_B1, _B2), 7),
}


def _chsh_from_averages(noise, squeezing, averages):
    """CHSH from the 11 averaged components of ``mp_reciprocal_averages``."""
    t = math.tanh(squeezing) ** 2
    a2, a3, a4 = averages[8:]
    e = []
    for i in range(4):
        p_same, p_diff = _click_pair(noise, t, averages[2 * i], averages[2 * i + 1], a2, a3, a4)
        e.append((p_same - p_diff) / (p_same + p_diff))
    e11, e12, e21, e22 = e
    return abs(e11 - e12) + abs(e22 + e21)


def _chsh_on_nodes(ea, eb, w, efficiency, noise, squeezing, angles_a, angles_b):
    """CHSH as a finite w-weighted sum over the nodes (ea, eb), each angle pair on its own."""
    averages = []
    for ta in angles_a:
        for tb in angles_b:
            c = c_terms(ea, eb, efficiency, squeezing, ta, tb)
            d = c.c0 + c.c1a + c.c1b
            averages += [np.sum(w * (1.0 / (d + c.same))), np.sum(w * (1.0 / (d + c.different)))]
    averages += [np.sum(w * v) for v in (
        c.c0 / (c.c0 + c.c1a) ** 2, c.c0 / (c.c0 + c.c1b) ** 2, 1.0 / c.c0,
    )]
    return _chsh_from_averages(noise, squeezing, averages)


def _exact_chsh(law_a, law_b, efficiency, noise, squeezing, angles_a, angles_b):
    """CHSH as a finite sum over atom pairs, each angle pair on its own."""
    (ea, wa), (eb, wb) = law_a.atoms, law_b.atoms
    return _chsh_on_nodes(ea[:, None], eb[None, :], wa[:, None] * wb[None, :],
                          efficiency, noise, squeezing, angles_a, angles_b)


class _WidthSpy(Product):
    """Product law that records the width of every Bell integrand."""

    widths = []

    def average(self, f):
        self.widths.append(np.shape(f(np.array([0.5]), np.array([0.5])))[-1])
        return super().average(f)


@pytest.mark.parametrize("angle_set", sorted(ANGLE_SETS))
@pytest.mark.parametrize("laws", ["histograms", "constants"])
def test_bell_parameter_matches_per_pair_exact_sum(angle_set, laws):
    angles_a, angles_b, distinct = ANGLE_SETS[angle_set]
    if angle_set == "sin2_equals_cos2":
        assert math.sin(-_B2) ** 2 == math.cos(-_B1) ** 2
        assert math.cos(-_B2) ** 2 != math.sin(-_B1) ** 2
    if laws == "histograms":
        rng = np.random.default_rng(8)
        law_a = Empirical(tuple(rng.uniform(0.3, 1.0, 9)), tuple(rng.uniform(0.1, 1.0, 9)))
        law_b = Empirical(tuple(rng.uniform(0.3, 1.0, 6)), tuple(rng.uniform(0.1, 1.0, 6)))
    else:
        law_a, law_b = Dirac(0.83), Dirac(0.61)
    channel = _WidthSpy(law_a, law_b)
    _WidthSpy.widths.clear()
    settings = _settings(0.3, channel, efficiency=0.9, noise=2e-3,
                         angles_a=angles_a, angles_b=angles_b)
    value = bell_parameter(settings)
    expected = _exact_chsh(law_a, law_b, 0.9, 2e-3, 0.3, angles_a, angles_b)
    assert value == pytest.approx(expected, rel=1e-13)
    # One component per distinct sin^2 / cos^2 factor, plus three.
    assert _WidthSpy.widths == [distinct + 3]



# Narrow log-normal arms of the benchmark's defect census (sigma ~ 0.016 in
# ln eta): the first 15-node panel on [0, 1] misses their peaks, and before
# the laws supplied their edges to the integrators every average read ~0.
NARROW_A = TruncatedLogNormal(-1.771, 0.01616)
NARROW_B = TruncatedLogNormal(-1.735, 0.01578)


def _mp_lognormal_chsh(law, efficiency, noise, squeezing):
    """CHSH on PerfectlyCorrelated(law) by mpmath quadrature in z = (ln eta - mu)/sigma.

    Conditioning on eta <= 1 cuts the normal at z = -mu/sigma > 100, and
    [-12, 12] holds all but 1e-32 of its mass.
    """
    assert law.lo == 0.0 and -law.mu / law.sigma > 12.0
    pairs = [(ta, tb) for ta in DEFAULT_ANGLES_A for tb in DEFAULT_ANGLES_B]
    cache = {}

    def component(i, z):
        if z not in cache:
            eta = float(mp.exp(law.mu + law.sigma * z))
            cache[z] = mp_reciprocal_averages(eta, eta, efficiency, squeezing, pairs)
        return mp.npdf(z) * cache[z][i]

    averages = [float(mp.quad(lambda z: component(i, z), [-12, 0, 12])) for i in range(11)]
    return _chsh_from_averages(noise, squeezing, averages)


def test_narrow_lognormal_correlated_sweep_matches_mpmath():
    grid = [0.025, 0.25, 0.55, 0.79]
    settings = _settings(0.0, PerfectlyCorrelated(NARROW_A), efficiency=0.83, noise=8.4e-5)
    points = bell_sweep(settings, squeezing_grid=grid)
    expected = [_mp_lognormal_chsh(NARROW_A, 0.83, 8.4e-5, xi) for xi in grid]
    assert [p.value for p in points] == pytest.approx(expected, rel=1e-9)


def test_narrow_lognormal_product_point_matches_tensor_rule():
    # Reference: each arm's law as 40 Gauss-Hermite atoms in z, summed pair
    # by pair through c_terms; the integrand is smooth in z, so this
    # converges far below the tolerance.
    z, w = np.polynomial.hermite_e.hermegauss(40)

    def atoms(law):
        return Empirical(tuple(np.exp(law.mu + law.sigma * z)), tuple(w))

    settings = _settings(0.08414, Product(NARROW_A, NARROW_B), efficiency=0.9, noise=1e-4)
    expected = _exact_chsh(atoms(NARROW_A), atoms(NARROW_B), 0.9, 1e-4, 0.08414,
                           DEFAULT_ANGLES_A, DEFAULT_ANGLES_B)
    assert expected == pytest.approx(2.79, abs=0.01)
    assert bell_parameter(settings) == pytest.approx(expected, rel=1e-9)


def test_arcsine_correlated_sweep_matches_legendre_rule_in_theta():
    # The arcsine law of the benchmark's defect census, singular at both
    # ends.  In theta, eta = sin^2 theta, it is uniform on [0, pi/2] and the
    # integrand is smooth, so 40 Gauss-Legendre nodes there converge far
    # below the tolerance (80 and 160 agree to 3e-12).
    x, w = np.polynomial.legendre.leggauss(40)
    eta = np.sin(0.25 * math.pi * (1.0 + x)) ** 2
    grid = [0.025, 0.25, 0.55, 0.79]
    settings = _settings(0.0, PerfectlyCorrelated(Beta(0.5, 0.5)), efficiency=0.83, noise=8.4e-5)
    points = bell_sweep(settings, squeezing_grid=grid)
    expected = [_chsh_on_nodes(eta, eta, 0.5 * w, 0.83, 8.4e-5, xi,
                               DEFAULT_ANGLES_A, DEFAULT_ANGLES_B) for xi in grid]
    assert [p.value for p in points] == pytest.approx(expected, rel=1e-9)


def test_extreme_squeezing_triggers_singularity_guard():
    settings = _settings(8.0, Product(Beta(2.0, 2.0), Beta(2.0, 2.0)))
    with pytest.raises(BellSingularityError, match="C_0"):
        bell_parameter(settings)


def test_settings_validation():
    channel = Product(Dirac(0.5), Dirac(0.5))
    det = DetectorModel()
    with pytest.raises(ValueError):
        BellSettings(squeezing=-0.1, detector=det, channel=channel)
    with pytest.raises(ValueError):
        BellSettings(squeezing=0.1, detector=det, channel=channel,
                     angles_a=(0.0, 1.0, 2.0))


@pytest.mark.parametrize("angles", [0.3, ("x", 0.1)], ids=["scalar", "non-number"])
def test_settings_reject_angles_that_are_not_two_numbers(angles):
    channel = Product(Dirac(0.5), Dirac(0.5))
    with pytest.raises(ValueError, match="angles_a must be two finite analyzer angles"):
        BellSettings(squeezing=0.1, detector=DetectorModel(), channel=channel,
                     angles_a=angles)


def test_settings_store_angles_as_a_tuple():
    channel = Product(Dirac(0.5), Dirac(0.5))
    settings = BellSettings(0.1, DetectorModel(), channel, angles_a=[0.0, 0.5],
                            angles_b=np.array([0.25, 0.75]))
    assert settings.angles_a == (0.0, 0.5)
    assert settings.angles_b == (0.25, 0.75)
    assert type(settings.angles_b) is tuple


def test_squeezing_sweep_matches_pointwise_evaluation():
    channel = Product(Dirac(0.9), Dirac(0.9))
    settings = _settings(0.1, channel, noise=1e-3)
    grid = [0.05, 0.2, 0.5]
    points = bell_sweep(settings, squeezing_grid=grid)
    assert [p.param for p in points] == grid
    assert all(p.valid for p in points)
    for p in points:
        direct = bell_parameter(_settings(p.param, channel, noise=1e-3))
        assert p.value == pytest.approx(direct, rel=1e-12)


def test_preselection_sweep_flags_empty_thresholds():
    # scale keeps the support top at 0.5 so a higher threshold empties the law
    law = Scaled(TruncatedLogNormal(-1.2, 0.6), 0.5)
    channel = Product(law, law)
    settings = _settings(0.25, channel, efficiency=0.9, noise=1e-3)
    points = bell_sweep(settings, preselection_grid=[0.0, 0.2, 0.8])
    assert points[0].valid and points[1].valid
    assert not points[2].valid and math.isnan(points[2].value)
    assert points[1].value != pytest.approx(points[0].value, rel=1e-6)


def test_sweep_requires_exactly_one_grid():
    settings = _settings(0.2, Product(Dirac(0.8), Dirac(0.8)), noise=1e-3)
    with pytest.raises(ValueError):
        bell_sweep(settings)
    with pytest.raises(ValueError):
        bell_sweep(settings, squeezing_grid=[0.1], preselection_grid=[0.1])
