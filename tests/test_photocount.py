"""Click statistics through fluctuating loss, against event-level simulation."""

import math
import time

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special, stats

from oracles import (
    batch_statistic,
    mandel_from_samples,
    mc_photocounts_coherent,
    mc_photocounts_fock,
    sample_law,
)
from turbulight.pdt import Beta, Dirac, Empirical, TruncatedLogNormal
from turbulight import photocount
from turbulight.photocount import (
    DetectorModel,
    PhotonNumberDist,
    count_distribution_coherent,
    count_distribution_fock,
    mandel_out,
    povm_qsymbol,
    sub_poisson_bound,
)


def test_povm_is_shifted_poisson():
    det = DetectorModel(efficiency=0.7, noise_counts=0.3)
    assert povm_qsymbol(2, 1.0, det) == pytest.approx(
        math.exp(-1.0) / 2.0, rel=1e-14
    )
    quiet = DetectorModel(efficiency=0.5)
    assert povm_qsymbol(0, 0.0, quiet) == 1.0
    assert povm_qsymbol(3, 0.0, quiet) == 0.0
    assert sum(povm_qsymbol(n, 2.5, det) for n in range(80)) == pytest.approx(
        1.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        povm_qsymbol(-1, 1.0, det)
    with pytest.raises(ValueError):
        povm_qsymbol(1, -0.5, det)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_intensity_rejected(bad):
    det = DetectorModel(efficiency=0.7, noise_counts=0.3)
    with pytest.raises(ValueError, match="finite"):
        povm_qsymbol(0, bad, det)
    for alpha in (bad, complex(1.0, bad), 1e200):
        with pytest.raises(ValueError, match="finite"):
            count_distribution_coherent(alpha, Beta(2.0, 2.0), det)


def _walked_cutoff(mean, tail):
    """The count-by-count search up from int(mean), as the reference."""
    if mean == 0.0:
        return 0
    n = int(mean)
    while special.gammaincc(n + 1.0, mean) < 1.0 - tail:
        n += 1
    return n


@pytest.mark.parametrize("tail", [1e-12, 1e-6])
def test_noise_cutoff_matches_count_by_count_search(tail):
    rng = np.random.default_rng(11)
    means = [0.0, 1e-300, 1e-14, 1e-3, 0.1, 0.3, 0.5, 1.0, 2.5, 7.0, 12.3,
             30.0, 99.9, 1e3, 2e4, 6e4]
    means += list(10.0 ** rng.uniform(-6.0, 4.5, 200))
    assert [photocount._noise_cutoff(m, tail) for m in means] == [
        _walked_cutoff(m, tail) for m in means
    ]


def test_huge_intensity_raises_before_allocating():
    det = DetectorModel(efficiency=0.7, noise_counts=0.3)
    start = time.perf_counter()
    # |alpha|^2 = 1e10 would need ~1e10 counts per quadrature node.
    with pytest.raises(ValueError, match="MAX_COUNTS"):
        count_distribution_coherent(1e5, Beta(2.0, 2.0), det)
    with pytest.raises(ValueError, match="MAX_COUNTS"):
        count_distribution_fock([0.0, 1.0], Beta(2.0, 2.0),
                                DetectorModel(noise_counts=1e10))
    assert time.perf_counter() - start < 0.1


def test_count_vector_length_bound():
    det = DetectorModel(efficiency=1.0)
    # Counts up to mean + ~7 sqrt(mean) cover all but 1e-12 of a Poisson law.
    kept = count_distribution_coherent(math.sqrt(6e4), Dirac(1.0), det)
    assert len(kept) <= photocount.MAX_COUNTS
    assert kept.mean() == pytest.approx(6e4, rel=1e-9)
    with pytest.raises(ValueError, match="MAX_COUNTS"):
        count_distribution_coherent(math.sqrt(6.5e4), Dirac(1.0), det)
    # A Fock input already one entry too long.
    too_long = np.zeros(photocount.MAX_COUNTS + 1)
    too_long[-1] = 1.0
    with pytest.raises(ValueError, match="MAX_COUNTS"):
        count_distribution_fock(too_long, Dirac(1.0), det)


def test_fock_tables_are_bounded_before_allocation():
    # Both inputs fit MAX_COUNTS but would need a (65 536 x 65 536) band.
    uniform = np.full(photocount.MAX_COUNTS, 1.0 / photocount.MAX_COUNTS)
    top = np.zeros(photocount.MAX_COUNTS)
    top[-1] = 1.0
    start = time.perf_counter()
    for p_in in (uniform, top):
        with pytest.raises(ValueError, match="elements"):
            count_distribution_fock(p_in, Beta(2.0, 2.0), DetectorModel())
    assert time.perf_counter() - start < 0.1


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.2)
    with pytest.raises(ValueError):
        DetectorModel(noise_counts=-0.1)
    with pytest.raises(ValueError, match="^detector efficiency "):
        DetectorModel(efficiency="x")
    with pytest.raises(ValueError, match="^mean noise counts "):
        DetectorModel(noise_counts=None)


def test_count_vector_validation():
    with pytest.raises(ValueError, match="sum"):
        PhotonNumberDist([0.5, 0.4])
    with pytest.raises(ValueError):
        PhotonNumberDist([1.1, -0.1])
    with pytest.raises(ValueError, match="zero mean"):
        PhotonNumberDist([1.0]).mandel_q()


def test_single_photon_through_constant_channel():
    det = DetectorModel(efficiency=0.8)
    counts = count_distribution_fock([0.0, 1.0], Dirac(0.5), det)
    np.testing.assert_allclose(counts.probabilities, [0.6, 0.4], atol=1e-13)

    noisy = DetectorModel(efficiency=0.8, noise_counts=0.2)
    counts = count_distribution_fock([0.0, 1.0], Dirac(0.5), noisy)
    s, nu = 0.4, 0.2
    assert counts.probabilities[0] == pytest.approx(
        (1.0 - s) * math.exp(-nu), rel=1e-12
    )
    assert counts.probabilities[1] == pytest.approx(
        ((1.0 - s) * nu + s) * math.exp(-nu), rel=1e-12
    )
    assert counts.probabilities.sum() == pytest.approx(1.0, abs=1e-11)


def test_atomic_law_mixes_exactly():
    det = DetectorModel(efficiency=0.9, noise_counts=0.05)
    law = Empirical((0.3, 0.8), (1.0, 3.0))
    mixed = count_distribution_fock([0.2, 0.5, 0.3], law, det)
    lo = count_distribution_fock([0.2, 0.5, 0.3], Dirac(0.3), det)
    hi = count_distribution_fock([0.2, 0.5, 0.3], Dirac(0.8), det)
    np.testing.assert_allclose(
        mixed.probabilities,
        0.25 * lo.probabilities + 0.75 * hi.probabilities,
        atol=1e-14,
    )


@pytest.mark.parametrize(
    "dist", [Beta(2.0, 2.0), TruncatedLogNormal(-1.0, 0.7, 0.05)]
)
def test_count_distributions_normalize(dist):
    det = DetectorModel(efficiency=0.75, noise_counts=0.4)
    fock = count_distribution_fock([0.1, 0.2, 0.3, 0.4], dist, det)
    assert fock.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
    coh = count_distribution_coherent(1.3 - 0.4j, dist, det)
    assert coh.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


def test_coherent_through_constant_channel_is_poisson():
    det = DetectorModel(efficiency=0.6, noise_counts=0.1)
    counts = count_distribution_coherent(1.5, Dirac(0.4), det)
    lam = 0.6 * 0.4 * 2.25 + 0.1
    expected = [
        math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
        for n in range(len(counts))
    ]
    np.testing.assert_allclose(counts.probabilities, expected, rtol=1e-11)
    assert abs(counts.mandel_q()) < 1e-8  # Poisson stays Poissonian


def test_closed_mandel_matches_count_route_fock():
    p_in = np.array([0.1, 0.2, 0.3, 0.4])
    n_in = float(np.sum(np.arange(4) * p_in))
    var_in = float(np.sum(np.arange(4) ** 2 * p_in)) - n_in**2
    q_in = var_in / n_in - 1.0
    det = DetectorModel(efficiency=0.8, noise_counts=0.2)
    for dist in (Dirac(0.7), Beta(2.0, 2.0), Empirical((0.2, 0.9), (1.0, 1.0))):
        closed = mandel_out(q_in, n_in, dist, det)
        direct = count_distribution_fock(p_in, dist, det).mandel_q()
        assert closed == pytest.approx(direct, rel=1e-8, abs=1e-10)


def test_closed_mandel_matches_count_route_coherent():
    alpha = 1.1
    det = DetectorModel(efficiency=0.7, noise_counts=0.15)
    dist = TruncatedLogNormal(-0.8, 0.6)
    closed = mandel_out(0.0, alpha**2, dist, det)
    direct = count_distribution_coherent(alpha, dist, det).mandel_q()
    assert closed == pytest.approx(direct, rel=1e-8)


def test_closed_mandel_matches_thermal_input():
    n_bar = 0.5
    m = np.arange(60)
    p_in = (n_bar / (1.0 + n_bar)) ** m / (1.0 + n_bar)
    p_in /= p_in.sum()
    n_in = float(np.sum(m * p_in))
    q_in = (float(np.sum(m * m * p_in)) - n_in**2) / n_in - 1.0
    assert q_in == pytest.approx(n_bar, abs=1e-12)  # thermal: Q = mean
    det = DetectorModel(efficiency=0.85, noise_counts=0.1)
    dist = Beta(3.0, 1.5)
    closed = mandel_out(q_in, n_in, dist, det)
    direct = count_distribution_fock(p_in, dist, det).mandel_q()
    assert closed == pytest.approx(direct, rel=1e-8)
    assert closed > 0.0  # super-Poissonian stays super-Poissonian


def test_count_distribution_against_event_simulation():
    p_in = np.array([0.3, 0.0, 0.7])  # sub-Poissonian two-photon mix
    det = DetectorModel(efficiency=0.8, noise_counts=0.2)
    dist = Beta(2.0, 2.0)
    n_events = 1_000_000
    etas = sample_law(dist, n_events, np.random.default_rng(4321))
    rng = np.random.default_rng(99)
    counts = mc_photocounts_fock(p_in, etas, det.efficiency,
                                 det.noise_counts, rng)
    predicted = count_distribution_fock(p_in, dist, det)

    mean_est, mean_se = batch_statistic(counts.astype(float),
                                        lambda c: float(c.mean()))
    assert abs(predicted.mean() - mean_est) < 4.0 * mean_se

    q_est, q_se = mandel_from_samples(counts)
    assert abs(predicted.mandel_q() - q_est) < 4.0 * q_se

    for n in (0, 1, 2, 3):
        p_est, p_se = batch_statistic(counts.astype(float),
                                      lambda c, n=n: float(np.mean(c == n)))
        assert abs(predicted.probabilities[n] - p_est) < 4.0 * p_se + 1e-9


def test_coherent_counts_against_event_simulation():
    det = DetectorModel(efficiency=0.65, noise_counts=0.3)
    dist = TruncatedLogNormal(-0.9, 0.55)
    etas = sample_law(dist, 1_000_000, np.random.default_rng(777))
    rng = np.random.default_rng(5)
    counts = mc_photocounts_coherent(1.2, etas, det.efficiency,
                                     det.noise_counts, rng)
    predicted = count_distribution_coherent(1.2, dist, det)
    q_est, q_se = mandel_from_samples(counts)
    assert abs(predicted.mandel_q() - q_est) < 4.0 * q_se


def test_sub_poisson_bound_uniform_is_four():
    # <eta^2> = 1/3, var = 1/12: n* = 4 |q_in| at q_in = -1
    assert sub_poisson_bound(-1.0, Beta(1.0, 1.0)) == pytest.approx(4.0, rel=1e-12)
    det = DetectorModel(efficiency=0.7, noise_counts=0.1)
    assert mandel_out(-1.0, 4.0, Beta(1.0, 1.0), det) == pytest.approx(
        0.0, abs=1e-12
    )
    assert mandel_out(-1.0, 3.9, Beta(1.0, 1.0), det) < 0.0
    assert mandel_out(-1.0, 4.1, Beta(1.0, 1.0), det) > 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda det: mandel_out(math.nan, 1.0, Beta(2.0, 3.0), det),
        lambda det: mandel_out(-0.5, math.nan, Beta(2.0, 3.0), det),
        lambda det: mandel_out(-0.5, math.inf, Beta(2.0, 3.0), det),
        lambda det: mandel_out(-math.inf, 1.0, Beta(2.0, 3.0), det),
        lambda det: sub_poisson_bound(math.nan, Beta(2.0, 3.0)),
        lambda det: sub_poisson_bound(-math.inf, Beta(2.0, 3.0)),
    ],
    ids=["mandel-q-nan", "mandel-n-nan", "mandel-n-inf", "mandel-q-neg-inf",
         "bound-q-nan", "bound-q-neg-inf"],
)
def test_closed_forms_reject_non_finite_inputs(call):
    with pytest.raises(ValueError, match="finite"):
        call(DetectorModel(efficiency=0.7, noise_counts=0.1))


def test_sub_poisson_bound_edge_cases():
    assert sub_poisson_bound(-0.4, Dirac(0.6)) == math.inf
    with pytest.raises(ValueError):
        sub_poisson_bound(0.0, Beta(1.0, 1.0))
    with pytest.raises(ValueError):
        mandel_out(-0.5, -1.0, Beta(1.0, 1.0), DetectorModel())
    with pytest.raises(ValueError, match="undefined"):
        mandel_out(-0.5, 0.0, Beta(1.0, 1.0), DetectorModel())


def test_detector_efficiency_commutes_with_channel():
    # folding eta_c into the law must reproduce the explicit detector
    det = DetectorModel(efficiency=0.6, noise_counts=0.25)
    folded = DetectorModel(efficiency=1.0, noise_counts=0.25)
    p_in = [0.4, 0.6]
    a = count_distribution_fock(p_in, Dirac(0.5), det)
    b = count_distribution_fock(p_in, Dirac(0.3), folded)
    np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-13)


def _thinned_with_noise(p_in, s, noise, n_max):
    """Binomial thinning at survival s convolved with Poisson noise (scipy)."""
    thinned = np.zeros(len(p_in))
    for m in np.flatnonzero(p_in):
        thinned[: m + 1] += p_in[m] * stats.binom.pmf(np.arange(m + 1), m, s)
    noise_pmf = stats.poisson.pmf(np.arange(n_max + 1), noise)
    return np.convolve(thinned, noise_pmf)[: n_max + 1]


@pytest.mark.parametrize("m", [120, 300])
def test_large_fock_counts_on_atoms_match_scipy(m):
    det = DetectorModel(efficiency=0.9, noise_counts=0.7)
    law = Empirical((0.05, 0.4, 0.75, 1.0), (1.0, 2.0, 3.0, 0.5))
    p_in = np.zeros(m + 1)
    p_in[m] = 0.6
    p_in[m // 3] = 0.4
    counts = count_distribution_fock(p_in, law, det).probabilities
    expected = sum(
        w * _thinned_with_noise(p_in, det.efficiency * eta, det.noise_counts,
                                counts.size - 1)
        for eta, w in zip(law.etas, law.weights)
    )
    np.testing.assert_allclose(counts, expected, rtol=0.0, atol=1e-12)


def test_large_fock_counts_on_beta_match_per_count_quad():
    m, eff = 120, 0.9
    det = DetectorModel(efficiency=eff)
    p_in = np.zeros(m + 1)
    p_in[m] = 1.0
    counts = count_distribution_fock(p_in, Beta(2.0, 3.0), det).probabilities
    assert counts.size == m + 1
    density = stats.beta(2.0, 3.0).pdf
    expected = [
        sp_integrate.quad(lambda eta, n=n: stats.binom.pmf(n, m, eff * eta) * density(eta),
                          0.0, 1.0, epsabs=1e-13, epsrel=1e-10, limit=200)[0]
        for n in range(m + 1)
    ]
    np.testing.assert_allclose(counts, expected, rtol=0.0, atol=1e-10)


def test_fock_counts_at_full_and_zero_transmission_are_exact():
    det = DetectorModel(efficiency=1.0, noise_counts=0.3)
    p_in = np.array([0.1, 0.0, 0.25, 0.4, 0.25])
    full = count_distribution_fock(p_in, Dirac(1.0), det).probabilities
    noise = stats.poisson.pmf(np.arange(full.size), 0.3)
    np.testing.assert_allclose(full, np.convolve(p_in, noise)[: full.size],
                               rtol=0.0, atol=1e-15)
    dark = count_distribution_fock(p_in, Dirac(0.0), det).probabilities
    np.testing.assert_allclose(dark, noise, rtol=0.0, atol=1e-15)


def test_dense_thermal_input_against_event_simulation():
    n_bar, m = 2.0, 120
    k = np.arange(m + 1)
    p_in = (n_bar / (1.0 + n_bar)) ** k / (1.0 + n_bar)
    p_in /= p_in.sum()
    det = DetectorModel(efficiency=0.85, noise_counts=0.2)
    dist = TruncatedLogNormal(-0.7, 0.5)
    predicted = count_distribution_fock(p_in, dist, det)
    assert predicted.probabilities.sum() == pytest.approx(1.0, abs=1e-10)

    etas = sample_law(dist, 1_000_000, np.random.default_rng(2468))
    rng = np.random.default_rng(13)
    counts = mc_photocounts_fock(p_in, etas, det.efficiency,
                                 det.noise_counts, rng)
    mean_est, mean_se = batch_statistic(counts.astype(float),
                                        lambda c: float(c.mean()))
    assert abs(predicted.mean() - mean_est) < 4.0 * mean_se
    q_est, q_se = mandel_from_samples(counts)
    assert abs(predicted.mandel_q() - q_est) < 4.0 * q_se
    for n in (0, 1, 2, 5):
        p_est, p_se = batch_statistic(counts.astype(float),
                                      lambda c, n=n: float(np.mean(c == n)))
        assert abs(predicted.probabilities[n] - p_est) < 4.0 * p_se + 1e-9


def test_narrow_lognormal_coherent_counts_against_mpmath():
    # A narrow law of the benchmark's defect census: the one-panel start
    # missed its peak, the counts summed to ~1e-18 and the constructor raised.
    law = TruncatedLogNormal(-1.72, 0.01542)
    det = DetectorModel(efficiency=0.8, noise_counts=0.05)
    counts = count_distribution_coherent(math.sqrt(10.0), law, det).probabilities
    assert counts.sum() == pytest.approx(1.0, abs=1e-9)
    # Poisson counts averaged over z = (ln eta - mu)/sigma; eta <= 1 cuts the
    # normal at z > 100 and [-12, 12] holds all but 1e-32 of its mass.
    mp = pytest.importorskip("mpmath")

    def pk(k, z):
        lam = 0.8 * 10.0 * mp.exp(law.mu + law.sigma * z) + 0.05
        return mp.npdf(z) * mp.exp(k * mp.log(lam) - lam - mp.loggamma(k + 1))

    with mp.workdps(30):
        expected = [float(mp.quad(lambda z: pk(k, z), [-12, 0, 12])) for k in range(counts.size)]
    np.testing.assert_allclose(counts, expected, rtol=1e-9, atol=1e-15)


# The arcsine law Beta(1/2, 1/2) of the benchmark's defect census: its
# density is singular at both ends, and averaged in eta the count
# distributions raised QuadratureAccuracyError.  In theta, eta = sin^2 theta,
# the law is uniform on [0, pi/2], so each count is a smooth integral there.
ARCSINE = Beta(0.5, 0.5)


def _mp_arcsine_counts(conditional, size):
    """mpmath averages of conditional(eta)[k], k < size, over the arcsine law."""
    mp = pytest.importorskip("mpmath")
    cache = {}

    def count(k, theta):
        if theta not in cache:
            cache[theta] = conditional(mp.sin(theta) ** 2)
        return cache[theta][k] if k < len(cache[theta]) else mp.mpf(0)

    with mp.workdps(30):
        return [float(2 / mp.pi * mp.quad(lambda t: count(k, t), [0, mp.pi / 4, mp.pi / 2]))
                for k in range(size)]


def test_arcsine_fock_counts_against_mpmath():
    mp = pytest.importorskip("mpmath")
    m, eff, nu = 60, 0.9489587606240025, 3.100504966550425e-05
    p_in = np.zeros(m + 1)
    p_in[m] = 1.0
    counts = count_distribution_fock(p_in, ARCSINE, DetectorModel(eff, nu)).probabilities
    assert counts.sum() == pytest.approx(1.0, abs=1e-12)

    def conditional(eta):
        # Binomial thinning of m photons at eff * eta, then Poisson noise.
        s = eff * eta
        kept = [mp.binomial(m, j) * s**j * (1 - s) ** (m - j) for j in range(m + 1)]
        noise = [mp.exp(-nu) * mp.mpf(nu) ** n / mp.factorial(n) for n in range(4)]
        return [sum(kept[k - n] * noise[n] for n in range(4) if 0 <= k - n <= m)
                for k in range(m + 4)]

    expected = _mp_arcsine_counts(conditional, counts.size)
    # At count 18 the benchmark's graded reference reads 0.011910418.
    assert expected[18] == pytest.approx(0.0119106544400399, rel=1e-14)
    np.testing.assert_allclose(counts, expected, rtol=1e-9, atol=1e-15)


def test_arcsine_coherent_counts_against_mpmath():
    mp = pytest.importorskip("mpmath")
    eff, nu = 0.6518337260438645, 0.00030929521787171737
    det = DetectorModel(eff, nu)
    counts = count_distribution_coherent(math.sqrt(10.0), ARCSINE, det).probabilities
    assert counts.sum() == pytest.approx(1.0, abs=1e-12)

    def conditional(eta):
        lam = eff * 10.0 * eta + nu
        return [mp.exp(k * mp.log(lam) - lam - mp.loggamma(k + 1)) for k in range(counts.size)]

    expected = _mp_arcsine_counts(conditional, counts.size)
    np.testing.assert_allclose(counts, expected, rtol=1e-9, atol=1e-15)
