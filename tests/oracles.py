"""Independent oracles the test suite checks production code against.

Everything in here is deliberately written the *slow, obvious* way --
truncated Fock expansions, brute-force phase-space grids, high-precision
scalar arithmetic, event-level Monte Carlo -- sharing no code paths with
the library.  When a test compares the two, agreement is evidence, not
tautology.
"""

from __future__ import annotations

import math
from collections import namedtuple

import mpmath as mp
import numpy as np
from scipy import stats

from turbulight.pdt import (
    AdaptiveCorrelated,
    Beta,
    Dirac,
    Empirical,
    PerfectlyCorrelated,
    Product,
    Scaled,
    TruncatedLogNormal,
)

# ---------------------------------------------------------------------------
# Fock-basis expansions of the two standard squeezed resources
# ---------------------------------------------------------------------------


def _auto_terms(squeezing, floor=1e-24):
    """Truncation order making the neglected tail weight < floor."""
    t = math.tanh(squeezing) ** 2
    if t == 0.0:
        return 4
    return max(60, int(math.log(floor) / math.log(t)) + 2)


def tmsv_fock_moments(squeezing, n_terms=None):
    """Moments of sech(xi) * sum_n tanh(xi)^n |n, n> by explicit summation.

    Returns a dict with every nonzero first/second moment; each is an
    independent ladder-operator sum over the Fock amplitudes, never the
    closed sinh/cosh forms under test.
    """
    if n_terms is None:
        n_terms = _auto_terms(squeezing)
    n = np.arange(n_terms + 1, dtype=float)
    c = np.tanh(squeezing) ** n / np.cosh(squeezing)
    occ = float(np.sum(c * c * n))
    # <a b> couples |n+1, n+1> to |n, n| with amplitude (n+1).
    pair = float(np.sum(c[:-1] * c[1:] * (n[:-1] + 1.0)))
    norm = float(np.sum(c * c))
    return {"norm": norm, "occ": occ, "pair": pair}


def squeezed_vacuum_fock_moments(squeezing, angle=0.0, n_terms=None):
    """Moments of S(xi e^{2i angle})|0> from its even-Fock expansion."""
    if n_terms is None:
        n_terms = _auto_terms(squeezing)
    amp = np.empty(n_terms + 1, dtype=complex)
    z = -np.exp(2j * angle) * np.tanh(squeezing)
    # c_{2n} = [sqrt((2n)!) / (2^n n!)] * z^n / sqrt(cosh xi); log(k!) table.
    log_fac = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * n_terms + 1)))))
    for k in range(n_terms + 1):
        mag = math.exp(
            0.5 * log_fac[2 * k] - k * math.log(2.0) - log_fac[k]
        ) / math.sqrt(math.cosh(squeezing))
        amp[k] = mag * z**k
    two_n = 2.0 * np.arange(n_terms + 1, dtype=float)
    occ = float(np.sum(np.abs(amp) ** 2 * two_n))
    # <a^2> couples |2n+2> to |2n| with sqrt((2n+1)(2n+2)).
    anom = complex(
        np.sum(np.conj(amp[:-1]) * amp[1:] * np.sqrt((two_n[:-1] + 1.0) * (two_n[:-1] + 2.0)))
    )
    norm = float(np.sum(np.abs(amp) ** 2))
    return {"norm": norm, "occ": occ, "anom": anom}


# ---------------------------------------------------------------------------
# Bell click probabilities: scalar high-precision + vectorized pointwise
# ---------------------------------------------------------------------------

CTerms = namedtuple("CTerms", "c0 c1a c1b same different")


def mp_c_terms(eta_a, eta_b, eta_c, squeezing, theta_a, theta_b, dps=60):
    """C polynomials at one transmittance realization, mpmath scalars.

    Every input becomes an mpf before any arithmetic, so the products and
    differences that cancel at large squeezing are formed in ``dps`` digits.
    """
    with mp.workdps(dps):
        eta_a, eta_b, eta_c, squeezing, theta_a, theta_b = (
            mp.mpf(v) for v in (eta_a, eta_b, eta_c, squeezing, theta_a, theta_b)
        )
        t = mp.tanh(squeezing) ** 2
        x = eta_c * eta_a
        y = eta_c * eta_b
        s = x * y * t - (1 + (x - 1) * t) * (1 + (y - 1) * t)
        c0 = s**2
        c1a = y * (1 - x) * (1 - t) * t * s
        c1b = x * (1 - y) * (1 - t) * t * s
        c_same = x * y * t * (1 - t) ** 2 * (
            (1 - x) * (1 - y) * t - mp.sin(theta_a - theta_b) ** 2
        )
        c_diff = x * y * t * (1 - t) ** 2 * (
            (1 - x) * (1 - y) * t - mp.cos(theta_a - theta_b) ** 2
        )
        return c0, c1a, c1b, c_same, c_diff


def c_terms(eta_a, eta_b, efficiency, squeezing, theta_a, theta_b):
    """The five C polynomials in float arithmetic; broadcasts over eta arrays.

    The expanded polynomials of :func:`mp_c_terms`, but with 1 - t formed
    as sech^2(squeezing), so they keep their digits as t -> 1.  Returns
    (c0, c1a, c1b, same, different) as attributes.
    """
    x = efficiency * np.asarray(eta_a, dtype=float)
    y = efficiency * np.asarray(eta_b, dtype=float)
    th = math.tanh(squeezing)
    t = th * th
    e = math.exp(-squeezing)
    sech = 2.0 * e / (1.0 + e * e)
    u = sech * sech
    g = u + t * x + t * y * (1.0 - x)
    u2g = u * u * g
    common = u * u * t * x * y
    p = t * (1.0 - x) * (1.0 - y)
    delta = theta_a - theta_b
    return CTerms(
        c0=u2g * g,
        c1a=-u2g * (t * y * (1.0 - x)),
        c1b=-u2g * (t * x * (1.0 - y)),
        same=common * (p - math.sin(delta) ** 2),
        different=common * (p - math.cos(delta) ** 2),
    )


def mp_reciprocal_averages(eta_a, eta_b, eta_c, squeezing, angle_pairs, dps=60):
    """The Bell integrand's components at one realization, mpmath scalars.

    Per angle pair 1/(D + C_same) and 1/(D + C_different), then
    C_0/(C_0 + C_1A)^2, C_0/(C_0 + C_1B)^2 and 1/C_0, with D = C_0 + C_1A + C_1B.
    """
    with mp.workdps(dps):
        out = []
        for theta_a, theta_b in angle_pairs:
            c0, c1a, c1b, c_same, c_diff = mp_c_terms(
                eta_a, eta_b, eta_c, squeezing, theta_a, theta_b, dps
            )
            d = c0 + c1a + c1b
            out += [1 / (d + c_same), 1 / (d + c_diff)]
        out += [c0 / (c0 + c1a) ** 2, c0 / (c0 + c1b) ** 2, 1 / c0]
        return [float(v) for v in out]


def mp_click_probabilities(eta_a, eta_b, eta_c, noise, squeezing,
                           theta_a, theta_b, dps=60):
    """(P_same, P_different) for a constant channel, 60-digit arithmetic."""
    with mp.workdps(dps):
        t = mp.tanh(squeezing) ** 2
        c0, c1a, c1b, c_same, c_diff = mp_c_terms(
            eta_a, eta_b, eta_c, squeezing, theta_a, theta_b
        )
        d = c0 + c1a + c1b
        pref = mp.e ** (-4 * noise) / 2 * (1 - t) ** 4
        boost = mp.e ** (2 * noise)
        shared = -c0 / (c0 + c1a) ** 2 - c0 / (c0 + c1b) ** 2
        p_same = mp.mpf(1) / 2 + pref * (
            boost * (2 / (d + c_same) + shared - 2 / (d + c_diff)) + 1 / c0
        )
        p_diff = mp.mpf(1) / 2 + pref * (
            boost * (2 / (d + c_diff) + shared - 2 / (d + c_same)) + 1 / c0
        )
        return float(p_same), float(p_diff)


def pointwise_click_probabilities(eta_a, eta_b, eta_c, noise, squeezing,
                                  theta_a, theta_b):
    """Vectorized per-realization (P_same, P_diff); averaging them over the
    joint transmittance law gives the channel probabilities, because every
    bracket in the click formula is linear in the realization average."""
    eta_a = np.asarray(eta_a, dtype=float)
    eta_b = np.asarray(eta_b, dtype=float)
    t = math.tanh(squeezing) ** 2
    x = eta_c * eta_a
    y = eta_c * eta_b
    s = x * y * t - (1.0 + (x - 1.0) * t) * (1.0 + (y - 1.0) * t)
    c0 = s * s
    c1a = y * (1.0 - x) * (1.0 - t) * t * s
    c1b = x * (1.0 - y) * (1.0 - t) * t * s
    delta = theta_a - theta_b
    c_same = x * y * t * (1.0 - t) ** 2 * (
        (1.0 - x) * (1.0 - y) * t - math.sin(delta) ** 2
    )
    c_diff = x * y * t * (1.0 - t) ** 2 * (
        (1.0 - x) * (1.0 - y) * t - math.cos(delta) ** 2
    )
    d = c0 + c1a + c1b
    pref = 0.5 * math.exp(-4.0 * noise) * (1.0 - t) ** 4
    boost = math.exp(2.0 * noise)
    shared = -c0 / (c0 + c1a) ** 2 - c0 / (c0 + c1b) ** 2
    p_same = 0.5 + pref * (
        boost * (2.0 / (d + c_same) + shared - 2.0 / (d + c_diff)) + 1.0 / c0
    )
    p_diff = 0.5 + pref * (
        boost * (2.0 / (d + c_diff) + shared - 2.0 / (d + c_same)) + 1.0 / c0
    )
    return p_same, p_diff


def mc_bell_parameter(sample_etas, eta_c, noise, squeezing,
                      angles_a, angles_b):
    """CHSH parameter from per-event click probabilities, batch-mean errors.

    sample_etas: tuple of arrays (eta_a_i, eta_b_i) drawn from the joint
    law.  Returns (estimate, standard_error).
    """
    eta_a, eta_b = sample_etas
    batches = 50
    size = eta_a.size // batches
    values = []
    for k in range(batches):
        sl = slice(k * size, (k + 1) * size)
        e = {}
        for ta in angles_a:
            for tb in angles_b:
                ps, pd = pointwise_click_probabilities(
                    eta_a[sl], eta_b[sl], eta_c, noise, squeezing, ta, tb
                )
                ps_m, pd_m = float(np.mean(ps)), float(np.mean(pd))
                e[(ta, tb)] = (ps_m - pd_m) / (ps_m + pd_m)
        values.append(
            abs(e[(angles_a[0], angles_b[0])] - e[(angles_a[0], angles_b[1])])
            + abs(e[(angles_a[1], angles_b[1])] + e[(angles_a[1], angles_b[0])])
        )
    values = np.asarray(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(batches))


# ---------------------------------------------------------------------------
# heat-semigroup smoothing of a Gaussian P function (FFT, brute force)
# ---------------------------------------------------------------------------


def heat_smoothed_quad_variance(mean, occ, anom, kappa, phase,
                                n=512, span=9.0):
    """Var of x(phase) under exp(kappa * Laplacian) applied to a Gaussian P.

    The state must possess a proper Gaussian P function (classical-like
    moments with positive-definite P covariance).  Works directly on a
    discretized phase-space grid: build P, multiply its FFT by the heat
    multiplier exp(-kappa |k|^2), transform back, take weighted moments.
    """
    anom = complex(anom)
    var_re = 0.5 * (occ + anom.real)
    var_im = 0.5 * (occ - anom.real)
    cov = 0.5 * anom.imag
    det = var_re * var_im - cov * cov
    if min(var_re, var_im) <= 0.0 or det <= 0.0:
        raise ValueError("state has no proper Gaussian P function")

    sigma_max = math.sqrt(max(var_re, var_im) + 2.0 * kappa)
    half = span * sigma_max
    mu = complex(mean)
    u = np.linspace(mu.real - half, mu.real + half, n, endpoint=False)
    v = np.linspace(mu.imag - half, mu.imag + half, n, endpoint=False)
    du = u[1] - u[0]
    uu, vv = np.meshgrid(u, v, indexing="ij")

    dre = uu - mu.real
    dim = vv - mu.imag
    quad = (
        var_im * dre * dre - 2.0 * cov * dre * dim + var_re * dim * dim
    ) / det
    p = np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))

    ku = 2.0 * math.pi * np.fft.fftfreq(n, d=du)
    k2 = ku[:, None] ** 2 + ku[None, :] ** 2
    p_smooth = np.fft.ifft2(np.fft.fft2(p) * np.exp(-kappa * k2)).real

    w = p_smooth * du * du
    w_sum = w.sum()
    xq = math.sqrt(2.0) * (uu * math.cos(phase) + vv * math.sin(phase))
    m1 = (w * xq).sum() / w_sum
    m2 = (w * xq * xq).sum() / w_sum
    return m2 - m1 * m1


# ---------------------------------------------------------------------------
# densities of the continuous laws
# ---------------------------------------------------------------------------


def beta_density(p, q, lo=0.0):
    """Density of Beta(p, q) conditioned on [lo, 1], as a scalar function.

    scipy.stats' pdf divided by the mass of [lo, 1] from mpmath's
    regularized incomplete beta, so no law method normalizes it.
    """
    with mp.workdps(40):
        mass = float(mp.betainc(p, q, lo, 1, regularized=True))
    pdf = stats.beta(p, q).pdf
    return lambda eta: float(pdf(eta)) / mass if lo <= eta <= 1.0 else 0.0


def lognormal_density(mu, sigma, lo=0.0):
    """Density of eta with ln eta ~ N(mu, sigma^2), conditioned on [lo, 1].

    scipy.stats' pdf divided by the mass of [lo, 1] from mpmath's normal
    CDF, taken as complementary CDFs so no tail cancels.
    """
    with mp.workdps(40):
        z_lo = (mp.log(lo) - mu) / sigma if lo > 0.0 else -mp.inf
        mass = float(mp.ncdf(-z_lo) - mp.ncdf(mp.mpf(mu) / sigma))
    pdf = stats.lognorm(sigma, scale=math.exp(mu)).pdf
    return lambda eta: float(pdf(eta)) / mass if lo <= eta <= 1.0 else 0.0


# ---------------------------------------------------------------------------
# Monte Carlo helpers
# ---------------------------------------------------------------------------


def _rejected(draw, lo, n):
    """n draws kept inside [lo, 1], where ``draw(m)`` gives m raw draws."""
    kept = np.empty(0)
    while kept.size < n:
        x = draw(n)
        kept = np.concatenate([kept, x[(x >= lo) & (x <= 1.0)]])
    return kept[:n]


def sample_law(law, n, rng):
    """n independent draws of a one-mode law, made from its parameters alone.

    numpy's own generators do the drawing (``rng`` is a
    ``numpy.random.Generator``): a choice over the bins of an atomic law,
    ``rng.beta`` and ``rng.lognormal`` rejected to [lo, 1] for the
    continuous ones, so no draw passes through the library's CDF formulas.
    Rejection needs the law to keep a fair share of its parent's mass.
    """
    if isinstance(law, Scaled):
        return law.factor * sample_law(law.inner, n, rng)
    if isinstance(law, Dirac):
        return np.full(n, float(law.value))
    if isinstance(law, Empirical):
        etas = np.asarray(law.etas, dtype=float)
        return etas[rng.choice(etas.size, size=n, p=law.weights)]
    if isinstance(law, Beta):
        return _rejected(lambda m: rng.beta(law.p, law.q, m), law.lo, n)
    if isinstance(law, TruncatedLogNormal):
        return _rejected(lambda m: rng.lognormal(law.mu, law.sigma, m), law.lo, n)
    raise TypeError(f"no sampler for {type(law).__name__}")


def sample_joint(joint, n, rng):
    """n joint draws (eta_a, eta_b) of a two-mode law, as two arrays."""
    if isinstance(joint, Product):
        return sample_law(joint.a, n, rng), sample_law(joint.b, n, rng)
    if isinstance(joint, PerfectlyCorrelated):
        e = sample_law(joint.dist, n, rng)
        return e, e.copy()
    if isinstance(joint, AdaptiveCorrelated):
        m = np.minimum(sample_law(joint.a, n, rng), sample_law(joint.b, n, rng))
        return m, m.copy()
    raise TypeError(f"no sampler for {type(joint).__name__}")


def batch_statistic(values, statistic, batches=50):
    """(estimate, standard error) of a statistic via batch means."""
    values = np.asarray(values)
    size = values.shape[-1] // batches
    stats = [
        statistic(values[..., k * size:(k + 1) * size]) for k in range(batches)
    ]
    stats = np.asarray(stats, dtype=float)
    return float(stats.mean()), float(stats.std(ddof=1) / math.sqrt(batches))


def mc_quadrature_variance(quad_mean_in, quad_var_in, etas, batches=50):
    """Output quadrature variance from sampled transmittances.

    Per realization the exact loss map scales the quadrature mean by
    sqrt(eta) and the normally ordered variance by eta; the unconditional
    variance is E[eta] v_in + Var[sqrt(eta)] <x>^2 by total variance.
    Returns (estimate, standard error) over eta batches.
    """
    etas = np.asarray(etas)

    def stat(e):
        roots = np.sqrt(e)
        return float(
            np.mean(e) * quad_var_in
            + np.var(roots) * quad_mean_in * quad_mean_in
        )

    return batch_statistic(etas, stat, batches)


def mc_photocounts_fock(input_probs, etas, efficiency, noise, rng):
    """Event-level detector simulation for a Fock-diagonal input."""
    input_probs = np.asarray(input_probs, dtype=float)
    m = rng.choice(input_probs.size, size=etas.size, p=input_probs)
    survived = rng.binomial(m, efficiency * etas)
    return survived + rng.poisson(noise, size=etas.size)


def mc_photocounts_coherent(alpha, etas, efficiency, noise, rng):
    """Event-level detector simulation for a coherent input."""
    lam = efficiency * etas * abs(alpha) ** 2 + noise
    return rng.poisson(lam)


def mandel_from_samples(counts, batches=50):
    """(Q estimate, standard error) from event samples."""

    def stat(c):
        mean = c.mean()
        return float(c.var() / mean - 1.0)

    return batch_statistic(np.asarray(counts, dtype=float), stat, batches)
