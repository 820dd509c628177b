"""Photocounting with noisy on/off-style click detectors and Mandel statistics.

The detector model is a quantum efficiency ``efficiency`` (eta_c) plus a
mean number of noise counts ``noise_counts`` (nu, dark counts and stray
light).  Its counting POVM has the coherent-state expectation

    pi_n(|alpha|^2) = (eta_c |alpha|^2 + nu)^n / n! * exp(-(eta_c |alpha|^2 + nu)),

i.e. Poissonian counting at the attenuated intensity shifted by the noise
floor.  The detector efficiency is folded into the channel transmittance
throughout this module (eta_c and eta only ever appear as the product
eta_c * eta); the sub-Poissonian threshold below is unaffected because the
fold cancels in the ratio.

Count distributions through a fluctuating channel are conditional
distributions averaged over the transmittance law: for a Fock-diagonal
input the conditional law is (binomial thinning) convolved with Poisson
noise, for a coherent input it is Poisson at the attenuated intensity.
The averaging runs over one shared adaptive quadrature with the whole
probability vector as integrand, and collapses to exact sums for atomic
laws.  One integrand call evaluates every node the integrator hands it
(15 per panel, all panels of a refinement level) in one vectorized pass;
the Fock route works in blocks of nodes x occupied input photon numbers
x counts of bounded size, so a Fock input costs O(m) per node.  A count
vector is cut where the Poisson tail of its largest mean falls below
1e-12, and may hold at most MAX_COUNTS = 65 536 entries; a longer one
raises ValueError before anything is allocated.  The Fock route also
raises ValueError, before building them, when its set-up tables would
exceed 2**24 elements each (a uniform input beyond about 4 000 entries).

The Mandel parameter Q = <(Delta n)^2>/<n> - 1 transfers through the
channel in closed form:

    Q_out = (<h^2> n_in Q_in + <(Delta h)^2> n_in^2) / (<h> n_in + nu),
    h = eta_c * eta,

so channel fluctuations add a positive term that destroys sub-Poissonian
light beyond the input strength n* = -<h^2> Q_in / <(Delta h)^2>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import QuadratureSpec, special_on_first_use
from .pdt import TransmittanceDistribution, _between

special = special_on_first_use(globals())

__all__ = [
    "DetectorModel",
    "PhotonNumberDist",
    "MAX_COUNTS",
    "povm_qsymbol",
    "count_distribution_fock",
    "count_distribution_coherent",
    "mandel_out",
    "sub_poisson_bound",
]

# Count distributions feed quadratic statistics (means, variances), so they
# are computed tighter than the package-wide default tolerance.
_COUNT_QUADRATURE = QuadratureSpec(rel_tol=1e-11, abs_tol=5e-14, max_depth=40)
_TAIL = 1e-12
# Fock integrand: elements of one (nodes x occupied rows x counts) block, so
# temporary memory stays bounded whatever the number of quadrature nodes.
_BLOCK_ELEMENTS = 1 << 14
_LOG_FLUSH = -700.0
# Longest count vector (counts 0 .. MAX_COUNTS - 1) a count distribution
# may have; the integrands hold one such vector per quadrature node.
MAX_COUNTS = 1 << 16
# Most elements of one table the Fock route builds before quadrature.  Its
# (largest occupied m + 1) x counts noise band, no smaller than its occupied
# rows x (m + 1) binomial table, is quadratic in the input length, so
# MAX_COUNTS alone would still admit a (65 536 x 65 536) band of 32 GiB.
_MAX_FOCK_TABLE = 1 << 24


@dataclass(frozen=True)
class DetectorModel:
    """Click detector: quantum efficiency and mean noise counts."""

    efficiency: float = 1.0
    noise_counts: float = 0.0

    def __post_init__(self):
        if not _between(self.efficiency, 0.0, 1.0, open_left=True):
            raise ValueError(f"detector efficiency must lie in (0, 1], got {self.efficiency!r}")
        if not _between(self.noise_counts, 0.0, math.inf, open_right=True):
            raise ValueError(
                f"mean noise counts must be nonnegative and finite, got {self.noise_counts!r}"
            )


class PhotonNumberDist:
    """Probabilities over counted photon numbers 0..N (tail truncated)."""

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("need a 1D, nonempty probability vector")
        if np.any(p < -1e-12):
            raise ValueError("negative probability entry")
        total = float(p.sum())
        if not (1.0 - 1e-9 <= total <= 1.0 + 1e-9):
            raise ValueError(f"probabilities sum to {total!r}, not 1 within 1e-9")
        self.probabilities = np.clip(p, 0.0, None)
        self.probabilities.flags.writeable = False

    def __len__(self):
        return self.probabilities.size

    def mean(self):
        n = np.arange(self.probabilities.size)
        return float(np.sum(n * self.probabilities))

    def second_moment(self):
        n = np.arange(self.probabilities.size)
        return float(np.sum(n * n * self.probabilities))

    def variance(self):
        m = self.mean()
        return self.second_moment() - m * m

    def mandel_q(self):
        m = self.mean()
        if m <= 0.0:
            raise ValueError("Mandel Q is undefined at zero mean count")
        return self.variance() / m - 1.0


def povm_qsymbol(n, intensity, det: DetectorModel):
    """Coherent-state expectation of the n-click POVM element at |alpha|^2."""
    if n < 0 or n != int(n):
        raise ValueError("count must be a nonnegative integer")
    if not (math.isfinite(intensity) and intensity >= 0.0):
        raise ValueError("intensity must be finite and nonnegative")
    lam = det.efficiency * intensity + det.noise_counts
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    return float(math.exp(n * math.log(lam) - lam - math.lgamma(n + 1)))


def _poisson_vector(ns, mean):
    """Poisson pmf over the integer grid ns (mean 0 handled exactly)."""
    if mean == 0.0:
        out = np.zeros(len(ns))
        out[0] = 1.0
        return out
    return np.exp(ns * math.log(mean) - mean - special.gammaln(ns + 1.0))


def _noise_cutoff(mean, tail, offset=0):
    """offset + the smallest N >= int(mean) with P(Poisson(mean) > N) <= tail.

    Raises ValueError, before anything is allocated, when counts
    0 .. offset + N would need more than MAX_COUNTS entries.
    """
    floor = int(mean)
    n = floor
    if mean > 0.0 and offset + floor < MAX_COUNTS:
        def covered(k):
            # P(X <= k) = Q(k + 1, mean) (regularized upper incomplete gamma).
            return special.gammaincc(k + 1.0, mean) >= 1.0 - tail

        # Start at the continuous Poisson quantile, then settle on the exact
        # test: the same N as a count-by-count walk up from int(mean).
        n = max(floor, math.ceil(special.pdtrik(1.0 - tail, mean)))
        while n > floor and covered(n - 1):
            n -= 1
        while not covered(n):
            n += 1
    if offset + n + 1 > MAX_COUNTS:
        raise ValueError(
            f"a mean count of {mean!r} needs counts up to at least "
            f"{offset + n}, beyond the MAX_COUNTS = {MAX_COUNTS} entries "
            "a count distribution may hold"
        )
    return offset + n


def count_distribution_fock(input_probs, dist: TransmittanceDistribution,
                            det: DetectorModel) -> PhotonNumberDist:
    """Counted-photon distribution for a Fock-diagonal input.

    ``input_probs[m]`` is the input m-photon probability.  Conditioned on a
    transmittance eta, each photon survives with probability
    eta_c * eta (binomial thinning) and Poisson noise with mean nu adds on
    top; the conditional vector is then averaged over the transmittance
    law.  Exact (no quadrature) for atomic laws.  Raises ValueError if the
    counts would need more than MAX_COUNTS entries, or the set-up tables
    (quadratic in the input length) more than 2**24 elements each.
    """
    p_in = np.asarray(input_probs, dtype=float)
    if p_in.ndim != 1 or p_in.size == 0:
        raise ValueError("need a 1D, nonempty input photon-number vector")
    if np.any(p_in < 0.0) or not math.isclose(float(p_in.sum()), 1.0, abs_tol=1e-9):
        raise ValueError("input probabilities must be nonnegative and sum to 1")
    m_max = p_in.size - 1
    n_max = _noise_cutoff(det.noise_counts, _TAIL, offset=m_max)
    noise = _poisson_vector(np.arange(n_max + 1), det.noise_counts)
    # Only occupied input rows contribute; thinning m photons leaves k <= m,
    # so the survived vector stops at the largest occupied m.
    ms = np.flatnonzero(p_in)
    table = (int(ms[-1]) + 1) * (n_max + 1)
    if table > _MAX_FOCK_TABLE:
        raise ValueError(
            f"a Fock input up to m = {ms[-1]} with counts up to {n_max} needs "
            f"tables of {table} elements, beyond the bound of "
            f"{_MAX_FOCK_TABLE} elements"
        )
    weights = p_in[ms]
    ks = np.arange(ms[-1] + 1)
    rest = ms[:, None] - ks[None, :]
    # gammaln is +inf at the nonpositive integers, so log C(m, k) = -inf
    # (a zero term) wherever k > m.
    log_binom = (
        special.gammaln(ms[:, None] + 1.0)
        - special.gammaln(ks[None, :] + 1.0)
        - special.gammaln(rest + 1.0)
    )
    # Noise convolution as a banded matrix: band[k, n] = noise[n - k].
    lag = np.arange(n_max + 1)[None, :] - ks[:, None]
    band = np.where(lag >= 0, noise[np.clip(lag, 0, None)], 0.0)
    unthinned = weights @ band[ms]  # s = 1: the input convolved with the noise
    chunk = max(1, _BLOCK_ELEMENTS // log_binom.size)

    def conditional(eta_arr):
        s = det.efficiency * np.atleast_1d(np.asarray(eta_arr, dtype=float))
        out = np.empty((s.size, n_max + 1))
        none_survive = s == 0.0
        all_survive = s == 1.0
        out[none_survive] = noise
        out[all_survive] = unthinned
        inner = np.flatnonzero(~(none_survive | all_survive))
        for start in range(0, inner.size, chunk):
            rows = inner[start:start + chunk]
            log_s = np.log(s[rows])[:, None, None]
            log_f = np.log1p(-s[rows])[:, None, None]
            # log C(m, k) + k log s + (m - k) log(1 - s): node x row x count
            block = log_binom + ks * log_s
            block += rest * log_f
            # Terms below exp(-700) ~ 1e-304 are far under any tolerance;
            # flushing them to zero keeps exp out of subnormal arithmetic.
            block[block < _LOG_FLUSH] = -np.inf
            np.exp(block, out=block)
            out[rows] = (weights @ block) @ band
        return out

    averaged = dist.expectation(conditional, _COUNT_QUADRATURE)
    averaged = np.asarray(averaged).reshape(-1)
    return PhotonNumberDist(averaged)


def count_distribution_coherent(alpha, dist: TransmittanceDistribution,
                                det: DetectorModel) -> PhotonNumberDist:
    """Counted-photon distribution for a coherent input |alpha>.

    Conditioned on eta the counts are Poissonian with mean
    eta_c * eta * |alpha|^2 + nu; the vector is averaged over the
    transmittance law.  Raises ValueError if the counts would need more
    than MAX_COUNTS entries (a largest mean count above about 63 750).
    """
    amplitude = abs(complex(alpha))
    intensity = amplitude * amplitude
    if not math.isfinite(intensity):
        raise ValueError(f"|alpha|^2 must be finite, got alpha={alpha!r}")
    sup = dist.support[1]
    mean_max = det.efficiency * sup * intensity + det.noise_counts
    n_max = _noise_cutoff(mean_max, _TAIL)
    ns = np.arange(n_max + 1)
    log_fact = special.gammaln(ns + 1.0)

    def conditional(eta_arr):
        eta_arr = np.atleast_1d(np.asarray(eta_arr, dtype=float))
        lam = det.efficiency * eta_arr * intensity + det.noise_counts  # (E,)
        positive = lam > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            log_lam = np.where(positive, np.log(np.where(positive, lam, 1.0)), 0.0)
        out = np.where(
            positive[:, None],
            np.exp(ns[None, :] * log_lam[:, None] - lam[:, None] - log_fact[None, :]),
            np.concatenate(([1.0], np.zeros(n_max)))[None, :],
        )
        return out

    averaged = dist.expectation(conditional, _COUNT_QUADRATURE)
    averaged = np.asarray(averaged).reshape(-1)
    return PhotonNumberDist(averaged)


def mandel_out(q_in, n_in, dist: TransmittanceDistribution, det: DetectorModel):
    """Mandel parameter after the channel, in closed form.

    q_in and n_in are the input Mandel parameter and mean photon number.
    Valid for any input with finite second moments; exactly matches the
    count-distribution route for Fock-diagonal and coherent inputs.
    """
    if not (math.isfinite(q_in) and math.isfinite(n_in)):
        raise ValueError(f"q_in and n_in must be finite, got {q_in!r}, {n_in!r}")
    if n_in < 0.0:
        raise ValueError("mean photon number must be nonnegative")
    h1 = det.efficiency * dist.moment(1.0)
    h2 = det.efficiency**2 * dist.moment(2.0)
    var_h = h2 - h1 * h1
    denom = h1 * n_in + det.noise_counts
    if denom <= 0.0:
        raise ValueError("output mean count vanishes, Mandel Q undefined")
    return (h2 * n_in * q_in + var_h * n_in * n_in) / denom


def sub_poisson_bound(q_in, dist: TransmittanceDistribution):
    """Largest input mean photon number with sub-Poissonian output.

    n* = -<eta^2> q_in / <(Delta eta)^2>; the detector folds out of the
    ratio, so only the channel law enters.  Constant channels never
    destroy sub-Poissonian statistics: the bound is infinite.
    """
    if not math.isfinite(q_in):
        raise ValueError(f"q_in must be finite, got {q_in!r}")
    if q_in >= 0.0:
        raise ValueError("input must be sub-Poissonian (q_in < 0)")
    m1 = dist.moment(1.0)
    m2 = dist.moment(2.0)
    var = m2 - m1 * m1
    if var <= 0.0:
        return math.inf
    return -m2 * q_in / var
