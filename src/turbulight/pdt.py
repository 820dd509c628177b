"""Probability distributions of channel transmittance (PDTs).

A fluctuating-loss channel is described by the law of its intensity
transmittance eta in [0, 1]; the amplitude transmission seen by field
operators is T = sqrt(eta).  Four one-mode families cover the practical
cases:

* :class:`Dirac` -- a constant channel (pure deterministic loss),
* :class:`TruncatedLogNormal` -- log-normal turbulence statistics,
  conditioned on eta <= 1,
* :class:`Beta` -- a flexible bounded family for synthetic studies,
* :class:`Empirical` -- histogram atoms ingested from measured data.

Atomic laws (:class:`Dirac`, :class:`Empirical` and either one scaled)
give their atoms as one pair of read-only float64 arrays ``(etas,
weights)``, etas sorted and weights summing to 1; every atom sum,
selection and tail sum reads those arrays.

Deterministic absorption enters as a multiplicative pre-factor on eta
(:meth:`TransmittanceDistribution.scale`), and pre/postselection on a
monitored transmittance is the renormalized restriction to [threshold, 1]
(:meth:`TransmittanceDistribution.truncate`).

Two-mode channels combine one-mode laws three ways: :class:`Product`
(independent arms, counterpropagation), :class:`PerfectlyCorrelated`
(both modes ride the same realization, copropagation) and
:class:`AdaptiveCorrelated` (feedback equalizes both arms onto the weaker
momentary channel, so both modes see min(T_a, T_b)).

Moments use closed forms of the underlying families (incomplete beta /
normal integrals); other averages are exact sums for atomic laws, else the
quadrature of :mod:`turbulight.numerics` over the law's ``chart``, in 1D
and 2D alike.  A Beta chart takes each end of the support in its own
variable, so a singular density reaches the quadrature smooth.

Every quadrature average runs at ``numerics.DEFAULT_QUADRATURE``.
:meth:`TransmittanceDistribution.expectation` is the one law-level
average that takes a tolerance (``spec``); the count distributions of
:mod:`turbulight.photocount` pass their tighter ``_COUNT_QUADRATURE``
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_QUADRATURE, integrate, integrate2, special_on_first_use

special = special_on_first_use(globals())

__all__ = [
    "EmptySelectionError",
    "TransmittanceDistribution",
    "Dirac",
    "TruncatedLogNormal",
    "Beta",
    "Empirical",
    "Scaled",
    "JointTransmittanceDistribution",
    "Product",
    "PerfectlyCorrelated",
    "AdaptiveCorrelated",
    "adaptive_correlate",
]

# Elements of one (nodes x atoms) block of a Product average with an atomic
# arm, so temporary memory stays bounded whatever the number of atoms.
_BLOCK_ELEMENTS = 1 << 16
# Above this z-score the normal CDF is within 1e-3 of 1, so a difference
# Phi(b) - Phi(a) of two such CDFs has lost three digits or more; the
# log-normal law then takes it as Phi(-a) - Phi(-b), which keeps them.
# The literal is float(-special.ndtri(1e-3)) bit for bit.
_UPPER_TAIL_Z = 3.090232306167813
# Below this width dz both forms cancel too: Phi(z) - Phi(z - dz) is then
# the integral of the normal density over [z - dz, z], which a fixed
# Gauss-Legendre rule takes to rounding (phi is entire, the interval short).
_NEAR_ONE_DZ = 1e-2
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
_GL_NODES, _GL_WEIGHTS = 0.5 * (1.0 + _GL_NODES), 0.5 * _GL_WEIGHTS
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TINY = np.finfo(float).tiny
# z-scores of the log-normal quadrature edges exp(mu + z sigma): the median,
# the flanks of the peak and its far tails.
_LOG_NORMAL_EDGE_Z = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)


def _normal_mass_below(z, dz):
    """[Phi(z) - Phi(z - dz)] / phi(z) for 0 < dz < ``_NEAR_ONE_DZ``.

    The density is expanded about z, phi(z - dz s) = phi(z) exp(dz s (z -
    dz s / 2)), so no term cancels and phi(z) can be applied in log space.
    """
    ds = np.asarray(dz, dtype=float)[..., None] * _GL_NODES
    return dz * (np.exp(ds * (z - 0.5 * ds)) @ _GL_WEIGHTS)


class EmptySelectionError(ValueError):
    """Selection threshold removed (essentially) all probability mass."""

    def __init__(self, threshold, surviving_mass):
        super().__init__(
            f"selection threshold {threshold!r} leaves surviving probability "
            f"mass {surviving_mass!r}"
        )
        self.threshold = threshold
        self.surviving_mass = surviving_mass


def _weighted(values, w):
    """values * w, the weights w broadcast over the trailing axes of values."""
    return values * w.reshape(w.shape + (1,) * (values.ndim - w.ndim))


def _frozen(a):
    """``a`` made read-only, so a law can hand out its arrays without copies."""
    a.flags.writeable = False
    return a


def _between(value, lo, hi, *, open_left=False, open_right=False):
    """lo <= value <= hi, strict at an open end; False for NaN and for what
    is no real number (a string, None, a complex), which cannot compare."""
    try:
        lo_ok = value > lo if open_left else value >= lo
        return lo_ok and (value < hi if open_right else value <= hi)
    except TypeError:
        return False


def _check_unit_interval(name, value, *, open_left=False, open_right=False):
    if not _between(value, 0.0, 1.0, open_left=open_left, open_right=open_right):
        raise ValueError(f"{name} must lie in the unit interval, got {value!r}")


def _check_finite(name, value, *, positive=False):
    lo, rule = (0.0, "positive and finite") if positive else (-math.inf, "finite")
    if not _between(value, lo, math.inf, open_left=True, open_right=True):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _as_bins(name, values):
    """``values`` as a 1D float64 array; a ValueError naming ``name`` if they
    are no sequence of real numbers."""
    try:
        bins = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        bins = None
    if bins is None or bins.ndim != 1:
        raise ValueError(
            f"{name} must be a sequence of real numbers, got {type(values).__name__}"
        )
    return bins


class TransmittanceDistribution:
    """Base class for one-mode transmittance laws.

    Concrete subclasses implement ``moment``, ``survival``, ``truncate``,
    ``support`` and either ``atoms`` (atomic laws: a pair of read-only
    arrays ``(etas, weights)``) or ``chart`` (continuous laws; the default
    chart needs ``density`` and may use ``edges``).
    ``expectation`` sums over the atoms or integrates the chart.
    ``scale`` wraps the law in :class:`Scaled` unless a subclass has a
    closed form for it.
    Everything here is immutable and safe to share between threads.
    """

    # ---- interface -----------------------------------------------------

    def moment(self, k):
        """<eta**k> for real k >= 0 (k = 0 gives exactly 1)."""
        raise NotImplementedError

    def density(self, eta):
        """Normalized density at eta (vectorized). Atomic laws raise."""
        raise NotImplementedError

    def survival(self, eta, include_equal=False):
        """P(X > eta), or P(X >= eta) when include_equal (vectorized)."""
        raise NotImplementedError

    def truncate(self, threshold) -> "TransmittanceDistribution":
        """Renormalized restriction to [threshold, 1]."""
        raise NotImplementedError

    def scale(self, factor) -> "TransmittanceDistribution":
        """Law of factor * eta, for a deterministic factor in (0, 1]."""
        _check_unit_interval("scale factor", factor, open_left=True)
        if factor == 1.0:
            return self
        return Scaled(self, factor)

    @property
    def atoms(self):
        """(etas, weights) as read-only float64 arrays for atomic laws, etas
        sorted and weights summing to 1; None for continuous laws."""
        return None

    @property
    def support(self):
        """(inf, sup) of the support."""
        raise NotImplementedError

    @property
    def edges(self):
        """Breakpoints of the default chart, so a peak far narrower than the
        support is not missed; points outside the support are ignored."""
        return ()

    def chart(self):
        """(a, b, points, g): <f> is the integral of f(eta(s)) w(s) over [a, b].

        g maps an array of s to (eta(s), w(s)); ``points`` are breakpoints
        of [a, b].  Every quadrature average, 1D or 2D, integrates a chart.
        The default is eta = s on the support, w the density, and ``edges``.
        """
        lo, hi = self.support
        return lo, hi, self.edges, lambda s: (s, self.density(s))

    # ---- shared helpers ------------------------------------------------

    def mean(self):
        return self.moment(1.0)

    def variance(self):
        return self.moment(2.0) - self.moment(1.0) ** 2

    def t_mean(self):
        """<T> = <sqrt(eta)>."""
        return self.moment(0.5)

    def t_variance(self):
        """<(Delta T)^2> = <eta> - <sqrt(eta)>^2."""
        return self.moment(1.0) - self.moment(0.5) ** 2

    def expectation(self, f, spec=DEFAULT_QUADRATURE):
        """<f(eta)> for a vectorized, possibly vector-valued f.

        The one law-level average that takes a quadrature tolerance;
        every other average of the package runs at ``DEFAULT_QUADRATURE``.
        """
        atoms = self.atoms
        if atoms is not None:
            etas, weights = atoms
            values = np.asarray(f(etas))
            terms = _weighted(values, weights)
            return np.sum(terms, axis=0) if values.ndim > 1 else float(np.sum(terms))
        a, b, points, g = self.chart()

        def integrand(s):
            eta, w = g(s)
            return _weighted(np.asarray(f(eta)), w)

        return integrate(integrand, a, b, spec, points=points)


@dataclass(frozen=True)
class Dirac(TransmittanceDistribution):
    """Deterministic channel: eta is always ``value``."""

    value: float

    def __post_init__(self):
        _check_unit_interval("Dirac value", self.value)

    def moment(self, k):
        if k == 0:
            return 1.0
        return float(self.value**k)

    def survival(self, eta, include_equal=False):
        eta = np.asarray(eta, dtype=float)
        if include_equal:
            out = np.where(eta <= self.value, 1.0, 0.0)
        else:
            out = np.where(eta < self.value, 1.0, 0.0)
        return out if out.ndim else float(out)

    def truncate(self, threshold):
        _check_unit_interval("threshold", threshold, open_right=True)
        if self.value >= threshold:
            return self
        raise EmptySelectionError(threshold, 0.0)

    def scale(self, factor):
        _check_unit_interval("scale factor", factor, open_left=True)
        if factor == 1.0:
            return self
        return Dirac(self.value * factor)

    @property
    def atoms(self):
        return _frozen(np.array([self.value], dtype=float)), _frozen(np.ones(1))

    @property
    def support(self):
        return (self.value, self.value)


@dataclass(frozen=True)
class Empirical(TransmittanceDistribution):
    """Atomic law from histogram bins (eta_i, weight_i), renormalized.

    ``etas`` and ``weights`` hold the bins sorted by eta, the weights
    divided by their ``math.fsum``; they may be given as any sequences or
    arrays.  ``atoms`` holds the same bins as read-only arrays, and every
    average, tail sum and selection reads those.
    """

    etas: tuple
    weights: tuple

    def __post_init__(self):
        etas = _as_bins("Empirical etas", self.etas)
        weights = _as_bins("Empirical weights", self.weights)
        if len(etas) != len(weights) or len(etas) == 0:
            raise ValueError("need matching, nonempty eta and weight sequences")
        total = math.fsum(weights.tolist())
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("bin weights must sum to a positive finite value")
        bad_eta = ~((etas >= 0.0) & (etas <= 1.0))
        bad = bad_eta | ~(np.isfinite(weights) & (weights >= 0.0))
        if bad.any():
            # Name the first bad bin, its eta before its weight.
            i = int(np.argmax(bad))
            if bad_eta[i]:
                raise ValueError(f"bin eta must lie in the unit interval, got {self.etas[i]!r}")
            raise ValueError(f"bin weight must be nonnegative, got {self.weights[i]!r}")
        order = np.argsort(etas, kind="stable")
        etas, weights = _frozen(etas[order]), _frozen(weights[order] / total)
        # tail[i] = P(X >= etas[i]), and 0 past the last bin.
        tail = np.append(np.cumsum(weights[::-1])[::-1], 0.0)
        object.__setattr__(self, "etas", tuple(etas.tolist()))
        object.__setattr__(self, "weights", tuple(weights.tolist()))
        object.__setattr__(self, "_atoms", (etas, weights))
        object.__setattr__(self, "_tail", _frozen(tail))

    def __setstate__(self, state):
        # Copied and unpickled laws get fresh arrays: keep them read-only.
        self.__dict__.update(state)
        for a in (*self._atoms, self._tail):
            _frozen(a)

    def moment(self, k):
        if k == 0:
            return 1.0
        e, w = self._atoms
        return float(np.sum(w * np.power(e, k)))

    def survival(self, eta, include_equal=False):
        eta_arr = np.asarray(eta, dtype=float)
        # The etas are sorted, so P(X > eta) is the weight from the first
        # bin above eta onward ("left" to include a bin at eta itself).
        side = "left" if include_equal else "right"
        out = self._tail[np.searchsorted(self._atoms[0], eta_arr.reshape(-1), side=side)]
        if eta_arr.ndim == 0:
            return float(out[0])
        return out.reshape(eta_arr.shape)

    def truncate(self, threshold):
        _check_unit_interval("threshold", threshold, open_right=True)
        e, w = self._atoms
        first = int(np.searchsorted(e, threshold, side="left"))
        # A sum of nonnegative weights is 0 only if every term is; the new
        # law renormalizes the kept weights by their math.fsum.
        if self._tail[first] <= 0.0:
            raise EmptySelectionError(threshold, float(self._tail[first]))
        return Empirical(e[first:], w[first:])

    def scale(self, factor):
        _check_unit_interval("scale factor", factor, open_left=True)
        if factor == 1.0:
            return self
        e, w = self._atoms
        return Empirical(e * factor, w)

    @property
    def atoms(self):
        return self._atoms

    @property
    def support(self):
        return (self.etas[0], self.etas[-1])


@dataclass(frozen=True)
class Beta(TransmittanceDistribution):
    """Beta(p, q) law on [0, 1], optionally restricted to [lo, 1]."""

    p: float
    q: float
    lo: float = 0.0

    def __post_init__(self):
        _check_finite("Beta p", self.p, positive=True)
        _check_finite("Beta q", self.q, positive=True)
        _check_unit_interval("lower truncation point", self.lo, open_right=True)

    def _upper(self, p, x):
        # Mass of Beta(p, q) above x; 1 - I_x(p, q) cancels in a thin tail.
        return special.betainc(self.q, p, 1.0 - x)

    def _mass(self):
        # Probability of the untruncated Beta landing in [lo, 1].
        if self.lo == 0.0:
            return 1.0
        return float(self._upper(self.p, self.lo))

    def moment(self, k):
        if k == 0:
            return 1.0
        if self.p + k <= 0.0:
            # The incomplete-beta representation needs p + k > 0.  With a
            # positive lower edge the moment is still finite; integrate it.
            if self.lo == 0.0:
                raise ValueError(
                    f"moment of order {k!r} diverges for Beta({self.p!r}, "
                    f"{self.q!r}) supported down to 0"
                )
            return float(self.expectation(lambda e: np.power(e, k)))
        # E[x^k; x >= lo] = B(p+k, q)/B(p, q) * (1 - I_lo(p+k, q))
        ratio = math.exp(special.betaln(self.p + k, self.q) - special.betaln(self.p, self.q))
        if self.lo == 0.0:
            upper = 1.0
        else:
            upper = float(self._upper(self.p + k, self.lo))
        return ratio * upper / self._mass()

    def density(self, eta):
        eta = np.asarray(eta, dtype=float)
        inside = (eta >= self.lo) & (eta > 0.0) & (eta < 1.0)
        log_norm = special.betaln(self.p, self.q) + math.log(self._mass())
        with np.errstate(divide="ignore", invalid="ignore"):
            logd = (
                (self.p - 1.0) * np.log(eta)
                + (self.q - 1.0) * np.log1p(-eta)
                - log_norm
            )
            out = np.where(inside, np.exp(logd), 0.0)
        # eta exactly 0 or 1 sits on the support edge; the open quadrature
        # rule never asks for it, return the limit for completeness.
        out = np.where((eta == 0.0) & (self.lo == 0.0) & (self.p > 1.0), 0.0, out)
        out = np.where((eta == 1.0) & (self.q > 1.0), 0.0, out)
        return out if out.ndim else float(out)

    def chart(self):
        """Each end of the support in its own variable.

        [lo, c] is taken in w = eta**rp and [c, 1] in v = (1 - eta)**rq,
        with rp = min(p, 1), rq = min(q, 1) and c = max(lo, 1/2).  The
        power-law factors of the density become w**(p/rp - 1) and
        v**(q/rq - 1): constant for a shape below 1 (eta = w**2 and
        1 - eta = v**2 for the arcsine law), so a singular end turns into a
        smooth integrand; for a shape of 1 or more the map is the identity.
        s in [0, 1] maps to w and s in [1, 2] to v, with a breakpoint at 1,
        so one quadrature and one tolerance cover both pieces.  On the v
        piece 1 - eta comes from v, never from eta.
        """
        rp, rq = min(self.p, 1.0), min(self.q, 1.0)
        c = max(self.lo, 0.5)
        w_lo, w_c = self.lo**rp, c**rp
        v_c = (1.0 - c) ** rq
        log_norm = special.betaln(self.p, self.q) + math.log(self._mass())

        def g(s):
            right = s > 1.0
            # No node comes near _TINY; the floor keeps w finite at s -> 0.
            x = np.maximum(np.where(right, (2.0 - s) * v_c, w_lo + s * (w_c - w_lo)), _TINY)
            r = np.where(right, rq, rp)
            # eta on the w piece, 1 - eta on the v piece.
            near = x ** (1.0 / r)
            eta = np.where(right, 1.0 - near, near)
            logd = (
                (np.where(right, self.q, self.p) / r - 1.0) * np.log(x)
                + (np.where(right, self.p, self.q) - 1.0) * np.log1p(-near)
                - log_norm
            )
            jac = np.where(right, v_c / rq, (w_c - w_lo) / rp)
            return eta, np.exp(logd) * jac

        return (0.0 if c > self.lo else 1.0), 2.0, (1.0,), g

    def survival(self, eta, include_equal=False):
        eta = np.asarray(eta, dtype=float)
        clipped = np.clip(eta, self.lo, 1.0)
        surv = self._upper(self.p, clipped) / self._mass()
        out = np.where(eta < self.lo, 1.0, np.where(eta >= 1.0, 0.0, surv))
        return out if out.ndim else float(out)

    def truncate(self, threshold):
        _check_unit_interval("threshold", threshold, open_right=True)
        new_lo = max(self.lo, threshold)
        surviving = float(self._upper(self.p, new_lo))
        if surviving <= 0.0:
            raise EmptySelectionError(threshold, surviving)
        return Beta(self.p, self.q, new_lo)

    @property
    def support(self):
        return (self.lo, 1.0)


@dataclass(frozen=True)
class TruncatedLogNormal(TransmittanceDistribution):
    """Log-normal law for eta conditioned on [lo, 1].

    mu and sigma are the location and scale of ln(eta) before conditioning.
    The conditioning on eta <= 1 models the physical bound of a passive
    channel; turbulence fits supply (mu, sigma) from measured data.
    """

    mu: float
    sigma: float
    lo: float = 0.0

    def __post_init__(self):
        _check_finite("log-normal mu", self.mu)
        _check_finite("log-normal sigma", self.sigma, positive=True)
        _check_unit_interval("lower truncation point", self.lo, open_right=True)

    def _z(self, eta):
        return (np.log(eta) - self.mu) / self.sigma

    def _log_mass(self, shift=0.0):
        """log[Phi(z_hi) - Phi(z_lo)] at z_hi = -mu/s - shift and
        z_lo = (ln lo - mu)/s - shift; -inf if empty.

        In the upper tail (z_lo > ``_UPPER_TAIL_Z``) both Phi round
        towards 1, so the same mass is taken as Phi(-z_lo) - Phi(-z_hi);
        for lo near 1 it is the integral of the density over [z_lo, z_hi].
        """
        z_hi = -self.mu / self.sigma - shift
        if self.lo <= 0.0:
            return float(special.log_ndtr(z_hi))
        log_lo = math.log(self.lo)
        dz = -log_lo / self.sigma
        if dz < _NEAR_ONE_DZ:
            log_phi_hi = -0.5 * z_hi * z_hi - _LOG_SQRT_2PI
            return log_phi_hi + math.log(_normal_mass_below(z_hi, dz))
        z_lo = (log_lo - self.mu) / self.sigma - shift
        if z_lo > _UPPER_TAIL_Z:
            log_upper = float(special.log_ndtr(-z_lo))
            log_lower = float(special.log_ndtr(-z_hi))
        else:
            log_upper = float(special.log_ndtr(z_hi))
            log_lower = float(special.log_ndtr(z_lo))
        if log_lower >= log_upper:
            return -math.inf
        return log_upper + math.log1p(-math.exp(log_lower - log_upper))

    def _mass(self):
        mass = math.exp(self._log_mass())
        if mass <= 0.0:
            raise ValueError(
                "log-normal parameters leave no probability mass in [lo, 1]"
            )
        return mass

    def moment(self, k):
        if k == 0:
            return 1.0
        # E[x^k; a <= x <= 1] = exp(k mu + k^2 s^2 / 2)
        #                       * [Phi(-mu/s - k s) - Phi((ln a - mu)/s - k s)],
        # in log space: the prefactor alone overflows once k s >~ 37.
        return math.exp(
            k * self.mu + 0.5 * k * k * self.sigma**2
            + self._log_mass(k * self.sigma) - math.log(self._mass())
        )

    def density(self, eta):
        eta = np.asarray(eta, dtype=float)
        inside = (eta > self.lo) & (eta <= 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = self._z(np.where(inside, eta, 0.5))
            d = np.exp(-0.5 * z * z) / (
                np.where(inside, eta, 1.0) * self.sigma * math.sqrt(2.0 * math.pi)
            )
            # 0/0 a few ulps above eta = 0, where both factors underflow, is 0.
            out = np.where(inside & (d > 0.0), d / self._mass(), 0.0)
        return out if out.ndim else float(out)

    def survival(self, eta, include_equal=False):
        eta = np.asarray(eta, dtype=float)
        z_hi = -self.mu / self.sigma
        upper = float(special.ndtr(z_hi))
        log_eta = np.log(np.where(eta > 0.0, eta, 0.5))
        z = (log_eta - self.mu) / self.sigma
        # P(eta < X <= 1) = Phi(z_hi) - Phi(z); in the upper tail, where
        # that difference cancels, it is Phi(-z) - Phi(-z_hi), and near
        # eta = 1 the integral of the density over [z, z_hi].
        kept = np.asarray(upper - special.ndtr(z))
        tail = z > _UPPER_TAIL_Z
        if tail.any():
            kept[tail] = special.ndtr(-z[tail]) - float(special.ndtr(-z_hi))
        near = (log_eta < 0.0) & (log_eta > -_NEAR_ONE_DZ * self.sigma)
        if near.any():
            phi_hi = math.exp(-0.5 * z_hi * z_hi) / math.sqrt(2.0 * math.pi)
            kept[near] = phi_hi * _normal_mass_below(z_hi, -log_eta[near] / self.sigma)
        surv = kept / self._mass()
        out = np.where(eta <= self.lo, 1.0, np.where(eta >= 1.0, 0.0, surv))
        return out if out.ndim else float(out)

    def truncate(self, threshold):
        _check_unit_interval("threshold", threshold, open_right=True)
        selected = TruncatedLogNormal(self.mu, self.sigma, max(self.lo, threshold))
        surviving = math.exp(selected._log_mass())
        if surviving <= 0.0:
            raise EmptySelectionError(threshold, surviving)
        return selected

    @property
    def support(self):
        return (self.lo, 1.0)

    @property
    def edges(self):
        # Taken in log space, so no edge above 1 can overflow.
        logs = (self.mu + z * self.sigma for z in _LOG_NORMAL_EDGE_Z)
        return tuple(math.exp(v) for v in logs if v < 0.0)


@dataclass(frozen=True)
class Scaled(TransmittanceDistribution):
    """Law of factor * eta for an inner law of eta (deterministic loss)."""

    inner: TransmittanceDistribution
    factor: float

    def __post_init__(self):
        _check_unit_interval("scale factor", self.factor, open_left=True)
        if isinstance(self.inner, Scaled):
            # Collapse nested pre-factors; their product can underflow to 0.
            object.__setattr__(self, "factor", self.factor * self.inner.factor)
            object.__setattr__(self, "inner", self.inner.inner)
            _check_unit_interval("scale factor", self.factor, open_left=True)

    def moment(self, k):
        if k == 0:
            return 1.0
        return float(self.factor**k) * self.inner.moment(k)

    def survival(self, eta, include_equal=False):
        eta = np.asarray(eta, dtype=float)
        scaled = eta / self.factor
        inner_surv = self.inner.survival(np.minimum(scaled, 1.0), include_equal)
        # Beyond the scaled support there is nothing left; exactly at the
        # edge an inner atom at 1 still counts for the inclusive version.
        gone = scaled > 1.0 if include_equal else scaled >= 1.0
        out = np.where(gone, 0.0, inner_surv)
        return out if out.ndim else float(out)

    def truncate(self, threshold):
        _check_unit_interval("threshold", threshold, open_right=True)
        if threshold >= self.factor:
            raise EmptySelectionError(threshold, 0.0)
        return Scaled(self.inner.truncate(threshold / self.factor), self.factor)

    @property
    def atoms(self):
        inner_atoms = self.inner.atoms
        if inner_atoms is None:
            return None
        etas, weights = inner_atoms
        return _frozen(etas * self.factor), weights

    @property
    def support(self):
        lo, hi = self.inner.support
        return (lo * self.factor, hi * self.factor)

    def chart(self):
        # The inner law's chart, so a Beta keeps its substitutions.
        a, b, points, g = self.inner.chart()

        def scaled(s):
            eta, w = g(s)
            return self.factor * eta, w

        return a, b, points, scaled


# ---------------------------------------------------------------------------
# two-mode joint laws
# ---------------------------------------------------------------------------


class JointTransmittanceDistribution:
    """Joint law of the amplitude transmissions (T_a, T_b) of two arms."""

    def t_moment(self, j, k):
        """<T_a**j * T_b**k> with T = sqrt(eta), for real j, k >= 0."""
        raise NotImplementedError

    def average(self, f):
        """<f(eta_a, eta_b)> for broadcasting, possibly vector-valued f."""
        raise NotImplementedError

    def preselect(self, threshold) -> "JointTransmittanceDistribution":
        """Apply threshold selection to the underlying one-mode law(s)."""
        raise NotImplementedError

    @property
    def support_inf(self):
        """(inf eta_a, inf eta_b) of the joint support."""
        raise NotImplementedError


def _average_product(da, db, f):
    """<f>: an atomic arm summed inside one pass over the other, else 2D in charts.

    With atoms (e_i, w_i) on one arm, <f> = E_y[g(y)] for the atom-weighted
    g(y) = sum_i w_i f(e_i, y), so the other arm runs one expectation (one
    adaptive quadrature, or an exact sum if it is atomic too) whatever the
    number of atoms.  g evaluates f over (nodes x atoms) blocks of at most
    ``_BLOCK_ELEMENTS`` elements and contracts each with the weights.
    """
    atoms_a = da.atoms
    if atoms_a is None and db.atoms is not None:
        return _average_product(db, da, lambda y, x: f(x, y))
    if atoms_a is not None:
        ea, wa = atoms_a
        atom_step = min(ea.size, _BLOCK_ELEMENTS)
        node_step = max(1, _BLOCK_ELEMENTS // atom_step)

        def weighted(y):
            y = np.asarray(y, dtype=float).reshape(-1, 1)
            rows = []
            for n0 in range(0, y.shape[0], node_step):
                yb = y[n0:n0 + node_step]
                acc = 0.0
                for a0 in range(0, ea.size, atom_step):
                    e = ea[None, a0:a0 + atom_step]
                    values = np.asarray(f(e, yb))
                    # A constant f broadcasts to every (node, atom) pair.
                    values = np.broadcast_to(
                        values, (yb.shape[0], e.size) + values.shape[2:]
                    )
                    acc = acc + np.tensordot(values, wa[a0:a0 + atom_step], (1, 0))
                rows.append(acc)
            return np.concatenate(rows)

        return db.expectation(weighted)
    (a_x, b_x, points_x, g_x), (a_y, b_y, points_y, g_y) = da.chart(), db.chart()
    # The chart values of a batch of outer nodes, reused by its inner calls.
    outer = [None, None, None]

    def integrand(s, t):
        s = s.ravel()
        if not np.array_equal(s, outer[0]):
            outer[:] = s.copy(), *g_x(s)
        eta_y, w_y = g_y(t.ravel())
        values = np.asarray(f(outer[1][:, None], eta_y[None, :]))
        return _weighted(values, outer[2][:, None] * w_y[None, :])

    return integrate2(
        integrand, a_x, b_x, a_y, b_y, points_x=points_x, points_y=points_y
    )


@dataclass(frozen=True)
class Product(JointTransmittanceDistribution):
    """Statistically independent arms (e.g. counterpropagation)."""

    a: TransmittanceDistribution
    b: TransmittanceDistribution

    def t_moment(self, j, k):
        return self.a.moment(j / 2.0) * self.b.moment(k / 2.0)

    def average(self, f):
        return _average_product(self.a, self.b, f)

    def preselect(self, threshold):
        return Product(self.a.truncate(threshold), self.b.truncate(threshold))

    @property
    def support_inf(self):
        return (self.a.support[0], self.b.support[0])


@dataclass(frozen=True)
class PerfectlyCorrelated(JointTransmittanceDistribution):
    """Both arms share one transmittance realization (copropagation)."""

    dist: TransmittanceDistribution

    def t_moment(self, j, k):
        # Depends on j + k only: T_a = T_b almost surely.
        return self.dist.moment((j + k) / 2.0)

    def average(self, f):
        return self.dist.expectation(lambda e: f(e, e))

    def preselect(self, threshold):
        return PerfectlyCorrelated(self.dist.truncate(threshold))

    @property
    def support_inf(self):
        lo = self.dist.support[0]
        return (lo, lo)


@dataclass(frozen=True)
class AdaptiveCorrelated(JointTransmittanceDistribution):
    """Feedback equalization onto the weaker arm.

    Independent raw channels with laws ``a`` and ``b`` are monitored, and
    both quantum modes are routed so that each sees the instantaneous
    minimum amplitude transmission min(T_a, T_b); equivalently both see
    intensity transmittance min(eta_a, eta_b).
    """

    a: TransmittanceDistribution
    b: TransmittanceDistribution

    def _min_expectation(self, h):
        # E[h(min(X, Y))] = E_X[h(x) P(Y > x)] + E_Y[h(y) P(X >= y)]
        # The strict/inclusive split double-counts no ties and handles
        # atomic laws exactly.
        def above(other, include_equal):
            def f(x):
                values = np.asarray(h(x))
                w = np.asarray(other.survival(x, include_equal=include_equal))
                return _weighted(values, w)

            return f

        term_a = np.asarray(self.a.expectation(above(self.b, False)))
        term_b = np.asarray(self.b.expectation(above(self.a, True)))
        total = term_a + term_b
        return total if total.ndim else float(total)

    def t_moment(self, j, k):
        s = (j + k) / 2.0
        if s == 0:
            return 1.0
        return self._min_expectation(lambda m: np.power(m, s))

    def average(self, f):
        return self._min_expectation(lambda m: f(m, m))

    def preselect(self, threshold):
        return AdaptiveCorrelated(
            self.a.truncate(threshold), self.b.truncate(threshold)
        )

    @property
    def support_inf(self):
        lo = min(self.a.support[0], self.b.support[0])
        return (lo, lo)


def adaptive_correlate(a, b) -> JointTransmittanceDistribution:
    """Joint law produced by min(T_a, T_b) feedback equalization.

    Two constant channels collapse to a perfectly correlated constant at
    the weaker value; anything else stays an :class:`AdaptiveCorrelated`.
    """
    if isinstance(a, Dirac) and isinstance(b, Dirac):
        return PerfectlyCorrelated(Dirac(min(a.value, b.value)))
    return AdaptiveCorrelated(a, b)
