"""CHSH Bell test with polarization analyzers behind fluctuating channels.

The source emits polarization-entangled light toward two stations; each
station rotates the polarization by an analyzer angle and counts clicks on
the transmitted/reflected ports of a polarizing splitter (double clicks
are resolved by a random bit, which is already built into the analytic
click probabilities used here).  The squeeze parameter ``squeezing``
controls the multiphoton-pair content of the source: the CHSH combination
is maximal in the weak-pump limit and degrades as multiphoton pairs grow.

Conditioned on channel transmittances (eta_A, eta_B), the coincidence
probabilities P_same / P_different are rational functions of five
polynomials C_0, C_1A, C_1B, C_same, C_different in

    x = eta_c * eta_A,  y = eta_c * eta_B,  t = tanh^2(squeezing);

the fluctuating channel enters through averages of reciprocals of those
polynomials over the joint transmittance law.  All reciprocal averages for
one Bell parameter are evaluated in a single vector-valued adaptive pass,
so the same panel subdivision (and for atomic laws the same exact sum)
feeds every correlation coefficient.  This keeps the zero-squeezing limit
exact: at squeezing = 0 every component of the integrand is the constant
1, P_same = P_different for all angles, and the Bell parameter is 0 to
machine precision.

The polynomials factor.  With u = 1 - t = sech^2(squeezing),
a = t(1 - x), b = t(1 - y) and g = 1 - t(1 - x)(1 - y),

    C_0 = u^2 g^2,   C_0 + C_1A = u^2 g (1 - a),   C_0 + C_1B = u^2 g (1 - b),
    D + C_k = u^2 [u g + (1 - f_k) t x y],   D = C_0 + C_1A + C_1B,

where f_k is sin^2 (C_same) or cos^2 (C_different) of the angle
difference.  Every piece is a sum of nonnegative terms (1 - a = u + t x,
g = u + t x + t y (1 - x)), so nothing cancels as t -> 1.  The integrand
therefore has one component u^-2 / [u g + (1 - f_k) t x y] per distinct
value of f_k (3 for the default CHSH angles), and each angle pair reads
its two averages from that set; then u^-2 / (1 - a)^2 and
u^-2 / (1 - b)^2, which depend on one arm each and are computed on that
arm's axis before broadcasting; and u^-2 / g^2.  g and x y are the only
two-arm products a call forms, and each component is written once into
one output buffer.

C_0 has the closed lower bound u^2 g^2 at the support's infimum (g is
increasing in both transmittances), so the integrand is certified
nonsingular before any quadrature runs; channels pushed into the
singular regime (t -> 1 with lossy support) raise
:class:`BellSingularityError` instead of returning garbage.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .numerics import _between
from .pdt import EmptySelectionError, JointTransmittanceDistribution
from .photocount import DetectorModel

__all__ = [
    "DEFAULT_ANGLES_A",
    "DEFAULT_ANGLES_B",
    "BellSettings",
    "BellSingularityError",
    "SweepPoint",
    "click_probabilities",
    "correlation",
    "bell_parameter",
    "bell_sweep",
]

_C0_FLOOR = 1e-12

DEFAULT_ANGLES_A = (0.0, math.pi / 4.0)
DEFAULT_ANGLES_B = (math.pi / 8.0, 3.0 * math.pi / 8.0)


class BellSingularityError(RuntimeError):
    """The reciprocal averages are ill-conditioned on this channel."""


@dataclass(frozen=True)
class BellSettings:
    """Source, detectors, channel and analyzer angles of one CHSH setup."""

    squeezing: float
    detector: DetectorModel
    channel: JointTransmittanceDistribution
    angles_a: tuple = DEFAULT_ANGLES_A
    angles_b: tuple = DEFAULT_ANGLES_B

    def __post_init__(self):
        if not _between(self.squeezing, 0.0, math.inf, open_right=True):
            raise ValueError(
                f"squeeze parameter must be finite and nonnegative, got {self.squeezing!r}"
            )
        for name in ("angles_a", "angles_b"):
            try:
                pair = tuple(getattr(self, name))
                ok = len(pair) == 2 and all(
                    isinstance(a, numbers.Real) and math.isfinite(a) for a in pair
                )
            except (TypeError, OverflowError):  # not iterable; an int past the float range
                ok = False
            if not ok:
                raise ValueError(f"{name} must be two finite analyzer angles")
            object.__setattr__(self, name, tuple(float(a) for a in pair))


def _tanh2(squeezing):
    th = math.tanh(squeezing)
    return th * th


def _sech2(squeezing):
    """1 - tanh^2(squeezing), formed as sech^2 so it keeps its digits as t -> 1."""
    e = math.exp(-squeezing)
    sech = 2.0 * e / (1.0 + e * e)
    return sech * sech


def _pieces(x, y, u, t):
    """(1 - a, 1 - b, g) of the factored polynomials, free of cancellation.

    1 - a = u + t x and 1 - b = u + t y each depend on one arm only;
    g = 1 - p = (1 - a) + t y (1 - x) is the one two-arm product.
    """
    one_minus_a = u + t * x
    ty = t * y
    return one_minus_a, u + ty, one_minus_a + ty * (1.0 - x)


def _angle_factors(delta):
    """(sin^2 delta, cos^2 delta): all C_same / C_different see of the angles."""
    return math.sin(delta) ** 2, math.cos(delta) ** 2


def _min_c0(settings: BellSettings):
    """Closed-form lower bound u^2 g^2 of C_0 over the channel support."""
    u, t = _sech2(settings.squeezing), _tanh2(settings.squeezing)
    inf_a, inf_b = settings.channel.support_inf
    eff = settings.detector.efficiency
    _, _, g = _pieces(eff * inf_a, eff * inf_b, u, t)
    return (u * g) ** 2


def _guard_singularity(settings: BellSettings):
    floor = _min_c0(settings)
    if floor < _C0_FLOOR:
        inf_a, inf_b = settings.channel.support_inf
        raise BellSingularityError(
            "C_0 can reach "
            f"{floor:.3e} near (eta_A, eta_B) = ({inf_a!r}, {inf_b!r}) "
            f"(squeeze parameter {settings.squeezing!r}); reciprocal "
            "averages over this channel are not trustworthy"
        )


def _reciprocal_averages(settings, angle_pairs):
    """PDT averages of the reciprocal terms, one shared adaptive pass.

    Returns (per_pair, a2, a3, a4) where per_pair[k] = (<1/(D + C_same)>,
    <1/(D + C_different)>) for angle pair k, D = C_0 + C_1A + C_1B,
    a2 = <C_0/(C_0+C_1A)^2>, a3 likewise for B, a4 = <1/C_0>.

    The angles enter only through the factors sin^2 delta (C_same) and
    cos^2 delta (C_different), so the integrand has one component per
    distinct factor value (exact float equality) plus the three
    angle-free ones.  A duplicate component would carry the same values
    and errors, so dropping it leaves the panel subdivision unchanged.
    """
    _guard_singularity(settings)
    u, t = _sech2(settings.squeezing), _tanh2(settings.squeezing)
    eff = settings.detector.efficiency
    factors = []
    index = []  # per angle pair: (component of C_same, component of C_different)
    for ta, tb in angle_pairs:
        pair = []
        for factor in _angle_factors(ta - tb):
            if factor not in factors:
                factors.append(factor)
            pair.append(factors.index(factor))
        index.append(pair)
    n = len(factors)

    def integrand(eta_a, eta_b):
        x = eff * np.asarray(eta_a, dtype=float)
        y = eff * np.asarray(eta_b, dtype=float)
        one_minus_a, one_minus_b, g = _pieces(x, y, u, t)
        u3g = g * u**3
        u2txy = (u * u * t * x) * y
        out = np.empty(u3g.shape + (n + 3,))
        # Each component is formed in a contiguous scratch array and
        # written once into its strided column of ``out``.
        col = np.empty(u3g.shape)
        # 1/(D + C_k) = 1/(u^3 g + (1 - f_k) u^2 t x y)
        for k, factor in enumerate(factors):
            np.multiply(u2txy, 1.0 - factor, out=col)
            col += u3g
            np.reciprocal(col, out=out[..., k])
        # The one-arm terms broadcast from that arm's axis.
        out[..., n] = (u * one_minus_a) ** -2
        out[..., n + 1] = (u * one_minus_b) ** -2
        np.divide(u * u, u3g, out=col)  # u^-2 / g^2 = (u^2 / u^3 g)^2
        np.multiply(col, col, out=out[..., n + 2])
        return out

    averages = np.asarray(settings.channel.average(integrand), dtype=float)
    per_pair = [(averages[i], averages[j]) for i, j in index]
    return per_pair, averages[n], averages[n + 1], averages[n + 2]


def _click_pair(nu, t, a_same, a_diff, a2, a3, a4):
    """(P_same, P_different) from the five averaged reciprocals."""
    pref = 0.5 * math.exp(-4.0 * nu) * (1.0 - t) ** 4
    boost = math.exp(2.0 * nu)
    p_same = 0.5 + pref * (boost * (2.0 * a_same - a2 - a3 - 2.0 * a_diff) + a4)
    p_diff = 0.5 + pref * (boost * (2.0 * a_diff - a2 - a3 - 2.0 * a_same) + a4)
    return p_same, p_diff


def click_probabilities(settings: BellSettings, theta_a, theta_b):
    """Coincidence probabilities (P_same, P_different) at one angle pair."""
    per_pair, a2, a3, a4 = _reciprocal_averages(settings, [(theta_a, theta_b)])
    a_same, a_diff = per_pair[0]
    return _click_pair(
        settings.detector.noise_counts, _tanh2(settings.squeezing),
        a_same, a_diff, a2, a3, a4,
    )


def correlation(settings: BellSettings, theta_a, theta_b):
    """Correlation coefficient E = (P_same - P_diff)/(P_same + P_diff)."""
    p_same, p_diff = click_probabilities(settings, theta_a, theta_b)
    return _correlation_from_pair(p_same, p_diff)


def _correlation_from_pair(p_same, p_diff):
    total = p_same + p_diff
    if total <= 0.0:
        raise ZeroDivisionError(
            "coincidence probabilities vanish (noiseless zero-squeezing "
            "limit); the correlation coefficient is undefined here"
        )
    return (p_same - p_diff) / total


def bell_parameter(settings: BellSettings):
    """CHSH combination of the four correlation coefficients.

    All four angle pairs share one adaptive pass, so their common terms
    cancel exactly and atomic channels reduce to closed-form sums.  The
    integrand has one component per distinct sin^2 / cos^2 factor of the
    four angle differences plus three (6 for the default angles, at most
    11).
    """
    ta1, ta2 = settings.angles_a
    tb1, tb2 = settings.angles_b
    pairs = [(ta1, tb1), (ta1, tb2), (ta2, tb1), (ta2, tb2)]
    per_pair, a2, a3, a4 = _reciprocal_averages(settings, pairs)
    nu = settings.detector.noise_counts
    t = _tanh2(settings.squeezing)
    e = [
        _correlation_from_pair(*_click_pair(nu, t, a_s, a_d, a2, a3, a4))
        for a_s, a_d in per_pair
    ]
    e11, e12, e21, e22 = e
    return abs(e11 - e12) + abs(e22 + e21)


@dataclass(frozen=True)
class SweepPoint:
    """One row of a sweep: grid value, Bell parameter, validity flag."""

    param: float
    value: float
    valid: bool


def bell_sweep(settings: BellSettings, squeezing_grid=None, preselection_grid=None):
    """Bell parameter along a squeeze-parameter or preselection sweep.

    Exactly one grid must be given.  Preselection truncates the channel's
    one-mode laws at the threshold before evaluating; grid points whose
    truncation removes all probability mass come back with valid=False
    instead of aborting the sweep.
    """
    if (squeezing_grid is None) == (preselection_grid is None):
        raise ValueError("provide exactly one of squeezing_grid / preselection_grid")
    points = []
    if squeezing_grid is not None:
        for xi in squeezing_grid:
            b = bell_parameter(replace(settings, squeezing=float(xi)))
            points.append(SweepPoint(float(xi), b, True))
        return points
    for threshold in preselection_grid:
        try:
            selected = settings.channel.preselect(float(threshold))
        except EmptySelectionError:
            points.append(SweepPoint(float(threshold), math.nan, False))
            continue
        b = bell_parameter(replace(settings, channel=selected))
        points.append(SweepPoint(float(threshold), b, True))
    return points
