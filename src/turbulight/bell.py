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
machine precision.  The analyzer angles enter C_same and C_different only
through sin^2 and cos^2 of the angle difference, so the integrand carries
one component per distinct value of those factors (3 for the default
CHSH angles) plus three angle-free ones, and each angle pair reads its two
averages from that set.

C_0 has the closed lower bound [(1-t)(1-t(1-u_min))]^2 over the support
(u = x + y - x*y is monotone in both transmittances), so the integrand is
certified nonsingular before any quadrature runs; channels pushed into the
singular regime (t -> 1 with lossy support) raise
:class:`BellSingularityError` instead of returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import DEFAULT_QUADRATURE
from .pdt import EmptySelectionError, JointTransmittanceDistribution
from .photocount import DetectorModel

__all__ = [
    "DEFAULT_ANGLES_A",
    "DEFAULT_ANGLES_B",
    "BellSettings",
    "BellSingularityError",
    "CTerms",
    "SweepPoint",
    "c_terms",
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
        if not (np.isfinite(self.squeezing) and self.squeezing >= 0.0):
            raise ValueError("squeeze parameter must be finite and nonnegative")
        for name, angles in (("angles_a", self.angles_a), ("angles_b", self.angles_b)):
            if len(angles) != 2 or not all(np.isfinite(a) for a in angles):
                raise ValueError(f"{name} must be two finite analyzer angles")


@dataclass(frozen=True)
class CTerms:
    """The five conditional-probability polynomials at fixed (eta_A, eta_B)."""

    c0: float
    c1a: float
    c1b: float
    same: float
    different: float


def _tanh2(squeezing):
    th = math.tanh(squeezing)
    return th * th


def _pair_terms(x, y, t):
    """C_0, C_1A, C_1B and the angle-free factors of C_same / C_different."""
    s = x * y * t - (1.0 + (x - 1.0) * t) * (1.0 + (y - 1.0) * t)
    c0 = s * s
    c1a = y * (1.0 - x) * (1.0 - t) * t * s
    c1b = x * (1.0 - y) * (1.0 - t) * t * s
    common = x * y * t * (1.0 - t) ** 2
    joint_vac = (1.0 - x) * (1.0 - y) * t
    return c0, c1a, c1b, common, joint_vac


def _angle_factors(delta):
    """(sin^2 delta, cos^2 delta): all C_same / C_different see of the angles."""
    return math.sin(delta) ** 2, math.cos(delta) ** 2


def _angle_term(common, joint_vac, factor):
    """C_same (factor sin^2 delta) or C_different (factor cos^2 delta)."""
    return common * (joint_vac - factor)


def c_terms(eta_a, eta_b, efficiency, squeezing, theta_a, theta_b) -> CTerms:
    """Evaluate the five polynomials; broadcasts over eta arrays."""
    x = efficiency * np.asarray(eta_a, dtype=float)
    y = efficiency * np.asarray(eta_b, dtype=float)
    c0, c1a, c1b, common, joint_vac = _pair_terms(x, y, _tanh2(squeezing))
    sin2, cos2 = _angle_factors(theta_a - theta_b)
    same = _angle_term(common, joint_vac, sin2)
    different = _angle_term(common, joint_vac, cos2)
    if np.ndim(eta_a) == 0 and np.ndim(eta_b) == 0:
        return CTerms(float(c0), float(c1a), float(c1b), float(same), float(different))
    return CTerms(c0, c1a, c1b, same, different)


def _min_c0(settings: BellSettings):
    """Closed-form lower bound of C_0 over the channel support."""
    t = _tanh2(settings.squeezing)
    inf_a, inf_b = settings.channel.support_inf
    x = settings.detector.efficiency * inf_a
    y = settings.detector.efficiency * inf_b
    u_min = x + y - x * y
    root = (1.0 - t) * (1.0 - t * (1.0 - u_min))
    return root * root


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


def _reciprocal_averages(settings, angle_pairs, spec):
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
    t = _tanh2(settings.squeezing)
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
        x, y = np.broadcast_arrays(x, y)
        c0, c1a, c1b, common, joint_vac = _pair_terms(x, y, t)
        d = c0 + c1a + c1b
        out = np.empty(x.shape + (n + 3,))
        for k, factor in enumerate(factors):
            out[..., k] = 1.0 / (d + _angle_term(common, joint_vac, factor))
        out[..., n] = c0 / (c0 + c1a) ** 2
        out[..., n + 1] = c0 / (c0 + c1b) ** 2
        out[..., n + 2] = 1.0 / c0
        return out

    averages = np.asarray(settings.channel.average(integrand, spec), dtype=float)
    per_pair = [(averages[i], averages[j]) for i, j in index]
    return per_pair, averages[n], averages[n + 1], averages[n + 2]


def _click_pair(nu, t, a_same, a_diff, a2, a3, a4):
    """(P_same, P_different) from the five averaged reciprocals."""
    pref = 0.5 * math.exp(-4.0 * nu) * (1.0 - t) ** 4
    boost = math.exp(2.0 * nu)
    p_same = 0.5 + pref * (boost * (2.0 * a_same - a2 - a3 - 2.0 * a_diff) + a4)
    p_diff = 0.5 + pref * (boost * (2.0 * a_diff - a2 - a3 - 2.0 * a_same) + a4)
    return p_same, p_diff


def click_probabilities(settings: BellSettings, theta_a, theta_b,
                        spec=DEFAULT_QUADRATURE):
    """Coincidence probabilities (P_same, P_different) at one angle pair."""
    per_pair, a2, a3, a4 = _reciprocal_averages(
        settings, [(theta_a, theta_b)], spec
    )
    a_same, a_diff = per_pair[0]
    return _click_pair(
        settings.detector.noise_counts, _tanh2(settings.squeezing),
        a_same, a_diff, a2, a3, a4,
    )


def correlation(settings: BellSettings, theta_a, theta_b,
                spec=DEFAULT_QUADRATURE):
    """Correlation coefficient E = (P_same - P_diff)/(P_same + P_diff)."""
    p_same, p_diff = click_probabilities(settings, theta_a, theta_b, spec)
    return _correlation_from_pair(p_same, p_diff)


def _correlation_from_pair(p_same, p_diff):
    total = p_same + p_diff
    if total <= 0.0:
        raise ZeroDivisionError(
            "coincidence probabilities vanish (noiseless zero-squeezing "
            "limit); the correlation coefficient is undefined here"
        )
    return (p_same - p_diff) / total


def bell_parameter(settings: BellSettings, spec=DEFAULT_QUADRATURE):
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
    per_pair, a2, a3, a4 = _reciprocal_averages(settings, pairs, spec)
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


def bell_sweep(settings: BellSettings, squeezing_grid=None,
               preselection_grid=None, spec=DEFAULT_QUADRATURE):
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
            b = bell_parameter(replace(settings, squeezing=float(xi)), spec)
            points.append(SweepPoint(float(xi), b, True))
        return points
    for threshold in preselection_grid:
        try:
            selected = settings.channel.preselect(float(threshold))
        except EmptySelectionError:
            points.append(SweepPoint(float(threshold), math.nan, False))
            continue
        b = bell_parameter(replace(settings, channel=selected), spec)
        points.append(SweepPoint(float(threshold), b, True))
    return points
