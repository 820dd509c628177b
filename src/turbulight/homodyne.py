"""Quadrature-squeezing transfer and realistic homodyne postprocessing.

A squeezed quadrature survives a fluctuating-loss channel according to

    <:Dx(phi)^2:>_out = <T^2> <:Dx(phi)^2:>_in + <DT^2> <x(phi)>_in^2,

with T = sqrt(eta): the first term is plain attenuation toward vacuum
(which never flips the sign of a squeezed variance), the second is the
spread of the attenuated mean across transmittance realizations and is
what actually kills squeezing for displaced states.

Homodyning through the channel rides the local oscillator through the
same fading (signal and oscillator share one spatial mode in orthogonal
polarizations), so normalizing the photocurrent difference by the
received oscillator power keeps the quadrature calibrated per shot.
Detector noise counts then no longer average out: the effective state
acquires extra quadrature noise that grows as the channel fades, entering
the P function as a diffusion of strength nu/(4 r^2 eta^2) per
realization, i.e. an added quadrature variance of nu/(r^2 eta^2) before
channel averaging (the constant is pinned against a numerical
heat-semigroup oracle in the test suite).  A strong oscillator,
r^2 >> nu / eta_min^2, makes the addition negligible -- the reason the
model carries the channel's minimum transmittance as an explicit field.

Postselection on a monitored transmittance is plain truncation of the
transmittance law; sweeps over thresholds report squeezing in dB relative
to vacuum (negative = squeezed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import arm_statistics
from .numerics import _between
from .pdt import EmptySelectionError, TransmittanceDistribution
from .states import SingleModeGaussian, variance_to_db

__all__ = [
    "HomodyneModel",
    "SqueezeSweepPoint",
    "squeeze_out",
    "postselect_sweep",
    "noisy_variance",
]


@dataclass(frozen=True)
class HomodyneModel:
    """Local-oscillator amplitude, noise counts, channel floor."""

    lo_amplitude: float
    noise_counts: float = 0.0
    min_transmittance: float = 1.0

    def __post_init__(self):
        amplitude = self.lo_amplitude
        if not _between(amplitude, 0.0, math.inf, open_left=True, open_right=True):
            raise ValueError(
                f"local-oscillator amplitude must be positive and finite, got {amplitude!r}"
            )
        if not _between(self.noise_counts, 0.0, math.inf, open_right=True):
            raise ValueError(
                f"mean noise counts must be nonnegative and finite, got {self.noise_counts!r}"
            )
        if not _between(self.min_transmittance, 0.0, 1.0, open_left=True):
            raise ValueError(
                f"minimum transmittance must lie in (0, 1], got {self.min_transmittance!r}"
            )


def squeeze_out(state: SingleModeGaussian, dist: TransmittanceDistribution, phase=0.0):
    """Normally ordered quadrature variance after the channel."""
    t2, var_t = arm_statistics(dist)
    return (
        t2 * state.quad_variance_normal(phase)
        + var_t * state.quad_mean(phase) ** 2
    )


@dataclass(frozen=True)
class SqueezeSweepPoint:
    """One row of a postselection sweep."""

    eta_ps: float
    squeezing_db: float
    valid: bool


def postselect_sweep(state: SingleModeGaussian, dist: TransmittanceDistribution,
                     thresholds, phase=0.0):
    """Squeezing in dB versus postselection threshold.

    Thresholds whose truncation leaves no probability mass produce
    valid=False rows rather than aborting the sweep.
    """
    points = []
    for threshold in thresholds:
        threshold = float(threshold)
        try:
            selected = dist.truncate(threshold)
        except EmptySelectionError:
            points.append(SqueezeSweepPoint(threshold, math.nan, False))
            continue
        variance = squeeze_out(state, selected, phase)
        points.append(SqueezeSweepPoint(threshold, variance_to_db(variance), True))
    return points


def noisy_variance(state: SingleModeGaussian, dist: TransmittanceDistribution,
                   model: HomodyneModel, phase=0.0):
    """Quadrature variance including homodyne postprocessing noise.

    Adds the channel-averaged diffusion term (nu / r^2) <eta^{-2}> on top
    of :func:`squeeze_out`.  The inverse moment requires a channel bounded
    away from zero transmittance; the distribution must respect the
    model's declared floor.
    """
    if dist.support[0] < model.min_transmittance:
        raise ValueError(
            f"transmittance support reaches down to {dist.support[0]!r}, "
            f"below the declared minimum {model.min_transmittance!r}; the "
            "postprocessing-noise average diverges on such channels"
        )
    base = squeeze_out(state, dist, phase)
    if model.noise_counts == 0.0:
        return base
    inv2 = dist.moment(-2.0)
    return base + model.noise_counts / model.lo_amplitude**2 * inv2
