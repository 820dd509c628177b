"""Gaussian states as normally ordered moment collections.

Everything downstream (squeezing transfer, entanglement certifiers, the
loss channel itself) only ever needs first moments and central second
moments of the mode operators, so states are stored exactly as that data.

Conventions
-----------
* Quadrature at phase phi:  x(phi) = (a e^{-i phi} + a^dag e^{i phi}) / sqrt(2).
  The vacuum has <x(phi)^2> = 1/2 and normally ordered variance 0; squeezing
  below vacuum means a negative normally ordered variance, bounded by -1/2.
* ``occ`` denotes <Delta a^dag Delta a> (occupation-type correlator),
  ``anom`` denotes <Delta a^2> (anomalous correlator); for two modes
  ``pair`` is <Delta a Delta b> and ``exch`` is <Delta a^dag Delta b>.
  All other up-to-quadratic central moments follow by conjugation and the
  commutator [a, a^dag] = 1.

Constructors build the two standard nonclassical resources: the squeezed
vacuum and the two-mode squeezed vacuum (TMSV), each with an optional
coherent displacement (displacement changes means only, never central
moments).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "SingleModeGaussian",
    "TwoModeMoments",
    "squeezed_vacuum",
    "squeezed_vacuum_db",
    "tmsv",
    "variance_to_db",
]

_PHYS_TOL = 1e-10
_UNCERTAINTY_TOL = 1e-9  # slack on the smallest eigenvalue in is_physical


def _check_finite(moments):
    """Raise ValueError on the first NaN or infinite field of a moment set."""
    for field in fields(moments):
        value = getattr(moments, field.name)
        if not cmath.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SingleModeGaussian:
    """First and central second moments of one bosonic mode."""

    mean: complex = 0.0
    occ: float = 0.0
    anom: complex = 0.0

    def __post_init__(self):
        _check_finite(self)
        if self.occ < -_PHYS_TOL:
            raise ValueError("<Delta a^dag Delta a> cannot be negative")
        if self.occ - abs(self.anom) < -0.5 - _PHYS_TOL:
            raise ValueError(
                "moments violate the uncertainty bound: "
                "min quadrature variance would drop below zero"
            )

    def quad_mean(self, phi=0.0):
        """<x(phi)> = sqrt(2) Re(<a> e^{-i phi})."""
        return math.sqrt(2.0) * (self.mean * cmath.exp(-1j * phi)).real

    def quad_variance_normal(self, phi=0.0):
        """Normally ordered quadrature variance <: (Delta x(phi))^2 :>.

        Equals <Delta a^dag Delta a> + Re(<Delta a^2> e^{-2 i phi}); the
        full variance is this plus the vacuum's 1/2.
        """
        return self.occ + (self.anom * cmath.exp(-2j * phi)).real

    def mean_photons(self):
        return self.occ + abs(self.mean) ** 2


@dataclass(frozen=True)
class TwoModeMoments:
    """First and central second moments of a bosonic mode pair."""

    mean_a: complex = 0.0
    mean_b: complex = 0.0
    occ_a: float = 0.0
    occ_b: float = 0.0
    anom_a: complex = 0.0
    anom_b: complex = 0.0
    pair: complex = 0.0
    exch: complex = 0.0

    def __post_init__(self):
        _check_finite(self)

    def central_moment(self, first: str, second: str) -> complex:
        """<Delta(first) Delta(second)> for labels in {a, ad, b, bd}.

        Ordering matters for same-mode products ([a, a^dag] = 1), while
        operators of different modes commute.
        """
        key = (first, second)
        table = {
            ("a", "a"): self.anom_a,
            ("ad", "ad"): np.conj(self.anom_a),
            ("ad", "a"): self.occ_a,
            ("a", "ad"): self.occ_a + 1.0,
            ("b", "b"): self.anom_b,
            ("bd", "bd"): np.conj(self.anom_b),
            ("bd", "b"): self.occ_b,
            ("b", "bd"): self.occ_b + 1.0,
            ("a", "b"): self.pair,
            ("b", "a"): self.pair,
            ("ad", "bd"): np.conj(self.pair),
            ("bd", "ad"): np.conj(self.pair),
            ("ad", "b"): self.exch,
            ("b", "ad"): self.exch,
            ("a", "bd"): np.conj(self.exch),
            ("bd", "a"): np.conj(self.exch),
        }
        try:
            return complex(table[key])
        except KeyError:
            raise ValueError(f"unknown operator pair {key!r}") from None

    def mode_a(self) -> SingleModeGaussian:
        return SingleModeGaussian(self.mean_a, self.occ_a, self.anom_a)

    def mode_b(self) -> SingleModeGaussian:
        return SingleModeGaussian(self.mean_b, self.occ_b, self.anom_b)

    def covariance_xp(self) -> np.ndarray:
        """Symmetrized quadrature covariance, basis (x_a, p_a, x_b, p_b).

        Vacuum gives I/2.  Used for physicality checks: a moment set is
        realizable iff sigma + (i/2) Omega >= 0 with Omega the symplectic
        form.
        """
        occ_a, occ_b = self.occ_a, self.occ_b
        an_a, an_b = complex(self.anom_a), complex(self.anom_b)
        pr, ex = complex(self.pair), complex(self.exch)
        sigma = np.empty((4, 4))
        sigma[0, 0] = occ_a + an_a.real + 0.5
        sigma[1, 1] = occ_a - an_a.real + 0.5
        sigma[0, 1] = sigma[1, 0] = an_a.imag
        sigma[2, 2] = occ_b + an_b.real + 0.5
        sigma[3, 3] = occ_b - an_b.real + 0.5
        sigma[2, 3] = sigma[3, 2] = an_b.imag
        sigma[0, 2] = sigma[2, 0] = pr.real + ex.real
        sigma[1, 3] = sigma[3, 1] = ex.real - pr.real
        sigma[0, 3] = sigma[3, 0] = pr.imag + ex.imag
        sigma[1, 2] = sigma[2, 1] = pr.imag - ex.imag
        return sigma

    def is_physical(self) -> bool:
        """Check sigma + (i/2) Omega >= 0 (bosonic uncertainty relation)."""
        sigma = self.covariance_xp().astype(complex)
        omega = np.zeros((4, 4))
        for m in (0, 2):
            omega[m, m + 1] = 1.0
            omega[m + 1, m] = -1.0
        eigs = np.linalg.eigvalsh(sigma + 0.5j * omega)
        return bool(eigs.min() >= -_UNCERTAINTY_TOL)

    def mean_photons(self):
        return (
            self.occ_a
            + self.occ_b
            + abs(self.mean_a) ** 2
            + abs(self.mean_b) ** 2
        )


def squeezed_vacuum(squeezing, angle=0.0, mean=0.0) -> SingleModeGaussian:
    """Displaced squeezed vacuum.

    ``squeezing`` >= 0 is the magnitude of the squeeze parameter; ``angle``
    is the phase of the squeezed quadrature, i.e. x(angle) carries the
    reduced variance (e^{-2 squeezing} - 1)/2 below (normally ordered
    convention) while x(angle + pi/2) is anti-squeezed.
    """
    if not (math.isfinite(squeezing) and squeezing >= 0.0):
        raise ValueError("squeezing magnitude must be finite and nonnegative")
    sh, ch = math.sinh(squeezing), math.cosh(squeezing)
    return SingleModeGaussian(
        mean=complex(mean),
        occ=sh * sh,
        anom=-cmath.exp(2j * angle) * sh * ch,
    )


def variance_to_db(variance):
    """Quadrature noise relative to vacuum, in dB.

    variance is normally ordered; the ratio to vacuum is 1 + 2 variance.
    """
    if variance < -0.5 - 1e-12:
        raise ValueError("normally ordered variance cannot drop below -1/2")
    ratio = 1.0 + 2.0 * variance
    if ratio <= 0.0:
        return -math.inf
    return 10.0 * math.log10(ratio)


def squeezed_vacuum_db(db, angle=0.0, mean=0.0) -> SingleModeGaussian:
    """Pure squeezed vacuum whose squeezed quadrature sits at ``db`` dB.

    db < 0 means noise below vacuum; db = -3 gives roughly half the vacuum
    variance.
    """
    if not db <= 0.0:
        raise ValueError("a pure squeezed vacuum has a nonpositive squeezed-quadrature level")
    squeezing = -0.5 * math.log(10.0 ** (db / 10.0))
    return squeezed_vacuum(squeezing, angle=angle, mean=mean)


def tmsv(squeezing, mean_a=0.0, mean_b=0.0) -> TwoModeMoments:
    """Displaced two-mode squeezed vacuum.

    In the Fock basis the undisplaced state is
    sech(squeezing) * sum_n tanh(squeezing)^n |n, n>, with
    <Delta a^dag Delta a> = <Delta b^dag Delta b> = sinh^2,
    <Delta a Delta b> = sinh * cosh and vanishing single-mode anomalous
    and exchange correlators.
    """
    if not (math.isfinite(squeezing) and squeezing >= 0.0):
        raise ValueError("squeezing magnitude must be finite and nonnegative")
    sh, ch = math.sinh(squeezing), math.cosh(squeezing)
    return TwoModeMoments(
        mean_a=complex(mean_a),
        mean_b=complex(mean_b),
        occ_a=sh * sh,
        occ_b=sh * sh,
        pair=sh * ch,
    )
