"""Gaussian entanglement certifiers and their channel transfer.

Two determinant certifiers operate on labeled central-moment matrices:

* the 4x4 matrix (necessary and sufficient for Gaussian states), and
* its 2x2 sub-matrix

      | <Dad Da>  <Dad Db> |
      | <Da Dbd>  <Dbd Db> |

  which is sufficient only, but transfers through loss channels in closed
  form.

A state is certified entangled when the determinant of the partially
transposed matrix is negative.  Partial transposition acts on mode b as
operator transposition: every b <-> b^dag label swaps, and entries built
from two mode-b operators also reverse their order (so <Dbd Db> and
<Db Dbd> are invariant while <Db^2> and <Dbd^2> trade places).  Keeping
matrices as label grids over a :class:`~turbulight.states.TwoModeMoments`
makes that rewrite mechanical and layout-proof.

The 2x2 certifier W transfers through a joint fluctuating channel as

    W_out = <T_a^2><T_b^2> W_in + N + nu^+ S nu + mu^+ F mu,

with N, S, F built from second moments and (co)variances of the amplitude
transmissions; the displacement vectors are nu = (<a>, <b^dag>)^T and
mu = (<a><b>, <a^dag><b^dag>)^T.  For uncorrelated arms every extra term
is nonnegative -- turbulence can only hurt, and hurts more for larger
displacement and stronger squeezing.  Perfectly correlated arms
(T_a = T_b) collapse N and F to zero and leave an indefinite S: the
remaining displacement form can be nonpositive, defining a domain of
displacements whose entanglement survives any channel state whatsoever.
Zero-displacement states sit inside that domain for every input, since
then W_out = <T^2>^2 W_in preserves the certifier's sign outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import arm_statistics, joint_statistics
from .pdt import JointTransmittanceDistribution, TransmittanceDistribution
from .states import TwoModeMoments

__all__ = [
    "MomentMatrix",
    "CertifierResult",
    "simon_matrix",
    "dgcz_matrix",
    "simon_certifier",
    "dgcz_certifier",
    "dgcz_out_closed",
    "dgcz_out_correlated",
    "preservation_domain",
]

_BORDER = 1e-12

_SIMON_LABELS = (
    (("ad", "a"), ("ad", "ad"), ("ad", "b"), ("ad", "bd")),
    (("a", "a"), ("a", "ad"), ("a", "b"), ("a", "bd")),
    (("a", "bd"), ("ad", "bd"), ("bd", "b"), ("bd", "bd")),
    (("a", "b"), ("ad", "b"), ("b", "b"), ("b", "bd")),
)

_DGCZ_LABELS = (
    (("ad", "a"), ("ad", "b")),
    (("a", "bd"), ("bd", "b")),
)

_B_SWAP = {"b": "bd", "bd": "b"}


def _transpose_pair(pair):
    first, second = pair
    swapped = (_B_SWAP.get(first, first), _B_SWAP.get(second, second))
    if first in _B_SWAP and second in _B_SWAP:
        # Both slots live on mode b: transposition reverses their order.
        return (swapped[1], swapped[0])
    return swapped


@dataclass(frozen=True)
class MomentMatrix:
    """Central-moment matrix stored as labels over a moment container.

    Values are always re-read from the state, so a label rewrite (partial
    transposition) can never go stale or disagree with the moments.
    """

    labels: tuple
    state: TwoModeMoments

    def array(self) -> np.ndarray:
        return np.array(
            [[self.state.central_moment(*pair) for pair in row] for row in self.labels],
            dtype=complex,
        )

    def partial_transpose(self) -> "MomentMatrix":
        rewritten = tuple(
            tuple(_transpose_pair(pair) for pair in row) for row in self.labels
        )
        return MomentMatrix(rewritten, self.state)

    def determinant(self) -> float:
        # Both label layouts are Hermitian, so the determinant is real.
        return float(np.linalg.det(self.array()).real)


def simon_matrix(state: TwoModeMoments) -> MomentMatrix:
    """4x4 central-moment matrix, operator ordering as laid out above."""
    return MomentMatrix(_SIMON_LABELS, state)


def dgcz_matrix(state: TwoModeMoments) -> MomentMatrix:
    """2x2 occupation/exchange sub-matrix."""
    return MomentMatrix(_DGCZ_LABELS, state)


@dataclass(frozen=True)
class CertifierResult:
    """Entanglement certifier value with its decision flags.

    ``entangled`` requires the value to clear a -1e-12 round-off margin;
    values within the margin of zero are flagged ``indeterminate`` rather
    than being over-read.
    """

    value: float
    criterion: str
    entangled: bool
    indeterminate: bool


def _decide(value, criterion) -> CertifierResult:
    return CertifierResult(
        value=float(value),
        criterion=criterion,
        entangled=bool(value < -_BORDER),
        indeterminate=bool(abs(value) <= _BORDER),
    )


def simon_certifier(state: TwoModeMoments) -> CertifierResult:
    """det of the partially transposed 4x4 matrix; < 0 iff entangled."""
    return _decide(simon_matrix(state).partial_transpose().determinant(), "simon")


def dgcz_certifier(state: TwoModeMoments) -> CertifierResult:
    """det of the partially transposed 2x2 matrix; < 0 is sufficient."""
    return _decide(dgcz_matrix(state).partial_transpose().determinant(), "dgcz")


def dgcz_out_closed(state: TwoModeMoments,
                    joint: JointTransmittanceDistribution) -> CertifierResult:
    """2x2 certifier after the channel, without transforming the state.

    Needs only five amplitude-transmission moments of the joint law; the
    test suite pins it against certifying the transformed state directly.
    """
    _, _, ta2, tb2, tab, var_ta, var_tb, cov = joint_statistics(joint)
    w_in = dgcz_matrix(state).partial_transpose().determinant()
    pair = complex(state.pair)
    mu_a = complex(state.mean_a)
    mu_b = complex(state.mean_b)

    excess = (ta2 * tb2 - tab * tab) * abs(pair) ** 2
    s = np.array(
        [
            [tb2 * state.occ_b * var_ta, -tab * pair * cov],
            [-tab * np.conj(pair) * cov, ta2 * state.occ_a * var_tb],
        ],
        dtype=complex,
    )
    nu = np.array([mu_a, np.conj(mu_b)], dtype=complex)
    f = 0.5 * (var_ta * var_tb - cov * cov) * np.eye(2)
    mu = np.array([mu_a * mu_b, np.conj(mu_a * mu_b)], dtype=complex)

    value = (
        ta2 * tb2 * w_in
        + excess
        + np.vdot(nu, s @ nu).real
        + np.vdot(mu, f @ mu).real
    )
    return _decide(value, "dgcz")


def _displacement_form(state: TwoModeMoments, mean_a, mean_b):
    """nu^+ M nu with M = [[<Dbd Db>, -<Da Db>], [-<Dad Dbd>, <Dad Da>]]."""
    pair = complex(state.pair)
    nu = np.array([complex(mean_a), np.conj(complex(mean_b))])
    m = np.array(
        [[state.occ_b, -pair], [-np.conj(pair), state.occ_a]], dtype=complex
    )
    return float(np.vdot(nu, m @ nu).real)


def dgcz_out_correlated(state: TwoModeMoments,
                        dist: TransmittanceDistribution) -> CertifierResult:
    """2x2 certifier after a channel both modes share (T_a = T_b).

    W_out = <T^2>^2 W_in + <DT^2><T^2> * (displacement form).  With zero
    displacement the sign of W_in is preserved for every transmittance
    law.
    """
    t2, var_t = arm_statistics(dist)
    w_in = dgcz_matrix(state).partial_transpose().determinant()
    value = t2 * t2 * w_in + var_t * t2 * _displacement_form(
        state, state.mean_a, state.mean_b
    )
    return _decide(value, "dgcz")


def preservation_domain(state: TwoModeMoments, d_a, d_b) -> bool:
    """Whether displacement (d_a, d_b) keeps correlated-channel safety.

    True iff the displacement quadratic form is nonpositive, in which case
    a DGCZ-entangled state displaced by (d_a, d_b) stays certified through
    every shared-transmittance channel, whatever the transmittance law.
    The undisplaced input must itself be DGCZ-entangled.
    """
    base = dgcz_certifier(state)
    if not base.entangled:
        raise ValueError(
            "preservation domain is defined for DGCZ-entangled inputs; "
            f"certifier value here is {base.value!r}"
        )
    return _displacement_form(state, d_a, d_b) <= 0.0
