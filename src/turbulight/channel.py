"""Input-output relations of fluctuating-loss channels.

Conditioned on a transmittance realization eta, a lossy channel acts as a
beam splitter against a vacuum environment,

    a_out = sqrt(eta) a_in + sqrt(1 - eta) c_vac,

so every normally ordered moment picks up one factor sqrt(eta) per field
operator and the environment drops out.  Averaging over the transmittance
law then multiplies <a^dag^n a^m> by the PDT moment <eta^{(n+m)/2}>, and
the normally ordered characteristic function transforms pointwise as
C_out(beta) = < C_in(sqrt(eta) beta) >.

For central (fluctuation) moments the average of products is not the
product of averages, which is where fluctuating loss differs from a fixed
attenuator: means scale with <T> while raw second moments scale with
moments of T^2, leaving excess terms proportional to the T-fluctuations.
:func:`transform_two_mode` carries a displaced two-mode Gaussian through a
joint channel exactly at the level of first and second moments.
"""

from __future__ import annotations

import numpy as np

from .pdt import JointTransmittanceDistribution, TransmittanceDistribution
from .states import TwoModeMoments

__all__ = [
    "attenuate_moment",
    "arm_statistics",
    "joint_statistics",
    "transform_two_mode",
    "characteristic_out",
]


def attenuate_moment(value, n, m, dist: TransmittanceDistribution):
    """Channel output of one normally ordered moment <a^dag^n a^m> of one mode.

    <a^dag^n a^m>_out = <eta^{(n+m)/2}> <a^dag^n a^m>_in.
    """
    if n < 0 or m < 0 or n != int(n) or m != int(m):
        raise ValueError("moment orders must be nonnegative integers")
    return dist.moment((n + m) / 2.0) * value


def arm_statistics(dist: TransmittanceDistribution):
    """(<T^2>, <(Delta T)^2>) of one arm's amplitude transmission T = sqrt(eta)."""
    t2 = dist.moment(1.0)
    return t2, t2 - dist.moment(0.5) ** 2


def joint_statistics(joint: JointTransmittanceDistribution):
    """Amplitude-transmission statistics of a joint law, from five moments.

    Returns (ta1, tb1, ta2, tb2, tab, var_ta, var_tb, cov) with
    ta_j = <T_a^j>, tb_j = <T_b^j>, tab = <T_a T_b>, var_ta = ta2 - ta1^2,
    var_tb = tb2 - tb1^2 and cov = tab - ta1 tb1.
    """
    ta1 = joint.t_moment(1, 0)
    tb1 = joint.t_moment(0, 1)
    ta2 = joint.t_moment(2, 0)
    tb2 = joint.t_moment(0, 2)
    tab = joint.t_moment(1, 1)
    return (ta1, tb1, ta2, tb2, tab,
            ta2 - ta1 * ta1, tb2 - tb1 * tb1, tab - ta1 * tb1)


def transform_two_mode(state: TwoModeMoments,
                       joint: JointTransmittanceDistribution) -> TwoModeMoments:
    """Displaced Gaussian moments after a joint fluctuating-loss channel.

    With ta_j = <T_a^j>, tb_j = <T_b^j> and tab = <T_a T_b>:

        <a>        -> ta1 <a>
        <Dad Da>   -> ta2 <Dad Da> + (ta2 - ta1^2) |<a>|^2
        <Da Da>    -> ta2 <Da Da>  + (ta2 - ta1^2) <a>^2
        <Da Db>    -> tab <Da Db>  + (tab - ta1 tb1) <a><b>
        <Dad Db>   -> tab <Dad Db> + (tab - ta1 tb1) conj(<a>)<b>

    The excess terms vanish for constant channels and grow with the
    (co)variances of the amplitude transmissions, which is how channel
    noise leaks the coherent displacement into the fluctuation moments.
    """
    ta1, tb1, ta2, tb2, tab, var_ta, var_tb, cov_tab = joint_statistics(joint)
    mu_a = complex(state.mean_a)
    mu_b = complex(state.mean_b)

    return TwoModeMoments(
        mean_a=ta1 * mu_a,
        mean_b=tb1 * mu_b,
        occ_a=ta2 * state.occ_a + var_ta * abs(mu_a) ** 2,
        occ_b=tb2 * state.occ_b + var_tb * abs(mu_b) ** 2,
        anom_a=ta2 * state.anom_a + var_ta * mu_a * mu_a,
        anom_b=tb2 * state.anom_b + var_tb * mu_b * mu_b,
        pair=tab * state.pair + cov_tab * mu_a * mu_b,
        exch=tab * state.exch + cov_tab * np.conj(mu_a) * mu_b,
    )


def characteristic_out(c_in, dist: TransmittanceDistribution, beta) -> complex:
    """Normally ordered characteristic function after the channel.

    C_out(beta) = < C_in(sqrt(eta) beta) > over the transmittance law.
    ``c_in`` must map complex beta (vectorized over ndarray input) to
    complex values with c_in(0) = 1.
    """
    c0 = complex(np.asarray(c_in(np.array([0.0 + 0.0j]))).reshape(-1)[0])
    if abs(c0 - 1.0) > 1e-8:
        raise ValueError("characteristic function must satisfy C(0) = 1")
    beta = complex(beta)

    re = dist.expectation(lambda e: np.real(c_in(np.sqrt(e) * beta)))
    im = dist.expectation(lambda e: np.imag(c_in(np.sqrt(e) * beta)))
    return complex(re, im)
