"""Loss-channel moment maps, checked against sampling and closed forms."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from oracles import batch_statistic, sample_joint
from turbulight.channel import (
    attenuate_moment,
    characteristic_out,
    transform_two_mode,
)
from turbulight.pdt import (
    AdaptiveCorrelated,
    Beta,
    Dirac,
    PerfectlyCorrelated,
    Product,
    TruncatedLogNormal,
)
from turbulight.states import TwoModeMoments, tmsv


def test_attenuate_moment_scales_by_half_order():
    uniform = Beta(1.0, 1.0)
    assert attenuate_moment(2.0, 1, 1, Dirac(0.36)) == pytest.approx(0.72, rel=1e-14)
    assert attenuate_moment(1.0, 0, 1, Dirac(0.36)) == pytest.approx(0.6, rel=1e-14)
    assert attenuate_moment(3.0, 2, 2, uniform) == pytest.approx(1.0, rel=1e-12)


def test_moment_order_validation():
    with pytest.raises(ValueError):
        attenuate_moment(1.0, -1, 0, Dirac(0.5))
    with pytest.raises(ValueError):
        attenuate_moment(1.0, 0, -2, Dirac(0.5))
    with pytest.raises(ValueError):
        attenuate_moment(1.0, 0.5, 1, Dirac(0.5))


def _rich_state():
    return TwoModeMoments(
        mean_a=1.2 - 0.5j,
        mean_b=-0.3 + 0.8j,
        occ_a=0.9,
        occ_b=0.6,
        anom_a=0.4 + 0.2j,
        anom_b=-0.1j,
        pair=0.5 - 0.3j,
        exch=0.15 + 0.05j,
    )


def test_constant_channel_has_no_excess():
    state = _rich_state()
    ea, eb = 0.64, 0.25
    out = transform_two_mode(state, Product(Dirac(ea), Dirac(eb)))
    assert out.mean_a == pytest.approx(math.sqrt(ea) * state.mean_a, rel=1e-13)
    assert out.mean_b == pytest.approx(math.sqrt(eb) * state.mean_b, rel=1e-13)
    assert out.occ_a == pytest.approx(ea * state.occ_a, rel=1e-13)
    assert out.anom_b == pytest.approx(eb * state.anom_b, rel=1e-13)
    assert out.pair == pytest.approx(
        math.sqrt(ea * eb) * state.pair, rel=1e-13
    )
    assert out.exch == pytest.approx(
        math.sqrt(ea * eb) * state.exch, rel=1e-13
    )


def test_constant_channels_compose():
    state = _rich_state()
    step1 = transform_two_mode(state, Product(Dirac(0.7), Dirac(0.5)))
    step2 = transform_two_mode(step1, Product(Dirac(0.4), Dirac(0.9)))
    merged = transform_two_mode(state, Product(Dirac(0.28), Dirac(0.45)))
    for field in ("mean_a", "mean_b", "occ_a", "occ_b", "anom_a", "anom_b",
                  "pair", "exch"):
        assert getattr(step2, field) == pytest.approx(
            getattr(merged, field), rel=1e-12, abs=1e-15
        )


def test_correlated_channel_moment_wiring():
    dist = Beta(2.0, 2.0)
    joint = PerfectlyCorrelated(dist)
    state = _rich_state()
    out = transform_two_mode(state, joint)
    t1 = dist.moment(0.5)
    t2 = dist.moment(1.0)
    var_t = t2 - t1 * t1
    assert out.mean_a == pytest.approx(t1 * state.mean_a, rel=1e-12)
    assert out.occ_a == pytest.approx(
        t2 * state.occ_a + var_t * abs(state.mean_a) ** 2, rel=1e-12
    )
    # both arms share one realization, so the pair term uses <T^2> = <eta>
    assert out.pair == pytest.approx(
        t2 * state.pair + var_t * state.mean_a * state.mean_b, rel=1e-12
    )


def test_fluctuating_excess_against_sampled_transmittance():
    state = _rich_state()
    joint = Product(Beta(2.0, 2.0), TruncatedLogNormal(-0.9, 0.5))
    out = transform_two_mode(state, joint)
    ea, eb = sample_joint(joint, 400_000, np.random.default_rng(2024))
    ta, tb = np.sqrt(ea), np.sqrt(eb)
    mu_a, mu_b = state.mean_a, state.mean_b

    def occ_stat(idx):
        t = ta[idx]
        return np.mean(t * t) * state.occ_a + (
            np.mean(t * t) - np.mean(t) ** 2
        ) * abs(mu_a) ** 2

    est, se = batch_statistic(np.arange(ea.size), occ_stat)
    assert abs(out.occ_a - est) < 4.0 * se + 1e-9

    def pair_stat(idx, part=np.real):
        cov = np.mean(ta[idx] * tb[idx]) - np.mean(ta[idx]) * np.mean(tb[idx])
        return part(np.mean(ta[idx] * tb[idx]) * state.pair + cov * mu_a * mu_b)

    for part, target in ((np.real, out.pair.real), (np.imag, out.pair.imag)):
        est_c, se_c = batch_statistic(
            np.arange(ea.size), lambda idx: pair_stat(idx, part)
        )
        assert abs(target - est_c) < 4.0 * se_c + 1e-9


def test_adaptive_channel_uses_min_law():
    a, b = Beta(3.0, 1.5), Beta(2.0, 2.0)
    joint = AdaptiveCorrelated(a, b)
    out = transform_two_mode(tmsv(0.8), joint)
    tab = joint.t_moment(1, 1)
    assert out.pair == pytest.approx(tab * math.sinh(0.8) * math.cosh(0.8),
                                     rel=1e-10)
    # both marginals of the min law coincide
    assert out.occ_a == pytest.approx(out.occ_b, rel=1e-10)


def test_thermal_characteristic_closed_form():
    n_bar = 1.7
    c_in = lambda beta: np.exp(-n_bar * np.abs(beta) ** 2)
    for beta in (0.5, 1.0 + 0.5j, 2.0j):
        z = n_bar * abs(beta) ** 2
        expected = (1.0 - math.exp(-z)) / z
        got = characteristic_out(c_in, Beta(1.0, 1.0), beta)
        assert got.real == pytest.approx(expected, rel=1e-9)
        assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_coherent_characteristic_matches_reference_quadrature():
    alpha = 0.8 - 0.6j
    dist = Beta(2.0, 5.0)
    c_in = lambda beta: np.exp(beta * np.conj(alpha) - np.conj(beta) * alpha)
    beta = 0.9 + 0.4j

    def integrand(e, part):
        val = c_in(math.sqrt(e) * beta) * dist.density(np.array([e]))[0]
        return part(val)

    re, _ = sp_integrate.quad(integrand, 0.0, 1.0, args=(np.real,),
                              epsabs=1e-13, epsrel=1e-13, limit=200)
    im, _ = sp_integrate.quad(integrand, 0.0, 1.0, args=(np.imag,),
                              epsabs=1e-13, epsrel=1e-13, limit=200)
    got = characteristic_out(c_in, dist, beta)
    assert got == pytest.approx(complex(re, im), rel=1e-8)


def test_characteristic_requires_unit_origin():
    with pytest.raises(ValueError, match="C\\(0\\) = 1"):
        characteristic_out(lambda b: np.exp(-np.abs(b) ** 2) + 0.1,
                           Beta(1.0, 1.0), 0.3)
