"""Entanglement certifiers, partial transposition, and channel transfer."""

import math

import numpy as np
import pytest

from oracles import tmsv_fock_moments
from turbulight.channel import transform_two_mode
from turbulight.entangle import (
    CertifierResult,
    dgcz_certifier,
    dgcz_matrix,
    dgcz_out_closed,
    dgcz_out_correlated,
    preservation_domain,
    simon_certifier,
    simon_matrix,
)
from turbulight.pdt import (
    AdaptiveCorrelated,
    Beta,
    Dirac,
    Empirical,
    PerfectlyCorrelated,
    Product,
    TruncatedLogNormal,
)
from turbulight.states import TwoModeMoments, tmsv


def test_tmsv_certifier_values_from_fock_expansion():
    r = 0.8
    fock = tmsv_fock_moments(r)
    state = TwoModeMoments(occ_a=fock["occ"], occ_b=fock["occ"],
                           pair=fock["pair"])
    res = dgcz_certifier(state)
    # occ^2 - |pair|^2 = sinh^4 - sinh^2 cosh^2 = -sinh^2
    assert res.value == pytest.approx(-math.sinh(r) ** 2, rel=1e-10)
    assert res.entangled and not res.indeterminate
    assert simon_certifier(state).entangled


def test_partial_transpose_is_an_involution():
    state = tmsv(0.6, mean_a=0.3 - 0.1j, mean_b=0.2j)
    for matrix in (simon_matrix(state), dgcz_matrix(state)):
        twice = matrix.partial_transpose().partial_transpose()
        np.testing.assert_array_equal(twice.array(), matrix.array())


def test_partial_transpose_swaps_pair_and_exchange():
    state = TwoModeMoments(occ_a=0.5, occ_b=0.4, pair=0.3 - 0.2j,
                           exch=0.1 + 0.05j)
    plain = dgcz_matrix(state).array()
    swapped = dgcz_matrix(state).partial_transpose().array()
    assert plain[0, 1] == state.central_moment("ad", "b")
    assert swapped[0, 1] == state.central_moment("ad", "bd")
    # diagonal occupation entries survive the rewrite
    assert swapped[0, 0] == plain[0, 0]
    assert swapped[1, 1] == plain[1, 1]


def test_certifiers_on_separable_states():
    vacuum = TwoModeMoments()
    assert dgcz_certifier(vacuum).indeterminate
    assert not dgcz_certifier(vacuum).entangled
    thermal = TwoModeMoments(occ_a=0.3, occ_b=0.5)
    res = dgcz_certifier(thermal)
    assert res.value == pytest.approx(0.15, rel=1e-13)
    assert not res.entangled and not res.indeterminate
    assert not simon_certifier(thermal).entangled


def test_zero_squeezing_sits_on_the_border():
    res = dgcz_certifier(tmsv(0.0))
    assert res.indeterminate and not res.entangled
    assert isinstance(res, CertifierResult)


def _random_state(rng):
    # physical-ish random moments: build from a TMSV plus thermal padding
    r = rng.uniform(0.1, 1.2)
    base = tmsv(r)
    return TwoModeMoments(
        mean_a=complex(rng.normal(), rng.normal()),
        mean_b=complex(rng.normal(), rng.normal()),
        occ_a=base.occ_a + rng.uniform(0.0, 0.4),
        occ_b=base.occ_b + rng.uniform(0.0, 0.6),
        anom_a=complex(rng.normal(), rng.normal()) * 0.1,
        anom_b=complex(rng.normal(), rng.normal()) * 0.1,
        pair=base.pair * rng.uniform(0.6, 1.0),
        exch=complex(rng.normal(), rng.normal()) * 0.05,
    )


def _random_joint(rng):
    kind = rng.integers(0, 4)
    a = Beta(rng.uniform(0.8, 4.0), rng.uniform(0.8, 4.0))
    b = TruncatedLogNormal(rng.uniform(-1.5, -0.3), rng.uniform(0.3, 1.0))
    if kind == 0:
        return Product(a, b)
    if kind == 1:
        return PerfectlyCorrelated(a)
    if kind == 2:
        return AdaptiveCorrelated(a, b)
    return Product(Dirac(rng.uniform(0.2, 1.0)),
                   Empirical((0.3, 0.9), (1.0, 2.0)))


def test_closed_transfer_equals_certifying_transformed_state():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        state = _random_state(rng)
        joint = _random_joint(rng)
        closed = dgcz_out_closed(state, joint)
        direct = dgcz_certifier(transform_two_mode(state, joint))
        assert closed.value == pytest.approx(direct.value, rel=1e-9, abs=1e-12)
        assert closed.entangled == direct.entangled


def test_constant_channel_rescales_certifier():
    state = tmsv(0.7, mean_a=0.5, mean_b=-0.3j)
    joint = Product(Dirac(0.6), Dirac(0.8))
    closed = dgcz_out_closed(state, joint)
    w_in = dgcz_certifier(state).value
    assert closed.value == pytest.approx(0.6 * 0.8 * w_in, rel=1e-12)
    assert closed.entangled  # constant loss never kills the certificate


def test_correlated_transfer_matches_closed_form():
    state = tmsv(0.9, mean_a=1.0 + 0.5j, mean_b=-0.7j)
    dist = Beta(2.0, 2.0)
    corr = dgcz_out_correlated(state, dist)
    general = dgcz_out_closed(state, PerfectlyCorrelated(dist))
    assert corr.value == pytest.approx(general.value, rel=1e-10)
    direct = dgcz_certifier(
        transform_two_mode(state, PerfectlyCorrelated(dist))
    )
    assert corr.value == pytest.approx(direct.value, rel=1e-10)


def test_zero_displacement_survives_any_shared_channel():
    state = tmsv(0.5)
    for dist in (Beta(1.0, 1.0), TruncatedLogNormal(-1.0, 0.9),
                 Empirical((0.1, 0.7), (1.0, 1.0))):
        out = dgcz_out_correlated(state, dist)
        assert out.entangled
        t2 = dist.moment(1.0)
        assert out.value == pytest.approx(
            t2 * t2 * dgcz_certifier(state).value, rel=1e-10
        )


def test_independent_fading_only_hurts():
    state = tmsv(0.5, mean_a=0.8, mean_b=0.8)
    w_in = dgcz_certifier(state).value
    joint = Product(Beta(2.0, 2.0), Beta(2.0, 2.0))
    ta2 = joint.t_moment(2, 0)
    tb2 = joint.t_moment(0, 2)
    assert dgcz_out_closed(state, joint).value >= ta2 * tb2 * w_in - 1e-12


def test_preservation_domain_shape():
    state = tmsv(0.6)
    d = 0.9
    # balanced displacement lies inside: occ (|da|^2 + |db|^2) - 2 Re(pair da db)
    # with pair = sinh cosh > occ = sinh^2 goes negative for da = db real
    assert preservation_domain(state, d, d)
    assert not preservation_domain(state, d, 0.0)
    assert not preservation_domain(state, d, -d)
    assert preservation_domain(state, 0.0, 0.0)


def test_preservation_domain_shrinks_with_weaker_pairing():
    strong, weak = tmsv(1.0), tmsv(0.25)
    d = 1.0
    assert preservation_domain(strong, d, d)
    assert preservation_domain(weak, d, d)
    # tilt the pair phase: the same displacement drops out of the domain
    tilted = TwoModeMoments(occ_a=weak.occ_a, occ_b=weak.occ_b,
                            pair=-weak.pair)
    assert not preservation_domain(tilted, d, d)


def test_preservation_domain_needs_entangled_input():
    with pytest.raises(ValueError, match="entangled"):
        preservation_domain(TwoModeMoments(occ_a=0.2, occ_b=0.2), 0.1, 0.1)


def test_simon_confirms_dgcz_on_gaussian_states():
    for r in (0.2, 0.6, 1.1):
        for eta in (1.0, 0.7, 0.35):
            out = transform_two_mode(tmsv(r), PerfectlyCorrelated(Dirac(eta)))
            d_res = dgcz_certifier(out)
            s_res = simon_certifier(out)
            assert d_res.entangled
            assert s_res.entangled
