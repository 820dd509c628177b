"""Gaussian moment containers against explicit Fock-expansion oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import squeezed_vacuum_fock_moments, tmsv_fock_moments
from turbulight.states import (
    SingleModeGaussian,
    TwoModeMoments,
    squeezed_vacuum,
    squeezed_vacuum_db,
    tmsv,
    variance_to_db,
)


@pytest.mark.parametrize("squeezing", [0.15, 0.6, 1.3])
@pytest.mark.parametrize("angle", [0.0, 0.9, -2.0])
def test_squeezed_vacuum_matches_fock_expansion(squeezing, angle):
    fock = squeezed_vacuum_fock_moments(squeezing, angle)
    state = squeezed_vacuum(squeezing, angle)
    assert fock["norm"] == pytest.approx(1.0, abs=1e-12)
    assert state.occ == pytest.approx(fock["occ"], rel=1e-12, abs=1e-12)
    assert complex(state.anom) == pytest.approx(fock["anom"], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("squeezing", [0.2, 0.8, 1.5])
def test_tmsv_matches_fock_expansion(squeezing):
    fock = tmsv_fock_moments(squeezing)
    state = tmsv(squeezing)
    assert fock["norm"] == pytest.approx(1.0, abs=1e-12)
    assert state.occ_a == pytest.approx(fock["occ"], rel=1e-12)
    assert state.occ_b == pytest.approx(fock["occ"], rel=1e-12)
    assert complex(state.pair) == pytest.approx(fock["pair"], rel=1e-12)
    assert state.anom_a == 0.0 and state.exch == 0.0


def test_squeezed_quadrature_variances():
    r = 1.0
    state = squeezed_vacuum(r)
    squeezed = 0.5 * (math.exp(-2.0 * r) - 1.0)
    anti = 0.5 * (math.exp(2.0 * r) - 1.0)
    assert state.quad_variance_normal(0.0) == pytest.approx(squeezed, rel=1e-14)
    assert state.quad_variance_normal(math.pi / 2) == pytest.approx(anti, rel=1e-14)


@given(
    squeezing=st.floats(0.01, 2.0),
    angle=st.floats(-math.pi, math.pi),
    phi=st.floats(-math.pi, math.pi),
)
def test_squeezed_axis_minimizes_variance(squeezing, angle, phi):
    state = squeezed_vacuum(squeezing, angle)
    at_axis = state.quad_variance_normal(angle)
    assert at_axis <= state.quad_variance_normal(phi) + 1e-12
    assert at_axis == pytest.approx(
        0.5 * (math.exp(-2.0 * squeezing) - 1.0), rel=1e-12
    )


def test_quad_mean_projects_displacement():
    state = SingleModeGaussian(mean=2.0 + 1.0j)
    assert state.quad_mean(0.0) == pytest.approx(2.0 * math.sqrt(2.0))
    assert state.quad_mean(math.pi / 2) == pytest.approx(math.sqrt(2.0))


def test_variance_db_conversions():
    assert variance_to_db(0.0) == 0.0
    assert variance_to_db(-0.25) == pytest.approx(-3.0102999566398120, rel=1e-13)
    assert variance_to_db(-0.5) == -math.inf
    with pytest.raises(ValueError):
        variance_to_db(-0.5000001)
    state = squeezed_vacuum_db(-2.4)
    v = state.quad_variance_normal(0.0)
    assert v == pytest.approx(0.5 * (10.0 ** (-0.24) - 1.0), rel=1e-13)
    assert variance_to_db(v) == pytest.approx(-2.4, rel=1e-13)
    with pytest.raises(ValueError):
        squeezed_vacuum_db(0.1)


def test_single_mode_moment_bounds():
    with pytest.raises(ValueError):
        SingleModeGaussian(occ=-0.01)
    with pytest.raises(ValueError):
        SingleModeGaussian(occ=0.0, anom=0.6)
    SingleModeGaussian(occ=0.0, anom=0.5)  # extreme squeezing boundary is fine


def test_negative_squeezing_rejected():
    with pytest.raises(ValueError):
        squeezed_vacuum(-0.2)
    with pytest.raises(ValueError):
        tmsv(-0.2)


@pytest.mark.parametrize(
    "make, value",
    [
        (squeezed_vacuum, math.nan),
        (squeezed_vacuum, math.inf),
        (squeezed_vacuum_db, math.nan),
        (squeezed_vacuum_db, -math.inf),
        (tmsv, math.nan),
        (tmsv, math.inf),
    ],
    ids=["sv-nan", "sv-inf", "db-nan", "db-minus-inf", "tmsv-nan", "tmsv-inf"],
)
def test_non_finite_squeezing_rejected(make, value):
    with pytest.raises(ValueError):
        make(value)


@pytest.mark.parametrize(
    "make",
    [
        lambda v: SingleModeGaussian(occ=v),
        lambda v: SingleModeGaussian(mean=v),
        lambda v: SingleModeGaussian(anom=complex(0.1, v)),
        lambda v: squeezed_vacuum_db(-3.0, mean=v),
        lambda v: tmsv(0.5, v, 0.0),
        lambda v: tmsv(0.5, 0.0, complex(v, 0.2)),
        lambda v: TwoModeMoments(occ_b=v),
        lambda v: TwoModeMoments(pair=v),
        lambda v: TwoModeMoments(exch=complex(0.0, v)),
    ],
    ids=["occ", "mean", "anom", "db-mean", "tmsv-mean-a", "tmsv-mean-b", "occ-b", "pair",
         "exch"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_moments_rejected(make, value):
    with pytest.raises(ValueError, match="must be finite"):
        make(value)


def test_mean_photons():
    assert squeezed_vacuum(0.7, mean=1.0 - 2.0j).mean_photons() == pytest.approx(
        math.sinh(0.7) ** 2 + 5.0, rel=1e-14
    )
    assert tmsv(0.7, mean_a=1.0j).mean_photons() == pytest.approx(
        2.0 * math.sinh(0.7) ** 2 + 1.0, rel=1e-14
    )


def test_central_moment_table():
    state = TwoModeMoments(
        mean_a=0.3,
        mean_b=-0.1j,
        occ_a=0.7,
        occ_b=0.4,
        anom_a=0.2 + 0.1j,
        anom_b=-0.05j,
        pair=0.3 - 0.2j,
        exch=0.1 + 0.05j,
    )
    assert state.central_moment("a", "a") == 0.2 + 0.1j
    assert state.central_moment("ad", "ad") == 0.2 - 0.1j
    assert state.central_moment("ad", "a") == 0.7
    assert state.central_moment("a", "ad") == pytest.approx(1.7)
    assert state.central_moment("bd", "b") == 0.4
    assert state.central_moment("b", "bd") == pytest.approx(1.4)
    assert state.central_moment("a", "b") == 0.3 - 0.2j
    assert state.central_moment("b", "a") == 0.3 - 0.2j
    assert state.central_moment("ad", "bd") == 0.3 + 0.2j
    assert state.central_moment("ad", "b") == 0.1 + 0.05j
    assert state.central_moment("b", "ad") == 0.1 + 0.05j
    assert state.central_moment("a", "bd") == 0.1 - 0.05j
    with pytest.raises(ValueError, match="unknown operator pair"):
        state.central_moment("a", "c")


def test_mode_extraction():
    state = tmsv(0.5, mean_a=0.2, mean_b=-0.4j)
    a, b = state.mode_a(), state.mode_b()
    assert a.mean == 0.2 and b.mean == -0.4j
    assert a.occ == b.occ == pytest.approx(math.sinh(0.5) ** 2)
    assert a.anom == 0.0


def test_covariance_vacuum_and_tmsv():
    np.testing.assert_allclose(
        TwoModeMoments().covariance_xp(), 0.5 * np.eye(4), atol=1e-15
    )
    r = 0.8
    sigma = tmsv(r).covariance_xp()
    sh2, shch = math.sinh(r) ** 2, math.sinh(r) * math.cosh(r)
    np.testing.assert_allclose(np.diag(sigma), np.full(4, sh2 + 0.5), rtol=1e-14)
    assert sigma[0, 2] == pytest.approx(shch, rel=1e-14)
    assert sigma[1, 3] == pytest.approx(-shch, rel=1e-14)
    assert sigma[0, 1] == sigma[0, 3] == 0.0


def test_physicality_detects_overstrong_pairing():
    assert tmsv(1.1).is_physical()
    # sinh*cosh at occ=sinh^2 saturates the bound; anything larger is not a state
    too_strong = TwoModeMoments(occ_a=0.5, occ_b=0.5, pair=1.5)
    assert not too_strong.is_physical()


def test_displacement_leaves_central_moments_alone():
    plain = tmsv(0.9)
    displaced = tmsv(0.9, mean_a=3.0 + 1.0j, mean_b=-2.0j)
    assert displaced.occ_a == plain.occ_a
    assert displaced.pair == plain.pair
    np.testing.assert_allclose(
        displaced.covariance_xp(), plain.covariance_xp(), atol=1e-15
    )
