"""Squeezing transfer and homodyne noise, pinned by a heat-kernel oracle."""

import math

import numpy as np
import pytest

from oracles import heat_smoothed_quad_variance, mc_quadrature_variance, sample_law
from turbulight.homodyne import (
    HomodyneModel,
    noisy_variance,
    postselect_sweep,
    squeeze_out,
)
from turbulight.pdt import Beta, Dirac, Scaled, TruncatedLogNormal
from turbulight.states import (
    SingleModeGaussian,
    squeezed_vacuum,
    squeezed_vacuum_db,
    variance_to_db,
)


def test_constant_channel_scales_variance():
    state = squeezed_vacuum(0.9)
    out = squeeze_out(state, Dirac(0.6))
    assert out == pytest.approx(0.6 * state.quad_variance_normal(0.0), rel=1e-13)
    # anti-squeezed axis scales the same way
    anti = squeeze_out(state, Dirac(0.6), phase=math.pi / 2)
    assert anti == pytest.approx(
        0.6 * state.quad_variance_normal(math.pi / 2), rel=1e-13
    )


def test_db_bookkeeping_through_half_loss():
    state = squeezed_vacuum_db(-2.4)
    v_in = state.quad_variance_normal(0.0)
    db_out = variance_to_db(squeeze_out(state, Dirac(0.5)))
    assert db_out == pytest.approx(variance_to_db(0.5 * v_in), rel=1e-13)
    assert -2.4 < db_out < 0.0  # attenuation moves toward vacuum, never past


def test_displacement_spread_erodes_squeezing():
    dist = TruncatedLogNormal(-0.7, 0.8)
    quiet = squeezed_vacuum(0.5)
    displaced = squeezed_vacuum(0.5, mean=2.0)
    assert squeeze_out(displaced, dist) > squeeze_out(quiet, dist)
    # a constant channel sees no spread: displacement is free
    assert squeeze_out(displaced, Dirac(0.6)) == pytest.approx(
        squeeze_out(quiet, Dirac(0.6)), rel=1e-13
    )


def test_transfer_matches_sampled_total_variance():
    state = squeezed_vacuum_db(-2.4, mean=2.0**-0.5)  # <x(0)> = 1
    assert state.quad_mean(0.0) == pytest.approx(1.0, rel=1e-13)
    dist = Beta(2.0, 2.0)
    predicted = squeeze_out(state, dist)
    etas = sample_law(dist, 400_000, np.random.default_rng(60))
    est, se = mc_quadrature_variance(
        state.quad_mean(0.0), state.quad_variance_normal(0.0), etas
    )
    assert abs(predicted - est) < 4.0 * se


def test_noise_free_model_reduces_to_plain_transfer():
    state = squeezed_vacuum(0.4)
    dist = Beta(2.0, 2.0, lo=0.4)
    model = HomodyneModel(lo_amplitude=1.5, noise_counts=0.0,
                          min_transmittance=0.4)
    assert noisy_variance(state, dist, model) == squeeze_out(state, dist)


def test_postprocessing_noise_is_nonnegative_and_fades_with_lo_power():
    state = squeezed_vacuum(0.4)
    dist = Beta(2.0, 2.0, lo=0.5)
    base = squeeze_out(state, dist)
    weak = HomodyneModel(lo_amplitude=1.2, noise_counts=0.3,
                         min_transmittance=0.5)
    strong = HomodyneModel(lo_amplitude=1e4, noise_counts=0.3,
                           min_transmittance=0.5)
    assert noisy_variance(state, dist, weak) > base
    assert abs(noisy_variance(state, dist, strong) - base) < 1e-4


def test_support_below_declared_floor_is_rejected():
    state = squeezed_vacuum(0.4)
    model = HomodyneModel(lo_amplitude=1.0, noise_counts=0.1,
                          min_transmittance=0.3)
    with pytest.raises(ValueError, match="support"):
        noisy_variance(state, Beta(2.0, 2.0, lo=0.2), model)


def test_noise_constant_pinned_by_heat_kernel():
    # classical-like input with a proper Gaussian P function
    state = SingleModeGaussian(mean=0.4 - 0.2j, occ=0.8, anom=0.3 + 0.1j)
    eta = 0.7
    nu, r = 0.3, 1.2
    dist = Dirac(eta)
    model = HomodyneModel(lo_amplitude=r, noise_counts=nu,
                          min_transmittance=eta)
    for phase in (0.0, 0.7, math.pi / 2):
        predicted = noisy_variance(state, dist, model, phase=phase)
        kappa = nu / (4.0 * r * r * eta * eta)
        reference = heat_smoothed_quad_variance(
            math.sqrt(eta) * state.mean, eta * state.occ, eta * state.anom,
            kappa, phase,
        )
        assert predicted == pytest.approx(reference, abs=1e-6)


def test_heat_kernel_oracle_requires_classical_state():
    squeezed = squeezed_vacuum(0.5)
    with pytest.raises(ValueError):
        heat_smoothed_quad_variance(0.0, squeezed.occ, squeezed.anom, 0.01, 0.0)


def test_noisy_variance_averages_inverse_square_channel():
    state = squeezed_vacuum(0.4)
    dist = Beta(2.0, 2.0, lo=0.5)
    model = HomodyneModel(lo_amplitude=1.3, noise_counts=0.2,
                          min_transmittance=0.5)
    got = noisy_variance(state, dist, model)
    expected = squeeze_out(state, dist) + 0.2 / 1.3**2 * dist.moment(-2.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_postselection_recovers_squeezing_monotonically():
    state = squeezed_vacuum_db(-2.4)
    dist = TruncatedLogNormal(-1.0, 0.8)
    points = postselect_sweep(state, dist, [0.0, 0.2, 0.4, 0.6])
    assert all(p.valid for p in points)
    dbs = [p.squeezing_db for p in points]
    assert all(later < earlier for earlier, later in zip(dbs, dbs[1:]))
    assert dbs[0] > -2.4  # raw channel output is less squeezed than the input
    assert all(db < 0.0 for db in dbs)


def test_postselection_sweep_flags_empty_rows():
    state = squeezed_vacuum(0.3)
    dist = Scaled(Beta(2.0, 2.0), 0.5)
    points = postselect_sweep(state, dist, [0.2, 0.7])
    assert points[0].valid
    assert not points[1].valid and math.isnan(points[1].squeezing_db)


def test_model_validation():
    with pytest.raises(ValueError):
        HomodyneModel(lo_amplitude=0.0)
    with pytest.raises(ValueError):
        HomodyneModel(lo_amplitude=1.0, noise_counts=-0.1)
    with pytest.raises(ValueError):
        HomodyneModel(lo_amplitude=1.0, min_transmittance=0.0)
    with pytest.raises(ValueError):
        HomodyneModel(lo_amplitude=1.0, min_transmittance=1.2)
    # Wrongly typed arguments get the model's own ValueError too.
    with pytest.raises(ValueError, match="amplitude"):
        HomodyneModel("x")
    with pytest.raises(ValueError, match="noise counts"):
        HomodyneModel(1.0, noise_counts="x")
    with pytest.raises(ValueError, match="minimum transmittance"):
        HomodyneModel(1.0, min_transmittance="x")
