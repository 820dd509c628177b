"""Adaptive quadrature and reproducible-randomness plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sp_integrate

from turbulight.numerics import (
    DEFAULT_QUADRATURE,
    QuadratureAccuracyError,
    QuadratureSpec,
    RandomSource,
    integrate,
    integrate2,
)


def test_monomial_on_half_interval():
    assert integrate(lambda x: x * x, 0.5, 1.0) == pytest.approx(
        7.0 / 24.0, abs=1e-15
    )


@given(
    coeffs=st.lists(
        st.floats(-3.0, 3.0), min_size=1, max_size=8
    )
)
def test_polynomials_match_antiderivative(coeffs):
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    value = integrate(lambda x: poly(x), -0.5, 1.25)
    assert value == pytest.approx(anti(1.25) - anti(-0.5), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: np.exp(-x) * np.cos(20.0 * x), 0.0, 3.0),
        (lambda x: 1.0 / np.sqrt(x), 1e-6, 1.0),
        (lambda x: np.exp(-50.0 * (x - 0.3) ** 2), 0.0, 1.0),
        (lambda x: np.log1p(x) / (1.0 + x * x), 0.0, 4.0),
    ],
)
def test_against_scipy_quad(f, lo, hi):
    expected, _ = sp_integrate.quad(
        lambda x: float(f(np.array([x]))[0]), lo, hi, epsabs=1e-13, epsrel=1e-13,
        limit=500,
    )
    assert integrate(f, lo, hi) == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_vector_integrand_matches_componentwise():
    def f(x):
        return np.stack([x * x, np.sin(x), np.exp(-x)], axis=-1)

    vec = integrate(f, 0.0, 2.0)
    assert vec.shape == (3,)
    for i, g in enumerate([lambda x: x * x, np.sin, lambda x: np.exp(-x)]):
        assert vec[i] == pytest.approx(integrate(g, 0.0, 2.0), rel=1e-10)


def test_unreachable_tolerance_raises_with_partial_result():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_depth=3)
    cusp = lambda x: np.sqrt(np.abs(x - 1.0 / math.pi))
    with pytest.raises(QuadratureAccuracyError) as err:
        integrate(cusp, 0.0, 1.0, spec)
    assert math.isfinite(float(err.value.estimate))
    assert err.value.error_bound > 0.0
    # The budgeted estimate is still in the right ballpark.
    exact = (
        (1.0 / math.pi) ** 1.5 + (1.0 - 1.0 / math.pi) ** 1.5
    ) * 2.0 / 3.0
    assert float(err.value.estimate) == pytest.approx(exact, rel=1e-3)


def test_non_vectorized_integrand_is_rejected():
    with pytest.raises(ValueError, match="vectorized"):
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_integrate2_matches_dblquad():
    value = integrate2(lambda x, y: np.exp(x * y), 0.0, 1.0, 0.0, 1.0)
    expected, _ = sp_integrate.dblquad(
        lambda y, x: math.exp(x * y), 0.0, 1.0, 0.0, 1.0,
        epsabs=1e-12, epsrel=1e-12,
    )
    assert value == pytest.approx(expected, rel=1e-9)


def test_integrate2_vector_components():
    def f(x, y):
        return np.stack(
            [np.exp(x * y), x * y * y + 0.0 * x], axis=-1
        )

    vec = integrate2(f, 0.0, 1.0, 0.25, 0.75, DEFAULT_QUADRATURE)
    assert vec.shape == (2,)
    exp_part, _ = sp_integrate.dblquad(
        lambda y, x: math.exp(x * y), 0.0, 1.0, 0.25, 0.75,
        epsabs=1e-12, epsrel=1e-12,
    )
    # integral of x*y^2 over [0,1]x[0.25,0.75] = 1/2 * (0.75^3-0.25^3)/3
    assert vec[0] == pytest.approx(exp_part, rel=1e-9)
    assert vec[1] == pytest.approx(0.5 * (0.75**3 - 0.25**3) / 3.0, rel=1e-11)


@pytest.mark.parametrize(
    "f",
    [
        lambda x, y: np.sqrt(np.abs(x - 1.0 / math.pi)) + 0.0 * y,
        lambda x, y: np.sqrt(np.abs(y - 1.0 / math.pi)) + 0.0 * x,
    ],
    ids=["cusp-in-x", "cusp-in-y"],
)
def test_integrate2_unreachable_tolerance_raises(f):
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_depth=3)
    with pytest.raises(QuadratureAccuracyError) as err:
        integrate2(f, 0.0, 1.0, 0.0, 1.0, spec)
    assert err.value.error_bound > 0.0


def test_integrate_handles_interior_cusps():
    f = lambda x: np.sqrt(np.abs(np.sin(13.0 * x)))
    expected, _ = sp_integrate.quad(
        lambda x: math.sqrt(abs(math.sin(13.0 * x))), 0.0, 2.0,
        epsabs=1e-12, epsrel=1e-12, limit=2000,
    )
    assert integrate(f, 0.0, 2.0) == pytest.approx(expected, rel=1e-8)


def test_refinement_is_batched_into_few_integrand_calls():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sqrt(np.abs(np.sin(13.0 * x)))

    integrate(f, 0.0, 2.0)
    # One call per refinement level, not two per bisected panel.
    assert len(calls) <= 40
    assert all(n % 15 == 0 for n in calls)


def test_wide_vector_integrand_matches_closed_form():
    freqs = np.linspace(0.1, 30.0, 300)
    vec = integrate(lambda x: np.sin(np.outer(x, freqs)), 0.0, 2.0)
    assert vec.shape == (300,)
    np.testing.assert_allclose(vec, (1.0 - np.cos(2.0 * freqs)) / freqs, rtol=1e-10)


def test_integrate2_diagonal_cusp():
    # The cusp of the inner integrand moves with the outer variable, so the
    # inner refinement of a batch of outer nodes is the union of theirs.
    value = integrate2(lambda x, y: np.sqrt(np.abs(x - y)), 0.0, 1.0, 0.0, 1.0)
    assert value == pytest.approx(8.0 / 15.0, rel=1e-8)


def test_integrate_is_deterministic():
    f = lambda x: np.sqrt(np.abs(np.sin(13.0 * x)))
    assert integrate(f, 0.0, 2.0) == integrate(f, 0.0, 2.0)


def test_random_source_reproduces_streams():
    a = RandomSource(seed=42).generator().uniform(size=5)
    b = RandomSource(seed=42).generator().uniform(size=5)
    np.testing.assert_array_equal(a, b)


def test_random_source_children_are_distinct():
    root = RandomSource(seed=7)
    left = root.child(0)
    right = root.child(1)
    assert left != right != root
    u_left = left.generator().uniform(size=4)
    u_right = right.generator().uniform(size=4)
    assert not np.allclose(u_left, u_right)


def test_random_source_rejects_non_integers():
    with pytest.raises(TypeError):
        RandomSource(seed=0.5)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)
