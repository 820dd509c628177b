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


def test_integrate2_reuses_inner_partition_across_outer_levels():
    # Both hard spots sit at fixed places (sqrt(x) at x = 0, 1/sqrt(y) at
    # y = 0), so each batch of outer nodes can start its inner integral
    # where the previous batch ended instead of bisecting down again.
    calls = []

    def f(x, y):
        calls.append(1)
        return np.exp(-x * y) * np.sqrt(x) / np.sqrt(y)

    value = integrate2(f, 0.0, 1.0, 0.0, 1.0)
    # Termwise in the series of exp(-xy):
    # sum_n (-1)^n / n! / ((n + 3/2)(n + 1/2)).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        exact = float(mpmath.nsum(
            lambda n: (-1) ** n / mpmath.factorial(n) / ((n + 1.5) * (n + 0.5)),
            [0, mpmath.inf],
        ))
    assert value == pytest.approx(exact, rel=1e-9)
    # Starting every inner integral from the single panel took 730 calls.
    assert len(calls) <= 150


def test_integrate2_depth_budget_holds_after_warm_start():
    # The first batch of outer nodes sees a faint cusp at y = 1/pi and
    # refines it within the budget; a later batch, closer to the bump at
    # x = 0.55, needs more depth there than the budget leaves.
    spec = QuadratureSpec(max_depth=12)
    batches = []

    def f(x, y):
        batches.append(x.shape[0])
        bump = np.exp(-(((x - 0.55) / 0.02) ** 2))
        return 1.0 + bump * np.sqrt(np.abs(y - 1.0 / math.pi))

    with pytest.raises(QuadratureAccuracyError) as err:
        integrate2(f, 0.0, 1.0, 0.0, 1.0, spec)
    assert max(batches) > 15  # it failed after the first outer level
    assert np.all(np.isfinite(err.value.estimate))
    assert err.value.error_bound > 0.0
    # With a larger budget the same integral succeeds.
    assert math.isfinite(integrate2(f, 0.0, 1.0, 0.0, 1.0, QuadratureSpec(max_depth=16)))

# A bump far narrower than the first panel: its 15 nodes on [0, 1] all miss
# it, so K15 and G7 both read ~0 and nothing is refined.  Points must
# bracket it: no node comes within 0.4 % of a panel's width of its ends, so
# a point at the centre alone leaves the rule blind (1e-111), and points two
# widths either side miss the 0.5 % of mass beyond them without a raise.
_BUMP_AT, _BUMP_WIDTH = 0.37, 1e-4
_BUMP_INTEGRAL = math.sqrt(math.pi) * _BUMP_WIDTH  # tails beyond [0, 1] < 1e-300
_BUMP_POINTS = [_BUMP_AT - 8.0 * _BUMP_WIDTH, _BUMP_AT + 8.0 * _BUMP_WIDTH]


def _bump(x):
    return np.exp(-(((x - _BUMP_AT) / _BUMP_WIDTH) ** 2))


def _panel_widths(calls):
    """Widths of the panels whose nodes were in each recorded call."""
    nodes = np.concatenate(calls).reshape(-1, 15)
    # The outermost Kronrod nodes sit at +-0.99145537... of the half-width.
    return (nodes[:, -1] - nodes[:, 0]) / 0.9914553711208126


def test_points_outside_or_repeated_are_dropped():
    f = lambda x: np.exp(-x) * np.cos(7.0 * x)
    plain = integrate(f, 0.0, 1.0)
    # Points at or beyond the limits leave the one starting panel.
    assert integrate(f, 0.0, 1.0, points=[-1.0, 0.0, 1.0, 2.5]) == plain
    assert integrate(f, 0.0, 1.0, points=()) == plain
    # Repeated points are merged: three starting panels, not five.
    first = []

    def spy(x):
        first.append(x.size)
        return f(x)

    merged = integrate(spy, 0.0, 1.0, points=[0.6, 0.25, 0.6, 0.25, 1.0])
    assert first[0] == 3 * 15
    assert merged == integrate(f, 0.0, 1.0, points=[0.25, 0.6])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        integrate(np.exp, 0.0, 1.0, points=[0.5, bad])
    f = lambda x, y: x + y
    with pytest.raises(ValueError, match="finite"):
        integrate2(f, 0.0, 1.0, 0.0, 1.0, points_x=[bad])
    with pytest.raises(ValueError, match="finite"):
        integrate2(f, 0.0, 1.0, 0.0, 1.0, points_y=[bad])


def test_points_leave_smooth_integrals_unchanged():
    f = lambda x: np.log1p(x) / (1.0 + x * x)
    plain = integrate(f, 0.0, 4.0)
    assert integrate(f, 0.0, 4.0, points=[0.1, 1.0, 3.99]) == pytest.approx(plain, rel=1e-9)
    g = lambda x, y: np.exp(x * y)
    plain2 = integrate2(g, 0.0, 1.0, 0.0, 1.0)
    with_points = integrate2(g, 0.0, 1.0, 0.0, 1.0, points_x=[0.3], points_y=[0.5, 0.9])
    assert with_points == pytest.approx(plain2, rel=1e-9)


def test_point_at_narrow_bump_finds_it():
    assert integrate(_bump, 0.0, 1.0, points=_BUMP_POINTS) == pytest.approx(
        _BUMP_INTEGRAL, rel=1e-9
    )


@pytest.mark.parametrize("axis", ["x", "y"])
def test_integrate2_point_at_narrow_bump_finds_it(axis):
    # The bump sits on one axis, a smooth factor with integral 3/2 on the other.
    if axis == "x":
        f = lambda x, y: _bump(x) * (1.0 + y)
        points = dict(points_x=_BUMP_POINTS)
    else:
        f = lambda x, y: (1.0 + x) * _bump(y)
        points = dict(points_y=_BUMP_POINTS)
    value = integrate2(f, 0.0, 1.0, 0.0, 1.0, **points)
    assert value == pytest.approx(1.5 * _BUMP_INTEGRAL, rel=1e-9)


def test_max_depth_bounds_panels_started_from_points():
    # Every starting panel has depth 0, so no panel is narrower than its
    # starting panel times 2**-max_depth, and a cusp that needs more raises.
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_depth=4)
    calls = []

    def cusp(x):
        calls.append(x)
        return np.sqrt(np.abs(x - 1.0 / math.pi))

    with pytest.raises(QuadratureAccuracyError):
        integrate(cusp, 0.0, 1.0, spec, points=[0.25, 0.5])
    widths = _panel_widths(calls)
    assert widths.min() == pytest.approx(0.25 * 2.0**-4, rel=1e-12)
    # The same bound holds along y in integrate2, whose inner partition
    # starts from points_y.
    ys = []

    def cusp2(x, y):
        ys.append(y.ravel())
        return np.sqrt(np.abs(y - 1.0 / math.pi)) + 0.0 * x

    with pytest.raises(QuadratureAccuracyError):
        integrate2(cusp2, 0.0, 1.0, 0.0, 1.0, spec, points_y=[0.25, 0.5])
    assert _panel_widths(ys).min() == pytest.approx(0.25 * 2.0**-4, rel=1e-12)


def test_integrate_is_deterministic():
    f = lambda x: np.sqrt(np.abs(np.sin(13.0 * x)))
    assert integrate(f, 0.0, 2.0) == integrate(f, 0.0, 2.0)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)
    # Wrongly typed or unbounded knobs get the spec's own ValueError; an
    # infinite tolerance would return the unrefined first estimate.
    for bad in ("x", math.inf, math.nan):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(ValueError, match="abs_tol"):
            QuadratureSpec(abs_tol=bad)
    for bad in ("x", 2.5, True, None):
        with pytest.raises(ValueError, match="max_depth"):
            QuadratureSpec(max_depth=bad)
    assert QuadratureSpec(max_depth=np.int64(3)).max_depth == 3
