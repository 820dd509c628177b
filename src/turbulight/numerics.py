"""Deterministic adaptive quadrature.

Every ensemble average over a fluctuating transmittance in this package is
either a finite sum over atoms or an integral against a smooth density on a
subinterval of [0, 1].  Those integrals all funnel through the one adaptive
integrator defined here, :func:`integrate`, built on the classic (7, 15)
Gauss-Kronrod pair; two-mode averages are iterated 1D integrals
(:func:`integrate2`):

* the 7-point Gauss rule G7 and its 15-point Kronrod extension K15 share
  nodes, so one batch of integrand evaluations yields both a high-order
  estimate (K15, exact through degree 22 on a panel) and an error estimate
  |K15 - G7|;
* all 15 nodes are interior points of the panel.  The rule never touches
  panel endpoints, so integrable endpoint singularities (for instance the
  log-normal density at eta -> 0+) are integrated without special casing;
* panels are refined until the summed error bound of all panels meets
  the requested tolerance (global error control; a width-proportional
  local budget would never terminate on integrable cusps, whose panel
  error shrinks slower than the panel).  Refinement goes level by level:
  each step sorts the panels by error, worst first, bisects the fewest of
  them whose errors cover the excess over the tolerance, and evaluates
  all their children in one call of the integrand, so the Python cost is
  per level, not per panel.  The sort is stable and the final
  accumulation runs in panel-position order, so results are bit-for-bit
  reproducible run to run (no parallel reduction, no hashing).

Integrands may be scalar valued or vector valued (return an array for an
array of abscissas); vector integrands share one panel subdivision with the
error measured in the max norm, which is how the Bell-test averages evaluate
several correlated expectations in a single adaptive pass, and how the
inner integral of :func:`integrate2` treats a batch of outer nodes at once.
That inner integral is warm-started: each batch of outer nodes refines the
partition of y the previous batch ended with, not a single panel, under
the same tolerance and depth budget.

Refinement starts from one panel on [a, b] unless the caller passes
interior breakpoints (``points``; ``points_x`` / ``points_y`` for the two
axes of :func:`integrate2`), as in QUADPACK's ``qagp``: the starting panels
then run between consecutive breakpoints, all at depth 0.  A peak much
narrower than the first panel, whose 15 nodes all miss it, reads ~0 in
both K15 and G7 and is never refined; breakpoints that bracket it let the
rule see it, provided the peak leaves less than the tolerance outside
them (see :func:`integrate`).  Each transmittance law hands the rule its
average as a chart (``TransmittanceDistribution.chart``): limits,
breakpoints around its peaks, and a change of variables that makes a
singular end smooth.

If the depth budget runs out before the tolerance is met, the integrator
raises :class:`QuadratureAccuracyError` carrying its best estimate and a
bound on the remaining error, so callers can fail loudly instead of
silently returning garbage.

Tolerances are set where the quadrature runs.  :func:`integrate` and
:func:`integrate2` take a :class:`QuadratureSpec`; every average of the
package runs at :data:`DEFAULT_QUADRATURE`, except the count
distributions of :mod:`turbulight.photocount`, which pass their tighter
``_COUNT_QUADRATURE`` to ``TransmittanceDistribution.expectation``, the
one law-level average that takes a spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureAccuracyError",
    "DEFAULT_QUADRATURE",
    "integrate",
    "integrate2",
]


class special_on_first_use:
    """Stands in for ``scipy.special`` in one module's globals until first use.

    A module binds it as ``special = special_on_first_use(globals())``.
    Importing scipy.special takes ~0.1 s, more than a whole CLI run that
    calls no special function, so it is imported on the first attribute
    read.  That read also rebinds the module's global ``special`` to the
    real module, so every later ``special.f`` there is a plain module
    attribute read, as after an eager import: no per-call cost.
    """

    __slots__ = ("_module_globals",)

    def __init__(self, module_globals):
        self._module_globals = module_globals

    def __getattr__(self, name):
        from scipy import special

        self._module_globals["special"] = special
        return getattr(special, name)


# Nodes and weights of the (7, 15) Gauss-Kronrod pair on [-1, 1], QUADPACK
# values.  Positive half; the full rule is symmetric about zero.
_XGK_HALF = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK_HALF = (
    0.022935322010529224,
    0.063092092629978553,
    0.104790010322250184,
    0.140653259715525919,
    0.169004726639267903,
    0.190350578064785410,
    0.204432940075298894,
)
_WGK_CENTER = 0.209482141084727828
# Gauss weights belong to the odd-indexed Kronrod nodes (and the center).
_WG_HALF = (
    0.129484966168869693,
    0.279705391489276668,
    0.381830050505118945,
)
_WG_CENTER = 0.417959183673469388


def _build_rule():
    nodes = np.array([-x for x in _XGK_HALF] + [0.0] + [x for x in reversed(_XGK_HALF)])
    wk = np.array(list(_WGK_HALF) + [_WGK_CENTER] + list(reversed(_WGK_HALF)))
    wg = np.zeros(15)
    for i, w in enumerate(_WG_HALF):
        # Gauss nodes sit at Kronrod indices 1, 3, 5 (and mirrored 13, 11, 9).
        wg[2 * i + 1] = w
        wg[13 - 2 * i] = w
    wg[7] = _WG_CENTER
    return nodes, wk, wg


_NODES, _WK, _WG = _build_rule()
_KG = np.stack([_WK, _WK - _WG])


class QuadratureAccuracyError(RuntimeError):
    """Requested tolerance was not reached within the subdivision budget.

    Attributes
    ----------
    estimate : float or ndarray
        Best available value of the integral.
    error_bound : float
        Bound on the absolute error of ``estimate`` (max norm for vector
        integrands).
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy/budget knobs for the adaptive integrators.

    rel_tol and abs_tol combine into the acceptance threshold
    ``max(abs_tol, rel_tol * |I|)`` where |I| is the max-norm of the
    first whole-domain estimate.  max_depth limits how many times any
    panel may be bisected (panel width shrinks as 2**-depth).  The
    default of 60 is for raw :func:`integrate` callers whose integrand is
    singular at an endpoint, which refine for about fifty levels.  No
    law's ``chart`` hands the integrator such an integrand, and smooth
    ones never get near the budget.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _panels_1d(f, lo, hi):
    """K15 values and max-norm |K15 - G7| errors of the panels [lo, hi].

    The nodes of all panels go to ``f`` in one call, panel after panel.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _NODES).reshape(-1)
    fx = np.asarray(f(x))
    if fx.shape[:1] != x.shape:
        raise ValueError(
            "integrand must be vectorized: f(x) must return an array whose "
            "leading axis matches x"
        )
    # Row 0 of _KG gives K15, row 1 gives K15 - G7, per panel and component.
    kg = (_KG @ fx.reshape(lo.size, 15, -1)) * half[:, None, None]
    err = np.abs(kg[:, 1]).max(axis=1)
    return kg[:, 0].reshape(lo.shape + fx.shape[1:]), err


def integrate(f, a, b, spec=DEFAULT_QUADRATURE, points=()):
    """Adaptively integrate a vectorized function over [a, b].

    Parameters
    ----------
    f : callable
        Maps an ndarray of abscissas of shape (n,) to an ndarray of values
        of shape (n,) or (n, m) for vector integrands.  One call may carry
        the nodes of many panels, so n is any multiple of 15.
    a, b : float
        Integration limits, a <= b.  Endpoints are never evaluated.
    spec : QuadratureSpec
        Tolerances and subdivision budget.
    points : sequence of float
        Interior breakpoints, as in QUADPACK's ``qagp``: refinement starts
        from the panels between consecutive points instead of from [a, b]
        alone.  Points outside the open interval (a, b) are dropped and
        repeated points merged; every starting panel has depth 0.  Points
        that bracket a peak the first panel would miss let the rule find
        it only if the peak's mass outside them is below the tolerance:
        no node comes within 0.4 % of a panel's width of its ends, so a
        tail that runs into a wide neighbouring panel can read ~0 in K15
        and G7 alike and is lost without an error.  On [0, 1],
        exp(-((x - 0.37) / 1e-4)**2) with points 0.37 +- 2e-4 (2 widths of
        the peak) comes out 0.47 % low; with 0.37 +- 1e-3 it is exact.  A
        point at the peak's centre alone does not find it either.

    Returns
    -------
    float or ndarray
        The integral, within the requested tolerance.

    Raises
    ------
    ValueError
        If a limit or a point is not finite, or b < a.
    QuadratureAccuracyError
        If the subdivision budget is exhausted first; the exception carries
        the best estimate and an error bound.

    Notes
    -----
    Mass within ~1e-16 of a finite endpoint is invisible to the rule: no
    double there can be a node, so the deepest panels' K15 and G7 see the
    same values and agree.  For an integrand singular at an endpoint the
    "meets its tolerance or raises" promise therefore does not hold:
    ``integrate(lambda y: 1 / np.sqrt(1 - y), 0, 1)`` returns 2 - 1.05e-8
    (5.3e-9 relative against ``rel_tol`` 1e-9) without raising.  No
    average over a law meets this: each law's ``chart`` hands over an
    integrand that is smooth at the ends.  Nor can the rule find a peak far
    narrower than its starting panels whose nodes all miss it: K15 and G7
    then both read ~0.  Bracket such a peak with ``points``.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if b < a:
        raise ValueError("integration requires a <= b")
    if a == b:
        return 0.0

    result, _ = _refine(f, *_partition(a, b, points), spec)
    return result


def _partition(a, b, points):
    """The partition (lo, hi, depth) of [a, b] at the points inside (a, b).

    Points outside the open interval are dropped and repeated ones merged;
    every panel has depth 0.  Non-finite points raise ``ValueError``.
    """
    if not all(math.isfinite(p) for p in points):
        raise ValueError("breakpoints must be finite")
    inside = sorted({float(p) for p in points if a < p < b})
    lo = np.array([a, *inside], dtype=float)
    hi = np.array([*inside, b], dtype=float)
    return lo, hi, np.zeros(lo.size, dtype=int)


def _refine(f, lo, hi, depth, spec):
    """Refine the partition (lo, hi, depth) of an interval until it meets spec.

    The panels must tile the interval in position order; ``depth`` counts
    the bisections behind each.  The tolerance scale is the max-norm of the
    summed K15 values of the starting panels.  Returns the integral and the
    final partition, in position order; raises
    :class:`QuadratureAccuracyError` as :func:`integrate` does.
    """
    a, b = float(lo[0]), float(hi[-1])
    val, err = _panels_1d(f, lo, hi)
    scale = max(float(np.abs(val.sum(axis=0)).max()), 1e-300)
    tol = max(spec.abs_tol, spec.rel_tol * scale)
    min_width = 1e-16 * (b - a)

    exhausted = False
    err_total = float(np.sum(err))
    while err_total > tol:
        splittable = (depth < spec.max_depth) & (hi - lo > min_width)
        # A single unsplittable panel over the whole budget cannot be
        # rescued by work elsewhere.
        if not splittable.any() or np.any(err[~splittable] > tol):
            exhausted = True
            break
        # Worst first, in one batch: split the fewest panels whose error,
        # were it removed, would bring the total within tolerance.
        cand = np.flatnonzero(splittable)
        cand = cand[np.argsort(-err[cand], kind="stable")]
        need = np.searchsorted(np.cumsum(err[cand]), err_total - tol)
        split = cand[: need + 1]
        start, end = lo[split], hi[split]
        mid = 0.5 * (start + end)
        n = split.size
        new_val, new_err = _panels_1d(
            f, np.concatenate([start, mid]), np.concatenate([mid, end])
        )
        # The left child takes its parent's slot; the right one is appended.
        hi[split] = mid
        depth[split] += 1
        val[split] = new_val[:n]
        err[split] = new_err[:n]
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, end])
        depth = np.concatenate([depth, depth[split]])
        val = np.concatenate([val, new_val[n:]])
        err = np.concatenate([err, new_err[n:]])
        err_total = float(np.sum(err))

    # Summing in panel-position order fixes the order of the additions.
    order = np.argsort(lo, kind="stable")
    total = val[order].sum(axis=0)
    result = total if total.ndim else float(total)
    if exhausted:
        raise QuadratureAccuracyError(
            f"quadrature on [{a!r}, {b!r}] did not reach tolerance "
            f"{tol:.3e} within depth {spec.max_depth} "
            f"(error bound {err_total:.3e})",
            estimate=result,
            error_bound=err_total,
        )
    return result, (lo[order], hi[order], depth[order])


def integrate2(f, ax, bx, ay, by, spec=DEFAULT_QUADRATURE, points_x=(), points_y=()):
    """Integrate over the rectangle [ax, bx] x [ay, by] as an iterated integral.

    The outer :func:`integrate` runs over x; for each batch of outer nodes
    its integrand is one vector-valued inner integral over y whose
    components are those nodes, so each axis is refined only where it needs
    it.  Each inner integral starts from the partition of y the previous
    batch ended with (panel depths included), so hard spots at fixed y are
    found once, not once per outer level.  ``points_x`` and ``points_y`` are
    interior breakpoints of each axis, with the meaning they have in
    :func:`integrate`: the outer integral starts from ``points_x``, the first
    inner one from ``points_y``.  Both levels use ``spec``, and an inner
    failure propagates as :class:`QuadratureAccuracyError`.  ``f`` must
    broadcast over a column of x values against a row of y values and may be
    vector valued (trailing axes beyond the first two are carried through).
    """
    for v in (ax, bx, ay, by):
        if not np.isfinite(v):
            raise ValueError("integration limits must be finite")
    if bx < ax or by < ay:
        raise ValueError("integration requires ax <= bx and ay <= by")
    if ax == bx or ay == by:
        return 0.0

    partition = _partition(ay, by, points_y)

    def over_y(x):
        nonlocal partition

        def column(y):
            fxy = np.asarray(f(x[:, None], y[None, :]))
            if fxy.shape[:2] != (x.size, y.size):
                raise ValueError(
                    "2D integrand must broadcast: f(x[:, None], y[None, :]) "
                    "must return an array with leading shape (nx, ny)"
                )
            return np.moveaxis(fxy, 0, -1)

        inner, partition = _refine(column, *partition, spec)
        return np.moveaxis(np.asarray(inner), -1, 0)

    return integrate(over_y, ax, bx, spec, points=points_x)

