"""Independent reference values for every result the benchmark checks.

Each transmittance law is described by a plain spec dictionary (see
``workloads.py``).  The reference discretizes a continuous law by composite
Gauss-Legendre quadrature in the quantile variable u, with eta = F^-1(u):
the panels in u are graded geometrically toward u = 0 and u = 1, so the
density's endpoint behaviour (log-normal cusps, arcsine singularities,
very narrow peaks) turns into smooth, bounded integrands in u.  Atomic
laws keep their atoms.  The minimum of two independent laws (the
``AdaptiveCorrelated`` channel) gets the same treatment in the survival
variable of the minimum (:func:`min_law`), or an exact atom list when both
laws are atomic (:func:`min_atoms`).  The quantile functions, survival
functions and the
closed-form moments used to self-check the rule are written here from
scipy primitives, so no reference value ever goes through
``turbulight.numerics.integrate`` / ``integrate2`` or through the library's
transmittance-law classes.

The library's physics formulas (Bell polynomials, count distributions,
squeezing and certifier transfer) are reused: :class:`RefLaw` and
:class:`RefJoint` duck-type the law interfaces those formulas read
(``moment``, ``expectation``, ``support``, ``truncate``; ``average``,
``t_moment``, ``support_inf``), and answer with weighted node sums.  What the
reference checks is therefore the averaging layer: closed forms, atom sums
and adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from turbulight import EmptySelectionError

# 40 geometric levels toward each end of [0, 1] and 8 Gauss-Legendre nodes
# per panel: 80 panels, 640 nodes per continuous law.  Forty levels reach
# the quantile-function singularities at u = 0 and u = 1 (for instance the
# log-normal's conditioning at eta = 1, which sits ~1e-10 from u = 1 for
# mu = ln 0.05, sigma = 0.5); sixteen levels left errors of ~6e-7 there.
LEVELS = 40
NODES_PER_PANEL = 8
# Self-check tolerance of the rule against closed-form moments.
SELF_CHECK_RTOL = 1e-10


def _unit_rule(levels=LEVELS, n=NODES_PER_PANEL):
    """Nodes u, complements 1 - u and weights of the graded rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    edges = [0.0] + [2.0**-k for k in range(levels, 0, -1)]  # 0 .. 1/2
    lower_u, lower_w = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        lower_u.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        lower_w.append(0.5 * (b - a) * w)
    lower_u = np.concatenate(lower_u)
    lower_w = np.concatenate(lower_w)
    # Upper half mirrors the lower half; carrying 1 - u separately keeps
    # full relative precision of the upper tail.
    u = np.concatenate([lower_u, 1.0 - lower_u[::-1]])
    v = np.concatenate([1.0 - lower_u, lower_u[::-1]])
    weights = np.concatenate([lower_w, lower_w[::-1]])
    return u, v, weights


_U, _V, _W = _unit_rule()
# Panel edges of the rule, as (u, 1 - u).
_HALF = np.array([0.0] + [2.0**-k for k in range(LEVELS, 0, -1)])
_EDGES_U = np.concatenate([_HALF, 1.0 - _HALF[::-1][1:]])
_EDGES_V = np.concatenate([1.0 - _HALF, _HALF[::-1][1:]])
_BISECTIONS = 64


def _lognormal_bounds(mu, sigma, lo):
    z_lo = (math.log(lo) - mu) / sigma if lo > 0.0 else -math.inf
    z_hi = -mu / sigma
    return z_lo, z_hi


def _lognormal_quantile(mu, sigma, lo, u, v):
    z_lo, z_hi = _lognormal_bounds(mu, sigma, lo)
    p_lo, p_hi = special.ndtr(z_lo), special.ndtr(z_hi)
    q_lo, q_hi = special.ndtr(-z_lo), special.ndtr(-z_hi)
    if z_lo > 0.0:
        # Upper tail: invert the survival function for precision.
        z = -special.ndtri(q_lo * v + q_hi * u)
    else:
        z = special.ndtri(p_lo * v + p_hi * u)
    return np.exp(mu + sigma * z)


def _beta_quantile(p, q, lo, u, v):
    i_lo = special.betainc(p, q, lo) if lo > 0.0 else 0.0
    c = i_lo + u * (1.0 - i_lo)
    upper = 1.0 - special.betaincinv(q, p, (1.0 - i_lo) * v)
    return np.where(c < 0.5, special.betaincinv(p, q, c), upper)


def quantile(spec, u, v=None):
    """F^-1(u) of the law described by ``spec``; ``v`` = 1 - u if known."""
    u = np.asarray(u, dtype=float)
    v = 1.0 - u if v is None else np.asarray(v, dtype=float)
    lo = spec.get("lo", 0.0)
    family = spec["family"]
    if family == "lognormal":
        return np.clip(_lognormal_quantile(spec["mu"], spec["sigma"], lo, u, v), lo, 1.0)
    if family == "beta":
        return np.clip(_beta_quantile(spec["p"], spec["q"], lo, u, v), lo, 1.0)
    etas, weights = nodes(spec)
    order = np.argsort(etas, kind="stable")
    cdf = np.cumsum(weights[order])
    return etas[order][np.minimum(np.searchsorted(cdf, u * cdf[-1]), etas.size - 1)]


def nodes(spec):
    """(etas, weights) discretizing the law described by ``spec``."""
    if spec["family"] == "empirical":
        etas = np.asarray(spec["etas"], dtype=float)
        weights = np.asarray(spec["weights"], dtype=float)
        keep = etas >= spec.get("lo", 0.0)
        etas, weights = etas[keep], weights[keep]
        return etas, weights / math.fsum(weights)
    return quantile(spec, _U, _V), _W


def survival(spec, eta, include_equal=False):
    """P(X > eta) (or P(X >= eta)) for the law described by ``spec``."""
    eta = np.asarray(eta, dtype=float)
    lo = spec.get("lo", 0.0)
    family = spec["family"]
    if family == "empirical":
        etas, weights = nodes(spec)
        order = np.argsort(etas, kind="stable")
        etas, weights = etas[order], weights[order]
        tail = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
        side = "left" if include_equal else "right"
        return tail[np.searchsorted(etas, eta, side=side)]
    safe = np.clip(eta, max(lo, 1e-300), 1.0)
    if family == "lognormal":
        z_lo, z_hi = _lognormal_bounds(spec["mu"], spec["sigma"], lo)
        z = (np.log(safe) - spec["mu"]) / spec["sigma"]
        # Survival-side differences keep precision in the upper tail.
        surv = (special.ndtr(-z) - special.ndtr(-z_hi)) / (
            special.ndtr(-z_lo) - special.ndtr(-z_hi)
        )
    elif family == "beta":
        p, q = spec["p"], spec["q"]
        surv = special.betainc(q, p, 1.0 - safe) / special.betainc(q, p, 1.0 - lo)
    else:
        raise ValueError(f"unknown law family {family!r}")
    return np.where(eta <= lo, 1.0, np.where(eta >= 1.0, 0.0, surv))


def closed_moment(spec, k):
    """<eta**k> in closed form (continuous families only)."""
    lo = spec.get("lo", 0.0)
    if spec["family"] == "lognormal":
        mu, sigma = spec["mu"], spec["sigma"]
        z_lo, z_hi = _lognormal_bounds(mu, sigma, lo)
        mass = special.ndtr(-z_lo) - special.ndtr(-z_hi)
        part = special.ndtr(-z_lo + k * sigma) - special.ndtr(-z_hi + k * sigma)
        return math.exp(k * mu + 0.5 * k * k * sigma * sigma) * part / mass
    if spec["family"] == "beta":
        p, q = spec["p"], spec["q"]
        ratio = math.exp(special.betaln(p + k, q) - special.betaln(p, q))
        upper = special.betainc(q, p + k, 1.0 - lo)
        return ratio * upper / special.betainc(q, p, 1.0 - lo)
    raise ValueError("closed-form moments exist only for continuous families")


def self_check(spec, orders=(0.5, 1.0, 2.0)):
    """Worst relative error of the rule's moments against the closed forms.

    Returns 0.0 for atomic laws, whose reference is exact.
    """
    if spec["family"] == "empirical":
        return 0.0
    etas, weights = nodes(spec)
    errors = [abs(math.fsum(weights) - 1.0)]
    for k in orders:
        exact = closed_moment(spec, k)
        errors.append(abs(math.fsum(weights * etas**k) - exact) / abs(exact))
    return _worst(errors)


def _worst(errors):
    """Largest error; infinite if any is not a number."""
    return max(errors) if all(math.isfinite(e) for e in errors) else math.inf


def truncated(spec, threshold):
    """Spec of the law restricted to [threshold, 1], or None if empty."""
    out = dict(spec)
    out["lo"] = max(spec.get("lo", 0.0), float(threshold))
    if spec["family"] == "empirical":
        if not any(e >= out["lo"] for e in spec["etas"]):
            return None
    return out


class RefLaw:
    """One-mode law answered from the reference nodes."""

    def __init__(self, spec):
        worst = self_check(spec)
        if not worst <= SELF_CHECK_RTOL:
            raise RuntimeError(
                f"reference rule failed its self-check on {spec_label(spec)}: "
                f"moment error {worst:.3e}"
            )
        self.spec = spec
        self.etas, self.weights = nodes(spec)

    @property
    def support(self):
        return (float(self.etas.min()), float(self.etas.max()))

    def expectation(self, f, spec=None):
        values = np.asarray(f(self.etas))
        return np.tensordot(self.weights, values, axes=(0, 0))

    def moment(self, k, spec=None):
        if k == 0:
            return 1.0
        return float(np.dot(self.weights, self.etas**k))

    def truncate(self, threshold):
        selected = truncated(self.spec, threshold)
        if selected is None:
            raise EmptySelectionError(threshold, 0.0)
        return ref_law(selected)


class RefJoint:
    """Two-mode law answered from the reference nodes.

    kind is "product" (independent arms), "correlated" (one shared
    realization) or "adaptive" (both modes see min(eta_a, eta_b)).
    """

    _ROWS = 32  # product grid rows per integrand call, bounds memory

    def __init__(self, kind, a, b=None):
        self.kind = kind
        self.a = ref_law(a)
        self.b = ref_law(b) if b is not None else None
        if kind != "adaptive":
            return
        atomic = (a["family"] == "empirical", b["family"] == "empirical")
        if all(atomic):
            self._min = min_atoms(a, b)
        elif not any(atomic):
            self._min = min_law(a, b)
            worst = min_self_check(a, b, *self._min)
            if not worst <= SELF_CHECK_RTOL:
                raise RuntimeError(
                    f"min-law rule failed its self-check on {spec_label(a)} and "
                    f"{spec_label(b)}: error {worst:.3e}"
                )
        else:
            raise ValueError("adaptive reference needs both arms atomic or both continuous")

    @property
    def support_inf(self):
        if self.kind == "product":
            return (self.a.support[0], self.b.support[0])
        lo = self.a.support[0] if self.b is None else min(
            self.a.support[0], self.b.support[0]
        )
        return (lo, lo)

    def average(self, f, spec=None):
        if self.kind == "correlated":
            return self.a.expectation(lambda e: f(e, e))
        if self.kind == "product":
            ea, wa = self.a.etas, self.a.weights
            eb, wb = self.b.etas, self.b.weights
            total = 0.0
            for s in range(0, ea.size, self._ROWS):
                block = np.asarray(f(ea[s:s + self._ROWS, None], eb[None, :]))
                total = total + np.tensordot(
                    wa[s:s + self._ROWS], np.tensordot(wb, block, axes=(0, 1)), axes=(0, 0)
                )
            return total
        etas, weights = self._min
        return np.tensordot(weights, np.asarray(f(etas, etas)), axes=(0, 0))

    def t_moment(self, j, k, spec=None):
        return float(self.average(lambda x, y: np.power(x, j / 2.0) * np.power(y, k / 2.0)))

    def preselect(self, threshold):
        a = truncated(self.a.spec, threshold)
        b = truncated(self.b.spec, threshold) if self.b is not None else None
        if a is None or (self.b is not None and b is None):
            raise EmptySelectionError(threshold, 0.0)
        return ref_joint(self.kind, a, b)


_BUILT = {}


def _key(spec):
    return None if spec is None else tuple(sorted(spec.items()))


def ref_law(spec):
    """The RefLaw of ``spec``, built once per distinct spec.

    Checking a run meets the same laws (a pool, a fixed threshold grid) in
    many calls; each is discretized and self-checked once.
    """
    key = ("law", _key(spec))
    if key not in _BUILT:
        _BUILT[key] = RefLaw(spec)
    return _BUILT[key]


def ref_joint(kind, a, b=None):
    """The RefJoint of a channel, built once per distinct channel."""
    key = (kind, _key(a), _key(b))
    if key not in _BUILT:
        _BUILT[key] = RefJoint(kind, a, b)
    return _BUILT[key]


def min_law(a, b):
    """Nodes and weights of min(X, Y) for independent continuous X and Y.

    The survival function of the minimum is S(m) = S_X(m) S_Y(m), and S(min)
    is uniform on [0, 1], so E[h(min)] is the integral of h(S^-1(s)) over s.
    The panels in s are the images of both laws' graded quantile edges,
    so a narrow law's step-like survival function sits on panel
    boundaries instead of inside a panel.  Nodes are found by bisection of
    S inside their panel.
    """
    edges = np.unique(np.concatenate([quantile(a, _EDGES_U, _EDGES_V),
                                      quantile(b, _EDGES_U, _EDGES_V)]))
    s = survival(a, edges, True) * survival(b, edges, True)
    panel = np.flatnonzero(s[:-1] > s[1:])
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    hi_s, lo_s = s[panel][:, None], s[panel + 1][:, None]
    target = (lo_s + 0.5 * (hi_s - lo_s) * (1.0 - x)).ravel()
    weights = (0.5 * (hi_s - lo_s) * w).ravel()
    left = np.repeat(edges[panel], x.size)
    right = np.repeat(edges[panel + 1], x.size)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (left + right)
        above = survival(a, mid, True) * survival(b, mid, True) > target
        left = np.where(above, mid, left)
        right = np.where(above, right, mid)
    return 0.5 * (left + right), weights


def min_self_check(a, b, etas, weights):
    """Relative error of the min-law rule's mean against the integral of S."""
    edges = np.unique(np.concatenate([quantile(a, _EDGES_U, _EDGES_V),
                                      quantile(b, _EDGES_U, _EDGES_V)]))
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * x).ravel()
    # E[min] = integral of S over [0, 1]; S = 1 below the lowest edge.
    exact = edges[0] + math.fsum(
        (half[:, None] * w).ravel() * survival(a, t, True) * survival(b, t, True)
    )
    return _worst([abs(math.fsum(weights) - 1.0), abs(math.fsum(weights * etas) - exact) / exact])


def min_atoms(a, b):
    """Exact law of min(X, Y) for independent atomic X and Y."""
    ea, _ = nodes(a)
    eb, _ = nodes(b)
    support = np.unique(np.concatenate([ea, eb]))
    at_least = survival(a, support, True) * survival(b, support, True)
    weights = at_least - np.concatenate([at_least[1:], [0.0]])
    return support, weights


def spec_label(spec):
    family = spec["family"]
    lo = spec.get("lo", 0.0)
    tail = f", lo={lo:.4g}" if lo else ""
    if family == "lognormal":
        return f"LogNormal(mu={spec['mu']:.4g}, sigma={spec['sigma']:.4g}{tail})"
    if family == "beta":
        return f"Beta({spec['p']:.4g}, {spec['q']:.4g}{tail})"
    return f"Empirical({len(spec['etas'])} bins{tail})"
