"""Seeded workload generators and the library calls they drive.

A workload is an endless sequence of rounds; round k of a workload is a
pure function of (seed, k).  Every round of a workload has the same
composition -- the same call kinds on the same law families, with the
continuous parameters drawn inside fixed design cells -- so runs under
different seeds do the same kind and amount of work, and their figures
compare.

Transmittance laws travel as spec dictionaries::

    {"family": "lognormal", "mu": ..., "sigma": ..., "lo": ...}
    {"family": "beta", "p": ..., "q": ..., "lo": ...}
    {"family": "empirical", "etas": (...), "weights": (...)}

``build_law`` / ``build_joint`` turn specs into library objects; the
reference (``reference.py``) reads the same specs independently.

``bell-2d``
    CHSH values on ``Product`` channels: 2D Gauss-Kronrod quadrature and
    the Bell integrand dominate.  Arm laws are fresh for every call (low
    law reuse).
``averages-1d``
    One pool of laws per run, reused by every round (high law reuse):
    Bell sweeps on ``PerfectlyCorrelated`` and ``AdaptiveCorrelated``
    channels, certifier and moment transfer on ``AdaptiveCorrelated``,
    count distributions, the O(N*M) ``AdaptiveCorrelated(Empirical,
    Empirical)`` average, and closed-form sweeps.  1D quadrature, survival
    functions and photocount integrands; never ``integrate2``.

Every round of a library workload holds the same calls, each with a fixed
``slot`` number, up to a small jitter of their parameters.  Inputs on which
the library fails today (narrow log-normal laws, the arcsine Fock count
distribution, the 2D Beta cliff) are kept apart in :func:`defect_calls`.
``cli-configs``
    The six runnable committed configs, one ``turbulight.cli`` process
    each, in seed-shuffled order per round (see ``worker.py``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

import turbulight as tl
from reference import quantile, spec_label

WORKLOADS = ("bell-2d", "averages-1d", "cli-configs")

# Wall budget of one library call, per result it delivers (a 4-point sweep
# gets four times this).  The slowest healthy call in these workloads took
# at most 1.1 s on a busy 2-core x86-64 box, so only a hang meets it.
BUDGET_PER_POINT_S = 10.0
# Wall budget of one known-defect call: the 2D Beta cliff takes about a
# minute and is cut here.
DEFECT_BUDGET_S = 2.0

# The committed configs that run; entanglement_regression.json is a test
# fixture that exits 2 and is left out.
CLI_CONFIGS = (
    "bell_preselection.json",
    "bell_squeezing.json",
    "dgcz_domain.json",
    "mandel_uniform.json",
    "pdt_info_empirical.json",
    "squeeze_postselect.json",
)

_LN_MU = (math.log(0.05), math.log(0.6))
_SIGMA = (0.2, 1.2)
_NARROW_SIGMA = (0.002, 0.03)
_SHAPE = (2.0, 8.0)


def _rng(seed, *tags):
    return np.random.default_rng([seed, *tags])


def _lognormal(mu, sigma):
    return {"family": "lognormal", "mu": float(mu), "sigma": float(sigma)}


def _beta(p, q):
    return {"family": "beta", "p": float(p), "q": float(q)}


def _empirical(rng, bins):
    etas = np.sort(rng.uniform(0.01, 1.0, bins))
    weights = rng.uniform(0.0, 1.0, bins)
    return {
        "family": "empirical",
        "etas": tuple(float(e) for e in etas),
        "weights": tuple(float(w) for w in weights),
    }


def _cell(rng, lo, hi, i, n):
    """A draw from the central twentieth of cell i of n equal cells of [lo, hi].

    Call cost varies by orders of magnitude, and irregularly, with the law
    parameters, the squeezing and the detector, so every parameter of a
    call slot is pinned to a fixed design cell and jittered only a little:
    under any seed a round makes the same calls up to that jitter, and
    latency percentiles of different seeds compare.
    """
    width = (hi - lo) / n
    return lo + width * (i + 0.475 + 0.05 * rng.random())


def _cells(rng, lo, hi, n):
    """An n-point grid over [lo, hi], one jittered point per cell."""
    return [_cell(rng, lo, hi, j, n) for j in range(n)]


def _detector(rng, i):
    """Detector of design cell i: efficiency in [0.6, 1], noise in [1e-5, 1e-2]."""
    return {
        "efficiency": _cell(rng, 0.6, 1.0, i % 4, 4),
        "noise_counts": 10.0 ** _cell(rng, -5.0, -2.0, i % 3, 3),
    }


def _selection_top(specs, limit=0.8):
    """Highest selection threshold: ``limit``, or the lowest 90% quantile
    of the laws if smaller, so every threshold keeps a tenth of the mass."""
    return min([limit] + [float(quantile(s, 0.9)) for s in specs])


def _bell(kind, channel, rng, i):
    """A Bell call of design cell i on ``channel``."""
    call = {"kind": kind, "channel": channel, "detector": _detector(rng, i)}
    if kind == "bell_sweep_xi":
        call["grid"] = _cells(rng, 0.02, 0.8, 4)
    else:
        call["squeezing"] = _cell(rng, 0.02, 0.8, i % 6, 6)
    if kind == "bell_sweep_pre":
        call["grid"] = _cells(rng, 0.0, _selection_top(channel[1:]), 4)
    call["points"] = 1 if kind == "bell_point" else 4
    return call


# ---------------------------------------------------------------------------
# bell-2d
# ---------------------------------------------------------------------------


def _bell_2d_round(seed, k):
    rng = _rng(seed, 1, k)
    channels = []
    # Twelve single points on log-normal arms: a 3 x 4 grid over (mu, sigma).
    for i in range(3):
        for j in range(4):
            channels.append(("bell_point", [
                _lognormal(_cell(rng, *_LN_MU, i, 3), _cell(rng, *_SIGMA, j, 4))
                for _ in range(2)]))
    # Four points on Beta arms: a 2 x 2 grid over (p, q).
    for i in range(2):
        for j in range(2):
            channels.append(("bell_point", [
                _beta(_cell(rng, *_SHAPE, i, 2), _cell(rng, *_SHAPE, j, 2)) for _ in range(2)]))
    channels.append(("bell_point", [
        _empirical(rng, int(_cell(rng, 50, 201, 0, 1))),
        _lognormal(_cell(rng, *_LN_MU, 1, 3), _cell(rng, 0.2, 0.8, 1, 2))]))
    # Sweeps on log-normal arms with sigma in [0.2, 0.8]: two over squeezing,
    # one over preselection; one preselection sweep on Beta arms.
    for i, j in ((0, 0), (2, 1)):
        channels.append(("bell_sweep_xi", [
            _lognormal(_cell(rng, *_LN_MU, i, 3), _cell(rng, 0.2, 0.8, j, 2))
            for _ in range(2)]))
    channels.append(("bell_sweep_pre", [
        _lognormal(_cell(rng, *_LN_MU, 1, 3), _cell(rng, 0.2, 0.8, 1, 2)) for _ in range(2)]))
    channels.append(("bell_sweep_pre", [
        _beta(_cell(rng, *_SHAPE, 1, 2), _cell(rng, *_SHAPE, 0, 2)) for _ in range(2)]))
    calls = [dict(_bell(kind, ("product", *arms), rng, slot), slot=slot)
             for slot, (kind, arms) in enumerate(channels)]
    return [calls[i] for i in rng.permutation(len(calls))]


# ---------------------------------------------------------------------------
# averages-1d
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def law_pool(seed):
    """The averages-1d pool of laws: a pure function of the seed.

    One pool serves the whole run, so every law is reused by every round.
    Each parameter sits in a fixed design cell, jittered a little, so the
    pools of different seeds cost the same up to that jitter.
    """
    rng = _rng(seed, 2)
    return {
        "L0": _lognormal(_cell(rng, *_LN_MU, 0, 2), _cell(rng, *_SIGMA, 0, 3)),
        "L1": _lognormal(_cell(rng, *_LN_MU, 1, 2), _cell(rng, *_SIGMA, 2, 3)),
        "A": _beta(0.5, 0.5),
        "B0": _beta(_cell(rng, *_SHAPE, 0, 2), _cell(rng, *_SHAPE, 1, 2)),
        "B1": _beta(_cell(rng, *_SHAPE, 1, 2), _cell(rng, *_SHAPE, 0, 2)),
        "E0": _empirical(rng, int(_cell(rng, 500, 1001, 0, 1))),
        # At the top of the bin range: the O(N*M) survival matrix of
        # AdaptiveCorrelated(E1, E2) sets peak memory.
        "E1": _empirical(rng, 5000),
        "E2": _empirical(rng, 5000),
    }


# What each round runs on the pool.
_CORRELATED = ("L0", "B0", "L1", "E0", "B1")
_ADAPTIVE = (("L0", "B0"), ("L1", "B1"), ("A", "B0"), ("B1", "L1"))
# Eight Fock sizes, one per cell of [20, 120]: their costs (8-70 ms) form
# the even ramp on which call_p90_ms falls.
_FOCK = (("L0", 0), ("B0", 1), ("L1", 2), ("B1", 3), ("L0", 4), ("B0", 5), ("L1", 6), ("B1", 7))
_COHERENT = ("L0", "B0", "L1", "B1")
_CLOSED = ("L0", "B0", "E0", "A")


def _averages_round(seed, k):
    rng = _rng(seed, 3, k)
    pool = law_pool(seed)
    # Selection-threshold grids are fixed for the run, as a user sweeping a
    # law over a grid would keep it.
    fixed = _rng(seed, 8)
    pre_grids = {pair: _cells(fixed, 0.0, _selection_top([pool[n] for n in pair]), 4)
                 for pair in _ADAPTIVE}
    sel_grids = {}
    for name in _CLOSED:
        law = pool[name]
        floor = float(quantile(law, 0.02))
        top = _selection_top([law])
        sel_grids[name] = (_cells(fixed, 0.0, top, 20), floor, _cells(fixed, floor, top, 20))
    calls = []

    def add(call):
        call["slot"] = len(calls)
        calls.append(call)

    def state():
        i = len(calls)
        return {
            "squeezing": _cell(rng, 0.1, 1.0, i % 4, 4),
            "mean_a": _cell(rng, -1.0, 1.0, i % 3, 3),
            "mean_b": _cell(rng, -1.0, 1.0, (i + 1) % 3, 3),
        }

    for name in _CORRELATED:
        add(_bell("bell_sweep_xi", ("correlated", pool[name]), rng, len(calls)))
    for a, b in _ADAPTIVE:
        adaptive = ("adaptive", pool[a], pool[b])
        add(dict(_bell("bell_sweep_pre", adaptive, rng, len(calls)), grid=pre_grids[a, b]))
        add({"kind": "dgcz_out_closed", "channel": adaptive, "state": state(), "points": 1})
        add({"kind": "transform_two_mode", "channel": adaptive, "state": state(), "points": 1})
    for name, i in _FOCK:
        add({"kind": "count_fock", "law": pool[name], "m": int(_cell(rng, 20, 121, i, len(_FOCK))),
             "detector": _detector(rng, len(calls)), "points": 1})
    for i, name in enumerate(_COHERENT):
        add({"kind": "count_coherent", "law": pool[name],
             "intensity": _cell(rng, 1.0, 30.0, i, len(_COHERENT)),
             "detector": _detector(rng, len(calls)), "points": 1})
    add(_bell("bell_point", ("adaptive", pool["E1"], pool["E2"]), rng, len(calls)))
    add({"kind": "dgcz_out_closed", "channel": ("adaptive", pool["E0"], pool["E1"]),
         "state": state(), "points": 1})
    for i, name in enumerate(_CLOSED):
        law = pool[name]
        post_grid, floor, noisy_grid = sel_grids[name]
        add({"kind": "postselect_sweep", "law": law,
             "input_db": _cell(rng, -6.0, -1.0, i, len(_CLOSED)),
             "displacement": _cell(rng, 0.0, 1.0, i % 2, 2), "grid": post_grid, "points": 20})
        add({"kind": "mandel_sweep", "law": law, "q_in": _cell(rng, -1.0, -0.1, i, len(_CLOSED)),
             "detector": _detector(rng, len(calls)), "grid": _cells(rng, 0.5, 20.0, 20),
             "points": 20})
        add({"kind": "noisy_variance_sweep", "law": law,
             "input_db": _cell(rng, -6.0, -1.0, (i + 1) % len(_CLOSED), len(_CLOSED)),
             "displacement": _cell(rng, 0.0, 1.0, (i + 1) % 2, 2), "floor": floor,
             "model": {"lo_amplitude": _cell(rng, 3.0, 30.0, i % 3, 3),
                       "noise_counts": _cell(rng, 0.0, 0.5, i % 2, 2)},
             "grid": noisy_grid, "points": 20})
        add({"kind": "sub_poisson_sweep", "law": law, "grid": _cells(rng, -1.0, -0.05, 20),
             "points": 20})
    return [calls[i] for i in rng.permutation(len(calls))]


# ---------------------------------------------------------------------------
# known defects
# ---------------------------------------------------------------------------


def defect_calls(workload, seed):
    """Inputs on which the library fails today, kept out of the timed loop.

    Each call carries the failure it is known for.  Runs that measure time
    never see them, so ``failed`` stays 0 and repeats from run to run; the
    traced run executes each once, checks it like any other call and
    reports how many still fail (``known_defects``).
    """
    rng = _rng(seed, 7)

    def narrow():
        return _lognormal(_cell(rng, *_LN_MU, 0, 1), _cell(rng, *_NARROW_SIGMA, 0, 1))

    if workload == "bell-2d":
        calls = [
            dict(_bell("bell_point", ("product", narrow(), narrow()), rng, 0),
                 defect="narrow log-normal arms: silently wrong 2D quadrature"),
            dict(_bell("bell_point", ("product", _beta(_cell(rng, 1.1, 1.5, 0, 1), 4.0),
                                      _beta(5.0, 5.0)), rng, 1),
                 defect="Beta first shape in (1, 2): 2D quadrature far over budget"),
        ]
    elif workload == "averages-1d":
        other = law_pool(seed)["L0"]
        calls = [
            dict(_bell("bell_sweep_xi", ("correlated", narrow()), rng, 0),
                 defect="narrow log-normal: silently wrong 1D quadrature"),
            # Fixed: about half of the random draws miss by 1e-6 to 1e-5; this
            # one by ~1e-5.
            {"kind": "bell_sweep_xi", "channel": ("correlated", _beta(0.5, 0.5)),
             "detector": {"efficiency": 0.83, "noise_counts": 8.4e-5},
             "grid": [0.025, 0.25, 0.55, 0.79], "points": 4,
             "defect": "arcsine law: 1D quadrature misses its tolerance silently"},
            dict(_bell("bell_sweep_pre", ("adaptive", narrow(), other), rng, 1),
                 defect="narrow log-normal arm: silently wrong 1D quadrature"),
            dict({"kind": "count_coherent", "law": narrow(), "intensity": 10.0,
                  "detector": _detector(rng, 2), "points": 1},
                 defect="narrow log-normal: count distribution raises ValueError"),
            dict({"kind": "count_fock", "law": _beta(0.5, 0.5), "m": 60,
                  "detector": _detector(rng, 3), "points": 1},
                 defect="arcsine law: Fock count distribution raises QuadratureAccuracyError"),
            dict({"kind": "count_coherent", "law": _beta(0.5, 0.5), "intensity": 10.0,
                  "detector": _detector(rng, 4), "points": 1},
                 defect="arcsine law: coherent count distribution raises "
                        "QuadratureAccuracyError"),
        ]
    else:
        calls = []
    for slot, call in enumerate(calls):
        call["slot"] = slot
    return calls


def cli_round(seed, k):
    """Config file names of round k, in seed-shuffled order."""
    rng = _rng(seed, 4, k)
    return [CLI_CONFIGS[i] for i in rng.permutation(len(CLI_CONFIGS))]


def round_calls(workload, seed, k):
    if workload == "bell-2d":
        return _bell_2d_round(seed, k)
    if workload == "averages-1d":
        return _averages_round(seed, k)
    raise ValueError(f"no library calls in workload {workload!r}")


# ---------------------------------------------------------------------------
# spec -> library objects, call execution
# ---------------------------------------------------------------------------


def build_law(spec):
    family = spec["family"]
    if family == "lognormal":
        return tl.TruncatedLogNormal(spec["mu"], spec["sigma"])
    if family == "beta":
        return tl.Beta(spec["p"], spec["q"])
    return tl.Empirical(spec["etas"], spec["weights"])


def build_joint(channel, laws):
    kind, *specs = channel
    built = [laws(s) for s in specs]
    if kind == "product":
        return tl.Product(*built)
    if kind == "correlated":
        return tl.PerfectlyCorrelated(*built)
    return tl.AdaptiveCorrelated(*built)


class Factory:
    """Builds library objects for calls, reusing one object per spec.

    A spec shared by several calls (the averages-1d pool) maps to one law
    object, as a caller holding a law would reuse it.
    """

    def __init__(self):
        self._laws = {}

    def law(self, spec):
        key = id(spec)
        if key not in self._laws:
            self._laws[key] = (spec, build_law(spec))
        return self._laws[key][1]

    def prepare(self, call):
        """Return a zero-argument function running the call's library work."""
        if "law" in call:
            return law_runner(call, self.law(call["law"]))
        joint = build_joint(call["channel"], self.law)
        if call["kind"].startswith("bell"):
            settings = tl.BellSettings(
                call.get("squeezing", 0.0), tl.DetectorModel(**call["detector"]), joint
            )
            return bell_runner(call, settings)
        return moment_runner(call, joint)


def _state(call):
    s = call["state"]
    return tl.tmsv(s["squeezing"], s["mean_a"], s["mean_b"])


def _sweep_values(points):
    return [p.value if p.valid else math.nan for p in points]


def bell_runner(call, settings):
    kind = call["kind"]
    if kind == "bell_point":
        return lambda: [tl.bell_parameter(settings)]
    if kind == "bell_sweep_xi":
        return lambda: _sweep_values(tl.bell_sweep(settings, squeezing_grid=call["grid"]))
    return lambda: _sweep_values(tl.bell_sweep(settings, preselection_grid=call["grid"]))


def _two_mode_values(moments):
    out = []
    for name in ("mean_a", "mean_b", "occ_a", "occ_b", "anom_a", "anom_b", "pair", "exch"):
        v = complex(getattr(moments, name))
        out.extend((v.real, v.imag))
    return out


def moment_runner(call, joint):
    state = _state(call)
    if call["kind"] == "dgcz_out_closed":
        return lambda: [tl.dgcz_out_closed(state, joint).value]
    return lambda: _two_mode_values(tl.transform_two_mode(state, joint))


def _fock_input(m):
    p = np.zeros(m + 1)
    p[m] = 1.0
    return p


def law_runner(call, law):
    """Runner for the one-mode-law call kinds; ``law`` may be a reference."""
    kind = call["kind"]
    if kind == "count_fock":
        det = tl.DetectorModel(**call["detector"])
        p_in = _fock_input(call["m"])
        return lambda: [float(x) for x in tl.count_distribution_fock(p_in, law, det).probabilities]
    if kind == "count_coherent":
        det = tl.DetectorModel(**call["detector"])
        alpha = math.sqrt(call["intensity"])
        return lambda: [float(x) for x in tl.count_distribution_coherent(alpha, law, det).probabilities]
    if kind == "postselect_sweep":
        state = tl.squeezed_vacuum_db(call["input_db"], mean=call["displacement"])
        return lambda: [
            p.squeezing_db if p.valid else math.nan
            for p in tl.postselect_sweep(state, law, call["grid"])
        ]
    if kind == "mandel_sweep":
        det = tl.DetectorModel(**call["detector"])
        return lambda: [tl.mandel_out(call["q_in"], n, law, det) for n in call["grid"]]
    if kind == "noisy_variance_sweep":
        state = tl.squeezed_vacuum_db(call["input_db"], mean=call["displacement"])
        model = tl.HomodyneModel(min_transmittance=call["floor"], **call["model"])
        return lambda: [
            tl.noisy_variance(state, law.truncate(t), model) for t in call["grid"]
        ]
    if kind == "sub_poisson_sweep":
        return lambda: [tl.sub_poisson_bound(q, law) for q in call["grid"]]
    raise ValueError(f"unknown call kind {kind!r}")


def describe(call):
    """One-line description of a call for failure reports."""
    kind = call["kind"]
    if "channel" in call:
        joint, *specs = call["channel"]
        where = f"{joint}(" + ", ".join(spec_label(s) for s in specs) + ")"
    else:
        where = spec_label(call["law"])
    extra = ""
    if "squeezing" in call:
        extra = f", xi={call['squeezing']:.4g}"
    if kind == "count_fock":
        extra = f", m={call['m']}"
    return f"{kind} on {where}{extra}"
