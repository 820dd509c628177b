"""Tests of the benchmark's own machinery (not of the library).

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import math
import sys

import numpy as np
import pytest

import reference
import run
import spans
import workloads


def _continuous_specs(seed, rounds=2):
    found = []
    for k in range(rounds):
        for call in workloads.round_calls("bell-2d", seed, k):
            found += [s for s in call["channel"][1:] if s["family"] != "empirical"]
    found += [s for s in workloads.law_pool.__wrapped__(seed).values()
              if s["family"] != "empirical"]
    return found


@pytest.mark.parametrize("workload", ["bell-2d", "averages-1d"])
def test_generator_is_a_pure_function_of_the_seed(workload):
    first = [workloads.round_calls(workload, 7, k) for k in range(3)]
    workloads.law_pool.cache_clear()
    again = [workloads.round_calls(workload, 7, k) for k in range(3)]
    assert first == again
    assert workloads.round_calls(workload, 8, 0) != first[0]
    assert workloads.law_pool.__wrapped__(7) == workloads.law_pool.__wrapped__(7)
    assert workloads.cli_round(7, 2) == workloads.cli_round(7, 2)
    assert workloads.defect_calls(workload, 7) == workloads.defect_calls(workload, 7)


def _shape(workload, seed, k):
    """Each slot's call kind and law families, in slot order."""
    def families(call):
        specs = call["channel"][1:] if "channel" in call else [call["law"]]
        return tuple(s["family"] for s in specs)

    calls = sorted(workloads.round_calls(workload, seed, k), key=lambda c: c["slot"])
    return [(c["slot"], c["kind"], families(c), c["points"]) for c in calls]


@pytest.mark.parametrize("workload", ["bell-2d", "averages-1d"])
def test_every_round_holds_the_same_slots(workload):
    first = _shape(workload, 1, 0)
    assert [slot for slot, *_ in first] == list(range(len(first)))
    assert _shape(workload, 1, 3) == first
    assert _shape(workload, 2, 0) == first


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_rule_passes_its_self_check(seed):
    for spec in _continuous_specs(seed):
        assert reference.self_check(spec) <= reference.SELF_CHECK_RTOL
        selected = reference.truncated(spec, workloads._selection_top([spec]))
        assert reference.self_check(selected) <= reference.SELF_CHECK_RTOL


def test_self_check_catches_a_coarse_rule(monkeypatch):
    spec = {"family": "lognormal", "mu": math.log(0.05), "sigma": 0.5}
    coarse = reference._unit_rule(levels=4, n=3)
    monkeypatch.setattr(reference, "_U", coarse[0])
    monkeypatch.setattr(reference, "_V", coarse[1])
    monkeypatch.setattr(reference, "_W", coarse[2])
    assert reference.self_check(spec) > reference.SELF_CHECK_RTOL
    with pytest.raises(RuntimeError, match="self-check"):
        reference.RefLaw(spec)


def test_min_atoms_match_brute_force():
    rng = np.random.default_rng(0)
    a = workloads._empirical(rng, 30)
    b = workloads._empirical(rng, 20)
    etas, weights = reference.min_atoms(a, b)
    ea, wa = reference.nodes(a)
    eb, wb = reference.nodes(b)
    brute = np.minimum.outer(ea, eb)
    mass = np.outer(wa, wb)
    for e, w in zip(etas, weights):
        assert w == pytest.approx(mass[brute == e].sum(), abs=1e-15)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("a, b", [
    ({"family": "lognormal", "mu": -1.6, "sigma": 0.008},
     {"family": "lognormal", "mu": -0.85, "sigma": 0.97}),
    ({"family": "beta", "p": 0.5, "q": 0.5}, {"family": "beta", "p": 4.0, "q": 2.0}),
    ({"family": "lognormal", "mu": -1.5, "sigma": 0.02, "lo": 0.2},
     {"family": "lognormal", "mu": -1.3, "sigma": 0.6, "lo": 0.2}),
])
def test_min_law_matches_a_dense_survival_integral(a, b):
    etas, weights = reference.min_law(a, b)
    assert reference.min_self_check(a, b, etas, weights) <= reference.SELF_CHECK_RTOL
    t = np.linspace(0.0, 1.0, 2_000_001)
    s = reference.survival(a, t, True) * reference.survival(b, t, True)
    dense = float(np.sum(0.5 * (s[1:] + s[:-1])) * (t[1] - t[0]))
    assert math.fsum(weights * etas) == pytest.approx(dense, rel=1e-9)


def test_self_time_subtracts_each_child_once():
    # parent [0, 10] holds children [1, 3] and [4, 8]; [5, 6] nests in the second.
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    assert spans.self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_tracer_records_nesting_and_rolls_back():
    tracer = spans.Tracer()
    tracer.begin_call(0)
    outer = tracer.open("bell.bell_parameter")
    inner = tracer.open("pdt.average")
    tracer.close(inner)
    tracer.close(outer)
    tracer.begin_call(1)
    tracer.open("bell.bell_parameter")
    tracer.open("pdt.average")  # interrupted: never closed
    tracer.rollback()
    arrays = tracer.arrays()
    assert arrays["parent"].tolist() == [-1, 0]
    assert arrays["call"].tolist() == [0, 0]
    assert tracer.stack == []


def _library_bindings():
    import turbulight.cli  # noqa: F401

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "turbulight" or name.startswith("turbulight."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def test_install_and_remove_leave_the_library_identical():
    before = _library_bindings()
    patches = spans.install(spans.Tracer())
    during = _library_bindings()
    assert any(during[k] is not before[k] for k in before)
    spans.remove(patches)
    after = _library_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _bell_value_and_counts(traced):
    import turbulight as tl

    law = tl.TruncatedLogNormal(math.log(0.3), 0.4)
    settings = tl.BellSettings(0.2, tl.DetectorModel(0.9, 1e-3), tl.Product(law, law))
    tracer = spans.Tracer()
    patches = spans.install(tracer) if traced else []
    try:
        value = tl.bell_parameter(settings)
    finally:
        spans.remove(patches)
    return value, spans.layer_metrics(tracer.names, tracer.arrays())


def test_traced_values_are_bit_identical_and_counts_repeat():
    plain, _ = _bell_value_and_counts(False)
    traced, first = _bell_value_and_counts(True)
    _, second = _bell_value_and_counts(True)
    assert float(traced).hex() == float(plain).hex()
    assert first["numerics.integrate2.panels"] > 0
    for key in ("numerics.integrate2.calls", "numerics.integrate2.panels",
                "numerics.integrate2.evals", "pdt.density.calls", "pdt.density.evals"):
        assert first[key] == second[key]


def test_rel_error_rules():
    assert run.rel_error("bell_point", [2.0], [2.0]) == 0.0
    assert run.rel_error("bell_point", [math.nan, 1.0], [1.0, 1.0]) == math.inf
    assert run.rel_error("bell_sweep_xi", [math.nan, 1.0], [math.nan, 1.0]) == 0.0
    assert run.rel_error("count_fock", [0.5, 0.5 + 1e-9], [0.5, 0.5]) == pytest.approx(2e-9)
    # A count distribution cut one count later compares against zero there.
    assert run.rel_error("count_coherent", [0.5, 0.5, 1e-13], [0.5, 0.5]) == pytest.approx(2e-13)
    assert run.rel_error("count_coherent", [0.5, 0.5, 0.1], [0.5, 0.5]) > 1e-6


def test_slot_medians_at_reference_speed():
    ref = run.PROBE_REF_S
    records = [
        {"slot": 0, "round": 0, "seconds": 1.0, "probe_s": ref},
        {"slot": 0, "round": 1, "seconds": 2.0, "probe_s": 2 * ref},  # a half-speed moment
        {"slot": 0, "round": 2, "seconds": 5.0, "probe_s": ref},
        {"slot": 1, "round": 0, "seconds": 0.1, "probe_s": ref},
    ]
    assert run.call_seconds(records) == [1.0, 1.0, 1.0, 0.1]
    assert run.call_seconds(records, scaled=False) == [2.0, 2.0, 2.0, 0.1]


def test_every_per_layer_metric_has_a_unit():
    for name in run.per_layer_names():
        assert run.unit_of(name)


def test_percentile_estimates_quantiles():
    values = list(range(1, 102))
    assert run.percentile(values, 50) == pytest.approx(51.0)
    assert 89.0 < run.percentile(values, 90) < 93.0
    assert run.percentile([3.0] * 7, 90) == pytest.approx(3.0)
