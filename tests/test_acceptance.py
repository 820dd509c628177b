"""Release gate: twelve named criteria, one test each.

Every test prints through the conftest terminal-summary hook as an
explicit PASS/FAIL line.  Tolerances are pinned here and nowhere else;
loosening them is a release decision, not a test fix.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from oracles import mc_quadrature_variance, sample_law
from turbulight.bell import BellSettings, bell_parameter, bell_sweep
from turbulight.channel import transform_two_mode
from turbulight.cli import main as cli_main
from turbulight.cli import run as cli_run
from turbulight.cli import _build_joint
from turbulight.entangle import (
    dgcz_certifier,
    dgcz_out_closed,
    dgcz_out_correlated,
    preservation_domain,
)
from turbulight.homodyne import squeeze_out
from turbulight.pdt import (
    AdaptiveCorrelated,
    Beta,
    Dirac,
    Empirical,
    PerfectlyCorrelated,
    Product,
    TruncatedLogNormal,
)
from turbulight.photocount import (
    DetectorModel,
    count_distribution_coherent,
    count_distribution_fock,
    mandel_out,
    sub_poisson_bound,
)
from turbulight.states import (
    TwoModeMoments,
    squeezed_vacuum_db,
    tmsv,
    variance_to_db,
)

TEST_DIR = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(os.path.dirname(TEST_DIR), "configs")


def _load_config(name, directory=CONFIG_DIR):
    with open(os.path.join(directory, name)) as fh:
        return json.load(fh)


def test_criterion_01_chsh_ideal_limit():
    started = time.perf_counter()
    settings = BellSettings(
        squeezing=1e-3,
        detector=DetectorModel(efficiency=1.0, noise_counts=0.0),
        channel=Product(Dirac(1.0), Dirac(1.0)),
    )
    value = bell_parameter(settings)
    elapsed = time.perf_counter() - started
    assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-2)
    assert elapsed < 1.0


def test_criterion_02_chsh_zero_source_limit():
    channels = (
        Product(Dirac(0.9), Dirac(0.9)),
        PerfectlyCorrelated(Beta(2.0, 2.0)),
        Product(TruncatedLogNormal(-1.0, 0.7), TruncatedLogNormal(-1.5, 0.9)),
        AdaptiveCorrelated(Beta(2.0, 2.0), Beta(3.0, 1.5)),
        Product(Empirical((0.2, 0.8), (1.0, 1.0)), Dirac(0.6)),
    )
    for channel in channels:
        for noise in (1e-5, 1e-3, 0.1):
            settings = BellSettings(
                squeezing=0.0,
                detector=DetectorModel(efficiency=0.9, noise_counts=noise),
                channel=channel,
            )
            assert abs(bell_parameter(settings)) <= 1e-12


def test_criterion_03_copropagation_advantage():
    started = time.perf_counter()
    law = TruncatedLogNormal(-2.3, 0.8)  # mean transmittance ~ 0.136
    mean = law.mean()
    detector = DetectorModel(efficiency=1.0, noise_counts=1.7e-5)
    strict = False
    for xi in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8):
        fluctuating = bell_parameter(
            BellSettings(squeezing=xi, detector=detector,
                         channel=PerfectlyCorrelated(law))
        )
        deterministic = bell_parameter(
            BellSettings(squeezing=xi, detector=detector,
                         channel=Product(Dirac(mean), Dirac(mean)))
        )
        assert fluctuating >= deterministic - 1e-12
        strict = strict or fluctuating > deterministic + 1e-9
    assert strict
    assert time.perf_counter() - started < 60.0


def test_criterion_04_preselection_recovery(tmp_path):
    started = time.perf_counter()
    config = _load_config("bell_preselection.json")
    manifest = cli_run(config, str(tmp_path), config_dir=CONFIG_DIR)
    rows = (tmp_path / manifest["artifacts"][0]).read_text().splitlines()[1:]
    values = {}
    for row in rows:
        threshold, value, valid = row.split(",")
        assert valid == "1"
        values[float(threshold)] = float(value)
    assert values[0.0] < 2.0
    assert max(values.values()) > 2.0
    assert time.perf_counter() - started < 60.0


def test_criterion_05_mandel_cross_check():
    detector_grid = [
        DetectorModel(efficiency=0.75, noise_counts=nu) for nu in (0.0, 0.1, 1.0)
    ]
    pdts = (
        Dirac(0.7),
        Beta(1.0, 1.0),
        Beta(2.0, 5.0),
        TruncatedLogNormal(-1.0, 0.7),
    )
    worst = 0.0
    for det in detector_grid:
        for dist in pdts:
            for m in (1, 2, 5):
                p_in = np.zeros(m + 1)
                p_in[m] = 1.0
                closed = mandel_out(-1.0, float(m), dist, det)
                direct = count_distribution_fock(p_in, dist, det).mandel_q()
                worst = max(worst, abs(closed - direct))
            for intensity in (0.5, 2.0, 10.0):
                alpha = math.sqrt(intensity)
                closed = mandel_out(0.0, intensity, dist, det)
                direct = count_distribution_coherent(alpha, dist, det).mandel_q()
                worst = max(worst, abs(closed - direct))
    assert worst < 1e-8


def test_criterion_06_sub_poissonian_bound_noise_free():
    for dist in (Beta(1.0, 1.0), TruncatedLogNormal(-1.0, 0.7)):
        for q_in in (-1.0, -0.3):
            n_star = sub_poisson_bound(q_in, dist)
            assert math.isfinite(n_star) and n_star > 0.0
            for nu in (0.0, 0.1, 1.0):
                det = DetectorModel(efficiency=0.75, noise_counts=nu)
                assert abs(mandel_out(q_in, n_star, dist, det)) < 1e-10


def test_criterion_07_squeezing_transfer():
    s_db = -2.4
    state = squeezed_vacuum_db(s_db)
    for eta in (0.25, 0.5, 0.9):
        got = variance_to_db(squeeze_out(state, Dirac(eta)))
        expected = 10.0 * math.log10(1.0 + eta * (10.0 ** (s_db / 10.0) - 1.0))
        assert got == pytest.approx(expected, abs=1e-10)

    displaced = squeezed_vacuum_db(s_db, mean=2.0**-0.5)  # <x(0)> = 1
    for seed, dist in ((271, Beta(2.0, 2.0)),
                       (272, TruncatedLogNormal(-1.0, 0.7))):
        predicted = squeeze_out(displaced, dist)
        etas = sample_law(dist, 1_000_000, np.random.default_rng(seed))
        estimate, se = mc_quadrature_variance(
            displaced.quad_mean(0.0), displaced.quad_variance_normal(0.0), etas
        )
        assert abs(predicted - estimate) < 4.0 * se


def _random_state(rng):
    base = tmsv(rng.uniform(0.1, 1.2))
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


def test_criterion_08_dgcz_oracle_equivalence():
    rng = np.random.default_rng(31415)
    for _ in range(200):
        state = _random_state(rng)
        joint = _random_joint(rng)
        closed = dgcz_out_closed(state, joint)
        direct = dgcz_certifier(transform_two_mode(state, joint))
        assert abs(closed.value - direct.value) <= 1e-10 * max(
            1.0, abs(direct.value)
        )

    state = tmsv(0.7, mean_a=0.4 - 0.2j, mean_b=0.3j)
    w_in = dgcz_certifier(state).value
    closed = dgcz_out_closed(state, Product(Dirac(0.6), Dirac(0.8)))
    assert abs(closed.value - 0.6 * 0.8 * w_in) <= 1e-12


def test_criterion_09_correlated_channel_preservation():
    states = [tmsv(xi) for xi in (0.2, 0.8, 1.5)]
    padded = TwoModeMoments(occ_a=tmsv(0.8).occ_a + 0.05,
                            occ_b=tmsv(0.8).occ_b + 0.05,
                            pair=tmsv(0.8).pair)
    states.append(padded)
    laws = (
        Dirac(0.35),
        Beta(1.0, 1.0),
        Beta(2.0, 5.0),
        TruncatedLogNormal(-1.0, 0.7),
        Empirical((0.1, 0.7), (1.0, 1.0)),
    )
    for state in states:
        assert dgcz_certifier(state).entangled
        for law in laws:
            out = dgcz_out_correlated(state, law)
            assert out.entangled and out.value < 0.0


def test_criterion_10_preservation_domain_geometry():
    grid = np.linspace(-2.0, 2.0, 17)
    areas = []
    for xi in (0.2, 0.5, 1.0):
        state = tmsv(xi)
        for d in (0.3, 0.9, 1.7):
            assert preservation_domain(state, d, d)
            assert not preservation_domain(state, d, 0.0)
            assert not preservation_domain(state, 0.0, -d)
        areas.append(
            sum(
                preservation_domain(state, da, db)
                for da in grid
                for db in grid
            )
        )
    assert areas[0] > areas[1] > areas[2]


def test_criterion_11_squeezing_harms_entanglement():
    config = _load_config("entanglement_regression.json", TEST_DIR)
    joint = _build_joint(config["channel"], "channel", TEST_DIR, [])
    surviving = dgcz_out_closed(tmsv(config["entangled_squeezing"]), joint)
    assert surviving.entangled and not surviving.indeterminate
    destroyed = dgcz_out_closed(tmsv(config["separable_squeezing"]), joint)
    assert not destroyed.entangled and not destroyed.indeterminate
    assert destroyed.value > 0.0


def test_criterion_12_determinism(tmp_path):
    for name in ("bell_squeezing.json", "squeeze_postselect.json",
                 "pdt_info_empirical.json"):
        config_path = os.path.join(CONFIG_DIR, name)
        out1 = tmp_path / (name + ".run1")
        out2 = tmp_path / (name + ".run2")
        assert cli_main(["--config", config_path, "--out-dir", str(out1)]) == 0
        assert cli_main(["--config", config_path, "--out-dir", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for artifact in m1["artifacts"]:
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()
        m1.pop("wall_time_s"), m2.pop("wall_time_s")
        assert m1 == m2

    settings = BellSettings(
        squeezing=0.3,
        detector=DetectorModel(efficiency=0.9, noise_counts=1e-3),
        channel=Product(Beta(2.0, 2.0), TruncatedLogNormal(-1.0, 0.7)),
    )
    assert bell_parameter(settings) == bell_parameter(settings)
