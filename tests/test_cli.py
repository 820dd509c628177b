"""End-to-end CLI behavior: ingestion, schemas, artifacts, exit codes."""

import json
import math
import pathlib

import pytest

from turbulight.bell import BellSettings, bell_parameter
from turbulight.cli import ConfigError, _build_joint, ingest_pdt, main, run
from turbulight.entangle import preservation_domain
from turbulight.homodyne import postselect_sweep
from turbulight.pdt import (
    AdaptiveCorrelated,
    Beta,
    Dirac,
    PerfectlyCorrelated,
    Product,
    Scaled,
    TruncatedLogNormal,
)
from turbulight.photocount import DetectorModel
from turbulight.states import squeezed_vacuum_db, tmsv

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _bell_config(**overrides):
    cfg = {
        "scenario": "bell",
        "channel": {
            "kind": "product",
            "a": {"family": "dirac", "eta": 0.9},
            "b": {"family": "dirac", "eta": 0.9},
        },
        "detector": {"efficiency": 0.95, "noise_counts": 0.001},
        "sweep": {"parameter": "squeezing", "grid": [0.05, 0.2, 0.5]},
    }
    cfg.update(overrides)
    return cfg


def _stderr_category(capsys):
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert set(payload) == {"category", "message"}
    return payload["category"]


# ---------------------------------------------------------------------------
# empirical-file ingestion
# ---------------------------------------------------------------------------


def test_ingest_single_atom(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("eta,weight\n1.0,1.0\n")
    dist, report = ingest_pdt(str(path))
    assert dist.etas == (1.0,)
    assert dist.weights == (1.0,)
    assert report.bins == 1
    assert report.total_weight == 1.0
    assert report.renormalization == 1.0


def test_ingest_two_bins_and_mean(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("eta,weight\n0.2,1.0\n0.8,1.0\n")
    dist, _ = ingest_pdt(str(path))
    assert dist.mean() == pytest.approx(0.5, abs=1e-15)


def test_ingest_renormalizes_and_reports_factor(tmp_path):
    path = tmp_path / "heavy.csv"
    path.write_text("eta,weight\n0.3,0.5\n0.9,1.5\n")
    dist, report = ingest_pdt(str(path))
    assert report.total_weight == pytest.approx(2.0)
    assert report.renormalization == pytest.approx(0.5)
    assert sum(dist.weights) == pytest.approx(1.0, abs=1e-15)


def test_ingest_tolerates_blank_trailing_lines(tmp_path):
    path = tmp_path / "trail.csv"
    path.write_text("eta,weight\n0.5,1.0\n\n")
    dist, report = ingest_pdt(str(path))
    assert report.bins == 1


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("etas,weight\n0.5,1.0\n", "line 1"),
        ("eta,weight\n0.5,1.0,9\n", "line 2"),
        ("eta,weight\n0.5,1.0\nhello,1.0\n", "line 3"),
        ("eta,weight\n1.5,1.0\n", "eta must lie in [0, 1]"),
        ("eta,weight\n0.5,-1.0\n", "weight must be >= 0"),
        ("eta,weight\n0.5,0.0\n", "weights sum to"),
        ("eta,weight\n", "no data rows"),
    ],
)
def test_ingest_rejects_malformed_content(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ConfigError, match=None) as err:
        ingest_pdt(str(path))
    assert fragment in str(err.value)


def test_ingest_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        ingest_pdt("/nonexistent/file.csv")


# ---------------------------------------------------------------------------
# successful runs and artifacts
# ---------------------------------------------------------------------------


def test_bell_squeezing_sweep_artifacts(tmp_path):
    cfg_path = _write_config(tmp_path, _bell_config())
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out-dir", str(out)]) == 0

    lines = (out / "bell.csv").read_text().splitlines()
    assert lines[0] == "param,B,valid"
    assert len(lines) == 4
    channel = Product(Dirac(0.9), Dirac(0.9))
    det = DetectorModel(efficiency=0.95, noise_counts=0.001)
    for line, xi in zip(lines[1:], (0.05, 0.2, 0.5)):
        param, value, valid = line.split(",")
        assert float(param) == xi
        direct = bell_parameter(
            BellSettings(squeezing=xi, detector=det, channel=channel)
        )
        assert float(value) == direct  # 17 digits round-trip exactly
        assert valid == "1"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["bell.csv"]
    assert manifest["inputs"] == _bell_config()
    assert manifest["ingestion"] == []
    assert manifest["wall_time_s"] >= 0.0
    assert "version" in manifest


def test_csv_uses_crlf_line_endings(tmp_path):
    cfg_path = _write_config(tmp_path, _bell_config())
    out = tmp_path / "out"
    main(["--config", cfg_path, "--out-dir", str(out)])
    assert b"\r\n" in (out / "bell.csv").read_bytes()


def test_runs_are_deterministic(tmp_path):
    cfg_path = _write_config(tmp_path, _bell_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", cfg_path, "--out-dir", str(out1)]) == 0
    assert main(["--config", cfg_path, "--out-dir", str(out2)]) == 0
    assert (out1 / "bell.csv").read_bytes() == (out2 / "bell.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_mandel_scenario_golden_point(tmp_path):
    cfg = {
        "scenario": "mandel",
        "pdt": {"family": "beta", "p": 1.0, "q": 1.0},
        "q_in": -1.0,
        "n_grid": [2.0, 4.0, 6.0],
    }
    out = tmp_path / "out"
    assert main(["--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(out)]) == 0
    lines = (out / "mandel.csv").read_text().splitlines()
    assert lines[0] == "param,mandel_q,valid"
    qs = [float(line.split(",")[1]) for line in lines[1:]]
    assert qs[0] < 0.0  # below the n* = 4 boundary: still sub-Poissonian
    assert qs[1] == pytest.approx(0.0, abs=1e-12)
    assert qs[2] > 0.0


def test_squeeze_scenario_with_partial_invalid_rows(tmp_path):
    cfg = {
        "scenario": "squeeze",
        "pdt": {"family": "scaled", "factor": 0.5,
                "inner": {"family": "beta", "p": 2.0, "q": 2.0}},
        "input_db": -2.4,
        "thresholds": [0.1, 0.3, 0.7],
    }
    out = tmp_path / "out"
    assert main(["--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(out)]) == 0
    lines = (out / "squeeze.csv").read_text().splitlines()
    assert lines[0] == "eta_ps,squeezing_db,valid"
    flags = [line.split(",")[2] for line in lines[1:]]
    assert flags == ["1", "1", "0"]
    assert math.isnan(float(lines[3].split(",")[1]))


def test_dgcz_scenario_matches_library(tmp_path):
    cfg = {
        "scenario": "dgcz",
        "xi_grid": [0.6],
        "da_grid": [0.0, 0.9],
        "db_grid": [0.0, 0.9],
    }
    out = tmp_path / "out"
    assert main(["--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(out)]) == 0
    lines = (out / "dgcz.csv").read_text().splitlines()
    assert lines[0] == "da,db,xi,preserved"
    state = tmsv(0.6)
    for line in lines[1:]:
        da, db, xi, preserved = line.split(",")
        assert float(xi) == 0.6
        expected = preservation_domain(state, float(da), float(db))
        assert preserved == ("1" if expected else "0")


def test_pdt_info_payload(tmp_path):
    cfg = {"scenario": "pdt-info", "pdt": {"family": "dirac", "eta": 0.4}}
    out = tmp_path / "out"
    assert main(["--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(out)]) == 0
    payload = json.loads((out / "pdt_info.json").read_text())
    assert payload["moments"]["1"] == pytest.approx(0.4)
    assert payload["moments"]["0.5"] == pytest.approx(math.sqrt(0.4))
    assert payload["moments"]["2"] == pytest.approx(0.16)
    assert payload["mean"] == pytest.approx(0.4)
    assert payload["variance"] == 0.0
    assert payload["t_mean"] == pytest.approx(math.sqrt(0.4))
    assert payload["support"] == [0.4, 0.4]


def test_empirical_path_resolves_relative_to_config(tmp_path):
    sub = tmp_path / "cfgs"
    sub.mkdir()
    (sub / "law.csv").write_text("eta,weight\n0.3,1.0\n0.9,3.0\n")
    cfg = {"scenario": "pdt-info",
           "pdt": {"family": "empirical", "path": "law.csv"}}
    out = tmp_path / "out"
    assert main(["--config", _write_config(sub, cfg),
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["ingestion"]) == 1
    report = manifest["ingestion"][0]
    assert report["bins"] == 2
    assert report["renormalization"] == pytest.approx(0.25)
    payload = json.loads((out / "pdt_info.json").read_text())
    assert payload["mean"] == pytest.approx(0.25 * 0.3 + 0.75 * 0.9)


def test_manifest_does_not_depend_on_checkout_location(tmp_path):
    manifests = []
    for place in ("first", "second/nested"):
        where = tmp_path / place
        where.mkdir(parents=True)
        for name in ("pdt_info_empirical.json", "fading_sample.csv"):
            (where / name).write_bytes((CONFIG_DIR / name).read_bytes())
        out = where / "out"
        assert main(["--config", str(where / "pdt_info_empirical.json"),
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["wall_time_s"]
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    assert manifests[0]["ingestion"][0]["path"] == "fading_sample.csv"


def test_run_returns_manifest(tmp_path):
    manifest = run(_bell_config(), str(tmp_path / "out"))
    assert manifest["artifacts"] == ["bell.csv"]
    assert (tmp_path / "out" / "bell.csv").exists()


def _bell_column(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [float(param) for param, _, _ in rows], [float(b) for _, b, _ in rows]


def test_every_committed_config_runs_deterministically(tmp_path):
    bell = {}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        runs = [tmp_path / path.stem / "run1", tmp_path / path.stem / "run2"]
        for out in runs:
            assert main(["--config", str(path), "--out-dir", str(out)]) == 0, path.name
        manifests = [json.loads((out / "manifest.json").read_text()) for out in runs]
        for manifest in manifests:
            manifest.pop("wall_time_s")
        assert manifests[0] == manifests[1]
        for artifact in manifests[0]["artifacts"]:
            assert (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes()
        if path.stem.startswith("bell_squeezing"):
            bell[path.stem] = _bell_column(runs[0] / "bell.csv")
    # Copropagation (one shared fade) keeps more CHSH violation than the
    # same law on independent arms, at every squeezing of the grid.
    grid, shared = bell["bell_squeezing"]
    independent_grid, independent = bell["bell_squeezing_independent"]
    assert grid == independent_grid
    assert all(s > i for s, i in zip(shared, independent))


def test_custom_output_name(tmp_path):
    cfg_path = _write_config(tmp_path, _bell_config(output="scan.csv"))
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out-dir", str(out)]) == 0
    assert (out / "scan.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["scan.csv"]


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_unknown_key_rejected(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _bell_config(typo_key=1))
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_seed_override_flag_is_rejected(tmp_path):
    cfg_path = _write_config(tmp_path, _bell_config())
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", cfg_path, "--out-dir", str(tmp_path / "o"),
              "--seed-override", "42"])
    assert exit_info.value.code == 2


def test_unknown_nested_key_rejected(tmp_path, capsys):
    cfg = _bell_config()
    cfg["channel"]["a"]["bogus"] = 1.0
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_unknown_scenario_rejected(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"scenario": "frobnicate"})
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_integer_past_the_parser_digit_limit_rejected(tmp_path, capsys):
    # Well-formed JSON, but Python's int parsing refuses 5 001 digits.
    path = tmp_path / "long.json"
    path.write_text('{"q_in": 1' + "0" * 5000 + "}")
    assert main(["--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_non_object_root_rejected(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json"),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_squeezing_sweep_forbids_fixed_squeezing(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _bell_config(squeezing=0.3))
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_preselection_sweep_requires_squeezing(tmp_path, capsys):
    cfg = _bell_config()
    cfg["sweep"] = {"parameter": "preselection", "grid": [0.1, 0.2]}
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_negative_squeezing_grid_rejected(tmp_path, capsys):
    cfg = _bell_config()
    cfg["sweep"]["grid"] = [0.1, -0.2]
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


@pytest.mark.parametrize(
    "patch",
    [
        {"q_in": -1.5},
        {"n_grid": [0.0]},
        {"n_grid": []},
        {"pdt": {"family": "beta", "p": -1.0, "q": 1.0}},
        {"pdt": {"family": "gamma"}},
        {"seed": 0},
        {"output": ""},
    ],
)
def test_mandel_schema_violations(tmp_path, capsys, patch):
    cfg = {
        "scenario": "mandel",
        "pdt": {"family": "beta", "p": 1.0, "q": 1.0},
        "q_in": -0.5,
        "n_grid": [1.0],
    }
    cfg.update(patch)
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


@pytest.mark.parametrize(
    "patch, key",
    [
        ({"n_grid": [10**400]}, "config.n_grid[0]"),
        ({"pdt": {"family": "dirac", "eta": 10**400}}, "config.pdt.eta"),
    ],
    ids=["grid-entry", "law-parameter"],
)
def test_number_beyond_float_range_is_a_config_error(tmp_path, capsys, patch, key):
    cfg = {
        "scenario": "mandel",
        "pdt": {"family": "beta", "p": 1.0, "q": 1.0},
        "q_in": -0.5,
        "n_grid": [1.0],
    }
    cfg.update(patch)
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["category"] == "config"
    assert payload["message"].startswith(f"{key}: ")


@pytest.mark.parametrize(
    "output", ["manifest.json", "../escaped.json", "sub/pdt.json", "{tmp}/escaped.json", "..",
               "nul\0.json"]
)
def test_output_must_be_a_bare_file_name_other_than_the_manifest(
        tmp_path, capsys, output):
    cfg = {"scenario": "pdt-info", "pdt": {"family": "dirac", "eta": 0.4},
           "output": output.format(tmp=tmp_path)}
    out = tmp_path / "out"
    assert _config_message(tmp_path, capsys, cfg).startswith("config.output: ")
    assert not (tmp_path / "escaped.json").exists()
    assert not out.exists() or not any(out.iterdir())


def test_nested_scale_factors_that_underflow_are_rejected(tmp_path, capsys):
    inner = {"family": "scaled", "factor": 1e-200,
             "inner": {"family": "beta", "p": 2.0, "q": 2.0}}
    cfg = {"scenario": "pdt-info",
           "pdt": {"family": "scaled", "factor": 1e-200, "inner": inner}}
    assert _config_message(tmp_path, capsys, cfg).startswith("config.pdt: ")


def test_dgcz_requires_positive_squeezing(tmp_path, capsys):
    cfg = {"scenario": "dgcz", "xi_grid": [0.0], "da_grid": [0.0],
           "db_grid": [0.0]}
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    assert _stderr_category(capsys) == "config"


def test_numerical_failure_exits_three(tmp_path, capsys):
    cfg = _bell_config()
    cfg["detector"] = {"efficiency": 0.95, "noise_counts": 0.0}
    cfg["sweep"]["grid"] = [0.0]  # zero squeezing, zero noise: undefined E
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 3
    assert _stderr_category(capsys) == "numerical"


def test_empty_selection_everywhere_exits_four(tmp_path, capsys):
    cfg = {
        "scenario": "squeeze",
        "pdt": {"family": "scaled", "factor": 0.5,
                "inner": {"family": "beta", "p": 2.0, "q": 2.0}},
        "input_db": -2.4,
        "thresholds": [0.6, 0.8],
    }
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 4
    assert _stderr_category(capsys) == "empty-selection"


def test_bell_preselection_all_empty_exits_four(tmp_path, capsys):
    cfg = _bell_config(squeezing=0.3)
    cfg["channel"] = {
        "kind": "product",
        "a": {"family": "scaled", "factor": 0.5,
              "inner": {"family": "beta", "p": 2.0, "q": 2.0}},
        "b": {"family": "dirac", "eta": 0.9},
    }
    cfg["sweep"] = {"parameter": "preselection", "grid": [0.7, 0.9]}
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 4
    assert _stderr_category(capsys) == "empty-selection"


# ---------------------------------------------------------------------------
# schema tables: messages, law families, joint kinds, optional keys
# ---------------------------------------------------------------------------


def _config_message(tmp_path, capsys, cfg):
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["category"] == "config"
    return payload["message"]


_MANDEL = {"scenario": "mandel", "pdt": {"family": "dirac", "eta": 0.5},
           "q_in": -0.5, "n_grid": [1.0]}
_SQUEEZE = {"scenario": "squeeze", "pdt": {"family": "beta", "p": 2.0, "q": 2.0},
            "input_db": -2.4, "thresholds": [0.1]}
_DGCZ = {"scenario": "dgcz", "xi_grid": [0.6], "da_grid": [0.0], "db_grid": [0.0]}


@pytest.mark.parametrize(
    "cfg, prefix",
    [
        (_bell_config(sweep={"parameter": "squeezing", "grid": [0.1, -0.2]}),
         "config.sweep.grid[1]: squeezing must be >= 0"),
        (_bell_config(squeezing=0.3,
                      sweep={"parameter": "preselection", "grid": [0.1, 1.0]}),
         "config.sweep.grid[1]: threshold must lie in [0, 1)"),
        ({**_MANDEL, "n_grid": [0.0]},
         "config.n_grid[0]: mean photon number must be > 0"),
        ({**_SQUEEZE, "thresholds": [-0.1]},
         "config.thresholds[0]: threshold must lie in [0, 1)"),
        ({**_DGCZ, "xi_grid": [0.0]},
         "config.xi_grid[0]: squeezing must be > 0"),
        ({**_MANDEL, "pdt": {"family": "gamma"}},
         "config.pdt.family: unknown family 'gamma'"),
        (_bell_config(channel={"kind": "entwined", "dist": {"family": "dirac", "eta": 1.0}}),
         "config.channel.kind: unknown kind 'entwined'"),
        ({**_DGCZ, "typo_key": 1}, "config: unknown keys ['typo_key']"),
        ({**_MANDEL, "pdt": {"family": "empirical", "path": "a\0b.csv"}},
         "config.pdt.path: "),
    ],
    ids=["bell-squeezing", "bell-preselection", "mandel", "squeeze", "dgcz",
         "family", "kind", "root-key", "nul-in-path"],
)
def test_config_error_names_the_offending_entry(tmp_path, capsys, cfg, prefix):
    assert _config_message(tmp_path, capsys, cfg).startswith(prefix)


_LAWS = [
    ({"family": "dirac", "eta": 0.7}, Dirac(0.7)),
    ({"family": "beta", "p": 2.0, "q": 3.0}, Beta(2.0, 3.0)),
    ({"family": "beta", "p": 2.0, "q": 3.0, "lo": 0.2}, Beta(2.0, 3.0, 0.2)),
    ({"family": "lognormal", "mu": -0.5, "sigma": 0.4},
     TruncatedLogNormal(-0.5, 0.4)),
    ({"family": "lognormal", "mu": -0.5, "sigma": 0.4, "lo": 0.3},
     TruncatedLogNormal(-0.5, 0.4, 0.3)),
    ({"family": "scaled", "factor": 0.5, "inner": {"family": "dirac", "eta": 0.8}},
     Scaled(Dirac(0.8), 0.5)),
]


@pytest.mark.parametrize("node, law", _LAWS,
                         ids=["dirac", "beta", "beta-lo", "lognormal",
                              "lognormal-lo", "scaled"])
def test_pdt_info_reports_the_law_the_config_names(tmp_path, node, law):
    out = tmp_path / "out"
    cfg = {"scenario": "pdt-info", "pdt": node}
    assert main(["--config", _write_config(tmp_path, cfg), "--out-dir", str(out)]) == 0
    payload = json.loads((out / "pdt_info.json").read_text())
    assert payload["moments"] == {"0.5": law.moment(0.5), "1": law.moment(1.0),
                                  "2": law.moment(2.0)}
    assert payload["mean"] == law.mean()
    assert payload["variance"] == law.variance()
    assert payload["t_variance"] == law.t_variance()
    assert payload["support"] == list(law.support)


@pytest.mark.parametrize(
    "node, joint",
    [
        ({"kind": "product", "a": _LAWS[2][0], "b": _LAWS[4][0]},
         Product(_LAWS[2][1], _LAWS[4][1])),
        ({"kind": "correlated", "dist": _LAWS[1][0]},
         PerfectlyCorrelated(_LAWS[1][1])),
        ({"kind": "adaptive", "a": _LAWS[3][0], "b": _LAWS[0][0]},
         AdaptiveCorrelated(_LAWS[3][1], _LAWS[0][1])),
    ],
    ids=["product", "correlated", "adaptive"],
)
def test_bell_run_on_each_joint_kind_matches_library(tmp_path, node, joint):
    angles = {"angles_a": [0.1, 0.9], "angles_b": [0.3, 1.2]}
    cfg = _bell_config(channel=node, sweep={"parameter": "squeezing", "grid": [0.3]},
                       **angles)
    assert _build_joint(node, "channel", str(tmp_path), []) == joint
    out = tmp_path / "out"
    assert main(["--config", _write_config(tmp_path, cfg), "--out-dir", str(out)]) == 0
    _, values = _bell_column(out / "bell.csv")
    det = DetectorModel(efficiency=0.95, noise_counts=0.001)
    direct = bell_parameter(BellSettings(0.3, det, joint, (0.1, 0.9), (0.3, 1.2)))
    assert values == [direct]


def test_squeeze_run_with_displacement_angle_and_phase_matches_library(tmp_path):
    cfg = {**_SQUEEZE, "displacement": [0.4, -0.2], "angle": 0.3, "phase": 0.5,
           "thresholds": [0.1, 0.5]}
    out = tmp_path / "out"
    assert main(["--config", _write_config(tmp_path, cfg), "--out-dir", str(out)]) == 0
    rows = [line.split(",") for line in (out / "squeeze.csv").read_text().splitlines()[1:]]
    state = squeezed_vacuum_db(-2.4, angle=0.3, mean=complex(0.4, -0.2))
    points = postselect_sweep(state, Beta(2.0, 2.0), [0.1, 0.5], phase=0.5)
    assert [float(db) for _, db, _ in rows] == [p.squeezing_db for p in points]
