"""Command-line front end: config loading, sweeps, CSV/JSON artifacts.

One JSON config file describes one run; the only flags are ``--config``
and ``--out-dir``.  Configs are schema-checked before any computation
starts, and unknown keys anywhere in the tree are rejected -- a typo
should fail loudly, not silently fall back to a default.  Scenarios:

``bell``
    CHSH parameter swept over squeezing or a preselection threshold.
    CSV columns ``param,B,valid``.
``mandel``
    Output Mandel Q swept over input mean photon number at fixed input Q.
    CSV columns ``param,mandel_q,valid``.
``squeeze``
    Postselected squeezing (dB) swept over the postselection threshold.
    CSV columns ``eta_ps,squeezing_db,valid``.
``dgcz``
    Entanglement-preservation domain scan over real displacements
    (d_a, d_b) for two-mode squeezed vacua on a squeezing grid.
    CSV columns ``da,db,xi,preserved``.
``pdt-info``
    Transmittance-law summary (moments, support) as JSON.

The optional top-level ``output`` key renames the artifact.  It must be a
bare file name, written into the output directory, and cannot be
``manifest.json``.

Every run writes ``manifest.json`` into the output directory: the echoed
inputs, the library version, the wall time, artifact names, and ingestion
reports for any empirical transmittance files.  A relative empirical path
is read relative to the config file's directory, and its report records
the path as the config wrote it.  With a fixed config the CSV/JSON
artifacts are byte-identical across runs, and so is the manifest apart
from ``wall_time_s``, wherever the config and its data files are copied.

Numbers in CSVs carry 17 significant digits, enough to round-trip IEEE
doubles, so every value is reproducible by direct library calls with the
manifest's parameters.  Booleans are written as ``1``/``0``.

Exit codes: 0 success; 2 config rejected; 3 numerical failure; 4 empty
selection everywhere.  Failures print a one-line JSON error category to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

from . import __version__
from .bell import BellSettings, BellSingularityError, bell_sweep
from .entangle import preservation_domain
from .homodyne import postselect_sweep
from .numerics import QuadratureAccuracyError
from .pdt import (
    AdaptiveCorrelated,
    Beta,
    Dirac,
    Empirical,
    EmptySelectionError,
    PerfectlyCorrelated,
    Product,
    Scaled,
    TruncatedLogNormal,
)
from .photocount import DetectorModel, mandel_out
from .states import squeezed_vacuum_db, tmsv

__all__ = [
    "ConfigError",
    "EmptySelectionEverywhere",
    "IngestReport",
    "ingest_pdt",
    "run",
    "main",
]


class ConfigError(ValueError):
    """Configuration rejected before computation (exit code 2)."""


class EmptySelectionEverywhere(RuntimeError):
    """No sweep point retained any channel mass (exit code 4)."""


@dataclass(frozen=True)
class IngestReport:
    """Summary of one empirical transmittance file ingestion."""

    path: str
    bins: int
    total_weight: float
    renormalization: float


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------


def _check_keys(node, where, required, optional=()):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    allowed = set(required) | set(optional)
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}"
        )
    missing = sorted(set(required) - set(node))
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def _as_real(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ConfigError(f"{where}: integer too large for a float") from None
    if not math.isfinite(real):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return real


def _as_str(value, where):
    # A NUL byte can name no file, and open() would raise ValueError on it.
    if not isinstance(value, str) or not value or "\0" in value:
        raise ConfigError(
            f"{where}: expected a nonempty string without NUL bytes, got {value!r}"
        )
    return value


def _as_grid(value, where, ok=None, rule=""):
    """A nonempty list of finite numbers, each of which must pass ``ok``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a nonempty list of numbers")
    grid = [_as_real(v, f"{where}[{i}]") for i, v in enumerate(value)]
    for i, v in enumerate(grid):
        if ok is not None and not ok(v):
            raise ConfigError(f"{where}[{i}]: {rule}")
    return grid


def _as_pair(value, where):
    grid = _as_grid(value, where)
    if len(grid) != 2:
        raise ConfigError(f"{where}: expected exactly two numbers")
    return grid


def _pick(node, where, key, names):
    """The schema name ``node[key]``, which must be one of ``names``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    name = _as_str(node.get(key), f"{where}.{key}")
    if name not in names:
        raise ConfigError(
            f"{where}.{key}: unknown {key} {name!r}; expected one of "
            f"{', '.join(names)}"
        )
    return name


def _lift(where, build, *args, **kwargs):
    """Run a library constructor, converting ValueError to ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# empirical-file ingestion
# ---------------------------------------------------------------------------


def ingest_pdt(path):
    """Load an ``eta,weight`` CSV into an Empirical law plus a report.

    Weights are renormalized to unit mass; the report records the factor
    they were multiplied by.  Malformed content is rejected with the
    offending line number.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read transmittance file {path}: {exc}") from exc
    etas = []
    weights = []
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["eta", "weight"]:
            raise ConfigError(
                f"{path}, line 1: header must be exactly 'eta,weight'"
            )
        for row in reader:
            line = reader.line_num
            if not row:
                continue  # blank line, e.g. trailing newline
            if len(row) != 2:
                raise ConfigError(
                    f"{path}, line {line}: expected 2 fields, got {len(row)}"
                )
            try:
                eta = float(row[0])
                weight = float(row[1])
            except ValueError as exc:
                raise ConfigError(f"{path}, line {line}: {exc}") from exc
            if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
                raise ConfigError(
                    f"{path}, line {line}: eta must lie in [0, 1], got {eta!r}"
                )
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ConfigError(
                    f"{path}, line {line}: weight must be >= 0, got {weight!r}"
                )
            etas.append(eta)
            weights.append(weight)
    if not etas:
        raise ConfigError(f"{path}: no data rows")
    total = math.fsum(weights)
    if total <= 0.0:
        raise ConfigError(f"{path}: weights sum to {total!r}, need > 0")
    dist = _lift(path, Empirical, tuple(etas), tuple(weights))
    report = IngestReport(
        path=str(path),
        bins=len(etas),
        total_weight=total,
        renormalization=1.0 / total,
    )
    return dist, report


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------


# family -> (constructor, required keys, optional keys); the required
# values are passed in order, the optional ones by name.
_FAMILIES = {
    "dirac": (Dirac, ("eta",), ()),
    "beta": (Beta, ("p", "q"), ("lo",)),
    "lognormal": (TruncatedLogNormal, ("mu", "sigma"), ("lo",)),
}

# kind -> (constructor, keys of the one-mode laws it takes in order)
_JOINTS = {
    "product": (Product, ("a", "b")),
    "correlated": (PerfectlyCorrelated, ("dist",)),
    "adaptive": (AdaptiveCorrelated, ("a", "b")),
}


def _build_pdt(node, where, config_dir, reports):
    family = _pick(node, where, "family", (*_FAMILIES, "empirical", "scaled"))
    if family == "empirical":
        _check_keys(node, where, ("family", "path"))
        path = _as_str(node["path"], f"{where}.path")
        # Read relative to the config; report the path as the config wrote it.
        dist, report = ingest_pdt(os.path.join(config_dir, path))
        reports.append(replace(report, path=path))
        return dist
    if family == "scaled":
        _check_keys(node, where, ("family", "factor", "inner"))
        inner = _build_pdt(node["inner"], f"{where}.inner", config_dir, reports)
        return _lift(
            where, Scaled, inner, _as_real(node["factor"], f"{where}.factor")
        )
    build, required, optional = _FAMILIES[family]
    _check_keys(node, where, ("family",) + required, optional)
    args = [_as_real(node[key], f"{where}.{key}") for key in required]
    kwargs = {
        key: _as_real(node[key], f"{where}.{key}") for key in optional if key in node
    }
    return _lift(where, build, *args, **kwargs)


def _build_joint(node, where, config_dir, reports):
    kind = _pick(node, where, "kind", _JOINTS)
    build, arms = _JOINTS[kind]
    _check_keys(node, where, ("kind",) + arms)
    return build(
        *(_build_pdt(node[arm], f"{where}.{arm}", config_dir, reports) for arm in arms)
    )


def _build_detector(node, where):
    _check_keys(node, where, (), ("efficiency", "noise_counts"))
    return _lift(
        where,
        DetectorModel,
        efficiency=_as_real(node.get("efficiency", 1.0), f"{where}.efficiency"),
        noise_counts=_as_real(
            node.get("noise_counts", 0.0), f"{where}.noise_counts"
        ),
    )


# ---------------------------------------------------------------------------
# artifact writer
# ---------------------------------------------------------------------------


def _fmt(value):
    return format(float(value), ".17g")


def _flag(value):
    return "1" if value else "0"


def _write(path, payload):
    """Write ``(header, rows)`` as CSV, any other payload as sorted JSON."""
    with open(path, "w", newline="") as fh:
        if isinstance(payload, tuple):
            header, rows = payload
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# scenarios: each runner returns (header, rows) for a CSV or a JSON payload
# ---------------------------------------------------------------------------

_THRESHOLD_RULE = (lambda v: 0.0 <= v < 1.0, "threshold must lie in [0, 1)")


def _require_some_valid(points):
    if not any(p.valid for p in points):
        raise EmptySelectionEverywhere(
            "every sweep point left zero surviving channel mass"
        )


def _run_bell(cfg, config_dir, reports):
    channel = _build_joint(cfg["channel"], "config.channel", config_dir, reports)
    detector = _build_detector(cfg["detector"], "config.detector")
    sweep = cfg["sweep"]
    _check_keys(sweep, "config.sweep", ("parameter", "grid"))
    parameter = _as_str(sweep["parameter"], "config.sweep.parameter")
    if parameter == "squeezing":
        if "squeezing" in cfg:
            raise ConfigError(
                "config.squeezing: remove this key when sweeping squeezing; "
                "the sweep grid supplies it"
            )
        grid = _as_grid(sweep["grid"], "config.sweep.grid",
                        lambda v: v >= 0.0, "squeezing must be >= 0")
        squeezing = grid[0]
    elif parameter == "preselection":
        if "squeezing" not in cfg:
            raise ConfigError(
                "config.squeezing: required when sweeping preselection"
            )
        grid = _as_grid(sweep["grid"], "config.sweep.grid", *_THRESHOLD_RULE)
        squeezing = _as_real(cfg["squeezing"], "config.squeezing")
    else:
        raise ConfigError(
            "config.sweep.parameter: expected 'squeezing' or 'preselection', "
            f"got {parameter!r}"
        )
    angles = {
        key: tuple(_as_pair(cfg[key], f"config.{key}"))
        for key in ("angles_a", "angles_b")
        if key in cfg
    }
    settings = _lift("config", BellSettings, squeezing, detector, channel, **angles)
    points = bell_sweep(settings, **{f"{parameter}_grid": grid})
    _require_some_valid(points)
    rows = [(_fmt(p.param), _fmt(p.value), _flag(p.valid)) for p in points]
    return ("param", "B", "valid"), rows


def _run_mandel(cfg, config_dir, reports):
    dist = _build_pdt(cfg["pdt"], "config.pdt", config_dir, reports)
    detector = _build_detector(cfg.get("detector", {}), "config.detector")
    q_in = _as_real(cfg["q_in"], "config.q_in")
    if q_in < -1.0:
        raise ConfigError(f"config.q_in: must be >= -1, got {q_in!r}")
    grid = _as_grid(cfg["n_grid"], "config.n_grid",
                    lambda n: n > 0.0, "mean photon number must be > 0")
    rows = [
        (_fmt(n), _fmt(mandel_out(q_in, n, dist, detector)), _flag(True))
        for n in grid
    ]
    return ("param", "mandel_q", "valid"), rows


def _run_squeeze(cfg, config_dir, reports):
    dist = _build_pdt(cfg["pdt"], "config.pdt", config_dir, reports)
    input_db = _as_real(cfg["input_db"], "config.input_db")
    displacement = _as_pair(cfg.get("displacement", [0.0, 0.0]),
                            "config.displacement")
    angle = _as_real(cfg.get("angle", 0.0), "config.angle")
    phase = _as_real(cfg.get("phase", 0.0), "config.phase")
    thresholds = _as_grid(cfg["thresholds"], "config.thresholds", *_THRESHOLD_RULE)
    state = _lift(
        "config.input_db",
        squeezed_vacuum_db,
        input_db,
        angle=angle,
        mean=complex(displacement[0], displacement[1]),
    )
    points = postselect_sweep(state, dist, thresholds, phase=phase)
    _require_some_valid(points)
    rows = [
        (_fmt(p.eta_ps), _fmt(p.squeezing_db), _flag(p.valid)) for p in points
    ]
    return ("eta_ps", "squeezing_db", "valid"), rows


def _run_dgcz(cfg, config_dir, reports):
    xi_grid = _as_grid(cfg["xi_grid"], "config.xi_grid", lambda xi: xi > 0.0,
                       "squeezing must be > 0 for the domain scan")
    da_grid = _as_grid(cfg["da_grid"], "config.da_grid")
    db_grid = _as_grid(cfg["db_grid"], "config.db_grid")
    rows = []
    for xi in xi_grid:
        state = tmsv(xi)
        for da in da_grid:
            for db in db_grid:
                preserved = preservation_domain(state, da, db)
                rows.append((_fmt(da), _fmt(db), _fmt(xi), _flag(preserved)))
    return ("da", "db", "xi", "preserved"), rows


def _run_pdt_info(cfg, config_dir, reports):
    dist = _build_pdt(cfg["pdt"], "config.pdt", config_dir, reports)
    lo, hi = dist.support
    return {
        "moments": {
            "0.5": dist.moment(0.5),
            "1": dist.moment(1.0),
            "2": dist.moment(2.0),
        },
        "mean": dist.mean(),
        "variance": dist.variance(),
        "t_mean": dist.t_mean(),
        "t_variance": dist.t_variance(),
        "support": [lo, hi],
    }


# scenario -> (runner, default artifact name, required and optional top-level
# keys besides "scenario" and "output")
_SCENARIOS = {
    "bell": (_run_bell, "bell.csv", ("channel", "detector", "sweep"),
             ("squeezing", "angles_a", "angles_b")),
    "mandel": (_run_mandel, "mandel.csv", ("pdt", "q_in", "n_grid"),
               ("detector",)),
    "squeeze": (_run_squeeze, "squeeze.csv", ("pdt", "input_db", "thresholds"),
                ("displacement", "angle", "phase")),
    "dgcz": (_run_dgcz, "dgcz.csv", ("xi_grid", "da_grid", "db_grid"), ()),
    "pdt-info": (_run_pdt_info, "pdt_info.json", ("pdt",), ()),
}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's int-parsing digit limit.
        raise ConfigError(f"config {path} is not readable JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def run(config, out_dir, config_dir="."):
    """Execute one validated run; returns the manifest dictionary.

    Raises ConfigError / EmptySelection errors / numerical errors for the
    caller (the CLI entry point maps them to exit codes).
    """
    started = time.perf_counter()
    scenario = _pick(config, "config", "scenario", _SCENARIOS)
    runner, default_output, required, optional = _SCENARIOS[scenario]
    _check_keys(config, "config", ("scenario",) + required, ("output",) + optional)
    output = _as_str(config.get("output", default_output), "config.output")
    if output != os.path.basename(output) or output in (".", "..", "manifest.json"):
        raise ConfigError(
            "config.output: must be a bare file name other than manifest.json, "
            f"got {output!r}"
        )

    reports = []
    result = runner(config, config_dir, reports)
    os.makedirs(out_dir or ".", exist_ok=True)
    _write(os.path.join(out_dir, output), result)

    manifest = {
        "version": __version__,
        "inputs": dict(config),
        "artifacts": [output],
        "ingestion": [asdict(r) for r in reports],
        "wall_time_s": time.perf_counter() - started,
    }
    _write(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _fail(code, category, message):
    print(json.dumps({"category": category, "message": message}),
          file=sys.stderr)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="turbulight",
        description="Nonclassical-light transfer through fluctuating-loss "
                    "channels: deterministic sweeps from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to JSON run config")
    parser.add_argument("--out-dir", default=".",
                        help="directory for CSV/JSON artifacts (default: .)")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        run(config, args.out_dir,
            config_dir=os.path.dirname(os.path.abspath(args.config)))
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except (EmptySelectionError, EmptySelectionEverywhere) as exc:
        return _fail(4, "empty-selection", str(exc))
    except (QuadratureAccuracyError, BellSingularityError, ArithmeticError,
            ValueError) as exc:
        return _fail(3, "numerical", str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
