"""turbulight benchmark: one seeded workload, checked, with its metrics.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload bell-2d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own fresh process (``worker.py``) with one
closed-loop caller and BLAS/OpenMP threads pinned to 1.  This process then
checks every result against the independent reference (``reference.py``),
outside all timing, and prints a table of metrics with units and sample
counts, every failure with its reason, and -- as the last line -- one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run (see ``README.md``).  ``--workload all`` runs every workload,
untraced and traced, and prefixes each metric with its workload.

``correct`` is true when every call is accounted for: each result either
matched its reference or is counted in ``failed`` with its reason, CLI
artifacts are byte-identical across processes of one config, and traced
values are bit-identical to untraced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 8  # set-up-only processes per run, besides the workload's own
CHECK_RTOL = 1e-6
# The speed probe's time on a quiet 2-core x86-64 box: time metrics are
# reported at this speed (see ``at_reference_speed``).
PROBE_REF_S = 0.0016
WORKER_TIMEOUT_S = 150.0
_COUNT_KINDS = ("count_fock", "count_coherent")
_VECTOR_KINDS = _COUNT_KINDS + ("transform_two_mode",)
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = (
    ("points_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {
    "calls": "count", "panels": "count", "evals": "count", "errors": "count",
    "atoms_calls": "count", "quad_calls": "count", "self_s": "s", "s": "s",
    "integrand_s": "s", "import_s": "s", "ref_s": "s", "artifact_bytes": "bytes",
    "law_reuse_frac": "fraction", "overhead_frac": "fraction",
    "max_rel_err": "fraction", "failed_frac": "fraction", "known_defects": "count",
}


def per_layer_names():
    """Every per-layer metric, in report order."""
    import spans

    names = []
    for f in spans.INTEGRATORS:
        names += [f"numerics.{f}.{q}" for q in ("calls", "panels", "evals", "self_s", "errors")]
    for m in ("density", "survival"):
        names += [f"pdt.{m}.{q}" for q in ("calls", "evals", "s")]
    for m in ("moment", "average", "t_moment", "truncate"):
        names += [f"pdt.{m}.calls", f"pdt.{m}.s"]
    names += ["pdt.expectation.atoms_calls", "pdt.expectation.quad_calls", "pdt.law_reuse_frac",
              "bell.bell_parameter.calls", "bell.bell_parameter.s", "bell.bell_sweep.self_s",
              "bell.integrand_s", "photocount.count_distribution.calls",
              "photocount.count_distribution.s", "photocount.integrand_s",
              "photocount.closed_form.calls", "photocount.closed_form.s"]
    for m in ("homodyne", "entangle", "channel"):
        names += [f"{m}.calls", f"{m}.s"]
    names += ["cli.run.self_s", "cli.artifact_bytes", "turbulight.import_s",
              "check.max_rel_err", "check.ref_s", "trace.overhead_frac", "failed_frac",
              "known_defects"]
    return names


def unit_of(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def spawn_worker(args, out, *extra):
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out, *extra]
    spawned = time.monotonic()
    # A process group of its own, so a timeout also stops the CLI processes a
    # cli-configs worker may have running.
    proc = subprocess.Popen(argv + ["--spawned", repr(spawned)], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"workload process exceeded {WORKER_TIMEOUT_S:g} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr.decode(errors="replace"))
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def rel_error(kind, values, ref):
    """Worst relative error of ``values`` against ``ref`` (inf if invalid)."""
    import numpy as np

    v = np.asarray(values, dtype=float)
    r = np.asarray(ref, dtype=float)
    if kind in _COUNT_KINDS and v.ndim == r.ndim == 1:
        # The library cuts a count distribution where its tail mass falls
        # below a threshold, from the law's support; the reference's support
        # is its outermost node, so the two may stop one count apart.  The
        # missing entries are counts of (near) zero probability.
        n = max(v.size, r.size)
        v = np.pad(v, (0, n - v.size))
        r = np.pad(r, (0, n - r.size))
    if v.shape != r.shape or np.any(np.isnan(v) != np.isnan(r)):
        return math.inf
    ok = ~np.isnan(r)
    if not ok.any():
        return 0.0
    v, r = v[ok], r[ok]
    same = v == r  # covers equal infinities
    floor = 1.0 if kind in _VECTOR_KINDS else 1e-3
    scale = np.maximum(np.abs(r), floor * np.max(np.abs(r[np.isfinite(r)]), initial=0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.where(same, 0.0, np.abs(v - r) / scale)
    return float(np.max(np.nan_to_num(err, nan=math.inf)))


def reference_values(call):
    """The call's results, recomputed on the reference laws."""
    import turbulight as tl

    import reference
    import workloads

    if "law" in call:
        return workloads.law_runner(call, reference.ref_law(call["law"]))()
    joint = reference.ref_joint(*call["channel"])
    if call["kind"].startswith("bell"):
        settings = tl.BellSettings(
            call.get("squeezing", 0.0), tl.DetectorModel(**call["detector"]), joint
        )
        return workloads.bell_runner(call, settings)()
    return workloads.moment_runner(call, joint)()


class Checker:
    """Checks records against references; collects failures and statistics."""

    def __init__(self):
        self.failures = []
        self.max_rel_err = 0.0
        self.ref_s = 0.0
        self.sound = True  # False if a reference could not be computed

    def fail(self, where, reason):
        self.failures.append(f"{where}: {reason}")

    def check(self, where, kind, values, ref_fn):
        """True if ``values`` match the reference of this result."""
        start = time.perf_counter()
        try:
            ref = ref_fn()
        except Exception as exc:  # the benchmark's own reference broke
            self.sound = False
            self.fail(where, f"reference failed: {type(exc).__name__}: {exc}")
            return False
        finally:
            self.ref_s += time.perf_counter() - start
        err = rel_error(kind, values, ref)
        if err <= CHECK_RTOL:
            self.max_rel_err = max(self.max_rel_err, err)
            return True
        shown = ", ".join(f"{v:.6g} vs {r:.6g}" for v, r in zip(values[:4], ref[:4]))
        self.fail(where, f"wrong result: relative error {err:.3g} > {CHECK_RTOL:g} "
                         f"(value vs reference: {shown})")
        return False


def check_library(workload, seed, records, checker):
    """Mark each record passed or failed; returns the passing count."""
    import workloads

    rounds = {}
    passed = 0
    for rec in records:
        k = rec["round"]
        if k not in rounds:
            rounds[k] = workloads.round_calls(workload, seed, k)
        call = rounds[k][rec["index"]]
        where = f"[round {k} call {rec['index']}] {workloads.describe(call)}"
        if rec["status"] == "budget":
            checker.fail(where, f"over budget: {rec['error']}")
        elif rec["status"] == "raise":
            checker.fail(where, f"raised {rec['error']}")
        elif checker.check(where, call["kind"], rec["values"],
                           lambda call=call: reference_values(call)):
            rec["passed"] = True
            passed += 1
    return passed


def check_defects(workload, seed, records, checker):
    """Report lines for the known-defect calls; returns how many still fail."""
    import workloads

    calls = workloads.defect_calls(workload, seed)
    lines = []
    for rec in records:
        call = calls[rec["index"]]
        where = f"{workloads.describe(call)} ({call['defect']})"
        if rec["status"] == "budget":
            outcome = f"over budget: {rec['error']}"
        elif rec["status"] == "raise":
            outcome = f"raised {rec['error']}"
        else:
            single = Checker()
            if single.check(where, call["kind"], rec["values"],
                            lambda call=call: reference_values(call)):
                outcome = None
            else:
                outcome = single.failures[0][len(where) + 2:]
            checker.ref_s += single.ref_s
            checker.sound = checker.sound and single.sound
        lines.append(f"  KNOWN DEFECT {where}: " + (outcome or "now passes"))
        rec["passed"] = outcome is None
    return sum(1 for rec in records if not rec["passed"]), lines


def bell_preselection_call():
    """configs/bell_preselection.json as a benchmark call, for its reference."""
    with open(os.path.join("configs", "bell_preselection.json")) as fh:
        cfg = json.load(fh)
    channel = cfg["channel"]
    return {
        "kind": "bell_sweep_pre",
        "channel": (channel["kind"], channel["a"], channel["b"]),
        "detector": cfg["detector"],
        "squeezing": cfg["squeezing"],
        "grid": cfg["sweep"]["grid"],
    }


def check_cli(records, checker):
    first = {}
    ref = []
    passed = 0

    def reference_rows():
        if not ref:
            ref.append(reference_values(bell_preselection_call()))
        return ref[0]

    for rec in records:
        where = f"[round {rec['round']} process {rec['index']}] {rec['config']}"
        if rec["exit"] != 0:
            checker.fail(where, f"exit code {rec['exit']}: {rec['stderr'].strip()}")
            continue
        digest = first.setdefault(rec["config"], rec["digest"])
        if rec["digest"] != digest:
            checker.fail(where, "artifacts differ from the first process of this config")
            continue
        if "csv" in rec and rec["config"] == "bell_preselection.json":
            rows = [line.split(",") for line in rec["csv"].strip().splitlines()[1:]]
            values = [float(b) if valid == "1" else math.nan for _, b, valid in rows]
            if not checker.check(where, "bell_sweep_pre", values, reference_rows):
                continue
        rec["passed"] = True
        passed += 1
    return passed


def bit_identical(plain, traced):
    """Traced records reproduce the untraced ones exactly."""
    if len(plain) != len(traced):
        return False
    for a, b in zip(plain, traced):
        keys = ("status", "error", "values") if "values" in a else ("exit", "digest")
        for key in keys:
            x, y = a.get(key), b.get(key)
            if key == "values" and x is not None and y is not None:
                x = [float(v).hex() for v in x]
                y = [float(v).hex() for v in y]
            if x != y:
                return False
    return True


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile.

    A Beta-weighted average of all order statistics, centred on the
    percentile.  Call latencies form clusters with gaps between them, and a
    single order statistic jumps across a gap when one call changes; the
    weighted average moves smoothly.
    """
    import numpy as np
    from scipy import special

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    p = q / 100.0
    edges = special.betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def at_reference_speed(seconds, probe_s):
    """``seconds`` as they would read at the reference speed.

    ``probe_s`` is the time of the speed probe (``worker.probe_seconds``, a
    fixed numpy/scipy kernel outside the library) beside the measured work:
    the mean of the probes just before and just after a call, or the median
    of five probes after a set-up.  On a shared machine whose speed drifts
    by up to 2x over tens of seconds, the ratio of a call's time to the
    probe's time beside it held within ~5%.
    """
    return seconds * PROBE_REF_S / probe_s


def call_seconds(records, scaled=True):
    """Each call's latency, taken as the median of its slot over the run.

    Every round holds the same calls (library slots, or CLI configs) up to
    a small jitter of their inputs, so a slot's median over the rounds of a
    run is a steadier estimate of each of its latencies than the single
    samples.  ``scaled`` puts each sample at the reference speed first.
    """
    def slot(r):
        return r["config"] if "config" in r else r["slot"]

    by_slot = {}
    for r in records:
        seconds = at_reference_speed(r["seconds"], r["probe_s"]) if scaled else r["seconds"]
        by_slot.setdefault(slot(r), []).append(seconds)
    medians = {c: statistics.median(v) for c, v in by_slot.items()}
    return [medians[slot(r)] for r in records]


def end_to_end(payload, records, setup_samples):
    """The end-to-end metrics, at the reference speed, with notes.

    ``setup_samples`` holds (seconds, probe seconds) pairs.  The notes give
    each metric's sample count and its value as measured, unscaled.
    """
    points = sum(r["points"] for r in records if r.get("passed"))
    n = len(records)
    out = {}
    for scaled in (True, False):
        seconds = call_seconds(records, scaled)
        busy = sum(seconds)
        setup = statistics.median(at_reference_speed(s, p) if scaled else s
                                  for s, p in setup_samples)
        out[scaled] = (points / busy, percentile(seconds, 50) * 1e3,
                       percentile(seconds, 90) * 1e3, setup, busy)
    (pps, p50, p90, setup, busy), raw = out[True], out[False]
    beyond = sum(1 for s in call_seconds(records) if s > p90 * 1e-3)
    return {
        "points_per_s": (pps, f"{points} results over {busy:.2f} s; as measured {raw[0]:.4g}"),
        "call_p50_ms": (p50, f"n={n} calls; as measured {raw[1]:.4g}"),
        "call_p90_ms": (p90, f"n={n} calls, {beyond} beyond; as measured {raw[2]:.4g}"),
        "setup_s": (setup, f"median of n={len(setup_samples)}; as measured {raw[3]:.4g}"),
        "peak_rss_mb": (payload["peak_rss_mb"], "n=1 workload process"),
    }


def run_workload(args):
    """Run one workload in one mode; returns (result dict, table lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}")
    checker = Checker()
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}"]
    setup = []
    if args.workload != "cli-configs" and not args.trace:
        for i in range(SETUP_SAMPLES):
            one = spawn_worker(args, f"{stem}.setup{i}.json", "--setup-only")
            setup.append((one["setup_s"], one["probe_s"]))
    payload = spawn_worker(args, stem + ".json")
    records = payload["records"]
    if args.workload == "cli-configs":
        passed = check_cli(records, checker)
        setup = [(r["seconds"] - r["wall_time_s"], r["probe_s"])
                 for r in records if r["exit"] == 0]
    else:
        passed = check_library(args.workload, args.seed, records, checker)
        setup.append((payload["setup_s"], payload["probe_s"]))
    attempted = len(records)
    failed = attempted - passed
    correct = checker.sound
    metrics = {}
    if not args.trace:
        for name, (value, note) in end_to_end(payload, records, setup).items():
            metrics[name] = (value, dict(END_TO_END)[name], note)
        metrics["failed_frac"] = (failed / attempted, "fraction", f"n={attempted} calls")
    else:
        identical = bit_identical(records, payload["traced"])
        correct = correct and identical
        if not identical:
            checker.fail("trace", "traced values differ from untraced ones")
        if args.workload == "cli-configs":
            import spans

            parts = [r["layers"] for r in payload["traced"] if "layers" in r]
            layers = spans.merge_metrics(parts)
            layers["turbulight.import_s"] = statistics.median(p["turbulight.import_s"] for p in parts)
        else:
            layers = payload["layers"]
            layers["known_defects"], defect_lines = check_defects(
                args.workload, args.seed, payload["defects"], checker)
        keep = [i for i, (a, b) in enumerate(zip(records, payload["traced"]))
                if a.get("status") != "budget" and b.get("status") != "budget"]
        plain_s = sum(records[i]["seconds"] for i in keep)
        traced_s = sum(payload["traced"][i]["seconds"] for i in keep)
        layers.update({
            "check.max_rel_err": checker.max_rel_err,
            "check.ref_s": checker.ref_s,
            "trace.overhead_frac": traced_s / plain_s - 1.0,
            "failed_frac": failed / attempted,
        })
        for name in per_layer_names():
            metrics[name] = (layers.get(name, 0), unit_of(name), "")
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:<38s} {value:>14.6g} {unit:<8s} {note}")
    lines.append(f"  attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    lines += [f"  FAIL {f}" for f in checker.failures]
    if args.trace and args.workload != "cli-configs":
        lines += defect_lines
    if args.trace:
        v = payload.get("versions", {})
        lines.append(f"  environment {json.dumps(v, sort_keys=True)}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if args.trace or name != "failed_frac"
        },
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="bell-2d, averages-1d, cli-configs or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "turbulight", "__init__.py")):
        sys.stderr.write("run from the root of a turbulight checkout: src/turbulight is missing\n")
        return 2
    for key, value in THREAD_ENV.items():
        os.environ[key] = value
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, BENCH_DIR)
    import workloads

    if args.workload != "all":
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        result, lines = run_workload(args)
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            one = argparse.Namespace(workload=name, seed=args.seed, seconds=args.seconds,
                                     trace=trace)
            result, lines = run_workload(one)
            print("\n".join(lines), flush=True)
            combined["correct"] &= result["correct"]
            if not trace:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
