"""One workload process: set up, run the closed loop, write the raw record.

Started by ``run.py`` as a fresh interpreter with BLAS/OpenMP threads
pinned to 1.  It never checks results against references (``run.py`` does,
outside every timed region and outside this process, so reference work
neither inflates this process's peak memory nor disturbs its timings).

Modes:

``--setup-only``
    Import the library, build the first round's objects, report the
    set-up time and exit.
library workloads (``bell-2d``, ``averages-1d``)
    Untraced: rounds of calls, one after another (one closed-loop caller),
    until ``--seconds`` have passed; the round in progress completes, so
    every run holds whole rounds.  Traced: a fixed number of rounds in
    which every call runs once untraced and once with the tracer
    installed; values must agree bit for bit.  Then each known-defect
    call (``workloads.defect_calls``) runs once, untraced and untimed.
``cli-configs``
    Each call is one ``python -m turbulight.cli --config ...`` process.
``--cli-traced``
    The traced stand-in for one CLI process: installs the tracer, runs
    ``turbulight.cli.main`` and writes the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Rounds in a traced run: fixed, so counts repeat exactly for one seed.
TRACE_ROUNDS = {"bell-2d": 1, "averages-1d": 1, "cli-configs": 1}
CLI_TIMEOUT_S = 120.0


# The speed probe: a fixed numpy/scipy kernel that never touches the
# library.  The shared machine's speed drifts by up to 2x over tens of
# seconds; the probe's time moves with it, so run.py can put every call on
# one speed scale (see ``run.at_reference_speed``).
PROBE_STEPS = 150
PROBE_REPEATS = 5  # probes after set-up, for the set-up time's factor


def probe_seconds():
    """Seconds the speed probe takes now."""
    import numpy as np
    from scipy import special

    x0 = np.linspace(0.01, 0.99, 225)
    x = x0
    acc = 0.0
    start = time.perf_counter()
    for i in range(PROBE_STEPS):
        y = special.ndtri(x) * np.exp(-x * x) + np.sqrt(x)
        acc += float(y.sum()) + i * 1e-9
        x = np.where(y > 0.0, x0, x0[::-1])
    return time.perf_counter() - start


def _setup_probe():
    """The median of PROBE_REPEATS probes."""
    return sorted(probe_seconds() for _ in range(PROBE_REPEATS))[PROBE_REPEATS // 2]


def _bracket_probes(records):
    """Give each call the mean of the speed probes just before and after it.

    The probe after a call is the one before the next; the last call gets a
    probe of its own.
    """
    before = [r["probe_s"] for r in records]
    for r, b, a in zip(records, before, before[1:] + [probe_seconds()]):
        r["probe_s"] = 0.5 * (b + a)


class BudgetExceeded(BaseException):
    """Raised by SIGALRM when a call outlives its wall budget.

    A BaseException, so no ``except Exception`` inside the library can
    swallow it.
    """


def _alarm(signum, frame):
    raise BudgetExceeded()


def timed_call(run, budget_s):
    """Run one call under a wall budget; returns (status, values, error, seconds)."""
    values, error = None, None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            values = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        status = "ok"
    except BudgetExceeded:
        status, error = "budget", f"exceeded the {budget_s:g} s budget"
    except Exception as exc:  # every library failure is a counted result
        status, error = "raise", f"{type(exc).__name__}: {exc}"
    return status, values, error, time.perf_counter() - start


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


def _prepare_round(workload, seed, k, factory):
    """Generate round k (untimed benchmark work) and build its objects."""
    import workloads

    t0 = time.monotonic()
    calls = workloads.round_calls(workload, seed, k)
    generated = time.monotonic() - t0
    runners = []
    for call in calls:
        try:
            runners.append(factory.prepare(call))
        except Exception as exc:  # a constructor refusing generated input
            message = f"{type(exc).__name__}: {exc}"

            def refused(message=message):
                raise RuntimeError(f"construction failed: {message}")

            runners.append(refused)
    return calls, runners, generated


def _record(k, index, call, status, values, error, seconds):
    return {
        "round": k, "index": index, "slot": call["slot"], "status": status, "error": error,
        "seconds": seconds, "points": call["points"], "values": values,
    }


def _run_rounds(workload, seed, rounds, budget, factory, first=None):
    """Run whole rounds; a speed probe precedes every call, outside its timing."""
    records = []
    for k in rounds:
        calls, runners, _ = first if first and k == 0 else _prepare_round(
            workload, seed, k, factory)
        for index, (call, run) in enumerate(zip(calls, runners)):
            probe = probe_seconds()
            records.append(_record(k, index, call, *timed_call(run, budget * call["points"])))
            records[-1]["probe_s"] = probe
    return records


def _run_paired(workload, seed, rounds, budget, factory, tracer, first):
    """Run every call untraced and traced, alternating which goes first.

    Pairing each call with itself, in balanced order, keeps machine drift
    and warm-up effects out of the tracing overhead.  Spans of a traced
    call that ran out of budget are dropped, so counts repeat exactly.
    """
    import spans

    plain, traced = [], []
    for k in rounds:
        calls, runners, _ = first if first and k == 0 else _prepare_round(
            workload, seed, k, factory)
        for index, (call, run) in enumerate(zip(calls, runners)):
            for with_tracer in ((False, True) if len(plain) % 2 == 0 else (True, False)):
                if not with_tracer:
                    plain.append(_record(k, index, call, *timed_call(run, budget * call["points"])))
                    continue
                tracer.begin_call(len(traced))
                patches = spans.install(tracer)
                try:
                    result = timed_call(run, budget * call["points"])
                finally:
                    spans.remove(patches)
                if result[0] == "budget":
                    tracer.rollback()
                traced.append(_record(k, index, call, *result))
    return plain, traced


def library_workload(args, t_spawn):
    import_start = time.monotonic()
    import turbulight  # noqa: F401

    import_s = time.monotonic() - import_start
    import workloads

    factory = workloads.Factory()
    first = _prepare_round(args.workload, args.seed, 0, factory)
    setup_s = time.monotonic() - t_spawn - first[2]
    out = {"setup_s": setup_s, "import_s": import_s, "probe_s": _setup_probe()}
    if args.setup_only:
        return out
    signal.signal(signal.SIGALRM, _alarm)
    budget = workloads.BUDGET_PER_POINT_S
    if not args.trace:
        records = []
        start = time.monotonic()
        k = 0
        while not records or time.monotonic() - start < args.seconds:
            records += _run_rounds(args.workload, args.seed, [k], budget, factory, first=first)
            k += 1
        _bracket_probes(records)
        out.update(records=records, peak_rss_mb=_peak_rss_mb())
        return out

    import spans

    tracer = spans.Tracer()
    plain, traced = _run_paired(args.workload, args.seed, range(TRACE_ROUNDS[args.workload]),
                                budget, factory, tracer, first)
    tracer.save(args.out + ".spans.npz")
    layers = spans.layer_metrics(tracer.names, tracer.arrays())
    layers["turbulight.import_s"] = import_s
    defects = []
    for index, call in enumerate(workloads.defect_calls(args.workload, args.seed)):
        try:
            run = factory.prepare(call)
        except Exception as exc:  # a constructor refusing the input is the defect
            defects.append(_record(-1, index, call, "raise", None,
                                   f"construction: {type(exc).__name__}: {exc}", 0.0))
            continue
        defects.append(_record(-1, index, call, *timed_call(run, workloads.DEFECT_BUDGET_S)))
    out.update(records=plain, traced=traced, layers=layers, defects=defects)
    return out


# ---------------------------------------------------------------------------
# cli-configs
# ---------------------------------------------------------------------------


def _artifacts(out_dir):
    """(digest, bytes, rows, wall_time_s) of one CLI run's output directory."""
    digest = hashlib.sha256()
    size = 0
    rows = 0
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    wall = manifest.pop("wall_time_s")
    digest.update(json.dumps(manifest, sort_keys=True).encode())
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        size += os.path.getsize(path)
        if name == "manifest.json":
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        rows += data.count(b"\n") - 1 if name.endswith(".csv") else 1
    return digest.hexdigest(), size, rows, wall


def _cli_process(argv, out_dir, env):
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    proc = subprocess.run(
        argv + ["--out-dir", out_dir], env=env, capture_output=True,
        timeout=CLI_TIMEOUT_S, check=False,
    )
    seconds = time.monotonic() - start
    record = {"seconds": seconds, "exit": proc.returncode,
              "stderr": proc.stderr.decode(errors="replace")[-500:]}
    if proc.returncode == 0:
        digest, size, rows, wall = _artifacts(out_dir)
        record.update(digest=digest, bytes=size, points=rows, wall_time_s=wall)
        csv_path = os.path.join(out_dir, "bell.csv")
        if os.path.exists(csv_path):
            with open(csv_path) as fh:
                record["csv"] = fh.read()
    return record


def cli_workload(args):
    import shutil

    import workloads

    configs = os.path.join(os.getcwd(), "configs")
    work = args.out + ".d"
    env = dict(os.environ)
    records, traced_records = [], []

    def one(k, index, name, traced):
        # The CLI process runs on this process's CPU (see pin_to_one_cpu).
        before = probe_seconds()
        out_dir = os.path.join(work, f"{len(records)}.{len(traced_records)}")
        config = os.path.join(configs, name)
        if traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--cli-traced",
                    "--config", config, "--out", out_dir + ".layers.json"]
        else:
            argv = [sys.executable, "-m", "turbulight.cli", "--config", config]
        record = _cli_process(argv, out_dir, env)
        record.update(round=k, index=index, config=name, probe_s=before)
        if traced and record["exit"] == 0:
            with open(out_dir + ".layers.json") as fh:
                record["layers"] = json.load(fh)
            os.replace(out_dir + ".layers.json.spans.npz", f"{args.out}.{k}.{index}.spans.npz")
        shutil.rmtree(out_dir, ignore_errors=True)
        (traced_records if traced else records).append(record)

    try:
        if not args.trace:
            start = time.monotonic()
            k = 0
            while not records or time.monotonic() - start < args.seconds:
                for index, name in enumerate(workloads.cli_round(args.seed, k)):
                    one(k, index, name, False)
                k += 1
            _bracket_probes(records)
            return {"records": records, "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}
        # Each config runs untraced and traced, alternating which goes first.
        for k in range(TRACE_ROUNDS["cli-configs"]):
            for index, name in enumerate(workloads.cli_round(args.seed, k)):
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    one(k, index, name, traced)
        return {"records": records, "traced": traced_records}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cli_traced(args):
    """Run one CLI config with the tracer installed (a ``--cli-traced`` process)."""
    start = time.monotonic()
    import turbulight  # noqa: F401

    import_s = time.monotonic() - start
    import spans

    from turbulight import cli

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        code = cli.main(["--config", args.config, "--out-dir", args.out_dir])
    finally:
        spans.remove(patches)
    tracer.save(args.out + ".spans.npz")
    layers = spans.layer_metrics(tracer.names, tracer.arrays())
    layers["turbulight.import_s"] = import_s
    # The manifest is left out: the length of its wall_time_s varies.
    layers["cli.artifact_bytes"] = sum(
        os.path.getsize(os.path.join(args.out_dir, n))
        for n in os.listdir(args.out_dir) if n != "manifest.json"
    )
    _write(args.out, layers)
    return code


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The speed probe then runs on the CPU the measured work runs on, and the
    scheduler cannot move a call to another CPU between probe and call.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, help="time.monotonic() at spawn")
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cli-traced", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--out-dir")
    args = parser.parse_args(argv)
    if args.cli_traced:
        return cli_traced(args)
    pin_to_one_cpu()
    if args.workload == "cli-configs":
        payload = cli_workload(args)
    else:
        payload = library_workload(args, args.spawned)
    payload["versions"] = _versions()
    _write(args.out, payload)
    return 0


def _versions():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
