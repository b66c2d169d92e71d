#!/usr/bin/env python3
"""Benchmark of padic-kas: the codec, both superposition theorems and the CLI.

Run from the root of a checkout that holds ``src/padic_kas``::

    python3 perfbench/run.py --workload codec --seed 1 --seconds 30 --trace 0

``--workload`` is one of codec, real, padic, cli, or ``all`` (the default),
which runs the four one after another in this process.  Each workload
prints one JSON row as a line of standard output::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` they are the per-layer ones, from a run that
wraps the library's public functions (see ``spans.py``).  Result rows and
span records are also written under ``.perfbench/`` at the checkout root.
The exit code is 0 when every output checked out, 1 when some check failed
that no known library fault explains, and 2 when the checkout has no
library to measure.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import cliscript
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("codec", "real", "padic", "cli")

# Set-ups per run: at least SETUPS of them and at least SETUP_SECONDS in
# all, so that cli's 35 ms set-ups are sampled as widely as the others;
# setup_s is their median.
SETUPS = 7
SETUP_SECONDS = 1.0

# Fresh interpreters that time ``import padic_kas.cli`` in a traced cli run.
IMPORT_CHILDREN = 5


def make_workload(name):
    if name == "cli":
        return cliscript.Cli(SRC)
    return {"codec": workloads.Codec, "real": workloads.Real, "padic": workloads.Padic}[name]()


def import_library():
    """Import the six modules afresh from this checkout's ``src``."""
    for key in [k for k in sys.modules if k.split(".")[0] == "padic_kas"]:
        del sys.modules[key]
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"padic_kas.{m}") for m in spans.MODULES}
    )
    if SRC.resolve() not in Path(lib.core.__file__).resolve().parents:
        raise SystemExit(f"error: padic_kas was imported from {lib.core.__file__}, not {SRC}")
    return lib


def set_up(workload, seed, workdir, times, min_seconds=0.0):
    """Import the library and build the workload's inputs ``times`` times,
    or more until they have taken ``min_seconds`` in all.

    Returns the library, the last set-up's state and each set-up's seconds.
    """
    lib = state = None
    seconds = []
    while len(seconds) < times or sum(seconds) < min_seconds:
        lib = state = None
        t0 = perf_counter()
        lib = import_library()
        state = workload.setup(lib, seed, workdir)
        seconds.append(perf_counter() - t0)
    gc.collect()
    return lib, state, seconds


def interquartile_mean(values):
    """Mean of the middle half of ``values``: the lowest and highest quarter
    are dropped, as a median drops them, but the rest are averaged, which
    over cli's eight or so rounds per run moves less than their median."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(name, workload, seed, seconds, workdir):
    """End-to-end run: whole rounds until ``seconds`` have passed, no tracing."""
    lib, state, setup_times = set_up(workload, seed, workdir, SETUPS, SETUP_SECONDS)
    if name == "cli":
        workload.start()
    rounds = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        tally = workload.run_round(lib, state)
        rounds.append((perf_counter() - t0, tally))
        if perf_counter() >= deadline:
            break
    if name == "cli":
        peak_rss_mb = workload.peak_rss_mb()
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [wall for wall, _ in rounds]
    wall_s = interquartile_mean(walls)
    items = [s * 1e3 for _, tally in rounds for s in tally.items]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(wall_s, "s"),
        # Every round checks the same cases.
        "cases_per_s": metric(rounds[0][1].cases / wall_s, "cases/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "item_ms.p50": metric(statistics.median(items), "ms"),
        "item_ms.p90": metric(percentile(items, 90), "ms"),
    }
    detail = {"round_s": walls, "items": len(items), "setups": setup_times}
    return [t for _, t in rounds], metrics, detail


def import_ms():
    """Median milliseconds ``import padic_kas.cli`` takes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_CHILDREN):
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-c", "import padic_kas.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2] == " padic_kas.cli":
                samples.append(int(fields[1]) / 1e3)
    return statistics.median(samples)


def trace(name, workload, seed, workdir):
    """Traced run: one round untraced, one with spans, one under tracemalloc.

    The cli workload's rounds replay its script in this process through
    ``cli_dispatch``, since spans cannot reach into child processes.
    """
    replay = workload.dispatch_round if name == "cli" else workload.run_round
    lib, state, _ = set_up(workload, seed, workdir, 1)

    watch = spans.GcWatch()
    gc.callbacks.append(watch)
    try:
        t0 = perf_counter()
        tally = replay(lib, state)
        untraced = perf_counter() - t0
    finally:
        gc.callbacks.remove(watch)

    state = None
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        state = workload.setup(lib, seed, workdir)
        setup_metrics = tracer.layer_metrics()
        setup_records = tracer.records()
        tracer.reset()
        gc.collect()
        t0 = perf_counter()
        replay(lib, state)
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()

    state = None
    gc.collect()
    tracemalloc.start()
    try:
        state = workload.setup(lib, seed, workdir)
        replay(lib, state)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    layer = tracer.layer_metrics()
    from_table, _ = layer["superposition.from_table.self_s"]
    layer["superposition.from_table.self_s"] = (
        setup_metrics["superposition.from_table.self_s"][0] + from_table, "s"
    )
    layer["cli.import_ms"] = (import_ms() if name == "cli" else 0.0, "ms")
    layer["cli.dispatch_ms"] = (untraced * 1e3 if name == "cli" else 0.0, "ms")
    layer["gc.collections"] = (watch.collections, "count")
    layer["gc.pause_s"] = (watch.pause_s, "s")
    layer["mem.traced_peak_mb"] = (traced_peak / 2**20, "MB")
    layer["trace.wall_s"] = (traced, "s")
    layer["trace.overhead_s"] = (traced - untraced, "s")
    metrics = {k: metric(v, u) for k, (v, u) in layer.items()}
    records = {"setup": setup_records, "round": tracer.records()}
    return [tally], metrics, {"untraced_round_s": untraced, "spans": records}


def run_workload(name, seed, seconds, traced):
    workload = make_workload(name)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if traced:
            tallies, metrics, detail = trace(name, workload, seed, str(workdir))
        else:
            tallies, metrics, detail = measure(name, workload, seed, seconds, str(workdir))
    finally:
        if name == "cli":
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    row = {
        "correct": all(t.unexpected == 0 for t in tallies),
        "attempted": sum(t.cases for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }
    kind = "trace" if traced else "result"
    record = dict(
        row, workload=name, seed=seed, seconds=seconds, detail=detail,
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
    )
    with open(OUT / f"{kind}-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(row), flush=True)
    return row["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "padic_kas" / "__init__.py").is_file():
        print(f"error: no library to measure: {SRC / 'padic_kas'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [run_workload(n, args.seed, args.seconds, args.trace == 1) for n in names]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
