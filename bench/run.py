"""Benchmark of the pointbilliard package: one workload, one seed, one run.

    python3 bench/run.py --workload single-100k --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run sets up the workload
several times (medians reported), repeats whole rounds of its operations
for ``--seconds``, then checks every output against independent
computations (``oracle.py``) outside the timed region.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Traced runs also write their spans to
``.bench_out/trace-<workload>-<seed>.jsonl``.  See README.md.
"""

import os
import sys
import time

# One BLAS thread per process: the sweep's two worker threads then use the
# two cores without oversubscription.  Must precede the numpy import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Start-up and set-up samples per run, all before the timed region; the
# medians are reported.
SETUP_REPEATS = 11


def import_package():
    """The package from this checkout's src/, or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        import pointbilliard
        import pointbilliard.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        sys.exit(f"bench: cannot import pointbilliard from {SRC}: {exc}")
    origin = os.path.dirname(os.path.abspath(pointbilliard.__file__))
    if not origin.startswith(SRC + os.sep):
        sys.exit(f"bench: pointbilliard was imported from {origin}, not from {SRC}")
    return pointbilliard


def run_round(steps):
    """Run one round of steps; returns a record of it.

    An operation that raises is failed, never retried, and has no output or
    latency.  ``errors`` holds (label, counted, message): a failed operation
    is counted, not a wrong answer, but an uncounted step that raises makes
    the run incorrect.
    """
    r = {"outputs": {}, "latencies": [], "attempted": 0, "failed": 0, "errors": []}
    t_round = time.perf_counter()
    for label, fn, counted in steps:
        r["attempted"] += counted
        t0 = time.perf_counter()
        try:
            r["outputs"][label] = fn(r["outputs"])
        except Exception as exc:  # noqa: BLE001  (recorded and reported below)
            r["errors"].append((label, counted, f"{type(exc).__name__}: {exc}"))
            r["failed"] += counted
            continue
        if counted:
            r["latencies"].append(time.perf_counter() - t0)
    r["time"] = time.perf_counter() - t_round
    return r


def split_errors(errors):
    """(distinct failed-operation messages, problems from uncounted steps)."""
    failures = sorted({f"{label}: {msg}" for label, counted, msg in errors if counted})
    problems = [f"{label}: {msg}" for label, counted, msg in errors if not counted]
    return failures, problems


def timed_rounds(steps, seconds):
    """Whole rounds until their summed time reaches `seconds`; returns
    (round records, timed seconds)."""
    rounds, busy = [], 0.0
    while busy < seconds:
        rounds.append(run_round(steps))
        busy += rounds[-1]["time"]
    return rounds, busy


def check_rounds(workload, state, rounds, ref):
    """Full checks on the first success of each step, equality for the rest."""
    from workloads import same

    first, problems = {}, []
    for r in rounds:
        problems += split_errors(r["errors"])[1]
        for label, out in r["outputs"].items():
            if label not in first:
                first[label] = out
            elif not same(out, first[label]):
                problems.append(f"{label}: output differs between rounds")
    found, summary = workload.check(state, first, ref)
    return problems + found, summary


def tail_percentile(values):
    """Highest whole percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    for q in range(99, 49, -1):
        cut = float(np.percentile(ordered, q))
        if sum(1 for v in ordered if v > cut) >= 10:
            return q, cut
    return None


def machine_line():
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next(line.split()[1] for line in fh if line.startswith("Threads:"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"BLAS threads {BLAS_THREADS}, process threads before the run {threads}")


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        return run(pkg, WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fresh_import_s():
    """Wall time of a new interpreter that imports the package and exits."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import pointbilliard.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def sample_setup(workload):
    """Start-up and set-up, SETUP_REPEATS times; returns (state, setup_s).

    Start-up is a fresh interpreter importing the package, as every CLI
    invocation pays it; set-up is the workload's tables, evaluators and
    inputs, built in this process.  Only the last state is kept, and only
    one is alive at a time, so ``peak_rss_mb`` sees one set-up.
    """
    imports, setups, state = [], [], None
    for _ in range(SETUP_REPEATS):
        imports.append(fresh_import_s())
        state = None
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
    imports, setups = statistics.median(imports), statistics.median(setups)
    print(f"setup: median of {SETUP_REPEATS} fresh-interpreter imports {imports:.4f} s "
          f"+ median of {SETUP_REPEATS} set-ups {setups:.4f} s")
    return state, imports + setups


def traced_metrics(tracer, rounds, untraced_s, ops):
    from spans import PER_LAYER, layer_metrics

    layers = layer_metrics(tracer.spans, ops)
    traced_s = statistics.median(r["time"] for r in rounds)
    layers["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    print(f"tracing overhead: median traced round {traced_s:.4f} s against an untraced "
          f"round {untraced_s:.4f} s")
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        value, note = layers[name], ""
        if value is None:
            value, note = 0.0, "  (layer not reached by this workload)"
        print(f"layer {name} = {value!r} {unit}{note}")
        metrics[name] = (value, unit)
    return metrics


def run(pkg, workload_cls, args, workdir):
    workload = workload_cls(pkg, args.seed, workdir=workdir)
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; {workload.describe()}")
    print(machine_line())

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(pkg)
        tracer.install()
    state, setup_s = sample_setup(workload)
    if tracer is not None:
        tracer.phase = "run"
    steps = workload.steps(state)
    rounds, elapsed = timed_rounds(steps, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [x for r in rounds for x in r["latencies"]]
    ops = len(latencies)

    checked = rounds
    if tracer is not None:
        tracer.uninstall()
        untraced = run_round(steps)
        checked = rounds + [untraced]
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)

    problems, summary = check_rounds(workload, state, checked, workload.reference(state))
    failures = split_errors([e for r in checked for e in r["errors"]])[0]
    print(f"ops: {ops} completed in {len(rounds)} rounds over {elapsed:.3f} s; "
          f"{attempted} attempted, {failed} failed")
    for msg in failures:
        print(f"  failed operation: {msg}")
    print("round times: " + " ".join(f"{r['time']:.3f}" for r in rounds) + " s")
    p50_ms = 1e3 * statistics.median(latencies)
    line = f"latency: p50 {p50_ms:.3f} ms"
    tail = tail_percentile(latencies) if ops >= 40 else None
    if tail is not None:
        line += f", p{tail[0]} {1e3 * tail[1]:.3f} ms over {ops} operations"
    print(line)
    print(f"checks: {summary}; " + ("all passed" if not problems else f"{len(problems)} problems"))
    for msg in problems:
        print(f"  problem: {msg}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops / elapsed, "1/s"),
            "op_p50_ms": (p50_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        path = os.path.join(OUT_DIR, f"trace-{workload.name}-{args.seed}.jsonl")
        tracer.dump(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        metrics = traced_metrics(tracer, rounds, untraced["time"], ops)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
