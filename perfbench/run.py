#!/usr/bin/env python3
"""qsaf benchmark runner.

    python3 perfbench/run.py --workload grover16 --seed 1 --seconds 25 \
        --trace 0

Runs one workload as a closed loop with a single caller: the next op
starts only after the previous one returned and was checked. Inputs come
from ``--seed``; qsaf is imported from ``src/`` next to this directory and
driven only through its public functions. With ``--trace 0`` nothing is
patched and the end-to-end metrics are reported; with ``--trace 1`` every
other op runs with the layer wrappers of ``tracing.py`` installed and the
per-layer metrics are reported. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.

``--workload all`` runs each workload in its own process and prints the
end-to-end metrics of all four as a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120

# one BLAS thread: the loop has one caller, and on a small shared machine
# a second BLAS thread mostly adds run-to-run noise
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# the bounded end-to-end metrics; see README.md for why the loop's
# throughput and median latency are printed but not bounded
END_TO_END_UNITS = {"setup_s": "s", "op_best_ms": "ms", "peak_rss_mb": "MB"}
REPORTED_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms",
                  "error_rate": "ratio"}

PER_LAYER_UNITS = {
    "manifest.parse_ms": "ms", "manifest.parse_calls": "count",
    "composition.validate_ms": "ms", "composition.validate_calls": "count",
    "composition.diagnostics": "count", "composition.flatten_ms": "ms",
    "composition.flatten_calls": "count", "composition.flat_gates": "count",
    "composition.flat_width": "qubits",
    "lowering.realize_ms": "ms", "lowering.realize_calls": "count",
    "lowering.realize_per_component": "ratio",
    "lowering.realize_ansatz_calls": "count",
    "gates.apply_ms": "ms", "gates.apply_calls": "count",
    "gates.apply_ms.k1": "ms", "gates.apply_ms.k2": "ms",
    "gates.apply_ms.k3": "ms", "gates.apply_ms.kwide": "ms",
    "gates.ns_per_amp": "ns", "gates.bytes_computed": "bytes",
    "simulate.run_ms": "ms", "simulate.run_calls": "count",
    "simulate.sample_ms": "ms", "simulate.shots": "count",
    "simulate.sample_ns_per_shot": "ns",
    "simulate.distinct_outcomes": "count",
    "simulate.expectation_ms": "ms", "simulate.expectation_calls": "count",
    "simulate.pauli_terms": "count",
    "simulate.gradient_ms": "ms", "simulate.gradient_calls": "count",
    "simulate.runs_per_gradient": "ratio",
    "simulate.minimize_ms": "ms", "simulate.optimizer_iterations": "count",
    "simulate.line_search_evals": "count",
    "qasm.export_ms": "ms", "qasm.export_bytes": "bytes",
    "workflows.execute_ms": "ms",
    **{f"{layer}.errors": "count" for layer in tracing.LAYERS},
    "trace.overhead": "ratio",
}


def import_qsaf():
    """qsaf from this checkout's ``src/``; never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import qsaf
    except ImportError as exc:
        raise SystemExit(f"cannot import qsaf from {SRC}: {exc}") from None
    if Path(qsaf.__file__).resolve().parent != SRC / "qsaf":
        raise SystemExit(f"qsaf came from {qsaf.__file__}, not {SRC}")
    return qsaf


def load_inputs(qsaf, workload, seed):
    """Generate the seeded pool and parse every manifest once."""
    cases = workload.generate(seed)
    manifests = [qsaf.parse_manifest(case.text) for case in cases]
    return cases, manifests


def setup_child(workload, seed):
    """Time import + generate + parse in this fresh process."""
    t0 = time.perf_counter()
    qsaf = import_qsaf()
    load_inputs(qsaf, workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def time_setup(name, seed):
    """Set-up seconds of one fresh process, as it measured them."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class SetupSampler:
    """Fresh-process set-ups spread evenly over the loop's time.

    The machine's speed drifts within a run; samples taken back to back
    would all see one moment of it, while spread ones see what the ops see.
    """

    def __init__(self, name, seed, seconds):
        self.name, self.seed = name, seed
        self.due = [seconds * j / SETUP_REPEATS
                    for j in range(SETUP_REPEATS)]
        self.times = []

    def __call__(self, elapsed_s):
        while self.due and elapsed_s >= self.due[0]:
            self.due.pop(0)
            self.times.append(time_setup(self.name, self.seed))


def run_op(qsaf, workload, case, manifest):
    if workload.kind == "execute":
        return qsaf.execute(manifest)
    parsed = qsaf.parse_manifest(case.text)
    graph = parsed.graph
    diagnostics = graph.validate()
    if any(d.blocking for d in diagnostics):
        return diagnostics, None
    return diagnostics, qsaf.export_gates(graph.flatten())


class Loop:
    """Outcome of one closed loop."""

    def __init__(self):
        self.latency = {False: [], True: []}    # by traced, failures = inf
        self.busy_s = {False: 0.0, True: 0.0}   # op + check wall time
        self.passed = {False: 0, True: 0}
        self.best = {}                          # input -> fastest untraced
        self.components = 0                     # graph components, traced
        self.errors = []
        self.elapsed_s = 0.0

    @property
    def attempted(self):
        return sum(len(v) for v in self.latency.values())

    @property
    def failed(self):
        return self.attempted - sum(self.passed.values())


def closed_loop(qsaf, workload, cases, manifests, seconds, tracer=None,
                between=None):
    """Run ops back to back for ``seconds``; with a tracer, each input
    runs twice in a row, unpatched and then traced. ``between`` is called
    with the loop's elapsed seconds before each op; its own time is left
    out of the loop's."""
    loop = Loop()
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    k = 0
    least = 1 if tracer is None else 2    # a traced run needs both kinds
    while k < least or clock() - start - paused < seconds:
        if between is not None:
            t = clock()
            between(t - start - paused)
            paused += clock() - t
        i = (k // 2 if tracer is not None else k) % len(cases)
        traced = tracer is not None and k % 2 == 1
        t_begin = clock()
        if traced:
            tracer.current_op = k
            tracer.install()
        t0 = clock()
        try:
            try:
                result = run_op(qsaf, workload, cases[i], manifests[i])
            finally:
                t1 = clock()
                if traced:
                    tracer.remove()
            workload.check(cases[i], result)
            ok = True
        except Exception as exc:  # a failed op is counted, never fatal
            ok = False
            loop.errors.append(f"op {k} input {i}: "
                               f"{type(exc).__name__}: {exc}")
        loop.busy_s[traced] += clock() - t_begin
        latency = t1 - t0 if ok else math.inf
        loop.latency[traced].append(latency)
        if not traced:
            loop.best[i] = min(loop.best.get(i, math.inf), latency)
        loop.passed[traced] += ok
        if traced:
            loop.components += len(manifests[i].graph.components)
        k += 1
    loop.elapsed_s = clock() - start - paused
    return loop


def capped_ms(seconds, ceiling_s):
    # a failed op misses every timing; report the run length for it
    return 1e3 * min(seconds, ceiling_s)


def high_percentile(latencies):
    """Highest whole percentile with at least ten samples above it."""
    n = len(latencies)
    if n < 20:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(latencies)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def environment(np, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "qsaf").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def write_result(name, seed, trace, record):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def write_spans(name, tracer):
    """Dump every recorded span, one tab-separated line each."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{name}.tsv"
    with open(path, "w") as out:
        out.write("name\tstart_s\tend_s\tparent\top\n")
        for span in tracer.spans():
            out.write("%s\t%.9f\t%.9f\t%d\t%d\n" % span)
    return path


def run_workload(args):
    workload = workloads.WORKLOADS[args.workload]
    qsaf = import_qsaf()
    import numpy as np

    cases, manifests = load_inputs(qsaf, workload, args.seed)
    if workload.prepare is not None:
        workload.prepare(cases)
    digest = workloads.inputs_digest(cases)
    env = environment(np, args.seed)
    print(f"# workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# inputs sha256={digest} pool={len(cases)}")
    print("# env " + json.dumps(env, sort_keys=True))

    tracer = sampler = None
    if args.trace:
        tracer = tracing.Tracer()
    else:
        sampler = SetupSampler(workload.name, args.seed, args.seconds)
    loop = closed_loop(qsaf, workload, cases, manifests, args.seconds,
                       tracer, sampler)
    for line in loop.errors[:5]:
        print(f"# FAILED {line}", file=sys.stderr)

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": digest, "env": env,
              "attempted": loop.attempted, "failed": loop.failed,
              "error_rate": loop.failed / max(loop.attempted, 1)}
    if args.trace:
        untraced_rate = loop.passed[False] / loop.busy_s[False]
        traced_rate = loop.passed[True] / max(loop.busy_s[True], 1e-12)
        traced_ops = len(loop.latency[True])
        values, shares = tracing.summarize(tracer, traced_ops,
                                           loop.components,
                                           loop.busy_s[True])
        values["trace.overhead"] = 1.0 - traced_rate / untraced_rate
        record["layer_shares"] = shares
        record["spans"] = str(write_spans(workload.name, tracer)
                              .relative_to(ROOT))
        record["traced_ops"] = traced_ops
        units = PER_LAYER_UNITS
        print(f"# traced ops={traced_ops} untraced ops="
              f"{len(loop.latency[False])}")
        print("# layer shares of traced op time: " + ", ".join(
            f"{k}={v:.1%}" for k, v in shares.items()))
    else:
        lat = loop.latency[False]
        sampler(math.inf)  # any set-up the loop ended before
        values = {
            "setup_s": statistics.median(sampler.times),
            "op_best_ms": statistics.fmean(
                capped_ms(s, loop.elapsed_s) for s in loop.best.values()),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        reported = {
            "ops_per_s": loop.passed[False] / loop.elapsed_s,
            "op_p50_ms": capped_ms(statistics.median(lat), loop.elapsed_s),
            "error_rate": record["error_rate"],
        }
        record.update(reported, setup_runs_s=sampler.times)
        for key, value in values.items():
            print(f"{key} = {value:.6g} {units[key]}")
        for key, value in reported.items():
            print(f"{key} = {value:.6g} {REPORTED_UNITS[key]}")
        print(f"op_count = {len(lat)}")
        tail = high_percentile(lat)
        if tail is not None:
            record[f"op_p{tail[0]}_ms"] = 1e3 * tail[1]
            print(f"op_p{tail[0]}_ms = {1e3 * tail[1]:.6g} ms")
    record["metrics"] = values
    write_result(workload.name, args.seed, args.trace, record)
    print(json.dumps({
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))


def run_all(args):
    """Each workload in a fresh process; one table of end-to-end metrics."""
    print(f"# seed={args.seed} seconds={args.seconds}")
    print(f"{'workload':<12} {'metric':<12} {'value':>14} unit")
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{name} failed:\n{proc.stderr}")
        for line in proc.stdout.splitlines():
            key, sep, rest = line.partition(" = ")
            if sep and not line.startswith("#"):
                value, _, unit = rest.partition(" ")
                print(f"{name:<12} {key:<12} {value:>14} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_child:
        setup_child(workloads.WORKLOADS[args.workload], args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
