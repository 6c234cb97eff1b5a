#!/usr/bin/env python3
"""In-process A/B cases of the simulator, two trees in fresh processes.

    python3 tools/bench_cases.py --parent ../parent --change . \\
        --label one_run --pairs 10 --repeats 9 --out BENCH_one_run.json \\
        --variant GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432\\
:glibc.malloc.trim_threshold=134217728

Each case builds its circuit once in a fresh process that imports qsaf
from one tree's ``src/``, then times ``run`` on copies of its op list,
each a new op list of the same structure: the first call (plan built,
held runs composed) and the best of ``--repeats`` later calls (plan
reused, angled blocks bound again). One fresh process per case, side and
pair; odd pairs run the parent first, even pairs the change. Every case
runs in the default environment and again under each ``--variant``
NAME=VALUE, set on both sides' processes.

The output holds, per environment, case and metric, each side's runs
with their median and quartiles, the pairs in which the change read
lower, and whether the change's median lies above the parent's upper
quartile: the fields of ``tools/bench_pairs.py``.

Standard library only in the parent process; the children use numpy and
the tree's qsaf.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import compare  # noqa: E402

METRICS = ("first_ms", "replay_ms")

GROVER16 = """\
component sup = Superposition(n=9)
component search = GroverOperator(n=9, marked=[300], iterations=17)
component meas = Measurement(n=9)
wire sup.out -> search.in
wire search.out -> meas.in
"""


def _grover16():
    """The 9-qubit Grover search of grover16, decomposed: 16 qubits, its
    MCZ gates spelled as Toffoli ladders on 7 scratch qubits."""
    from qsaf.gates import GateKind, decompose
    from qsaf.manifest import parse_manifest
    circuit = decompose(parse_manifest(GROVER16).graph.flatten())
    return circuit.width, [g for g in circuit.ops
                           if g.kind is not GateKind.MEASURE]


def _hea(n, layers):
    """The hardware-efficient ansatz (id 25): RY and RZ on each qubit,
    then a CNOT chain, ``layers`` times, at fixed seeded angles."""
    def build():
        import numpy as np
        from qsaf.lowering import realize_ansatz
        thetas = np.random.default_rng(10 * n + layers).uniform(
            -math.pi, math.pi, 2 * n * layers)
        circuit = realize_ansatz(25, {"n": n, "layers": layers},
                                 thetas).circuit
        return n, list(circuit.ops)
    return build


def _chain16():
    """H on qubit 0, then a CNOT chain over 16 qubits."""
    from qsaf.gates import cnot, h
    return 16, [h(0)] + [cnot(q, q + 1) for q in range(15)]


# name -> builder of (width, ops); each timed call runs a new op list
CASES = {
    "grover16_decomposed": _grover16,
    "hea_L4_n12": _hea(12, 4),
    "hea_L4_n16": _hea(16, 4),
    "hea_L1_n16": _hea(16, 1),
    "chain_n16": _chain16,
}


def time_case(name, repeats):
    """{first_ms, replay_ms} of one case in this process: the first
    ``run`` of its op list, and the best of ``repeats`` runs, each of a
    new copy of it (the same structure, new gate objects)."""
    from qsaf.gates import GateCircuit
    from qsaf.simulate import run
    width, ops = CASES[name]()
    circuits = [GateCircuit.trusted(width, [copy.copy(g) for g in ops])
                for _ in range(repeats + 1)]
    times = []
    for circuit in circuits:
        start = time.perf_counter()
        run(circuit)
        times.append((time.perf_counter() - start) * 1e3)
    return {"first_ms": times[0], "replay_ms": min(times[1:])}


def run_child(tree, name, repeats, env):
    """``time_case`` in a fresh process importing qsaf from ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", name,
         "--src", str(Path(tree).resolve() / "src"),
         "--repeats", str(repeats)],
        capture_output=True, text=True, check=False,
        env={**os.environ, **env})
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: case {name} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def measure(args, name, env):
    """``args.pairs`` alternating pairs of one case in one environment."""
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_child(sides[side], name, args.repeats, env))
            print(f"{name} pair {i + 1} {side}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[side][-1].items()),
                file=sys.stderr, flush=True)
    return compare(runs, METRICS)


def _child(argv):
    """The child side: ``--child NAME --src DIR --repeats R``."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", required=True, choices=CASES)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--repeats", required=True, type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    import qsaf
    if Path(qsaf.__file__).resolve().parent != args.src.resolve() / "qsaf":
        raise SystemExit(f"qsaf came from {qsaf.__file__}, not {args.src}")
    print(json.dumps(time_case(args.child, args.repeats)))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--child" in argv:
        return _child(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path,
                        help="checkout of the change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--case", action="append", choices=CASES,
                        help="repeat for more (default: every case)")
    parser.add_argument("--variant", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="an environment variable set on both sides' "
                             "processes for a second pass; repeat for more")
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles need two runs a side
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    variants = {"default": {}}
    for variant in args.variant:
        key, sep, value = variant.partition("=")
        if not key or not sep:
            parser.error(f"--variant must be NAME=VALUE, got {variant!r}")
        variants[variant] = {key: value}

    record = {"label": args.label, "pairs": args.pairs,
              "repeats": args.repeats,
              "protocol": (
                  "one fresh process per case, side and pair, importing "
                  "qsaf from that side's src/; first_ms is the first run "
                  "of the case's op list, replay_ms the best of "
                  f"{args.repeats} runs of new copies of it; "
                  f"{args.pairs} alternating parent/change pairs, odd "
                  "pairs parent first; every case in each environment"),
              "environments": {}}
    for label, env in variants.items():
        record["environments"][label] = {
            name: measure(args, name, env) for name in args.case or CASES}
    record.update(nproc=os.cpu_count(), python=platform.python_version())
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
