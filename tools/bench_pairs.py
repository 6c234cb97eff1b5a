#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, summarized.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --label replay_memo --seed 2 --seed 1 --claim vqe_hea \\
        --target 1.12 --out BENCH_replay_memo.json

Both checkouts are run with their own ``perfbench/run.py`` (``--trace 0``,
the same ``--seconds``), one fresh process per run. Odd pairs (the first,
the third, ...) run the parent first, even pairs the change. The output file
holds, per workload, each side's runs of every end-to-end metric with
their median and quartiles, the ops attempted and failed, the number of
pairs in which the change read lower, whether the change's median lies
above the parent's upper quartile, so a metric that moved up is read
from the file, and whether it is worse than the parent's by more than
the metric's bound. The claimed workload gets a
``claim`` entry per seed: the change is lower in at least 9 of 10 pairs,
and its median is below the parent's by more than the parent's
interquartile range.

The workloads, and each end-to-end metric's ``better`` direction and
``bound`` (a fraction of the parent's median: 0.1 is 10%), are read from
the ``BENCHMARK.json`` of the repository that holds this tool.

Standard library only: the numbers come from the last line of each run,
a JSON object (see ``perfbench/run.py``), and the ``# env`` line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

_BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                         / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in _BENCHMARK["workloads"])
# metric name -> {"name", "unit", "better", "bound"}
END_TO_END = {metric["name"]: metric for metric in _BENCHMARK["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py`` run in ``checkout``: (metrics, attempted,
    failed, env)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n"
                         f"{proc.stderr}")
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    last = json.loads(lines[-1])
    metrics = {key: entry["value"] for key, entry in last["metrics"].items()}
    return metrics, last["attempted"], last["failed"], env


def summary(runs):
    """Median, quartiles and extremes of ``runs``, and the runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3,
            "min": min(runs), "max": max(runs)}


def compare(runs, keys):
    """The pair fields of ``runs``, {"parent": [...], "change": [...]},
    each a list of dicts holding ``keys``, in pair order: each side's
    summary per key, the pairs in which the change read lower, and
    whether the change's median lies above the parent's upper quartile."""
    result = {"pairs": len(runs["parent"]), "change_lower_in_pairs": {
        key: sum(c[key] < p[key]
                 for p, c in zip(runs["parent"], runs["change"]))
        for key in keys}}
    for side, side_runs in runs.items():
        result[side] = {key: summary([run[key] for run in side_runs])
                        for key in keys}
    result["change_median_above_parent_q3"] = {
        key: result["change"][key]["median"] > result["parent"][key]["q3"]
        for key in keys}
    return result


def beyond_bound(parent, change, metric):
    """Whether ``change``, a median, is worse than ``parent``'s by more
    than ``metric``'s bound, read as a fraction of ``parent``."""
    worse = change - parent if metric["better"] == "lower" else \
        parent - change
    return worse > metric["bound"] * abs(parent)


def measure(args, workload, seed, env):
    """``args.pairs`` alternating pairs of one workload at one seed."""
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    ops = {side: [0, 0] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, attempted, failed, env[side] = run_once(
                sides[side], workload, seed, args.seconds)
            runs[side].append(metrics)
            ops[side][0] += attempted
            ops[side][1] += failed
            print(f"{workload} seed {seed} pair {i + 1} {side}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  file=sys.stderr, flush=True)
    keys = list(runs["parent"][0])
    result = compare(runs, keys)
    for side in sides:
        result[side]["attempted_ops"], result[side]["failed_ops"] = \
            ops[side]
    result["change_median_beyond_bound"] = {
        key: beyond_bound(result["parent"][key]["median"],
                          result["change"][key]["median"], END_TO_END[key])
        for key in keys if key in END_TO_END}
    return result


def claim(result, workload, metric):
    """The gain rule on ``metric``: pairs won, medians, parent IQR."""
    parent, change = result["parent"][metric], result["change"][metric]
    lower = result["change_lower_in_pairs"][metric]
    difference = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    return {"workload": workload, "metric": metric,
            "pairs": result["pairs"], "change_lower_in_pairs": lower,
            "parent_median": parent["median"],
            "change_median": change["median"],
            "median_difference": difference, "parent_iqr": iqr,
            "speedup": parent["median"] / change["median"],
            "holds": lower >= 0.9 * result["pairs"] and difference > iqr}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path,
                        help="checkout of the change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed; repeat for more. The first "
                             "runs every workload, the others only the "
                             "claimed one (default: 2)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for more (default: every workload "
                             "of BENCHMARK.json)")
    parser.add_argument("--claim", choices=WORKLOADS,
                        help="the workload whose op_best_ms gain is claimed")
    parser.add_argument("--target", type=float,
                        help="the claimed speedup of op_best_ms")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles need two runs a side
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    seeds = args.seed or [2]
    workloads = args.workload or list(WORKLOADS)
    if args.claim and args.claim not in workloads:
        parser.error(f"--claim {args.claim} is not among the --workload "
                     "choices, so the first seed would measure no claim")

    env = {}
    record = {"label": args.label, "seconds": args.seconds,
              "seed": seeds[0], "trace": 0,
              "protocol": (
                  f"perfbench/run.py --workload W --seed S --seconds "
                  f"{args.seconds:g} --trace 0, {args.pairs} alternating "
                  "parent/change pairs, odd pairs parent first; every "
                  f"workload on seed {seeds[0]}"
                  + (f", {args.claim} on seeds "
                     + ", ".join(map(str, seeds[1:]))
                     if args.claim and seeds[1:] else "")),
              "workloads": {}}
    claims = {}
    for seed in seeds:
        names = workloads if seed == seeds[0] else [args.claim]
        if names == [None]:
            continue
        key = "workloads" if seed == seeds[0] else f"workloads_seed_{seed}"
        record.setdefault(key, {})
        for name in names:
            result = measure(args, name, seed, env)
            record[key][name] = result
            if name == args.claim:
                claims[f"seed_{seed}"] = claim(result, name, "op_best_ms")
    if claims:
        record["claim"] = dict(claims, target_speedup=args.target)
    side = env.get("change", {})
    record.update(nproc=side.get("nproc"), python=side.get("python"),
                  numpy=side.get("numpy"))
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
