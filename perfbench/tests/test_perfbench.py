"""Tests of the benchmark itself: inputs, oracles, tracing, and contract.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qsaf
import run
import tracing
import workloads
from workloads import OracleError

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


# generated inputs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    generate = workloads.WORKLOADS[name].generate
    first, again, other = generate(3), generate(3), generate(4)
    assert [c.text for c in first] == [c.text for c in again]
    assert workloads.inputs_digest(first) == workloads.inputs_digest(again)
    assert workloads.inputs_digest(first) != workloads.inputs_digest(other)


def test_every_pool_holds_the_same_fault_and_contract_mix():
    for seed in (1, 2):
        cases = workloads.compose_cases(seed)
        faults = sorted(str(c.expect["fault"]) for c in cases)
        assert faults.count("None") == 108
        assert all(faults.count(f) == 6 for f in workloads.FAULTS)
        assert sum(c.expect["contract"] for c in cases) == 96


def test_order_pool_holds_the_same_modulus_and_order_mix():
    for seed in (1, 5):
        cases = workloads.order_cases(seed)
        assert [(c.expect["modulus"], c.expect["order"]) for c in cases] \
            == list(workloads.QPE_MIX)


# oracles


def _grover_outcome(case, marked_hits):
    shots = workloads.GROVER_SHOTS
    other = "1" * workloads.GROVER_BITS
    if other == case.expect["marked"]:
        other = "0" * workloads.GROVER_BITS
    counts = {case.expect["marked"]: marked_hits, other: shots - marked_hits}
    return [SimpleNamespace(counts=counts)]


def test_grover_oracle_rejects_shifted_counts():
    case = workloads.grover_cases(1)[0]
    workloads.check_grover(case, _grover_outcome(case, 19990))
    with pytest.raises(OracleError):
        workloads.check_grover(case, _grover_outcome(case, 19700))
    shifted = {k + "0": v for k, v in
               _grover_outcome(case, 19990)[0].counts.items()}
    with pytest.raises(OracleError):
        workloads.check_grover(case, [SimpleNamespace(counts=shifted)])


def _peaks(order, t, shots):
    """Counts with one exact peak per multiple of 1/order."""
    counts = {}
    for s in range(order):
        key = format(round(s * 2 ** t / order) % 2 ** t, f"0{t}b")
        counts[key] = counts.get(key, 0) + shots // order
    first = next(iter(counts))
    counts[first] += shots - sum(counts.values())
    return counts


def test_order_oracle_checks_against_brute_force():
    assert workloads.brute_force_order(7, 15) == 4
    assert workloads.brute_force_order(2, 21) == 6
    case = next(c for c in workloads.order_cases(1)
                if c.expect["order"] > 2)
    t, order = case.expect["t"], case.expect["order"]
    workloads.check_order(
        case, [SimpleNamespace(counts=_peaks(order, t, workloads.QPE_SHOTS))])
    with pytest.raises(OracleError):
        workloads.check_order(
            case, [SimpleNamespace(counts=_peaks(2, t, workloads.QPE_SHOTS))])
    wrong = SimpleNamespace(expect=dict(case.expect, order=order + 1))
    with pytest.raises(OracleError):
        workloads.check_order(
            wrong,
            [SimpleNamespace(counts=_peaks(order, t, workloads.QPE_SHOTS))])


def test_ground_energy_matches_a_known_chain():
    # zero field: the antiferromagnetic chain's ground energy is -(n-1)
    assert workloads.ground_energy(workloads.ising_terms(0.0)) == \
        pytest.approx(-(workloads.VQE_QUBITS - 1))


def test_vqe_oracle_rejects_energy_below_ground_and_rising_trace():
    case = workloads.vqe_cases(1)[0]
    workloads.prepare_vqe([case])
    ground = case.expect["ground"]

    def outcome(best, trace):
        return [SimpleNamespace(result=SimpleNamespace(best_energy=best,
                                                       trace=trace))]

    workloads.check_vqe(case, outcome(ground + 0.5, [1.0, ground + 0.5]))
    for best, trace in ((ground - 1e-6, [1.0, ground - 1e-6]),
                        (ground + 0.5, [1.0, 2.0, ground + 0.5]),
                        (1.0, [1.0])):
        with pytest.raises(OracleError):
            workloads.check_vqe(case, outcome(best, trace))


def test_compose_oracle_rejects_missing_or_extra_diagnostics():
    cases = workloads.compose_cases(1)
    faulty = next(c for c in cases if c.expect["fault"])
    clean = next(c for c in cases if not c.expect["fault"])
    code = SimpleNamespace(code=faulty.expect["fault"])
    workloads.check_compose(faulty, ([code], None))
    with pytest.raises(OracleError):
        workloads.check_compose(faulty, ([], None))
    with pytest.raises(OracleError):
        workloads.check_compose(
            faulty, ([code, SimpleNamespace(code="fan_in")], None))
    graph = qsaf.parse_manifest(clean.text).graph
    qasm = qsaf.export_gates(graph.flatten())
    workloads.check_compose(clean, ([], qasm))
    with pytest.raises(OracleError):
        workloads.check_compose(clean, ([], qasm + "h q[0];\n"))
    with pytest.raises(OracleError):
        workloads.check_compose(clean, ([code], qasm))


def test_every_generated_chain_passes_its_oracle():
    wl = workloads.WORKLOADS["compose_mix"]
    for case in workloads.compose_cases(2):
        wl.check(case, run.run_op(qsaf, wl, case, None))


# tracing


def test_self_time_subtracts_covered_child_time():
    # 0: [0, 10] root; 1: [1, 4] and 3: [5, 9] under 0; 2: [2, 3] under 1;
    # 4 and 5 overlap under 3 and cover [6, 8.5] together
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0, 8.5]
    parent = [-1, 0, 1, 0, 3, 3]
    assert tracing.self_times(start, end, parent) == pytest.approx(
        [3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def _bindings_snapshot():
    """Identity of every attribute of every qsaf module and of the graph."""
    owners = {name: module for name, module in sys.modules.items()
              if module is not None
              and (name == "qsaf" or name.startswith("qsaf."))}
    owners["ArchitectureGraph"] = qsaf.ArchitectureGraph
    return {name: {attr: id(value) for attr, value in vars(owner).items()}
            for name, owner in owners.items()}


def _traced_op(name, case):
    wl = workloads.WORKLOADS[name]
    manifest = qsaf.parse_manifest(case.text)
    with tracing.Tracer() as tracer:
        result = run.run_op(qsaf, wl, case, manifest)
    wl.check(case, result)
    return tracer, len(manifest.graph.components)


def test_wrappers_are_installed_everywhere_and_fully_restored():
    before = _bindings_snapshot()
    tracer = tracing.Tracer()
    sites = {(getattr(o, "__name__", o), a) for o, a, _, _ in tracer._sites}
    for site in (("qsaf.composition", "realize"),
                 ("qsaf.simulate", "apply_matrix"),
                 ("qsaf.simulate", "realize_ansatz"),
                 ("qsaf.workflows", "run"), ("qsaf.workflows", "sample"),
                 ("qsaf.workflows", "variational_minimize"),
                 ("qsaf.simulate", "run"), ("qsaf", "execute")):
        assert site in sites
    case = workloads.compose_cases(1)[0]
    _traced_op("compose_mix", case)
    assert _bindings_snapshot() == before


def test_realize_per_component_matches_the_code():
    # validate realizes each component once and a contract check flattens
    # once more; flatten validates again before its own flattening pass
    for case in workloads.compose_cases(1):
        tracer, components = _traced_op("compose_mix", case)
        values, _ = tracing.summarize(tracer, 1, components, 1.0)
        if case.expect["fault"]:
            want = 1.0
        else:
            want = 5.0 if case.expect["contract"] else 3.0
        assert values["lowering.realize_per_component"] == want


def test_vqe_gradient_takes_48_runs():
    case = workloads.vqe_cases(1)[0]
    workloads.prepare_vqe([case])
    tracer, _ = _traced_op("vqe_hea", case)
    values, _ = tracing.summarize(tracer, 1, 3, 1.0)
    assert values["simulate.runs_per_gradient"] == 48.0
    assert values["simulate.gradient_calls"] == \
        values["simulate.optimizer_iterations"] == workloads.VQE_MAX_ITERS
    assert values["simulate.line_search_evals"] >= workloads.VQE_MAX_ITERS
    assert values["simulate.pauli_terms"] == \
        11 * values["simulate.expectation_calls"]


# the benchmark's own contract


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS


def _copy_tree(dest, with_source):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__", "results")
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compose_mix",
         "--seed", "1", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(tmp_path, trace):
    _copy_tree(tmp_path, with_source=True)
    proc = _bench(tmp_path, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_run_fails_without_the_program(tmp_path):
    _copy_tree(tmp_path, with_source=False)
    proc = _bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
