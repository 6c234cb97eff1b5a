"""Run directives: simulation outcomes, minimization, error paths."""

import sys

import numpy as np
import pytest

import qsaf.lowering as lowering
import qsaf.simulate as simulate
from qsaf.composition import ArchitectureGraph, ComponentInstance, optimizer
from qsaf.gates import Gate, GateCircuit
from qsaf.errors import QsafError, ValidationFailedError
from qsaf.lowering import lower
from qsaf.manifest import RunDirective, parse_manifest
from qsaf.simulate import (OptimizerConfig, PauliObservable, expectation,
                           run, sample, variational_minimize)
import qsaf.workflows as workflows
from qsaf.workflows import (MinimizationOutcome, SimulationOutcome,
                            directive_problems, execute, execute_directive,
                            render_minimization, render_simulation,
                            simulate_graph)
from reference import X2, Z2, op_on

COIN = ("name coin\n"
        "component sup = Superposition(n=1)\n"
        "component meas = Measurement(n=1)\n"
        "wire sup.out -> meas.in\n"
        "run simulate shots=64 seed=5\n")


# the shape of the benchmark's grover16 op: 9 qubits, 17 iterations
GROVER9 = ("component sup = Superposition(n=9)\n"
           "component search = GroverOperator(n=9, marked=[15], "
           "iterations=17)\n"
           "component meas = Measurement(n=9)\n"
           "wire sup.out -> search.in\n"
           "wire search.out -> meas.in\n"
           "run simulate shots=100 seed=1\n")


def test_grover_execute_builds_each_gate_of_one_iteration_once(monkeypatch):
    manifest = parse_manifest(GROVER9)
    built = []
    check = Gate.__post_init__

    def counting(gate):
        built.append(gate.kind)
        check(gate)

    monkeypatch.setattr(Gate, "__post_init__", counting)
    (outcome,) = execute(manifest)
    assert outcome.counts == {"000001111": 100}
    # validate and flatten each realize the three components once: 9 H,
    # one iteration and 9 measures. The iteration builds 5 X and an MCZ
    # for the mark, and 9 H, 9 X and an MCZ for the diffusion: each X or H
    # layer is one list of gates placed on both sides of its flip. The 17
    # iterations share those gates, and flatten maps every component onto
    # its own qubits and bits, so it builds none.
    assert len(built) == 2 * (9 + (5 + 1) + (9 + 9 + 1) + 9) == 86


def _vqe_like(optimizer_line, extra=""):
    return ("component ansatz = HardwareEfficientAnsatz(n=2, layers=1, "
            "thetas=[0.1, 0.2, 0.3, 0.4])\n"
            "component meas = Measurement(n=2)\n"
            f"{optimizer_line}\n{extra}"
            "wire ansatz.out -> meas.in\n"
            "wire meas.bits -> opt.in\n"
            "wire opt.out -> ansatz.params\n"
            "run minimize\n")


def test_simulate_graph_without_measurement_reports_the_statevector():
    graph = ArchitectureGraph()
    graph.add_component(ComponentInstance("bell", 4, {}))
    outcome = simulate_graph(graph, shots=128, seed=3)
    assert isinstance(outcome, SimulationOutcome)
    assert not outcome.measured
    assert outcome.register_width == 2
    assert set(outcome.counts) <= {"00", "11"}
    assert sum(outcome.counts.values()) == 128


def test_simulate_projects_onto_the_classical_register():
    graph = ArchitectureGraph()
    graph.add_component(ComponentInstance("sup", 2, {"n": 1}))
    graph.add_component(ComponentInstance("bell", 4, {}))
    graph.add_component(ComponentInstance("meas", 33, {"n": 1}))
    graph.wire("sup.out", "meas.in")
    outcome = simulate_graph(graph, shots=512, seed=1)
    assert outcome.measured
    assert outcome.register_width == 1
    assert set(outcome.counts) == {"0", "1"}
    assert sum(outcome.counts.values()) == 512


def test_simulate_orders_classical_bits_most_significant_first():
    manifest = parse_manifest(
        "component basis = BasisStates(n=2, value=2)\n"
        "component meas = Measurement(n=2)\n"
        "wire basis.out -> meas.in\n"
        "run simulate shots=16 seed=0\n")
    outcome, = execute(manifest)
    assert outcome.counts == {"10": 16}


def test_execute_takes_the_seed_from_the_directive():
    state = run(lower(2, {"n": 1})).state
    manifest = parse_manifest(COIN)
    outcome, = execute(manifest)
    assert outcome.counts == sample(state, 64, 5)
    again, = execute(manifest)
    assert again.counts == outcome.counts


def test_an_explicit_seed_overrides_the_directive():
    state = run(lower(2, {"n": 1})).state
    manifest = parse_manifest(COIN)
    outcome, = execute(manifest, seed=123)
    assert outcome.counts == sample(state, 64, 123)


def test_simulate_appends_no_gate_past_the_flattening(monkeypatch):
    manifest = parse_manifest(
        "component sup = Superposition(n=5)\n"
        "component search = GroverOperator(n=5, marked=[9], "
        "iterations=4)\n"
        "component meas = Measurement(n=5)\n"
        "wire sup.out -> search.in\n"
        "wire search.out -> meas.in\n"
        "run simulate shots=64 seed=5\n")
    appended = []
    append = GateCircuit.append
    monkeypatch.setattr(GateCircuit, "append", lambda self, gate: (
        appended.append(gate), append(self, gate))[1])
    manifest.graph.flatten()
    flattening = len(appended)
    appended.clear()
    (outcome,) = execute(manifest)
    assert len(appended) == flattening
    assert outcome.counts["01001"] > 32


def test_execute_preserves_directive_order(vqe_manifest_text):
    manifest = parse_manifest(vqe_manifest_text
                              + "run simulate shots=8 seed=2\n")
    outcomes = execute(manifest)
    assert isinstance(outcomes[0], MinimizationOutcome)
    assert isinstance(outcomes[1], SimulationOutcome)


def test_unknown_verbs_are_rejected(vqe_manifest_text):
    manifest = parse_manifest(vqe_manifest_text)
    with pytest.raises(QsafError):
        execute_directive(manifest, RunDirective("anneal", {}))


def test_directive_problems_check_without_simulating(monkeypatch,
                                                    vqe_manifest_text):
    manifest = parse_manifest(vqe_manifest_text + "run simulate shots=8\n")
    monkeypatch.setattr(workflows, "run", pytest.fail)
    monkeypatch.setattr(workflows, "variational_minimize", pytest.fail)
    assert directive_problems(manifest) == []


def test_minimize_reports_ansatz_and_observable(vqe_manifest_text):
    manifest = parse_manifest(vqe_manifest_text)
    outcome, = execute(manifest)
    assert outcome.ansatz_instance == "ansatz"
    assert outcome.observable == "Z0*Z1 + 0.5*X0"
    assert outcome.result.converged


def test_directive_options_override_optimizer_params(vqe_manifest_text):
    manifest = parse_manifest(vqe_manifest_text)
    outcome = execute_directive(
        manifest, RunDirective("minimize", {"max_iters": 1}))
    assert outcome.result.iterations == 1
    assert not outcome.result.converged


def test_unknown_minimize_options_are_rejected(vqe_manifest_text):
    manifest = parse_manifest(vqe_manifest_text)
    with pytest.raises(QsafError) as info:
        execute_directive(manifest, RunDirective("minimize", {"foo": 1}))
    assert "unknown minimize option" in str(info.value)


def test_optimizer_config_comes_from_component_params():
    manifest = parse_manifest(_vqe_like(
        'component opt = Optimizer(observable="Z0", step=0.5, '
        "max_iters=200)"))
    outcome, = execute(manifest)
    assert outcome.result.converged
    assert outcome.result.best_energy == pytest.approx(-1.0, abs=1e-4)


def test_minimize_needs_exactly_one_optimizer():
    manifest = parse_manifest(
        "component ansatz = HardwareEfficientAnsatz(n=2, layers=1, "
        "thetas=[0.1, 0.2, 0.3, 0.4])\n"
        "component meas = Measurement(n=2)\n"
        "wire ansatz.out -> meas.in\n"
        "run minimize\n")
    with pytest.raises(QsafError) as info:
        execute(manifest)
    assert "found 0" in str(info.value)

    manifest = parse_manifest(_vqe_like(
        'component opt = Optimizer(observable="Z0")',
        extra='component opt2 = Optimizer(observable="Z1")\n'
              "wire meas.bits -> opt2.in\n"))
    with pytest.raises(QsafError) as info:
        execute(manifest)
    assert "found 2" in str(info.value)


def test_minimize_cannot_guess_among_several_ansatz_components():
    manifest = parse_manifest(
        "component a1 = HardwareEfficientAnsatz(n=2, layers=1, "
        "thetas=[0.1, 0.2, 0.3, 0.4])\n"
        "component a2 = HardwareEfficientAnsatz(n=2, layers=1, "
        "thetas=[0.1, 0.2, 0.3, 0.4])\n"
        "component meas = Measurement(n=2)\n"
        'component opt = Optimizer(observable="Z0")\n'
        "wire a1.out -> meas.in\n"
        "wire meas.bits -> opt.in\n"
        "run minimize\n")
    with pytest.raises(QsafError) as info:
        execute(manifest)
    assert "cannot decide" in str(info.value)


def test_minimize_requires_an_observable():
    manifest = parse_manifest(_vqe_like(
        "component opt = Optimizer(max_iters=5)"))
    with pytest.raises(QsafError) as info:
        execute(manifest)
    assert "observable" in str(info.value)


def test_minimize_needs_initial_thetas():
    # HamiltonianAnsatz realizes from dt alone, so validation passes
    manifest = parse_manifest(
        "component h = HamiltonianAnsatz(n=2, dt=0.1)\n"
        "component meas = Measurement(n=2)\n"
        'component opt = Optimizer(observable="Z0")\n'
        "wire h.out -> meas.in\n"
        "wire meas.bits -> opt.in\n"
        "run minimize\n")
    with pytest.raises(QsafError) as info:
        execute(manifest)
    assert str(info.value) == "h needs initial 'thetas'"


def test_minimize_realizes_the_ansatz_only_inside_the_descent(monkeypatch):
    # validate parses the observable at the ansatz's width, so the run
    # realizes no ansatz of its own
    calls = []
    realize_ansatz = lowering.realize_ansatz

    def spy(*args):
        calls.append(args)
        return realize_ansatz(*args)

    # every qsaf module that binds the function by name
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qsaf") and \
                getattr(module, "realize_ansatz", None) is realize_ansatz:
            monkeypatch.setattr(module, "realize_ansatz", spy)
    assert simulate.realize_ansatz is spy
    (outcome,) = execute(parse_manifest(_vqe_like(
        'component opt = Optimizer(observable="Z0*Z1 + 0.5*X0", '
        "max_iters=4)")))
    in_execute, calls[:] = len(calls), []
    structure = {"n": 2, "layers": 1, "thetas": [0.1, 0.2, 0.3, 0.4]}
    direct = variational_minimize(
        25, [0.1, 0.2, 0.3, 0.4], PauliObservable.parse("Z0*Z1 + 0.5*X0", 2),
        OptimizerConfig(max_iters=4), structure)
    assert outcome.result.iterations == direct.iterations == 4
    assert in_execute == len(calls) >= 1 + 4


def test_minimize_descends_on_a_problem_inspired_ansatz():
    params = {"n": 3, "edges": [[0, 1], [1, 2]], "gammas": [0.4, 0.1],
              "betas": [0.3, 0.2]}
    text = "Z0*Z1 + Z1*Z2 + 0.5*X1"
    manifest = parse_manifest(
        "component qaoa = ProblemInspiredAnsatz(n=3, edges=[[0, 1], [1, 2]],"
        " gammas=[0.4, 0.1], betas=[0.3, 0.2])\n"
        "component meas = Measurement(n=3)\n"
        f'component opt = Optimizer(observable="{text}", max_iters=40)\n'
        "wire qaoa.out -> meas.in\n"
        "wire meas.bits -> opt.in\n"
        "wire opt.out -> qaoa.params\n"
        "run minimize\n")
    outcome, = execute(manifest)
    obs = PauliObservable.parse(text, 3)
    start = expectation(run(lower(26, params)).state, obs)
    matrix = (op_on(3, Z2, [0]) @ op_on(3, Z2, [1])
              + op_on(3, Z2, [1]) @ op_on(3, Z2, [2])
              + 0.5 * op_on(3, X2, [1]))
    ground = float(np.linalg.eigvalsh(matrix)[0])
    result = outcome.result
    assert outcome.ansatz_instance == "qaoa"
    assert result.trace[0] == pytest.approx(start, abs=1e-12)
    assert ground - 1e-9 <= result.best_energy < start
    assert len(result.best_params) == 4


def test_minimize_surfaces_blocking_diagnostics():
    manifest = parse_manifest(_vqe_like(
        'component opt = Optimizer(observable="Z0")').replace(
            ", thetas=[0.1, 0.2, 0.3, 0.4]", ""))
    with pytest.raises(ValidationFailedError):
        execute(manifest)


def test_render_simulation_format():
    manifest = parse_manifest(
        "component basis = BasisStates(n=2, value=2)\n"
        "component meas = Measurement(n=2)\n"
        "wire basis.out -> meas.in\n"
        "run simulate shots=16 seed=0\n")
    outcome, = execute(manifest)
    text = render_simulation(outcome)
    assert text.splitlines() == [
        "[simulate]",
        "shots = 16",
        "register = classical (2 bits)",
        "counts[10] = 16",
    ]
    bare = simulate_graph(_bell_graph(), shots=8, seed=4)
    assert "register = statevector (2 bits)" in render_simulation(bare)


def _bell_graph():
    graph = ArchitectureGraph()
    graph.add_component(ComponentInstance("bell", 4, {}))
    return graph


def test_render_minimization_format(vqe_manifest_text):
    manifest = parse_manifest(vqe_manifest_text)
    outcome, = execute(manifest)
    text = render_minimization(outcome)
    lines = text.splitlines()
    assert lines[0] == "[minimize]"
    assert lines[1] == "ansatz = ansatz"
    assert lines[2] == "observable = Z0*Z1 + 0.5*X0"
    assert lines[3].startswith("best_energy = -1.")
    assert any(line == "converged = true" for line in lines)
