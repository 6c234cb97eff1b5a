"""Run directives: simulation outcomes, minimization, error paths."""

import numpy as np
import pytest

from qsaf.composition import ArchitectureGraph, ComponentInstance, optimizer
from qsaf.errors import QsafError, ValidationFailedError
from qsaf.lowering import lower
from qsaf.manifest import RunDirective, parse_manifest
from qsaf.simulate import PauliObservable, expectation, run, sample
from qsaf.workflows import (MinimizationOutcome, SimulationOutcome, execute,
                            execute_directive, render_minimization,
                            render_simulation, simulate_graph)
from reference import X2, Z2, op_on

COIN = ("name coin\n"
        "component sup = Superposition(n=1)\n"
        "component meas = Measurement(n=1)\n"
        "wire sup.out -> meas.in\n"
        "run simulate shots=64 seed=5\n")


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
