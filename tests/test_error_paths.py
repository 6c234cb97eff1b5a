"""Error branches that the behavioural suites do not reach: each case
names the input that takes the branch and the error it raises."""

import math

import numpy as np
import pytest

import qsaf.analyze as analyze
import qsaf.cli as cli
import qsaf.gates as g
import qsaf.simulate as simulate
from qsaf.catalog import list_primitives
from qsaf.classify import MeceViolation, RatingsMatrix
from qsaf.composition import (ArchitectureGraph, ComponentInstance,
                              optimizer)
from qsaf.core import FunctionalCategory
from qsaf.errors import (BadParamsError, GateArityError, ManifestError,
                         NonReversibleError, QsafError, RatingsMatrixError,
                         TooWideError, UnknownAlgorithmError,
                         WidthMismatchError)
from qsaf.gates import Gate, GateCircuit, GateKind
from qsaf.lowering import modular_multiply_matrix, phase_unitary, realize
from qsaf.manifest import (Manifest, RunDirective, parse_manifest,
                           render_manifest)
from qsaf.simulate import (PauliObservable, find_order,
                           iterative_phase_estimate, qpe_estimate)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)


# gates


@pytest.mark.parametrize("make, message", [
    (lambda: Gate(GateKind.CONTROLLED_U, (0, 1)), "needs a matrix"),
    (lambda: g.cmodmul(2, 1, 0, [1]), "modulus >= 2"),
    (lambda: g.cmodmul(3, 15, 0, [1, 2, 3, 4]), "coprime"),
    (lambda: g.cmodmul(7, 15, 0, [1, 2]), "takes 5 qubits, got 3"),
])
def test_malformed_structured_gates_are_rejected(make, message):
    with pytest.raises(GateArityError, match=message):
        make()


def test_gates_differ_by_any_field_or_matrix():
    assert g.h(0).__eq__("h") is NotImplemented and g.h(0) != "h"
    assert g.h(0) != g.h(1)
    # a matrix tells gates apart even on a kind that takes none
    assert Gate(GateKind.X, (0,), matrix=X) != g.x(0)
    assert g.controlled_u(X, 0, [1]) != g.controlled_u(Z, 0, [1])
    assert g.controlled_u(X, 0, [1]) == g.controlled_u(X.copy(), 0, [1])


def test_one_qubit_matrices_refuse_other_gates():
    for gate in (g.cnot(0, 1), g.cphase(0.5, 0, 1)):
        with pytest.raises(GateArityError, match="not a one-qubit unitary"):
            g.one_qubit_entries(gate)
    with pytest.raises(NonReversibleError):
        g.gate_matrix(g.measure(0, 0))


def test_circuit_width_length_iteration_and_comparison():
    with pytest.raises(ValueError, match="nonnegative"):
        GateCircuit(-1)
    circuit = GateCircuit(2, [g.h(0), g.cnot(0, 1)])
    assert len(circuit) == 2 and list(circuit) == circuit.ops
    assert circuit.__eq__(circuit.ops) is NotImplemented


# lowering parameters


@pytest.mark.parametrize("pid, params, message", [
    (29, {"n": 2, "dt": 0.1, "periodic": "yes"}, "'periodic' must be a "
     "boolean"),
    (4, {"variant": 1}, "'variant' must be a string"),
    (18, {"n": 2, "marked": 3}, "'marked' must be a list"),
    (18, {"n": 2, "marked": ["1"]}, "'marked' must contain integers"),
    (18, {"n": 2, "marked": [-1]}, "'marked' entry -1 below 0"),
    (18, {"n": 2, "marked": [4]}, "'marked' entry 4 above 3"),
    (18, {"n": 2, "marked": [1, 1]}, "'marked' entries must be distinct"),
    (18, {"n": 2, "marked": []}, "at least one basis state"),
    (6, {"n": 2, "edges": 3}, "'edges' must be a list of qubit pairs"),
    (3, {"theta": 10 ** 400, "phi": 0.0}, "'theta' must be a finite"),
    (27, {"n": 4, "thetas": 0.1}, "'thetas' must be a list"),
    (27, {"n": 4, "thetas": []}, "'thetas' must not be empty"),
    (27, {"n": 2, "thetas": [0.1], "blocks": [["XX", 0]]},
     "'blocks' entries must be"),
    (27, {"n": 2, "thetas": [0.1], "blocks": [["XX", 0, "1"]]},
     "coefficient '1' must be a finite number"),
    (26, {"n": 2, "edges": [], "gammas": [], "betas": []},
     "at least one layer"),
    (20, {"a": 3, "modulus": 15}, "multiplier 3 shares a factor"),
])
def test_ill_typed_params_raise_bad_params(pid, params, message):
    with pytest.raises(BadParamsError, match=message):
        realize(pid, params)


def test_the_reference_multiply_needs_a_modulus_of_two_or_more():
    with pytest.raises(BadParamsError, match="modulus must be >= 2"):
        modular_multiply_matrix(1, 1)


# manifests


@pytest.mark.parametrize("text, message", [
    ("component 1b = BellStates()", "col 11: expected a name"),
    ("component b = BellStates(variant=", "col 34: expected a value"),
    ("component s = Superposition(n=[1 2])",
     "col 34: expected ',' or ']' in list"),
    ("contract {3}", "line 1, col 1: an entanglement contract needs at "
     "least two qubits"),
])
def test_manifest_syntax_errors_name_their_place(text, message):
    with pytest.raises(ManifestError, match=message):
        parse_manifest(text + "\n")


def test_an_empty_list_parses_and_an_unrenderable_value_is_refused():
    manifest = parse_manifest("component s = Superposition(n=1)\n"
                              "run simulate x=[]\n")
    assert manifest.directives[0].options == {"x": []}
    odd = Manifest(manifest.name, manifest.version, manifest.graph,
                   (RunDirective("simulate", {"seed": None}),))
    with pytest.raises(ManifestError, match="value None cannot be rendered"):
        render_manifest(odd)


# simulator drivers


def test_an_observable_needs_a_qubit():
    with pytest.raises(ValueError, match="at least one qubit"):
        PauliObservable(0, ())


def test_phase_estimation_checks_its_unitary_and_eigenstate(monkeypatch):
    with pytest.raises(BadParamsError, match="power-of-two size"):
        qpe_estimate(np.eye(3), [1, 0, 0], t=2)
    with pytest.raises(WidthMismatchError, match="3 amplitudes"):
        qpe_estimate(Z, [1, 0, 0], t=2)
    with pytest.raises(BadParamsError, match="t must be >= 1"):
        iterative_phase_estimate(phase_unitary(0.25), [0, 1], t=0)
    # the register is refused before its amplitudes are allocated
    monkeypatch.setattr(simulate, "SIM_WIDTH_CAP", 1)
    with pytest.raises(TooWideError, match="exceeds simulator cap"):
        iterative_phase_estimate(phase_unitary(0.25), [0, 1], t=2)


def test_order_finding_falls_back_to_lcms_then_gives_up():
    # 2 has order 6 modulo 21; these two readouts have denominators
    # that do not verify alone, but their lcm does
    assert find_order(2, 21, t=8, shots=2, seed=0) == 6
    # one readout of 0 carries no period
    with pytest.raises(QsafError, match="order not recovered"):
        find_order(2, 15, t=2, shots=1, seed=0)


def _brute_force_order(a, modulus):
    r, x = 1, a % modulus
    while x != 1:
        r, x = r + 1, x * a % modulus
    return r


@pytest.mark.parametrize("shots, seed", [(2, 12), (3, 1)])
def test_order_finding_reduces_a_verified_multiple_to_the_order(shots, seed):
    # these readouts reach the lcm fallback, whose first lcm to verify
    # is a multiple of the order: 48 and 180 before it was reduced
    assert find_order(2, 21, t=6, shots=shots, seed=seed) == \
        _brute_force_order(2, 21) == 6


def test_every_multiple_of_an_order_reduces_to_it():
    for modulus in range(2, 64):
        for a in range(1, modulus):
            if math.gcd(a, modulus) == 1:
                order = _brute_force_order(a, modulus)
                for k in (1, 2, 3, 4, 6, 9, 10, 30, 49):
                    assert simulate._least_order(a, k * order,
                                                 modulus) == order


def test_a_composed_run_leaving_every_plan_frees_its_bytes():
    held = GateCircuit(2, [Gate(GateKind.CNOT, (0, 1))] * 3)
    other = GateCircuit(2, [Gate(GateKind.H, (0,))])
    simulate._plan.cache_clear()
    simulate.run(other)  # the replay memo lets go of the steps run before
    assert simulate._run_bytes == 0
    # the plan cache drops the composed run first, then the replay memo
    simulate.run(held)
    assert simulate._run_bytes > 0
    simulate._plan.cache_clear()
    assert simulate._run_bytes > 0
    simulate.run(other)
    assert simulate._run_bytes == 0
    # and the other way round
    simulate.run(held)
    simulate.run(other)
    assert simulate._run_bytes > 0
    simulate._plan.cache_clear()
    assert simulate._run_bytes == 0


@pytest.mark.parametrize("amplitude", [math.nan, complex(0, math.nan),
                                       math.inf])
def test_a_state_with_an_amplitude_that_is_not_finite_is_refused(
        amplitude):
    # a NaN norm failed no comparison, so sample drew '1' from NaNs
    with pytest.raises(ValueError, match="state is not normalized"):
        simulate.StateVector(1, np.array([amplitude, 0]))


@pytest.mark.parametrize("fields, message", [
    ({"max_iters": -1}, "'max_iters' must be between 1 and 100000, got -1"),
    ({"max_iters": 2.0}, "'max_iters' must be an integer, got 2.0"),
    ({"step": math.nan}, "'step' must be a finite number, got nan"),
    ({"min_step": 0}, "'min_step' must be > 0, got 0"),
    ({"tol": -1e-3}, "'tol' must be >= 0, got -0.001"),
])
def test_an_optimizer_config_built_directly_is_checked(fields, message):
    with pytest.raises(QsafError, match=message):
        simulate.OptimizerConfig(**fields)


@pytest.mark.parametrize("t", [1.5, True, "3"])
def test_order_finding_refuses_a_count_that_is_no_integer(t):
    with pytest.raises(BadParamsError, match=f"t must be an integer, got "
                                             f"{t!r}"):
        find_order(7, 15, t=t)


@pytest.mark.parametrize("edge", [(0, 1.5), (True, 0), (0, np.float64(1))])
def test_a_maxcut_edge_of_no_integer_qubits_is_refused(edge):
    with pytest.raises(ValueError, match=r"of edge \(.*\) must be an "
                                         r"integer"):
        simulate.maxcut_observable(2, [edge])


def test_sample_refuses_a_shot_count_that_is_no_integer():
    state = simulate.StateVector.zero(1)
    for shots in (2.5, True):
        with pytest.raises(ValueError, match="shots must be an integer"):
            simulate.sample(state, shots, seed=1)
    assert simulate.sample(state, np.int64(3), seed=1) == {"0": 3}


# catalog, classification, composition, analysis, command line


def test_catalog_filters_take_strings_and_refuse_unknown_algorithms():
    oracles = list_primitives(category="oracle_construction")
    assert oracles == list_primitives(
        category=FunctionalCategory.ORACLE_CONSTRUCTION)
    assert list_primitives(algorithm="shor", min_usage="es") == \
        list_primitives(algorithm="shor", min_usage="ES")
    with pytest.raises(UnknownAlgorithmError, match="'bogus'"):
        list_primitives(algorithm="bogus")


def test_a_ratings_matrix_needs_a_category():
    with pytest.raises(RatingsMatrixError, match="at least one category"):
        RatingsMatrix(((),))


def test_an_optimizer_wired_into_a_plain_component_drives_nothing():
    graph = ArchitectureGraph()
    graph.add_component(optimizer("opt", observable="Z0"))
    graph.add_component(ComponentInstance("sup", 2, {"n": 1}))
    graph.record_wire("opt.out", "sup.params")  # validate refuses this
    with pytest.raises(QsafError, match="sup is not a variational"):
        graph.driven_ansatz("opt")


def test_a_count_rising_from_zero_measures_an_infinite_ratio(monkeypatch):
    monkeypatch.setattr(analyze, "_count_for",
                        lambda pid, size: 0 if size < 16 else 3)
    check = analyze.complexity_check(2)
    assert check.measured_ratio == math.inf and not check.passed


def test_mece_violations_are_listed_and_exit_1(monkeypatch, capsys):
    violation = MeceViolation(2, "Superposition", "overlap", "two flags")
    monkeypatch.setattr(cli, "check_mece", lambda primitives: [violation])
    assert cli.main(["mece"]) == 1
    assert capsys.readouterr().out == \
        "2 Superposition: overlap: two flags\n"
