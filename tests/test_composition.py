"""Architecture graphs: wiring rules, validation, flattening."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsaf.gates as g
import qsaf.lowering as lowering
from qsaf.analyze import DEFAULT_DEMO_PARAMS, nfr_profile
from qsaf.composition import (AbstractionLevel, ArchitectureGraph,
                              ComponentInstance, Wire, entanglement_sets,
                              optimizer)
from qsaf.core import InformationFlow
from qsaf.errors import (CompositionError, FanOutError, KindMismatchError,
                         LevelViolationError, MeasuredQubitReuseError,
                         UnknownPortError, ValidationFailedError,
                         WidthMismatchError)
from qsaf.gates import GateCircuit
from qsaf.lowering import lower
from qsaf.manifest import parse_manifest
from qsaf.simulate import run

from reference import GROVER_MANIFEST, VQE_MANIFEST, flatten_ref
from test_acceptance import WIDE_MANIFESTS

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _graph(*components, level=AbstractionLevel.ALGORITHM):
    graph = ArchitectureGraph(level=level)
    for instance in components:
        graph.add_component(instance)
    return graph


def _codes(graph):
    return {d.code for d in graph.validate()}


def test_instance_id_must_be_identifier_like():
    with pytest.raises(CompositionError):
        ComponentInstance("two words", 2, {"n": 1})
    with pytest.raises(CompositionError):
        ComponentInstance("", 2, {"n": 1})
    ComponentInstance("snake_case_9", 2, {"n": 1})


def test_instance_level_defaults_and_range():
    inst = ComponentInstance("sup", 2, {"n": 2})
    assert inst.level == 2
    deeper = ComponentInstance("sup2", 2, {"n": 2}, level=3)
    assert deeper.level == 3
    with pytest.raises(LevelViolationError):
        ComponentInstance("sup3", 2, {"n": 2}, level=4)


def test_optimizer_is_pinned_to_the_algorithm_level():
    opt = optimizer("opt", observable="Z0")
    assert opt.is_optimizer and opt.level == AbstractionLevel.ALGORITHM
    assert opt.display_name == "Optimizer"
    with pytest.raises(LevelViolationError):
        ComponentInstance("opt2", None, {}, level=3)


def test_graph_level_must_exist():
    with pytest.raises(LevelViolationError):
        ArchitectureGraph(level=7)


def test_components_compose_strictly_lower_levels():
    graph = ArchitectureGraph(level=3)
    graph.add_component(ComponentInstance("sup", 2, {"n": 2}))
    with pytest.raises(LevelViolationError):
        graph.add_component(ComponentInstance("qft", 15, {"n": 2}))
    with pytest.raises(LevelViolationError):
        graph.add_component(optimizer("opt"))


def test_duplicate_instance_ids_are_rejected():
    graph = _graph(ComponentInstance("a", 2, {"n": 1}))
    with pytest.raises(CompositionError):
        graph.add_component(ComponentInstance("a", 4, {}))


def test_add_component_surfaces_bad_params_eagerly():
    graph = ArchitectureGraph()
    with pytest.raises(Exception) as info:
        graph.add_component(ComponentInstance("sup", 2, {"n": -1}))
    assert "n" in str(info.value)
    # deferred checking leaves the judgment to validate()
    graph.add_component(ComponentInstance("sup", 2, {"n": -1}), check=False)
    assert "bad_params" in _codes(graph)


def test_wire_connects_matching_quantum_ports():
    graph = _graph(ComponentInstance("sup", 2, {"n": 3}),
                   ComponentInstance("qft", 15, {"n": 3}))
    wire = graph.wire("sup.out", "qft.in")
    assert wire == Wire("sup", "out", "qft", "in")
    assert str(wire) == "sup.out -> qft.in"


def test_wire_rejections():
    graph = _graph(ComponentInstance("sup", 2, {"n": 2}),
                   ComponentInstance("qft", 15, {"n": 2}),
                   ComponentInstance("wide", 15, {"n": 3}),
                   ComponentInstance("meas", 33, {"n": 2}),
                   ComponentInstance("damp", 14, {}))
    with pytest.raises(UnknownPortError):
        graph.wire("ghost.out", "qft.in")
    with pytest.raises(UnknownPortError):
        graph.wire("sup.out", "qft.input")
    with pytest.raises(UnknownPortError):
        graph.wire("sup.out", "qft")
    with pytest.raises(UnknownPortError):
        graph.wire("damp.out", "qft.in")  # unrealizable, no ports
    with pytest.raises(KindMismatchError):
        graph.wire("sup.in", "qft.in")  # not an output
    with pytest.raises(KindMismatchError):
        graph.wire("meas.bits", "qft.in")  # classical into quantum
    with pytest.raises(WidthMismatchError):
        graph.wire("sup.out", "wide.in")
    graph.wire("sup.out", "meas.in")
    with pytest.raises(MeasuredQubitReuseError):
        graph.wire("meas.out", "qft.in")
    with pytest.raises(FanOutError):
        graph.wire("sup.out", "qft.in")


def test_wire_rejects_double_wired_inputs():
    graph = _graph(ComponentInstance("a", 2, {"n": 2}),
                   ComponentInstance("b", 2, {"n": 2}),
                   ComponentInstance("meas", 33, {"n": 2}))
    graph.wire("a.out", "meas.in")
    with pytest.raises(CompositionError):
        graph.wire("b.out", "meas.in")


def _wiring_graph():
    return _graph(ComponentInstance("sup", 2, {"n": 2}),
                  ComponentInstance("qft", 15, {"n": 2}),
                  ComponentInstance("wide", 15, {"n": 3}),
                  ComponentInstance("meas", 33, {"n": 2}),
                  ComponentInstance("damp", 14, {}),
                  ComponentInstance("a", 2, {"n": 2}),
                  ComponentInstance("b", 2, {"n": 2}))


@pytest.mark.parametrize("earlier, src, dst, error, code", [
    ((), "ghost.out", "qft.in", UnknownPortError, "unknown_port"),
    ((), "sup.out", "qft.input", UnknownPortError, "unknown_port"),
    ((), "damp.out", "qft.in", UnknownPortError, "unknown_port"),
    ((), "sup.in", "qft.in", KindMismatchError, "kind_mismatch"),
    ((), "meas.bits", "qft.in", KindMismatchError, "kind_mismatch"),
    ((), "sup.out", "wide.in", WidthMismatchError, "width_mismatch"),
    ((("sup.out", "meas.in"),), "meas.out", "qft.in",
     MeasuredQubitReuseError, "measured_qubit_reuse"),
    ((("sup.out", "meas.in"),), "sup.out", "qft.in", FanOutError,
     "fan_out"),
    ((("a.out", "meas.in"),), "b.out", "meas.in", CompositionError,
     "fan_in"),
])
def test_wire_and_validate_apply_the_same_rules(earlier, src, dst, error,
                                                code):
    eager = _wiring_graph()
    for wire in earlier:
        eager.wire(*wire)
    with pytest.raises(error) as info:
        eager.wire(src, dst)
    assert type(info.value) is error
    assert len(eager.wires) == len(earlier)

    deferred = _wiring_graph()
    for wire in earlier:
        deferred.record_wire(*wire)
    assert code not in _codes(deferred)
    deferred.record_wire(src, dst)
    assert code in _codes(deferred)


def test_malformed_endpoints_are_rejected_before_any_rule():
    graph = _wiring_graph()
    with pytest.raises(UnknownPortError):
        graph.wire("sup.out", "qft")
    with pytest.raises(UnknownPortError):
        graph.record_wire("sup.out", "qft")
    assert graph.wires == []


def test_validate_reports_fan_in_and_unknown_ports():
    graph = _graph(ComponentInstance("a", 2, {"n": 2}),
                   ComponentInstance("b", 2, {"n": 2}),
                   ComponentInstance("meas", 33, {"n": 2}))
    graph.record_wire("a.out", "meas.in")
    graph.record_wire("b.out", "meas.in")
    graph.record_wire("a.out", "ghost.in")
    codes = _codes(graph)
    assert "fan_in" in codes
    assert "unknown_port" in codes


def test_validate_reports_quantum_cycles():
    graph = _graph(ComponentInstance("f", 15, {"n": 2}),
                   ComponentInstance("b", 16, {"n": 2}))
    graph.record_wire("f.out", "b.in")
    graph.record_wire("b.out", "f.in")
    assert "quantum_cycle" in _codes(graph)
    with pytest.raises(ValidationFailedError):
        graph.flatten()


def test_classical_feedback_requires_an_optimizer():
    def loop_graph(with_optimizer):
        graph = _graph(
            ComponentInstance("qaoa", 26, {"n": 2, "edges": [[0, 1]],
                                           "gammas": [0.4],
                                           "betas": [0.3]}),
            ComponentInstance("meas", 33, {"n": 2}))
        graph.wire("qaoa.out", "meas.in")
        if with_optimizer:
            graph.add_component(optimizer("opt", observable="Z0*Z1"))
            graph.wire("meas.bits", "opt.in")
            graph.wire("opt.out", "qaoa.params")
        else:
            graph.record_wire("meas.bits", "qaoa.params")
        return graph

    assert "classical_cycle" in _codes(loop_graph(False))
    assert loop_graph(True).validate() == []


def test_mandatory_inputs_must_be_wired():
    graph = _graph(ComponentInstance("qft", 15, {"n": 2}))
    diags = graph.validate()
    assert [d.code for d in diags] == ["unwired_input"]
    assert diags[0].blocking

    graph = _graph(optimizer("opt"))
    assert "unwired_input" in _codes(graph)

    # state preparation generates its own input
    graph = _graph(ComponentInstance("sup", 2, {"n": 2}))
    assert graph.validate() == []


def test_ancilla_ledger_balances():
    graph = _graph(ComponentInstance("anc", 34, {"count": 2}))
    assert graph.validate() == []
    graph = _graph(ComponentInstance("anc", 34,
                                     {"count": 2, "released": 2}))
    assert graph.validate() == []


@pytest.mark.parametrize("pid", range(30, 35))
def test_auxiliary_interface_facts(pid):
    """The auxiliary rows have no category row: Measurement (33) alone
    loops to the classical side and needs its in port wired, and
    AncillaManagement (34) alone keeps an ancilla ledger."""
    params = DEFAULT_DEMO_PARAMS.get(pid, {})
    assert nfr_profile(pid).information_flow is (
        InformationFlow.QUANTUM_CLASSICAL_LOOP if pid == 33
        else InformationFlow.LOCAL)

    alone = _graph(ComponentInstance("aux", pid, params))
    assert _codes(alone) == ({"unwired_input"} if pid == 33 else set())

    if pid == 34:  # the other rows take no ``released``
        for released in range(3):
            ledger = _graph(ComponentInstance(
                "aux", pid, {"count": 2, "released": released}))
            assert _codes(ledger) == (
                {"ancilla_leak"} if released < 2 else set())


def test_flatten_chains_states_through_wires():
    graph = _graph(ComponentInstance("sup", 2, {"n": 3}),
                   ComponentInstance("qft", 15, {"n": 3}))
    graph.wire("sup.out", "qft.in")
    flat, layout = graph.flatten_with_layout()
    assert flat.width == 3
    assert layout.order == ("sup", "qft")
    assert layout.qubit_map["qft"] == {0: 0, 1: 1, 2: 2}

    manual = GateCircuit(3, list(lower(2, {"n": 3}).ops))
    manual.extend(lower(15, {"n": 3}).ops)
    got = run(flat).state.amplitudes
    want = run(manual).state.amplitudes
    assert np.abs(got - want).max() <= 1e-12


def test_flatten_gives_disconnected_components_fresh_qubits():
    graph = _graph(ComponentInstance("left", 4, {}),
                   ComponentInstance("right", 4, {}),
                   ComponentInstance("m1", 33, {"n": 2}),
                   ComponentInstance("m2", 33, {"n": 2}))
    graph.wire("left.out", "m1.in")
    graph.wire("right.out", "m2.in")
    flat, layout = graph.flatten_with_layout()
    assert flat.width == 4
    assert layout.qubit_map["left"] == {0: 0, 1: 1}
    assert layout.qubit_map["right"] == {0: 2, 1: 3}
    assert layout.cbit_offsets["m1"] == 0
    assert layout.cbit_offsets["m2"] == 2
    assert flat.classical_bits == 4
    assert entanglement_sets(flat) == {frozenset({0, 1}),
                                       frozenset({2, 3})}


def test_flatten_keeps_declaration_order_for_independent_parts():
    graph = _graph(ComponentInstance("z2", 2, {"n": 1}),
                   ComponentInstance("a1", 2, {"n": 1}))
    _, layout = graph.flatten_with_layout()
    assert layout.order == ("z2", "a1")


def test_flatten_allocates_counting_register_beside_inherited_work():
    graph = _graph(ComponentInstance("one", 1, {"n": 1, "value": 1}),
                   ComponentInstance("qpe", 22, {"t": 2, "phase": 0.25}))
    graph.wire("one.out", "qpe.in")
    flat, layout = graph.flatten_with_layout()
    assert flat.width == 3
    # work qubit (local 2) inherits the prepared qubit, counters are fresh
    assert layout.qubit_map["qpe"][2] == 0
    assert {layout.qubit_map["qpe"][0], layout.qubit_map["qpe"][1]} == {1, 2}
    result = run(flat, seed=0)
    readout = result.bits[0] + (result.bits[1] << 1)
    assert readout / 4 == 0.25


def test_flatten_raises_with_the_blocking_diagnostics():
    graph = _graph(ComponentInstance("qft", 15, {"n": 2}))
    with pytest.raises(ValidationFailedError) as info:
        graph.flatten()
    assert any(d.code == "unwired_input" for d in info.value.diagnostics)


def test_contracts_are_advisory_by_default():
    graph = _graph(ComponentInstance("a", 2, {"n": 1}),
                   ComponentInstance("b", 2, {"n": 1}))
    graph.add_contract({0, 1})
    diags = graph.validate()
    assert [d.code for d in diags] == ["contract_unmet"]
    assert not diags[0].blocking
    assert str(diags[0]).startswith("advice ")
    graph.flatten()  # advisory findings do not block
    with pytest.raises(ValidationFailedError):
        graph.flatten(strict_contracts=True)


def test_contract_met_by_an_entangling_component():
    graph = _graph(ComponentInstance("bell", 4, {}))
    graph.add_contract({0, 1})
    assert graph.validate() == []
    with pytest.raises(CompositionError):
        graph.add_contract({3})


def test_entanglement_sets_ignore_single_qubit_gates():
    circ = GateCircuit(3, [g.h(0), g.h(1), g.rz(0.3, 2), g.cnot(0, 1)])
    assert entanglement_sets(circ) == {frozenset({0, 1}), frozenset({2})}
    circ = GateCircuit(2, [g.h(0), g.measure(0, 0), g.measure(1, 1)])
    assert entanglement_sets(circ) == {frozenset({0}), frozenset({1})}


def test_entanglement_sets_accept_a_graph():
    graph = _graph(ComponentInstance("ghz", 5, {"n": 3}))
    assert entanglement_sets(graph) == {frozenset({0, 1, 2})}


def _compose_mix_texts(seed):
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads
    return [case.text for case in
            workloads.WORKLOADS["compose_mix"].generate(seed)]


# the second readout's classical bits are offset by the first one's
TWO_READOUTS = """\
component a = Superposition(n=2)
component ma = Measurement(n=2)
component b = BellStates()
component mb = Measurement(n=2)
wire a.out -> ma.in
wire b.out -> mb.in
"""

# mb flattens first, so ma keeps the identity qubit mapping while its
# classical bits move up by one
INTERLEAVED_READOUTS = """\
component a = Superposition(n=2)
component b = Superposition(n=1)
component mb = Measurement(n=1)
component ma = Measurement(n=2)
wire a.out -> ma.in
wire b.out -> mb.in
"""


def _assert_flattens_as_reference(graph):
    flat, layout = graph.flatten_with_layout()
    ref, ref_layout = flatten_ref(graph)
    assert flat.ops == ref.ops
    assert (flat.width, flat.classical_bits) == (ref.width,
                                                 ref.classical_bits)
    assert flat._measured == ref._measured
    assert layout == ref_layout
    return flat, layout


def test_flatten_relabels_every_gate_as_replace_would():
    texts = [GROVER_MANIFEST, VQE_MANIFEST, TWO_READOUTS,
             INTERLEAVED_READOUTS, *WIDE_MANIFESTS.values(),
             *_compose_mix_texts(1)]
    flattened = 0
    for text in texts:
        graph = parse_manifest(text).graph
        if any(d.blocking for d in graph.validate()):
            continue  # an injected fault
        _assert_flattens_as_reference(graph)
        flattened += 1
    # one compose_mix chain in four carries a fault
    assert flattened == 6 + 144 * 3 // 4


def test_interleaved_readout_keeps_its_qubits_and_moves_its_bits():
    graph = parse_manifest(INTERLEAVED_READOUTS).graph
    flat, layout = _assert_flattens_as_reference(graph)
    assert layout.qubit_map["ma"] == {0: 0, 1: 1}
    assert layout.cbit_offsets["ma"] == 1
    assert [gate.cbit for gate in flat.ops[-2:]] == [1, 2]


@st.composite
def _chains(draw):
    """Manifest text of one to three independent chains in a shuffled
    declaration order: a head, up to two width-keeping components and an
    optional readout, or a phase estimation with its counting readout.
    Later chains sit at qubit and classical-bit offsets."""
    parts, wires = [], []
    for _ in range(draw(st.integers(1, 3))):
        first = len(parts)
        if draw(st.booleans()) and draw(st.booleans()):
            parts.append("BasisStates(n=1, value=1)")
            t = draw(st.integers(1, 3))
            parts.append(f"StandardQPE(t={t}, phase=0.25)")
            width = 1
        else:
            width = draw(st.integers(1, 4))
            heads = [f"Superposition(n={width})",
                     f"BasisStates(n={width}, value={2 ** width - 1})"]
            middles = [f"StandardQFT(n={width})"]
            if width >= 2:
                heads.append(f"GHZStates(n={width})")
                values = st.lists(st.integers(0, 2 ** width - 1),
                                  min_size=1, max_size=3, unique=True)
                marked = sorted(draw(values))
                middles += [
                    f"GroverOperator(n={width}, marked={marked}, "
                    f"iterations={draw(st.integers(1, 3))})",
                    f"HamiltonianAnsatz(n={width}, dt=0.1, "
                    f"steps={draw(st.integers(1, 3))}, periodic=true)"]
            parts.append(draw(st.sampled_from(heads)))
            for _ in range(draw(st.integers(0, 2))):
                parts.append(draw(st.sampled_from(middles)))
        if draw(st.booleans()):
            parts.append(f"Measurement(n={width})")
        wires += [(i, i + 1) for i in range(first, len(parts) - 1)]
    order = draw(st.permutations(range(len(parts))))
    lines = [f"component c{i} = {parts[i]}" for i in order]
    lines += [f"wire c{a}.out -> c{b}.in" for a, b in wires]
    for _ in range(draw(st.integers(0, 2))):
        pair = draw(st.lists(st.integers(0, 7), min_size=2, max_size=2,
                             unique=True))
        lines.append("contract {" + ", ".join(map(str, pair)) + "}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(_chains())
def test_flatten_matches_the_gate_by_gate_reference(text):
    graph = parse_manifest(text).graph
    assert not any(d.blocking for d in graph.validate())
    _assert_flattens_as_reference(graph)


def test_measured_qubit_met_again_raises_as_the_reference_does():
    graph = _graph(ComponentInstance("sup", 2, {"n": 2}),
                   ComponentInstance("m", 33, {"n": 2}),
                   ComponentInstance("again", 12, {"n": 2}))
    graph.wire("sup.out", "m.in")
    graph.record_wire("m.out", "again.in")  # validate refuses this wire
    with pytest.raises(MeasuredQubitReuseError) as ref:
        flatten_ref(graph)
    with pytest.raises(MeasuredQubitReuseError) as got:
        graph._flatten_checked()
    assert str(got.value) == str(ref.value) == "qubit(s) [0] already measured"


def test_mid_measuring_component_raises_as_the_reference_does(monkeypatch):
    def measure_then_flip(p):
        n = p.int("n")
        circ = GateCircuit(n, [g.h(0), g.measure(0, 0), g.x(0)],
                           allow_mid_measure=True)
        return lowering._record(circ)

    monkeypatch.setitem(lowering._BUILDERS, 2, measure_then_flip)
    graph = _graph(ComponentInstance("odd", 2, {"n": 2}))
    with pytest.raises(MeasuredQubitReuseError) as ref:
        flatten_ref(graph)
    with pytest.raises(MeasuredQubitReuseError) as got:
        graph.flatten_with_layout()
    assert str(got.value) == str(ref.value) == "qubit(s) [0] already measured"
