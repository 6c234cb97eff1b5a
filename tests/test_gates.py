"""Gate IR: construction rules, matrices, circuit invariants."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsaf.gates as g
import qsaf.simulate as simulate
from qsaf.errors import (DuplicateQubitError, GateArityError,
                         IndexOutOfRangeError, MeasuredQubitReuseError,
                         NonReversibleError, TooWideError)
from qsaf.gates import (Gate, GateCircuit, GateKind, apply_matrix, dagger,
                        decompose, depth, gate_counts, gate_matrix,
                        unitary_of)
from qsaf.lowering import lower

from reference import (H2, X2, Y2, Z2, apply_ref, cnot_ref, cz_ref, op_on,
                       rx_ref, ry_ref, rz_ref, swap_ref, toffoli_ref)


def test_constructors_record_kind_and_qubits():
    assert g.h(2).kind is GateKind.H and g.h(2).qubits == (2,)
    assert g.cnot(0, 3).qubits == (0, 3)
    assert g.toffoli(1, 2, 0).qubits == (1, 2, 0)
    assert g.rx(0.5, 1).theta == 0.5
    assert g.measure(4, 2).cbit == 2


def test_kinds_key_their_tables_after_copy_and_pickle():
    # kinds hash by identity: each copy must come back as the member
    # itself, or it would miss in every table keyed by kind
    assert set(g.KINDS) == set(GateKind)
    for kind in GateKind:
        for clone in (copy.copy(kind), copy.deepcopy(kind),
                      pickle.loads(pickle.dumps(kind))):
            assert clone is kind and hash(clone) == hash(kind)
            assert g.KINDS[clone] is g.KINDS[kind]
            assert simulate._KERNELS.get(clone) is simulate._KERNELS.get(kind)
    assert {kind.value: kind for kind in GateKind}["cnot"] in \
        simulate._RUN_KINDS


def _example_gate(kind):
    """One gate of ``kind`` on qubits 0, 1, ...: three for a kind of any
    arity."""
    if kind is GateKind.CONTROLLED_U:
        return g.controlled_u(np.eye(2), 0, [1], power=2)
    if kind is GateKind.CMODMUL:
        return g.cmodmul(2, 3, 0, [1, 2])
    row = g.KINDS[kind]
    return Gate(kind, tuple(range(row.arity or 3)),
                0.5 if row.angled else None)


def test_every_structured_kind_has_a_kernel_and_a_matrix():
    # the ``structure`` column picks both: a kernel in simulate (a dense
    # kind is only ever applied as a one-qubit run) and a gate_matrix
    # branch
    for kind, row in g.KINDS.items():
        if row.structure is None:
            assert kind is GateKind.MEASURE
            continue
        assert kind in simulate._KERNELS or (
            row.structure == "dense" and row.arity == 1), kind
        gate = _example_gate(kind)
        matrix = gate_matrix(gate)
        assert matrix.shape == (2 ** gate.arity,) * 2
        assert np.allclose(matrix @ matrix.conj().T, np.eye(len(matrix)))


def test_gate_validation_rejects_bad_shapes():
    with pytest.raises(DuplicateQubitError):
        g.cnot(1, 1)
    with pytest.raises(GateArityError):
        Gate(GateKind.H, (0, 1))
    with pytest.raises(GateArityError):
        Gate(GateKind.RX, (0,))  # missing angle
    with pytest.raises(GateArityError):
        Gate(GateKind.X, (0,), theta=1.0)  # spurious angle
    with pytest.raises(GateArityError):
        Gate(GateKind.MEASURE, (0,))  # missing classical bit


def test_controlled_u_validation():
    u = np.eye(2, dtype=complex)
    assert g.controlled_u(u, 0, [1]).qubits == (0, 1)
    with pytest.raises(GateArityError):
        g.controlled_u(np.ones((2, 2)), 0, [1])  # not unitary
    with pytest.raises(GateArityError):
        g.controlled_u(np.eye(3), 0, [1])  # not a power-of-two dimension
    with pytest.raises(GateArityError):
        g.controlled_u(np.eye(4), 0, [1])  # one target too few
    with pytest.raises(GateArityError):
        g.controlled_u(u, 0, [1], power=0)


@pytest.mark.parametrize("gate,reference", [
    (g.h(0), H2), (g.x(0), X2), (g.y(0), Y2), (g.z(0), Z2),
    (g.s(0), np.diag([1, 1j])), (g.sdg(0), np.diag([1, -1j])),
    (g.t(0), np.diag([1, np.exp(1j * math.pi / 4)])),
    (g.tdg(0), np.diag([1, np.exp(-1j * math.pi / 4)])),
    (g.rx(0.7, 0), rx_ref(0.7)),
    (g.ry(-1.3, 0), ry_ref(-1.3)),
    (g.rz(2.1, 0), rz_ref(2.1)),
    (g.phase(0.9, 0), np.diag([1, np.exp(0.9j)])),
])
def test_single_qubit_matrices(gate, reference):
    assert np.allclose(gate_matrix(gate), reference, atol=1e-12)


def test_s_t_daggers_invert():
    for plain, dag in ((g.s(0), g.sdg(0)), (g.t(0), g.tdg(0))):
        prod = gate_matrix(plain) @ gate_matrix(dag)
        assert np.allclose(prod, np.eye(2), atol=1e-12)


def test_two_qubit_matrices_little_endian():
    # first listed qubit indexes the least significant matrix bit
    cnot = gate_matrix(g.cnot(0, 1))
    assert cnot[3, 1] == 1 and cnot[1, 3] == 1  # |01> <-> |11>, q0 is LSB
    cphase = gate_matrix(g.cphase(math.pi / 2, 0, 1))
    assert np.allclose(np.diag(cphase), [1, 1, 1, 1j], atol=1e-12)
    swap = gate_matrix(g.swap(0, 1))
    assert swap[1, 2] == 1 and swap[2, 1] == 1


@pytest.mark.parametrize("gate,reference", [
    (g.cnot(0, 1), cnot_ref()), (g.cnot(2, 0), cnot_ref()),
    (g.cz(0, 1), cz_ref()),
    (g.cphase(0.7, 1, 0), np.diag([1, 1, 1, np.exp(0.7j)])),
    (g.swap(0, 1), swap_ref()),
    (g.toffoli(0, 1, 2), toffoli_ref()), (g.toffoli(4, 2, 3), toffoli_ref()),
])
def test_multi_qubit_matrices(gate, reference):
    # over the gate's own qubits, whatever their circuit labels
    assert np.allclose(gate_matrix(gate), reference, atol=1e-12)


@pytest.mark.parametrize("arity", [2, 3, 4, 5])
def test_multi_controlled_matrices(arity):
    dim = 2 ** arity
    phase = np.eye(dim)
    phase[-1, -1] = -1
    assert np.array_equal(gate_matrix(g.mcz(*range(arity))), phase)
    # controls are the low bits: the target bit flips on the labels
    # whose low arity - 1 bits are all one
    flip = np.eye(dim)
    ones = (1 << (arity - 1)) - 1
    flip[[ones, dim - 1]] = flip[[dim - 1, ones]]
    assert np.array_equal(gate_matrix(g.mcx(*range(arity))), flip)
    if arity == 3:
        assert np.array_equal(flip, toffoli_ref())


def test_multi_controlled_gates_take_two_qubits_or_more():
    for kind in (GateKind.MCZ, GateKind.MCX):
        with pytest.raises(GateArityError, match="at least 2"):
            Gate(kind, (0,))
        with pytest.raises(GateArityError):
            Gate(kind, (0, 1), theta=0.5)
        gate = Gate(kind, (3, 0, 5, 1))
        assert dagger(GateCircuit(6, [gate])).ops == [gate]


def test_decompose_spells_out_each_native_gate_once_and_shares_scratch():
    circ = GateCircuit(6, [g.mcz(0, 1, 2, 3, 4), g.h(5),
                           g.mcx(1, 2, 3, 5), g.mcz(0, 1), g.mcz(0, 1, 2),
                           g.mcx(4, 5), g.mcx(0, 2, 3), g.measure(5, 0)])
    wide = decompose(circ)
    # the widest ladder, three controls of four, needs 3 scratch qubits
    assert wide.width == 9 and wide.classical_bits == 1
    t = g.toffoli
    assert wide.ops == [
        t(0, 1, 6), t(2, 6, 7), t(3, 7, 8), g.cz(8, 4),
        t(3, 7, 8), t(2, 6, 7), t(0, 1, 6),
        g.h(5),
        t(1, 2, 6), t(3, 6, 7), g.cnot(7, 5), t(3, 6, 7), t(1, 2, 6),
        g.cz(0, 1), g.h(2), t(0, 1, 2), g.h(2),
        g.cnot(4, 5), t(0, 2, 3), g.measure(5, 0)]
    with pytest.raises(MeasuredQubitReuseError):
        wide.append(g.h(5))
    plain = GateCircuit(2, [g.h(0), g.cnot(0, 1)])
    assert decompose(plain) is plain
    # counts and depth read the decomposed circuit
    assert gate_counts(circ) == gate_counts(wide)
    assert depth(circ) == depth(wide) == 16


def test_controlled_u_matrix_applies_power():
    u = rz_ref(0.8)
    mat = gate_matrix(g.controlled_u(u, 0, [1], power=3))
    want = np.eye(4, dtype=complex)
    cube = np.linalg.matrix_power(u, 3)
    # control set: odd basis indices transform on the target bit
    want[1, 1], want[1, 3] = cube[0, 0], cube[0, 1]
    want[3, 1], want[3, 3] = cube[1, 0], cube[1, 1]
    assert np.allclose(mat, want, atol=1e-12)


def test_apply_matrix_agrees_with_index_arithmetic():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        state /= np.linalg.norm(state)
        k = int(rng.integers(1, min(n, 3) + 1))
        qubits = tuple(rng.choice(n, size=k, replace=False).tolist())
        matrix = np.linalg.qr(rng.normal(size=(2 ** k, 2 ** k))
                              + 1j * rng.normal(size=(2 ** k, 2 ** k)))[0]
        fast = apply_matrix(state, n, matrix, qubits)
        slow = apply_ref(state, n, matrix, qubits)
        assert np.abs(fast - slow).max() <= 1e-10


def test_circuit_append_validates_indices():
    circ = GateCircuit(2)
    with pytest.raises(IndexOutOfRangeError):
        circ.append(g.h(2))
    with pytest.raises(IndexOutOfRangeError):
        circ.append(g.measure(0, -1))


def test_circuit_blocks_gates_after_measurement():
    circ = GateCircuit(2)
    circ.append(g.h(0))
    circ.append(g.measure(0, 0))
    with pytest.raises(MeasuredQubitReuseError):
        circ.append(g.x(0))
    circ.append(g.x(1))  # untouched qubit is still fair game

    relaxed = GateCircuit(2, allow_mid_measure=True)
    relaxed.append(g.measure(0, 0))
    relaxed.append(g.x(0))


def test_classical_register_grows_with_measurements():
    circ = GateCircuit(3)
    assert circ.classical_bits == 0
    circ.append(g.measure(1, 4))
    assert circ.classical_bits == 5


def test_circuit_len_and_iteration_follow_its_ops():
    circ = lower(11, {"n": 3, "marked": [5], "iterations": 3})
    assert len(circ) == len(circ.ops) > 0
    yielded = list(circ)
    assert len(yielded) == len(circ.ops)
    assert all(gate is op for gate, op in zip(yielded, circ.ops))
    # the three iterations repeat one iteration's gate objects, so the
    # oracle's X(1), used twice per iteration, is met at all six places
    per = len(circ) // 3
    first = circ.ops[0]
    assert [i for i, gate in enumerate(circ) if gate is first] == \
        [k * per + i for k in range(3) for i in (0, 4)]
    assert len(GateCircuit(2)) == 0 and list(GateCircuit(2)) == []


def test_gate_counts_and_depth():
    circ = GateCircuit(3, [g.h(0), g.cnot(0, 1), g.cnot(1, 2),
                           g.toffoli(0, 1, 2), g.measure(2, 0)])
    counts = gate_counts(circ)
    assert counts.total == 5
    assert counts.one_qubit == 1
    assert counts.two_qubit == 2
    assert counts.three_qubit == 1
    assert counts.measurements == 1
    assert counts.entangling == 3
    # h -> cnot01 -> cnot12 -> toffoli -> measure chains on qubit 2
    assert depth(circ) == 5
    assert depth(GateCircuit(4)) == 0


def test_dagger_reverses_any_unitary_circuit():
    rng = np.random.default_rng(17)
    kinds = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz",
             "phase", "cnot", "cz", "swap", "cphase", "toffoli", "cu"]
    for _ in range(15):
        n = int(rng.integers(3, 6))
        circ = GateCircuit(n)
        for _ in range(12):
            kind = kinds[rng.integers(len(kinds))]
            qs = rng.choice(n, size=3, replace=False).tolist()
            theta = float(rng.uniform(-math.pi, math.pi))
            if kind in ("rx", "ry", "rz", "phase"):
                circ.append(getattr(g, kind)(theta, qs[0]))
            elif kind in ("cnot", "cz", "swap"):
                circ.append(getattr(g, kind)(qs[0], qs[1]))
            elif kind == "cphase":
                circ.append(g.cphase(theta, qs[0], qs[1]))
            elif kind == "toffoli" and n >= 3:
                circ.append(g.toffoli(*qs))
            elif kind == "cu":
                circ.append(g.controlled_u(rz_ref(theta), qs[0], [qs[1]],
                                           power=int(rng.integers(1, 4))))
            else:
                circ.append(getattr(g, kind)(qs[0]))
        inverse = dagger(circ)
        prod = unitary_of(inverse) @ unitary_of(circ)
        assert np.abs(prod - np.eye(2 ** n)).max() <= 1e-9


@st.composite
def unitary_circuits(draw, max_width=5):
    """Up to eight gates on at most ``max_width`` qubits, of every kind
    but MEASURE that fits the drawn width."""
    width = draw(st.integers(1, max_width))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = [kind for kind, row in g.KINDS.items()
             if kind is not GateKind.MEASURE and (row.arity or 2) <= width]
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=8)):
        extra = {}
        if kind is GateKind.CONTROLLED_U:
            dim = 2 ** draw(st.integers(1, min(2, width - 1)))
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            extra = {"matrix": np.linalg.qr(z)[0],
                     "power": draw(st.integers(1, 5))}
            arity = dim.bit_length()  # control and log2(dim) targets
        elif kind is GateKind.CMODMUL:
            modulus = draw(st.integers(2, 2 ** (width - 1)))
            units = [a for a in range(1, modulus) if math.gcd(a, modulus) == 1]
            extra = {"multiplier": draw(st.sampled_from(units)),
                     "modulus": modulus, "power": draw(st.integers(1, 9))}
            arity = 1 + g.modular_width(modulus)
        else:
            arity = g.KINDS[kind].arity or draw(st.integers(2, width))
        theta = (draw(st.floats(-2 * math.pi, 2 * math.pi))
                 if g.KINDS[kind].angled else None)
        qubits = draw(st.permutations(range(width)))[:arity]
        ops.append(Gate(kind, tuple(qubits), theta, **extra))
    return GateCircuit(width, ops)


@settings(deadline=None)
@given(unitary_circuits())
def test_dagger_after_a_circuit_is_the_identity(circuit):
    both = GateCircuit(circuit.width, circuit.ops + dagger(circuit).ops)
    assert np.allclose(unitary_of(both), np.eye(2 ** circuit.width),
                       rtol=0, atol=1e-9)


def test_dagger_is_an_involution_for_plain_gates():
    circ = GateCircuit(2, [g.h(0), g.s(1), g.t(0), g.cphase(0.3, 0, 1),
                           g.rx(1.1, 1)])
    assert dagger(dagger(circ)) == circ


def test_dagger_rejects_measurement():
    circ = GateCircuit(1, [g.measure(0, 0)])
    with pytest.raises(NonReversibleError):
        dagger(circ)
    with pytest.raises(NonReversibleError):
        unitary_of(circ)


def test_unitary_of_matches_reference_composition():
    circ = GateCircuit(3, [g.h(0), g.cnot(0, 1), g.toffoli(0, 1, 2),
                           g.rz(0.4, 2), g.swap(0, 2)])
    want = np.eye(8, dtype=complex)
    for gate in circ.ops:
        want = op_on(3, gate_matrix(gate), gate.qubits) @ want
    assert np.abs(unitary_of(circ) - want).max() <= 1e-10


def test_unitary_width_cap():
    with pytest.raises(TooWideError):
        unitary_of(GateCircuit(11))


def test_circuit_equality_ignores_measured_tracking():
    a = GateCircuit(2, [g.h(0), g.measure(0, 0)])
    b = GateCircuit(2)
    b.append(g.h(0))
    b.append(g.measure(0, 0))
    assert a == b
    assert a != GateCircuit(2, [g.h(0)])


def test_a_trusted_circuit_equals_the_checked_one_field_for_field():
    ops = [g.h(0), g.cnot(0, 1), g.measure(1, 2), g.rz(0.3, 0),
           g.measure(0, 0)]
    checked = GateCircuit(3, ops, classical_bits=3)
    trusted = GateCircuit.trusted(3, ops, classical_bits=3)
    assert vars(trusted) == vars(checked)
    assert trusted._measured == {0, 1}
    assert trusted.ops is not ops  # its own list


def test_gate_entries_are_computed_once_per_gate(monkeypatch):
    gates = [Gate(kind, (0,), 0.7 if row.angled else None)
             for kind, row in g.KINDS.items()
             if row.arity == 1 and row.structure]
    want = [g.one_qubit_entries(gate) for gate in gates]
    calls = []

    def spy(gate):
        calls.append(gate)
        return want[gates.index(gate)]

    monkeypatch.setattr(g, "one_qubit_entries", spy)
    assert [gate.entries for gate in gates] == want
    assert [gate.entries for gate in gates] == want
    assert calls == gates  # one call per gate, at its first read


def test_a_gate_at_a_new_angle_equals_a_checked_one_field_for_field():
    for kind, row in g.KINDS.items():
        if row.arity != 1 or not row.angled:
            continue
        old = Gate(kind, (3,), 0.4)
        old.entries  # kept in the gate's __dict__ at the first read
        moved = old._at(-1.25)
        want = Gate(kind, (3,), -1.25)
        assert type(moved) is Gate
        assert vars(moved) == vars(want)  # no stale entries carried over
        assert moved.entries == want.entries
        assert vars(old)["entries"] == g.one_qubit_entries(old)
        assert old.theta == 0.4  # the copy left its source alone
