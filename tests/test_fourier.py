"""The native QFT and IQFT gates against their ladders.

The simulator applies each as one FFT; ``decompose`` spells each out as
the ladder of Hadamards, CPHASEs and SWAPs that the builders emitted
before, and gate counts, depth, the profiles and QASM export read that
ladder. These checks compare the kernel with ``apply_ref`` run over the
ladder gate by gate, at random register sizes, placements and orders
inside wider states, and pin the inverse, the spelled-out form, the
matrix and every report to the ladder of ``reference.qft_ladder_ref``.
"""

import hashlib
import math

import numpy as np
import pytest
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st

import qsaf
import qsaf.simulate as simulate
from qsaf.analyze import nfr_profile
from qsaf.gates import (Gate, GateCircuit, GateKind, dagger, decompose,
                        depth, gate_counts, gate_matrix, unitary_of)
from qsaf.lowering import ControlledPowers, realize
from qsaf.qasm import export_gates
from qsaf.simulate import StateVector, run

from reference import apply_ref, dft_matrix, qft_ladder_ref

FOURIER = (GateKind.QFT, GateKind.IQFT)
ATOL = 1e-12


def _ladder_ref(kind, qubits):
    """The QFT ladder over ``qubits``, or its dagger for the IQFT."""
    ladder = GateCircuit(max(qubits) + 1, qft_ladder_ref(qubits))
    return (ladder if kind is GateKind.QFT else dagger(ladder)).ops


def _random_state(rng, width):
    amps = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
    return amps / np.linalg.norm(amps)


@st.composite
def registers(draw, widths=st.integers(2, 6)):
    """A Fourier kind and a register of 2 or more qubits in a state of a
    width drawn from ``widths``: half of them ascending and contiguous
    (the kernel's reshape view), the others in any placement and order.
    Above 8 qubits a register holds at most 6, so the slow reference
    stays quick."""
    width = draw(widths)
    k = draw(st.integers(2, width if width <= 8 else 6))
    if draw(st.booleans()):
        q0 = draw(st.integers(0, width - k))
        qubits = tuple(range(q0, q0 + k))
    else:
        qubits = tuple(draw(st.permutations(range(width)))[:k])
    return draw(st.sampled_from(FOURIER)), qubits, width


@pytest.mark.parametrize("width", range(2, 13))
@settings(deadline=None, max_examples=6)
@given(data=st.data())
def test_the_fft_kernel_matches_the_ladder_gate_by_gate(width, data):
    kind, qubits, width = data.draw(registers(st.just(width)))
    amps = _random_state(
        np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), width)
    got = run(GateCircuit(width, [Gate(kind, qubits)]),
              StateVector(width, amps)).state.amplitudes
    want = amps
    for gate in _ladder_ref(kind, qubits):
        want = apply_ref(want, width, gate_matrix(gate), gate.qubits)
    assert np.allclose(got, want, rtol=0, atol=ATOL)


@pytest.mark.parametrize("kind", FOURIER, ids=lambda k: k.value)
@pytest.mark.parametrize("qubits", [
    tuple(range(15, 3, -1)), tuple(range(0, 16, 2)), (3, 9, 1, 12, 2),
    (14, 15), tuple(range(1, 16))], ids=str)
def test_a_moved_register_is_transformed_in_place_bit_for_bit(kind, qubits):
    # the kernel transforms a register it has to move in the moved copy;
    # its bytes are those of the transform's own result copied back
    width, k = 16, len(qubits)
    amps = _random_state(np.random.default_rng(k), width)
    want = amps.copy()
    moved = np.moveaxis(want.reshape([2] * width),
                        [width - 1 - q for q in reversed(qubits)],
                        range(width - k, width))
    transform = np.fft.ifft if kind is GateKind.QFT else np.fft.fft
    moved[...] = transform(moved.reshape(-1, 1 << k), axis=1,
                           norm="ortho").reshape(moved.shape)
    simulate._fourier(amps, width, Gate(kind, qubits))
    assert hashlib.sha256(amps.tobytes()).hexdigest() == \
        hashlib.sha256(want.tobytes()).hexdigest()


@settings(deadline=None, max_examples=30)
@given(registers(), st.integers(0, 2 ** 32 - 1))
def test_dagger_swaps_qft_and_iqft_and_undoes_them(case, seed):
    kind, qubits, width = case
    circuit = GateCircuit(width, [Gate(kind, qubits)])
    inverse = dagger(circuit)
    other = GateKind.IQFT if kind is GateKind.QFT else GateKind.QFT
    assert inverse.ops == [Gate(other, qubits)]
    assert dagger(inverse) == circuit
    both = GateCircuit(width, circuit.ops + inverse.ops)
    assert np.allclose(unitary_of(both), np.eye(2 ** width), rtol=0,
                       atol=ATOL)
    amps = _random_state(np.random.default_rng(seed), width)
    back = run(both, StateVector(width, amps)).state.amplitudes
    assert np.allclose(back, amps, rtol=0, atol=ATOL)


@settings(deadline=None, max_examples=40)
@given(registers(st.integers(2, 12)))
def test_decompose_spells_out_the_old_ladder(case):
    kind, qubits, width = case
    spelled = decompose(GateCircuit(width, [Gate(kind, qubits)]))
    assert spelled.width == width  # a ladder needs no scratch
    assert spelled.ops == _ladder_ref(kind, qubits)


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("kind", FOURIER, ids=lambda kind: kind.value)
def test_the_matrix_is_the_ladder_unitary(kind, k):
    matrix = gate_matrix(Gate(kind, tuple(range(k))))
    ladder = unitary_of(GateCircuit(k, _ladder_ref(kind, range(k))))
    assert np.allclose(matrix, ladder, rtol=0, atol=ATOL)
    dft = dft_matrix(k)
    assert np.allclose(matrix, dft if kind is GateKind.QFT else dft.conj().T,
                       rtol=0, atol=ATOL)


@settings(deadline=None, max_examples=20)
@given(registers())
def test_a_placed_register_has_the_placed_ladder_unitary(case):
    kind, qubits, width = case
    native = unitary_of(GateCircuit(width, [Gate(kind, qubits)]))
    ladder = unitary_of(GateCircuit(width, _ladder_ref(kind, qubits)))
    assert np.allclose(native, ladder, rtol=0, atol=ATOL)


def _qpe_ref(unitary, t, measured):
    """Phase estimation as the builders emitted it before the native IQFT:
    Hadamards, the controlled powers, the inverse ladder, readouts."""
    width = t + unitary.width
    ops = [Gate(GateKind.H, (k,)) for k in range(t)]
    ops += [unitary.gate(k, range(t, width), 2 ** k) for k in range(t)]
    ops += _ladder_ref(GateKind.IQFT, range(t)) if t > 1 else \
        [Gate(GateKind.H, (0,))]
    if measured:
        ops += [Gate(GateKind.MEASURE, (k,), cbit=k) for k in range(t)]
    return GateCircuit(width, ops)


def _report_cases():
    """(primitive id, params, the circuit its builder emitted before)."""
    for n in (1, 2, 3, 5, 8):
        yield 15, {"n": n}, GateCircuit(n, qft_ladder_ref(range(n)))
        yield 16, {"n": n}, GateCircuit(n, _ladder_ref(GateKind.IQFT,
                                                        range(n)))
        for cutoff in sorted({1, 2, n, n + 3}):
            yield 17, {"n": n, "cutoff": cutoff}, GateCircuit(
                n, qft_ladder_ref(range(n), cutoff))
    for t in (1, 2, 4, 7):
        yield 22, {"t": t, "phase": 0.375}, _qpe_ref(
            ControlledPowers.phase(0.375), t, True)
        yield 22, {"t": t, "a": 2, "modulus": 15}, _qpe_ref(
            ControlledPowers.modular(2, 15), t, True)


@pytest.mark.parametrize("pid, params, before", list(_report_cases()))
def test_reports_read_the_same_ladder(pid, params, before):
    circuit = realize(pid, params).circuit
    assert decompose(circuit) == before
    assert gate_counts(circuit) == gate_counts(before)
    assert depth(circuit) == depth(before)
    summary = nfr_profile((pid, params)).complexity
    counts = gate_counts(before)
    assert (summary.gate_count, summary.depth, summary.qubit_count,
            summary.two_qubit_count) == (counts.total, depth(before),
                                         before.width, counts.entangling)
    if "modulus" not in params:  # CMODMUL has no OPENQASM form
        assert export_gates(circuit) == export_gates(before)


def test_order_finding_runs_one_fft_and_no_phase_block(monkeypatch):
    manifest = qsaf.parse_manifest(
        "component work = BasisStates(n=5, value=1)\n"
        "component qpe = StandardQPE(t=11, a=5, modulus=21)\n"
        "wire work.out -> qpe.in\n")
    flat = manifest.graph.flatten()
    assert flat.width == 16
    native = [gate for gate in flat.ops if gate.kind in FOURIER]
    assert [(g.kind, g.qubits) for g in native] == \
        [(GateKind.IQFT, tuple(range(5, 16)))]
    assert not [g for g in flat.ops if g.kind is GateKind.CPHASE]
    calls = []

    def spy(kernel):
        def counted(amps, n, gate):
            calls.append(gate.kind)
            kernel(amps, n, gate)
        return counted

    for name in ("_phase_block", "_fourier"):
        real = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, spy(real))
        for kind, kernel in list(simulate._KERNELS.items()):
            if kernel is real:
                monkeypatch.setitem(simulate._KERNELS, kind,
                                    getattr(simulate, name))
    simulate._plan.cache_clear()  # plans hold the kernels they picked
    unitary = GateCircuit(flat.width, [g for g in flat.ops
                                       if g.kind is not GateKind.MEASURE])
    got = run(unitary).state.amplitudes
    assert calls == [GateKind.IQFT]
    # the spelled-out ladder, CPHASEs and all, reaches the same state
    want = run(decompose(unitary)).state.amplitudes
    simulate._plan.cache_clear()
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert math.isclose(np.vdot(got, got).real, 1.0, abs_tol=1e-12)
