"""Gate-level realizations: semantics, layouts, parameter validation."""

import math

import numpy as np
import pytest

import qsaf
from qsaf.analyze import DEFAULT_DEMO_PARAMS
from qsaf.catalog import get_primitive
from qsaf.core import ParameterKind
from qsaf.errors import BadParamsError, NotLowerableError
from qsaf.gates import GateCircuit, GateKind, gate_counts, unitary_of
from qsaf.lowering import (ANSATZ_IDS, ansatz_theta_count, initial_thetas,
                           lower, modular_multiply_matrix, phase_unitary,
                           port_spec, qpe_circuit, qpe_round, realize,
                           realize_ansatz)
from qsaf.simulate import StateVector, run

SQ2 = 1.0 / math.sqrt(2.0)


def _final(circuit, basis=0):
    return run(circuit, StateVector.basis(circuit.width, basis)).state


def test_basis_states_sets_the_requested_value():
    state = _final(lower(1, {"n": 4, "value": 9}))
    assert abs(state.probability(9) - 1.0) <= 1e-12


def test_superposition_is_uniform():
    state = _final(lower(2, {"n": 3}))
    assert np.allclose(np.abs(state.amplitudes), SQ2 ** 3, atol=1e-12)


def test_arbitrary_state_bloch_angles():
    theta, phi = 1.1, 0.7
    amps = _final(lower(3, {"theta": theta, "phi": phi})).amplitudes
    assert abs(abs(amps[0]) - math.cos(theta / 2)) <= 1e-12
    assert abs(abs(amps[1]) - math.sin(theta / 2)) <= 1e-12
    relative = np.angle(amps[1] / amps[0])
    assert abs(relative - phi) <= 1e-12


@pytest.mark.parametrize("variant,want", [
    ("phi_plus", [SQ2, 0, 0, SQ2]),
    ("phi_minus", [SQ2, 0, 0, -SQ2]),
    ("psi_plus", [0, SQ2, SQ2, 0]),
    ("psi_minus", [0, SQ2, -SQ2, 0]),
])
def test_bell_variants(variant, want):
    amps = _final(lower(4, {"variant": variant})).amplitudes
    assert np.allclose(amps, want, atol=1e-12)


def test_bell_rejects_unknown_variant():
    with pytest.raises(BadParamsError):
        lower(4, {"variant": "omega"})


def test_entanglement_circuits_share_builders_with_preparation():
    assert lower(7, {}) == lower(4, {})
    assert lower(8, {"n": 4}) == lower(5, {"n": 4})
    assert lower(10, {"n": 3, "edges": [[0, 1], [1, 2]]}) \
        == lower(6, {"n": 3, "edges": [[0, 1], [1, 2]]})


def test_ghz_and_w_gate_counts():
    for n in (2, 4, 6):
        assert gate_counts(lower(5, {"n": n})).total == n
        assert gate_counts(lower(9, {"n": n})).total == 5 * n - 4


def test_cluster_edge_validation():
    with pytest.raises(BadParamsError):
        lower(6, {"n": 3, "edges": [[0, 0]]})
    with pytest.raises(BadParamsError):
        lower(6, {"n": 3, "edges": [[0, 5]]})
    with pytest.raises(BadParamsError):
        lower(6, {"n": 3, "edges": [[0, 1, 2]]})


def test_phase_oracle_flips_marked_signs():
    low = realize(18, {"n": 3, "marked": [2, 5]})
    assert low.spec.anc_qubits == ()
    for value in range(8):
        amps = _final(low.circuit, value).amplitudes
        want = -1.0 if value in (2, 5) else 1.0
        assert abs(amps[value] - want) <= 1e-10


def test_phase_oracle_with_scratch_restores_ancillas():
    low = realize(18, {"n": 5, "marked": [31]})
    assert low.spec.anc_qubits == (5, 6, 7)
    for value in (0, 7, 30, 31):
        amps = _final(low.circuit, value).amplitudes
        want = -1.0 if value == 31 else 1.0
        # scratch qubits end in |0>, so the amplitude stays at ``value``
        assert abs(amps[value] - want) <= 1e-10


def _on_clean_scratch(low):
    """Unitary of a lowering restricted to inputs with every ancilla at 0."""
    u = unitary_of(low.circuit)
    dim = 2 ** len(low.spec.in_qubits)
    # scratch returns to |0>
    assert np.abs(u[dim:, :dim]).max(initial=0.0) <= 1e-10
    return u[:dim, :dim]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracles_match_their_reference_unitaries(n):
    marked = sorted({2 ** n - 1, 2 ** n // 3})
    phase = np.diag([-1.0 if x in marked else 1.0 for x in range(2 ** n)])
    got = _on_clean_scratch(realize(18, {"n": n, "marked": marked}))
    assert np.abs(got - phase).max() <= 1e-10
    flip = np.zeros((2 ** (n + 1), 2 ** (n + 1)))
    for x in range(2 ** n):
        for b in (0, 1):
            flip[x | ((b ^ (x in marked)) << n), x | (b << n)] = 1.0
    got = _on_clean_scratch(realize(19, {"n": n, "marked": marked}))
    assert np.abs(got - flip).max() <= 1e-10


def test_diffusion_is_a_reflection_about_the_mean():
    n = 3
    u = unitary_of(lower(12, {"n": n}))
    s = np.full((2 ** n, 1), SQ2 ** n, dtype=complex)
    reflect = np.eye(2 ** n) - 2 * (s @ s.conj().T)
    assert np.abs(u - reflect).max() <= 1e-10


def test_reflection_marks_a_single_state():
    low = realize(13, {"n": 3, "state": 6})
    for value in range(8):
        amps = _final(low.circuit, value).amplitudes
        want = -1.0 if value == 6 else 1.0
        assert abs(amps[value] - want) <= 1e-10


def test_grover_operator_amplifies_the_marked_state():
    sup = lower(2, {"n": 4})
    grover = lower(11, {"n": 4, "marked": [13], "iterations": 3})
    circ = GateCircuit(grover.width)
    for q in range(4):
        circ.append(qsaf.gates.h(q))
    circ.extend(grover.ops)
    p = _final(circ).probability(13)
    theta = math.asin(math.sqrt(1 / 16))
    assert abs(p - math.sin(7 * theta) ** 2) <= 1e-10
    assert sup.width == 4  # the operator carries its own scratch


def test_qft_gate_count_formula():
    for n in (1, 2, 3, 4, 6):
        total = gate_counts(lower(15, {"n": n})).total
        assert total == n * (n + 1) // 2 + n // 2


def test_approximate_qft_with_full_cutoff_is_exact():
    full = lower(15, {"n": 4})
    approx = lower(17, {"n": 4, "cutoff": 4})
    assert approx == full


def test_approximate_qft_drops_long_range_phases():
    approx = lower(17, {"n": 4, "cutoff": 1})
    kinds = [op.kind for op in approx.ops]
    assert GateKind.CPHASE not in kinds
    assert kinds.count(GateKind.H) == 4


def test_bitflip_oracle_xors_the_result_qubit():
    low = realize(19, {"n": 2, "marked": [2]})
    width = low.circuit.width
    for x in range(4):
        for b in (0, 1):
            index = x | (b << 2)
            amps = _final(low.circuit, index).amplitudes
            want_b = b ^ (1 if x == 2 else 0)
            assert abs(amps[x | (want_b << 2)] - 1.0) <= 1e-10
    assert low.spec.in_qubits == tuple(range(3))
    assert width == 3  # two controls need no scratch


def test_boolean_oracle_matches_its_truth_table():
    table = [0, 1, 1, 0]
    low = realize(21, {"n": 2, "truth_table": table})
    for x in range(4):
        amps = _final(low.circuit, x).amplitudes
        assert abs(amps[x | (table[x] << 2)] - 1.0) <= 1e-10
    with pytest.raises(BadParamsError):
        lower(21, {"n": 2, "truth_table": [0, 1]})


def test_arithmetic_oracle_is_a_controlled_multiply():
    low = realize(20, {"a": 2, "modulus": 3})
    width = low.circuit.width
    assert width == 3  # control plus two work qubits
    for x in range(3):
        active = _final(low.circuit, 1 | (x << 1)).amplitudes
        assert abs(active[1 | (((2 * x) % 3) << 1)] - 1.0) <= 1e-10
        idle = _final(low.circuit, x << 1).amplitudes
        assert abs(idle[x << 1] - 1.0) <= 1e-10


def test_modular_multiply_matrix_is_a_permutation():
    mat = modular_multiply_matrix(7, 15)
    assert mat.shape == (16, 16)
    assert np.abs(mat @ mat.conj().T - np.eye(16)).max() <= 1e-12
    assert np.allclose(mat.sum(axis=0), 1.0)
    assert mat[14, 2] == 1.0  # 7*2 mod 15
    assert mat[15, 15] == 1.0  # out-of-range states stay fixed
    with pytest.raises(BadParamsError):
        modular_multiply_matrix(3, 15)


def test_phase_unitary_encodes_turn_fractions():
    u = phase_unitary(0.25)
    assert np.allclose(u, np.diag([1.0, 1j]), atol=1e-12)


def test_standard_qpe_register_layout():
    spec = port_spec(22, {"t": 3, "phase": 0.375})
    assert spec.width == 4
    assert spec.in_qubits == spec.out_qubits == (3,)
    assert spec.anc_qubits == (0, 1, 2)
    assert spec.classical_out == 3
    assert spec.measures and not spec.out_measured


def test_standard_qpe_reads_out_a_dyadic_phase():
    low = realize(22, {"t": 3, "phase": 0.375})
    initial = StateVector.basis(low.circuit.width, 1 << 3)
    result = run(low.circuit, initial, seed=0)
    readout = sum(result.bits[k] << k for k in range(3))
    assert readout / 8 == 0.375


def test_qpe_rejects_conflicting_unitary_sources():
    with pytest.raises(BadParamsError):
        lower(22, {"t": 3, "phase": 0.1, "a": 7, "modulus": 15})
    with pytest.raises(BadParamsError):
        lower(22, {"t": 3})


def test_iterative_qpe_round_layout():
    spec = port_spec(23, {"k": 2, "feedback": -0.5, "phase": 0.375})
    assert spec.width == 2
    assert spec.anc_qubits == (0,)
    assert spec.classical_out == 1
    low = realize(23, {"k": 0, "phase": 0.5})
    initial = StateVector.basis(2, 2)  # eigenstate |1> on the work qubit
    assert run(low.circuit, initial, seed=0).bits[0] == 1


@pytest.mark.parametrize("source, mat", [
    ({"phase": 0.375}, phase_unitary(0.375)),
    ({"a": 7, "modulus": 15}, modular_multiply_matrix(7, 15)),
])
def test_qpe_primitives_lower_through_the_shared_builders(source, mat):
    standard = lower(22, {"t": 3, **source})
    assert [op for op in standard.ops if op.kind is not GateKind.MEASURE] \
        == qpe_circuit(mat, 3).ops
    assert [op.qubits for op in standard.ops
            if op.kind is GateKind.MEASURE] == [(0,), (1,), (2,)]
    one_round = lower(23, {"k": 2, "feedback": -0.5, **source})
    assert one_round.ops == qpe_round(mat, 4, -0.5).ops


def test_package_exports_resolve_without_duplicates():
    assert len(qsaf.__all__) == len(set(qsaf.__all__))
    missing = [name for name in qsaf.__all__ if not hasattr(qsaf, name)]
    assert missing == []


def test_ansatz_theta_counts_match_realizations():
    structures = {
        25: {"n": 3, "layers": 2},
        26: {"n": 4, "edges": [[0, 1], [2, 3]], "gammas": [0.1, 0.2],
             "betas": [0.3, 0.4]},
        27: {"n": 4},
        28: {"n": 3, "layers": 1, "rotations": ["rx", "ry", "rz"]},
        29: {"n": 3, "steps": 2},
    }
    for pid in ANSATZ_IDS:
        count = ansatz_theta_count(pid, structures[pid])
        flat = [0.01 * (i + 1) for i in range(count)]
        structure = {k: v for k, v in structures[pid].items()
                     if k not in ("gammas", "betas")}
        low = realize_ansatz(pid, structure, flat)
        assert low.spec.theta_count == count
        assert len(low.sites) == count


def test_ansatz_sites_locate_the_parameterized_gates():
    for pid, structure in ((25, {"n": 2, "layers": 2}),
                           (26, {"n": 3, "edges": [[0, 1], [1, 2]]}),
                           (27, {"n": 4}),
                           (28, {"n": 2, "layers": 1}),
                           (29, {"n": 3, "steps": 1})):
        count = ansatz_theta_count(pid, structure)
        flat = [0.1 + 0.05 * i for i in range(count)]
        low = realize_ansatz(pid, structure, flat)
        for i, sites in enumerate(low.sites):
            assert sites, f"theta {i} of primitive {pid} has no site"
            for op_index, scale in sites:
                gate = low.circuit.ops[op_index]
                assert gate.theta == pytest.approx(scale * flat[i])


@pytest.mark.parametrize("pid", ANSATZ_IDS)
def test_flat_layout_round_trips_through_realize(pid):
    # the demo HamiltonianAnsatz takes the fixed dt path, so give it angles
    params = DEFAULT_DEMO_PARAMS[pid] if pid != 29 else {
        "n": 3, "steps": 2, "thetas": [0.1, 0.2, 0.3, 0.4]}
    names = [p.name for p in get_primitive(pid).params
             if p.kind is ParameterKind.VARIATIONAL]
    structure = {k: v for k, v in params.items() if k not in names}
    flat = initial_thetas(pid, params)
    direct = realize(pid, params)
    low = realize_ansatz(pid, structure, flat)
    assert low.circuit == direct.circuit
    assert low.sites == direct.sites
    assert len(flat) == len(low.sites)
    # each flat entry drives the gates its builder attributes to it
    for i, sites in enumerate(low.sites):
        for op_index, scale in sites:
            assert low.circuit.ops[op_index].theta == scale * flat[i]


def test_ansatz_rejects_wrong_flat_length():
    with pytest.raises(BadParamsError):
        realize_ansatz(25, {"n": 2, "layers": 1}, [0.1, 0.2, 0.3])
    with pytest.raises(BadParamsError):
        realize_ansatz(26, {"n": 2, "edges": [[0, 1]]}, [0.1, 0.2, 0.3])
    with pytest.raises(BadParamsError):
        realize_ansatz(15, {"n": 2}, [0.1])
    with pytest.raises(BadParamsError):
        ansatz_theta_count(15)


def test_uccsd_default_blocks_are_four_qubit_only():
    with pytest.raises(BadParamsError):
        lower(27, {"n": 3, "thetas": [0.1, 0.2]})
    explicit = lower(27, {"n": 3, "thetas": [0.2],
                          "blocks": [["XXY", 0, 0.5]]})
    assert explicit.width == 3
    with pytest.raises(BadParamsError):
        lower(27, {"n": 3, "thetas": [0.1], "blocks": [["XXI", 2, 0.5]]})
    with pytest.raises(BadParamsError):
        lower(27, {"n": 3, "thetas": [0.1], "blocks": [["III", 0, 0.5]]})


def test_heuristic_ansatz_entangler_shapes():
    chain = lower(28, {"n": 3, "layers": 1, "rotations": ["ry"],
                       "thetas": [0.1, 0.2, 0.3], "entangler": "chain"})
    ring = lower(28, {"n": 3, "layers": 1, "rotations": ["ry"],
                      "thetas": [0.1, 0.2, 0.3], "entangler": "ring"})
    assert gate_counts(ring).two_qubit == gate_counts(chain).two_qubit + 1
    with pytest.raises(BadParamsError):
        lower(28, {"n": 3, "layers": 1, "rotations": ["rq"],
                   "thetas": [0.1, 0.2, 0.3]})


def test_hamiltonian_evolution_needs_a_time_step():
    with pytest.raises(BadParamsError):
        lower(29, {"n": 3})
    fixed = lower(29, {"n": 3, "dt": 0.1})
    assert gate_counts(fixed).total == 2 * 3 + 3  # rzz per bond, rx per site
    periodic = lower(29, {"n": 3, "dt": 0.1, "periodic": True})
    assert gate_counts(periodic).total == 3 * 3 + 3


def test_swap_controlled_and_toffoli_wrappers():
    assert lower(30, {}).ops[0].kind is GateKind.SWAP
    assert lower(30, {"i": 2, "j": 0}).width == 3
    with pytest.raises(BadParamsError):
        lower(30, {"i": 1, "j": 1})

    assert lower(31, {}).ops[0].kind is GateKind.CNOT
    assert lower(31, {"op": "z"}).ops[0].kind is GateKind.CZ
    cp = lower(31, {"op": "phase", "theta": 0.25})
    assert cp.ops[0].kind is GateKind.CPHASE
    with pytest.raises(BadParamsError):
        lower(31, {"op": "phase"})
    with pytest.raises(BadParamsError):
        lower(31, {"op": "x", "theta": 0.25})

    assert lower(32, {}).ops[0].kind is GateKind.TOFFOLI
    with pytest.raises(BadParamsError):
        lower(32, {"c1": 0, "c2": 0, "target": 1})


def test_measurement_layout():
    low = realize(33, {"n": 3})
    assert all(op.kind is GateKind.MEASURE for op in low.circuit.ops)
    assert low.spec.classical_out == 3
    assert low.spec.out_measured


def test_ancilla_management_is_gate_free():
    low = realize(34, {"count": 3, "released": 2})
    assert low.circuit.ops == []
    assert low.spec.in_qubits == ()
    assert low.spec.out_qubits == (0, 1, 2)


def test_unrealizable_primitives():
    for pid in (14, 24):
        with pytest.raises(NotLowerableError):
            lower(pid, {})


def test_unknown_and_missing_parameters():
    with pytest.raises(BadParamsError):
        lower(2, {"n": 2, "bogus": 1})
    with pytest.raises(BadParamsError):
        lower(2, {})
    with pytest.raises(BadParamsError):
        lower(2, {"n": "three"})
