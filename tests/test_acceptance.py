"""Acceptance checks, one test per shipped guarantee.

Every expected value here is computed independently inside the test
(dense linear algebra, closed forms, hand-built tables) or read from a
golden file under tests/golden/.
"""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

import qsaf
from qsaf import (AnalysisContext, ComponentInstance, DegenerateMarginalsError,
                  Growth, PauliObservable, UsageLevel)
from qsaf.analyze import complexity_check, compare
from qsaf.classify import ATTRIBUTE_NAMES, check_mece, fleiss_kappa
from qsaf.simulate import _evolve

from reference import H2, X2, Z2, cz_ref, dft_matrix, op_on
from reference import GROVER_MANIFEST, VQE_MANIFEST

GOLDEN = pathlib.Path(__file__).parent / "golden"

# golden usage table, kept independent of the catalog source:
# 34 rows x (Grover, Shor, VQE, QAOA, Sim)
GOLDEN_USAGE = {
    1: "ES ES ES ES ES", 2: "ES ES ES ES ES", 3: "ES ES ES ES ES",
    4: "ES ES ES ES ES", 5: "SU SU SU SU ES", 6: "NU NU NU NU ES",
    7: "FU FU FU FU FU", 8: "FU FU FU FU FU", 9: "FU FU FU FU FU",
    10: "NU NU NU NU FU",
    11: "ES NU NU NU NU", 12: "ES NU NU NU NU", 13: "ES NU NU NU NU",
    14: "NU NU NU NU NU",
    15: "NU ES NU NU SU", 16: "NU ES NU NU SU", 17: "NU ES NU NU SU",
    18: "ES ES NU NU NU", 19: "ES NU NU NU NU", 20: "NU ES NU NU NU",
    21: "ES NU NU NU NU",
    22: "NU ES NU NU SU", 23: "NU ES NU NU SU", 24: "NU ES NU NU SU",
    25: "NU NU ES ES NU", 26: "NU NU ES ES NU", 27: "NU NU ES NU NU",
    28: "NU NU ES ES NU", 29: "NU NU ES NU ES",
    30: "SU SU SU SU SU", 31: "ES ES ES ES ES", 32: "ES SU SU SU SU",
    33: "ES ES ES ES ES", 34: "SU SU SU SU SU",
}

GOLDEN_BLOCKS = {
    "state_preparation": range(1, 7),
    "entanglement_generation": range(7, 11),
    "amplitude_amplification": range(11, 15),
    "basis_transformation": range(15, 18),
    "oracle_construction": range(18, 22),
    "phase_estimation": range(22, 25),
    "variational_ansatz": range(25, 30),
    None: range(30, 35),
}

RING4 = [[0, 1], [1, 2], [2, 3], [3, 0]]


def _state_of(*lowered_circuits):
    """Concatenate equal-width circuits and run from |0...0>."""
    width = lowered_circuits[0].width
    circ = qsaf.GateCircuit(width)
    for part in lowered_circuits:
        assert part.width == width
        circ.extend(part.ops)
    return qsaf.run(circ).state


def test_c01_catalog_size_blocks_and_usage_table():
    prims = qsaf.all_primitives()
    assert len(prims) == 34
    assert len({d.category for d in prims if d.category is not None}) == 7
    assert sum(1 for d in prims if d.category is None) == 5
    for d in prims:
        label = d.category.value if d.category else None
        assert d.id in GOLDEN_BLOCKS[label], (d.id, label)
    cells = 0
    for d in prims:
        expected = tuple(UsageLevel(c) for c in GOLDEN_USAGE[d.id].split())
        assert d.usage == expected, f"usage row {d.id}"
        cells += len(expected)
    assert cells == 170


def test_c02_mece_clean_and_mutation_sensitive():
    prims = qsaf.all_primitives()
    assert check_mece(prims) == []
    for d in prims:
        for name in ATTRIBUTE_NAMES:
            flipped = d.attributes.with_flag(name,
                                             not getattr(d.attributes, name))
            mutated = [dataclasses.replace(e, attributes=flipped)
                       if e.id == d.id else e for e in prims]
            assert check_mece(mutated), (d.id, name)


def test_c03_prepared_states_match_dense_oracles():
    atol = 1e-10

    bell = qsaf.run(qsaf.lower(4, {})).state.amplitudes
    r = 1 / math.sqrt(2)
    assert np.allclose(bell, [r, 0, 0, r], atol=atol)

    for n in range(2, 7):
        ghz = qsaf.run(qsaf.lower(5, {"n": n})).state.amplitudes
        want = np.zeros(2 ** n, dtype=complex)
        want[0] = want[-1] = r
        assert np.allclose(ghz, want, atol=atol), f"ghz {n}"

        w = qsaf.run(qsaf.lower(9, {"n": n})).state.amplitudes
        want = np.zeros(2 ** n, dtype=complex)
        for k in range(n):
            want[1 << k] = 1 / math.sqrt(n)
        assert np.allclose(w, want, atol=atol), f"w {n}"

    for n in range(1, 6):
        u = qsaf.unitary_of(qsaf.lower(15, {"n": n}))
        assert np.abs(u - dft_matrix(n)).max() <= atol, f"qft {n}"
        round_trip = qsaf.lower(15, {"n": n})
        round_trip.extend(qsaf.lower(16, {"n": n}).ops)
        ident = qsaf.unitary_of(round_trip)
        assert np.abs(ident - np.eye(2 ** n)).max() <= atol, f"inv qft {n}"

    cluster = qsaf.run(qsaf.lower(6, {"n": 4, "edges": RING4})).state
    want = np.zeros(16, dtype=complex)
    want[0] = 1.0
    for q in range(4):
        want = op_on(4, H2, (q,)) @ want
    for a, b in RING4:
        want = op_on(4, cz_ref(), (a, b)) @ want
    assert np.abs(cluster.amplitudes - want).max() <= atol


def test_c04_grover_success_probabilities_and_iteration_growth():
    state = _state_of(qsaf.lower(2, {"n": 2}),
                      qsaf.lower(11, {"n": 2, "marked": [3],
                                      "iterations": 1}))
    assert abs(state.probability(3) - 1.0) <= 1e-10

    state = _state_of(qsaf.lower(2, {"n": 3}),
                      qsaf.lower(11, {"n": 3, "marked": [5],
                                      "iterations": 2}))
    theta = math.asin(1 / math.sqrt(8))
    closed_form = math.sin(5 * theta) ** 2
    p = state.probability(5)
    assert p >= 0.94
    assert abs(p - closed_form) <= 1e-3

    chk = complexity_check(11)
    assert chk.growth is Growth.SQRT_STATES
    assert chk.passed, (chk.predicted_ratio, chk.measured_ratio)


def test_c05_phase_estimation_dyadic_fractional_and_order():
    eigenstate = [0.0, 1.0]
    for t in range(1, 6):
        for k in (1, 2 ** t - 1, 2 ** (t - 1) + 1):
            k %= 2 ** t
            u = qsaf.phase_unitary(k / 2 ** t)
            assert qsaf.qpe_estimate(u, eigenstate, t, seed=3) == k / 2 ** t
            assert qsaf.iterative_phase_estimate(u, eigenstate, t,
                                                 seed=3) == k / 2 ** t

    # a non-dyadic phase: estimate to 5 bits, check the readout mass
    t = 5
    u = qsaf.phase_unitary(1 / 3)
    est = qsaf.qpe_estimate(u, eigenstate, t, shots=512, seed=9)
    assert abs(est - 1 / 3) <= 1 / 32

    low = qsaf.realize(22, {"t": t, "phase": 1 / 3})
    unitary_prefix = qsaf.GateCircuit(low.circuit.width)
    unitary_prefix.extend(g for g in low.circuit.ops
                          if g.kind is not qsaf.GateKind.MEASURE)
    initial = qsaf.StateVector.basis(low.circuit.width, 1 << t)
    state = qsaf.run(unitary_prefix, initial).state
    counts = qsaf.sample(state, 512, seed=9)
    near = 0
    for label, hits in counts.items():
        readout = int(label, 2) & (2 ** t - 1)
        if abs(readout / 2 ** t - 1 / 3) <= 1 / 32:
            near += hits
    assert near / 512 >= 0.8

    assert qsaf.find_order(7, 15, seed=1) == 4


def test_c06_gradients_vqe_energy_and_qaoa_cut():
    structure = {"n": 2, "layers": 2}
    obs = PauliObservable.parse("Z0*Z1 + 0.5*X0", 2)

    def energy(thetas):
        low = qsaf.realize_ansatz(25, structure, thetas)
        return qsaf.expectation(qsaf.run(low.circuit).state, obs)

    rng = np.random.default_rng(1234)
    eps = 1e-5
    for _ in range(20):
        point = rng.uniform(-math.pi, math.pi, size=8)
        grad = qsaf.parameter_shift_gradient(25, point, obs,
                                             structure=structure)
        for i in range(8):
            plus, minus = point.copy(), point.copy()
            plus[i] += eps
            minus[i] -= eps
            central = (energy(plus) - energy(minus)) / (2 * eps)
            assert abs(grad[i] - central) <= 1e-4

    dense = (op_on(2, Z2, (0,)) @ op_on(2, Z2, (1,))
             + 0.5 * op_on(2, X2, (0,)))
    ground = np.linalg.eigvalsh(dense).min()
    result = qsaf.variational_minimize(
        25, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], obs,
        structure=structure)
    assert abs(result.best_energy - ground) <= 1e-4

    cut_obs = qsaf.maxcut_observable(4, RING4)
    qaoa_structure = {"n": 4, "edges": RING4}

    def cut_value(gamma, beta):
        low = qsaf.realize_ansatz(26, qaoa_structure, [gamma, beta])
        return qsaf.expectation(qsaf.run(low.circuit).state, cut_obs)

    grid = np.linspace(0.0, math.pi, 64, endpoint=False)
    best_cut, best_point = -1.0, None
    for gamma in grid:
        for beta in grid:
            value = cut_value(gamma, beta)
            if value > best_cut:
                best_cut, best_point = value, (gamma, beta)

    negated = PauliObservable(4, tuple((-c, s) for c, s in cut_obs.terms))
    refined = qsaf.variational_minimize(26, list(best_point), negated,
                                        structure=qaoa_structure)
    achieved = -refined.best_energy
    assert achieved > 2.0
    assert abs(achieved - best_cut) <= 1e-2


def test_c07_constraint_fixtures_and_valid_manifests():
    def codes(build):
        graph = qsaf.ArchitectureGraph()
        build(graph)
        return {d.code for d in graph.validate()}

    def fan_out(graph):
        graph.add_component(ComponentInstance("src", 7, {}))
        graph.add_component(ComponentInstance("m1", 33, {"n": 2}))
        graph.add_component(ComponentInstance("m2", 33, {"n": 2}))
        graph.record_wire("src.out", "m1.in")
        graph.record_wire("src.out", "m2.in")

    def width_mismatch(graph):
        graph.add_component(ComponentInstance("sup", 2, {"n": 2}))
        graph.add_component(ComponentInstance("meas", 33, {"n": 3}))
        graph.record_wire("sup.out", "meas.in")

    def ancilla_leak(graph):
        graph.add_component(
            ComponentInstance("anc", 34, {"count": 2, "released": 1}))

    def measured_reuse(graph):
        graph.add_component(ComponentInstance("meas", 33, {"n": 2}))
        graph.add_component(ComponentInstance("qft", 15, {"n": 2}))
        graph.record_wire("meas.out", "qft.in")

    assert "fan_out" in codes(fan_out)
    assert "width_mismatch" in codes(width_mismatch)
    assert "ancilla_leak" in codes(ancilla_leak)
    assert "measured_qubit_reuse" in codes(measured_reuse)

    grover = qsaf.parse_manifest(GROVER_MANIFEST)
    assert grover.graph.validate() == []
    flat = grover.graph.flatten()
    unitary_prefix = qsaf.GateCircuit(flat.width)
    unitary_prefix.extend(g for g in flat.ops
                          if g.kind is not qsaf.GateKind.MEASURE)
    assert abs(qsaf.run(unitary_prefix).state.probability(3) - 1.0) <= 1e-10
    outcome = qsaf.execute(grover)[0]
    assert outcome.counts == {"11": 512}

    vqe = qsaf.parse_manifest(VQE_MANIFEST)
    assert vqe.graph.validate() == []
    dense = (op_on(2, Z2, (0,)) @ op_on(2, Z2, (1,))
             + 0.5 * op_on(2, X2, (0,)))
    ground = np.linalg.eigvalsh(dense).min()
    outcome = qsaf.execute(vqe)[0]
    assert abs(outcome.result.best_energy - ground) <= 1e-4


def test_c08_growth_classes_and_exact_counts():
    qft = complexity_check(15)
    assert qft.growth is Growth.QUADRATIC and qft.passed
    ghz = complexity_check(5)
    assert ghz.growth is Growth.LINEAR and ghz.passed
    assert qsaf.gate_counts(qsaf.lower(15, {"n": 4})).total == 12
    assert qsaf.gate_counts(qsaf.lower(5, {"n": 4})).total == 4


def test_c09_tradeoff_recommendation_flips_with_regime():
    nisq = compare(context=AnalysisContext(regime="nisq"))
    assert nisq.recommendation == "hardware_efficient"
    assert nisq.depth_a < nisq.depth_b
    assert (nisq.profile_a.complexity.two_qubit_count
            < nisq.profile_b.complexity.two_qubit_count)

    ft = compare(context=AnalysisContext(regime="fault_tolerant"))
    assert ft.recommendation == "problem_inspired_uccsd"


def test_c10_kappa_unanimity_permutations_and_fixture():
    assert fleiss_kappa([[3, 0], [0, 3]]) == 1.0
    assert fleiss_kappa([[4, 0, 0], [0, 0, 4], [4, 0, 0], [0, 4, 0]]) == 1.0
    with pytest.raises(DegenerateMarginalsError):
        fleiss_kappa([[3, 0], [3, 0]])

    rng = np.random.default_rng(77)
    for _ in range(10):
        items, cats, raters = rng.integers(2, 7), rng.integers(2, 5), 5
        rows = []
        for _ in range(items):
            row = [0] * cats
            for _ in range(raters):
                row[rng.integers(cats)] += 1
            rows.append(row)
        try:
            base = fleiss_kappa(rows)
        except DegenerateMarginalsError:
            continue
        col_perm = rng.permutation(cats)
        row_perm = rng.permutation(items)
        shuffled = [[rows[i][j] for j in col_perm] for i in row_perm]
        assert abs(fleiss_kappa(shuffled) - base) <= 1e-12

    # three raters, three items, two categories, computed by hand:
    # P_bar = 1/3, P_e = (5/9)^2 + (4/9)^2 = 41/81, kappa = -7/20
    assert abs(fleiss_kappa([[2, 1], [2, 1], [1, 2]]) - (-0.35)) <= 1e-12


def test_c11_round_trip_byte_stable_export_and_seeded_counts():
    for text in (GROVER_MANIFEST, VQE_MANIFEST):
        first = qsaf.parse_manifest(text)
        second = qsaf.parse_manifest(qsaf.render_manifest(first))
        assert second.name == first.name
        assert second.version == first.version
        assert second.directives == first.directives
        assert second.graph.level == first.graph.level
        assert second.graph.components == first.graph.components
        assert second.graph.wires == first.graph.wires
        assert second.graph.contracts == first.graph.contracts
        assert (qsaf.render_manifest(second)
                == qsaf.render_manifest(first))

    bell = qsaf.lower(4, {})
    qft3 = qsaf.lower(15, {"n": 3})
    assert qsaf.export_gates(bell) == qsaf.export_gates(bell)
    assert qsaf.export_gates(bell) == (GOLDEN / "bell.qasm").read_text()
    assert qsaf.export_gates(qft3) == (GOLDEN / "qft3.qasm").read_text()

    state = qsaf.run(bell).state
    golden_counts = json.loads((GOLDEN / "bell_counts.json").read_text())
    assert qsaf.sample(state, 256, seed=11) == golden_counts
    assert qsaf.sample(state, 256, seed=11) == golden_counts


# seeded runs at the 16-qubit cap, whose counts every engine must reproduce
# bit for bit: Grover n=9, whose ladders take 7 scratch qubits once
# decomposed, and QPE order finding
WIDE_MANIFESTS = {
    "grover9_w16_counts.json": """\
name grover_wide
component sup = Superposition(n=9)
component search = GroverOperator(n=9, marked=[301], iterations=5)
component meas = Measurement(n=9)
wire sup.out -> search.in
wire search.out -> meas.in
run simulate shots=2000 seed=1234
""",
    "qpe21_w16_counts.json": """\
name order_wide
component work = BasisStates(n=5, value=1)
component qpe = StandardQPE(t=11, a=5, modulus=21)
wire work.out -> qpe.in
run simulate shots=2000 seed=4321
""",
}


@pytest.mark.parametrize("golden", list(WIDE_MANIFESTS))
def test_c11_seeded_counts_at_the_width_cap(golden):
    manifest = qsaf.parse_manifest(WIDE_MANIFESTS[golden])
    flat = manifest.graph.flatten()
    wide = qsaf.decompose(flat)
    assert wide.width == 16
    want = json.loads((GOLDEN / golden).read_text())
    (outcome,) = qsaf.execute(manifest)
    assert outcome.counts == want
    # the decomposed circuit, scratch included, runs through the wide
    # steps of its plan and reproduces the same counts
    unitary = [g for g in wide.ops if g.kind is not qsaf.GateKind.MEASURE]
    amps = np.zeros(2 ** wide.width, dtype=complex)
    amps[0] = 1.0
    amps = _evolve(amps, wide.width, unitary, (), None)
    (directive,) = manifest.directives
    counts = qsaf.sample(qsaf.StateVector(wide.width, amps),
                         directive.options["shots"],
                         directive.options["seed"])
    measured = sorted((g.cbit, g.qubits[0]) for g in wide.ops
                      if g.kind is qsaf.GateKind.MEASURE)
    projected = {}
    for key, hits in counts.items():
        bits = "".join(key[wide.width - 1 - q] for _, q in reversed(measured))
        projected[bits] = projected.get(bits, 0) + hits
    assert projected == want
