"""Statevector execution, measurement statistics, observables, QPE."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import qsaf.gates as g
from qsaf.errors import (BadParamsError, NotEigenstateError, QsafError,
                         TooWideError, WidthMismatchError)
from qsaf.gates import GateCircuit
from qsaf.lowering import lower, modular_multiply_matrix, phase_unitary
from qsaf.simulate import (PauliObservable, StateVector, default_seed,
                           expectation, find_order, format_outcome,
                           iterative_phase_estimate, maxcut_observable,
                           parameter_shift_gradient, qpe_estimate, run,
                           sample)

from reference import X2, Y2, Z2, op_on


def test_statevector_validation():
    with pytest.raises(WidthMismatchError):
        StateVector(2, np.ones(3) / math.sqrt(3))
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector.basis(2, 4)
    sv = StateVector.from_amplitudes([0.6, 0.8j])
    assert sv.width == 1
    assert sv.probability(1) == pytest.approx(0.64)
    assert np.allclose(sv.probabilities(), [0.36, 0.64])


def test_the_public_constructor_checks_and_renormalizes():
    amps = np.full(4, 0.5, dtype=complex)
    with pytest.raises(WidthMismatchError):
        StateVector(3, amps)
    with pytest.raises(ValueError):
        StateVector(2, amps * (1 + 2e-8))
    off = amps * (1 + 5e-9)
    sv = StateVector(2, off)
    assert np.array_equal(sv.amplitudes, off / np.linalg.norm(off))
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-15


def test_statevector_equality_compares_width_and_amplitudes():
    zero = StateVector.zero(2)
    assert zero == StateVector.zero(2)
    assert not zero != StateVector.basis(2, 0)
    assert zero != StateVector.basis(2, 1)
    assert zero != StateVector.zero(3)
    assert zero != "zero"
    assert zero in [StateVector.basis(2, 3), StateVector.zero(2)]
    assert zero not in [StateVector.zero(1), None]
    with pytest.raises(TypeError, match="StateVector"):
        hash(zero)


def test_internal_states_skip_the_public_constructor(monkeypatch):
    calls = []
    check = StateVector.__post_init__

    def counting(self):
        calls.append(self.width)
        check(self)

    sv = StateVector(3, np.full(8, 8 ** -0.5, dtype=complex))
    before = sv.amplitudes.copy()
    monkeypatch.setattr(StateVector, "__post_init__", counting)
    obs = PauliObservable.parse("Z0*Z1 + 0.5*X2", 3)
    thetas = np.random.default_rng(2).uniform(-math.pi, math.pi, size=12)
    parameter_shift_gradient(25, thetas, obs, structure={"n": 3, "layers": 2})
    circuit = GateCircuit(3, [g.h(0), g.cnot(0, 1), g.ry(0.4, 2)])
    first, second = run(circuit, initial=sv), run(circuit, initial=sv)
    run(circuit, initial=5)
    assert calls == []
    # the run copied its initial state, and each result owns its buffer
    assert np.array_equal(sv.amplitudes, before)
    assert np.array_equal(first.state.amplitudes, second.state.amplitudes)
    buffers = [first.state.amplitudes, second.state.amplitudes,
               sv.amplitudes]
    for one, other in combinations(buffers, 2):
        assert not np.shares_memory(one, other)


def test_format_outcome_is_msb_left():
    assert format_outcome(1, 3) == "001"
    assert format_outcome(4, 3) == "100"


def test_run_accepts_basis_labels_and_rejects_junk():
    circ = GateCircuit(2, [g.x(0)])
    assert run(circ, initial=2).state.probability(3) == pytest.approx(1.0)
    with pytest.raises(TypeError):
        run(circ, initial="01")
    with pytest.raises(WidthMismatchError):
        run(circ, initial=StateVector.zero(3))
    with pytest.raises(TooWideError):
        run(GateCircuit(17))


def test_measurement_collapse_is_consistent():
    circ = GateCircuit(1, [g.h(0), g.measure(0, 0)])
    for seed in range(40):
        result = run(circ, seed=seed)
        bit = result.bits[0]
        assert bit in (0, 1)
        # the post-measurement state agrees with the classical record
        assert result.state.probability(bit) == pytest.approx(1.0)


def test_measurement_statistics_track_amplitudes():
    circ = GateCircuit(1, [g.ry(2 * math.asin(math.sqrt(0.3)), 0),
                           g.measure(0, 0)])
    hits = sum(run(circ, seed=s).bits[0] for s in range(600))
    assert 0.22 <= hits / 600 <= 0.38


def test_run_is_deterministic_for_a_given_seed():
    circ = GateCircuit(3, [g.h(0), g.cnot(0, 1), g.h(2), g.measure(0, 0),
                           g.measure(1, 1), g.measure(2, 2)])
    first = run(circ, seed=123)
    second = run(circ, seed=123)
    assert first.bits == second.bits
    assert np.array_equal(first.state.amplitudes, second.state.amplitudes)


def test_sample_counts_total_and_determinism():
    state = run(lower(4, {})).state
    counts = sample(state, 500, seed=8)
    assert sum(counts.values()) == 500
    assert set(counts) <= {"00", "11"}
    assert counts == sample(state, 500, seed=8)
    assert 200 <= counts["00"] <= 300
    with pytest.raises(ValueError):
        sample(state, 0)


def test_sample_on_a_basis_state_is_exact():
    counts = sample(StateVector.basis(3, 5), 64, seed=2)
    assert counts == {"101": 64}


def test_sample_reads_out_the_given_qubits_and_rejects_others():
    state = StateVector.basis(3, 6)  # qubits 2, 1, 0 read 1, 1, 0
    for qubits, key in (([2, 1, 0], "110"), ([0, 1, 2], "011"),
                        ([0], "0"), ([2, 0], "10"), ([1, 1], "11")):
        assert sample(state, 64, 2, qubits=qubits) == {key: 64}
    for qubits in ([], [3], [-1], [0, 3]):
        with pytest.raises(ValueError):
            sample(state, 64, 2, qubits=qubits)


def test_qsaf_seed_env_var(monkeypatch):
    monkeypatch.setenv("QSAF_SEED", "77")
    assert default_seed() == 77
    state = run(lower(4, {})).state
    assert sample(state, 100) == sample(state, 100, seed=77)
    monkeypatch.setenv("QSAF_SEED", "many")
    with pytest.raises(QsafError):
        default_seed()
    monkeypatch.delenv("QSAF_SEED")
    assert default_seed() is None


def test_observable_parsing():
    obs = PauliObservable.parse("Z0*Z1 + 0.5*X0 - 2.0", 2)
    assert obs.terms == ((1.0, "ZZ"), (0.5, "XI"), (-2.0, "II"))
    obs = PauliObservable.parse("-1.5e-1*Y1", 2)
    assert obs.terms == ((-0.15, "IY"),)
    obs = PauliObservable.parse("2*Z0*X1*0.5", 2)
    assert obs.terms == ((1.0, "ZX"),)
    for bad in ("", "Z0 +", "Z5", "Z0*Z0", "Q0", "Z0**X1", "1e999*Z0",
                "nan*Z0", "inf", "1e200*X1*1e200"):
        with pytest.raises(ValueError):
            PauliObservable.parse(bad, 2)


def test_observable_construction_checks():
    with pytest.raises(ValueError):
        PauliObservable(2, ((1.0, "ZZZ"),))
    with pytest.raises(ValueError):
        PauliObservable(2, ((1.0 + 1j, "ZZ"),))
    with pytest.raises(ValueError):
        PauliObservable(2, ((float("nan"), "ZZ"),))


def test_expectation_matches_dense_matrix():
    rng = np.random.default_rng(9)
    obs = PauliObservable.parse("0.7*Z0*Z2 - 1.2*X1 + 0.3*Y0*X2 + 0.25", 3)
    dense = (0.7 * op_on(3, Z2, (0,)) @ op_on(3, Z2, (2,))
             - 1.2 * op_on(3, X2, (1,))
             + 0.3 * op_on(3, Y2, (0,)) @ op_on(3, X2, (2,))
             + 0.25 * np.eye(8))
    for _ in range(10):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        raw /= np.linalg.norm(raw)
        state = StateVector(3, raw)
        want = float(np.real(raw.conj() @ dense @ raw))
        assert expectation(state, obs) == pytest.approx(want, abs=1e-10)
    with pytest.raises(WidthMismatchError):
        expectation(StateVector.zero(2), obs)


def test_maxcut_observable_counts_cut_edges():
    obs = maxcut_observable(3, [(0, 1), (1, 2)])
    # |010>: both edges cut; |000>: none
    assert expectation(StateVector.basis(3, 2), obs) == pytest.approx(2.0)
    assert expectation(StateVector.basis(3, 0), obs) == pytest.approx(0.0)
    assert expectation(StateVector.basis(3, 4), obs) == pytest.approx(1.0)


@pytest.mark.parametrize("edge", [(0, 5), (3, 1), (0, -1), (-3, 2), (1, 1)])
def test_maxcut_observable_refuses_an_edge_outside_the_graph(edge):
    # a qubit past the width, a negative one (which would wrap to another
    # qubit) and a self-loop are no edge of an n-qubit graph
    with pytest.raises(ValueError, match="two distinct qubits in 0..2"):
        maxcut_observable(3, [(0, 1), edge])


def test_qpe_estimate_validates_eigenstates():
    u = phase_unitary(0.25)
    with pytest.raises(NotEigenstateError):
        qpe_estimate(u, [1 / math.sqrt(2), 1 / math.sqrt(2)], t=3)
    with pytest.raises(BadParamsError):
        qpe_estimate(u, [0, 1], t=0)
    with pytest.raises(NotEigenstateError):
        qpe_estimate(u, [0, 0], t=3)


def test_qpe_matches_iterative_on_random_dyadics():
    rng = np.random.default_rng(15)
    for _ in range(8):
        t = int(rng.integers(2, 6))
        k = int(rng.integers(0, 2 ** t))
        u = phase_unitary(k / 2 ** t)
        a = qpe_estimate(u, [0, 1], t, seed=4)
        b = iterative_phase_estimate(u, [0, 1], t, seed=4)
        assert a == b == k / 2 ** t


def test_qpe_on_a_multiply_map_eigenvector():
    # |1> is a uniform mixture of order-4 eigenstates of x -> 7x mod 15,
    # so every readout is a multiple of 1/4
    mat = modular_multiply_matrix(7, 15)
    vec = np.zeros(16)
    vec[1] = 1.0
    with pytest.raises(NotEigenstateError):
        qpe_estimate(mat, vec + 0.0, t=3)  # |1> itself is not an eigenstate

    eigvals, eigvecs = np.linalg.eig(mat)
    idx = int(np.argmin(np.abs(eigvals - 1j)))
    est = qpe_estimate(mat, eigvecs[:, idx], t=4, seed=6)
    assert est == Fraction(1, 4)


def test_find_order_demo_and_validation():
    assert find_order(7, 15, seed=0) == 4
    assert find_order(2, 15, seed=1) == 4
    assert find_order(4, 15, seed=2) == 2
    with pytest.raises(BadParamsError):
        find_order(6, 15)
    with pytest.raises(BadParamsError):
        find_order(3, 1)
    for t in (0, -2):
        with pytest.raises(BadParamsError, match=f"t must be >= 1, got {t}"):
            find_order(7, 15, t=t)


def test_modular_unitaries_stop_at_the_dense_cap():
    assert modular_multiply_matrix(3, 1024).shape == (1024, 1024)
    with pytest.raises(BadParamsError, match="dense cap"):
        modular_multiply_matrix(3, 1025)


def test_find_order_is_bounded_by_the_simulator_width():
    # the multiply is a CMODMUL gate, so a modulus past the dense cap runs
    # while the counting and work registers fit: 1024 = -1 mod 1025 has
    # order 2, on 4 + 11 qubits
    assert find_order(1024, 1025, t=4, seed=0) == 2
    with pytest.raises(TooWideError, match="simulator cap"):
        find_order(7, 2097153)
