"""Property checks of the statevector fast paths against slow references.

Every gate kernel in ``run``, the bitmask Pauli ``expectation`` and the
bincount ``sample`` are compared with the index-arithmetic kernel
``apply_ref`` or a per-shot loop, over random gates, qubit orders, widths
and states.
"""

import math

import numpy as np
import pytest
pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st

from qsaf.gates import (PARAMETRIC_KINDS, Gate, GateCircuit, GateKind,
                        gate_matrix)
from qsaf.simulate import (PauliObservable, StateVector, expectation,
                           format_outcome, run, sample)

from conftest import X2, Y2, Z2, apply_ref

MAX_WIDTH = 6
ATOL = 1e-12

_ARITY = {GateKind.CNOT: 2, GateKind.CZ: 2, GateKind.CPHASE: 2,
          GateKind.SWAP: 2, GateKind.TOFFOLI: 3}
UNITARY_KINDS = [k for k in GateKind if k is not GateKind.MEASURE]


def _random_state(rng, width):
    amps = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
    return amps / np.linalg.norm(amps)


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def gates_on_states(draw, kind):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind is GateKind.CONTROLLED_U:
        targets = draw(st.integers(1, 2))
        arity = 1 + targets
        matrix = _random_unitary(rng, 2 ** targets)
        power = draw(st.integers(1, 5))
    else:
        arity = _ARITY.get(kind, 1)
        matrix, power = None, 1
    width = draw(st.integers(arity, MAX_WIDTH))
    qubits = tuple(draw(st.permutations(range(width)))[:arity])
    theta = draw(st.floats(-2 * math.pi, 2 * math.pi)) \
        if kind in PARAMETRIC_KINDS else None
    gate = Gate(kind, qubits, theta=theta, matrix=matrix, power=power)
    return gate, width, _random_state(rng, width)


def _check_kernel(gate, width, amps):
    got = run(GateCircuit(width, [gate]),
              initial=StateVector(width, amps)).state.amplitudes
    want = apply_ref(amps, width, gate_matrix(gate), gate.qubits)
    assert np.allclose(got, want, rtol=0, atol=ATOL)


@pytest.mark.parametrize("kind", UNITARY_KINDS, ids=lambda k: k.value)
@given(data=st.data())
def test_kernel_matches_reference(kind, data):
    _check_kernel(*data.draw(gates_on_states(kind)))


@pytest.mark.parametrize("kind", UNITARY_KINDS, ids=lambda k: k.value)
def test_kernel_at_width_equal_to_arity(kind):
    # every axis of the state is fixed by the gate's qubits here
    rng = np.random.default_rng(11)
    if kind is GateKind.CONTROLLED_U:
        gate = Gate(kind, (1, 0), matrix=_random_unitary(rng, 2), power=3)
    else:
        arity = _ARITY.get(kind, 1)
        qubits = tuple(range(arity))[::-1]
        gate = Gate(kind, qubits, theta=0.7 if kind in PARAMETRIC_KINDS else None)
    _check_kernel(gate, gate.arity, _random_state(rng, gate.arity))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, MAX_WIDTH))
def test_run_leaves_the_initial_state_untouched(seed, width):
    rng = np.random.default_rng(seed)
    sv = StateVector(width, _random_state(rng, width))
    before = sv.amplitudes.copy()
    ops = [Gate(GateKind.H, (q,)) for q in range(width)]
    ops += [Gate(GateKind.X, (0,)), Gate(GateKind.PHASE, (width - 1,), 0.3)]
    run(GateCircuit(width, ops), initial=sv)
    assert np.array_equal(sv.amplitudes, before)


_LETTERS = {"X": X2, "Y": Y2, "Z": Z2}


@st.composite
def observables_on_states(draw):
    width = draw(st.integers(1, MAX_WIDTH))
    strings = st.text("IXYZ", min_size=width, max_size=width)
    coeffs = st.floats(-3.0, 3.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(coeffs, strings), min_size=1,
                          max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return PauliObservable(width, tuple(terms)), \
        StateVector(width, _random_state(rng, width))


@given(observables_on_states())
def test_bitmask_expectation_matches_per_letter_products(case):
    observable, state = case
    want = 0.0
    for coeff, string in observable.terms:
        vec = state.amplitudes
        for q, letter in enumerate(string):
            if letter != "I":
                vec = apply_ref(vec, state.width, _LETTERS[letter], (q,))
        want += coeff * np.vdot(state.amplitudes, vec).real
    assert abs(expectation(state, observable) - want) <= ATOL


def _per_shot_counts(state, shots, seed):
    """The sampler as a per-shot loop over the same seeded draws."""
    cumulative = np.cumsum(state.probabilities())
    cumulative[-1] = 1.0
    draws = np.random.default_rng(seed).random(shots)
    counts = {}
    for label in np.searchsorted(cumulative, draws, side="right"):
        key = format_outcome(int(label), state.width)
        counts[key] = counts.get(key, 0) + 1
    return counts


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, MAX_WIDTH),
       st.integers(1, 2000))
def test_sample_matches_the_per_shot_loop(seed, width, shots):
    rng = np.random.default_rng(seed)
    amps = _random_state(rng, width)
    amps[rng.random(amps.size) < 0.3] = 0.0  # leave some labels unreachable
    if not amps.any():
        amps[0] = 1.0
    state = StateVector(width, amps / np.linalg.norm(amps))
    counts = sample(state, shots, seed)
    assert counts == _per_shot_counts(state, shots, seed)
    assert list(counts) == sorted(counts)
