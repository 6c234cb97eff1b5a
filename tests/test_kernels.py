"""Property checks of the statevector fast paths against slow references.

Every gate kernel in ``run``, the product-state start of a run from a
basis state, the compiled plans at every width with both kinds of steps
(layers of grouped blocks, real ones through the float64 view and
complex ones on the amplitudes, and held runs composed with the plan, or
gate by gate once the bytes plans hold are full), the fusion of
one-qubit runs, the held runs of CNOT, CZ, SWAP, Toffoli, MCZ and MCX
gates and their kernel-composed signed permutations, the native
multi-controlled gates against their decomposition, the controlled
modular multiply against the dense power of ``modular_multiply_matrix``,
the planned and stacked Pauli ``expectation``, the three ways of
``sample`` and its readout of chosen qubits, and the parameter-shift
gradient shifted at each stretch's end are compared with the
index-arithmetic kernel ``apply_ref``, the gather-composed permutation,
a per-shot loop, the bincount sampler and its string readout or full
replays, over random gates, qubit orders, widths and states.
"""

import contextlib
import math
from bisect import bisect_right
from functools import reduce
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st

import qsaf.lowering as lowering
import qsaf.simulate as simulate
from qsaf.gates import (KINDS, PARAMETRIC_KINDS, Gate, GateCircuit,
                        GateKind, apply_matrix, dagger, decompose,
                        gate_matrix, modular_width)
from qsaf.lowering import modular_multiply_matrix, realize_ansatz
from qsaf.manifest import parse_manifest
from qsaf.simulate import (PauliObservable, StateVector, expectation,
                           format_outcome, parameter_shift_gradient, run,
                           sample)

from reference import (X2, Y2, Z2, apply_ref, readout_ref, sample_ref,
                       shift_gradient_ref, signed_permutation_ref)

MAX_WIDTH = 6
ATOL = 1e-12

_ARITY = {GateKind.CNOT: 2, GateKind.CZ: 2, GateKind.CPHASE: 2,
          GateKind.SWAP: 2, GateKind.TOFFOLI: 3}
# the multi-controlled kinds take two qubits or more; drawn up to six
MULTI_KINDS = (GateKind.MCZ, GateKind.MCX)
MULTI_MAX = 6
# so do the Fourier kinds (see tests/test_fourier.py for their suite)
FOURIER_KINDS = (GateKind.QFT, GateKind.IQFT)
UNITARY_KINDS = [k for k in GateKind if k is not GateKind.MEASURE]


def _least_arity(kind):
    return 2 if kind in MULTI_KINDS else _ARITY[kind]


def _draw_arity(draw, kind, width):
    """A fixed kind's arity, or one from 2 to min(MULTI_MAX, width)."""
    if kind in MULTI_KINDS:
        return draw(st.integers(2, min(MULTI_MAX, width)))
    return _ARITY[kind]


def _random_state(rng, width):
    amps = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
    return amps / np.linalg.norm(amps)


def _drop_plans():
    """Drop every plan and the replay memo, so no composed run holds
    bytes and every run that follows may be composed."""
    simulate._plan.cache_clear()
    simulate._last_run = None, (), ()
    assert simulate._run_bytes == 0


@pytest.fixture
def no_plans():
    _drop_plans()


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def gates_on_states(draw, kind):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    extra = {}
    if kind is GateKind.CONTROLLED_U:
        targets = draw(st.integers(1, 2))
        arity = 1 + targets
        matrix = _random_unitary(rng, 2 ** targets)
        power = draw(st.integers(1, 5))
    elif kind is GateKind.CMODMUL:
        extra = draw(modular_params(MAX_WIDTH - 1))
        arity = 1 + modular_width(extra["modulus"])
        matrix, power = None, draw(st.integers(1, 2 ** 19))
    elif kind in MULTI_KINDS or kind in FOURIER_KINDS:
        arity = draw(st.integers(2, MULTI_MAX))
        matrix, power = None, 1
    else:
        arity = _ARITY.get(kind, 1)
        matrix, power = None, 1
    width = draw(st.integers(arity, MAX_WIDTH))
    qubits = tuple(draw(st.permutations(range(width)))[:arity])
    theta = draw(st.floats(-2 * math.pi, 2 * math.pi)) \
        if kind in PARAMETRIC_KINDS else None
    gate = Gate(kind, qubits, theta=theta, matrix=matrix, power=power,
                **extra)
    return gate, width, _random_state(rng, width)


@st.composite
def modular_params(draw, most_work):
    """multiplier and modulus of a CMODMUL gate on 1 to ``most_work`` work
    qubits: any modulus that needs them all, a power of two or not, and a
    multiplier that is a unit modulo it."""
    m = draw(st.integers(1, most_work))
    modulus = draw(st.integers(2 ** (m - 1) + 1, 2 ** m))
    units = [a for a in range(1, modulus) if math.gcd(a, modulus) == 1]
    return {"multiplier": draw(st.sampled_from(units)), "modulus": modulus}


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
    elif kind is GateKind.CMODMUL:
        gate = Gate(kind, (1, 2, 0), power=3, multiplier=2, modulus=3)
    else:
        arity = 4 if kind in (*MULTI_KINDS, *FOURIER_KINDS) \
            else _ARITY.get(kind, 1)
        qubits = tuple(range(arity))[::-1]
        gate = Gate(kind, qubits, theta=0.7 if kind in PARAMETRIC_KINDS else None)
    _check_kernel(gate, gate.arity, _random_state(rng, gate.arity))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_controlled_multiply_matches_the_dense_power(data):
    """CMODMUL against modular_multiply_matrix(a, N)**p applied by
    ``apply_ref``: any modulus that needs its 1 to 5 work qubits, p up to
    2**19, the work register anywhere around the control and in any
    order, or in phase estimation's layout (the register lowest and in
    order, the control anywhere above it), at widths up to the cap; and
    its ``dagger``. Past WIDE_WIDTH the power is applied by
    ``apply_matrix``, whose agreement with ``apply_ref`` is checked in
    tests/test_gates.py: ``apply_ref`` takes seconds there."""
    params = data.draw(modular_params(5))
    m = modular_width(params["modulus"])
    power = data.draw(st.integers(1, 2 ** 19))
    width = data.draw(st.integers(1 + m, simulate.SIM_WIDTH_CAP))
    if data.draw(st.booleans()):
        qubits = [data.draw(st.integers(m, width - 1)), *range(m)]
    else:
        qubits = data.draw(st.permutations(range(width)))[:1 + m]
    gate = Gate(GateKind.CMODMUL, tuple(qubits), power=power, **params)
    dense = np.linalg.matrix_power(
        modular_multiply_matrix(params["multiplier"], params["modulus"]),
        power)
    controlled = np.eye(2 ** (1 + m), dtype=complex)
    controlled[1::2, 1::2] = dense  # the control is the low index bit
    amps = _random_state(np.random.default_rng(data.draw(
        st.integers(0, 2 ** 32 - 1))), width)
    circuit = GateCircuit(width, [gate])
    got = run(circuit, StateVector(width, amps)).state.amplitudes
    reference = apply_ref if width <= simulate.WIDE_WIDTH else apply_matrix
    want = reference(amps, width, controlled, qubits)
    assert np.allclose(got, want, rtol=0, atol=ATOL)
    back = run(dagger(circuit), StateVector(width, got)).state.amplitudes
    assert np.allclose(back, amps, rtol=0, atol=ATOL)


def test_an_identity_power_builds_no_sources(monkeypatch):
    # 2 has order 4 modulo 15: powers 4 and 8 move nothing, 3 does
    calls = []
    sources = simulate.modular_sources
    monkeypatch.setattr(simulate, "modular_sources", lambda values, gate: (
        calls.append(gate.power), sources(values, gate))[1])
    amps = _random_state(np.random.default_rng(13), 6)
    for power in (4, 8, 3):
        gate = Gate(GateKind.CMODMUL, (5, 0, 1, 2, 3), power=power,
                    multiplier=2, modulus=15)
        got = run(GateCircuit(6, [gate]), StateVector(6, amps))
        want = apply_ref(amps, 6, gate_matrix(gate), gate.qubits)
        assert np.allclose(got.state.amplitudes, want, rtol=0, atol=ATOL)
        assert np.array_equal(got.state.amplitudes, amps) == (power != 3)
    assert calls == [3]


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, MAX_WIDTH))
def test_run_leaves_the_initial_state_untouched(seed, width):
    rng = np.random.default_rng(seed)
    sv = StateVector(width, _random_state(rng, width))
    before = sv.amplitudes.copy()
    ops = [Gate(GateKind.H, (q,)) for q in range(width)]
    ops += [Gate(GateKind.X, (0,)), Gate(GateKind.PHASE, (width - 1,), 0.3)]
    run(GateCircuit(width, ops), initial=sv)
    assert np.array_equal(sv.amplitudes, before)


ONE_QUBIT_KINDS = [k for k in UNITARY_KINDS
                   if k not in (GateKind.CONTROLLED_U, GateKind.CMODMUL)
                   and k not in _ARITY and k not in MULTI_KINDS
                   and k not in FOURIER_KINDS]


def _reference_run(ops, width, amps):
    for gate in ops:
        amps = apply_ref(amps, width, gate_matrix(gate), gate.qubits)
    return amps


@st.composite
def fused_circuits(draw):
    """Runs of 1-4 one-qubit gates on one qubit between wider gates."""
    width = draw(st.integers(1, MAX_WIDTH))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    wider = [k for k in (*_ARITY, GateKind.CONTROLLED_U)
             if _ARITY.get(k, 2) <= width]
    angles = st.floats(-2 * math.pi, 2 * math.pi)
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        q = draw(st.integers(0, width - 1))
        for kind in draw(st.lists(st.sampled_from(ONE_QUBIT_KINDS),
                                  min_size=1, max_size=4)):
            theta = draw(angles) if kind in PARAMETRIC_KINDS else None
            ops.append(Gate(kind, (q,), theta=theta))
        if not wider or not draw(st.booleans()):
            continue
        kind = draw(st.sampled_from(wider))
        if kind is GateKind.CONTROLLED_U:
            arity = draw(st.integers(2, min(3, width)))
            matrix = _random_unitary(rng, 2 ** (arity - 1))
        else:
            arity, matrix = _ARITY[kind], None
        qubits = tuple(draw(st.permutations(range(width)))[:arity])
        theta = draw(angles) if kind in PARAMETRIC_KINDS else None
        ops.append(Gate(kind, qubits, theta=theta, matrix=matrix))
    return ops, width, _random_state(rng, width)


@given(fused_circuits())
def test_fused_runs_match_gate_by_gate_reference(case):
    ops, width, amps = case
    got = run(GateCircuit(width, ops),
              initial=StateVector(width, amps)).state.amplitudes
    assert np.allclose(got, _reference_run(ops, width, amps), rtol=0,
                       atol=ATOL)


def test_measure_after_a_fused_run_sees_the_whole_run():
    rng = np.random.default_rng(3)
    amps = _random_state(rng, 2)
    before = [Gate(GateKind.H, (0,)), Gate(GateKind.RY, (0,), 0.4),
              Gate(GateKind.T, (0,)), Gate(GateKind.RX, (1,), 1.1)]
    after = [Gate(GateKind.RZ, (0,), 0.8), Gate(GateKind.CNOT, (0, 1))]
    circ = GateCircuit(2, allow_mid_measure=True)
    circ.extend(before + [Gate(GateKind.MEASURE, (0,), cbit=0)] + after)
    for seed in range(8):
        result = run(circ, initial=StateVector(2, amps), seed=seed)
        want = _reference_run(before, 2, amps)
        ones = (np.arange(4) & 1).astype(bool)
        p_one = float(np.sum(np.abs(want[ones]) ** 2))
        outcome = int(np.random.default_rng(seed).random() < p_one)
        want[ones != bool(outcome)] = 0.0
        want = _reference_run(after, 2, want / np.linalg.norm(want))
        assert result.bits == (outcome,)
        assert np.allclose(result.state.amplitudes, want, rtol=0, atol=ATOL)


def test_a_layer_without_angles_is_built_with_the_plan_bit_for_bit():
    # a Grover-style layer of H, X, S and T around a phase flip: the plan
    # holds each block's matrix, the bytes that building it from the
    # circuit's own gates on every run would give
    ops = ([Gate(GateKind.H, (q,)) for q in range(5)]
           + [Gate(GateKind.X, (0,)), Gate(GateKind.X, (3,)),
              Gate(GateKind.H, (3,)), Gate(GateKind.S, (4,)),
              Gate(GateKind.T, (1,)), Gate(GateKind.MCZ, tuple(range(5)))]
           + [Gate(GateKind.H, (q,)) for q in range(5)])
    plan, angled = simulate._plan(5, tuple((g.kind, g.qubits) for g in ops))
    blocks = [block for step, args in plan
              if step is simulate._apply_layer for block in args[0]]
    assert len(blocks) == 4  # qubits 0-2 and 3-4, before and after
    assert angled == ()  # nothing to build for each op list
    # T and S make the first two complex, the H layer's are real
    assert [block[0] for block in blocks] == [False, False, True, True]
    for real, shape, matrix, runs in blocks:
        assert matrix is not None and not matrix.flags.writeable
        q0 = ops[runs[-1][0]].qubits[0]  # runs are highest qubit first
        form = simulate._block_form(
            q0, simulate._block_matrix(ops, runs, None))
        assert (real, shape) == form[:2]
        assert matrix.dtype == form[2].dtype
        assert matrix.tobytes() == form[2].tobytes()


def test_a_plan_is_layers_runs_and_kernels(no_plans):
    ops = [Gate(GateKind.Z, (0,)), Gate(GateKind.X, (1,)),
           Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.RY, (2,), 0.3),
           Gate(GateKind.RZ, (2,), -1.2), Gate(GateKind.PHASE, (0,), 0.5),
           Gate(GateKind.CPHASE, (1, 2), 0.9)]
    plan, angled = simulate._plan(3, tuple((g.kind, g.qubits) for g in ops))
    # the CNOT flushes the layer of Z and X as one block, qubit 1 first;
    # the PHASE on its qubit releases it as a signed permutation; the
    # CPHASE flushes PHASE and the fused RY-RZ run as two lone blocks and
    # keeps its kernel
    assert [step for step, _ in plan] == [
        simulate._apply_layer, simulate._signed_gather,
        simulate._apply_layer, simulate._apply_gate]
    layer, wide = plan[0][1]
    assert not wide  # so each block is one matmul on the whole state
    # Z and X take no angle, so the plan holds their block: real, so on
    # the float64 view, where its 8 numbers fold into one row
    assert [(real, shape, runs) for real, shape, _, runs in layer] == \
        [(True, (-1, 8), ((1,), (0,)))]
    assert np.array_equal(layer[0][2],
                          np.kron(np.kron(X2, Z2), np.eye(2)).T)
    layer, wide = plan[2][1]
    # angled blocks are complex, on the (high, 2**k, low) view
    assert [(real, shape, runs) for real, shape, _, runs in layer] == \
        [(False, (4, 2, 1), ((5,),)), (False, (1, 2, 4), ((3, 4),))]
    # and built for each op list, in the step ``angled`` names
    assert [matrix for _, _, matrix, _ in layer] == [None, None]
    assert angled == (2,)
    step, (bound, wide) = simulate._bound(ops, *plan[2][1])
    assert step is simulate._apply_layer and not wide
    for (_, _, matrix, runs), want in zip(bound, (
            gate_matrix(ops[5]), gate_matrix(ops[4]) @ gate_matrix(ops[3]))):
        assert matrix.dtype == complex
        assert np.allclose(matrix, want, rtol=0, atol=ATOL)
    assert plan[3][1] == (simulate._phase_block, 3, 6)
    moved, sources, negated = plan[1][1]
    assert list(moved) == [1, 3, 5, 7] and list(sources) == [3, 1, 7, 5]
    assert negated.size == 0
    amps = _random_state(np.random.default_rng(4), 3)
    got = run(GateCircuit(3, ops), initial=StateVector(3, amps))
    assert np.allclose(got.state.amplitudes, _reference_run(ops, 3, amps),
                       rtol=0, atol=ATOL)


def test_a_wide_plan_is_groups_runs_and_kernels(no_plans):
    width = simulate.WIDE_WIDTH
    ops = [Gate(GateKind.Z, (0,)), Gate(GateKind.X, (1,)),
           Gate(GateKind.H, (5,)), Gate(GateKind.S, (7,)),
           Gate(GateKind.RZ, (9,), 0.4), Gate(GateKind.CNOT, (0, 1)),
           Gate(GateKind.CZ, (1, 2)), Gate(GateKind.RY, (2,), 0.3),
           Gate(GateKind.CPHASE, (2, 3), 0.9)]
    plan, angled = simulate._plan(width,
                                  tuple((g.kind, g.qubits) for g in ops))
    # the CNOT flushes the layer as one step with a block per stretch of
    # qubits: Z and X as one real block, a lone H as a block of its own,
    # and a lone S with its phase kernel ahead of it; the RY releases the
    # held run, composed as a narrow plan's is, and the CPHASE flushes the
    # RY and keeps its kernel
    assert [step for step, _ in plan] == [
        simulate._apply_gate, simulate._apply_layer,
        simulate._signed_gather, simulate._apply_layer,
        simulate._apply_gate]
    layers = [args for step, args in plan if step is simulate._apply_layer]
    assert [wide for _, wide in layers] == [True, True]
    assert [[runs for *_, runs in blocks] for blocks, _ in layers] == \
        [[((1,), (0,)), ((2,),), ((4,),)], [((7,),)]]
    # unangled blocks are formed with the plan, real on the float64 view,
    # Z and X folded into rows of 8; angled ones are built per op list
    blocks = layers[0][0] + layers[1][0]
    assert [(real, shape) for real, shape, _, _ in blocks] == [
        (True, (-1, 8)), (True, (-1, 2, 64)), (False, (1, 2, 512)),
        (False, (128, 2, 4))]
    assert np.array_equal(blocks[0][2], np.kron(np.kron(X2, Z2),
                                                 np.eye(2)).T)
    assert np.array_equal(blocks[1][2], gate_matrix(ops[2]))
    assert not blocks[0][2].flags.writeable
    assert [matrix for _, _, matrix, _ in blocks[2:]] == [None, None]
    assert angled == (1, 3)
    # from WIDE_WIDTH on an angled block is bound in its form: the RZ's
    # complex, the RY's real and folded
    for i, want in ((1, [(False, (-1, 2, 512))]), (3, [(True, (-1, 16))])):
        step, (bound, wide) = simulate._bound(ops, *plan[i][1])
        assert step is simulate._apply_layer and wide
        assert [(real, shape) for real, shape, _, _ in bound][-1:] == want
    assert np.allclose(bound[0][2], np.kron(gate_matrix(ops[7]).T,
                                            np.eye(8)), rtol=0, atol=ATOL)
    assert plan[0][1] == (simulate._phase_block, width, 3)
    assert [part.tobytes() for part in plan[2][1]] == [
        part.tobytes() for part in signed_permutation_ref(
            width, ((GateKind.CNOT, (0, 1)), (GateKind.CZ, (1, 2))))]
    assert plan[4][1] == (simulate._phase_block, width, 8)
    amps = _random_state(np.random.default_rng(6), width)
    got = run(GateCircuit(width, ops), initial=StateVector(width, amps))
    assert np.allclose(got.state.amplitudes,
                       _reference_run(ops, width, amps), rtol=0, atol=ATOL)


@pytest.mark.parametrize("width", [4, simulate.WIDE_WIDTH])
def test_a_replay_sees_the_edits_of_its_op_list(width):
    # ``GateCircuit.ops`` is a public list: each edit after a run makes
    # the next run of the same circuit a new op list, at the same
    # structure or not; the very same gates at another width are a new
    # op list too
    rng = np.random.default_rng(width)
    ops = ([Gate(GateKind.RY, (q,), float(rng.uniform(-3, 3)))
            for q in range(width)]
           + [Gate(GateKind.RZ, (q,), float(rng.uniform(-3, 3)))
              for q in range(0, width, 2)]
           + [Gate(GateKind.CNOT, (q, q + 1)) for q in range(width - 1)]
           + [Gate(GateKind.RX, (q,), float(rng.uniform(-3, 3)))
              for q in range(width)])
    circuit = GateCircuit(width, ops)
    amps = _random_state(rng, width)
    edits = [
        lambda ops: ops.__setitem__(1, Gate(GateKind.RY, (1,), 0.25)),
        lambda ops: ops.__setitem__(-1, Gate(GateKind.H, (width - 1,))),
        lambda ops: ops.append(Gate(GateKind.RZ, (2,), -0.7)),
    ]
    for edit in [None, *edits]:
        if edit is not None:  # after a run of the unedited circuit
            edit(circuit.ops)
        got = run(circuit, initial=StateVector(width, amps))
        assert np.allclose(got.state.amplitudes,
                           _reference_run(circuit.ops, width, amps),
                           rtol=0, atol=ATOL)
    wider = _random_state(rng, width + 1)
    got = run(GateCircuit(width + 1, circuit.ops),
              initial=StateVector(width + 1, wider))
    assert np.allclose(got.state.amplitudes,
                       _reference_run(circuit.ops, width + 1, wider),
                       rtol=0, atol=ATOL)


def test_unitary_run_draws_nothing_from_a_given_generator():
    gen = np.random.default_rng(21)
    state = gen.bit_generator.state
    run(GateCircuit(3, [Gate(GateKind.H, (q,)) for q in range(3)]),
        seed=gen)
    assert gen.bit_generator.state == state


# grouped flushes of pending one-qubit runs at wide widths

WIDE = simulate.WIDE_WIDTH
GROUP = simulate.GROUP_QUBITS


def _kron_ref(mats):
    """Kronecker product with the first matrix on the lowest qubit."""
    out = np.eye(1)
    for m in mats:
        out = np.kron(m, out)
    return out


@st.composite
def groups_on_states(draw):
    """Complex 2x2s, or real ones, on a stretch of qubits."""
    width = draw(st.integers(1, 10))
    size = draw(st.integers(1, min(width, GROUP + 1)))
    q0 = draw(st.integers(0, width - size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = [_random_unitary(rng, 2) for _ in range(size)]
    if draw(st.booleans()):
        mats = [np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in mats]
    return width, q0, mats, _random_state(rng, width)


@settings(deadline=None)
@given(groups_on_states(), st.booleans())
def test_group_kernel_matches_the_kronecker_reference(case, wide):
    width, q0, mats, amps = case
    got = amps.copy()
    # runs of one gate each, highest qubit first, with the entries
    # ``_block_matrix`` reads; a real block stays real
    ops = [SimpleNamespace(entries=tuple(m.reshape(-1).tolist()))
           for m in mats]
    runs = tuple((j,) for j in reversed(range(len(mats))))
    block = simulate._block_matrix(ops, runs, None)
    assert (block.dtype.kind == "c") == any(m.dtype.kind == "c"
                                            for m in mats)
    # the block's record, applied whole or half the view at a time
    simulate._apply_layer(got, ops, ((*simulate._block_form(q0, block),
                                      runs),), wide)
    want = apply_ref(amps, width, _kron_ref(mats),
                     tuple(range(q0, q0 + len(mats))))
    assert np.allclose(got, want, rtol=0, atol=ATOL)


@given(st.sets(st.integers(0, 15)))
def test_groups_split_each_stretch_evenly(qubits):
    qubits = sorted(qubits)
    groups = list(simulate._groups(qubits))
    assert [q for g in groups for q in g] == qubits
    assert all(g == list(range(g[0], g[0] + len(g))) for g in groups)
    stretches = []
    for q in qubits:
        if stretches and stretches[-1][-1] == q - 1:
            stretches[-1].append(q)
        else:
            stretches.append([q])
    for stretch in stretches:
        sizes = [len(g) for g in groups if g[0] in stretch]
        assert sum(sizes) == len(stretch)
        assert len(sizes) == -(-len(stretch) // GROUP)
        assert max(sizes) <= GROUP and max(sizes) - min(sizes) <= 1


def _layer(qubits, rng):
    """A lone X, a lone Z or a fused RY-RZ run on each listed qubit."""
    ops = []
    for q in qubits:
        pick = rng.integers(3)
        if pick == 0:
            ops.append(Gate(GateKind.X, (q,)))
        elif pick == 1:
            ops.append(Gate(GateKind.Z, (q,)))
        else:
            ops += [Gate(GateKind.RY, (q,), float(rng.uniform(-3, 3))),
                    Gate(GateKind.RZ, (q,), float(rng.uniform(-3, 3)))]
    return ops


_WIDE_CASES = {
    # every qubit pending when the CNOT forces the flush
    "full_layer": (range(WIDE), [Gate(GateKind.CNOT, (WIDE - 1, 0))]),
    # stretches 0-4, 6 and 8-9: two groups, a singleton and a pair
    "gapped_layer": ([0, 1, 2, 3, 4, 6, 8, 9],
                     [Gate(GateKind.TOFFOLI, (9, 6, 5))]),
    **{f"{kind.value}_block_swap": (range(WIDE), [Gate(kind, qubits)])
       for kind, qubits in ((GateKind.X, (7,)),
                            (GateKind.CNOT, (3, 8)),
                            (GateKind.TOFFOLI, (0, 9, 4)),
                            (GateKind.SWAP, (2, 6)))},
}


@pytest.mark.parametrize("name", list(_WIDE_CASES))
def test_wide_runs_match_gate_by_gate_reference(name):
    layer, tail = _WIDE_CASES[name]
    rng = np.random.default_rng(len(name))
    ops = _layer(layer, rng) + tail + _layer(range(0, WIDE, 3), rng)
    amps = _random_state(rng, WIDE)
    got = run(GateCircuit(WIDE, ops), initial=StateVector(WIDE, amps))
    assert np.allclose(got.state.amplitudes, _reference_run(ops, WIDE, amps),
                       rtol=0, atol=ATOL)


def test_wide_measure_flushes_every_pending_run():
    rng = np.random.default_rng(8)
    amps = _random_state(rng, WIDE)
    before = _layer(range(WIDE), rng)
    after = [Gate(GateKind.H, (2,)), Gate(GateKind.CNOT, (2, 5))]
    circ = GateCircuit(WIDE, allow_mid_measure=True)
    circ.extend(before + [Gate(GateKind.MEASURE, (2,), cbit=0)] + after)
    ones = ((np.arange(2 ** WIDE) >> 2) & 1).astype(bool)
    for seed in range(4):
        result = run(circ, initial=StateVector(WIDE, amps), seed=seed)
        want = _reference_run(before, WIDE, amps)
        p_one = float(np.sum(np.abs(want[ones]) ** 2))
        outcome = int(np.random.default_rng(seed).random() < p_one)
        want[ones != bool(outcome)] = 0.0
        want = _reference_run(after, WIDE, want / np.linalg.norm(want))
        assert result.bits == (outcome,)
        assert np.allclose(result.state.amplitudes, want, rtol=0, atol=ATOL)


def test_wide_layers_are_applied_as_grouped_blocks():
    width = simulate.SIM_WIDTH_CAP
    ops = [Gate(GateKind.H, (q,)) for q in range(9)]
    ops += [Gate(GateKind.X, (q,)) for q in range(9)]
    # touches one layer qubit, yet the whole layer is flushed with it
    ops.append(Gate(GateKind.TOFFOLI, (9, 10, 4)))
    amps = _random_state(np.random.default_rng(5), width)
    got = run(GateCircuit(width, ops), initial=StateVector(width, amps))
    _, _, steps = simulate._last_run  # the steps just run
    # the layer is one step, then the Toffoli, a wide held run of one
    # gate, which keeps its kernel
    assert [step for step, _ in steps] == [simulate._apply_layer,
                                           simulate._apply_gate]
    assert steps[1][1] == (simulate._block_swap, width, len(ops) - 1)
    blocks, wide = steps[0][1]
    assert wide
    # three blocks of three qubits, each qubit's H-X run in one of them,
    # none alone
    assert len(blocks) == -(-9 // GROUP) == 3
    assert sorted(ops[run_[0]].qubits[0] for *_, runs in blocks
                  for run_ in runs) == list(range(9))
    assert all(len(runs) == 3 for *_, runs in blocks)
    # one circuit per gate: every gate takes its own kernel
    want = StateVector(width, amps)
    for gate in ops:
        want = run(GateCircuit(width, [gate]), initial=want).state
    assert np.allclose(got.state.amplitudes, want.amplitudes, rtol=0,
                       atol=ATOL)


# real blocks through the float64 view of the state

REAL_KINDS = [GateKind.H, GateKind.X, GateKind.Z, GateKind.RY]
COMPLEX_KINDS = [GateKind.RZ, GateKind.S, GateKind.T, GateKind.RX]


@st.composite
def real_and_complex_layers(draw, widths=st.integers(WIDE, 12)):
    """One or two layers of one-qubit runs at ``widths``, each flushed by
    a CNOT from one of its qubits (at width 1, by the end). A layer's
    runs are drawn from the real kinds (H, X, Z, RY), the complex ones
    (RZ, S, T, RX), both, or X alone (whose entries are ints), on a
    stretch of 1-8 qubits anywhere in the register, so blocks come out
    real, int, complex or mixed and are folded or not, and lone runs come
    out real or complex."""
    width = draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    angles = st.floats(-2 * math.pi, 2 * math.pi)
    ops = []
    for _ in range(draw(st.integers(1, 2))):
        q0 = draw(st.integers(0, width - 1))
        size = draw(st.integers(1, min(width - q0, 2 * GROUP)))
        pool = draw(st.sampled_from([REAL_KINDS, COMPLEX_KINDS,
                                     REAL_KINDS + COMPLEX_KINDS,
                                     [GateKind.X]]))
        for q in range(q0, q0 + size):
            for kind in draw(st.lists(st.sampled_from(pool), min_size=1,
                                      max_size=2)):
                theta = draw(angles) if kind in PARAMETRIC_KINDS else None
                ops.append(Gate(kind, (q,), theta=theta))
        if width == 1:
            continue
        control = draw(st.integers(q0, q0 + size - 1))
        target = draw(st.sampled_from(
            [q for q in range(width) if q != control]))
        ops.append(Gate(GateKind.CNOT, (control, target)))
    return ops, width, _random_state(rng, width)


@settings(deadline=None, max_examples=25)
@given(real_and_complex_layers())
def test_real_and_complex_layers_match_gate_by_gate_reference(case):
    ops, width, amps = case
    got = run(GateCircuit(width, ops), initial=StateVector(width, amps))
    assert np.allclose(got.state.amplitudes, _reference_run(ops, width, amps),
                       rtol=0, atol=ATOL)


@settings(deadline=None, max_examples=60)
@given(real_and_complex_layers(st.integers(1, WIDE - 1)))
def test_narrow_real_and_complex_layers_match_gate_by_gate_reference(case):
    # below WIDE_WIDTH every layer is one step of blocks of at most
    # GROUP_QUBITS, each a matmul on the whole state, real ones on the
    # float64 view and folded when short
    ops, width, amps = case
    got = run(GateCircuit(width, ops), initial=StateVector(width, amps))
    assert np.allclose(got.state.amplitudes, _reference_run(ops, width, amps),
                       rtol=0, atol=ATOL)


@st.composite
def block_runs(draw):
    """Runs of 1-3 one-qubit gates on k = 1..GROUP qubits, highest qubit
    first, drawn from the real kinds, the complex ones, both, or X alone
    (whose entries are ints)."""
    pool = draw(st.sampled_from([REAL_KINDS, COMPLEX_KINDS,
                                 REAL_KINDS + COMPLEX_KINDS, [GateKind.X]]))
    angles = st.floats(-2 * math.pi, 2 * math.pi)
    ops, runs = [], []
    for q in reversed(range(draw(st.integers(1, GROUP)))):
        positions = []
        for kind in draw(st.lists(st.sampled_from(pool), min_size=1,
                                  max_size=3)):
            theta = draw(angles) if kind in PARAMETRIC_KINDS else None
            positions.append(len(ops))
            ops.append(Gate(kind, (q,), theta=theta))
        runs.append(tuple(positions))
    return ops, tuple(runs)


@settings(deadline=None)
@given(block_runs(), st.sampled_from([complex, None]))
def test_block_matrix_is_the_kronecker_product_of_the_run_products(
        case, dtype):
    # the old fold of np.kron over the same run products, as exactly
    ops, runs = case
    products = [reduce(lambda acc, pos: simulate._product(ops[pos].entries,
                                                          acc),
                       positions[1:], ops[positions[0]].entries)
                for positions in runs]
    want = reduce(np.kron, np.array(products, dtype=dtype).reshape(-1, 2, 2))
    got = simulate._block_matrix(ops, runs, dtype)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if dtype is None:
        # an X-only block stays int, a real one float
        entries = [e for product in products for e in product]
        kind = ("c" if any(isinstance(e, complex) for e in entries)
                else "f" if any(isinstance(e, float) for e in entries)
                else "i")
        assert got.dtype.kind == kind


def _run_of(kind, q, rng):
    """A run on qubit q: real, complex, or X alone (an int 2x2). The real
    run is a rotation, so its 2x2 is not symmetric and a transposed block
    shows."""
    theta = float(rng.uniform(-3, 3))
    if kind == "x":
        return [Gate(GateKind.X, (q,))]
    if kind == "real":
        return [Gate(GateKind.H, (q,)), Gate(GateKind.Z, (q,)),
                Gate(GateKind.RY, (q,), theta)]
    return [Gate(GateKind.H, (q,)), Gate(GateKind.RZ, (q,), theta)]


@pytest.mark.parametrize("k", range(1, GROUP + 1))
@pytest.mark.parametrize("q0", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("layer", ["real", "complex", "mixed", "x"])
def test_groups_on_both_sides_of_the_fold(layer, q0, k):
    # a real block folds while (2 << q0) * 2**k <= _FOLD_SPAN float64s,
    # a wide complex one while (1 << q0) * 2**k <= _FOLD_SPAN amplitudes
    _check_layer(WIDE, layer, q0, k)


@pytest.mark.parametrize("k", range(1, GROUP + 1))
@pytest.mark.parametrize("q0", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("layer", ["real", "complex", "mixed", "x"])
def test_narrow_blocks_on_both_sides_of_the_fold(layer, q0, k):
    # the same layers one qubit narrower, where an angled block never
    # folds and no block goes half the view at a time
    _check_layer(WIDE - 1, layer, q0, k)


def _check_layer(width, layer, q0, k):
    """A layer of ``_run_of`` runs on qubits q0..q0+k-1, the kinds
    alternating in a mixed one, against the gate-by-gate reference."""
    rng = np.random.default_rng(100 * q0 + k)
    ops = []
    for j, q in enumerate(range(q0, q0 + k)):
        kind = ("real", "complex")[j % 2] if layer == "mixed" else layer
        ops += _run_of(kind, q, rng)
    amps = _random_state(rng, width)
    got = run(GateCircuit(width, ops), initial=StateVector(width, amps))
    assert np.allclose(got.state.amplitudes,
                       _reference_run(ops, width, amps), rtol=0, atol=ATOL)


def _spy_dtypes(monkeypatch):
    """Record the dtype of each view a group update writes to, a lone
    run's too."""
    dtypes = []
    halves = simulate._halves
    monkeypatch.setattr(simulate, "_halves", lambda view, axis: (
        dtypes.append(view.dtype), halves(view, axis))[1])
    return dtypes


def test_grover_flushes_take_the_float_view(monkeypatch):
    circuit = decompose(parse_manifest(GROVER16).graph.flatten())
    unitary = GateCircuit(circuit.width, [
        g for g in circuit.ops if g.kind is not GateKind.MEASURE])
    dtypes = _spy_dtypes(monkeypatch)
    run(unitary)
    # three groups of three qubits per H or X layer, all real
    assert len(dtypes) >= 3 * 2 * 17 and set(dtypes) == {np.dtype(float)}


def test_narrow_grover_layers_take_the_float_view():
    # the circuit ``execute`` runs, with native MCZ gates, is 9 qubits
    # wide: its plan's layers are narrow, each block on the float64 view
    circuit = parse_manifest(GROVER16).graph.flatten()
    unitary = GateCircuit(circuit.width, [
        g for g in circuit.ops if g.kind is not GateKind.MEASURE])
    assert unitary.width < WIDE
    run(unitary)
    _, _, steps = simulate._last_run  # the steps just run
    layers = [args for step, args in steps
              if step is simulate._apply_layer]
    assert not any(wide for _, wide in layers)
    layers = [blocks for blocks, _ in layers]
    # three blocks of three qubits per layer, two layers per iteration
    assert len(layers) >= 2 * 17
    assert all(len(blocks) == 3 for blocks in layers)
    assert all(block[0] for blocks in layers for block in blocks)


def test_a_complex_group_keeps_the_complex_state(monkeypatch):
    dtypes = _spy_dtypes(monkeypatch)
    ops = [Gate(GateKind.RZ, (q,), 0.3 * q + 0.1) for q in range(GROUP)]
    ops += [Gate(GateKind.RZ, (GROUP + 1,), 0.2)]
    amps = _random_state(np.random.default_rng(12), WIDE)
    got = run(GateCircuit(WIDE, ops), initial=StateVector(WIDE, amps))
    assert dtypes and set(dtypes) == {np.dtype(complex)}
    assert np.allclose(got.state.amplitudes, _reference_run(ops, WIDE, amps),
                       rtol=0, atol=ATOL)


# held runs of CNOT, CZ, SWAP, Toffoli, MCZ and MCX gates

RUN_KINDS = [GateKind.CNOT, GateKind.CZ, GateKind.SWAP, GateKind.TOFFOLI,
             *MULTI_KINDS]


def test_run_kinds_come_from_the_kind_table():
    assert simulate._RUN_KINDS == frozenset(RUN_KINDS)


@st.composite
def held_run_circuits(draw):
    """6 to 16 gates: CNOT, CZ, SWAP, Toffoli, MCZ and MCX gates (the
    last two on 2 to 6 qubits), one-qubit gates
    (half of them on a qubit of the preceding run gates), CPHASE,
    CONTROLLED_U and mid-circuit measurements, at widths on both sides of
    WIDE_WIDTH, where runs are held."""
    width = draw(st.one_of(st.integers(1, WIDE - 1), st.integers(WIDE, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    angles = st.floats(-2 * math.pi, 2 * math.pi)
    choices = ["one"] * 3 + ["measure"]
    if width > 1:
        choices += ["run"] * 6 + ["cphase", "controlled_u"]
    run_kinds = [k for k in RUN_KINDS if _least_arity(k) <= width]
    # three in four gates act only on three qubits, so that they overlap
    hot = draw(st.permutations(range(width)))[:3]

    def pick(arity):
        pool = hot if arity <= len(hot) and draw(st.integers(0, 3)) \
            else range(width)
        return tuple(draw(st.permutations(pool))[:arity])

    circuit = GateCircuit(width, allow_mid_measure=True)
    recent = []  # qubits of the run gates since the last other gate
    for choice in draw(st.lists(st.sampled_from(choices), min_size=6,
                                max_size=16)):
        if choice == "run":
            kind = draw(st.sampled_from(run_kinds))
            qubits = pick(_draw_arity(draw, kind, width))
            circuit.append(Gate(kind, qubits))
            recent += qubits
            continue
        if choice == "one":
            on_run = recent and draw(st.booleans())
            (q,) = (draw(st.sampled_from(recent)),) if on_run else pick(1)
            kind = draw(st.sampled_from(ONE_QUBIT_KINDS))
            theta = draw(angles) if kind in PARAMETRIC_KINDS else None
            circuit.append(Gate(kind, (q,), theta=theta))
            continue
        recent = []
        pair = pick(2)
        if choice == "measure":
            circuit.append(Gate(GateKind.MEASURE, pick(1),
                                cbit=circuit.classical_bits))
        elif choice == "cphase":
            circuit.append(Gate(GateKind.CPHASE, pair, theta=draw(angles)))
        else:
            circuit.append(Gate(GateKind.CONTROLLED_U, pair,
                                matrix=_random_unitary(rng, 2),
                                power=draw(st.integers(1, 3))))
    return circuit, _random_state(rng, width), draw(st.integers(0, 2 ** 16))


def _reference_with_measurements(circuit, amps, bits, seed):
    """Gate by gate through ``apply_ref``; each measurement collapses onto
    the reported bit, which must be the one the seeded draw picks."""
    rng = np.random.default_rng(seed)
    labels = np.arange(amps.size)
    for gate in circuit.ops:
        if gate.kind is not GateKind.MEASURE:
            amps = apply_ref(amps, circuit.width, gate_matrix(gate),
                             gate.qubits)
            continue
        ones = ((labels >> gate.qubits[0]) & 1).astype(bool)
        p_one = float(np.sum(np.abs(amps[ones]) ** 2))
        draw, outcome = rng.random(), bits[gate.cbit]
        if abs(draw - p_one) > 1e-9:
            assert outcome == int(draw < p_one)
        amps = np.where(ones == bool(outcome), amps, 0.0)
        amps = amps / np.linalg.norm(amps)
    return amps


@settings(deadline=None, max_examples=60)
@given(held_run_circuits())
def test_held_runs_match_gate_by_gate_reference(case):
    circuit, amps, seed = case
    # the first pass builds the plan, composing its runs, the second and
    # third replay it
    simulate._plan.cache_clear()
    results = [run(circuit, initial=StateVector(circuit.width, amps),
                   seed=seed) for _ in range(3)]
    want = _reference_with_measurements(circuit, amps, results[0].bits,
                                        seed)
    for result in results:
        assert result.bits == results[0].bits
        assert np.allclose(result.state.amplitudes, want, rtol=0, atol=ATOL)


def test_a_run_waits_for_a_later_gate_on_its_qubits(monkeypatch, no_plans):
    width = simulate.WIDE_WIDTH
    ops = [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.H, (2,)),
           Gate(GateKind.CZ, (1, 3)), Gate(GateKind.TOFFOLI, (3, 0, 1)),
           Gate(GateKind.RY, (1,), 0.7),  # applies the held run first
           Gate(GateKind.SWAP, (2, 0)), Gate(GateKind.CNOT, (1, 2))]
    amps = _random_state(np.random.default_rng(9), width)
    want = _reference_run(ops, width, amps)
    # gate by gate, with no bytes to compose in, then as the composed runs
    for room in (0, simulate.RUN_BYTES):
        monkeypatch.setattr(simulate, "RUN_BYTES", room)
        simulate._plan.cache_clear()
        got = run(GateCircuit(width, ops), initial=StateVector(width, amps))
        assert np.allclose(got.state.amplitudes, want, rtol=0, atol=ATOL)


# compiled plans at every width


@st.composite
def circuit_structures(draw, width):
    """((kind, qubits), ...) at ``width``: layers of one or two one-qubit
    gates on each qubit of a stretch of up to five, lone one-qubit gates
    of every kind, runs of one to four CNOT, CZ, SWAP, Toffoli, MCZ and
    MCX gates (the last two on 2 to 6 qubits), CPHASE, CONTROLLED_U on
    one or two targets, and measurements."""
    choices = ["layer", "one", "measure"]
    if width > 1:
        choices += ["run", "run", "cphase", "controlled_u"]
    run_kinds = [k for k in RUN_KINDS if _least_arity(k) <= width]

    def qubits(arity):
        return tuple(draw(st.permutations(range(width)))[:arity])

    structure = []
    for choice in draw(st.lists(st.sampled_from(choices), min_size=3,
                                max_size=6)):
        if choice == "layer":
            q0 = draw(st.integers(0, width - 1))
            for q in range(q0, draw(st.integers(q0 + 1, min(width, q0 + 5)))):
                structure += [(kind, (q,)) for kind in draw(st.lists(
                    st.sampled_from(ONE_QUBIT_KINDS), min_size=1,
                    max_size=2))]
        elif choice == "one":
            structure.append((draw(st.sampled_from(ONE_QUBIT_KINDS)),
                              qubits(1)))
        elif choice == "run":
            for _ in range(draw(st.integers(1, 4))):
                kind = draw(st.sampled_from(run_kinds))
                structure.append((kind,
                                  qubits(_draw_arity(draw, kind, width))))
        elif choice == "measure":
            structure.append((GateKind.MEASURE, qubits(1)))
        elif choice == "cphase":
            structure.append((GateKind.CPHASE, qubits(2)))
        else:
            structure.append((GateKind.CONTROLLED_U,
                              qubits(draw(st.integers(2, min(3, width))))))
    return tuple(structure)


def _circuit_of(width, structure, rng):
    """A circuit of ``structure`` with random angles, matrices and
    powers."""
    circuit = GateCircuit(width, allow_mid_measure=True)
    for kind, qubits in structure:
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi)) \
            if kind in PARAMETRIC_KINDS else None
        matrix = _random_unitary(rng, 2 ** (len(qubits) - 1)) \
            if kind is GateKind.CONTROLLED_U else None
        cbit = circuit.classical_bits if kind is GateKind.MEASURE else None
        circuit.append(Gate(kind, qubits, theta, matrix,
                            int(rng.integers(1, 4)), cbit))
    return circuit


@pytest.mark.parametrize("width", range(1, 13))
@settings(deadline=None, max_examples=6)
@given(data=st.data())
def test_plans_match_gate_by_gate_reference_with_any_angles(width, data):
    structure = data.draw(circuit_structures(width))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    amps = _random_state(rng, width)
    # a plan is compiled at the first run and reused by the second, which
    # has new angles, matrices and powers
    for attempt in range(2):
        circuit = _circuit_of(width, structure, rng)
        hits = simulate._plan.cache_info().hits
        got = run(circuit, initial=StateVector(width, amps), seed=seed)
        want = _reference_with_measurements(circuit, amps, got.bits, seed)
        assert np.allclose(got.state.amplitudes, want, rtol=0, atol=1e-10)
        if attempt:
            assert simulate._plan.cache_info().hits == hits + 1


# a run from a basis state builds its plan's leading layer as a product

DIAGONAL_KINDS = [k for k in ONE_QUBIT_KINDS
                  if KINDS[k].structure == "diagonal"]


@st.composite
def basis_start_circuits(draw, width, real):
    """A circuit at ``width`` and a basis label. The circuit opens with a
    layer, a held run or a measurement. The opening layer leaves some
    qubits without a gate, so its groups have gaps, and gives each other
    qubit a run of one to three one-qubit gates (angled and unangled) or
    a lone diagonal gate. A CNOT or CZ and a few one-qubit gates follow;
    in some circuits of three or more qubits the CNOT or CZ flushes the
    layer, a one-qubit gate lands on a qubit outside it, and a second
    CNOT or CZ on that qubit flushes it again right after, with the run
    still held. ``real`` draws only gates with real entries (H, X, Z and
    RY)."""
    kinds = REAL_KINDS if real else ONE_QUBIT_KINDS
    diagonal = [GateKind.Z] if real else DIAGONAL_KINDS
    angles = st.floats(-2 * math.pi, 2 * math.pi)

    def gate(kind, q):
        return Gate(kind, (q,), draw(angles)
                    if kind in PARAMETRIC_KINDS else None)

    def pair():
        return tuple(draw(st.permutations(range(width)))[:2])

    circuit = GateCircuit(width, allow_mid_measure=True)
    # half the circuits open with their layer
    opener = draw(st.sampled_from(["layer", "layer", "run", "measure"]
                                  if width > 1 else ["layer", "measure"]))
    if opener == "run":
        circuit.append(Gate(draw(st.sampled_from(
            [GateKind.CNOT, GateKind.CZ])), pair()))
    elif opener == "measure":
        circuit.append(Gate(GateKind.MEASURE, (draw(st.integers(
            0, width - 1)),), cbit=0))
    for q in range(width):
        shape = draw(st.sampled_from(["run", "diagonal", "gap"]))
        if shape == "run":
            circuit.extend([gate(kind, q) for kind in draw(st.lists(
                st.sampled_from(kinds), min_size=1, max_size=3))])
        elif shape == "diagonal":
            circuit.append(gate(draw(st.sampled_from(diagonal)), q))
    if width > 1:
        held = pair()
        circuit.append(Gate(draw(st.sampled_from(
            [GateKind.CNOT, GateKind.CZ])), held))
        if width > 2 and draw(st.booleans()):
            q = draw(st.sampled_from(
                [q for q in range(width) if q not in held]))
            circuit.append(gate(draw(st.sampled_from(kinds)), q))
            other = draw(st.sampled_from([p for p in range(width) if p != q]))
            circuit.append(Gate(draw(st.sampled_from(
                [GateKind.CNOT, GateKind.CZ])), (q, other)))
    for q in draw(st.lists(st.integers(0, width - 1), max_size=3)):
        circuit.append(gate(draw(st.sampled_from(kinds)), q))
    return circuit, draw(st.integers(0, 2 ** width - 1))


def _check_basis_start(circuit, label, real, seed=3):
    """``run`` from basis states 0 (``initial`` None) and ``label`` against
    ``apply_ref`` gate by gate; with real gates, bit for bit against the
    dense updates of the same basis state passed in as a StateVector."""
    width = circuit.width
    for start, initial in ((0, None), (label, label)):
        got = run(circuit, initial=initial, seed=seed)
        basis = StateVector.basis(width, start)
        want = _reference_with_measurements(circuit, basis.amplitudes,
                                            got.bits, seed)
        assert np.allclose(got.state.amplitudes, want, rtol=0, atol=ATOL)
        if real:
            dense = run(circuit, initial=basis, seed=seed)
            assert dense.bits == got.bits
            assert np.array_equal(got.state.amplitudes,
                                  dense.state.amplitudes)


@pytest.mark.parametrize("width", range(1, 13))
@settings(deadline=None, max_examples=6)
@given(data=st.data())
def test_a_basis_start_matches_gate_by_gate_reference(width, data):
    real = data.draw(st.booleans())
    _check_basis_start(*data.draw(basis_start_circuits(width, real)), real)


@pytest.mark.parametrize("ops", [
    # the second flush takes qubit 3's group again, at the same lowest qubit
    [Gate(GateKind.H, (3,)), Gate(GateKind.H, (0,)),
     Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.RY, (3,), 0.7),
     Gate(GateKind.CNOT, (3, 4))],
    # the second flush takes qubit 2 out of a wider group of the first
    [Gate(GateKind.H, (q,)) for q in range(simulate.WIDE_WIDTH)]
    + [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.H, (2,)),
       Gate(GateKind.CNOT, (2, 3))],
], ids=["same_group", "inside_a_group"])
def test_a_basis_start_stops_at_a_group_flushed_again(ops):
    # a run gate that joins the held run flushes right after the layer the
    # run flushed, with no step between: the second flush's groups meet
    # the first's, so the leading layer ends before them
    _check_basis_start(GateCircuit(simulate.WIDE_WIDTH, ops), 0b10_0000_1001,
                       real=True)


def test_a_basis_start_at_the_width_cap():
    # phase estimation's shape: X on a work qubit, H on the counting
    # register above it; here with gaps (qubit 0 among them), RY runs and
    # a lone Z on a set bit, from a label that sets bits the layer does
    # not touch
    width = simulate.SIM_WIDTH_CAP
    ops = [Gate(GateKind.X, (1,)), Gate(GateKind.Z, (6,)),
           Gate(GateKind.RY, (9,), 0.4), Gate(GateKind.H, (9,))]
    ops += [Gate(GateKind.H, (q,)) for q in (4, 5, 7, 10, 11, 12, 14, 15)]
    ops += [Gate(GateKind.CNOT, (4, 2)), Gate(GateKind.RY, (2,), 1.1)]
    _check_basis_start(GateCircuit(width, ops),
                       0b0100_0001_0100_1101, real=True)


@st.composite
def native_circuits(draw):
    """3 to 10 gates on 2 to 8 qubits: MCZ and MCX on 2 up to every
    qubit, in any order, between one-qubit gates, CNOTs and CZs."""
    width = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = [*MULTI_KINDS, *MULTI_KINDS, GateKind.CNOT, GateKind.CZ,
             *ONE_QUBIT_KINDS]
    circuit = GateCircuit(width)
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=3,
                              max_size=10)):
        arity = 1 if kind in ONE_QUBIT_KINDS else (
            draw(st.integers(2, width)) if kind in MULTI_KINDS else 2)
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi)) \
            if kind in PARAMETRIC_KINDS else None
        circuit.append(Gate(kind, tuple(draw(st.permutations(
            range(width)))[:arity]), theta))
    return circuit, _random_state(rng, width)


@settings(deadline=None, max_examples=40)
@given(native_circuits())
def test_native_and_decomposed_circuits_agree_on_the_register(case):
    circuit, amps = case
    wide = decompose(circuit)
    assert not {GateKind.MCZ, GateKind.MCX} & {g.kind for g in wide.ops}
    assert wide.width == circuit.width + max(
        [g.arity - 2 for g in circuit.ops
         if g.kind in MULTI_KINDS and g.arity >= 4], default=0)
    native = run(circuit, initial=StateVector(circuit.width, amps))
    # the scratch qubits sit above the register and start at |0>
    padded = np.zeros(2 ** wide.width, dtype=complex)
    padded[:amps.size] = amps
    spelled = run(wide, initial=StateVector(wide.width, padded))
    got = spelled.state.amplitudes
    assert np.allclose(got[:amps.size], native.state.amplitudes, rtol=0,
                       atol=1e-10)
    assert np.abs(got[amps.size:]).max(initial=0.0) <= 1e-10


GROVER16 = """\
component sup = Superposition(n=9)
component search = GroverOperator(n=9, marked=[300], iterations=17)
component meas = Measurement(n=9)
wire sup.out -> search.in
wire search.out -> meas.in
"""


def test_the_grover_ladders_are_one_signed_permutation(monkeypatch,
                                                      no_plans):
    circuit = decompose(parse_manifest(GROVER16).graph.flatten())
    unitary = GateCircuit(circuit.width, [
        g for g in circuit.ops if g.kind is not GateKind.MEASURE])
    assert unitary.width == simulate.SIM_WIDTH_CAP
    swaps = []
    for kind, kernel in list(simulate._KERNELS.items()):
        if kernel is simulate._block_swap:
            monkeypatch.setitem(simulate._KERNELS, kind,
                                lambda a, n, g, k=kernel: (swaps.append(g),
                                                           k(a, n, g)))
    composed = _spy_compositions(monkeypatch)
    first = run(unitary).state.amplitudes
    # the 34 ladders are alike, each a held run of two gates or more: the
    # plan composes the run once, and no gate goes through its kernel
    assert swaps == [] and len(composed) == 1
    _, _, steps = simulate._last_run  # the steps just run
    gathers = [args for step, args in steps
               if step is simulate._signed_gather]
    assert len(gathers) == 34
    assert all(args is gathers[0] for args in gathers)
    second = run(GateCircuit(unitary.width, unitary.ops)).state.amplitudes
    assert swaps == [] and len(composed) == 1
    assert np.array_equal(first, second)
    # 7 Toffolis compute, a CZ phases and 7 uncompute: one sign flip on a
    # quarter of the labels, and no amplitude moves
    assert [kind for kind, _ in composed[0]] == \
        [GateKind.TOFFOLI] * 7 + [GateKind.CZ] + [GateKind.TOFFOLI] * 7
    moved, _, negated = gathers[0]
    assert moved.size == 0 and negated.size == 2 ** 16 // 4
    assert simulate._run_bytes == sum(part.nbytes for part in gathers[0])


def _spy_compositions(monkeypatch):
    composed = []
    compose = simulate._signed_permutation
    monkeypatch.setattr(simulate, "_signed_permutation", lambda n, run_: (
        composed.append(run_), compose(n, run_))[1])
    return composed


@st.composite
def held_runs(draw):
    """A width from 1 to 12 and a run of up to 8 gates of RUN_KINDS on
    it; none at width 1, where no run gate fits."""
    width = draw(st.integers(1, 12))
    kinds = [k for k in RUN_KINDS if _least_arity(k) <= width]
    run_ = []
    for _ in range(draw(st.integers(0, 8 if kinds else 0))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(width)))
        run_.append((kind, tuple(qubits[:_draw_arity(draw, kind, width)])))
    return width, tuple(run_)


@settings(deadline=None, max_examples=150)
@given(held_runs())
def test_kernel_composed_parts_equal_the_gather_reference(case):
    width, run_ = case
    got = simulate._signed_permutation(width, run_)
    want = signed_permutation_ref(width, run_)
    assert [(part.dtype, part.tobytes()) for part in got] == \
        [(part.dtype, part.tobytes()) for part in want]
    assert not any(part.flags.writeable for part in got)


def _ladder_ops(width):
    """Two alike held runs, a lone CZ and a longer run, each released by
    a one-qubit gate on its qubits."""
    ladder = [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.TOFFOLI, (0, 1, 2))]
    return (ladder + [Gate(GateKind.H, (1,))] + ladder
            + [Gate(GateKind.RY, (2,), 0.4), Gate(GateKind.CZ, (3, 4)),
               Gate(GateKind.RZ, (4,), 0.8)] + ladder
            + [Gate(GateKind.SWAP, (width - 1, 3))])


def test_identical_runs_in_a_plan_share_one_composition(monkeypatch):
    composed = _spy_compositions(monkeypatch)
    for width in (simulate.WIDE_WIDTH - 1, simulate.WIDE_WIDTH):
        _drop_plans()
        composed.clear()
        _check_shared_composition(width, composed)


def _check_shared_composition(width, composed):
    ops = _ladder_ops(width)
    amps = _random_state(np.random.default_rng(width), width)
    got = run(GateCircuit(width, ops), initial=StateVector(width, amps))
    ladder = ((GateKind.CNOT, (0, 1)), (GateKind.TOFFOLI, (0, 1, 2)))
    lone = ((GateKind.CZ, (3, 4)),)
    longer = ladder + ((GateKind.SWAP, (width - 1, 3)),)
    # the ladder is composed once for both its runs; from WIDE_WIDTH on
    # the lone CZ keeps its kernel
    wide = width >= simulate.WIDE_WIDTH
    assert composed == ([ladder, longer] if wide else [ladder, lone, longer])
    _, _, steps = simulate._last_run  # the steps just run
    gathers = [args for step, args in steps
               if step is simulate._signed_gather]
    assert gathers[0] is gathers[1] and len(gathers) == 4 - wide
    assert ((simulate._apply_gate, (simulate._phase_block, width, 6))
            in steps) == wide
    assert simulate._run_bytes == sum(part.nbytes for parts in gathers[1:]
                                      for part in parts)
    assert np.allclose(got.state.amplitudes, _reference_run(ops, width, amps),
                       rtol=0, atol=ATOL)


def test_a_full_budget_composes_no_more_runs(monkeypatch, no_plans):
    composed = _spy_compositions(monkeypatch)
    width = 6
    # room for the worst case of one run, three int64 labels per label
    worst = 3 * np.dtype(np.intp).itemsize << width
    monkeypatch.setattr(simulate, "RUN_BYTES", worst + 1)
    ops = _ladder_ops(width)
    amps = _random_state(np.random.default_rng(3), width)
    got = run(GateCircuit(width, ops), initial=StateVector(width, amps))
    # the ladder is composed and held; every later run goes gate by gate
    # through its kernels, the ladder's second copy still composed
    assert composed == [((GateKind.CNOT, (0, 1)),
                         (GateKind.TOFFOLI, (0, 1, 2)))]
    _, _, steps = simulate._last_run  # the steps just run
    kernels = [args for step, args in steps if step is simulate._apply_gate]
    assert kernels == [
        (simulate._phase_block, width, 6), (simulate._block_swap, width, 8),
        (simulate._block_swap, width, 9), (simulate._block_swap, width, 10)]
    assert [step for step, _ in steps].count(simulate._signed_gather) == 2
    assert 0 < simulate._run_bytes <= simulate.RUN_BYTES
    assert np.allclose(got.state.amplitudes, _reference_run(ops, width, amps),
                       rtol=0, atol=ATOL)


def test_composed_runs_stay_under_12_mib_at_width_16(monkeypatch, no_plans):
    composed = _spy_compositions(monkeypatch)
    width = simulate.SIM_WIDTH_CAP
    # chains moving every label but two, with phases, one per plan: each
    # plan composes its run while the bytes all plans hold allow
    chain = tuple((GateKind.CNOT, (q, q + 1)) for q in range(width - 1))
    plans = [simulate._plan(width, chain + (
        (GateKind.CZ, (extra, extra + 1)), (GateKind.TOFFOLI, (3, 9, 12))))[0]
        for extra in range(12)]
    kept = [args for steps in plans for step, args in steps
            if step is simulate._signed_gather]
    assert 8 <= len(kept) == len(composed) < len(plans)
    assert simulate._run_bytes == sum(part.nbytes for parts in kept
                                      for part in parts)
    assert simulate._run_bytes <= simulate.RUN_BYTES <= 12 * 2 ** 20
    for parts in kept:
        assert not any(part.flags.writeable for part in parts)
    # the plans past the bound go gate by gate, a kernel step each
    for steps in plans[len(kept):]:
        assert [step for step, _ in steps] == \
            [simulate._apply_gate] * (len(chain) + 2)


_LETTERS = {"X": X2, "Y": Y2, "Z": Z2}


def _pauli_terms(width):
    strings = st.text("IXYZ", min_size=width, max_size=width)
    coeffs = st.floats(-3.0, 3.0, allow_nan=False)
    return st.lists(st.tuples(coeffs, strings), min_size=1, max_size=5)


@st.composite
def observables_on_states(draw):
    width = draw(st.integers(1, MAX_WIDTH))
    terms = draw(_pauli_terms(width))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return PauliObservable(width, tuple(terms)), \
        StateVector(width, _random_state(rng, width))


def _per_letter_expectation(state, observable):
    """The complex sum of coeff * <state|P|state>, one letter at a time."""
    want = 0.0
    for coeff, string in observable.terms:
        vec = state.amplitudes
        for q, letter in enumerate(string):
            if letter != "I":
                vec = apply_ref(vec, state.width, _LETTERS[letter], (q,))
        want += coeff * np.vdot(state.amplitudes, vec)
    return want


@given(observables_on_states())
def test_bitmask_expectation_matches_per_letter_products(case):
    observable, state = case
    assert abs(expectation(state, observable)
               - _per_letter_expectation(state, observable)) <= ATOL


@given(observables_on_states(), st.data())
def test_expectation_is_real_and_linear_in_the_observable(case, data):
    a, state = case
    b = PauliObservable(a.width, tuple(data.draw(_pauli_terms(a.width))))
    x, y = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2,
                              max_size=2))
    mix = PauliObservable(a.width,
                          tuple((x * c, s) for c, s in a.terms)
                          + tuple((y * c, s) for c, s in b.terms))
    values = [expectation(state, o) for o in (a, b, mix)]
    assert all(type(value) is float for value in values)
    assert abs(_per_letter_expectation(state, mix).imag) <= ATOL * 100
    assert abs(values[2] - x * values[0] - y * values[1]) <= ATOL * 100


@given(observables_on_states(), st.integers(0, 2 ** 32 - 1))
def test_one_plan_serves_many_states(case, seed):
    observable, _ = case
    rng = np.random.default_rng(seed)
    for _ in range(4):
        state = StateVector(observable.width,
                            _random_state(rng, observable.width))
        assert abs(expectation(state, observable)
                   - _per_letter_expectation(state, observable)) <= ATOL
    assert observable._plan is observable._plan


def test_equal_terms_at_different_widths_get_their_own_plans():
    text = "Z0 - 0.5*X0 + 0.25"
    narrow, wide = PauliObservable.parse(text, 1), PauliObservable.parse(
        text, 4)
    rng = np.random.default_rng(8)
    for observable in (narrow, wide, narrow, wide):
        state = StateVector(observable.width,
                            _random_state(rng, observable.width))
        assert abs(expectation(state, observable)
                   - _per_letter_expectation(state, observable)) <= ATOL
    assert narrow._plan is not wide._plan


@pytest.mark.parametrize("text", [
    "Z0*Z2 - 0.7*Z1 + 1.5",    # diagonal terms only
    "Y0 - 0.3*Y1*Y2",          # Y only
    "0*X0*Y1 + Z0 + 0*Z2",     # zero coefficients
    "0*Z1",                    # nothing left after zeros
])
def test_expectation_of_special_observables(text):
    observable = PauliObservable.parse(text, 3)
    state = StateVector(3, _random_state(np.random.default_rng(6), 3))
    assert abs(expectation(state, observable)
               - _per_letter_expectation(state, observable)) <= ATOL


@settings(max_examples=40)
@given(st.integers(1, MAX_WIDTH), st.data())
def test_stacked_expectation_spans_chunks(width, data):
    # a budget of eight X/Y terms in chunks of two: an observable with
    # more such terms is stacked partly in the plan, partly per call
    strings = st.text("IXYZ", min_size=width, max_size=width)
    terms = data.draw(st.lists(st.tuples(st.floats(-3.0, 3.0), strings),
                               min_size=1, max_size=14))
    observable = PauliObservable(width, tuple(terms))
    budget = 8 * 2 ** width * (np.dtype(np.intp).itemsize + 16)
    with mock.patch.object(simulate, "PAULI_BYTES", budget):
        _, chunks = observable._plan
    flips = sum(coeff != 0.0 and set(string) & set("XY") != set()
                for coeff, string in observable.terms)
    # the summed diagonal, when there is one, is one more row, first
    diagonal = any(coeff != 0.0 and not set(string) & set("XY")
                   for coeff, string in observable.terms)
    rows = diagonal + flips
    assert [len(part) for part, _ in chunks] == \
        [2] * (rows // 2) + [1] * (rows % 2)
    if diagonal:
        assert chunks[0][0][0][1:] == (0, 0)
    assert [stacked is None for _, stacked in chunks] == \
        [j >= 4 for j in range(len(chunks))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    state = StateVector(width, _random_state(rng, width))
    assert abs(expectation(state, observable)
               - _per_letter_expectation(state, observable)) <= ATOL


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


@st.composite
def sparse_states(draw, widths=st.integers(2, MAX_WIDTH)):
    """States with zero-probability labels at both ends and inside."""
    width = draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = _random_state(rng, width)
    amps[:draw(st.integers(0, 2 ** width // 2))] = 0.0
    amps[2 ** width - draw(st.integers(0, 2 ** width // 2 - 1)):] = 0.0
    amps[rng.random(amps.size) < 0.3] = 0.0
    if not amps.any():
        amps[rng.integers(amps.size)] = 1.0
    return StateVector(width, amps / np.linalg.norm(amps))


@given(sparse_states(), st.integers(0, 2 ** 32 - 1), st.integers(1, 5000))
def test_sample_matches_the_bincount_reference(state, seed, shots):
    assert sample(state, shots, seed) == sample_ref(state, shots, seed)


@pytest.mark.parametrize("per_shot", [True, False])
@given(data=st.data())
def test_sample_matches_the_bincount_reference_with_few_or_many_shots(
        per_shot, data):
    # fewer shots than labels search once per shot, others once per label
    state = data.draw(sparse_states(st.integers(2, 12)))
    labels = 2 ** state.width
    shots = data.draw(st.integers(1, labels - 1) if per_shot
                      else st.integers(labels, 4 * labels))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    assert sample(state, shots, seed) == sample_ref(state, shots, seed)


@pytest.mark.parametrize("labels", [[0], [3], [1, 2], [0, 3]])
def test_sample_with_one_or_two_reachable_labels(labels):
    amps = np.zeros(4, dtype=complex)
    amps[labels] = 1.0
    state = StateVector(2, amps / np.linalg.norm(amps))
    counts = sample(state, 999, 5)
    assert counts == sample_ref(state, 999, 5)
    assert sum(counts.values()) == 999
    assert set(counts) <= {format_outcome(k, 2) for k in labels}


@given(st.integers(1, simulate.SIM_WIDTH_CAP), st.integers(0, 2 ** 32 - 1),
       st.floats(-1e-9, 1e-9), st.floats(-200.0, 200.0))
def test_the_constructor_divides_by_the_norm_through_its_reciprocal(
        width, seed, error, exponent):
    amps = _random_state(np.random.default_rng(seed), width)
    # numpy divides a complex by a real as a product with its reciprocal
    scale = 10.0 ** exponent
    assert np.array_equal((amps * scale) / scale,
                          (amps * scale) * (1 / scale))
    amps *= 1.0 + error
    assert np.array_equal(StateVector(width, amps).amplitudes,
                          amps / np.linalg.norm(amps))


def _cut_count(state, qubits):
    """Intervals the sampler cuts: runs of one readout among the labels
    of nonzero probability and the top one."""
    labels = np.flatnonzero(state.probabilities()).tolist()
    if labels[-1] != 2 ** state.width - 1:
        labels.append(2 ** state.width - 1)
    keys = [[label >> q & 1 for q in qubits] for label in labels]
    return 1 + sum(a != b for a, b in zip(keys, keys[1:]))


# shots for each branch from its number of cuts c: fewer than c search
# once per shot; from max(c, 2**(c - 1)) on, c <= shots.bit_length() and
# each cut counts its draws; in between the draws are sorted
BRANCH_SHOTS = {
    "per_shot": lambda c: st.integers(1, c - 1),
    "count": lambda c: st.integers(max(c, 2 ** (c - 1)), 2 ** c),
    "sort": lambda c: st.integers(c, min(2 ** (c - 1) - 1, 5000)),
}


@st.composite
def readout_cases(draw, branch):
    """(state, qubits, shots): a dense, sparse or few-label state (few
    labels always for the count branch, which needs few cuts), any
    subset of its qubits in any order, and shots in ``branch``."""
    width = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = _random_state(rng, width)
    kind = "few" if branch == "count" else \
        draw(st.sampled_from(["dense", "sparse", "few"]))
    if kind == "sparse":
        amps[rng.random(amps.size) < 0.6] = 0.0
    elif kind == "few":
        few = draw(st.integers(1, min(2 ** width, 10)))
        amps[rng.permutation(amps.size)[few:]] = 0.0
    if not amps.any():
        amps[rng.integers(amps.size)] = 1.0
    state = StateVector(width, amps / np.linalg.norm(amps))
    qubits = draw(st.permutations(range(width)))[
        :draw(st.integers(1, width))]
    cuts = _cut_count(state, qubits)
    assume(cuts >= {"per_shot": 2, "count": 1, "sort": 3}[branch])
    return state, qubits, draw(BRANCH_SHOTS[branch](cuts))


@pytest.mark.parametrize("branch", sorted(BRANCH_SHOTS))
@given(data=st.data())
def test_sample_reads_out_the_bits_of_the_full_labels(branch, data):
    state, qubits, shots = data.draw(readout_cases(branch))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    counts = sample(state, shots, seed, qubits=qubits)
    assert counts == readout_ref(sample_ref(state, shots, seed), qubits)
    assert list(counts) == sorted(counts)


@pytest.mark.parametrize("branch", sorted(BRANCH_SHOTS))
@given(data=st.data())
def test_sample_picks_its_branch_by_the_reachable_labels(branch, data):
    # the sampler cuts at the reachable labels and the top one, even
    # with fewer shots than labels: fewer shots than cuts search once per
    # shot, at most shots.bit_length() cuts count the draws below each
    # cut, and more sort the draws and search once per cut
    width = data.draw(st.integers(3, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    most = 8 if branch == "count" else max(3, 2 ** width // 4)
    reachable = data.draw(st.integers(2 + (branch == "sort"), most))
    amps = np.zeros(2 ** width, dtype=complex)
    amps[rng.choice(2 ** width, reachable, replace=False)] = \
        _random_state(rng, width)[:reachable]
    state = StateVector(width, amps / np.linalg.norm(amps))
    cuts = reachable + int(amps[-1] == 0)
    shots = data.draw(BRANCH_SHOTS[branch](cuts))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    want = sample_ref(state, shots, seed)
    with mock.patch.object(simulate.np, "searchsorted",
                           wraps=np.searchsorted) as search, \
            mock.patch.object(simulate.np, "count_nonzero",
                              wraps=np.count_nonzero) as count:
        assert sample(state, shots, seed) == want
    assert count.call_count == (cuts if branch == "count" else 0)
    if branch == "count":
        assert not search.called
    else:
        (_, needles), _ = search.call_args
        assert search.call_count == 1
        assert needles.size == (shots if branch == "per_shot" else cuts)


def test_sample_merges_readouts_only_when_the_cuts_do_not_ascend():
    # the readouts of a top register ascend with the labels, so no two
    # cuts share one and nothing is merged; a low register's readouts
    # repeat along the labels, so their cuts are merged: one bincount of
    # the hits by readout, no longer than the highest readout reached
    # (3000 shots over 64 cuts sort the draws, so no other bincount is
    # taken)
    rng = np.random.default_rng(11)
    state = StateVector(6, _random_state(rng, 6))
    for qubits, merged in (([5, 4, 3], False), ([5, 4, 3, 2, 1, 0], False),
                           ([1, 0], True), ([3, 5], True)):
        with _bincount_spy() as (bincount, sizes):
            counts = sample(state, 3000, 5, qubits=qubits)
        assert counts == readout_ref(sample_ref(state, 3000, 5), qubits)
        assert bincount.call_count == merged
        if merged:
            (readouts, hits), _ = bincount.call_args
            assert readouts.size == hits.size
            assert sizes == [readouts.max() + 1]


def test_sample_merges_a_register_longer_than_the_state_by_its_readouts():
    # a register that repeats qubits past the state's width reads out
    # values up to 2**len(qubits): its readouts are numbered by np.unique
    # first, so the bincount has at most one entry per label
    rng = np.random.default_rng(12)
    state = StateVector(3, _random_state(rng, 3))
    for qubits in ([0, 2, 0, 1], [0] * 20):
        with _bincount_spy() as (bincount, sizes):
            counts = sample(state, 3000, 5, qubits=qubits)
        assert counts == readout_ref(sample_ref(state, 3000, 5), qubits)
        assert bincount.call_count == 1 and sizes[0] <= 2 ** 3


@contextlib.contextmanager
def _bincount_spy():
    """A mock of ``np.bincount`` that calls it, and the sizes it returned."""
    bincount, sizes = np.bincount, []

    def counted(*args, **kwargs):
        out = bincount(*args, **kwargs)
        sizes.append(out.size)
        return out
    with mock.patch.object(simulate.np, "bincount",
                           side_effect=counted) as spy:
        yield spy, sizes


@pytest.mark.parametrize("amps, draws", [
    # 3 cuts and 2 shots: one search per shot
    ([0.5, 0.5, 0.0, 0.5 ** 0.5], [0.25, 0.5]),
    # 3 cuts and 6 shots: the draws below each cut are counted
    ([0.5, 0.5, 0.0, 0.5 ** 0.5], [0.25, 0.5, 0.0, 0.3, 0.5, 0.75]),
    # 8 cuts and 9 shots: the draws are sorted
    ([0.25] * 4 + [0.5] * 3 + [0.0],
     [0.0625, 0.125, 0.1875, 0.25, 0.5, 0.75, 0.0, 0.8, 0.125]),
], ids=["per_shot", "count", "sort"])
def test_sample_gives_a_draw_on_a_cut_to_the_label_above(amps, draws):
    # the probabilities and the cumulative sums are exact dyadic
    # fractions, so some draws land on a cut
    state = StateVector._trusted(int(len(amps)).bit_length() - 1,
                                 np.array(amps, dtype=complex))
    cumulative = np.cumsum(state.probabilities()).tolist()
    want = {}
    for draw in draws:
        key = format_outcome(bisect_right(cumulative, draw), state.width)
        want[key] = want.get(key, 0) + 1
    generator = SimpleNamespace(random=lambda shots: np.array(draws))
    with mock.patch.object(simulate, "_rng", return_value=generator):
        assert sample(state, len(draws)) == dict(sorted(want.items()))


def test_sample_sends_a_shortfall_below_one_to_the_top_label():
    # five equal labels of eight: their probabilities sum to 1 - 2**-53,
    # and the top label, 7, has none
    amps = np.zeros(8, dtype=complex)
    amps[:5] = 1.0
    state = StateVector(3, amps / np.linalg.norm(amps))
    assert np.cumsum(state.probabilities())[-1] < 1.0
    assert sample(state, 4000, 3) == sample_ref(state, 4000, 3)
    assert sample(state, 3, 3) == sample_ref(state, 3, 3)
    # a shortfall far past rounding shows where the draws above it go
    half = StateVector._trusted(3, np.sqrt(amps / 10))
    counts = sample(half, 4000, 3)
    assert counts == sample_ref(half, 4000, 3)
    assert 1800 < counts["111"] < 2200


# parameter-shift gradient


@st.composite
def ansatz_cases(draw):
    """An ansatz of ids 25-29 with a random structure, flat angles and an
    observable drawn from X, Y and Z strings. Ids 26, 27 and 29 give
    parameters several sites."""
    pid = draw(st.sampled_from([25, 26, 27, 28, 29]))
    n = draw(st.integers(2, 4))
    structure = {"n": n}
    if pid in (25, 28):
        structure["layers"] = draw(st.integers(1, 2))
        count = 2 * n * structure["layers"]
    if pid == 26:
        pairs = [[a, b] for a in range(n) for b in range(n) if a != b]
        structure["edges"] = draw(st.lists(st.sampled_from(pairs),
                                           max_size=4))
        count = 2 * draw(st.integers(1, 2))
    if pid == 27:
        count = draw(st.integers(1, 3))
        strings = st.text("IXYZ", min_size=n, max_size=n).filter(
            lambda text: set(text) != {"I"})
        structure["blocks"] = draw(st.lists(
            st.tuples(strings, st.integers(0, count - 1),
                      st.floats(-1, 1)), min_size=1, max_size=4))
    if pid == 28:
        rotations = draw(st.lists(st.sampled_from(["rx", "ry", "rz"]),
                                  min_size=1, max_size=3))
        structure["rotations"] = rotations
        structure["entangler"] = draw(st.sampled_from(["chain", "ring"]))
        count = structure["layers"] * n * len(rotations)
    if pid == 29:
        structure["periodic"] = draw(st.booleans())
        structure["steps"] = draw(st.integers(1, 2))
        count = 2 * structure["steps"]
    thetas = draw(st.lists(st.floats(-math.pi, math.pi), min_size=count,
                           max_size=count))
    terms = draw(st.lists(
        st.tuples(st.floats(-2, 2), st.text("IXYZ", min_size=n,
                                            max_size=n)),
        min_size=1, max_size=4))
    return pid, structure, thetas, PauliObservable(n, tuple(terms))


@settings(deadline=None)
@given(ansatz_cases())
def test_shift_gradient_matches_full_replays(case):
    pid, structure, thetas, observable = case
    got = parameter_shift_gradient(pid, thetas, observable, structure)
    want = shift_gradient_ref(pid, thetas, observable, structure)
    assert np.allclose(got, want, rtol=0, atol=ATOL)


def test_a_gradient_builds_a_layer_block_only_when_its_gates_change():
    # HEA n=6, L=2: two stretches of 12 rotations, each a layer of two
    # 3-qubit blocks, ending at the CNOT chains (positions 12 and 29).
    # The sweep builds the first layer's 2 blocks in the plan of
    # ops[:12] and the second layer's 2 in the plan of ops[12:29]; every
    # run of the first stretch replays ops[12:] with the very same gates,
    # so its first run builds the second layer's 2 blocks and the other
    # 23 reuse them; the second stretch's runs replay the last CNOT
    # chain, which has no block: 2 + 2 + 2 = 6
    observable = PauliObservable.parse(
        " + ".join([f"Z{q}*Z{q + 1}" for q in range(5)]
                   + [f"0.7*X{q}" for q in range(6)]), 6)
    thetas = np.random.default_rng(2).uniform(-math.pi, math.pi, 24)
    with mock.patch.object(simulate, "_block_matrix",
                           wraps=simulate._block_matrix) as build:
        parameter_shift_gradient(25, thetas, observable,
                                 {"n": 6, "layers": 2})
    assert build.call_count == 6


def _hea_case(n):
    """An HEA L=2 gradient's arguments at width n: its thetas, an
    observable with Z, X and Y terms, and its structure."""
    observable = PauliObservable.parse(
        " + ".join([f"Z{q}*Z{q + 1}" for q in range(n - 1)]
                   + [f"0.7*X{q}" for q in range(n)]) + " - 0.3*Y0*X1", n)
    thetas = np.random.default_rng(n).uniform(-math.pi, math.pi, 4 * n)
    return thetas, observable, {"n": n, "layers": 2}


def test_a_gradient_looks_up_a_plan_only_for_a_new_op_list():
    # HEA n=6, L=2: the sweep runs ops[:12] and ops[12:29], each a new
    # op list; the 24 runs of a stretch replay its one suffix, so only
    # the first of them looks its plan up: 2 + 2 = 4, not one per run
    # (50)
    with mock.patch.object(simulate, "_plan",
                           wraps=simulate._plan) as lookup:
        parameter_shift_gradient(25, *_hea_case(6))
    assert lookup.call_count == 4


def test_a_wide_gradient_builds_a_group_only_when_its_gates_change():
    # HEA n=10, L=2: a layer is three groups of angled rotations (3, 3
    # and 4 qubits), built in the plans of the two sweep steps and of
    # the first stretch's suffix, each once: 3 x 3 = 9, not once per
    # run (126)
    assert simulate.WIDE_WIDTH <= 10
    with mock.patch.object(simulate, "_block_matrix",
                           wraps=simulate._block_matrix) as build:
        parameter_shift_gradient(25, *_hea_case(10))
    assert build.call_count == 9


def test_a_wide_replay_forms_no_block():
    # HEA n=10, L=2 from a StateVector: the first run binds the angled
    # blocks in their form; a replay of the same op list takes them from
    # the replay memo, and no layer forms a block as it applies it
    n = 10
    assert simulate.WIDE_WIDTH <= n
    thetas = np.random.default_rng(n).uniform(-math.pi, math.pi, 4 * n)
    circuit = realize_ansatz(25, {"n": n, "layers": 2}, thetas).circuit
    amps = _random_state(np.random.default_rng(1), n)
    first = run(circuit, initial=StateVector(n, amps)).state.amplitudes
    with mock.patch.object(simulate, "_block_form",
                           wraps=simulate._block_form) as form:
        again = run(circuit, initial=StateVector(n, amps)).state.amplitudes
    assert form.call_count == 0
    assert np.array_equal(again, first)
    assert np.allclose(first, _reference_run(circuit.ops, n, amps), rtol=0,
                       atol=ATOL)


def test_a_wide_unangled_layer_is_formed_with_the_plan():
    # a second op list of the same unangled wide structure, new gate
    # objects, finds every block formed in the cached plan
    n = simulate.WIDE_WIDTH

    def ops():
        return ([Gate(GateKind.H, (q,)) for q in range(n)]
                + [Gate(GateKind.S, (q,)) for q in range(0, n, 2)]
                + [Gate(GateKind.CNOT, (q, q + 1)) for q in range(n - 1)]
                + [Gate(GateKind.X, (q,)) for q in range(1, n, 3)])
    amps = _random_state(np.random.default_rng(2), n)
    run(GateCircuit(n, ops()), initial=StateVector(n, amps))
    second = ops()
    with mock.patch.object(simulate, "_block_form",
                           wraps=simulate._block_form) as form:
        got = run(GateCircuit(n, second), initial=StateVector(n, amps))
    assert form.call_count == 0
    assert np.allclose(got.state.amplitudes, _reference_run(second, n, amps),
                       rtol=0, atol=ATOL)


def test_a_stretch_split_by_the_byte_cap_keeps_its_gradient(monkeypatch):
    # HEA n=12, L=2: two stretches of 24 sites; a cap of three sites'
    # shifted states at 12 qubits splits each into eight gathers
    monkeypatch.setattr(simulate, "SHIFT_BYTES", 3 * 2 * 16 * 2 ** 12)
    thetas, observable, structure = _hea_case(12)
    with mock.patch.object(simulate, "_shifted",
                           wraps=simulate._shifted) as gather:
        got = parameter_shift_gradient(25, thetas, observable, structure)
    assert gather.call_count == 16
    want = shift_gradient_ref(25, thetas, observable, structure)
    assert np.allclose(got, want, rtol=0, atol=ATOL)


@pytest.mark.parametrize("rotations", [["ry", "rz", "rx"], ["rz", "rz"]])
def test_a_site_with_gates_on_its_qubit_on_both_sides(rotations):
    # each qubit's rotations of a layer are one run: a middle (or first)
    # site has gates of its stretch on its qubit after it, which the
    # shift applied at the stretch's end must conjugate
    structure = {"n": 3, "layers": 2, "rotations": rotations,
                 "entangler": "ring"}
    observable = PauliObservable.parse("Z0*Z1 + 0.5*X2 - 0.3*Y1 + 0.2*X0*Y2",
                                       3)
    thetas = np.random.default_rng(28).uniform(-math.pi, math.pi,
                                                6 * len(rotations))
    got = parameter_shift_gradient(28, thetas, observable, structure)
    want = shift_gradient_ref(28, thetas, observable, structure)
    assert np.allclose(got, want, rtol=0, atol=ATOL)


def test_a_stretch_that_ends_the_circuit_replays_no_gates():
    # QAOA's RX mixers are the last stretch: their runs start from the
    # final state with the shift applied and replay an empty circuit
    structure = {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    thetas = [0.7, -0.4]  # gamma, beta
    observable = PauliObservable.parse("Z0*Z1 + Z1*Z2 + 0.5*Y0*X2", 3)
    calls = []

    def spy(circuit, initial=None, seed=None):
        calls.append(len(circuit.ops))
        return run(circuit, initial, seed)

    with mock.patch.object(simulate, "run", spy):
        got = parameter_shift_gradient(26, thetas, observable, structure)
    low = realize_ansatz(26, structure, thetas)
    mixers = [pos for pos, _ in low.sites[1]]
    assert all(low.circuit.ops[pos].kind is GateKind.RX for pos in mixers)
    assert len(calls) == 2 * sum(len(sites) for sites in low.sites)
    assert calls[-2 * len(mixers):] == [0] * (2 * len(mixers))
    assert all(calls[:-2 * len(mixers)])
    want = shift_gradient_ref(26, thetas, observable, structure)
    assert np.allclose(got, want, rtol=0, atol=ATOL)


@pytest.mark.parametrize("kind", sorted(simulate._SHIFTS, key=str))
def test_a_shifted_rotation_is_the_rotation_then_its_shift(kind):
    theta = 0.83
    for delta, shift in zip((math.pi / 2, -math.pi / 2),
                            simulate._SHIFTS[kind]):
        assert np.allclose(gate_matrix(Gate(kind, (0,), theta + delta)),
                           gate_matrix(Gate(kind, (0,), theta)) @ shift,
                           rtol=0, atol=ATOL)


@settings(deadline=None)
@given(ansatz_cases())
def test_every_ansatz_site_is_a_one_qubit_kind_with_shifts(case):
    # the premise of applying a shift at the stretch's end: every site
    # is a one-qubit rotation about one axis, listed in ``_SHIFTS``
    pid, structure, thetas, _ = case
    low = realize_ansatz(pid, structure, thetas)
    for sites in low.sites:
        for pos, _ in sites:
            gate = low.circuit.ops[pos]
            assert len(gate.qubits) == 1 and gate.kind in simulate._SHIFTS


def _fresh(pid, structure, flat):
    """``realize_ansatz`` with no template kept: ``realize`` builds it."""
    lowering._TEMPLATES.clear()
    return realize_ansatz(pid, structure, flat)


@settings(deadline=None)
@given(ansatz_cases(), st.data())
def test_angles_bound_on_a_template_equal_a_fresh_realize(case, data):
    # the template holds other angles; a builder whose angle is not
    # scale * theta (an offset, say) would differ here
    pid, structure, thetas, _ = case
    floats = st.lists(st.floats(-math.pi, math.pi), min_size=len(thetas),
                      max_size=len(thetas))
    for flat in ([0.0] * len(thetas), data.draw(floats), data.draw(floats)):
        _fresh(pid, structure, thetas)
        with mock.patch.object(lowering, "realize",
                               wraps=lowering.realize) as build:
            bound = realize_ansatz(pid, structure, flat)
        assert not build.called
        want = _fresh(pid, structure, flat)
        assert bound.circuit == want.circuit  # gate for gate
        assert bound.spec == want.spec and bound.sites == want.sites
