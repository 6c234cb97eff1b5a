"""Independent dense-algebra references, the gather-composed signed
permutation of a held run, the full-replay shift gradient, the bincount
sampler and its string readout, the gate-by-gate flatten and Grover
builds, and manifest texts shared by the test modules; fixtures live in
conftest.py."""

from dataclasses import replace

import numpy as np

import qsaf.gates as g
from qsaf.composition import FlattenLayout
from qsaf.gates import Gate, GateCircuit
from qsaf.lowering import realize, realize_ansatz
from qsaf.simulate import expectation, format_outcome, run

# reference single- and two-qubit matrices, written out by hand

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def rx_ref(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_ref(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_ref(theta):
    return np.diag([np.exp(-1j * theta / 2),
                    np.exp(1j * theta / 2)]).astype(complex)


def apply_ref(state, n, matrix, qubits):
    """Apply a k-qubit matrix by explicit index arithmetic.

    Qubit q is bit q of the basis index; the first listed qubit is the
    least significant bit of the matrix index. Deliberately slow and
    independent of the package's kernel.
    """
    state = np.asarray(state, dtype=complex)
    out = np.zeros_like(state)
    k = len(qubits)
    for idx in range(2 ** n):
        sub = 0
        for j, q in enumerate(qubits):
            sub |= ((idx >> q) & 1) << j
        base = idx
        for q in qubits:
            base &= ~(1 << q)
        for sub_out in range(2 ** k):
            tgt = base
            for j, q in enumerate(qubits):
                tgt |= ((sub_out >> j) & 1) << q
            out[tgt] += matrix[sub_out, sub] * state[idx]
    return out


def op_on(n, matrix, qubits):
    """Full 2^n operator embedding ``matrix`` on the listed qubits."""
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[col] = 1.0
        full[:, col] = apply_ref(basis, n, matrix, qubits)
    return full


def signed_permutation_ref(n, run):
    """(moved, sources, negated) of a held run of ((kind, qubits), ...)
    at width n, composed on every label as out[i] = s[i] * in[src[i]]:
    one ``gates.sources`` gather per permutation gate, one mask per
    phase. ``moved`` holds the labels with src[i] != i and ``sources``
    their src[i]; ``negated`` the labels with s[i] = -1."""
    labels = np.arange(1 << n)
    src, negative = labels, np.zeros(1 << n, dtype=bool)
    for kind, qubits in run:
        if g.KINDS[kind].structure == "diagonal":
            # CZ, MCZ: -1 on the labels where every listed qubit is 1
            mask = sum(1 << q for q in qubits)
            negative = negative ^ ((labels & mask) == mask)
        else:
            # the gate reads out[i] = before[step[i]]
            step = g.sources(labels, kind, qubits)
            src, negative = src[step], negative[step]
    moved = np.flatnonzero(src != labels)
    return moved, src[moved], np.flatnonzero(negative)


def shift_gradient_ref(ansatz_id, thetas, observable, structure=None):
    """Parameter-shift gradient by full replays: every shifted circuit is
    rebuilt, revalidated and run from |0...0>, and the sites are summed in
    (parameter, site) order."""
    low = realize_ansatz(ansatz_id, structure, thetas)
    ops = low.circuit.ops

    def energy(pos, delta):
        shifted = list(ops)
        shifted[pos] = replace(ops[pos], theta=ops[pos].theta + delta)
        circuit = GateCircuit(low.circuit.width, shifted)
        return expectation(run(circuit).state, observable)

    grad = np.zeros(len(low.sites))
    for i, sites in enumerate(low.sites):
        for pos, scale in sites:
            grad[i] += scale * (energy(pos, np.pi / 2)
                                - energy(pos, -np.pi / 2)) / 2.0
    return grad


def sample_ref(state, shots, seed):
    """The sampler as one searchsorted per shot and a bincount over the
    labels, from the same seeded draws as ``simulate.sample``."""
    probs = state.probabilities()
    cumulative = np.cumsum(probs)
    cumulative[-1] = 1.0
    draws = np.random.default_rng(seed).random(shots)
    outcomes = np.searchsorted(cumulative, draws, side="right")
    hits = np.bincount(outcomes, minlength=probs.size)
    return {format_outcome(label, state.width): int(hits[label])
            for label in np.flatnonzero(hits).tolist()}


def readout_ref(counts, qubits):
    """``counts`` over full bitstrings summed by their characters at
    ``qubits``, most significant first, one string at a time; keys in
    ascending order."""
    out = {}
    for key, hits in counts.items():
        bits = "".join(key[len(key) - 1 - q] for q in qubits)
        out[bits] = out.get(bits, 0) + hits
    return dict(sorted(out.items()))


def flatten_ref(graph):
    """(circuit, layout) of ``graph`` as flatten built them with no gate
    shared: every component's gates relabelled into new ``Gate`` objects
    under its qubit mapping and classical-bit offset, and the flat
    circuit appended gate by gate through ``GateCircuit``'s checks."""
    out_globals, layout, cbit_offsets, ops = {}, {}, {}, []
    next_qubit = next_cbit = 0
    feeders = {(w.dst_instance, w.dst_port): w for w in graph.wires}
    order = graph._topo_order()
    for inst_id in order:
        inst = graph.components[inst_id]
        if inst.is_optimizer:
            continue
        low = realize(inst.primitive_id, inst.params)
        mapping = {}
        feeder = feeders.get((inst_id, "in"))
        if feeder is not None:
            upstream = out_globals.get((feeder.src_instance,
                                        feeder.src_port), ())
            mapping.update(zip(low.spec.in_qubits, upstream))
        for local in range(low.spec.width):
            if local not in mapping:
                mapping[local] = next_qubit
                next_qubit += 1
        offset = cbit_offsets[inst_id] = next_cbit
        next_cbit += low.spec.classical_out
        for gate in low.circuit.ops:
            cbit = None if gate.cbit is None else gate.cbit + offset
            ops.append(Gate(gate.kind, tuple(mapping[q] for q in gate.qubits),
                            gate.theta, gate.matrix, gate.power, cbit,
                            gate.multiplier, gate.modulus))
        out_globals[(inst_id, "out")] = tuple(
            mapping[q] for q in low.spec.out_qubits)
        layout[inst_id] = mapping
    flat = GateCircuit(max(next_qubit, 1), ops, classical_bits=next_cbit)
    return flat, FlattenLayout(tuple(order), layout, cbit_offsets)


def grover_ref(n, marked, iterations):
    """GroverOperator's gates with every iteration built afresh: per
    marked value, X on its zero bits around a phase flip of the all-ones
    state, then H and X on every qubit around a phase flip of it. The
    flip is CZ on 2 qubits, H-Toffoli-H on 3 and a native MCZ from 4."""
    qubits = range(n)

    def flip():
        if n == 2:
            return [g.cz(0, 1)]
        if n == 3:
            return [g.h(2), g.toffoli(0, 1, 2), g.h(2)]
        return [g.mcz(*qubits)]

    circ = GateCircuit(n)
    for _ in range(iterations):
        for value in [*marked, None]:
            if value is None:  # the diffusion's flip of |0...0>
                value = 0
                circ.extend(g.h(q) for q in qubits)
            dress = [g.x(q) for q in qubits if not (value >> q) & 1]
            circ.extend([*dress, *flip(), *dress])
        circ.extend(g.h(q) for q in qubits)
    return circ


def cz_ref():
    return np.diag([1, 1, 1, -1]).astype(complex)


def cnot_ref():
    # control is the first listed qubit (bit 0 of the matrix index)
    m = np.eye(4, dtype=complex)
    m[[1, 3]] = m[[3, 1]]
    return m


def swap_ref():
    # |q1 q0> -> |q0 q1>: indices 1 (only q0 set) and 2 (only q1) trade
    m = np.eye(4, dtype=complex)
    m[[1, 2]] = m[[2, 1]]
    return m


def toffoli_ref():
    # controls are bits 0 and 1 of the matrix index, the target bit 2:
    # with both controls set, indices 3 and 7 trade
    m = np.eye(8, dtype=complex)
    m[[3, 7]] = m[[7, 3]]
    return m


def qft_ladder_ref(qubits, cutoff=None):
    """The QFT over ``qubits`` (least significant first) as the builders
    spelled it out before it was a native gate: from the most significant
    qubit down, H and then a CPHASE by pi/2**d from each qubit d places
    below it (only for d < ``cutoff`` when one is given), then SWAPs that
    reverse the register."""
    qs = list(qubits)
    ops = []
    for j in reversed(range(len(qs))):
        ops.append(g.h(qs[j]))
        ops += [g.cphase(np.pi / 2 ** d, qs[j - d], qs[j])
                for d in range(1, j + 1) if cutoff is None or d < cutoff]
    ops += [g.swap(qs[i], qs[-1 - i]) for i in range(len(qs) // 2)]
    return ops


def dft_matrix(n):
    dim = 2 ** n
    omega = np.exp(2j * np.pi / dim)
    return np.array([[omega ** (j * k) for k in range(dim)]
                     for j in range(dim)]) / np.sqrt(dim)


GROVER_MANIFEST = """\
# two-qubit search: uniform start, one operator round, readout
name grover_demo
version 1
level 5

component sup = Superposition(n=2)
component search = GroverOperator(n=2, marked=[3], iterations=1)
component meas = Measurement(n=2)

wire sup.out -> search.in
wire search.out -> meas.in

contract {0, 1}

run simulate shots=512 seed=7
"""

VQE_MANIFEST = """\
name vqe_demo
version 1
level 5

component ansatz = HardwareEfficientAnsatz(n=2, layers=2, thetas=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
component meas = Measurement(n=2)
component opt = Optimizer(observable="Z0*Z1 + 0.5*X0", max_iters=300)

wire ansatz.out -> meas.in
wire meas.bits -> opt.in
wire opt.out -> ansatz.params

contract {0, 1}

run minimize
"""
