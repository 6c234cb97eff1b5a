"""Gate-level circuit representation.

Conventions, fixed once here and relied on everywhere else:

* Qubit 0 is the least significant bit of a basis-state index, so basis
  state |q_{n-1} ... q_1 q_0> has index sum(q_k * 2**k).
* A k-qubit gate matrix is indexed the same way over its qubit list: the
  first listed qubit is the least significant bit of the matrix index.
  CNOT(control, target) therefore maps index (t*2 + c) -> ((t xor c)*2 + c).
* Angles are radians. Rz(theta) = diag(e^{-i theta/2}, e^{i theta/2});
  Phase(theta) = diag(1, e^{i theta}).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (DuplicateQubitError, GateArityError,
                     IndexOutOfRangeError, MeasuredQubitReuseError,
                     NonReversibleError, TooWideError)

UNITARY_WIDTH_CAP = 10
ATOL = 1e-10


class GateKind(enum.Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    PHASE = "phase"
    CNOT = "cnot"
    CZ = "cz"
    CPHASE = "cphase"
    SWAP = "swap"
    TOFFOLI = "toffoli"
    CONTROLLED_U = "controlled_u"
    MEASURE = "measure"


class KindRow(NamedTuple):
    """What a gate kind is; validation, ``dagger``, the simulator's kernels
    and QASM export all read these columns."""

    arity: int | None  # None: the matrix sets it (CONTROLLED_U)
    angled: bool  # takes a rotation angle
    inverse: GateKind | None  # an angled kind's inverse negates the angle
    structure: str | None  # picks the kernel in simulate._KERNELS
    qasm: str | None  # OPENQASM 2.0 gate name, None where there is none


_K = GateKind
KINDS = {
    _K.H: KindRow(1, False, _K.H, "dense", "h"),
    _K.X: KindRow(1, False, _K.X, "permutation", "x"),
    _K.Y: KindRow(1, False, _K.Y, "dense", "y"),
    _K.Z: KindRow(1, False, _K.Z, "diagonal", "z"),
    _K.S: KindRow(1, False, _K.SDG, "diagonal", "s"),
    _K.SDG: KindRow(1, False, _K.S, "diagonal", "sdg"),
    _K.T: KindRow(1, False, _K.TDG, "diagonal", "t"),
    _K.TDG: KindRow(1, False, _K.T, "diagonal", "tdg"),
    _K.RX: KindRow(1, True, _K.RX, "dense", "rx"),
    _K.RY: KindRow(1, True, _K.RY, "dense", "ry"),
    _K.RZ: KindRow(1, True, _K.RZ, "dense", "rz"),
    _K.PHASE: KindRow(1, True, _K.PHASE, "diagonal", "u1"),
    _K.CNOT: KindRow(2, False, _K.CNOT, "permutation", "cx"),
    _K.CZ: KindRow(2, False, _K.CZ, "diagonal", "cz"),
    _K.CPHASE: KindRow(2, True, _K.CPHASE, "diagonal", "cp"),
    _K.SWAP: KindRow(2, False, _K.SWAP, "permutation", "swap"),
    _K.TOFFOLI: KindRow(3, False, _K.TOFFOLI, "permutation", "ccx"),
    _K.CONTROLLED_U: KindRow(None, False, _K.CONTROLLED_U, "controlled",
                             None),
    _K.MEASURE: KindRow(1, False, None, None, None),
}

PARAMETRIC_KINDS = frozenset(k for k, row in KINDS.items() if row.angled)


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate application: a kind, target qubits, and any parameters.

    ``qubits`` are circuit-level indices, first listed = least significant
    bit of the gate matrix. CONTROLLED_U gates carry an explicit unitary
    ``matrix`` over the non-control qubits plus an integer ``power``; their
    qubit list is (control, *targets).
    """

    kind: GateKind
    qubits: tuple[int, ...]
    theta: float | None = None
    matrix: np.ndarray | None = None
    power: int = 1
    cbit: int | None = None

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise DuplicateQubitError(f"repeated qubit in {self.qubits}")
        row = KINDS[self.kind]
        if row.arity is None:  # CONTROLLED_U: the matrix sets the arity
            if self.matrix is None:
                raise GateArityError("controlled_u needs a matrix")
            dim = self.matrix.shape[0]
            if (self.matrix.shape != (dim, dim) or dim < 2
                    or dim & (dim - 1)):
                raise GateArityError(
                    f"controlled_u matrix must be square with power-of-two "
                    f"dimension, got shape {self.matrix.shape}")
            want = 1 + dim.bit_length() - 1
            if len(self.qubits) != want:
                raise GateArityError(
                    f"controlled_u over a {dim}x{dim} matrix takes {want} "
                    f"qubits, got {len(self.qubits)}")
            if self.power < 1:
                raise GateArityError(f"power must be >= 1, got {self.power}")
            err = np.abs(self.matrix @ self.matrix.conj().T
                         - np.eye(dim)).max()
            if err > 1e-8:
                raise GateArityError(
                    f"controlled_u matrix is not unitary (deviation {err:.2e})")
        elif len(self.qubits) != row.arity:
            raise GateArityError(
                f"{self.kind.value} takes {row.arity} qubit(s), got "
                f"{len(self.qubits)}")
        if row.angled and self.theta is None:
            raise GateArityError(f"{self.kind.value} needs an angle")
        if not row.angled and self.theta is not None:
            raise GateArityError(f"{self.kind.value} takes no angle")
        if self.kind is GateKind.MEASURE and self.cbit is None:
            raise GateArityError("measure needs a classical bit index")

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.qubits, self.theta, self.power, self.cbit) != \
                (other.kind, other.qubits, other.theta, other.power,
                 other.cbit):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix,
                                                     other.matrix)

    @property
    def arity(self) -> int:
        return len(self.qubits)


# constructors


def h(q): return Gate(GateKind.H, (q,))
def x(q): return Gate(GateKind.X, (q,))
def y(q): return Gate(GateKind.Y, (q,))
def z(q): return Gate(GateKind.Z, (q,))
def s(q): return Gate(GateKind.S, (q,))
def sdg(q): return Gate(GateKind.SDG, (q,))
def t(q): return Gate(GateKind.T, (q,))
def tdg(q): return Gate(GateKind.TDG, (q,))
def rx(theta, q): return Gate(GateKind.RX, (q,), float(theta))
def ry(theta, q): return Gate(GateKind.RY, (q,), float(theta))
def rz(theta, q): return Gate(GateKind.RZ, (q,), float(theta))
def phase(theta, q): return Gate(GateKind.PHASE, (q,), float(theta))
def cnot(control, target): return Gate(GateKind.CNOT, (control, target))
def cz(a, b): return Gate(GateKind.CZ, (a, b))


def cphase(theta, a, b):
    return Gate(GateKind.CPHASE, (a, b), float(theta))


def swap(a, b): return Gate(GateKind.SWAP, (a, b))


def toffoli(c1, c2, target):
    return Gate(GateKind.TOFFOLI, (c1, c2, target))


def controlled_u(matrix, control, targets, power=1):
    matrix = np.asarray(matrix, dtype=complex)
    return Gate(GateKind.CONTROLLED_U, (control, *targets), matrix=matrix,
                power=int(power))


def measure(q, cbit):
    return Gate(GateKind.MEASURE, (q,), cbit=int(cbit))


# matrices

_SQ2 = 1.0 / math.sqrt(2.0)

# (m00, m01, m10, m11) of the one-qubit kinds without an angle
_FIXED_ENTRIES = {
    GateKind.H: (_SQ2, _SQ2, _SQ2, -_SQ2),
    GateKind.X: (0, 1, 1, 0),
    GateKind.Y: (0, -1j, 1j, 0),
    GateKind.Z: (1, 0, 0, -1),
    GateKind.S: (1, 0, 0, 1j),
    GateKind.SDG: (1, 0, 0, -1j),
    GateKind.T: (1, 0, 0, cmath.exp(0.25j * math.pi)),
    GateKind.TDG: (1, 0, 0, cmath.exp(-0.25j * math.pi)),
}


def one_qubit_entries(gate: Gate) -> tuple:
    """(m00, m01, m10, m11) of a one-qubit unitary gate as Python numbers.

    The single definition of every one-qubit matrix; ``gate_matrix`` and the
    simulator's kernels both read it.
    """
    k = gate.kind
    if gate.theta is None:
        return _FIXED_ENTRIES[k]
    if k is GateKind.RX:
        c, sn = math.cos(gate.theta / 2), math.sin(gate.theta / 2)
        return (c, -1j * sn, -1j * sn, c)
    if k is GateKind.RY:
        c, sn = math.cos(gate.theta / 2), math.sin(gate.theta / 2)
        return (c, -sn, sn, c)
    if k is GateKind.RZ:
        e = cmath.exp(0.5j * gate.theta)
        return (e.conjugate(), 0, 0, e)
    if k is GateKind.PHASE:
        return (1, 0, 0, cmath.exp(1j * gate.theta))
    raise GateArityError(f"{k.value} is not a one-qubit unitary gate")


# Two/three-qubit matrices indexed little-endian over the listed qubits:
# first listed qubit = least significant bit of the row/column index.
_CNOT = np.zeros((4, 4), dtype=complex)
for _c in (0, 1):
    for _t in (0, 1):
        _CNOT[(_t ^ _c) * 2 + _c, _t * 2 + _c] = 1.0

_SWAP = np.zeros((4, 4), dtype=complex)
for _a in (0, 1):
    for _b in (0, 1):
        _SWAP[_a * 2 + _b, _b * 2 + _a] = 1.0

_TOFFOLI = np.eye(8, dtype=complex)
_TOFFOLI[[3, 7], [3, 7]] = 0.0
_TOFFOLI[3, 7] = _TOFFOLI[7, 3] = 1.0


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense unitary of one gate over its own qubits (little-endian)."""
    k = gate.kind
    if gate.arity == 1 and k is not GateKind.MEASURE:
        return np.array(one_qubit_entries(gate), dtype=complex).reshape(2, 2)
    if k is GateKind.CNOT:
        return _CNOT.copy()
    if k is GateKind.CZ:
        return np.diag([1, 1, 1, -1]).astype(complex)
    if k is GateKind.CPHASE:
        return np.diag([1, 1, 1, cmath.exp(1j * gate.theta)]).astype(complex)
    if k is GateKind.SWAP:
        return _SWAP.copy()
    if k is GateKind.TOFFOLI:
        return _TOFFOLI.copy()
    if k is GateKind.CONTROLLED_U:
        up = np.linalg.matrix_power(gate.matrix, gate.power)
        dim = up.shape[0]
        big = np.eye(2 * dim, dtype=complex)
        # control is the first listed qubit, hence the low index bit
        big[1::2, 1::2] = up
        return big
    raise NonReversibleError("measurement has no unitary matrix")


def apply_matrix(state: np.ndarray, width: int, matrix: np.ndarray,
                 qubits) -> np.ndarray:
    """Apply a k-qubit unitary to a dense array of shape (2**width, ...).

    Trailing axes ride along untouched, so the same kernel serves state
    vectors and stacked basis columns.
    """
    k = len(qubits)
    tail = state.shape[1:]
    psi = state.reshape([2] * width + list(tail))
    # numpy axis for qubit q is width-1-q; gate axis for list slot j is k-1-j
    axes = [width - 1 - q for q in qubits]
    dest = [k - 1 - j for j in range(k)]
    psi = np.moveaxis(psi, axes, dest)
    moved_shape = psi.shape
    psi = matrix @ psi.reshape(2 ** k, -1)
    psi = np.moveaxis(psi.reshape(moved_shape), dest, axes)
    return psi.reshape((2 ** width,) + tail)


@dataclass
class GateCircuit:
    """A straight-line list of gates over a fixed-width qubit register.

    Appending validates indices and coherence: once a qubit is measured no
    further gate may touch it unless the circuit was created with
    ``allow_mid_measure=True``. Classical bits grow on demand as measure
    gates are appended.
    """

    width: int
    ops: list = field(default_factory=list)
    classical_bits: int = 0
    allow_mid_measure: bool = False
    _measured: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self):
        if self.width < 0:
            raise ValueError(f"width must be nonnegative, got {self.width}")
        ops, self.ops = list(self.ops), []
        for gate in ops:
            self.append(gate)

    def append(self, gate: Gate) -> "GateCircuit":
        for q in gate.qubits:
            if not 0 <= q < self.width:
                raise IndexOutOfRangeError(
                    f"qubit {q} outside register of width {self.width}")
        if not self.allow_mid_measure:
            touched = self._measured.intersection(gate.qubits)
            if touched:
                raise MeasuredQubitReuseError(
                    f"qubit(s) {sorted(touched)} already measured")
        if gate.kind is GateKind.MEASURE:
            if gate.cbit < 0:
                raise IndexOutOfRangeError(f"classical bit {gate.cbit} < 0")
            self.classical_bits = max(self.classical_bits, gate.cbit + 1)
            self._measured.add(gate.qubits[0])
        self.ops.append(gate)
        return self

    def extend(self, gates) -> "GateCircuit":
        for gate in gates:
            self.append(gate)
        return self

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __eq__(self, other):
        if not isinstance(other, GateCircuit):
            return NotImplemented
        return (self.width == other.width
                and self.classical_bits == other.classical_bits
                and self.ops == other.ops)

    @property
    def has_measurement(self) -> bool:
        return any(g.kind is GateKind.MEASURE for g in self.ops)


@dataclass(frozen=True)
class GateCounts:
    total: int
    one_qubit: int
    two_qubit: int
    three_qubit: int
    wider: int
    measurements: int

    @property
    def entangling(self) -> int:
        """Gates touching two or more qubits."""
        return self.two_qubit + self.three_qubit + self.wider


def gate_counts(circuit: GateCircuit) -> GateCounts:
    """Exact gate tallies by arity."""
    one = two = three = wider = meas = 0
    for g in circuit.ops:
        if g.kind is GateKind.MEASURE:
            meas += 1
        elif g.arity == 1:
            one += 1
        elif g.arity == 2:
            two += 1
        elif g.arity == 3:
            three += 1
        else:
            wider += 1
    return GateCounts(len(circuit.ops), one, two, three, wider, meas)


def depth(circuit: GateCircuit) -> int:
    """Longest chain of gates sharing qubits (measurements included)."""
    level = [0] * circuit.width
    out = 0
    for g in circuit.ops:
        layer = 1 + max((level[q] for q in g.qubits), default=0)
        for q in g.qubits:
            level[q] = layer
        out = max(out, layer)
    return out


def dagger(circuit: GateCircuit) -> GateCircuit:
    """Exact inverse circuit; rejects circuits containing measurement."""
    if circuit.has_measurement:
        raise NonReversibleError("cannot invert a measuring circuit")
    inverted = []
    for g in reversed(circuit.ops):
        row = KINDS[g.kind]
        if g.kind is GateKind.CONTROLLED_U:
            g = Gate(GateKind.CONTROLLED_U, g.qubits,
                     matrix=np.linalg.matrix_power(g.matrix,
                                                   g.power).conj().T)
        elif row.angled:
            g = replace(g, theta=-g.theta)
        elif row.inverse is not g.kind:
            g = replace(g, kind=row.inverse)
        inverted.append(g)  # a self-inverse gate is reused as it is
    return GateCircuit(circuit.width, inverted,
                       allow_mid_measure=circuit.allow_mid_measure)


def unitary_of(circuit: GateCircuit) -> np.ndarray:
    """Dense 2**n unitary of the whole circuit.

    Capped at width 10; measurement makes the circuit non-unitary.
    """
    if circuit.width > UNITARY_WIDTH_CAP:
        raise TooWideError(
            f"width {circuit.width} exceeds dense cap {UNITARY_WIDTH_CAP}")
    if circuit.has_measurement:
        raise NonReversibleError("a measuring circuit has no unitary")
    dim = 2 ** circuit.width
    u = np.eye(dim, dtype=complex)
    for g in circuit.ops:
        u = apply_matrix(u, circuit.width, gate_matrix(g), g.qubits)
    return u
