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
    MCZ = "mcz"
    MCX = "mcx"
    CMODMUL = "cmodmul"
    CONTROLLED_U = "controlled_u"
    QFT = "qft"
    IQFT = "iqft"
    MEASURE = "measure"

    # members are singletons compared by identity, so the identity hash is
    # consistent with equality, and it runs in C where Enum's calls Python
    __hash__ = object.__hash__


class KindRow(NamedTuple):
    """What a gate kind is; validation, ``dagger``, the simulator's kernels
    and QASM export all read these columns."""

    # None: two or more; the modulus sets CMODMUL's, the matrix
    # CONTROLLED_U's
    arity: int | None
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
    # multi-controlled Z and X; export spells them out (see ``decompose``)
    _K.MCZ: KindRow(None, False, _K.MCZ, "diagonal", None),
    _K.MCX: KindRow(None, False, _K.MCX, "permutation", None),
    # a controlled multiply modulo N, carried as integers; its inverse
    # multiplies by the inverse of ``multiplier`` (see ``dagger``)
    _K.CMODMUL: KindRow(None, False, _K.CMODMUL, "modular", None),
    _K.CONTROLLED_U: KindRow(None, False, _K.CONTROLLED_U, "controlled",
                             None),
    # the quantum Fourier transform and its inverse over a register, first
    # listed qubit least significant; export spells them out (see
    # ``decompose``)
    _K.QFT: KindRow(None, False, _K.IQFT, "fourier", None),
    _K.IQFT: KindRow(None, False, _K.QFT, "fourier", None),
    _K.MEASURE: KindRow(1, False, None, None, None),
}

PARAMETRIC_KINDS = frozenset(k for k, row in KINDS.items() if row.angled)
# per-gate code reads these names: EnumType's __getattr__ hook makes every
# member lookup several times slower than reading a global
_MEASURE = GateKind.MEASURE
_CMODMUL = GateKind.CMODMUL
_CONTROLLED_U = GateKind.CONTROLLED_U
_QFT = GateKind.QFT
_IQFT = GateKind.IQFT


class _FirstRead:
    """A gate's ``entries``: computed at the first read and kept in the
    gate's ``__dict__``, which then answers every later read without a
    call. ``functools.cached_property`` does the same, but on Python 3.11
    it takes a lock at every first read."""

    def __get__(self, gate, owner=None):
        if gate is None:
            return self
        entries = gate.__dict__["entries"] = one_qubit_entries(gate)
        return entries


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate application: a kind, target qubits, and any parameters.

    ``qubits`` are circuit-level indices, first listed = least significant
    bit of the gate matrix. CONTROLLED_U gates carry an explicit unitary
    ``matrix`` over the non-control qubits plus an integer ``power``; their
    qubit list is (control, *targets). A CMODMUL gate multiplies its work
    register by ``multiplier**power`` modulo ``modulus`` when its control
    is one (see ``modular_sources``); its qubit list is (control, *work),
    the work register ``modular_width(modulus)`` qubits, least significant
    first. MCZ and MCX take two or more qubits; MCX lists its controls
    first and its target last. QFT and IQFT take two or more qubits, the
    register they transform, least significant first.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    theta: float | None = None
    matrix: np.ndarray | None = None
    power: int = 1
    cbit: int | None = None
    multiplier: int | None = None
    modulus: int | None = None

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise DuplicateQubitError(f"repeated qubit in {self.qubits}")
        row = KINDS[self.kind]
        if self.kind is _CONTROLLED_U:  # the matrix sets the arity
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
            err = np.abs(self.matrix @ self.matrix.conj().T
                         - np.eye(dim)).max()
            if err > 1e-8:
                raise GateArityError(
                    f"controlled_u matrix is not unitary (deviation {err:.2e})")
        elif self.kind is _CMODMUL:  # the modulus sets the arity
            a, modulus = self.multiplier, self.modulus
            if not (isinstance(a, int) and isinstance(modulus, int)
                    and modulus >= 2 and a >= 1 and math.gcd(a, modulus) == 1):
                raise GateArityError(
                    f"cmodmul needs a modulus >= 2 and a multiplier >= 1 "
                    f"coprime to it, got {a!r} mod {modulus!r}")
            want = 1 + modular_width(modulus)
            if len(self.qubits) != want:
                raise GateArityError(
                    f"cmodmul modulo {modulus} takes {want} qubits, got "
                    f"{len(self.qubits)}")
        elif row.arity is None:
            if len(self.qubits) < 2:
                raise GateArityError(
                    f"{self.kind.value} takes at least 2 qubits, got "
                    f"{len(self.qubits)}")
        elif len(self.qubits) != row.arity:
            raise GateArityError(
                f"{self.kind.value} takes {row.arity} qubit(s), got "
                f"{len(self.qubits)}")
        if row.angled and self.theta is None:
            raise GateArityError(f"{self.kind.value} needs an angle")
        if not row.angled and self.theta is not None:
            raise GateArityError(f"{self.kind.value} takes no angle")
        if self.kind is _MEASURE and self.cbit is None:
            raise GateArityError("measure needs a classical bit index")
        if self.power < 1:
            raise GateArityError(f"power must be >= 1, got {self.power}")

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.qubits, self.theta, self.power, self.cbit,
                self.multiplier, self.modulus) != \
                (other.kind, other.qubits, other.theta, other.power,
                 other.cbit, other.multiplier, other.modulus):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix,
                                                     other.matrix)

    @property
    def arity(self) -> int:
        return len(self.qubits)

    def _at(self, theta):
        """This angled gate at angle ``theta``: its fields copied, without
        ``__post_init__``'s checks, which its kind and qubits passed, and
        without the ``entries`` of its old angle."""
        gate = object.__new__(Gate)
        fields = gate.__dict__
        fields.update(self.__dict__)
        fields["theta"] = theta
        fields.pop("entries", None)
        return gate

    # ``one_qubit_entries`` of this gate, computed at the first read: a
    # gate is immutable, and runs that share it read them again
    entries = _FirstRead()


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


def mcz(*qubits): return Gate(GateKind.MCZ, qubits)


def mcx(*qubits):
    """Flip the last listed qubit when every other one is one."""
    return Gate(GateKind.MCX, qubits)


def controlled_u(matrix, control, targets, power=1):
    matrix = np.asarray(matrix, dtype=complex)
    return Gate(GateKind.CONTROLLED_U, (control, *targets), matrix=matrix,
                power=int(power))


def cmodmul(multiplier, modulus, control, work, power=1):
    """Multiply ``work`` by multiplier**power modulo ``modulus`` when
    ``control`` is one; ``work`` lists ``modular_width(modulus)`` qubits,
    least significant first."""
    return Gate(GateKind.CMODMUL, (control, *work), power=int(power),
                multiplier=int(multiplier), modulus=int(modulus))


def measure(q, cbit):
    return Gate(GateKind.MEASURE, (q,), cbit=int(cbit))


# matrices

_SQ2 = 1.0 / math.sqrt(2.0)

# the phase each unangled diagonal kind puts on the labels where every
# listed qubit is one; every other label keeps its amplitude
_PHASES = {
    GateKind.Z: -1,
    GateKind.S: 1j,
    GateKind.SDG: -1j,
    GateKind.T: cmath.exp(0.25j * math.pi),
    GateKind.TDG: cmath.exp(-0.25j * math.pi),
    GateKind.CZ: -1,
    GateKind.MCZ: -1,
}


def diagonal_phase(gate: Gate):
    """Phase of a diagonal gate on the labels where every listed qubit is
    one: from ``_PHASES``, or e^{i theta} for PHASE and CPHASE."""
    if gate.theta is None:
        return _PHASES[gate.kind]
    return cmath.exp(1j * gate.theta)


# (m00, m01, m10, m11) of the one-qubit kinds without an angle
_FIXED_ENTRIES = {
    GateKind.H: (_SQ2, _SQ2, _SQ2, -_SQ2),
    GateKind.X: (0, 1, 1, 0),
    GateKind.Y: (0, -1j, 1j, 0),
    **{kind: (1, 0, 0, phase) for kind, phase in _PHASES.items()
       if KINDS[kind].arity == 1},
}


def one_qubit_entries(gate: Gate) -> tuple:
    """(m00, m01, m10, m11) of a one-qubit unitary gate as Python numbers.

    The single definition of every one-qubit matrix; ``gate_matrix`` and the
    simulator's kernels both read it.
    """
    k = gate.kind
    if gate.theta is None and k in _FIXED_ENTRIES:
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
        return (1, 0, 0, diagonal_phase(gate))
    raise GateArityError(f"{k.value} is not a one-qubit unitary gate")


def sources(labels, kind: GateKind, qubits):
    """Source label of each of ``labels`` under a permutation gate, so the
    gate maps amplitudes as out[i] = in[sources(i)]. Every permutation
    kind (X, CNOT, Toffoli, MCX: controls first, target last; SWAP) is
    its own inverse, so this is also the image of each label."""
    if kind is GateKind.SWAP:
        a, b = qubits
        differ = ((labels >> a) ^ (labels >> b)) & 1
        return labels ^ (differ * ((1 << a) | (1 << b)))
    *controls, target = qubits
    mask = sum(1 << c for c in controls)
    return labels ^ (((labels & mask) == mask) << target)


def modular_width(modulus: int) -> int:
    """Qubits of a work register that holds every residue modulo
    ``modulus``."""
    return max(1, (modulus - 1).bit_length())


def modular_sources(values, gate: Gate):
    """Source of each work-register value under a CMODMUL gate whose
    control is one, so the gate maps amplitudes as out[x] =
    in[modular_sources(x)]: a**-p * x mod N below N, and x itself from N
    up. The values below N are permuted because a is a unit mod N, and
    their products stay within int64 for any register below 32 qubits."""
    inverse = pow(gate.multiplier, -gate.power, gate.modulus)
    return np.where(values < gate.modulus, values * inverse % gate.modulus,
                    values)


def controlled_power(gate: Gate) -> np.ndarray:
    """What a CONTROLLED_U gate applies to its targets when the control is
    one: its matrix raised to its power."""
    return np.linalg.matrix_power(gate.matrix, gate.power)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense unitary of one gate over its own qubits (little-endian),
    built from its kind's ``structure``."""
    structure = KINDS[gate.kind].structure
    if structure is None:
        raise NonReversibleError("measurement has no unitary matrix")
    if gate.arity == 1:
        return np.array(one_qubit_entries(gate), dtype=complex).reshape(2, 2)
    dim = 1 << gate.arity
    if structure == "permutation":
        # out[i] = in[sources(i)]: row i of the identity at sources(i)
        return np.eye(dim, dtype=complex)[
            sources(np.arange(dim), gate.kind, range(gate.arity))]
    if structure == "diagonal":
        return np.diag([1] * (dim - 1)
                       + [diagonal_phase(gate)]).astype(complex)
    if structure == "fourier":
        # the QFT maps |x> to sum_y e^{2 pi i x y / dim} |y> / sqrt(dim),
        # the IQFT with e^{-2 pi i x y / dim}; x y is reduced first so
        # the angle stays exact
        sign = 1 if gate.kind is GateKind.QFT else -1
        labels = np.arange(dim)
        return (np.exp(sign * 2j * math.pi * (np.outer(labels, labels) % dim)
                       / dim) / math.sqrt(dim))
    if structure == "modular":
        # control is the first listed qubit, hence the low index bit
        src = np.arange(dim)
        src[1::2] = 1 | modular_sources(src[1::2] >> 1, gate) << 1
        return np.eye(dim, dtype=complex)[src]
    up = controlled_power(gate)
    big = np.eye(2 * len(up), dtype=complex)
    # control is the first listed qubit, hence the low index bit
    big[1::2, 1::2] = up
    return big


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

    A ``Gate`` is immutable, so one gate object may stand at several
    positions (a repeated Grover iteration holds each of its gates once
    per iteration). State that belongs to a position is keyed by the
    position, never by the gate object.
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
        if gate.kind is _MEASURE:
            if gate.cbit < 0:
                raise IndexOutOfRangeError(f"classical bit {gate.cbit} < 0")
            self.classical_bits = max(self.classical_bits, gate.cbit + 1)
            self._measured.add(gate.qubits[0])
        self.ops.append(gate)
        return self

    @classmethod
    def trusted(cls, width, ops, classical_bits=0,
                allow_mid_measure=False) -> "GateCircuit":
        """A circuit of ``ops`` taken as they are: for gates that already
        passed ``append`` in a circuit with these qubits, classical bits
        and measurement rule, or that are built to."""
        # the fields set directly: the dataclass ``__init__`` and
        # ``__post_init__`` would check every gate again
        circuit = object.__new__(cls)
        circuit.width, circuit.ops = width, list(ops)
        circuit.classical_bits = classical_bits
        circuit.allow_mid_measure = allow_mid_measure
        circuit._measured = {gate.qubits[0] for gate in circuit.ops
                             if gate.kind is _MEASURE}
        return circuit

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
        return any(g.kind is _MEASURE for g in self.ops)


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
    """Exact gate tallies by arity, of the circuit ``decompose`` spells
    out."""
    circuit = decompose(circuit)
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
    """Longest chain of gates sharing qubits (measurements included), in
    the circuit ``decompose`` spells out."""
    circuit = decompose(circuit)
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
        if g.kind is _CONTROLLED_U:
            g = Gate(_CONTROLLED_U, g.qubits,
                     matrix=controlled_power(g).conj().T)
        elif g.kind is _CMODMUL:
            g = replace(g, multiplier=pow(g.multiplier, -1, g.modulus))
        elif row.angled:
            g = replace(g, theta=-g.theta)
        elif row.inverse is not g.kind:
            g = replace(g, kind=row.inverse)
        inverted.append(g)  # a self-inverse gate is reused as it is
    # the same qubits as the checked input, and no measurement
    return GateCircuit.trusted(circuit.width, inverted,
                               allow_mid_measure=circuit.allow_mid_measure)


def qft_ops(qubits, cutoff=None) -> list:
    """The QFT over the listed qubits, least significant first, as
    Hadamards, CPHASEs and SWAPs (Nielsen & Chuang, section 5.1): the
    ladder runs from the most significant qubit down, and the SWAPs
    reverse the register. With a ``cutoff``, only rotations spanning
    fewer qubits are kept (the approximate QFT)."""
    qs = list(qubits)
    n = len(qs)
    ops = []
    for j in range(n - 1, -1, -1):
        ops.append(h(qs[j]))
        for m in range(j - 1, -1, -1):
            if cutoff is None or j - m < cutoff:
                ops.append(cphase(math.pi / 2 ** (j - m), qs[m], qs[j]))
    for i in range(n // 2):
        ops.append(swap(qs[i], qs[n - 1 - i]))
    return ops


def inverse_qft_ops(qubits) -> list:
    """``dagger`` of ``qft_ops(qubits)``, built directly: the ladder in
    reverse order with each CPHASE angle negated."""
    qs = list(qubits)
    n = len(qs)
    ops = [swap(qs[i], qs[n - 1 - i]) for i in reversed(range(n // 2))]
    for j in range(n):
        for m in range(j):
            ops.append(cphase(-math.pi / 2 ** (j - m), qs[m], qs[j]))
        ops.append(h(qs[j]))
    return ops


def ladder_scratch(gate: Gate) -> int:
    """Scratch qubits that ``spell_out`` needs: an MCZ or MCX from three
    controls on is a ladder over arity - 2 of them; below that, and for
    a QFT or IQFT, it needs none."""
    if gate.kind is _QFT or gate.kind is _IQFT:
        return 0
    return gate.arity - 2 if gate.arity >= 4 else 0


def spell_out(gate: Gate, scratch: int) -> list:
    """A native gate (MCZ, MCX, QFT or IQFT) as gates that OPENQASM 2.0
    names. A QFT or IQFT is its ladder, ``qft_ops`` or
    ``inverse_qft_ops``. An MCZ or MCX follows Barenco et al. 1995,
    arXiv:quant-ph/9503016: its last qubit is the target and the others
    its controls. One or two controls take CZ, H-Toffoli-H, CNOT or
    Toffoli. From three on, a Toffoli ladder computes the AND of the
    controls into clean scratch qubits ``scratch``, ``scratch`` + 1, ...
    (see ``ladder_scratch``), applies CZ or CNOT from the last of them
    to the target, and uncomputes, so the scratch ends at |0>."""
    if gate.kind is _QFT:
        return qft_ops(gate.qubits)
    if gate.kind is _IQFT:
        return inverse_qft_ops(gate.qubits)
    *controls, target = gate.qubits
    last = cz if gate.kind is GateKind.MCZ else cnot
    if len(controls) == 1:
        return [last(*gate.qubits)]
    if len(controls) == 2:
        flip = toffoli(*gate.qubits)
        return [h(target), flip, h(target)] if last is cz else [flip]
    anc = range(scratch, scratch + ladder_scratch(gate))
    forward = [toffoli(controls[0], controls[1], anc[0])]
    forward += [toffoli(controls[i], anc[i - 2], anc[i - 1])
                for i in range(2, len(controls))]
    return [*forward, last(anc[-1], target), *reversed(forward)]


# the kinds that the simulator runs as one gate and ``decompose`` spells
# out; none has an OPENQASM 2.0 name
_SPELLED = frozenset({GateKind.MCZ, GateKind.MCX, GateKind.QFT,
                      GateKind.IQFT})


def decompose(circuit: GateCircuit) -> GateCircuit:
    """The circuit with each MCZ, MCX, QFT and IQFT spelled out (see
    ``spell_out``); gate counts, depth, the NFR profiles and QASM export
    read this form, while the simulator runs each of them as one native
    gate. Every MCZ or MCX ladder starts its scratch at qubit
    ``circuit.width`` and leaves it at |0>, so the ladders share it and
    the result is as wide as the widest one needs. A circuit without a
    native gate is returned as it is."""
    ops, scratch, native = [], 0, False
    for gate in circuit.ops:
        if gate.kind in _SPELLED:
            ops += spell_out(gate, circuit.width)
            scratch = max(scratch, ladder_scratch(gate))
            native = True
        else:
            ops.append(gate)
    if not native:
        return circuit
    return GateCircuit.trusted(circuit.width + scratch, ops,
                               circuit.classical_bits,
                               circuit.allow_mid_measure)


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
