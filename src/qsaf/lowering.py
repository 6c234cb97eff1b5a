"""Gate-level realizations of the catalog primitives.

Every lowerable primitive builds a GateCircuit from a parameter dict. The
full record (circuit, register roles, variational sites) is produced by
``realize``; ``lower`` returns just the circuit and ``port_spec`` just the
register layout. ``realize`` rejects every parameter key that the
builder's path did not read, so no builder restates that rule. Builders
only place gates: what each gate does is defined once, in ``gates``.

Multi-controlled phase/NOT gates over c >= 3 controls are one native MCZ
or MCX gate, so the register needs no scratch qubits; ``gates.decompose``
spells each out as a Toffoli ladder over c-1 clean scratch qubits for gate
counts, depth and export, so those stay linear in the register size. The
QFT and inverse QFT over two qubits or more (ids 15 and 16, an
ApproximateQFT whose cutoff drops no rotation, and the inverse QFT of
phase estimation) are one native QFT or IQFT gate, which the simulator
applies as one FFT; ``gates.decompose`` spells each out as its ladder of
Hadamards, CPHASEs and SWAPs for gate counts, depth, the profiles and
export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

from . import gates as g
from .catalog import all_primitives, get_primitive
from .core import FunctionalCategory, ParameterKind
from .errors import BadParamsError, NotLowerableError
from .gates import GateCircuit

_MISSING = object()
# largest register size (``n``, or AncillaManagement's ``count``) a builder
# takes; running a circuit is capped lower, at simulate.SIM_WIDTH_CAP
WIDTH_CAP = 24


def finite_real(v):
    """``v`` as a float when it is a finite real number, not a bool; None
    otherwise (inf, nan, an int beyond the float range)."""
    # int and float first: they skip the slower abstract check of Real
    if isinstance(v, (int, float, Real)) and not isinstance(v, bool):
        try:
            number = float(v)
        except OverflowError:
            return None
        if math.isfinite(number):
            return number
    return None


class _Params:
    """Typed accessor over a raw parameter dict; ``finish`` rejects the
    keys no accessor read."""

    def __init__(self, pid: int, raw):
        self._pid = pid
        self._raw = dict(raw or {})
        self._seen = set()

    def _err(self, msg):
        raise BadParamsError(f"primitive {self._pid}: {msg}")

    def _fetch(self, key, default):
        self._seen.add(key)
        if key in self._raw:
            return self._raw[key]
        if default is _MISSING:
            self._err(f"missing parameter '{key}'")
        return default

    def has(self, key):
        return key in self._raw

    def int(self, key, default=_MISSING, lo=None, hi=None):
        v = self._fetch(key, default)
        if isinstance(v, bool) or not isinstance(v, int):
            self._err(f"'{key}' must be an integer, got {v!r}")
        if lo is not None and v < lo:
            self._err(f"'{key}' must be >= {lo}, got {v}")
        if hi is not None and v > hi:
            self._err(f"'{key}' must be <= {hi}, got {v}")
        return v

    def float(self, key, default=_MISSING):
        v = self._fetch(key, default)
        if v is None:
            return v
        number = finite_real(v)
        if number is None:
            self._err(f"'{key}' must be a finite number, got {v!r}")
        return number

    def bool(self, key, default=_MISSING):
        v = self._fetch(key, default)
        if not isinstance(v, bool):
            self._err(f"'{key}' must be a boolean, got {v!r}")
        return v

    def str(self, key, default=_MISSING, choices=None):
        v = self._fetch(key, default)
        if not isinstance(v, str):
            self._err(f"'{key}' must be a string, got {v!r}")
        if choices and v not in choices:
            self._err(f"'{key}' must be one of {sorted(choices)}, got {v!r}")
        return v

    def int_list(self, key, lo=None, hi=None, distinct=False):
        v = self._fetch(key, _MISSING)
        if not isinstance(v, (list, tuple)):
            self._err(f"'{key}' must be a list, got {v!r}")
        out = []
        for item in v:
            if isinstance(item, bool) or not isinstance(item, int):
                self._err(f"'{key}' must contain integers, got {item!r}")
            if lo is not None and item < lo:
                self._err(f"'{key}' entry {item} below {lo}")
            if hi is not None and item > hi:
                self._err(f"'{key}' entry {item} above {hi}")
            out.append(item)
        if distinct and len(set(out)) != len(out):
            self._err(f"'{key}' entries must be distinct")
        return out

    def float_list(self, key, length=None):
        v = self._fetch(key, _MISSING)
        if not isinstance(v, (list, tuple)):
            self._err(f"'{key}' must be a list, got {v!r}")
        out = []
        for item in v:
            number = finite_real(item)
            if number is None:
                self._err(f"'{key}' must contain finite numbers, "
                          f"got {item!r}")
            out.append(number)
        if length is not None and len(out) != length:
            self._err(f"'{key}' must have {length} entries, got {len(out)}")
        return out

    def pair_list(self, key, n, default=_MISSING):
        v = self._fetch(key, default)
        if not isinstance(v, (list, tuple)):
            self._err(f"'{key}' must be a list of qubit pairs, got {v!r}")
        out = []
        for item in v:
            if (not isinstance(item, (list, tuple)) or len(item) != 2
                    or any(isinstance(x, bool) or not isinstance(x, int)
                           for x in item)):
                self._err(f"'{key}' entries must be qubit pairs, "
                          f"got {item!r}")
            a, b = item
            if a == b:
                self._err(f"'{key}' contains a self-loop ({a},{b})")
            if not (0 <= a < n and 0 <= b < n):
                self._err(f"'{key}' pair ({a},{b}) outside 0..{n - 1}")
            out.append((a, b))
        return out

    def finish(self):
        unknown = sorted(set(self._raw) - self._seen)
        if unknown:
            self._err(f"unknown parameter(s) {unknown}")


@dataclass(frozen=True)
class PortSpec:
    """Register layout of a lowered primitive.

    ``in_qubits``/``out_qubits`` are the quantum ports; ``anc_qubits`` are
    the other qubits, used internally (phase estimation's counting
    register; a ladder's scratch is added by ``gates.decompose``, not
    listed here); ``classical_out`` is
    the number of classical bits produced. ``out_measured`` marks an output
    register that has been collapsed by measurement, so feeding it onward
    is a coherence error.
    """

    width: int
    in_qubits: tuple[int, ...]
    out_qubits: tuple[int, ...]
    anc_qubits: tuple[int, ...] = ()
    classical_out: int = 0
    measures: bool = False
    out_measured: bool = False
    theta_count: int = 0


@dataclass
class Lowered:
    """Everything a realization produces."""

    circuit: GateCircuit
    spec: PortSpec
    # one entry per flat variational parameter: list of (op index, scale)
    # pairs such that the gate angle at that op equals scale * theta
    sites: list = field(default_factory=list)


# multi-controlled helpers


def _append_multi(circ: GateCircuit, gate):
    """An MCZ or MCX as one native gate where ``gates.spell_out`` would
    build a Toffoli ladder (three controls or more), else as its exact
    small form: CZ, H-Toffoli-H, CNOT or Toffoli."""
    circ.extend([gate] if g.ladder_scratch(gate)
                else g.spell_out(gate, circ.width))


def _append_mcz(circ: GateCircuit, qubits):
    """Phase-flip the all-ones state of ``qubits``."""
    qs = tuple(qubits)
    if len(qs) == 1:
        circ.append(g.z(qs[0]))
    else:
        _append_multi(circ, g.mcz(*qs))


def _append_mcx(circ: GateCircuit, controls, target: int):
    """Flip ``target`` when every control is one; callers pass at least
    one control."""
    _append_multi(circ, g.mcx(*controls, target))


def _append_cry(circ: GateCircuit, theta: float, control: int, target: int):
    # controlled Ry via two half rotations around a CNOT pair
    circ.append(g.ry(theta / 2, target))
    circ.append(g.cnot(control, target))
    circ.append(g.ry(-theta / 2, target))
    circ.append(g.cnot(control, target))


def _fourier_ops(kind, qubits):
    """The QFT or IQFT (``kind``) over ``qubits``, least significant
    first, as one native gate; over one qubit both are its Hadamard."""
    qs = tuple(qubits)
    return [g.Gate(kind, qs)] if len(qs) > 1 else [g.h(qs[0])]


def modular_multiply_matrix(a: int, modulus: int) -> np.ndarray:
    """Permutation unitary |x> -> |a*x mod N> on ceil(log2 N) qubits.

    Basis states >= N are left fixed. Requires gcd(a, N) = 1 so the map
    permutes the residues, and N <= 2**UNITARY_WIDTH_CAP so the dense
    matrix stays small. The circuits apply the CMODMUL gate instead; this
    matrix is the reference it is checked against.
    """
    if modulus < 2:
        raise BadParamsError(f"modulus must be >= 2, got {modulus}")
    m = g.modular_width(modulus)
    if m > g.UNITARY_WIDTH_CAP:
        raise BadParamsError(
            f"modulus {modulus} needs {m} work qubits; the dense cap is "
            f"{g.UNITARY_WIDTH_CAP} (modulus <= {2 ** g.UNITARY_WIDTH_CAP})")
    if math.gcd(a, modulus) != 1:
        raise BadParamsError(
            f"multiplier {a} shares a factor with modulus {modulus}")
    dim = 2 ** m
    mat = np.zeros((dim, dim), dtype=complex)
    for x_ in range(dim):
        y = (a * x_) % modulus if x_ < modulus else x_
        mat[y, x_] = 1.0
    return mat


def phase_unitary(phase: float) -> np.ndarray:
    """diag(1, e^{2 pi i phase}): |1> carries eigenphase ``phase``."""
    return np.diag([1.0, np.exp(2j * np.pi * phase)]).astype(complex)


class ControlledPowers(NamedTuple):
    """A unitary as phase estimation controls it: the width of the work
    register it acts on, and ``gate(control, work, power)``, the one gate
    that applies its ``power``-th power to ``work`` when ``control`` is
    one."""

    width: int
    gate: Callable

    @classmethod
    def dense(cls, mat) -> "ControlledPowers":
        """A matrix a caller supplies: CONTROLLED_U, raised to the power
        by ``gates.controlled_power``."""
        mat = np.asarray(mat, dtype=complex)
        return cls(mat.shape[0].bit_length() - 1,
                   lambda control, work, power:
                   g.controlled_u(mat, control, work, power))

    @classmethod
    def phase(cls, phase: float) -> "ControlledPowers":
        """``phase_unitary(phase)``: a CPHASE by 2 pi times the fractional
        part of phase * power, taken exactly for a power of two (and
        reduced first, so a large power cannot overflow it)."""
        turn = math.fmod(phase, 1.0)
        return cls(1, lambda control, work, power: g.cphase(
            2 * math.pi * math.fmod(turn * power, 1.0), control, work[0]))

    @classmethod
    def modular(cls, a: int, modulus: int) -> "ControlledPowers":
        """``modular_multiply_matrix(a, modulus)``: a CMODMUL gate, no
        matrix."""
        return cls(g.modular_width(modulus),
                   lambda control, work, power:
                   g.cmodmul(a, modulus, control, work, power))


def _modular_from_params(p: _Params, controls: int) -> ControlledPowers:
    """The modular multiply by 'a' modulo 'modulus', its work register
    beside ``controls`` control qubits within WIDTH_CAP."""
    a = p.int("a", lo=1)
    modulus = p.int("modulus", lo=2)
    m = g.modular_width(modulus)
    if controls + m > WIDTH_CAP:
        p._err(f"modulus {modulus} needs {m} work qubits; with {controls} "
               f"control qubit(s) that exceeds the width cap {WIDTH_CAP}")
    if math.gcd(a, modulus) != 1:
        p._err(f"multiplier {a} shares a factor with modulus {modulus}")
    return ControlledPowers.modular(a, modulus)


def _unitary_from_params(p: _Params, controls: int) -> ControlledPowers:
    """Shared unitary selection for the phase-estimation primitives, whose
    work register sits beside ``controls`` control qubits."""
    has_phase = p.has("phase")
    has_mod = p.has("a") or p.has("modulus")
    if has_phase and has_mod:
        p._err("give either 'phase' or 'a'+'modulus', not both")
    if has_phase:
        return ControlledPowers.phase(p.float("phase"))
    if has_mod:
        return _modular_from_params(p, controls)
    p._err("needs 'phase' or 'a'+'modulus' to define the unitary")


# builders


def _record(circ, sites=None, work=None, anc=(), fresh=False):
    """Record of ``circ``: ``work`` (every qubit by default) is its in and
    out port, ``anc`` its internal qubits, and a ``fresh`` register has no
    in port. Width, classical bits, measurement and the theta count (one
    per site list) are read off the circuit and ``sites``."""
    work = tuple(range(circ.width)) if work is None else tuple(work)
    measures = circ.classical_bits > 0
    out_measured = measures and any(
        op.kind is g.GateKind.MEASURE and op.qubits[0] in work
        for op in circ.ops)
    sites = sites or []
    spec = PortSpec(width=circ.width, in_qubits=() if fresh else work,
                    out_qubits=work, anc_qubits=tuple(anc),
                    classical_out=circ.classical_bits, measures=measures,
                    out_measured=out_measured, theta_count=len(sites))
    return Lowered(circ, spec, sites)


def _basis_states(p):
    n = p.int("n", lo=1, hi=WIDTH_CAP)
    value = p.int("value", lo=0, hi=2 ** n - 1)
    circ = GateCircuit(n)
    for q in range(n):
        if (value >> q) & 1:
            circ.append(g.x(q))
    return _record(circ)


def _superposition(p):
    n = p.int("n", lo=1, hi=WIDTH_CAP)
    circ = GateCircuit(n)
    for q in range(n):
        circ.append(g.h(q))
    return _record(circ)


def _arbitrary_state(p):
    theta = p.float("theta")
    phi = p.float("phi")
    lam = p.float("lam", 0.0)
    circ = GateCircuit(1)
    circ.append(g.rz(lam, 0))
    circ.append(g.ry(theta, 0))
    circ.append(g.rz(phi, 0))
    return _record(circ)


_BELL_DRESSING = {
    "phi_plus": (), "phi_minus": (g.z(0),),
    "psi_plus": (g.x(1),), "psi_minus": (g.x(1), g.z(1)),
}


def _bell(p):
    variant = p.str("variant", "phi_plus", choices=set(_BELL_DRESSING))
    circ = GateCircuit(2)
    circ.append(g.h(0))
    circ.append(g.cnot(0, 1))
    circ.extend(_BELL_DRESSING[variant])
    return _record(circ)


def _ghz(p):
    n = p.int("n", lo=2, hi=WIDTH_CAP)
    circ = GateCircuit(n)
    circ.append(g.h(0))
    for q in range(n - 1):
        circ.append(g.cnot(q, q + 1))
    return _record(circ)


def _cluster(p):
    n = p.int("n", lo=2, hi=WIDTH_CAP)
    edges = p.pair_list("edges", n)
    circ = GateCircuit(n)
    for q in range(n):
        circ.append(g.h(q))
    for a, b in edges:
        circ.append(g.cz(a, b))
    return _record(circ)


def _w_state(p):
    n = p.int("n", lo=2, hi=WIDTH_CAP)
    circ = GateCircuit(n)
    circ.append(g.x(0))
    for k in range(n - 1):
        # rotate the remaining excitation weight onto qubit k+1
        theta = 2.0 * math.acos(math.sqrt(1.0 / (n - k)))
        _append_cry(circ, theta, k, k + 1)
        circ.append(g.cnot(k + 1, k))
    return _record(circ)


def _on_value(circ, n, value, append, *args):
    """``append(circ, *args)`` between X gates on the qubits below ``n``
    that are 0 in ``value``: gates that act on the all-ones state of those
    qubits then act on ``value`` instead."""
    dress = [g.x(q) for q in range(n) if not (value >> q) & 1]
    circ.extend(dress)
    append(circ, *args)
    circ.extend(dress)


def _phase_mark(circ, n, value):
    """Phase-flip basis state ``value`` of the qubits below ``n``."""
    _on_value(circ, n, value, _append_mcz, range(n))


def _phase_oracle_parts(p, lo=1):
    n = p.int("n", lo=lo, hi=WIDTH_CAP)
    marked = p.int_list("marked", lo=0, hi=2 ** n - 1, distinct=True)
    if not marked:
        p._err("'marked' must list at least one basis state")
    return n, marked


def _phase_oracle(p):
    n, marked = _phase_oracle_parts(p)
    circ = GateCircuit(n)
    for value in marked:
        _phase_mark(circ, n, value)
    return _record(circ)


def _diffusion_ops(circ, n):
    """Reflect about the uniform state: H on every qubit around a phase
    flip of |0...0>."""
    hs = [g.h(q) for q in range(n)]
    circ.extend(hs)
    _phase_mark(circ, n, 0)
    circ.extend(hs)


def _diffusion(p):
    n = p.int("n", lo=1, hi=WIDTH_CAP)
    circ = GateCircuit(n)
    _diffusion_ops(circ, n)
    return _record(circ)


def _reflection(p):
    n = p.int("n", lo=1, hi=WIDTH_CAP)
    state = p.int("state", lo=0, hi=2 ** n - 1)
    circ = GateCircuit(n)
    _phase_mark(circ, n, state)
    return _record(circ)


def _grover_operator(p):
    n, marked = _phase_oracle_parts(p, lo=2)
    # one iteration is built and checked once (at n=24, 512 iterations
    # realize in about 5 ms); the cap bounds the op list that flatten,
    # decompose and run walk
    iterations = p.int("iterations", 1, lo=1, hi=512)
    one = GateCircuit(n)
    for value in marked:
        _phase_mark(one, n, value)
    _diffusion_ops(one, n)
    # the iterations share one iteration's immutable gates
    return _record(GateCircuit.trusted(n, one.ops * iterations))


def _qft(p):
    n = p.int("n", lo=1, hi=WIDTH_CAP)
    return _record(GateCircuit(n, _fourier_ops(g.GateKind.QFT, range(n))))


def _inverse_qft(p):
    n = p.int("n", lo=1, hi=WIDTH_CAP)
    return _record(GateCircuit(n, _fourier_ops(g.GateKind.IQFT, range(n))))


def _approx_qft(p):
    """The QFT ladder without the rotations that span ``cutoff`` qubits
    or more; a cutoff that drops none gives the QFT itself."""
    n = p.int("n", lo=1, hi=WIDTH_CAP)
    cutoff = p.int("cutoff", lo=1)
    ops = (_fourier_ops(g.GateKind.QFT, range(n)) if cutoff >= n
           else g.qft_ops(range(n), cutoff))
    return _record(GateCircuit(n, ops))


def _bitflip_from_marked(n, marked):
    """Flip result qubit ``n`` on each marked state of the qubits below
    it."""
    circ = GateCircuit(n + 1)
    for value in marked:
        _on_value(circ, n, value, _append_mcx, range(n), n)
    return _record(circ)


def _bitflip_oracle(p):
    n, marked = _phase_oracle_parts(p)
    return _bitflip_from_marked(n, marked)


def _arithmetic_oracle(p):
    unitary = _modular_from_params(p, 1)
    power = p.int("power", 1, lo=1)
    m = unitary.width
    return _record(GateCircuit(1 + m, [unitary.gate(0, range(1, 1 + m),
                                                    power)]))


def _boolean_oracle(p):
    n = p.int("n", lo=1, hi=16)
    table = p.int_list("truth_table", lo=0, hi=1)
    if len(table) != 2 ** n:
        p._err(f"'truth_table' must have {2 ** n} entries, got {len(table)}")
    marked = [i for i, bit in enumerate(table) if bit]
    return _bitflip_from_marked(n, marked)


def qpe_circuit(unitary: ControlledPowers, t_bits: int) -> GateCircuit:
    """Standard phase estimation of ``unitary`` without readout.

    Counting qubits 0..t_bits-1 take Hadamards and control the powers
    ``unitary**(2**k)`` on the work register above them; an inverse QFT,
    one IQFT gate from two counting qubits on, leaves the phase digits
    on the counting register.
    """
    width = t_bits + unitary.width
    work = range(t_bits, width)
    circ = GateCircuit(width)
    for k in range(t_bits):
        circ.append(g.h(k))
    for k in range(t_bits):
        circ.append(unitary.gate(k, work, 2 ** k))
    circ.extend(_fourier_ops(g.GateKind.IQFT, range(t_bits)))
    return circ


def qpe_round(unitary: ControlledPowers, power: int,
              feedback: float) -> GateCircuit:
    """One iterative phase-estimation round on ancilla qubit 0.

    Applies ``unitary**power`` controlled by the ancilla, rotates it by
    the ``feedback`` angle from bits already found, and measures it.
    """
    width = 1 + unitary.width
    circ = GateCircuit(width)
    circ.append(g.h(0))
    circ.append(unitary.gate(0, range(1, width), power))
    if feedback != 0.0:
        circ.append(g.phase(feedback, 0))
    circ.append(g.h(0))
    circ.append(g.measure(0, 0))
    return circ


def _standard_qpe(p):
    t_bits = p.int("t", lo=1, hi=20)
    unitary = _unitary_from_params(p, t_bits)
    circ = qpe_circuit(unitary, t_bits)
    for k in range(t_bits):
        circ.append(g.measure(k, k))
    return _record(circ, work=range(t_bits, circ.width), anc=range(t_bits))


def _iterative_qpe(p):
    k = p.int("k", 0, lo=0, hi=62)
    feedback = p.float("feedback", 0.0)
    unitary = _unitary_from_params(p, 1)
    return _record(qpe_round(unitary, 2 ** k, feedback),
                   work=range(1, 1 + unitary.width), anc=(0,))


def _hardware_efficient(p):
    n = p.int("n", lo=2, hi=WIDTH_CAP)
    layers = p.int("layers", lo=1)
    thetas = p.float_list("thetas", length=2 * n * layers)
    return _build_heuristic(n, layers, ("ry", "rz"), "chain", thetas)


def _problem_inspired(p):
    n = p.int("n", lo=2, hi=WIDTH_CAP)
    edges = p.pair_list("edges", n)
    gammas = p.float_list("gammas")
    betas = p.float_list("betas", length=len(gammas))
    if not gammas:
        p._err("'gammas' must have at least one layer")
    layers = len(gammas)
    circ = GateCircuit(n)
    sites = [[] for _ in range(2 * layers)]
    for q in range(n):
        circ.append(g.h(q))  # alternating layers act on the uniform state
    for layer in range(layers):
        for a, b in edges:
            # exp(-i gamma Z_a Z_b) as a CNOT-conjugated Rz
            circ.append(g.cnot(a, b))
            sites[layer].append((len(circ.ops), 2.0))
            circ.append(g.rz(2.0 * gammas[layer], b))
            circ.append(g.cnot(a, b))
        for q in range(n):
            sites[layers + layer].append((len(circ.ops), 2.0))
            circ.append(g.rx(2.0 * betas[layer], q))
    return _record(circ, sites)


_DEFAULT_BLOCKS_4Q = (
    # two singles-style excitations driven by theta 0
    ("XZYI", 0, 0.5), ("YZXI", 0, -0.5),
    ("IXZY", 0, 0.5), ("IYZX", 0, -0.5),
    # one doubles-style excitation driven by theta 1
    ("XXXY", 1, 0.125), ("XXYX", 1, 0.125),
    ("XYXX", 1, 0.125), ("YXXX", 1, 0.125),
    ("XYYY", 1, -0.125), ("YXYY", 1, -0.125),
    ("YYXY", 1, -0.125), ("YYYX", 1, -0.125),
)


def _pauli_block(circ, sites, string, angle_scale, theta, theta_idx):
    """exp(-i * (scale * theta / 2) * P) for a Pauli string P."""
    active = [(q, c) for q, c in enumerate(string) if c != "I"]
    pre, post = [], []
    for q, c in active:
        if c == "X":
            pre.append(g.h(q))
            post.append(g.h(q))
        elif c == "Y":
            pre.append(g.rx(math.pi / 2, q))
            post.append(g.rx(-math.pi / 2, q))
    qs = [q for q, _ in active]
    circ.extend(pre)
    for i in range(len(qs) - 1):
        circ.append(g.cnot(qs[i], qs[i + 1]))
    sites[theta_idx].append((len(circ.ops), angle_scale))
    circ.append(g.rz(angle_scale * theta, qs[-1]))
    for i in range(len(qs) - 2, -1, -1):
        circ.append(g.cnot(qs[i], qs[i + 1]))
    circ.extend(post)


def _normalize_blocks(p, n, theta_count, raw_blocks):
    if not isinstance(raw_blocks, (list, tuple)):
        p._err(f"'blocks' must be a list, got {raw_blocks!r}")
    blocks = []
    for item in raw_blocks:
        if (not isinstance(item, (list, tuple)) or len(item) != 3):
            p._err(f"'blocks' entries must be (pauli, theta_index, "
                   f"coefficient), got {item!r}")
        string, idx, coeff = item
        if (not isinstance(string, str) or len(string) != n
                or any(c not in "IXYZ" for c in string)
                or set(string) == {"I"}):
            p._err(f"'blocks' pauli string {string!r} invalid for n={n}")
        if isinstance(idx, bool) or not isinstance(idx, int) \
                or not 0 <= idx < theta_count:
            p._err(f"'blocks' theta index {idx!r} outside 0.."
                   f"{theta_count - 1}")
        number = finite_real(coeff)
        if number is None:
            p._err(f"'blocks' coefficient {coeff!r} must be a finite number")
        blocks.append((string, idx, number))
    return blocks


def _uccsd(p):
    n = p.int("n", lo=2, hi=WIDTH_CAP)
    thetas = p.float_list("thetas")
    if not thetas:
        p._err("'thetas' must not be empty")
    if p.has("blocks"):
        raw = p._fetch("blocks", _MISSING)
        blocks = _normalize_blocks(p, n, len(thetas), raw)
    else:
        if n != 4 or len(thetas) != 2:
            p._err("default excitation blocks need n=4 and 2 thetas; "
                   "pass 'blocks' explicitly otherwise")
        blocks = _DEFAULT_BLOCKS_4Q
    circ = GateCircuit(n)
    sites = [[] for _ in thetas]
    for string, idx, coeff in blocks:
        _pauli_block(circ, sites, string, coeff, thetas[idx], idx)
    return _record(circ, sites)


_ROTATION_BUILDERS = {"rx": g.rx, "ry": g.ry, "rz": g.rz}


def _heuristic(p):
    n = p.int("n", lo=2, hi=WIDTH_CAP)
    layers = p.int("layers", lo=1)
    rotations = p._fetch("rotations", ["ry", "rz"])
    if (not isinstance(rotations, (list, tuple)) or not rotations
            or any(not isinstance(r, str) or r not in _ROTATION_BUILDERS
                   for r in rotations)):
        p._err(f"'rotations' must list kinds from "
               f"{sorted(_ROTATION_BUILDERS)}, got {rotations!r}")
    entangler = p.str("entangler", "chain", choices={"chain", "ring"})
    thetas = p.float_list("thetas", length=layers * n * len(rotations))
    return _build_heuristic(n, layers, tuple(rotations), entangler, thetas)


def _build_heuristic(n, layers, rotations, entangler, thetas):
    circ = GateCircuit(n)
    sites = [[] for _ in thetas]
    idx = 0
    for _ in range(layers):
        for q in range(n):
            for rot in rotations:
                sites[idx].append((len(circ.ops), 1.0))
                circ.append(_ROTATION_BUILDERS[rot](thetas[idx], q))
                idx += 1
        for q in range(n - 1):
            circ.append(g.cnot(q, q + 1))
        if entangler == "ring" and n > 2:
            circ.append(g.cnot(n - 1, 0))
    return _record(circ, sites)


def _hamiltonian(p):
    n = p.int("n", lo=2, hi=WIDTH_CAP)
    periodic = p.bool("periodic", False)
    # the variational path is bounded by its thetas; a fixed-angle step is
    # built once (at n=24, 1024 periodic steps realize in about 2.5 ms),
    # and the cap bounds the op list that flatten, decompose and run walk
    steps = p.int("steps", 1, lo=1, hi=None if p.has("thetas") else 1024)
    if p.has("thetas"):
        thetas = p.float_list("thetas", length=2 * steps)
        return _build_hamiltonian_variational(n, periodic, steps, thetas)
    coupling = p.float("coupling", 1.0)
    field_ = p.float("field", 1.0)
    dt = p.float("dt")
    one = _build_hamiltonian_variational(
        n, periodic, 1, [2.0 * coupling * dt, 2.0 * field_ * dt]).circuit
    # every step shares one step's immutable gates; fixed angles are not
    # variational, so the record keeps no sites
    return _record(GateCircuit.trusted(n, one.ops * steps))


def _build_hamiltonian_variational(n, periodic, steps, thetas):
    circ = GateCircuit(n)
    sites = [[] for _ in thetas]
    bonds = [(q, q + 1) for q in range(n - 1)]
    if periodic and n > 2:
        bonds.append((n - 1, 0))
    for step in range(steps):
        zz_idx, x_idx = 2 * step, 2 * step + 1
        for a, b in bonds:
            circ.append(g.cnot(a, b))
            sites[zz_idx].append((len(circ.ops), 1.0))
            circ.append(g.rz(thetas[zz_idx], b))
            circ.append(g.cnot(a, b))
        for q in range(n):
            sites[x_idx].append((len(circ.ops), 1.0))
            circ.append(g.rx(thetas[x_idx], q))
    return _record(circ, sites)


def _one_gate(p, keys, make, *args):
    """Record of the one gate ``make(*args, *qubits)`` on the distinct
    qubits that ``keys`` (key -> default) name, in a register ``n`` that
    is by default just wide enough."""
    qubits = [p.int(key, default, lo=0) for key, default in keys.items()]
    if len(set(qubits)) != len(qubits):
        p._err(f"{', '.join(map(repr, keys))} must be distinct")
    hi = max(qubits) + 1
    n = p.int("n", hi, lo=hi)
    return _record(GateCircuit(n, [make(*args, *qubits)]))


def _swap_gate(p):
    return _one_gate(p, {"i": 0, "j": 1}, g.swap)


_CONTROLLED_OPS = {"x": g.cnot, "z": g.cz, "phase": g.cphase}


def _controlled_op(p):
    op = p.str("op", "x", choices=set(_CONTROLLED_OPS))
    theta = p.float("theta", None)
    if op == "phase" and theta is None:
        p._err("op='phase' needs 'theta'")
    if op != "phase" and theta is not None:
        p._err(f"op={op!r} takes no 'theta'")
    angle = () if theta is None else (theta,)
    return _one_gate(p, {"control": 0, "target": 1}, _CONTROLLED_OPS[op],
                     *angle)


def _toffoli_gate(p):
    return _one_gate(p, {"c1": 0, "c2": 1, "target": 2}, g.toffoli)


def _measurement(p):
    n = p.int("n", lo=1, hi=WIDTH_CAP)
    circ = GateCircuit(n)
    for q in range(n):
        circ.append(g.measure(q, q))
    return _record(circ)


def _ancilla_management(p):
    count = p.int("count", lo=1, hi=WIDTH_CAP)
    p.int("released", count, lo=0, hi=count)  # ledger knob, no gates
    return _record(GateCircuit(count), fresh=True)


_BUILDERS = {
    1: _basis_states, 2: _superposition, 3: _arbitrary_state, 4: _bell,
    5: _ghz, 6: _cluster, 7: _bell, 8: _ghz, 9: _w_state, 10: _cluster,
    11: _grover_operator, 12: _diffusion, 13: _reflection,
    15: _qft, 16: _inverse_qft, 17: _approx_qft,
    18: _phase_oracle, 19: _bitflip_oracle, 20: _arithmetic_oracle,
    21: _boolean_oracle, 22: _standard_qpe, 23: _iterative_qpe,
    25: _hardware_efficient, 26: _problem_inspired, 27: _uccsd,
    28: _heuristic, 29: _hamiltonian,
    30: _swap_gate, 31: _controlled_op, 32: _toffoli_gate, 33: _measurement,
    34: _ancilla_management,
}

#: The catalog's variational ansatz block. An ansatz's flat parameter vector
#: joins its VARIATIONAL params in catalog order (id 26: gammas then betas).
ANSATZ_IDS = tuple(d.id for d in all_primitives()
                   if d.category is FunctionalCategory.VARIATIONAL_ANSATZ)


def realize(primitive_id: int, params=None) -> Lowered:
    """Build the full lowering record for a primitive; a parameter key
    that its builder did not read is a BadParamsError."""
    desc = get_primitive(primitive_id)
    if not desc.lowerable:
        raise NotLowerableError(
            f"{desc.name} (id {desc.id}) has no gate-level realization")
    p = _Params(primitive_id, params)
    low = _BUILDERS[primitive_id](p)
    p.finish()
    return low


def lower(primitive_id: int, params=None) -> GateCircuit:
    """Gate-level circuit of a primitive."""
    return realize(primitive_id, params).circuit


def port_spec(primitive_id: int, params=None) -> PortSpec:
    """Register layout of a primitive's lowering."""
    return realize(primitive_id, params).spec


def ansatz_theta_count(primitive_id: int, structure=None) -> int:
    """Length of the flat parameter vector of a variational primitive, as
    its builder counts it: each variational param ``structure`` leaves out
    is filled with as many zeros as the structure implies (one layer of
    gammas for id 26, two thetas for id 27). A structure the builder
    refuses raises its BadParamsError; so does one of more than 2**16
    params, which is not built."""
    params = dict(structure or {})
    names = _flat_layout(primitive_id)
    get = params.get
    # only integers are multiplied, so no malformed value grows a sequence
    whole = {key: value for key, value in params.items()
             if isinstance(value, int) and not isinstance(value, bool)}
    try:
        size = {25: lambda: 2 * whole["n"] * whole["layers"],
                26: lambda: len(get("gammas", [0.0])),
                27: lambda: len(get("thetas", [0.0, 0.0])),
                28: lambda: whole["layers"] * whole["n"]
                * len(get("rotations", ["ry", "rz"])),
                29: lambda: 2 * whole.get("steps", 1)}[primitive_id]()
    except (KeyError, TypeError):  # the builder says what is wrong
        size = 0
    zeros = [0.0] * size if size <= 1 << 16 else []
    for name in names:
        params.setdefault(name, zeros)
    return len(realize(primitive_id, params).sites)


# realized ansatz records that ``realize_ansatz`` binds angles on, at most
# this many, the oldest dropped first
_TEMPLATE_SLOTS = 16
_TEMPLATES = {}  # (id, flat length, frozen structure) -> Lowered


def realize_ansatz(primitive_id: int, structure, flat_thetas) -> Lowered:
    """Lower a variational primitive from a flat parameter vector.

    ``structure`` holds the non-variational parameters. The returned record
    carries one site list per flat parameter for the shift rule.

    A structure realized before, at the same flat length, is not built
    again: finite angles are bound on the record kept for it, each site's
    gate copied at angle scale * theta (the ``Lowered.sites`` contract). Any
    other call goes through ``realize``, so every error comes from there.
    Each call returns its own record over a new op list.
    """
    names = _flat_layout(primitive_id)
    flat = [float(v) for v in flat_thetas]
    size, rest = divmod(len(flat), len(names))
    if rest:
        raise BadParamsError(
            f"flat vector for id {primitive_id} must hold "
            f"{' then '.join(names)}, equally many of each")
    # the flat vector sets every variational param, whatever ``structure``
    # holds for it, so those are no part of the key
    params = {key: value for key, value in dict(structure or {}).items()
              if key not in names}
    try:
        key = (primitive_id, len(flat), _frozen(params))
        template = _TEMPLATES.get(key)
    except TypeError:  # an unhashable value: nothing is kept
        key = template = None
    if template is not None and all(map(math.isfinite, flat)):
        return _bind(template, flat)
    for i, name in enumerate(names):
        params[name] = flat[i * size:(i + 1) * size]
    low = realize(primitive_id, params)
    if key is not None:
        if len(_TEMPLATES) >= _TEMPLATE_SLOTS:
            _TEMPLATES.pop(next(iter(_TEMPLATES)), None)
        _TEMPLATES[key] = _bind(low, flat)  # a copy no caller holds
    return low


def _frozen(value):
    """``value`` as a hashable key that keeps the type of every part, so
    2, 2.0 and True, or a list and a tuple, stay distinct."""
    if isinstance(value, dict):
        return dict, frozenset((k, _frozen(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(_frozen, value))
    return type(value), value


def _bind(low, flat):
    """A new record of ``low`` with each site's gate at scale * theta."""
    ops = list(low.circuit.ops)
    for theta, sites in zip(flat, low.sites):
        for pos, scale in sites:
            ops[pos] = ops[pos]._at(scale * theta)
    circuit = low.circuit
    return Lowered(GateCircuit.trusted(circuit.width, ops,
                                       circuit.classical_bits,
                                       circuit.allow_mid_measure),
                   low.spec, [list(sites) for sites in low.sites])


def initial_thetas(primitive_id: int, params) -> list:
    """The flat parameter vector an ansatz's params start from, in the
    layout ``realize_ansatz`` reads."""
    names = _flat_layout(primitive_id)
    if not all(params.get(name) for name in names):
        raise BadParamsError("needs initial "
                             + " and ".join(f"'{name}'" for name in names))
    return [float(v) for name in names for v in params[name]]


def _flat_layout(primitive_id: int) -> list:
    """Names of an ansatz's variational params, in flat-vector order."""
    desc = get_primitive(primitive_id)  # an unknown id raises here
    if primitive_id not in ANSATZ_IDS:
        raise BadParamsError(
            f"primitive {primitive_id} is not a variational ansatz; "
            f"expected one of {list(ANSATZ_IDS)}")
    return [p.name for p in desc.params if p.kind is ParameterKind.VARIATIONAL]
