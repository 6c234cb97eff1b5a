"""Gate-level realizations of the catalog primitives.

Every lowerable primitive builds a GateCircuit from a parameter dict. The
full record (circuit, register roles, variational sites) is produced by
``realize``; ``lower`` returns just the circuit and ``port_spec`` just the
register layout.

Multi-controlled phase/NOT gates over c >= 3 controls use a Toffoli ladder
with c-1 clean scratch qubits (compute the AND chain, apply, uncompute), so
oracle and diffusion gate counts stay linear in the register size. Scratch
qubits are allocated above the main register and returned to |0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gates as g
from .catalog import all_primitives, get_primitive
from .core import FunctionalCategory, ParameterKind
from .errors import BadParamsError, NotLowerableError
from .gates import GateCircuit

_MISSING = object()


class _Params:
    """Typed accessor over a raw parameter dict; rejects leftovers."""

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
        if v is default and not isinstance(default, int):
            return v
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
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self._err(f"'{key}' must be a number, got {v!r}")
        return float(v)

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

    def int_list(self, key, default=_MISSING, lo=None, hi=None,
                 distinct=False):
        v = self._fetch(key, default)
        if v is default and not isinstance(default, (list, tuple)):
            return v
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

    def float_list(self, key, default=_MISSING, length=None):
        v = self._fetch(key, default)
        if v is None:
            return v
        if not isinstance(v, (list, tuple)):
            self._err(f"'{key}' must be a list, got {v!r}")
        out = []
        for item in v:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                self._err(f"'{key}' must contain numbers, got {item!r}")
            out.append(float(item))
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
    scratch qubits allocated and returned internally; ``classical_out`` is
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


def _and_ladder(circ: GateCircuit, controls, target: int, scratch_base: int,
                two_qubit):
    """Compute the AND of three or more ``controls`` into scratch, apply
    ``two_qubit(last scratch qubit, target)``, and uncompute."""
    c = len(controls)
    anc = [scratch_base + i for i in range(c - 1)]
    forward = [g.toffoli(controls[0], controls[1], anc[0])]
    for i in range(2, c):
        forward.append(g.toffoli(controls[i], anc[i - 2], anc[i - 1]))
    circ.extend(forward)
    circ.append(two_qubit(anc[c - 2], target))
    circ.extend(reversed(forward))


def _append_mcz(circ: GateCircuit, qubits, scratch_base: int):
    """Phase-flip the all-ones state of ``qubits``."""
    qs = list(qubits)
    m = len(qs)
    if m == 1:
        circ.append(g.z(qs[0]))
        return
    if m == 2:
        circ.append(g.cz(qs[0], qs[1]))
        return
    if m == 3:
        circ.append(g.h(qs[2]))
        circ.append(g.toffoli(qs[0], qs[1], qs[2]))
        circ.append(g.h(qs[2]))
        return
    _and_ladder(circ, qs[:-1], qs[-1], scratch_base, g.cz)


def _append_mcx(circ: GateCircuit, controls, target: int, scratch_base: int):
    """Flip ``target`` when every control is one; callers pass at least
    one control."""
    cs = list(controls)
    c = len(cs)
    if c == 1:
        circ.append(g.cnot(cs[0], target))
        return
    if c == 2:
        circ.append(g.toffoli(cs[0], cs[1], target))
        return
    _and_ladder(circ, cs, target, scratch_base, g.cnot)


def _ladder_scratch(control_count: int) -> int:
    # the ladder over c >= 3 controls needs c-1 scratch qubits
    return control_count - 1 if control_count >= 3 else 0


def _append_cry(circ: GateCircuit, theta: float, control: int, target: int):
    # controlled Ry via two half rotations around a CNOT pair
    circ.append(g.ry(theta / 2, target))
    circ.append(g.cnot(control, target))
    circ.append(g.ry(-theta / 2, target))
    circ.append(g.cnot(control, target))


def _qft_ops(qubits, cutoff=None):
    """Fourier ladder over the listed qubits, most significant first.

    With a ``cutoff``, only rotations spanning fewer qubits are kept.
    """
    qs = list(qubits)
    n = len(qs)
    ops = []
    for j in range(n - 1, -1, -1):
        ops.append(g.h(qs[j]))
        for m in range(j - 1, -1, -1):
            if cutoff is None or j - m < cutoff:
                ops.append(g.cphase(math.pi / 2 ** (j - m), qs[m], qs[j]))
    for i in range(n // 2):
        ops.append(g.swap(qs[i], qs[n - 1 - i]))
    return ops


def _inverse_ops(ops):
    inv = GateCircuit(max(max(op.qubits) for op in ops) + 1, list(ops))
    return list(g.dagger(inv).ops)


def modular_multiply_matrix(a: int, modulus: int) -> np.ndarray:
    """Permutation unitary |x> -> |a*x mod N> on ceil(log2 N) qubits.

    Basis states >= N are left fixed. Requires gcd(a, N) = 1 so the map
    permutes the residues, and N <= 2**UNITARY_WIDTH_CAP so the dense
    matrix stays small.
    """
    if modulus < 2:
        raise BadParamsError(f"modulus must be >= 2, got {modulus}")
    m = max(1, (modulus - 1).bit_length())
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


def _unitary_from_params(p: _Params):
    """Shared unitary selection for the phase-estimation primitives."""
    has_phase = p.has("phase")
    has_mod = p.has("a") or p.has("modulus")
    if has_phase and has_mod:
        p._err("give either 'phase' or 'a'+'modulus', not both")
    if has_phase:
        return phase_unitary(p.float("phase")), 1
    if has_mod:
        a = p.int("a", lo=1)
        modulus = p.int("modulus", lo=2)
        mat = modular_multiply_matrix(a, modulus)
        return mat, int(math.log2(mat.shape[0]))
    p._err("needs 'phase' or 'a'+'modulus' to define the unitary")


# builders


def _simple(circ, n, measures=False, classical=0, theta_count=0, sites=None,
            anc=()):
    main = tuple(q for q in range(circ.width) if q not in set(anc))
    spec = PortSpec(width=circ.width, in_qubits=main, out_qubits=main,
                    anc_qubits=tuple(anc), classical_out=classical,
                    measures=measures, out_measured=measures,
                    theta_count=theta_count)
    return Lowered(circ, spec, sites or [])


def _basis_states(p):
    n = p.int("n", lo=1, hi=24)
    value = p.int("value", lo=0, hi=2 ** n - 1)
    p.finish()
    circ = GateCircuit(n)
    for q in range(n):
        if (value >> q) & 1:
            circ.append(g.x(q))
    return _simple(circ, n)


def _superposition(p):
    n = p.int("n", lo=1, hi=24)
    p.finish()
    circ = GateCircuit(n)
    for q in range(n):
        circ.append(g.h(q))
    return _simple(circ, n)


def _arbitrary_state(p):
    theta = p.float("theta")
    phi = p.float("phi")
    lam = p.float("lam", 0.0)
    p.finish()
    circ = GateCircuit(1)
    circ.append(g.rz(lam, 0))
    circ.append(g.ry(theta, 0))
    circ.append(g.rz(phi, 0))
    return _simple(circ, 1)


_BELL_DRESSING = {
    "phi_plus": (), "phi_minus": ("z0",),
    "psi_plus": ("x1",), "psi_minus": ("x1", "z1"),
}


def _bell(p):
    variant = p.str("variant", "phi_plus", choices=set(_BELL_DRESSING))
    p.finish()
    circ = GateCircuit(2)
    circ.append(g.h(0))
    circ.append(g.cnot(0, 1))
    for tag in _BELL_DRESSING[variant]:
        circ.append({"z0": g.z(0), "x1": g.x(1), "z1": g.z(1)}[tag])
    return _simple(circ, 2)


def _ghz(p):
    n = p.int("n", lo=2, hi=24)
    p.finish()
    circ = GateCircuit(n)
    circ.append(g.h(0))
    for q in range(n - 1):
        circ.append(g.cnot(q, q + 1))
    return _simple(circ, n)


def _cluster(p):
    n = p.int("n", lo=2, hi=24)
    edges = p.pair_list("edges", n)
    p.finish()
    circ = GateCircuit(n)
    for q in range(n):
        circ.append(g.h(q))
    for a, b in edges:
        circ.append(g.cz(a, b))
    return _simple(circ, n)


def _w_state(p):
    n = p.int("n", lo=2, hi=24)
    p.finish()
    circ = GateCircuit(n)
    circ.append(g.x(0))
    for k in range(n - 1):
        # rotate the remaining excitation weight onto qubit k+1
        theta = 2.0 * math.acos(math.sqrt(1.0 / (n - k)))
        _append_cry(circ, theta, k, k + 1)
        circ.append(g.cnot(k + 1, k))
    return _simple(circ, n)


def _phase_mark(circ, n, value, scratch_base):
    dress = [q for q in range(n) if not (value >> q) & 1]
    for q in dress:
        circ.append(g.x(q))
    _append_mcz(circ, range(n), scratch_base)
    for q in dress:
        circ.append(g.x(q))


def _phase_oracle_parts(p):
    n = p.int("n", lo=1, hi=24)
    marked = p.int_list("marked", lo=0, hi=2 ** n - 1, distinct=True)
    if not marked:
        p._err("'marked' must list at least one basis state")
    return n, marked


def _phase_oracle(p):
    n, marked = _phase_oracle_parts(p)
    p.finish()
    scratch = _ladder_scratch(n - 1)
    circ = GateCircuit(n + scratch)
    for value in marked:
        _phase_mark(circ, n, value, n)
    return _simple(circ, n, anc=range(n, n + scratch))


def _diffusion_ops(circ, n, scratch_base):
    for q in range(n):
        circ.append(g.h(q))
    for q in range(n):
        circ.append(g.x(q))
    _append_mcz(circ, range(n), scratch_base)
    for q in range(n):
        circ.append(g.x(q))
    for q in range(n):
        circ.append(g.h(q))


def _diffusion(p):
    n = p.int("n", lo=1, hi=24)
    p.finish()
    scratch = _ladder_scratch(n - 1)
    circ = GateCircuit(n + scratch)
    _diffusion_ops(circ, n, n)
    return _simple(circ, n, anc=range(n, n + scratch))


def _reflection(p):
    n = p.int("n", lo=1, hi=24)
    state = p.int("state", lo=0, hi=2 ** n - 1)
    p.finish()
    scratch = _ladder_scratch(n - 1)
    circ = GateCircuit(n + scratch)
    _phase_mark(circ, n, state, n)
    return _simple(circ, n, anc=range(n, n + scratch))


def _grover_operator(p):
    n = p.int("n", lo=2, hi=24)
    marked = p.int_list("marked", lo=0, hi=2 ** n - 1, distinct=True)
    if not marked:
        p._err("'marked' must list at least one basis state")
    iterations = p.int("iterations", 1, lo=1)
    p.finish()
    scratch = _ladder_scratch(n - 1)
    circ = GateCircuit(n + scratch)
    for _ in range(iterations):
        for value in marked:
            _phase_mark(circ, n, value, n)
        _diffusion_ops(circ, n, n)
    return _simple(circ, n, anc=range(n, n + scratch))


def _qft(p):
    n = p.int("n", lo=1, hi=24)
    p.finish()
    circ = GateCircuit(n)
    circ.extend(_qft_ops(range(n)))
    return _simple(circ, n)


def _inverse_qft(p):
    n = p.int("n", lo=1, hi=24)
    p.finish()
    circ = GateCircuit(n)
    circ.extend(_inverse_ops(_qft_ops(range(n))))
    return _simple(circ, n)


def _approx_qft(p):
    n = p.int("n", lo=1, hi=24)
    cutoff = p.int("cutoff", lo=1)
    p.finish()
    circ = GateCircuit(n)
    circ.extend(_qft_ops(range(n), cutoff))
    return _simple(circ, n)


def _bitflip_from_marked(n, marked):
    target = n
    scratch = _ladder_scratch(n)
    circ = GateCircuit(n + 1 + scratch)
    for value in marked:
        dress = [q for q in range(n) if not (value >> q) & 1]
        for q in dress:
            circ.append(g.x(q))
        _append_mcx(circ, range(n), target, n + 1)
        for q in dress:
            circ.append(g.x(q))
    main = n + 1
    return _simple(circ, main, anc=range(main, main + scratch))


def _bitflip_oracle(p):
    n, marked = _phase_oracle_parts(p)
    p.finish()
    return _bitflip_from_marked(n, marked)


def _arithmetic_oracle(p):
    a = p.int("a", lo=1)
    modulus = p.int("modulus", lo=2)
    power = p.int("power", 1, lo=1)
    p.finish()
    mat = modular_multiply_matrix(a, modulus)
    m = int(math.log2(mat.shape[0]))
    circ = GateCircuit(1 + m)
    circ.append(g.controlled_u(mat, 0, list(range(1, 1 + m)), power=power))
    return _simple(circ, 1 + m)


def _boolean_oracle(p):
    n = p.int("n", lo=1, hi=16)
    table = p.int_list("truth_table", lo=0, hi=1)
    if len(table) != 2 ** n:
        p._err(f"'truth_table' must have {2 ** n} entries, got {len(table)}")
    p.finish()
    marked = [i for i, bit in enumerate(table) if bit]
    return _bitflip_from_marked(n, marked)


def qpe_circuit(mat, t_bits: int) -> GateCircuit:
    """Standard phase estimation of ``mat`` without readout.

    Counting qubits 0..t_bits-1 take Hadamards and control the powers
    ``mat**(2**k)`` on the work register above them; an inverse QFT
    leaves the phase digits on the counting register.
    """
    width = t_bits + int(math.log2(mat.shape[0]))
    work = list(range(t_bits, width))
    circ = GateCircuit(width)
    for k in range(t_bits):
        circ.append(g.h(k))
    for k in range(t_bits):
        circ.append(g.controlled_u(mat, k, work, power=2 ** k))
    circ.extend(_inverse_ops(_qft_ops(range(t_bits))))
    return circ


def qpe_round(mat, power: int, feedback: float) -> GateCircuit:
    """One iterative phase-estimation round on ancilla qubit 0.

    Applies ``mat**power`` controlled by the ancilla, rotates it by the
    ``feedback`` angle from bits already found, and measures it.
    """
    width = 1 + int(math.log2(mat.shape[0]))
    circ = GateCircuit(width)
    circ.append(g.h(0))
    circ.append(g.controlled_u(mat, 0, list(range(1, width)), power=power))
    if feedback != 0.0:
        circ.append(g.phase(feedback, 0))
    circ.append(g.h(0))
    circ.append(g.measure(0, 0))
    return circ


def _standard_qpe(p):
    t_bits = p.int("t", lo=1, hi=20)
    mat, m = _unitary_from_params(p)
    p.finish()
    circ = qpe_circuit(mat, t_bits)
    for k in range(t_bits):
        circ.append(g.measure(k, k))
    work = tuple(range(t_bits, t_bits + m))
    spec = PortSpec(width=circ.width, in_qubits=work, out_qubits=work,
                    anc_qubits=tuple(range(t_bits)), classical_out=t_bits,
                    measures=True)
    return Lowered(circ, spec, [])


def _iterative_qpe(p):
    k = p.int("k", 0, lo=0, hi=62)
    feedback = p.float("feedback", 0.0)
    mat, m = _unitary_from_params(p)
    p.finish()
    work = tuple(range(1, 1 + m))
    spec = PortSpec(width=1 + m, in_qubits=work, out_qubits=work,
                    anc_qubits=(0,), classical_out=1, measures=True)
    return Lowered(qpe_round(mat, 2 ** k, feedback), spec, [])


def _hardware_efficient(p):
    n = p.int("n", lo=2, hi=24)
    layers = p.int("layers", lo=1)
    thetas = p.float_list("thetas", length=2 * n * layers)
    p.finish()
    return _build_heuristic(n, layers, ("ry", "rz"), "chain", thetas)


def _problem_inspired(p):
    n = p.int("n", lo=2, hi=24)
    edges = p.pair_list("edges", n)
    gammas = p.float_list("gammas")
    betas = p.float_list("betas", length=len(gammas))
    if not gammas:
        p._err("'gammas' must have at least one layer")
    p.finish()
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
    return _simple(circ, n, theta_count=2 * layers, sites=sites)


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
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            p._err(f"'blocks' coefficient {coeff!r} must be a number")
        blocks.append((string, idx, float(coeff)))
    return blocks


def _uccsd(p):
    n = p.int("n", lo=2, hi=24)
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
    p.finish()
    circ = GateCircuit(n)
    sites = [[] for _ in thetas]
    for string, idx, coeff in blocks:
        _pauli_block(circ, sites, string, coeff, thetas[idx], idx)
    return _simple(circ, n, theta_count=len(thetas), sites=sites)


_ROTATION_BUILDERS = {"rx": g.rx, "ry": g.ry, "rz": g.rz}


def _heuristic(p):
    n = p.int("n", lo=2, hi=24)
    layers = p.int("layers", lo=1)
    rotations = p._fetch("rotations", ["ry", "rz"])
    if (not isinstance(rotations, (list, tuple)) or not rotations
            or any(not isinstance(r, str) or r not in _ROTATION_BUILDERS
                   for r in rotations)):
        p._err(f"'rotations' must list kinds from "
               f"{sorted(_ROTATION_BUILDERS)}, got {rotations!r}")
    entangler = p.str("entangler", "chain", choices={"chain", "ring"})
    thetas = p.float_list("thetas", length=layers * n * len(rotations))
    p.finish()
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
    return _simple(circ, n, theta_count=len(thetas), sites=sites)


def _hamiltonian(p):
    n = p.int("n", lo=2, hi=24)
    periodic = p.bool("periodic", False)
    steps = p.int("steps", 1, lo=1)
    if p.has("thetas"):
        thetas = p.float_list("thetas", length=2 * steps)
        p.finish()
        return _build_hamiltonian_variational(n, periodic, steps, thetas)
    coupling = p.float("coupling", 1.0)
    field_ = p.float("field", 1.0)
    dt = p.float("dt")
    p.finish()
    fixed = [2.0 * coupling * dt, 2.0 * field_ * dt] * steps
    # fixed angles are not variational, so the record keeps no sites
    return _simple(
        _build_hamiltonian_variational(n, periodic, steps, fixed).circuit, n)


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
    return _simple(circ, n, theta_count=len(thetas), sites=sites)


def _swap_gate(p):
    i = p.int("i", 0, lo=0)
    j = p.int("j", 1, lo=0)
    if i == j:
        p._err("'i' and 'j' must differ")
    n = p.int("n", max(i, j) + 1, lo=max(i, j) + 1)
    p.finish()
    circ = GateCircuit(n)
    circ.append(g.swap(i, j))
    return _simple(circ, n)


def _controlled_op(p):
    op = p.str("op", "x", choices={"x", "z", "phase"})
    control = p.int("control", 0, lo=0)
    target = p.int("target", 1, lo=0)
    if control == target:
        p._err("'control' and 'target' must differ")
    n = p.int("n", max(control, target) + 1, lo=max(control, target) + 1)
    theta = p.float("theta", None)
    if op == "phase" and theta is None:
        p._err("op='phase' needs 'theta'")
    if op != "phase" and theta is not None:
        p._err(f"op={op!r} takes no 'theta'")
    p.finish()
    circ = GateCircuit(n)
    if op == "x":
        circ.append(g.cnot(control, target))
    elif op == "z":
        circ.append(g.cz(control, target))
    else:
        circ.append(g.cphase(theta, control, target))
    return _simple(circ, n)


def _toffoli_gate(p):
    c1 = p.int("c1", 0, lo=0)
    c2 = p.int("c2", 1, lo=0)
    target = p.int("target", 2, lo=0)
    if len({c1, c2, target}) != 3:
        p._err("controls and target must be distinct")
    hi = max(c1, c2, target) + 1
    n = p.int("n", hi, lo=hi)
    p.finish()
    circ = GateCircuit(n)
    circ.append(g.toffoli(c1, c2, target))
    return _simple(circ, n)


def _measurement(p):
    n = p.int("n", lo=1, hi=24)
    p.finish()
    circ = GateCircuit(n)
    for q in range(n):
        circ.append(g.measure(q, q))
    return _simple(circ, n, measures=True, classical=n)


def _ancilla_management(p):
    count = p.int("count", lo=1, hi=24)
    p.int("released", count, lo=0, hi=count)  # ledger knob, no gates
    p.finish()
    circ = GateCircuit(count)
    spec = PortSpec(width=count, in_qubits=(), out_qubits=tuple(range(count)))
    return Lowered(circ, spec, [])


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
    """Build the full lowering record for a primitive."""
    desc = get_primitive(primitive_id)
    if not desc.lowerable:
        raise NotLowerableError(
            f"{desc.name} (id {desc.id}) has no gate-level realization")
    return _BUILDERS[primitive_id](_Params(primitive_id, params))


def lower(primitive_id: int, params=None) -> GateCircuit:
    """Gate-level circuit of a primitive."""
    return realize(primitive_id, params).circuit


def port_spec(primitive_id: int, params=None) -> PortSpec:
    """Register layout of a primitive's lowering."""
    return realize(primitive_id, params).spec


def ansatz_theta_count(primitive_id: int, structure=None) -> int:
    """Length of the flat parameter vector of a variational primitive."""
    structure = dict(structure or {})
    if primitive_id == 25:
        n = structure.get("n", 2)
        return 2 * n * structure.get("layers", 1)
    if primitive_id == 26:
        return 2 * len(structure.get("gammas", [0.0]))
    if primitive_id == 27:
        return len(structure.get("thetas", [0.0, 0.0]))
    if primitive_id == 28:
        n = structure.get("n", 2)
        return (structure.get("layers", 1) * n
                * len(structure.get("rotations", ["ry", "rz"])))
    if primitive_id == 29:
        return 2 * structure.get("steps", 1)
    raise BadParamsError(f"primitive {primitive_id} is not a variational "
                         f"ansatz; expected one of {list(ANSATZ_IDS)}")


def realize_ansatz(primitive_id: int, structure, flat_thetas) -> Lowered:
    """Lower a variational primitive from a flat parameter vector.

    ``structure`` holds the non-variational parameters. The returned record
    carries one site list per flat parameter for the shift rule.
    """
    names = _flat_layout(primitive_id)
    flat = [float(v) for v in flat_thetas]
    size, rest = divmod(len(flat), len(names))
    if rest:
        raise BadParamsError(
            f"flat vector for id {primitive_id} must hold "
            f"{' then '.join(names)}, equally many of each")
    params = dict(structure or {})
    for i, name in enumerate(names):
        params[name] = flat[i * size:(i + 1) * size]
    low = realize(primitive_id, params)
    if low.spec.theta_count != len(flat):
        raise BadParamsError(
            f"primitive {primitive_id} consumed {low.spec.theta_count} "
            f"parameters, got {len(flat)}")
    return low


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
