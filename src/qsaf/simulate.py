"""Dense statevector execution, sampling, and the variational loop.

Widths are capped at 16 qubits (65536 amplitudes). Randomness comes from
numpy's default PCG64 generator; a seed may be passed explicitly or set
process-wide through the QSAF_SEED environment variable. All probabilities
are computed from exact amplitudes, so fixed seeds reproduce counts bit for
bit.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (BadParamsError, NotEigenstateError, QsafError,
                     TooWideError, WidthMismatchError)
from .gates import (KINDS, GateCircuit, GateKind, apply_matrix, gate_matrix,
                    one_qubit_entries)
from .lowering import (modular_multiply_matrix, qpe_circuit, qpe_round,
                       realize_ansatz)

SIM_WIDTH_CAP = 16
NORM_ATOL = 1e-10
EIGEN_ATOL = 1e-8


def default_seed():
    """Process-wide seed from QSAF_SEED, or None when unset."""
    raw = os.environ.get("QSAF_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise QsafError(f"QSAF_SEED must be an integer, got {raw!r}") \
            from None


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = default_seed()
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class StateVector:
    """Normalized dense amplitudes over 2**width basis states.

    Basis index convention: qubit 0 is the least significant bit.
    """

    width: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.width,):
            raise WidthMismatchError(
                f"expected {2 ** self.width} amplitudes for width "
                f"{self.width}, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state is not normalized (norm {norm})")
        object.__setattr__(self, "amplitudes", amps / norm)

    @classmethod
    def zero(cls, width: int) -> "StateVector":
        return cls.basis(width, 0)

    @classmethod
    def basis(cls, width: int, label: int) -> "StateVector":
        if not 0 <= label < 2 ** width:
            raise ValueError(f"basis label {label} outside width {width}")
        amps = np.zeros(2 ** width, dtype=complex)
        amps[label] = 1.0
        return cls(width, amps)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        width = int(amps.size).bit_length() - 1
        return cls(width, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def probability(self, label: int) -> float:
        return float(abs(self.amplitudes[label]) ** 2)


def format_outcome(label: int, width: int) -> str:
    """Bitstring with the most significant qubit on the left."""
    return format(label, f"0{width}b")


@dataclass(frozen=True)
class RunResult:
    state: StateVector
    bits: tuple


def run(circuit: GateCircuit, initial=None, seed=None) -> RunResult:
    """Execute a circuit on a dense statevector.

    ``initial`` may be None (all zeros), a basis label, or a StateVector of
    matching width. Measurement gates collapse the state using the seeded
    generator, built at the first measurement; their outcomes land in
    ``bits`` by classical bit index (None for bits never written).

    Consecutive one-qubit gates on a qubit are held as one pending 2x2 and
    applied when another gate or a measurement touches that qubit, or at
    the end. A lone gate keeps its own kernel; a longer run is one dense
    update with the product matrix.
    """
    n = circuit.width
    if n > SIM_WIDTH_CAP:
        raise TooWideError(f"width {n} exceeds simulator cap {SIM_WIDTH_CAP}")
    if initial is None:
        amps = np.zeros(2 ** n, dtype=complex)
        amps[0] = 1.0
    elif isinstance(initial, StateVector):
        if initial.width != n:
            raise WidthMismatchError(
                f"initial state width {initial.width} != circuit width {n}")
        amps = initial.amplitudes.copy()
    elif isinstance(initial, (int, np.integer)) and not isinstance(
            initial, bool):
        amps = StateVector.basis(n, int(initial)).amplitudes.copy()
    else:
        raise TypeError(f"initial must be None, a basis label, or a "
                        f"StateVector, got {type(initial).__name__}")

    rng = None
    bits = [None] * circuit.classical_bits
    pending = {}  # qubit -> [first gate, product entries once fused]
    for gate in circuit.ops:
        qubits = gate.qubits
        if gate.kind is GateKind.MEASURE:
            q = qubits[0]
            if q in pending:
                _flush(amps, n, q, pending.pop(q))
            if rng is None:
                rng = _rng(seed)
            amps, outcome = _collapse(amps, n, q, rng)
            bits[gate.cbit] = outcome
        elif len(qubits) == 1:
            held = pending.get(qubits[0])
            if held is None:
                pending[qubits[0]] = [gate, None]
            else:
                held[1] = _product(one_qubit_entries(gate),
                                   held[1] or one_qubit_entries(held[0]))
        else:
            for q in qubits:
                if q in pending:
                    _flush(amps, n, q, pending.pop(q))
            _KERNELS[gate.kind](amps, n, gate)
    for q, held in pending.items():
        _flush(amps, n, q, held)
    return RunResult(StateVector(n, amps), tuple(bits))


def _product(b, a):
    """Entries of the 2x2 product b @ a (a acts first)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
            b10 * a00 + b11 * a10, b10 * a01 + b11 * a11)


def _flush(amps, n, q, held):
    """Apply a qubit's pending one-qubit run."""
    gate, entries = held
    if entries is None:
        _KERNELS[gate.kind](amps, n, gate)
    else:
        _update_1q(amps, q, entries)


def _block(amps, n, qubits, bits):
    """View of the amplitudes where each listed qubit holds its bit.

    The view has one axis per qubit. Length-one slices keep it a view even
    when every axis is fixed.
    """
    index = [slice(None)] * n
    for q, b in zip(qubits, bits):
        index[n - 1 - q] = slice(b, b + 1)
    return amps.reshape([2] * n)[tuple(index)]


def _phase_block(amps, n, gate):
    """Diagonal gates: scale the block where every listed qubit is 1."""
    _block(amps, n, gate.qubits, (1,) * gate.arity)[...] *= \
        gate_matrix(gate)[-1, -1]


def _block_swap(amps, n, gate):
    """Permutation gates: exchange two blocks of the state."""
    if gate.kind is GateKind.SWAP:
        one, other = (1, 0), (0, 1)
    else:  # controls first, target last
        one = (1,) * (gate.arity - 1) + (0,)
        other = one[:-1] + (1,)
    a = _block(amps, n, gate.qubits, one)
    b = _block(amps, n, gate.qubits, other)
    saved = a.copy()
    a[...] = b
    b[...] = saved


def _update_1q(amps, q, entries):
    """Dense 2x2 update of qubit ``q`` through a (high, 2, low) view."""
    m00, m01, m10, m11 = entries
    view = amps.reshape(-1, 2, 1 << q)
    zero, one = view[:, 0], view[:, 1]
    saved = zero.copy()
    zero *= m00
    zero += m01 * one
    one *= m11
    one += m10 * saved


def _dense_1q(amps, n, gate):
    """Dense one-qubit gates."""
    _update_1q(amps, gate.qubits[0], one_qubit_entries(gate))


def _controlled_u(amps, n, gate):
    """Apply matrix**power to the control=1 half only."""
    control, *targets = gate.qubits
    half = _block(amps, n, (control,), (1,))
    inner = [q - (q > control) for q in targets]
    up = np.linalg.matrix_power(gate.matrix, gate.power)
    half[...] = apply_matrix(half.reshape(-1), n - 1, up,
                             inner).reshape(half.shape)


# the ``structure`` column of gates.KINDS -> kernel applying one unitary
# gate to ``amps`` in place
_STRUCTURE_KERNELS = {"diagonal": _phase_block, "permutation": _block_swap,
                      "dense": _dense_1q, "controlled": _controlled_u}
_KERNELS = {kind: _STRUCTURE_KERNELS[row.structure]
            for kind, row in KINDS.items() if row.structure is not None}


def _collapse(amps, n, qubit, rng):
    tensor = amps.reshape([2] * n)
    axis = n - 1 - qubit
    ones = np.moveaxis(tensor, axis, 0)[1]
    p_one = float(np.sum(np.abs(ones) ** 2))
    outcome = 1 if rng.random() < p_one else 0
    keep = np.moveaxis(tensor, axis, 0).copy()
    keep[1 - outcome] = 0.0
    prob = p_one if outcome else 1.0 - p_one
    keep = keep / math.sqrt(prob)
    return np.moveaxis(keep, 0, axis).reshape(2 ** n), outcome


def sample(state: StateVector, shots: int, seed=None) -> dict:
    """Draw bitstring counts from the exact outcome distribution."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = state.probabilities()
    cumulative = np.cumsum(probs)
    cumulative[-1] = 1.0  # guard against rounding at the top end
    draws = _rng(seed).random(shots)
    outcomes = np.searchsorted(cumulative, draws, side="right")
    hits = np.bincount(outcomes, minlength=probs.size)
    return {format_outcome(label, state.width): int(hits[label])
            for label in np.flatnonzero(hits).tolist()}


# observables


@dataclass(frozen=True)
class PauliObservable:
    """Real combination of Pauli strings.

    Each term is (coefficient, string); position i of the string acts on
    qubit i ('I', 'X', 'Y', or 'Z'). Real coefficients keep the observable
    Hermitian.
    """

    width: int
    terms: tuple

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("observable needs at least one qubit")
        cleaned = []
        for coeff, string in self.terms:
            if isinstance(coeff, complex):
                raise ValueError(f"coefficient {coeff!r} must be real")
            if len(string) != self.width or any(c not in "IXYZ"
                                                for c in string):
                raise ValueError(
                    f"pauli string {string!r} invalid for width {self.width}")
            cleaned.append((float(coeff), string))
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def parse(cls, text: str, width: int) -> "PauliObservable":
        """Parse sums like "Z0*Z1 + 0.5*X0 - 2.0".

        Factors are a Pauli letter followed by a qubit index; bare numbers
        are identity terms.
        """
        terms = []
        for sign, body in _split_terms(text):
            coeff = sign
            letters = ["I"] * width
            for factor in body.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError(f"empty factor in term {body!r}")
                m = re.fullmatch(r"([XYZxyz])(\d+)", factor)
                if m:
                    q = int(m.group(2))
                    if q >= width:
                        raise ValueError(
                            f"qubit {q} outside width {width} in {body!r}")
                    if letters[q] != "I":
                        raise ValueError(
                            f"qubit {q} repeated in term {body!r}")
                    letters[q] = m.group(1).upper()
                else:
                    try:
                        coeff *= float(factor)
                    except ValueError:
                        raise ValueError(
                            f"cannot parse factor {factor!r}") from None
            terms.append((coeff, "".join(letters)))
        return cls(width, tuple(terms))

    @cached_property
    def _plan(self):
        """(labels, diagonal, rest), derived once from the terms.

        Every term without X or Y is folded into ``diagonal``, one real
        weight per basis label (None when there is no such term). ``rest``
        keeps (coeff * i**#Y, flip, zy) for the other terms, where
        P|k> = i**#Y (-1)**parity(k & zy) |k ^ flip>.
        """
        labels = np.arange(2 ** self.width)
        diagonal, rest = None, []
        for coeff, string in self.terms:
            if coeff == 0.0:
                continue
            flip = zy = ys = 0
            for q, letter in enumerate(string):
                if letter in "XY":
                    flip |= 1 << q
                if letter in "YZ":
                    zy |= 1 << q
                ys += letter == "Y"
            if flip:
                rest.append((coeff * (1, 1j, -1, -1j)[ys % 4], flip, zy))
                continue
            if diagonal is None:
                diagonal = np.zeros(labels.size)
            diagonal += coeff * _signs(labels, zy)
        return (labels if rest else None), diagonal, tuple(rest)


def _split_terms(text: str):
    text = text.strip()
    if not text:
        raise ValueError("empty observable expression")
    out = []
    sign, start = 1.0, 0
    if text[0] in "+-":
        sign = -1.0 if text[0] == "-" else 1.0
        start = 1
    i = start
    current = []
    while i <= len(text):
        ch = text[i] if i < len(text) else None
        if ch in ("+", "-") and text[i - 1] not in "eE*" or ch is None:
            body = "".join(current).strip()
            if not body:
                raise ValueError(f"empty term in {text!r}")
            out.append((sign, body))
            if ch is None:
                break
            sign = -1.0 if ch == "-" else 1.0
            current = []
        else:
            current.append(ch)
        i += 1
    return out


def maxcut_observable(n: int, edges) -> PauliObservable:
    """Cut-size operator of a graph: sum over edges of (1 - Z_i Z_j) / 2."""
    terms = [(0.5 * len(edges), "I" * n)]
    for a, b in edges:
        letters = ["I"] * n
        letters[a] = letters[b] = "Z"
        terms.append((-0.5, "".join(letters)))
    return PauliObservable(n, tuple(terms))


def expectation(state: StateVector, observable: PauliObservable) -> float:
    """<state| observable |state>, exactly real for Pauli observables."""
    if observable.width != state.width:
        raise WidthMismatchError(
            f"observable width {observable.width} != state width "
            f"{state.width}")
    labels, diagonal, rest = observable._plan
    amps = state.amplitudes
    total = 0.0
    if diagonal is not None:
        total += float(diagonal @ (amps.real ** 2 + amps.imag ** 2))
    for weight, flip, zy in rest:
        signed = amps * _signs(labels, zy) if zy else amps
        total += float((weight * np.vdot(amps[labels ^ flip], signed)).real)
    return total


def _signs(labels, mask: int):
    """(-1)**parity(label & mask) for each label."""
    return 1 - 2 * _parity(labels & mask, mask.bit_length())


def _parity(words, bits: int):
    """Parity of each integer in ``words``, whose values fit in ``bits``."""
    shift = 1
    while shift < bits:
        shift <<= 1
    while shift > 1:
        shift >>= 1
        words = words ^ (words >> shift)
    return words & 1


# variational loop


class NonDecreasingEnergyWarning(UserWarning):
    """Gradient step could not reduce the energy any further."""


@dataclass(frozen=True)
class OptimizerConfig:
    step: float = 0.25
    max_iters: int = 500
    tol: float = 1e-6
    min_step: float = 1e-7


@dataclass
class VariationalResult:
    best_params: np.ndarray
    best_energy: float
    trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    warnings: list = field(default_factory=list)


def _ansatz_energy(low, observable) -> float:
    state = run(low.circuit).state
    return expectation(state, observable)


def _shifted_energy(low, observable, pos, delta) -> float:
    """Energy with one gate's angle shifted; the gate is swapped into the
    realized circuit for one run and put back, so nothing is revalidated."""
    ops = low.circuit.ops
    gate = ops[pos]
    ops[pos] = replace(gate, theta=gate.theta + delta)
    try:
        return expectation(run(low.circuit).state, observable)
    finally:
        ops[pos] = gate


def parameter_shift_gradient(ansatz_id: int, thetas, observable,
                             structure=None) -> np.ndarray:
    """Exact gradient of the ansatz energy via the two-point shift rule.

    A parameter may drive several gates (each with its own angle scale), so
    the rule is applied per gate occurrence and combined by the chain rule.
    """
    low = realize_ansatz(ansatz_id, structure, thetas)
    grad = np.zeros(len(low.sites))
    for i, sites in enumerate(low.sites):
        for pos, scale in sites:
            plus = _shifted_energy(low, observable, pos, math.pi / 2)
            minus = _shifted_energy(low, observable, pos, -math.pi / 2)
            grad[i] += scale * (plus - minus) / 2.0
    return grad


def variational_minimize(ansatz_id: int, thetas0, observable,
                         config: OptimizerConfig | None = None,
                         structure=None) -> VariationalResult:
    """Gradient descent with step halving on the ansatz energy.

    Returns the best parameters, their energy, and the per-iteration energy
    trace. A NonDecreasingEnergyWarning is issued (and recorded) when no
    step length keeps reducing the energy.
    """
    cfg = config or OptimizerConfig()
    params = np.asarray([float(v) for v in thetas0], dtype=float)
    low = realize_ansatz(ansatz_id, structure, params)
    energy = _ansatz_energy(low, observable)
    result = VariationalResult(best_params=params.copy(), best_energy=energy,
                               trace=[energy])
    step = cfg.step
    for iteration in range(1, cfg.max_iters + 1):
        result.iterations = iteration
        grad = parameter_shift_gradient(ansatz_id, params, observable,
                                        structure)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < cfg.tol:
            result.converged = True
            break
        improved = False
        while step >= cfg.min_step:
            candidate = params - step * grad
            cand_energy = _ansatz_energy(
                realize_ansatz(ansatz_id, structure, candidate), observable)
            if cand_energy < energy:
                improved = True
                break
            step /= 2.0
        if not improved:
            message = ("energy non-decreasing at iteration "
                       f"{iteration}; stopping")
            warnings.warn(message, NonDecreasingEnergyWarning, stacklevel=2)
            result.warnings.append(message)
            break
        delta = energy - cand_energy
        params, energy = candidate, cand_energy
        result.trace.append(energy)
        result.best_params, result.best_energy = params.copy(), energy
        step = min(step * 2.0, cfg.step)  # re-open the step after success
        if delta < cfg.tol:
            result.converged = True
            break
    return result


# phase estimation drivers


def _check_eigenstate(unitary, eigenstate):
    mat = np.asarray(unitary, dtype=complex)
    dim = mat.shape[0]
    if mat.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise BadParamsError(
            f"unitary must be square with power-of-two size, got "
            f"{mat.shape}")
    vec = np.asarray(eigenstate, dtype=complex).reshape(-1)
    if vec.size != dim:
        raise WidthMismatchError(
            f"eigenstate has {vec.size} amplitudes, unitary needs {dim}")
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise NotEigenstateError("eigenstate must be nonzero")
    vec = vec / norm
    lam = complex(np.vdot(vec, mat @ vec))
    residual = float(np.linalg.norm(mat @ vec - lam * vec))
    if residual > EIGEN_ATOL:
        raise NotEigenstateError(
            f"state is not an eigenstate (residual {residual:.2e})")
    return mat, vec


def _qpe_state(mat, vec, t: int) -> StateVector:
    m = mat.shape[0].bit_length() - 1
    width = t + m
    if width > SIM_WIDTH_CAP:
        raise TooWideError(
            f"t={t} plus work register exceeds simulator cap")
    amps = np.zeros(2 ** width, dtype=complex)
    amps[np.arange(vec.size) << t] = vec  # work register holds the state
    return run(qpe_circuit(mat, t), StateVector(width, amps)).state


def qpe_estimate(unitary, eigenstate, t: int, shots: int = 256,
                 seed=None) -> float:
    """Estimate the eigenphase of ``eigenstate`` to t binary digits.

    Samples the counting register and returns the most frequent readout
    divided by 2**t, a value in [0, 1).
    """
    if t < 1:
        raise BadParamsError(f"t must be >= 1, got {t}")
    mat, vec = _check_eigenstate(unitary, eigenstate)
    state = _qpe_state(mat, vec, t)
    counts = {}
    for label, hits in sample(state, shots, seed).items():
        readout = int(label, 2) & (2 ** t - 1)
        counts[readout] = counts.get(readout, 0) + hits
    best = max(counts, key=lambda k: (counts[k], -k))
    return best / 2 ** t


def iterative_phase_estimate(unitary, eigenstate, t: int, seed=None) -> float:
    """Recover t phase bits one at a time with a single ancilla.

    Each round applies a controlled power of the unitary, rotates by the
    feedback from previously found lower-significance bits, and measures
    the ancilla. Exact for phases that are multiples of 1/2**t.
    """
    if t < 1:
        raise BadParamsError(f"t must be >= 1, got {t}")
    mat, vec = _check_eigenstate(unitary, eigenstate)
    m = mat.shape[0].bit_length() - 1
    width = 1 + m
    if width > SIM_WIDTH_CAP:
        raise TooWideError("work register exceeds simulator cap")
    rng = _rng(seed)
    bits = {}
    for i in range(t, 0, -1):
        feedback = -2.0 * math.pi * sum(
            bits[j] / 2 ** (j - i + 1) for j in range(i + 1, t + 1))
        amps = np.zeros(2 ** width, dtype=complex)
        amps[np.arange(vec.size) << 1] = vec
        bits[i] = run(qpe_round(mat, 2 ** (i - 1), feedback),
                      StateVector(width, amps), seed=rng).bits[0]
    return sum(bits[i] / 2 ** i for i in range(1, t + 1))


def find_order(a: int, modulus: int, t: int = 8, shots: int = 64,
               seed=None) -> int:
    """Multiplicative order of ``a`` modulo ``modulus`` via phase sampling.

    Runs the phase-estimation circuit on the work state |1> (a uniform
    mixture of all eigenstates of the multiply map), converts sampled
    readouts to fractions with bounded denominator, and returns the
    smallest verified order.
    """
    if modulus < 2:
        raise BadParamsError(f"modulus must be >= 2, got {modulus}")
    if math.gcd(a, modulus) != 1:
        raise BadParamsError(
            f"{a} shares a factor with {modulus}; order undefined")
    mat = modular_multiply_matrix(a % modulus, modulus)
    m = mat.shape[0].bit_length() - 1
    vec = np.zeros(2 ** m, dtype=complex)
    vec[1] = 1.0
    state = _qpe_state(mat, vec, t)
    readouts = {}
    for label, hits in sample(state, shots, seed).items():
        readout = int(label, 2) & (2 ** t - 1)
        readouts[readout] = readouts.get(readout, 0) + hits

    candidates = set()
    for readout in readouts:
        frac = Fraction(readout, 2 ** t).limit_denominator(modulus)
        candidates.add(frac.denominator)
    verified = sorted(r for r in candidates
                      if r >= 1 and pow(a, r, modulus) == 1)
    if verified:
        return verified[0]
    combined = sorted({math.lcm(x, y_) for x in candidates
                       for y_ in candidates})
    for r in combined:
        if r >= 1 and pow(a, r, modulus) == 1:
            return r
    raise QsafError("order not recovered; raise t or shots")
