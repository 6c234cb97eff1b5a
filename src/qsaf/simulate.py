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
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import groupby
from numbers import Integral
from operator import is_

import numpy as np

from .errors import (BadParamsError, NotEigenstateError, QsafError,
                     TooWideError, WidthMismatchError)
from .gates import (KINDS, Gate, GateCircuit, GateKind, apply_matrix,
                    controlled_power, diagonal_phase, modular_sources,
                    sources)
from .lowering import (ControlledPowers, finite_real, qpe_circuit, qpe_round,
                       realize_ansatz)

SIM_WIDTH_CAP = 16
# most shots one simulate directive may draw: the sampler holds one float
# per shot, so 10**7 shots take about 80 MB
SHOT_CAP = 10 ** 7
# most iterations one minimize directive may run
ITERATION_CAP = 10 ** 5
EIGEN_ATOL = 1e-8

# ``run`` executes a plan compiled once per circuit structure (see
# ``_plan``); PLAN_CACHE plans are kept, least recently used dropped
# first. A layer of one-qubit runs is one step of blocks of at most
# GROUP_QUBITS qubits, each acting as its ``_block_form`` says. The
# width picks the rest: below WIDE_WIDTH qubits a held run is composed
# with the plan; from WIDE_WIDTH on a layer updates half the state at a
# time and a held run is composed once it recurs.
WIDE_WIDTH = 10
GROUP_QUBITS = 4
PLAN_CACHE = 256
# a block with at most this many amplitudes at and below it (float64s,
# for a real block) is folded into rows of the flat state, so its update
# is one matmul, not many tiny ones; an angled narrow block never is
_FOLD_SPAN = 32
# _RUN_CACHE remembers the RUN_WINDOW held runs seen last and keeps the
# signed permutations of those that recur, RUN_BYTES of labels at most:
# eight runs at 16 qubits, each three arrays of 2**16 int64 labels
RUN_WINDOW = 64
RUN_BYTES = 12 * 2 ** 20
# an observable's plan keeps its X and Y terms stacked, PAULI_BYTES at most
# (see ``PauliObservable._plan``): ten terms at 16 qubits
PAULI_BYTES = 16 * 2 ** 20
# a gradient builds a stretch's shifted states SHIFT_BYTES at a time (see
# ``parameter_shift_gradient``): four sites at 16 qubits
SHIFT_BYTES = 8 * 2 ** 20


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


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized dense amplitudes over 2**width basis states.

    Basis index convention: qubit 0 is the least significant bit.

    The constructor checks the shape and the norm, and divides by the
    norm. States this module computes (``basis``, ``run``'s result, the
    gradient's prefix) are normalized as built, or come from unitary
    steps on a checked state with measurements renormalized by
    ``_collapse``, so they are built by ``_trusted`` instead.
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
        # numpy divides a complex by a real through its reciprocal, so
        # this is ``amps / norm`` without the complex division's cost
        object.__setattr__(self, "amplitudes", amps * (1 / norm))

    def __eq__(self, other):
        # exact comparison of the amplitudes; unhashable, as they are mutable
        if not isinstance(other, StateVector):
            return NotImplemented
        return (self.width == other.width
                and np.array_equal(self.amplitudes, other.amplitudes))

    @classmethod
    def _trusted(cls, width: int, amps: np.ndarray) -> "StateVector":
        """A state of ``amps`` taken as they are: 2**width complex
        amplitudes of norm one that no one else writes. Nothing is
        checked, copied or divided."""
        state = object.__new__(cls)
        object.__setattr__(state, "width", width)
        object.__setattr__(state, "amplitudes", amps)
        return state

    @classmethod
    def zero(cls, width: int) -> "StateVector":
        return cls.basis(width, 0)

    @classmethod
    def basis(cls, width: int, label: int) -> "StateVector":
        check_label(label, width)
        amps = np.zeros(2 ** width, dtype=complex)
        amps[label] = 1.0
        return cls._trusted(width, amps)  # normalized as built

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
    return format(label, _outcome_spec(width))


def _outcome_spec(width):
    """The format spec of ``format_outcome``'s bitstrings of ``width``."""
    return f"0{width}b"


@dataclass(frozen=True)
class RunResult:
    state: StateVector
    bits: tuple


def check_width(n: int) -> None:
    """Refuse a statevector of more than SIM_WIDTH_CAP qubits."""
    if n > SIM_WIDTH_CAP:
        raise TooWideError(f"width {n} exceeds simulator cap {SIM_WIDTH_CAP}")


def check_label(label: int, width: int) -> None:
    """Refuse a basis label outside ``width`` qubits."""
    if not 0 <= label < 2 ** width:
        raise ValueError(f"basis label {label} outside width {width}")


def run(circuit: GateCircuit, initial=None, seed=None) -> RunResult:
    """Execute a circuit on a dense statevector.

    ``initial`` may be None (all zeros), a basis label, or a StateVector of
    matching width. Measurement gates collapse the state using the seeded
    generator, built at the first measurement; their outcomes land in
    ``bits`` by classical bit index (None for bits never written).

    The result's state owns its amplitudes (an initial StateVector is
    copied) and is not checked again: ``StateVector``'s constructor
    checked the norm of any amplitudes passed in from outside, the gates
    are unitary, and ``_collapse`` renormalizes after each measurement.

    Consecutive one-qubit gates on a qubit are held as one pending 2x2.
    When another gate or a measurement touches a pending qubit, or at the
    end, every pending run is applied, in blocks of contiguous qubits.

    Consecutive CNOT, CZ, SWAP and Toffoli gates are held as one run too,
    applied before any later gate that touches their qubits, any other
    multi-qubit gate, a measurement, or the end. Both are steps of the
    plan compiled once per circuit structure; below WIDE_WIDTH qubits
    every run is one signed permutation, composed with the plan, and from
    WIDE_WIDTH on a run that recurs is one cached signed permutation (see
    ``_plan`` and ``_apply_run``).

    From a basis state (``initial`` None or a label) and WIDE_WIDTH
    qubits on, the state the plan's leading layer of one-qubit runs makes
    is built directly, as the Kronecker product of each group's column at
    the label's bits (see ``_basis_start``); an initial StateVector goes
    through the layer's dense updates.
    """
    n = circuit.width
    check_width(n)
    if initial is None:
        amps = 0
    elif isinstance(initial, StateVector):
        if initial.width != n:
            raise WidthMismatchError(
                f"initial state width {initial.width} != circuit width {n}")
        amps = initial.amplitudes.copy()
    elif isinstance(initial, (int, np.integer)) and not isinstance(
            initial, bool):
        amps = int(initial)
        check_label(amps, n)
    else:
        raise TypeError(f"initial must be None, a basis label, or a "
                        f"StateVector, got {type(initial).__name__}")

    bits = [None] * circuit.classical_bits
    amps = _evolve(amps, n, circuit.ops, bits, seed)
    return RunResult(StateVector._trusted(n, amps), tuple(bits))


# the op list run last, as one tuple (width, gates, steps): ``gates`` is a
# snapshot that keeps them alive, so no new gate can take one's identity
_last_run = None, (), ()


def _evolve(amps, n, ops, bits=(), seed=None):
    """Apply ``ops`` to ``amps`` (2**n amplitudes, updated in place until a
    measurement collapses them, or a basis label) and return the final
    amplitudes.

    Measurement outcomes land in ``bits``; the seeded generator is built at
    the first measurement. The plan of the gates' structure runs, reading
    their angles and matrices from ``ops``, its angled blocks built from
    them (see ``_bound``). A replay of the op list run last, the very
    same gates (a ``Gate`` is immutable), takes its steps from
    ``_last_run``: no structure key, plan lookup or block build. From a
    basis label, a wide plan's leading layer is built as a product state
    (see ``_basis_start``).
    """
    global _last_run
    width, gates, steps = _last_run  # read as one tuple, as it is written
    if width != n or len(gates) != len(ops) or not all(map(is_, ops, gates)):
        gates = tuple(ops)
        # a list, not a generator: one generator per run let the process's
        # resident memory creep up between full garbage collections
        steps, angled = _plan(n, tuple([(gate.kind, gate.qubits)
                                        for gate in gates]))
        if angled:
            steps = list(steps)
            for i in angled:
                steps[i] = _bound(ops, *steps[i][1])
        _last_run = n, gates, steps
    if type(amps) is int:
        amps, first = _basis_start(amps, n, ops, steps)
        if first:
            steps = steps[first:]
    rng = None
    for step, args in steps:
        if step is not None:
            step(amps, ops, *args)
            continue
        qubit, pos = args  # a measurement
        if rng is None:
            rng = _rng(seed)
        amps, bits[ops[pos].cbit] = _collapse(amps, n, qubit, rng)
    return amps


def _basis_start(label, n, ops, steps):
    """(amps, first): basis state ``label`` after ``steps[:first]``, the
    leading layer of a wide plan, with ``first`` 0 when it has none.

    The layer is the plan's leading layer steps and lone diagonal gates,
    whole, up to the first that meets a qubit an earlier one took (a run
    gate can flush a qubit's later run right after the layer that held
    its first). Their blocks act on disjoint groups of qubits, so each
    group ends up in its block's column at its bits of ``label``, read
    from the block's record, and every other qubit keeps its bit. The
    state is the Kronecker product of those columns: one zeroed buffer,
    written through the view with the other qubits fixed at their bits.
    The columns are multiplied lowest group first, as a layer's dense
    updates multiply them, so real blocks give the same amplitudes bit
    for bit (a leading layer flushed in two parts, the higher first, may
    differ in the last bit). A narrow layer, one small matmul per block,
    stays a dense step: at n=6 it took about 5 us a run where the
    product took 12."""
    columns, taken, first = {}, 0, 0  # taken: a mask of the layer's qubits
    for step, args in steps if n >= WIDE_WIDTH else ():
        if step is _apply_layer:
            blocks = args[0]
        elif step is _apply_gate and args[0] is _phase_block \
                and len(ops[args[2]].qubits) == 1:  # not a CPHASE
            # the record of its 2x2, unfolded
            blocks = ((False, (), np.diag([1, diagonal_phase(ops[args[2]])]),
                       ((args[2],),)),)
        else:
            break
        groups = [(ops[runs[-1][0]].qubits[0], len(runs))
                  for *_, runs in blocks]  # runs are highest qubit first
        mask = sum((1 << k) - 1 << q0 for q0, k in groups)
        if taken & mask:
            break
        taken |= mask
        first += 1
        for (q0, k), (real, shape, matrix, _) in zip(groups, blocks):
            j, low = label >> q0 & (1 << k) - 1, 1 << (q0 + real)
            # a folded block, kron(M.T, eye(low)), holds column j of M in
            # row j * low, every low-th entry
            column = matrix[j * low, ::low] if len(shape) == 2 \
                else matrix[:, j]
            # the column on the group's axes of the view, lowest qubit last
            columns[q0] = column.reshape([2] * k + [1] * q0)
    amps = np.zeros(1 << n, dtype=complex)
    if not columns:
        amps[label] = 1.0
        return amps, 0
    others = [q for q in range(n) if not taken >> q & 1]
    view = _block(amps, n, others, [label >> q & 1 for q in others])
    factors = [columns[q0] for q0 in sorted(columns)]
    product = factors[0]
    for factor in factors[1:-1]:
        product = factor * product
    if len(factors) > 1:  # the last product is taken into the state
        np.multiply(factors[-1], product, out=view)
    else:
        view[...] = product
    return amps, first


@lru_cache(maxsize=PLAN_CACHE)
def _plan(n, structure):
    """(steps, angled): the steps that apply gates of ``structure``,
    ((kind, qubits), ...), at width n, and the indices of those with a
    block whose matrix ``_bound`` builds on each new op list.

    A step is (function, args), called as function(amps, ops, *args); a
    measurement is (None, (qubit, position)). Steps refer to gates by
    position, so one plan serves any angles. A layer applies every pending
    one-qubit run, and CPHASE, CMODMUL and CONTROLLED_U keep their
    kernels. The width picks the other steps once, here: below WIDE_WIDTH
    a held run is one signed permutation, and from WIDE_WIDTH on it asks
    ``_RUN_CACHE`` (see ``_apply_run``); a layer's steps are those of
    ``_layer_steps``.

    No pending qubit is ever a qubit of the held run: a run gate flushes
    the pending runs it touches before it joins, and a one-qubit gate on
    a held qubit releases the run first. So a layer may be applied before
    the held run that precedes it in ``structure``: they commute.
    """
    wide = n >= WIDE_WIDTH
    steps, pending = [], {}  # qubit -> positions of its pending run
    run, run_qubits = [], set()  # positions of the held run, its qubits

    def flush():
        if pending:
            steps.extend(_layer_steps(n, pending, structure, wide))
            pending.clear()

    def release():
        if run:
            key = (n, tuple([structure[pos] for pos in run]))
            steps.append((_apply_run, (key, tuple(run))) if wide
                         else (_signed_gather, _signed_permutation(*key)))
            run.clear()
            run_qubits.clear()

    for pos, (kind, qubits) in enumerate(structure):
        measure = kind is GateKind.MEASURE
        if len(qubits) == 1 and not measure:
            if qubits[0] in run_qubits:
                release()
            pending.setdefault(qubits[0], []).append(pos)
            continue
        if not pending.keys().isdisjoint(qubits):
            flush()
        if kind in _RUN_KINDS:
            run.append(pos)
            run_qubits.update(qubits)
            continue
        release()
        steps.append((None, (qubits[0], pos)) if measure
                     else (_apply_gate, (_KERNELS[kind], n, pos)))
    release()
    flush()
    angled = tuple(i for i, (step, args) in enumerate(steps)
                   if step is _apply_layer
                   and any(block[2] is None for block in args[0]))
    return tuple(steps), angled


def _layer_steps(n, pending, structure, wide):
    """The steps that apply every pending one-qubit run: one
    ``_apply_layer`` step with a block per group of contiguous qubits
    (see ``_groups``), each the record (real, shape, matrix, runs), its
    runs highest qubit first.

    A block whose gates take no angle is the same on every run, so it is
    built here, in its ``_block_form``, shared by every run. Any other
    block's matrix is None, built by ``_bound`` for each op list; until
    then it is complex on the (high, 2**k, low) view. From WIDE_WIDTH on
    a lone diagonal gate (Z, S, T, PHASE and their inverses) keeps
    ``_phase_block``, which touches only the amplitudes it scales, as a
    step of its own ahead of the layer's: they act on other qubits.
    """
    blocks, steps = [], []
    for group in _groups(pending):
        k, q0 = len(group), group[0]
        runs = tuple(tuple(pending[q]) for q in reversed(group))
        kinds = {pos: structure[pos][0] for run in runs for pos in run}
        (pos, kind), *others = kinds.items()
        if wide and not others and KINDS[kind].structure == "diagonal":
            steps.append((_apply_gate, (_phase_block, n, pos)))
        elif all(kind in _UNANGLED for kind in kinds.values()):
            blocks.append((*_block_form(q0, _block_matrix(
                {pos: _UNANGLED[kind] for pos, kind in kinds.items()}, runs,
                None)), runs))
        else:
            blocks.append((False, (1 << (n - q0 - k), 1 << k, 1 << q0), None,
                           runs))
    if blocks:
        steps.append((_apply_layer, (tuple(blocks), wide)))
    return steps


# one gate of each one-qubit kind without an angle: its entries, all that
# ``_block_matrix`` reads, depend on its kind alone
_UNANGLED = {kind: Gate(kind, (0,)) for kind, row in KINDS.items()
             if row.arity == 1 and not row.angled and row.structure}


def _block_matrix(ops, runs, dtype=complex):
    """Kronecker product of the 2x2 products of ``runs``, the positions in
    ``ops`` of each qubit's run, highest qubit first; of ``dtype``, or
    of the entries' own type when that is None.

    The product is one gather of the k runs' entries by ``_kron_index``
    and one product over the k factors of each entry, taken first to
    last, as a left fold of ``_kron`` would."""
    mats = []
    for positions in runs:
        entries = ops[positions[0]].entries
        for pos in positions[1:]:
            entries = _product(ops[pos].entries, entries)
        mats.append(entries)
    return np.array(mats, dtype=dtype).reshape(-1)[
        _kron_index(len(runs))].prod(axis=0)


@lru_cache(maxsize=None)
def _kron_index(k):
    """Where each factor of a Kronecker product of k 2x2s, stacked flat
    (4 entries each, the first factor on the most significant bit), is
    read: [t, r, c] = 4t + 2 (bit k-1-t of r) + (bit k-1-t of c)."""
    labels = np.arange(1 << k)
    shifts = np.arange(k - 1, -1, -1)[:, None, None]
    rows = (labels[:, None] >> shifts) & 1
    cols = (labels[None, :] >> shifts) & 1
    index = 4 * np.arange(k)[:, None, None] + 2 * rows + cols
    index.flags.writeable = False  # shared by every block of k qubits
    return index


def _bound(ops, blocks, wide):
    """The layer step of a plan's ``blocks`` with each angled block,
    None in the plan, built from ``ops``: below WIDE_WIDTH complex, on
    the plan's (high, 2**k, low) view; from WIDE_WIDTH on in its
    ``_block_form``, so real when no entry is complex."""
    return _apply_layer, (tuple([
        (real, shape, matrix, runs) if matrix is not None
        else (*_block_form(ops[runs[-1][0]].qubits[0],
                           _block_matrix(ops, runs, None)), runs) if wide
        else (real, shape, _block_matrix(ops, runs), runs)
        for real, shape, matrix, runs in blocks]), wide)


def _apply_layer(amps, ops, blocks, wide):
    """Each block of a layer as one matmul (see ``_block_form``): a
    folded block's from the right on the rows of the flat state, any
    other's from the left on the (high, 2**k, low) view. From WIDE_WIDTH
    on, half the view at a time, so no temporary outgrows a half-state
    copy."""
    if wide:
        for real, shape, matrix, _ in blocks:
            view = (amps.view(np.float64) if real else amps).reshape(shape)
            folded = len(shape) == 2
            for part in _halves(view, 0 if folded or len(view) > 1 else 2):
                part[...] = part @ matrix if folded else matrix @ part
        return
    for real, shape, matrix, _ in blocks:
        view = (amps.view(np.float64) if real else amps).reshape(shape)
        if len(shape) == 2:  # folded
            view[...] = view @ matrix
        else:
            view[...] = matrix @ view


def _apply_gate(amps, ops, kernel, n, pos):
    kernel(amps, n, ops[pos])


def _signed_gather(amps, ops, moved, src, negated):
    """out[i] = s[i] * in[src[i]] (see ``_signed_permutation``); ``ops``
    is not read."""
    if moved.size:
        amps[moved] = amps[src]
    if negated.size:
        amps[negated] *= -1


def _product(b, a):
    """Entries of the 2x2 product b @ a (a acts first)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
            b10 * a00 + b11 * a10, b10 * a01 + b11 * a11)


def _groups(qubits):
    """Split each stretch of consecutive qubits into the fewest groups of
    at most GROUP_QUBITS, their sizes differing by at most one."""
    stretches = []
    for q in sorted(qubits):
        if stretches and stretches[-1][-1] == q - 1:
            stretches[-1].append(q)
        else:
            stretches.append([q])
    for stretch in stretches:
        size, count = len(stretch), -(-len(stretch) // GROUP_QUBITS)
        for j in range(count):
            yield stretch[j * size // count:(j + 1) * size // count]


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
        diagonal_phase(gate)


def _apply_run(amps, ops, key, positions):
    """A held run of a wide plan, ``key`` its (width, ((kind, qubits),
    ...)) and ``positions`` its gates in ``ops``. A run of two or more
    gates that recurs (see ``_RunCache``) is at most one gather and one
    in-place negation; any other run goes gate by gate through its
    kernels."""
    parts = _RUN_CACHE.lookup(key) if len(positions) > 1 else None
    if parts is None:
        for pos in positions:
            gate = ops[pos]
            _KERNELS[gate.kind](amps, key[0], gate)
    else:
        _signed_gather(amps, ops, *parts)


class _RunCache:
    """The held runs seen last, keyed by (width, ((kind, qubits), ...)).

    A run is composed into its signed permutation when it recurs among
    the ``window`` runs seen last and the labels kept stay within
    ``budget`` bytes; any other sighting goes gate by gate. Composing
    works on all 2**n labels per gate, more than the gate itself moves,
    so it pays only for a run that recurs, and a full budget keeps a
    circuit with many distinct wide runs from composing them again and
    again.
    """

    _UNSEEN = object()
    # most bytes a run keeps per basis label: three int64 labels
    _LABEL_BYTES = 3 * np.dtype(np.intp).itemsize

    def __init__(self, window, budget):
        self.window, self.budget = window, budget
        self.runs = {}  # key -> None or its parts, least recent first
        self.held = 0  # bytes of the parts kept

    def lookup(self, key):
        """The run's signed permutation, or None to go gate by gate."""
        parts = self.runs.pop(key, self._UNSEEN)
        if parts is self._UNSEEN:
            parts = None
        elif parts is None and (self.held + (self._LABEL_BYTES << key[0])
                                <= self.budget):
            parts = _signed_permutation(*key)
            self.held += sum(part.nbytes for part in parts)
        self.runs[key] = parts
        if len(self.runs) > self.window:
            old = self.runs.pop(next(iter(self.runs)))
            if old is not None:
                self.held -= sum(part.nbytes for part in old)
        return parts

    def clear(self):
        self.runs.clear()
        self.held = 0


_RUN_CACHE = _RunCache(RUN_WINDOW, RUN_BYTES)


def _signed_permutation(n, run):
    """(moved, sources, negated) for a run of ((kind, qubits), ...) of
    _RUN_KINDS gates at width n, applied first to last.

    The run maps amplitudes as out[i] = s[i] * in[src[i]] with s[i] = +-1.
    ``moved`` holds the labels with src[i] != i and ``sources`` their
    src[i]; ``negated`` holds the labels with s[i] = -1.
    """
    labels = np.arange(1 << n)
    src, negative = labels, np.zeros(1 << n, dtype=bool)
    for kind, qubits in run:
        if KINDS[kind].structure == "diagonal":
            # CZ, MCZ: -1 on the labels where every listed qubit is 1
            mask = sum(1 << q for q in qubits)
            negative = negative ^ ((labels & mask) == mask)
        else:
            # the gate reads out[i] = before[step[i]]
            step = sources(labels, kind, qubits)
            src, negative = src[step], negative[step]
    moved = np.flatnonzero(src != labels)
    parts = moved, src[moved], np.flatnonzero(negative)
    for part in parts:
        part.flags.writeable = False  # shared by every later run
    return parts


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


def _block_form(q0, matrix):
    """(real, shape, matrix): how the 2**k x 2**k ``matrix`` of qubits
    q0, q0 + 1, ... acts, its matrix read-only. A matrix without a
    complex entry (an int one for X's alone) acts alike on the real and
    imaginary parts, so on the float64 view (``real``), where they are
    one more low qubit: half the multiplies. With at most _FOLD_SPAN
    numbers at and below it there, each row of the flat state holds its
    2**k tiles of ``low``, so it multiplies the (rows, 2**k * low) view
    from the right by kron(matrix, eye(low)).T; else the (high, 2**k,
    low) view from the left."""
    real = matrix.dtype.kind != "c"
    low = 1 << (q0 + real)
    if low * len(matrix) > _FOLD_SPAN:
        shape = -1, len(matrix), low
    else:
        shape = -1, low * len(matrix)
        # built C-contiguous: at n=9 about 0.6 us a block faster
        matrix = _kron(matrix.T, np.eye(low))
    matrix.flags.writeable = False
    return real, shape, matrix


def _halves(view, axis):
    """``view`` split in two along ``axis``."""
    step = (view.shape[axis] + 1) // 2
    for start in range(0, view.shape[axis], step):
        yield view[(slice(None),) * axis + (slice(start, start + step),)]


def _kron(a, b):
    """Kronecker product of two square matrices (``np.kron`` without its
    general-shape overhead)."""
    return (a[:, None, :, None] * b[:, None, :]).reshape(len(a) * len(b), -1)


def _modular_gather(amps, n, gate):
    """CMODMUL: one gather of the amplitudes whose work value moves, all
    on the control=1 half; an identity power (a**p = 1 mod N) moves none.

    The half is a view with one axis per stretch of qubits that are
    neither the control nor work, and one per stretch of work qubits
    whose bits ascend with them (the whole register where it sits in
    order, as in phase estimation), each work axis picked by one index
    array: the same path for every placement."""
    if pow(gate.multiplier, gate.power, gate.modulus) == 1:
        return
    control, *work = gate.qubits
    values = np.arange(1 << len(work))
    src = modular_sources(values, gate)
    moved = np.flatnonzero(src != values)  # 1 moves, as a**-p != 1
    # q - j is the same along a stretch of work qubits holding bits that
    # ascend with them; every other qubit's key is None
    key = {q: q - j for j, q in enumerate(work)}
    key[control] = "control"
    dims, fixed, picks = [], [], []  # picks: a work axis's lowest bit, mask
    for stretch, qubits in groupby(range(n - 1, -1, -1), key.get):
        qubits = list(qubits)
        dims.append(1 << len(qubits))
        fixed.append(1 if stretch == "control" else slice(None))
        if stretch != "control":
            picks.append(None if stretch is None
                         else (qubits[-1] - stretch, dims[-1] - 1))
    half = amps.reshape(dims)[tuple(fixed)]

    def at(labels):
        return tuple(slice(None) if pick is None
                     else labels >> pick[0] & pick[1] for pick in picks)
    half[at(moved)] = half[at(src[moved])]


def _controlled_u(amps, n, gate):
    """Apply matrix**power to the control=1 half only."""
    control, *targets = gate.qubits
    half = _block(amps, n, (control,), (1,))
    inner = [q - (q > control) for q in targets]
    half[...] = apply_matrix(half.reshape(-1), n - 1, controlled_power(gate),
                             inner).reshape(half.shape)


def _fourier(amps, n, gate):
    """QFT and IQFT: one orthonormal FFT along the register's axis, the
    inverse transform for the QFT (numpy's ``ifft`` takes e^{+2 pi i}).
    A register of ascending contiguous qubits is one axis of a reshape
    view, transformed in place; any other placement or order is moved to
    the last axes, most significant first, transformed and moved back."""
    qubits, k = gate.qubits, gate.arity
    transform = np.fft.ifft if gate.kind is GateKind.QFT else np.fft.fft
    q0 = qubits[0]
    if qubits == tuple(range(q0, q0 + k)):
        view = amps.reshape(-1, 1 << k, 1 << q0)
        transform(view, axis=1, norm="ortho", out=view)
        return
    moved = np.moveaxis(amps.reshape([2] * n),
                        [n - 1 - q for q in reversed(qubits)],
                        range(n - k, n))
    register = moved.reshape(-1, 1 << k)  # a copy
    transform(register, axis=1, norm="ortho", out=register)
    moved[...] = register.reshape(moved.shape)


# the ``structure`` column of gates.KINDS -> kernel applying one unitary
# gate to ``amps`` in place; dense gates are only ever applied as pending
# runs, so they have none
_STRUCTURE_KERNELS = {"diagonal": _phase_block, "permutation": _block_swap,
                      "modular": _modular_gather, "controlled": _controlled_u,
                      "fourier": _fourier}
_KERNELS = {kind: _STRUCTURE_KERNELS[row.structure]
            for kind, row in KINDS.items()
            if row.structure in _STRUCTURE_KERNELS}
# the unangled multi-qubit permutations and phases (CNOT, CZ, SWAP,
# Toffoli, MCZ and MCX at any arity; a phase is -1): a plan holds each
# run of them and applies it as one signed permutation (from WIDE_WIDTH
# on, once it recurs)
_RUN_KINDS = frozenset(
    kind for kind, row in KINDS.items()
    if (row.arity is None or row.arity >= 2) and not row.angled
    and row.structure in ("permutation", "diagonal"))


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


def sample(state: StateVector, shots: int, seed=None, qubits=None) -> dict:
    """Draw bitstring counts from the exact outcome distribution.

    ``qubits`` are the read-out qubits, most significant first; None
    reads every qubit. Keys come in ascending order. The amplitudes are
    taken as normalized, as ``StateVector``'s constructor and
    ``_collapse`` leave them; any rounding shortfall of the total below
    one goes to the top label. Only the labels of nonzero probability,
    and the top one, are searched. A register whose readouts do not
    ascend with the labels has its intervals' hits summed per readout by
    one ``np.bincount`` up to its highest readout reached; one longer
    than the state, which repeats qubits, by ``np.unique`` first.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    width = state.width
    probabilities = state.probabilities()
    reachable = probabilities != 0
    reachable[-1] = True
    # adding a zero leaves a running sum as it is, so these are the
    # entries of the cumulative sum over all labels at the reachable ones
    cumulative = probabilities[reachable]
    del probabilities
    np.cumsum(cumulative, out=cumulative)
    cumulative[-1] = 1.0  # guard against rounding at the top end
    keys, merge = np.flatnonzero(reachable), False
    if qubits is not None and list(qubits) != list(range(width - 1, -1, -1)):
        if len(qubits) == 0 or not all(0 <= q < width for q in qubits):
            raise ValueError(f"qubits must be nonempty, each below {width}")
        keys, width = _readout(keys, width, list(qubits)), len(qubits)
        # a run of labels with one readout is one interval, cut at its
        # last label; runs that share a readout are summed below
        last = np.append(keys[1:] != keys[:-1], True)
        keys, cumulative = keys[last], cumulative[last]
        # a top register always ascends
        merge = bool((keys[1:] <= keys[:-1]).any())
    draws = _rng(seed).random(shots)
    # interval j takes the draws in [cumulative[j - 1], cumulative[j]);
    # the three ways below make the same comparisons, so they give the
    # same counts
    if shots < cumulative.size:
        # fewer shots than cuts: one search per shot
        hits = np.bincount(np.searchsorted(cumulative, draws, side="right"),
                           minlength=cumulative.size)
    else:
        if cumulative.size <= int(shots).bit_length():
            # a sort makes about log2(shots) comparisons per draw, one
            # pass per cut no more
            hits = np.array([np.count_nonzero(draws < cut)
                             for cut in cumulative.tolist()])
        else:
            # one search per cut, the difference of the draw counts
            # below its two ends, taken in place once ``cumulative`` is
            # freed, so at most two label-sized arrays live
            draws.sort()
            hits = np.searchsorted(draws, cumulative, side="left")
        del cumulative
        hits[1:] -= hits[:-1]
    if merge:  # one sum per readout, exact: each is at most ``shots``
        if width <= state.width:  # no more readouts than labels
            hits = np.bincount(keys, hits).astype(np.int64)
            keys = np.arange(hits.size)
        else:  # a register that repeats qubits
            keys, merged = np.unique(keys, return_inverse=True)
            hits = np.bincount(merged, hits, keys.size).astype(np.int64)
    drawn = np.flatnonzero(hits)
    spec = _outcome_spec(width)  # made once, not per key
    return {format(key, spec): count
            for key, count in zip(keys[drawn].tolist(),
                                  hits[drawn].tolist())}


def _readout(labels, width, qubits):
    """The bits of each label at ``qubits``, most significant first, as
    an integer: one shift and mask per stretch of consecutive qubits."""
    parts, start = [], 0
    for end in range(1, len(qubits) + 1):
        if end < len(qubits) and qubits[end] == qubits[end - 1] - 1:
            continue
        low, size = qubits[end - 1], end - start
        part = labels >> low if low else labels
        if low + size < width:
            part = part & ((1 << size) - 1)
        parts.append(part << (len(qubits) - end) if end < len(qubits)
                     else part)
        start = end
    return reduce(np.bitwise_or, parts)


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
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient {coeff!r} must be finite")
            cleaned.append((coeff, string))
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
        """(labels, chunks), derived once from the terms.

        Every term without X or Y is folded into one diagonal, a real
        weight per basis label, which is row 0, (diagonal, 0, 0). The
        other terms are rows (coeff * i**#Y, flip, zy), where
        P|k> = i**#Y (-1)**parity(k & zy) |k ^ flip>. The rows are split
        into ``chunks`` of (rows, their ``_stack``). Chunks hold at most a
        quarter of PAULI_BYTES each, and past PAULI_BYTES in all a chunk
        keeps None, to be stacked by each ``expectation``.
        """
        labels = np.arange(2 ** self.width)
        diagonal, rows = None, []
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
                rows.append((coeff * (1, 1j, -1, -1j)[ys % 4], flip, zy))
                continue
            if diagonal is None:
                diagonal = np.zeros(labels.size)
            diagonal += coeff * _signs(labels, zy)
        if diagonal is not None:
            rows.insert(0, (diagonal, 0, 0))
        # a stacked row holds an index and a complex weight per label
        row_bytes = labels.size * (labels.itemsize + 16)
        size = max(1, PAULI_BYTES // 4 // row_bytes)
        chunks, held = [], 0
        for start in range(0, len(rows), size):
            part = rows[start:start + size]
            held += len(part) * row_bytes
            chunks.append((part, _stack(labels, part)
                           if held <= PAULI_BYTES else None))
        return labels, tuple(chunks)


def _stack(labels, rows):
    """(index, weight), each rows x labels, with index[t, k] = k ^ flip
    and weight[t, k] = coeff * (-1)**parity(k & zy) of row t: so
    <P_t> = sum_k conj(amps[index[t, k]]) * weight[t, k] * amps[k]. The
    diagonal's row has flip = zy = 0 and its weights as ``coeff``."""
    return (np.array([labels ^ flip for _, flip, _ in rows]),
            np.array([coeff * _signs(labels, zy) for coeff, _, zy in rows]))


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
    """Cut-size operator of a graph: sum over edges of (1 - Z_i Z_j) / 2,
    each edge two distinct qubits in 0..n-1."""
    terms = [(0.5 * len(edges), "I" * n)]
    for a, b in edges:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) must join two distinct "
                             f"qubits in 0..{n - 1}")
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
    labels, chunks = observable._plan
    amps = state.amplitudes
    total = 0.0
    for rows, stacked in chunks:
        index, weight = stacked or _stack(labels, rows)
        total += float(np.vdot(amps[index], weight * amps).real)
    return total


def _signs(labels, masks):
    """(-1)**parity(label & mask) for each label and mask."""
    return np.where(_parity(labels & masks), -1, 1)


def _parity(words):
    """Parity of each integer in ``words``, as uint8."""
    return np.bitwise_count(words) & 1


# variational loop


class NonDecreasingEnergyWarning(UserWarning):
    """Gradient step could not reduce the energy any further."""


@dataclass(frozen=True)
class OptimizerConfig:
    step: float = 0.25
    max_iters: int = 500
    tol: float = 1e-6
    min_step: float = 1e-7

    @classmethod
    def from_options(cls, options) -> "OptimizerConfig":
        """The config with each field that ``options`` sets, checked:
        ``max_iters`` an integer in 1..ITERATION_CAP, ``step`` and
        ``min_step`` finite and > 0 (a zero one would halve the step
        forever), ``tol`` finite and >= 0. Other keys are ignored; a
        malformed value raises QsafError."""
        values = {}
        for key in OPTIMIZER_KEYS:
            if key not in options:
                continue
            if key == "max_iters":
                values[key] = int_option(key, options[key], 1, ITERATION_CAP)
            else:
                values[key] = real_option(key, options[key], key != "tol")
        return cls(**values)


OPTIMIZER_KEYS = tuple(f.name for f in fields(OptimizerConfig))


def int_option(key, value, lo, hi=None):
    """``value`` as a checked integer in [lo, hi]; bools are refused."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise QsafError(f"option {key!r} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f"between {lo} and {hi}" if hi is not None else f">= {lo}"
        raise QsafError(f"option {key!r} must be {bound}, got {value}")
    return int(value)


def real_option(key, value, positive):
    """``value`` as a finite float, > 0 when ``positive`` and >= 0
    otherwise; bools are refused."""
    number = finite_real(value)
    if number is None:
        raise QsafError(f"option {key!r} must be a finite number, "
                        f"got {value!r}")
    bound = "> 0" if positive else ">= 0"
    if number < 0 or (positive and number == 0):
        raise QsafError(f"option {key!r} must be {bound}, got {value}")
    return number


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


# G(pi/2) and G(-pi/2) of each angled one-qubit kind, stacked: each kind
# rotates about one axis, so a site shifted by d is G(theta + d) =
# G(theta) G(d)
_SHIFTS = {kind: np.array([Gate(kind, (0,), delta).entries
                           for delta in (math.pi / 2, -math.pi / 2)],
                          dtype=complex).reshape(2, 2, 2)
           for kind, row in KINDS.items() if row.arity == 1 and row.angled}


def parameter_shift_gradient(ansatz_id: int, thetas, observable,
                             structure=None) -> np.ndarray:
    """Exact gradient of the ansatz energy via the two-point shift rule.

    A parameter may drive several gates (each with its own angle scale), so
    the rule is applied per gate occurrence and combined by the chain rule.

    A site's stretch of one-qubit unitaries ends at the first later gate
    that is not one (a multi-qubit gate or a measurement), or at the end
    of the circuit. Let A be the product of the stretch's gates on the
    site's qubit after the site. The stretch's gates on other qubits
    commute with anything on it, and G(theta + d) = G(theta) G(d) (see
    ``_SHIFTS``), so the shifted circuit is the unshifted one with
    W = A G(d) A^dagger applied on the site's qubit at the stretch's end.
    One forward sweep carries the unshifted state from one stretch end
    to the next, and the shifted states of a stretch's sites are built
    there at once (see ``_shifted``). Both runs of every site of a
    stretch replay the one circuit ``ops[end:]``, so all but its first
    replay the op list run last (see ``_evolve``).
    """
    low = realize_ansatz(ansatz_id, structure, thetas)
    n, ops = low.circuit.width, low.circuit.ops
    amps = StateVector.zero(n).amplitudes  # the unshifted state at ``end``
    positions = sorted({pos for sites in low.sites for pos, _ in sites})
    # each chunk's shifted states, two of 2**n amplitudes per site, hold
    # SHIFT_BYTES at most
    size = max(1, SHIFT_BYTES >> (n + 5))
    diff = {}  # site position -> E(+pi/2) - E(-pi/2)
    end = i = 0
    while i < len(positions):
        start, end = end, positions[i] + 1
        while end < len(ops) and len(ops[end].qubits) == 1 \
                and ops[end].kind is not GateKind.MEASURE:
            end += 1
        amps = _evolve(amps, n, ops[start:end])
        suffix = GateCircuit.trusted(n, ops[end:])
        stretch = positions[i:bisect_left(positions, end, i)]
        i += len(stretch)
        for first in range(0, len(stretch), size):
            chunk = stretch[first:first + size]
            for pos, pair in zip(chunk, _shifted(amps, n, ops, chunk, end)):
                plus, minus = (expectation(run(suffix, StateVector._trusted(
                    n, state)).state, observable) for state in pair)
                diff[pos] = plus - minus
    grad = np.zeros(len(low.sites))
    for i, sites in enumerate(low.sites):
        for pos, scale in sites:
            grad[i] += scale * diff[pos] / 2.0
    return grad


def _shifted(amps, n, ops, sites, end):
    """(sites, 2, 2**n): ``amps``, the state at ``end``, with each site's
    W+- = A G(+-pi/2) A^dagger applied on its qubit. ``sites`` are
    ascending positions in ``ops`` of one-qubit rotations in the stretch
    that ends at ``end``. Each qubit's A, the product of its gates after
    the site, comes from one backward walk; every W from one stacked
    product; every state from one gather of each label's partner:
    out[k] = W[b, b] amps[k] + W[b, 1 - b] amps[k ^ 2**q], b bit q of k.
    """
    after, products = {}, []  # qubit -> product of its gates walked
    chosen = set(sites)
    for pos in range(end - 1, sites[0] - 1, -1):
        gate = ops[pos]
        q, = gate.qubits
        if pos in chosen:
            products.append(after.get(q, (1, 0, 0, 1)))
        after[q] = gate.entries if q not in after \
            else _product(after[q], gate.entries)
    a = np.array(products[::-1], dtype=complex).reshape(-1, 1, 2, 2)
    w = (a @ np.array([_SHIFTS[ops[pos].kind] for pos in sites])
         @ a.conj().swapaxes(2, 3)).reshape(-1, 2, 4, 1)
    labels = np.arange(1 << n)
    masks = np.left_shift(1, [ops[pos].qubits[0] for pos in sites])[:, None]
    ones = (labels & masks != 0)[:, None]
    out = np.where(ones, w[:, :, 3], w[:, :, 0])
    out *= amps
    other = np.where(ones, w[:, :, 2], w[:, :, 1])
    other *= amps[labels ^ masks][:, None]
    out += other
    return out


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
            with np.errstate(over="ignore", invalid="ignore"):
                candidate = params - step * grad
            # a candidate past the floats is no improvement
            if np.isfinite(candidate).all():
                cand_energy = _ansatz_energy(realize_ansatz(
                    ansatz_id, structure, candidate), observable)
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


def _qpe_state(unitary: ControlledPowers, work, t: int) -> StateVector:
    """State after phase estimation of ``unitary`` on t counting qubits,
    started from |0> on them and ``work`` on the work register: its
    amplitudes, or one basis label of it."""
    width = t + unitary.width
    if width > SIM_WIDTH_CAP:
        raise TooWideError(
            f"t={t} plus work register exceeds simulator cap")
    if isinstance(work, int):
        return run(qpe_circuit(unitary, t), work << t).state
    amps = np.zeros(2 ** width, dtype=complex)
    amps[np.arange(work.size) << t] = work
    return run(qpe_circuit(unitary, t), StateVector(width, amps)).state


def qpe_estimate(unitary, eigenstate, t: int, shots: int = 256,
                 seed=None) -> float:
    """Estimate the eigenphase of ``eigenstate`` to t binary digits.

    Samples the counting register and returns the most frequent readout
    divided by 2**t, a value in [0, 1).
    """
    if t < 1:
        raise BadParamsError(f"t must be >= 1, got {t}")
    mat, vec = _check_eigenstate(unitary, eigenstate)
    state = _qpe_state(ControlledPowers.dense(mat), vec, t)
    counts = sample(state, shots, seed, qubits=range(t - 1, -1, -1))
    best = max(counts, key=lambda k: (counts[k], -int(k, 2)))
    return int(best, 2) / 2 ** t


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
    powers = ControlledPowers.dense(mat)
    bits = {}
    for i in range(t, 0, -1):
        feedback = -2.0 * math.pi * sum(
            bits[j] / 2 ** (j - i + 1) for j in range(i + 1, t + 1))
        amps = np.zeros(2 ** width, dtype=complex)
        amps[np.arange(vec.size) << 1] = vec
        bits[i] = run(qpe_round(powers, 2 ** (i - 1), feedback),
                      StateVector(width, amps), seed=rng).bits[0]
    return sum(bits[i] / 2 ** i for i in range(1, t + 1))


def find_order(a: int, modulus: int, t: int = 8, shots: int = 64,
               seed=None) -> int:
    """Multiplicative order of ``a`` modulo ``modulus`` via phase sampling.

    Runs the phase-estimation circuit on the work state |1> (a uniform
    mixture of all eigenstates of the multiply map), converts sampled
    readouts to fractions with bounded denominator, and returns the
    order: the smallest denominator, or else lcm of two, that verifies,
    with every surplus prime factor divided out.
    """
    if t < 1:
        raise BadParamsError(f"t must be >= 1, got {t}")
    if modulus < 2:
        raise BadParamsError(f"modulus must be >= 2, got {modulus}")
    if math.gcd(a, modulus) != 1:
        raise BadParamsError(
            f"{a} shares a factor with {modulus}; order undefined")
    state = _qpe_state(ControlledPowers.modular(a % modulus, modulus), 1, t)
    candidates = set()
    for key in sample(state, shots, seed, qubits=range(t - 1, -1, -1)):
        frac = Fraction(int(key, 2), 2 ** t).limit_denominator(modulus)
        candidates.add(frac.denominator)
    verified = sorted(r for r in candidates
                      if r >= 1 and pow(a, r, modulus) == 1)
    if verified:
        return _least_order(a, verified[0], modulus)
    combined = sorted({math.lcm(x, y_) for x in candidates
                       for y_ in candidates})
    for r in combined:
        if r >= 1 and pow(a, r, modulus) == 1:
            return _least_order(a, r, modulus)
    raise QsafError("order not recovered; raise t or shots")


def _least_order(a: int, r: int, modulus: int) -> int:
    """The order of ``a`` modulo ``modulus``, from ``r``, a multiple of it:
    each prime factor p of r is divided out while a**(r/p) is still
    one."""
    rest, p = r, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while r % p == 0 and pow(a, r // p, modulus) == 1:
                r //= p
        p += 1
    return r
