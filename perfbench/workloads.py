"""Seeded inputs, operations and oracles of the four benchmark workloads.

Every workload is a pool of manifest texts drawn from the seed. An op takes
one pool entry, drives qsaf only through its public functions and returns
what the oracle needs. The oracles never call the code under test: orders
come from brute force over ``pow(a, r, N)``, ground energies from numpy's
``eigvalsh`` on a matrix built here, diagnostics from the fault this module
injected and gate-line counts from closed-form counts of each component.

This module imports only the standard library at load time, so a fresh
process can time ``import qsaf`` on its own.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

GROVER_BITS = 9
GROVER_ITERATIONS = 17
GROVER_SHOTS = 20000
GROVER_MIN_SHARE = 0.99

QPE_WIDTH = 16
QPE_SHOTS = 200000
QPE_PEAK_SHARE = 0.02

VQE_QUBITS = 6
VQE_LAYERS = 2
VQE_MAX_ITERS = 25
VQE_ENERGY_ATOL = 1e-9

GROVER_ONES = (4, 5, 4, 5)  # set bits of each marked value

# (modulus, order) of each pool entry; a is drawn among the units of that
# order, so every pool loads the counting dict the same two ways
QPE_MIX = ((15, 4), (21, 6), (15, 2), (21, 3)) * 2

CHAIN_LENGTHS = range(4, 13)
CHAIN_WIDTHS = (2, 3, 4, 5)
FAULTS = ("fan_out", "width_mismatch", "measured_qubit_reuse",
          "quantum_cycle", "unwired_input", "ancilla_leak")

# vqe_hea's pool is small so each input repeats often enough in a run for
# its fastest op to be clean; compose_mix's is large so the pool's cost
# hardly depends on the seed
POOL_SIZES = {"grover16": len(GROVER_ONES), "order_qpe": len(QPE_MIX),
              "vqe_hea": 2, "compose_mix": 9 * 16}


@dataclass
class Case:
    """One generated input: manifest text plus what its oracle expects."""

    text: str
    expect: dict = field(default_factory=dict)


class OracleError(AssertionError):
    """An op returned a result its oracle rejects."""


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash with sha512 inside random, so this is stable
    # across processes and Python builds
    return random.Random(f"qsaf-bench:{workload}:{seed}")


def inputs_digest(cases) -> str:
    """sha256 over every generated manifest text, in pool order."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _values(items) -> str:
    return "[" + ", ".join(str(v) for v in items) + "]"


# grover16


def grover_cases(seed: int) -> list:
    rng = _rng("grover16", seed)
    cases = []
    for ones in GROVER_ONES:
        # the oracle's X dressing grows with the zeros of m, so every pool
        # holds the same numbers of set bits
        n = GROVER_BITS
        m = sum(1 << b for b in rng.sample(range(n), ones))
        text = (f"name grover16\n"
                f"component sup = Superposition(n={n})\n"
                f"component search = GroverOperator(n={n}, marked=[{m}], "
                f"iterations={GROVER_ITERATIONS})\n"
                f"component meas = Measurement(n={n})\n"
                f"wire sup.out -> search.in\n"
                f"wire search.out -> meas.in\n"
                f"run simulate shots={GROVER_SHOTS} "
                f"seed={rng.randrange(2 ** 31)}\n")
        cases.append(Case(text, {"marked": format(m, f"0{n}b")}))
    return cases


def check_grover(case: Case, outcomes) -> None:
    (outcome,) = outcomes
    counts = outcome.counts
    if sum(counts.values()) != GROVER_SHOTS:
        raise OracleError(f"{sum(counts.values())} shots counted, "
                          f"{GROVER_SHOTS} drawn")
    hits = counts.get(case.expect["marked"], 0)
    if hits < GROVER_MIN_SHARE * GROVER_SHOTS:
        raise OracleError(f"marked state {case.expect['marked']} got "
                          f"{hits} of {GROVER_SHOTS} shots")


# order_qpe


def brute_force_order(a: int, modulus: int) -> int:
    r, x = 1, a % modulus
    while x != 1:
        x = (x * a) % modulus
        r += 1
    return r


def order_cases(seed: int) -> list:
    rng = _rng("order_qpe", seed)
    cases = []
    for modulus, order in QPE_MIX:
        a = rng.choice([a for a in range(2, modulus)
                        if math.gcd(a, modulus) == 1
                        and brute_force_order(a, modulus) == order])
        m = (modulus - 1).bit_length()
        t = QPE_WIDTH - m
        text = (f"name order_qpe\n"
                f"component work = BasisStates(n={m}, value=1)\n"
                f"component qpe = StandardQPE(t={t}, a={a}, "
                f"modulus={modulus})\n"
                f"wire work.out -> qpe.in\n"
                f"run simulate shots={QPE_SHOTS} "
                f"seed={rng.randrange(2 ** 31)}\n")
        cases.append(Case(text, {"a": a, "modulus": modulus, "t": t,
                                 "order": brute_force_order(a, modulus)}))
    return cases


def order_from_counts(counts: dict, t: int, modulus: int) -> int:
    """Order read off the peaks by continued fractions.

    Each readout holding at least QPE_PEAK_SHARE of the shots is turned
    into the fraction with denominator at most ``modulus`` nearest to
    readout / 2**t; the order is the lcm of those denominators.
    """
    shots = sum(counts.values())
    order = 1
    for key, hits in counts.items():
        if hits >= QPE_PEAK_SHARE * shots:
            frac = Fraction(int(key, 2), 2 ** t).limit_denominator(modulus)
            order = math.lcm(order, frac.denominator)
    return order


def check_order(case: Case, outcomes) -> None:
    (outcome,) = outcomes
    exp = case.expect
    if sum(outcome.counts.values()) != QPE_SHOTS:
        raise OracleError("shot total differs from shots drawn")
    if any(len(key) != exp["t"] for key in outcome.counts):
        raise OracleError(f"readouts are not {exp['t']} bits wide")
    got = order_from_counts(outcome.counts, exp["t"], exp["modulus"])
    if got != exp["order"]:
        raise OracleError(f"order of {exp['a']} mod {exp['modulus']} read "
                          f"as {got}, brute force gives {exp['order']}")


# vqe_hea


def ising_terms(field_strength: float):
    """Transverse-field Ising chain: ZZ on each bond, X on each site."""
    n = VQE_QUBITS
    terms = [(1.0, (("Z", q), ("Z", q + 1))) for q in range(n - 1)]
    terms += [(field_strength, (("X", q),)) for q in range(n)]
    return terms


def _observable_text(terms) -> str:
    return " + ".join(
        f"{coeff!r}*" + "*".join(f"{p}{q}" for p, q in factors)
        for coeff, factors in terms)


def ground_energy(terms) -> float:
    """Smallest eigenvalue of the observable, qubit 0 the low bit."""
    import numpy as np
    pauli = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
             "Z": np.diag([1.0, -1.0])}
    n = VQE_QUBITS
    ham = np.zeros((2 ** n, 2 ** n))
    for coeff, factors in terms:
        letters = ["I"] * n
        for p, q in factors:
            letters[q] = p
        op = np.eye(1)
        for q in reversed(range(n)):  # most significant qubit leftmost
            op = np.kron(op, pauli[letters[q]])
        ham += coeff * op
    return float(np.linalg.eigvalsh(ham)[0])


def vqe_cases(seed: int) -> list:
    rng = _rng("vqe_hea", seed)
    cases = []
    count = 2 * VQE_QUBITS * VQE_LAYERS
    for _ in range(POOL_SIZES["vqe_hea"]):
        thetas = [round(rng.uniform(-math.pi, math.pi), 6)
                  for _ in range(count)]
        terms = ising_terms(round(rng.uniform(0.5, 1.5), 3))
        text = (f"name vqe_hea\n"
                f"component ansatz = HardwareEfficientAnsatz("
                f"n={VQE_QUBITS}, layers={VQE_LAYERS}, "
                f"thetas={_values(thetas)})\n"
                f"component meas = Measurement(n={VQE_QUBITS})\n"
                f"component opt = Optimizer(observable="
                f"\"{_observable_text(terms)}\", "
                f"max_iters={VQE_MAX_ITERS})\n"
                f"wire ansatz.out -> meas.in\n"
                f"wire meas.bits -> opt.in\n"
                f"wire opt.out -> ansatz.params\n"
                f"run minimize\n")
        cases.append(Case(text, {"terms": terms}))
    return cases


def prepare_vqe(cases) -> None:
    """Add each case's exact ground energy; kept out of the set-up timer."""
    for case in cases:
        case.expect["ground"] = ground_energy(case.expect["terms"])


def check_vqe(case: Case, outcomes) -> None:
    (outcome,) = outcomes
    result = outcome.result
    ground = case.expect["ground"]
    if not result.best_energy >= ground - VQE_ENERGY_ATOL:
        raise OracleError(f"best energy {result.best_energy} is below the "
                          f"ground energy {ground}")
    trace = list(result.trace)
    if any(b > a for a, b in zip(trace, trace[1:])):
        raise OracleError("energy trace increases")
    if not result.best_energy < trace[0]:
        raise OracleError(f"best energy {result.best_energy} does not beat "
                          f"the initial energy {trace[0]}")


# compose_mix


def _mcz_gates(m: int) -> int:
    return 1 if m <= 2 else 2 * m - 3


def _mcx_gates(c: int) -> int:
    return 1 if c <= 2 else 2 * c - 1


def _zeros(value: int, n: int) -> int:
    return n - bin(value).count("1")


def _qft_gates(n: int, cutoff: int | None = None) -> int:
    span = n if cutoff is None else cutoff
    return n + sum(min(j, span - 1) for j in range(n)) + n // 2


@dataclass(frozen=True)
class Part:
    """One chain component: its manifest call and closed-form facts."""

    call: str
    gates: int
    mandatory: bool     # its 'in' port must be wired
    connects: bool      # its gates join every chain qubit


def _path(n):
    return [[q, q + 1] for q in range(n - 1)]


class _Deck:
    """Draws kinds without replacement, reshuffling when empty, so a pool
    holds each kind about equally often whatever the seed."""

    def __init__(self, kinds):
        self.kinds = list(kinds)
        self.left = []

    def draw(self, rng):
        if not self.left:
            self.left = self.kinds[:]
            rng.shuffle(self.left)
        return self.left.pop()


HEAD_KINDS = ("sup", "basis", "ghz", "ghzc", "cluster", "w", "bell")
MIDDLE_KINDS = ("qft", "iqft", "aqft", "diffusion", "grover", "phase_oracle",
                "reflection", "bitflip", "boolean", "hea", "heuristic",
                "hamiltonian", "qaoa", "swap", "controlled", "toffoli")


def _head(rng, w, kind) -> Part:
    """A state preparation; heads never need an input."""
    if kind == "bell" and w != 2:
        kind = "ghz"
    if kind == "sup":
        return Part(f"Superposition(n={w})", w, False, False)
    if kind == "basis":
        value = rng.randrange(2 ** w)
        return Part(f"BasisStates(n={w}, value={value})",
                    w - _zeros(value, w), False, False)
    if kind in ("ghz", "ghzc"):
        name = "GHZStates" if kind == "ghz" else "GHZStateCircuits"
        return Part(f"{name}(n={w})", w, False, True)
    if kind == "cluster":
        edges = _path(w)
        return Part(f"ClusterStates(n={w}, edges={edges})",
                    w + len(edges), False, True)
    if kind == "w":
        return Part(f"WStateCircuits(n={w})", 5 * w - 4, False, True)
    variant, extra = rng.choice([("phi_plus", 0), ("phi_minus", 1),
                                 ("psi_plus", 1), ("psi_minus", 2)])
    return Part(f'BellStates(variant="{variant}")', 2 + extra, False, True)


def _angles(rng, count):
    return _values(round(rng.uniform(-math.pi, math.pi), 6)
                   for _ in range(count))


def _middle(rng, w, kind) -> Part:
    """A component that transforms a w-qubit chain register."""
    if kind == "toffoli" and w < 3:
        kind = "controlled"
    if kind == "qft":
        return Part(f"StandardQFT(n={w})", _qft_gates(w), True, True)
    if kind == "iqft":
        return Part(f"InverseQFT(n={w})", _qft_gates(w), True, True)
    if kind == "aqft":
        cutoff = rng.randint(2, w)
        return Part(f"ApproximateQFT(n={w}, cutoff={cutoff})",
                    _qft_gates(w, cutoff), True, True)
    if kind == "diffusion":
        return Part(f"DiffusionOperator(n={w})", 4 * w + _mcz_gates(w),
                    True, True)
    if kind == "reflection":
        state = rng.randrange(2 ** w)
        return Part(f"ReflectionOperators(n={w}, state={state})",
                    2 * _zeros(state, w) + _mcz_gates(w), True, True)
    if kind in ("grover", "phase_oracle"):
        marked = sorted(rng.sample(range(2 ** w), rng.randint(1, 2)))
        marks = sum(2 * _zeros(v, w) + _mcz_gates(w) for v in marked)
        if kind == "phase_oracle":
            return Part(f"PhaseOracles(n={w}, marked={_values(marked)})",
                        marks, True, True)
        iterations = rng.randint(1, 2)
        return Part(f"GroverOperator(n={w}, marked={_values(marked)}, "
                    f"iterations={iterations})",
                    iterations * (marks + 4 * w + _mcz_gates(w)), True, True)
    if kind in ("bitflip", "boolean"):
        n = w - 1  # n inputs plus the target
        marked = sorted(rng.sample(range(2 ** n), rng.randint(1, 2 ** n)))
        gates = sum(2 * _zeros(v, n) + _mcx_gates(n) for v in marked)
        if kind == "bitflip":
            return Part(f"BitFlipOracles(n={n}, marked={_values(marked)})",
                        gates, True, True)
        table = [1 if v in marked else 0 for v in range(2 ** n)]
        return Part(f"BooleanOracles(n={n}, truth_table={_values(table)})",
                    gates, True, True)
    if kind == "hea":
        layers = rng.randint(1, 2)
        return Part(f"HardwareEfficientAnsatz(n={w}, layers={layers}, "
                    f"thetas={_angles(rng, 2 * w * layers)})",
                    layers * (2 * w + w - 1), False, True)
    if kind == "heuristic":
        layers = rng.randint(1, 2)
        rotations = rng.choice([["ry"], ["ry", "rz"], ["rx", "ry", "rz"]])
        ring = rng.random() < 0.5
        per_layer = w * len(rotations) + w - 1 + (ring and w > 2)
        rot = "[" + ", ".join(f'"{r}"' for r in rotations) + "]"
        return Part(f"HeuristicAnsatz(n={w}, layers={layers}, "
                    f"rotations={rot}, "
                    f"entangler=\"{'ring' if ring else 'chain'}\", "
                    f"thetas={_angles(rng, layers * w * len(rotations))})",
                    layers * per_layer, False, True)
    if kind == "hamiltonian":
        steps = rng.randint(1, 2)
        periodic = rng.random() < 0.5
        bonds = w - 1 + (periodic and w > 2)
        return Part(f"HamiltonianAnsatz(n={w}, "
                    f"periodic={'true' if periodic else 'false'}, "
                    f"steps={steps}, thetas={_angles(rng, 2 * steps)})",
                    steps * (3 * bonds + w), False, True)
    if kind == "qaoa":
        layers = rng.randint(1, 2)
        edges = _path(w)
        return Part(f"ProblemInspiredAnsatz(n={w}, edges={edges}, "
                    f"gammas={_angles(rng, layers)}, "
                    f"betas={_angles(rng, layers)})",
                    w + layers * (3 * len(edges) + w), False, True)
    if kind == "swap":
        i, j = rng.sample(range(w), 2)
        return Part(f"SwapGates(i={i}, j={j}, n={w})", 1, False, w == 2)
    if kind == "controlled":
        control, target = rng.sample(range(w), 2)
        op = rng.choice(["x", "z", "phase"])
        theta = f", theta={round(rng.uniform(0, math.pi), 6)}" \
            if op == "phase" else ""
        return Part(f'ControlledOperations(op="{op}", control={control}, '
                    f"target={target}, n={w}{theta})", 1, False, w == 2)
    c1, c2, target = rng.sample(range(w), 3)
    return Part(f"ToffoliGates(c1={c1}, c2={c2}, target={target}, n={w})",
                1, False, w == 3)


def _render_chain(index, parts, wires, contract, extra_lines=()):
    lines = [f"name chain{index}"]
    lines += [f"component c{i} = {p.call}" for i, p in enumerate(parts)]
    lines += list(extra_lines)
    lines += [f"wire {src} -> {dst}" for src, dst in wires]
    if contract:
        lines.append("contract {" + ", ".join(str(q) for q in contract)
                     + "}")
    return "\n".join(lines) + "\n"


def compose_case(rng: random.Random, index: int, heads: _Deck,
                 middles: _Deck) -> Case:
    """One chain; ``index`` fixes its length, width, fault and contract so
    every pool holds the same mix."""
    length = CHAIN_LENGTHS[index % len(CHAIN_LENGTHS)]
    w = CHAIN_WIDTHS[index // len(CHAIN_LENGTHS) % len(CHAIN_WIDTHS)]
    fault = FAULTS[(index // 4) % len(FAULTS)] if index % 4 == 3 else None
    has_contract = index % 3 != 2
    measured = index % 2 == 0
    if fault in ("quantum_cycle", "width_mismatch"):
        measured = False        # the fault needs a live last output
    elif fault == "measured_qubit_reuse":
        measured = True

    parts = [_head(rng, w, heads.draw(rng))]
    body = length - 1 - measured
    parts += [_middle(rng, w, middles.draw(rng)) for _ in range(body)]
    if measured:
        parts.append(Part(f"Measurement(n={w})", w, True, False))
    if has_contract and not any(p.connects for p in parts):
        parts[1] = Part(f"StandardQFT(n={w})", _qft_gates(w), True, True)
    wires = [(f"c{i}.out", f"c{i + 1}.in") for i in range(len(parts) - 1)]
    extra = []

    if fault == "fan_out":
        k = rng.randrange(len(parts) - 1)
        extra.append(f"component tap = StandardQFT(n={w})")
        wires.append((f"c{k}.out", "tap.in"))
    elif fault == "width_mismatch":
        # the last link: no successor inherits the mismatch
        parts[-1] = Part(f"Superposition(n={w + 1})", w + 1, False, False)
    elif fault == "measured_qubit_reuse":
        extra.append(f"component after = Superposition(n={w})")
        wires.append((f"c{len(parts) - 1}.out", "after.in"))
    elif fault == "quantum_cycle":
        wires.append((f"c{len(parts) - 1}.out", "c0.in"))
    elif fault == "unwired_input":
        k = next((i for i in range(1, len(parts)) if parts[i].mandatory),
                 None)
        if k is None:
            k = 1
            parts[k] = Part(f"StandardQFT(n={w})", _qft_gates(w), True, True)
        wires.remove((f"c{k - 1}.out", f"c{k}.in"))
    elif fault == "ancilla_leak":
        count = rng.randint(2, 4)
        extra.append(f"component anc = AncillaManagement(count={count}, "
                     f"released={count - 1})")

    contract = list(range(w)) if has_contract else None
    text = _render_chain(index, parts, wires, contract, extra)
    return Case(text, {"fault": fault,
                       "gates": sum(p.gates for p in parts),
                       "contract": has_contract})


def compose_cases(seed: int) -> list:
    rng = _rng("compose_mix", seed)
    heads, middles = _Deck(HEAD_KINDS), _Deck(MIDDLE_KINDS)
    return [compose_case(rng, i, heads, middles)
            for i in range(POOL_SIZES["compose_mix"])]


_QASM_HEADERS = ("OPENQASM ", "include ", "qreg ", "creg ")


def check_compose(case: Case, result) -> None:
    diagnostics, qasm = result
    codes = sorted(d.code for d in diagnostics)
    fault = case.expect["fault"]
    if fault is not None:
        if codes != [fault]:
            raise OracleError(f"injected {fault}, validate reported {codes}")
        return
    if codes:
        raise OracleError(f"clean chain reported {codes}")
    if qasm is None:
        raise OracleError("clean chain was not exported")
    lines = [ln for ln in qasm.splitlines()
             if ln and not ln.startswith(_QASM_HEADERS)]
    if len(lines) != case.expect["gates"]:
        raise OracleError(f"{len(lines)} gate lines exported, components "
                          f"realize {case.expect['gates']} gates")


@dataclass(frozen=True)
class Workload:
    """How to make a workload's inputs, run one op and check it."""

    name: str
    generate: object
    kind: str            # "execute" or "compose"
    check: object
    prepare: object = None


WORKLOADS = {
    w.name: w for w in (
        Workload("grover16", grover_cases, "execute", check_grover),
        Workload("order_qpe", order_cases, "execute", check_order),
        Workload("vqe_hea", vqe_cases, "execute", check_vqe, prepare_vqe),
        Workload("compose_mix", compose_cases, "compose", check_compose),
    )
}
