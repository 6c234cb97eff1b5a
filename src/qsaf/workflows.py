"""Executing the run directives of a parsed manifest.

``simulate`` flattens the graph, evolves the statevector, and samples
counts; measured circuits report counts over the classical register.
``minimize`` locates the optimizer component and the ansatz it drives,
then runs the variational loop against the optimizer's observable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .composition import ArchitectureGraph, Diagnostic
from .errors import BadParamsError, QsafError, ValidationFailedError
from .gates import GateCircuit, GateKind
from .lowering import initial_thetas
from .manifest import Manifest, RunDirective
from .simulate import (OPTIMIZER_KEYS, SHOT_CAP, SIM_WIDTH_CAP,
                       OptimizerConfig, VariationalResult, int_option, run,
                       sample, variational_minimize)


@dataclass(frozen=True)
class SimulationOutcome:
    """Sampled counts from one simulate directive."""

    counts: dict
    shots: int
    register_width: int
    measured: bool


@dataclass(frozen=True)
class MinimizationOutcome:
    """Result of one minimize directive."""

    ansatz_instance: str
    observable: str
    result: VariationalResult


def execute(manifest: Manifest, seed=None) -> list:
    """Run every directive in order; outcomes come back in the same
    order. ``seed`` overrides any seed options in the manifest."""
    return [execute_directive(manifest, d, seed)
            for d in manifest.directives]


def execute_directive(manifest: Manifest, directive: RunDirective,
                      seed=None):
    if directive.verb == "simulate":
        return _run_simulate(manifest.graph, directive.options, seed)
    if directive.verb == "minimize":
        return _run_minimize(manifest.graph, directive.options, seed)
    raise QsafError(f"unknown run verb {directive.verb!r}")


def directive_problems(manifest: Manifest) -> list:
    """Findings that its run directives would fail on and that graph
    validation cannot see: one per directive that would simulate more
    qubits than the simulator cap (see ``_simulated_width``). The graph
    must validate without a blocking finding."""
    out, widths = [], {}
    for d in manifest.directives:
        if d.verb not in widths:
            widths[d.verb] = _simulated_width(manifest.graph, d.verb)
        if widths[d.verb] > SIM_WIDTH_CAP:
            out.append(Diagnostic(
                "too_wide", f"run {d.verb} on line {d.line}: width "
                f"{widths[d.verb]} exceeds simulator cap {SIM_WIDTH_CAP}"))
    return out


def _simulated_width(graph: ArchitectureGraph, verb: str) -> int:
    """Qubits a directive simulates: the flat circuit for simulate, the
    driven ansatz alone for minimize (0 where minimize fails before it
    simulates; ``run`` reports why)."""
    if verb == "simulate":
        return graph.flatten().width
    try:
        return _minimize_target(graph)[2].width
    except QsafError:
        return 0


def simulate_graph(graph: ArchitectureGraph, shots: int = 512,
                   seed=None) -> SimulationOutcome:
    """Flatten and sample a graph without needing a directive."""
    return _run_simulate(graph, {"shots": shots}, seed)


def _run_simulate(graph: ArchitectureGraph, options: dict, seed):
    shots = int_option("shots", options.get("shots", 512), 1, SHOT_CAP)
    if seed is None:
        seed = options.get("seed")
    if seed is not None:
        seed = int_option("seed", seed, 0)
    circuit = graph.flatten()
    unitary_ops = []
    measured = []
    measure = GateKind.MEASURE  # a local: member lookups are slow
    for gate in circuit.ops:
        if gate.kind is measure:
            measured.append((gate.qubits[0], gate.cbit))
        else:
            unitary_ops.append(gate)
    # the flat circuit has checked its gates; dropping measurements
    # leaves them valid
    state = run(GateCircuit.trusted(circuit.width, unitary_ops)).state
    if not measured:
        return SimulationOutcome(sample(state, shots, seed), shots,
                                 circuit.width, False)
    # read out the measured qubits, highest classical bit leftmost
    qubits = [q for q, _ in sorted(measured, key=lambda qc: -qc[1])]
    return SimulationOutcome(sample(state, shots, seed, qubits=qubits),
                             shots, len(measured), True)


def _run_minimize(graph: ArchitectureGraph, options: dict, seed):
    del seed  # the descent is deterministic
    blocking = [d for d in graph.validate() if d.blocking]
    if blocking:
        raise ValidationFailedError(blocking)

    opt, ansatz, observable = _minimize_target(graph)
    pid = ansatz.primitive_id
    structure = dict(ansatz.params)
    try:
        init = initial_thetas(pid, structure)
    except BadParamsError as exc:
        raise QsafError(f"{ansatz.instance_id} {exc}") from None

    for key in options:
        if key not in OPTIMIZER_KEYS and key != "seed":
            raise QsafError(f"unknown minimize option {key!r}")
    # validate has checked the optimizer's own params; the run's options
    # override them and are checked here
    config = OptimizerConfig.from_options({**opt.params, **options})

    result = variational_minimize(pid, init, observable, config, structure)
    return MinimizationOutcome(ansatz.instance_id, opt.params["observable"],
                               result)


def _minimize_target(graph: ArchitectureGraph):
    """(optimizer, ansatz, observable) of a minimize directive: the graph's
    one Optimizer component, the ansatz it drives, and its observable
    parsed at that ansatz's width, the width the descent simulates.
    Raises QsafError."""
    optimizers = [inst for inst in graph.components.values()
                  if inst.is_optimizer]
    if len(optimizers) != 1:
        raise QsafError("minimize needs exactly one Optimizer component, "
                        f"found {len(optimizers)}")
    return (optimizers[0], *graph.minimize_target(optimizers[0].instance_id))


# rendering for reports and the command line


def render_simulation(outcome: SimulationOutcome) -> str:
    lines = ["[simulate]"]
    lines.append(f"shots = {outcome.shots}")
    register = "classical" if outcome.measured else "statevector"
    lines.append(f"register = {register} ({outcome.register_width} bits)")
    for key in sorted(outcome.counts):
        lines.append(f"counts[{key}] = {outcome.counts[key]}")
    return "\n".join(lines)


def render_minimization(outcome: MinimizationOutcome) -> str:
    result = outcome.result
    lines = ["[minimize]"]
    lines.append(f"ansatz = {outcome.ansatz_instance}")
    lines.append(f"observable = {outcome.observable}")
    lines.append(f"best_energy = {result.best_energy:.12f}")
    lines.append("best_params = "
                 + ", ".join(f"{v:.6f}" for v in result.best_params))
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"converged = {str(result.converged).lower()}")
    for note in result.warnings:
        lines.append(f"warning = {note}")
    return "\n".join(lines)
