"""Executing the run directives of a parsed manifest.

``simulate`` flattens the graph, evolves the statevector, and samples
counts; measured circuits report counts over the classical register.
``minimize`` locates the optimizer component and the ansatz it drives,
then runs the variational loop against the optimizer's observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .composition import ArchitectureGraph, Diagnostic
from .errors import (BadParamsError, QsafError, TooWideError,
                     ValidationFailedError)
from .gates import GateCircuit, GateKind
from .lowering import initial_thetas
from .manifest import Manifest, RunDirective
from .simulate import (OPTIMIZER_KEYS, SHOT_CAP, OptimizerConfig,
                       VariationalResult, check_width, int_option, run,
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
    return prepare(manifest.graph, directive.verb, directive.options,
                   seed)()


def directive_problems(manifest: Manifest) -> list:
    """One blocking finding per run directive that ``run`` would refuse,
    carrying ``run``'s message: ``too_wide`` past the simulator cap,
    ``bad_directive`` for any other refusal (see ``prepare``). The graph
    must validate without a blocking finding, so it is not validated
    again, and one flat circuit serves every directive."""
    graph = manifest.graph
    flat = cache(lambda: graph._flatten_checked()[0])
    out = []
    for d in manifest.directives:
        try:
            prepare(graph, d.verb, d.options, flat=flat)
        except QsafError as exc:
            code = "too_wide" if isinstance(exc, TooWideError) \
                else "bad_directive"
            out.append(Diagnostic(code, f"run {d.verb} on line {d.line}: "
                                  f"{exc}"))
    return out


def simulate_graph(graph: ArchitectureGraph, shots: int = 512,
                   seed=None) -> SimulationOutcome:
    """Flatten and sample a graph without needing a directive."""
    return prepare(graph, "simulate", {"shots": shots}, seed)()


def prepare(graph: ArchitectureGraph, verb: str, options: dict, seed=None,
            flat=None):
    """The run of one directive as a call, after every check ``run`` makes
    before it simulates: the verb, its option keys and values, the graph,
    and the width the run would simulate. ``seed`` overrides the
    directive's. ``flat``, for a graph known to validate without a
    blocking finding, is a call that returns its flat circuit: the graph
    is then not validated here. Raises QsafError."""
    if verb not in _VERB_KEYS:
        raise QsafError(f"unknown run verb {verb!r}")
    for key in options:
        if key not in _VERB_KEYS[verb]:
            raise QsafError(f"unknown {verb} option {key!r}")
    if seed is None:
        seed = options.get("seed")
    if seed is not None:
        seed = int_option("seed", seed, 0)
    if verb == "simulate":
        return _prepare_simulate(options, seed, flat or graph.flatten)
    return _prepare_minimize(graph, options, flat is None)


_VERB_KEYS = {"simulate": ("shots", "seed"),
              "minimize": (*OPTIMIZER_KEYS, "seed")}


def _prepare_simulate(options: dict, seed, flat):
    shots = int_option("shots", options.get("shots", 512), 1, SHOT_CAP)
    circuit = flat()
    check_width(circuit.width)
    measure = GateKind.MEASURE  # a local: member lookups are slow
    # the flat circuit has checked its gates; dropping measurements
    # leaves them valid
    unitary = GateCircuit.trusted(circuit.width, [
        gate for gate in circuit.ops if gate.kind is not measure])
    # read out the measured qubits, highest classical bit leftmost
    qubits = [gate.qubits[0] for gate in sorted(
        (gate for gate in circuit.ops if gate.kind is measure),
        key=lambda gate: -gate.cbit)] or None
    width = circuit.width if qubits is None else len(qubits)
    return lambda: SimulationOutcome(
        sample(run(unitary).state, shots, seed, qubits=qubits), shots, width,
        qubits is not None)


def _prepare_minimize(graph: ArchitectureGraph, options: dict, validate):
    # the descent is deterministic: a seed is checked and not used
    if validate:
        blocking = [d for d in graph.validate() if d.blocking]
        if blocking:
            raise ValidationFailedError(blocking)
    optimizers = [inst for inst in graph.components.values()
                  if inst.is_optimizer]
    if len(optimizers) != 1:
        raise QsafError("minimize needs exactly one Optimizer component, "
                        f"found {len(optimizers)}")
    opt, = optimizers
    # the observable is parsed at the driven ansatz's width, the width
    # the descent simulates
    ansatz, observable = graph.minimize_target(opt.instance_id)
    pid, structure = ansatz.primitive_id, dict(ansatz.params)
    try:
        init = initial_thetas(pid, structure)
    except BadParamsError as exc:
        raise QsafError(f"{ansatz.instance_id} {exc}") from None
    # validate has checked the optimizer's own params; the run's options
    # override them and are checked here
    config = OptimizerConfig.from_options({**opt.params, **options})
    check_width(observable.width)
    return lambda: MinimizationOutcome(
        ansatz.instance_id, opt.params["observable"],
        variational_minimize(pid, init, observable, config, structure))


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
