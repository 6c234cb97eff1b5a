"""Composition of primitives into architecture graphs.

An ArchitectureGraph holds component instances, directed wires between
their ports, and optional entanglement contracts. ``validate`` reports
every rule violation as a list of diagnostics, so a graph assembled from
text can be checked as a whole; ``wire`` applies the same wiring rules to
one connection and raises at once; and ``flatten`` lowers a clean graph to
one gate-level circuit.

Ports follow a fixed naming scheme. Quantum data flows out of ``out`` and
into ``in``; measured readouts leave through ``bits``; a variational
component receives its angles on ``params``. The classical Optimizer
pseudo-component closes the feedback loop at the algorithm level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import get_primitive
from .core import category_template
from .errors import (BadParamsError, CompositionError, FanOutError,
                     KindMismatchError, LevelViolationError,
                     MeasuredQubitReuseError, QsafError, UnknownPortError,
                     ValidationFailedError, WidthMismatchError)
from .gates import Gate, GateCircuit, GateKind
from .lowering import ANSATZ_IDS, realize
from .simulate import OptimizerConfig, PauliObservable

OPTIMIZER_NAME = "Optimizer"


class AbstractionLevel:
    """The five architectural levels, bottom to top."""

    ATOMIC_GATES = 1
    ELEMENTARY_PRIMITIVES = 2
    COMPOSITE_OPERATIONS = 3
    FUNCTIONAL_BLOCKS = 4
    ALGORITHM = 5

    ALL = (1, 2, 3, 4, 5)


@dataclass
class ComponentInstance:
    """One named use of a primitive (or of the classical Optimizer).

    ``primitive_id`` is None for the Optimizer. ``level`` defaults to the
    primitive's natural abstraction level and must stay within the range
    the primitive can present at.
    """

    instance_id: str
    primitive_id: int | None
    params: dict = field(default_factory=dict)
    level: int | None = None

    def __post_init__(self):
        if not self.instance_id or not self.instance_id.replace("_", "a") \
                .isalnum():
            raise CompositionError(
                f"instance id {self.instance_id!r} must be alphanumeric "
                f"(underscores allowed)")
        self.params = dict(self.params)
        if self.is_optimizer:
            if self.level is None:
                self.level = AbstractionLevel.ALGORITHM
            if self.level != AbstractionLevel.ALGORITHM:
                raise LevelViolationError(
                    "the optimizer exists only at the algorithm level")
            return
        desc = get_primitive(self.primitive_id)
        lo, hi = desc.level_range
        if self.level is None:
            self.level = desc.default_level
        if not lo <= self.level <= hi:
            raise LevelViolationError(
                f"{desc.name} presents at levels {lo}..{hi}, "
                f"not {self.level}")

    @property
    def is_optimizer(self) -> bool:
        return self.primitive_id is None

    @property
    def display_name(self) -> str:
        if self.is_optimizer:
            return OPTIMIZER_NAME
        return get_primitive(self.primitive_id).manifest_name


def optimizer(instance_id: str, **params) -> ComponentInstance:
    """Classical minimizer closing a variational feedback loop."""
    return ComponentInstance(instance_id, None, params)


@dataclass(frozen=True)
class Port:
    name: str
    direction: str          # "in" or "out"
    kind: str               # "quantum" or "classical"
    width: int | None       # None matches any width
    measured: bool = False


@dataclass(frozen=True)
class Wire:
    src_instance: str
    src_port: str
    dst_instance: str
    dst_port: str

    def __str__(self):
        return (f"{self.src_instance}.{self.src_port} -> "
                f"{self.dst_instance}.{self.dst_port}")


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding. Blocking findings stop flattening."""

    code: str
    message: str
    instances: tuple = ()
    blocking: bool = True

    def __str__(self):
        tag = "error" if self.blocking else "advice"
        return f"{tag} [{self.code}] {self.message}"


def _instance_ports(instance: ComponentInstance) -> dict:
    """Port table of an instance, or None when it cannot be lowered."""
    if instance.is_optimizer:
        return {"in": Port("in", "in", "classical", None),
                "out": Port("out", "out", "classical", None)}
    desc = get_primitive(instance.primitive_id)
    if not desc.lowerable:
        return None
    spec = realize(instance.primitive_id, instance.params).spec
    ports = {}
    if spec.in_qubits:
        ports["in"] = Port("in", "in", "quantum", len(spec.in_qubits))
    if spec.out_qubits:
        ports["out"] = Port("out", "out", "quantum", len(spec.out_qubits),
                            measured=spec.out_measured)
    if spec.classical_out:
        ports["bits"] = Port("bits", "out", "classical", spec.classical_out)
    if spec.theta_count:
        ports["params"] = Port("params", "in", "classical",
                               spec.theta_count)
    return ports


def _parse_endpoint(text: str):
    if text.count(".") != 1:
        raise UnknownPortError(
            f"endpoint {text!r} must look like instance.port")
    inst, port = text.split(".")
    return inst.strip(), port.strip()


def _fan_problems(w: Wire, src: Port, sources, sinks):
    """No-cloning fan-out and single-feed fan-in of ``w``, given the
    (instance, port) ends of the wires before it."""
    if src.kind == "quantum" and (w.src_instance, w.src_port) in sources:
        yield Diagnostic(
            "fan_out",
            f"{w.src_instance}.{w.src_port} feeds multiple components; "
            f"quantum state cannot be copied", (w.src_instance,))
    if (w.dst_instance, w.dst_port) in sinks:
        yield Diagnostic(
            "fan_in",
            f"{w.dst_instance}.{w.dst_port} is wired more than once",
            (w.dst_instance,))


# the exception ``wire`` raises for each diagnostic code it can find
_WIRE_ERRORS = {
    "unknown_port": UnknownPortError,
    "kind_mismatch": KindMismatchError,
    "width_mismatch": WidthMismatchError,
    "measured_qubit_reuse": MeasuredQubitReuseError,
    "fan_out": FanOutError,
    "fan_in": CompositionError,
}


@dataclass
class ArchitectureGraph:
    """Named composition of components, wires, and contracts."""

    name: str = "architecture"
    level: int = AbstractionLevel.ALGORITHM
    components: dict = field(default_factory=dict)
    wires: list = field(default_factory=list)
    contracts: list = field(default_factory=list)

    def __post_init__(self):
        if self.level not in AbstractionLevel.ALL:
            raise LevelViolationError(f"no abstraction level {self.level}")

    # construction

    def add_component(self, instance: ComponentInstance, check: bool = True):
        if instance.instance_id in self.components:
            raise CompositionError(
                f"duplicate instance id {instance.instance_id!r}")
        if check:
            for problem in self._level_problems(instance):
                raise LevelViolationError(problem.message)
            _instance_ports(instance)  # surfaces bad params now
        self.components[instance.instance_id] = instance
        return instance

    def wire(self, src: str, dst: str) -> Wire:
        """Connect two ports, rejecting bad connections immediately.

        Runs the same rules as ``validate`` and raises the error class of
        the first finding.
        """
        w = Wire(*_parse_endpoint(src), *_parse_endpoint(dst))
        ports = {inst_id: _instance_ports(self.components[inst_id])
                 for inst_id in (w.src_instance, w.dst_instance)
                 if inst_id in self.components}
        problem = self._wire_problem(w, ports)
        if problem is None:
            problem = next(_fan_problems(
                w, ports[w.src_instance][w.src_port],
                {(o.src_instance, o.src_port) for o in self.wires},
                {(o.dst_instance, o.dst_port) for o in self.wires}), None)
        if problem is not None:
            raise _WIRE_ERRORS[problem.code](problem.message)
        self.wires.append(w)
        return w

    def record_wire(self, src: str, dst: str) -> Wire:
        """Store a wire without checking it; ``validate`` will judge it."""
        w = Wire(*_parse_endpoint(src), *_parse_endpoint(dst))
        self.wires.append(w)
        return w

    def add_contract(self, qubits) -> frozenset:
        """Declare that the listed flattened qubits should end entangled."""
        contract = frozenset(int(q) for q in qubits)
        if len(contract) < 2:
            raise CompositionError(
                "an entanglement contract needs at least two qubits")
        self.contracts.append(contract)
        return contract

    # validation

    def validate(self, strict_contracts: bool = False) -> list:
        """Every rule violation in the graph, as Diagnostic records."""
        out = []
        ports = {}
        failed = set()  # instances whose params do not realize
        for inst_id, inst in self.components.items():
            out.extend(self._level_problems(inst))
            try:
                ports[inst_id] = _instance_ports(inst)
            except BadParamsError as exc:
                ports[inst_id] = None
                failed.add(inst_id)
                detail = str(exc).removeprefix(
                    f"primitive {inst.primitive_id}: ")
                out.append(Diagnostic("bad_params", f"{inst_id}: {detail}",
                                      (inst_id,)))
        for inst_id, inst in self.components.items():
            if not inst.is_optimizer:
                continue
            try:
                OptimizerConfig.from_options(inst.params)
                if self.driven_ansatz(inst_id).instance_id not in failed:
                    self.minimize_target(inst_id)
            except QsafError as exc:
                out.append(Diagnostic("bad_params", f"{inst_id}: {exc}",
                                      (inst_id,)))

        # a wire to an instance that failed to realize has no ports to
        # judge; that instance's bad_params is the finding
        good_wires, held = [], []
        for w in self.wires:
            if not failed.isdisjoint((w.src_instance, w.dst_instance)):
                held.append(w)
                continue
            problem = self._wire_problem(w, ports)
            if problem is None:
                good_wires.append(w)
            else:
                out.append(problem)

        self._check_fanning(good_wires, ports, out)
        self._check_cycles(good_wires, ports, out)
        self._check_unwired_inputs(good_wires + held, ports, out)
        self._check_ancilla_ledger(ports, out)
        self._check_contracts(out, strict_contracts)
        return out

    def driven_ansatz(self, optimizer_id: str) -> ComponentInstance:
        """The variational component an optimizer drives: the one its
        out port is wired into, else the graph's only ansatz."""
        driven = [w.dst_instance for w in self.wires
                  if w.src_instance == optimizer_id and w.dst_port == "params"
                  and w.dst_instance in self.components]
        if len(driven) != 1:
            driven = [inst.instance_id for inst in self.components.values()
                      if not inst.is_optimizer
                      and inst.primitive_id in ANSATZ_IDS]
        if len(driven) != 1:
            raise QsafError(
                "cannot decide which component the optimizer drives; wire "
                "its out port into exactly one params port")
        inst = self.components[driven[0]]
        if inst.is_optimizer or inst.primitive_id not in ANSATZ_IDS:
            raise QsafError(
                f"{inst.instance_id} is not a variational component")
        return inst

    def minimize_target(self, optimizer_id: str):
        """(ansatz, observable): the component an optimizer drives and its
        ``observable`` param parsed at that ansatz's width, its ``n``
        (every ansatz takes its width as ``n``). Raises QsafError."""
        ansatz = self.driven_ansatz(optimizer_id)
        text = self.components[optimizer_id].params.get("observable")
        if not isinstance(text, str) or not text:
            raise QsafError("needs an 'observable' string")
        try:
            return ansatz, PauliObservable.parse(text, ansatz.params["n"])
        except ValueError as exc:
            raise QsafError(str(exc)) from None

    def _level_problems(self, inst: ComponentInstance):
        """Components sit strictly below their graph; an optimizer loop
        exists only in an algorithm-level graph."""
        if inst.is_optimizer and self.level != AbstractionLevel.ALGORITHM:
            yield Diagnostic(
                "level_violation",
                f"{inst.instance_id} closes a classical loop; that is an "
                f"algorithm-level construct", (inst.instance_id,))
        if not inst.is_optimizer and inst.level >= self.level:
            yield Diagnostic(
                "level_violation",
                f"{inst.instance_id} (level {inst.level}) cannot sit inside "
                f"a level-{self.level} graph", (inst.instance_id,))

    def _wire_problem(self, w: Wire, ports) -> Diagnostic | None:
        involved = (w.src_instance, w.dst_instance)
        for inst_id, port_name in ((w.src_instance, w.src_port),
                                   (w.dst_instance, w.dst_port)):
            if inst_id not in self.components:
                return Diagnostic("unknown_port",
                                  f"wire {w}: no component {inst_id!r}",
                                  involved)
            table = ports.get(inst_id)
            if table is None:
                return Diagnostic("unknown_port",
                                  f"wire {w}: {inst_id} exposes no ports",
                                  involved)
            if port_name not in table:
                return Diagnostic(
                    "unknown_port",
                    f"wire {w}: {inst_id} has no port {port_name!r}",
                    involved)
        src = ports[w.src_instance][w.src_port]
        dst = ports[w.dst_instance][w.dst_port]
        if src.direction != "out" or dst.direction != "in":
            return Diagnostic("kind_mismatch",
                              f"wire {w} must run out -> in", involved)
        if src.kind != dst.kind:
            return Diagnostic(
                "kind_mismatch",
                f"wire {w} joins a {src.kind} port to a {dst.kind} port",
                involved)
        if src.width is not None and dst.width is not None \
                and src.width != dst.width:
            return Diagnostic(
                "width_mismatch",
                f"wire {w}: {src.width} qubits offered, {dst.width} "
                f"expected", involved)
        if src.kind == "quantum" and src.measured:
            return Diagnostic(
                "measured_qubit_reuse",
                f"wire {w} reuses qubits that {w.src_instance} already "
                f"measured", involved)
        return None

    def _check_fanning(self, wires, ports, out):
        sources, sinks = set(), set()
        for w in wires:
            out.extend(_fan_problems(w, ports[w.src_instance][w.src_port],
                                     sources, sinks))
            sources.add((w.src_instance, w.src_port))
            sinks.add((w.dst_instance, w.dst_port))

    def _check_cycles(self, wires, ports, out):
        quantum_edges = {}
        all_edges = {}
        for inst_id in self.components:
            quantum_edges[inst_id] = set()
            all_edges[inst_id] = set()
        for w in wires:
            all_edges[w.src_instance].add(w.dst_instance)
            if ports[w.src_instance][w.src_port].kind == "quantum":
                quantum_edges[w.src_instance].add(w.dst_instance)
        for cycle in _find_cycles(quantum_edges):
            out.append(Diagnostic(
                "quantum_cycle",
                "quantum data flows in a loop: " + " -> ".join(cycle),
                tuple(cycle)))
        for cycle in _find_cycles(all_edges):
            has_optimizer = any(
                self.components[n].is_optimizer for n in cycle)
            if has_optimizer and self.level == AbstractionLevel.ALGORITHM:
                continue  # the variational feedback loop
            if _cycle_is_quantum(cycle, quantum_edges):
                continue  # already reported above
            out.append(Diagnostic(
                "classical_cycle",
                "classical feedback outside an optimizer loop: "
                + " -> ".join(cycle), tuple(cycle)))

    def _check_unwired_inputs(self, wires, ports, out):
        wired_inputs = {(w.dst_instance, w.dst_port) for w in wires}
        for inst_id, inst in self.components.items():
            table = ports.get(inst_id)
            if table is None:
                continue
            if inst.is_optimizer:
                if (inst_id, "in") not in wired_inputs:
                    out.append(Diagnostic(
                        "unwired_input",
                        f"{inst_id} minimizes nothing; wire measurement "
                        f"bits into it", (inst_id,)))
                continue
            desc = get_primitive(inst.primitive_id)
            # an auxiliary row needs its input when it reads it out
            mandatory = ("bits" in table if desc.is_auxiliary
                         else category_template(desc.category).needs_input)
            if mandatory and "in" in table \
                    and (inst_id, "in") not in wired_inputs:
                out.append(Diagnostic(
                    "unwired_input",
                    f"{inst_id} ({desc.manifest_name}) transforms an "
                    f"incoming state; its in port is unwired", (inst_id,)))

    def _check_ancilla_ledger(self, ports, out):
        for inst_id, inst in self.components.items():
            # params that failed to realize are already a bad_params finding
            if (inst.is_optimizer or ports[inst_id] is None
                    or all(p.name != "released" for p in
                           get_primitive(inst.primitive_id).params)):
                continue
            count = int(inst.params.get("count", 1))
            released = int(inst.params.get("released", count))
            if released < count:
                out.append(Diagnostic(
                    "ancilla_leak",
                    f"{inst_id} allocates {count} ancilla qubits but "
                    f"releases only {released}", (inst_id,)))

    def _check_contracts(self, out, strict: bool):
        if not self.contracts:
            return
        if any(d.blocking for d in out):
            return  # cannot flatten, so contracts cannot be judged
        try:
            circuit, _ = self._flatten_checked()
        except (CompositionError, BadParamsError):
            return
        achieved = entanglement_sets(circuit)
        for contract in self.contracts:
            if not any(contract <= group for group in achieved):
                out.append(Diagnostic(
                    "contract_unmet",
                    "entanglement contract {" +
                    ", ".join(str(q) for q in sorted(contract)) +
                    "} is not achieved by the flattened circuit",
                    blocking=strict))

    # flattening

    def flatten(self, strict_contracts: bool = False) -> GateCircuit:
        """Lower the whole graph to one gate-level circuit."""
        circuit, _ = self.flatten_with_layout(strict_contracts)
        return circuit

    def flatten_with_layout(self, strict_contracts: bool = False):
        diagnostics = self.validate(strict_contracts)
        blocking = [d for d in diagnostics if d.blocking]
        if blocking:
            raise ValidationFailedError(blocking)
        return self._flatten_checked()

    def _flatten_checked(self):
        order = self._topo_order()
        out_globals = {}      # (instance, port) -> tuple of global qubits
        layout = {}           # instance -> {local qubit: global qubit}
        cbit_offset = {}
        circuit_ops = []
        next_qubit = 0
        next_cbit = 0
        classical_bits = 0
        measured = set()  # global qubits that a measurement touched
        recheck = False  # append the flat circuit gate by gate, checking
        measure = GateKind.MEASURE  # a local: member lookups are slow
        feeders = {(w.dst_instance, w.dst_port): w for w in self.wires}
        for inst_id in order:
            inst = self.components[inst_id]
            if inst.is_optimizer:
                continue
            low = realize(inst.primitive_id, inst.params)
            spec = low.spec
            mapping = {}
            feeder = feeders.get((inst_id, "in"))
            if feeder is not None and \
                    (feeder.src_instance, feeder.src_port) in out_globals:
                upstream = out_globals[(feeder.src_instance,
                                        feeder.src_port)]
                for local, global_q in zip(spec.in_qubits, upstream):
                    mapping[local] = global_q
            for local in range(spec.width):
                if local not in mapping:
                    mapping[local] = next_qubit
                    next_qubit += 1
            cbit_offset[inst_id] = offset = next_cbit
            next_cbit += spec.classical_out
            # only a measured qubit met again, or a component that allows
            # mid-circuit measurement, can make the flat circuit invalid
            recheck = (recheck or low.circuit.allow_mid_measure
                       or not measured.isdisjoint(mapping.values()))
            identity = all(local == q for local, q in mapping.items())
            moved = {}  # id of a source gate -> its relabelled copy
            for gate in low.circuit.ops:
                cbit = gate.cbit
                if identity and (cbit is None or not offset):
                    flat_gate = gate  # immutable, so shared as it is
                else:
                    # the component's circuit holds its gates alive, so
                    # their ids stay distinct while ``moved`` lives
                    flat_gate = moved.get(id(gate))
                    if flat_gate is None:
                        # Gate(...) directly: replace costs twice as much
                        flat_gate = moved[id(gate)] = Gate(
                            gate.kind, tuple(mapping[q] for q in gate.qubits),
                            gate.theta, gate.matrix, gate.power,
                            cbit if cbit is None else cbit + offset,
                            gate.multiplier, gate.modulus)
                circuit_ops.append(flat_gate)
                if flat_gate.kind is measure:
                    measured.add(flat_gate.qubits[0])
                    classical_bits = max(classical_bits, flat_gate.cbit + 1)
            out_globals[(inst_id, "out")] = tuple(
                mapping[q] for q in spec.out_qubits)
            layout[inst_id] = mapping
        width = max(next_qubit, 1)
        if recheck:  # raises where the checks always raised
            flat = GateCircuit(width, circuit_ops, classical_bits=next_cbit)
        else:
            # the relabel is injective and within ``width``, and every
            # source gate passed its own circuit's checks
            flat = GateCircuit.trusted(width, circuit_ops,
                                       max(next_cbit, classical_bits))
        return flat, FlattenLayout(order=tuple(order),
                                   qubit_map=layout,
                                   cbit_offsets=cbit_offset)

    def _topo_order(self):
        """Declaration-stable topological order, optimizer edges dropped."""
        ids = list(self.components)
        position = {inst_id: i for i, inst_id in enumerate(ids)}
        indegree = {inst_id: 0 for inst_id in ids}
        successors = {inst_id: [] for inst_id in ids}
        for w in self.wires:
            if self.components[w.src_instance].is_optimizer:
                continue  # feedback edge, not data precedence
            successors[w.src_instance].append(w.dst_instance)
            indegree[w.dst_instance] += 1
        ready = sorted((i for i in ids if indegree[i] == 0),
                       key=position.get)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in successors[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
            ready.sort(key=position.get)
        if len(order) != len(ids):
            raise CompositionError("graph has a cycle; cannot flatten")
        return order


@dataclass(frozen=True)
class FlattenLayout:
    """Where each component landed in the flattened circuit."""

    order: tuple
    qubit_map: dict
    cbit_offsets: dict


def _find_cycles(edges: dict) -> list:
    """One representative node list per strongly connected cycle."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    found = []

    def strongconnect(root):
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.reverse()
                if len(component) > 1 or node in edges.get(node, ()):
                    found.append(component)

    for node in sorted(edges):
        if node not in index:
            strongconnect(node)
    return found


def _cycle_is_quantum(cycle, quantum_edges) -> bool:
    nodes = set(cycle)
    return all(
        any(succ in nodes for succ in quantum_edges.get(node, ()))
        for node in cycle)


def entanglement_sets(subject) -> set:
    """Partition of qubits into groups joined by multi-qubit gates.

    Accepts a GateCircuit or an ArchitectureGraph (which is flattened
    first). Singleton groups mean the qubit never interacted.
    """
    if isinstance(subject, ArchitectureGraph):
        subject = subject.flatten()
    parent = list(range(subject.width))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for gate in subject.ops:
        if gate.kind is GateKind.MEASURE or len(gate.qubits) < 2:
            continue
        anchor = find(gate.qubits[0])
        for q in gate.qubits[1:]:
            parent[find(q)] = anchor
    groups = {}
    for q in range(subject.width):
        groups.setdefault(find(q), set()).add(q)
    return {frozenset(members) for members in groups.values()}
