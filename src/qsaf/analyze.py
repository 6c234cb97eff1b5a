"""Non-functional analysis of primitives and circuits.

Covers the nine-dimension profile, reuse tiers derived from usage breadth,
empirical complexity-growth checks against each primitive's asymptotic
model, and the shallow-versus-expressive ansatz trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .catalog import (ALGORITHM_ORDER, Algorithm, CountMetric, Growth,
                      all_primitives, get_primitive)
from .core import (AlgorithmScope, ComplexitySummary, Granularity,
                   HardwareBinding, InformationFlow, NfrProfile,
                   ParameterKind, ReusePattern, ReuseTier, UsageLevel,
                   category_template, summarize_parameter_kinds)
from .errors import QsafError
from .gates import GateCircuit, decompose, depth, gate_counts
from .lowering import lower, realize

DEFAULT_NISQ_GATE_BUDGET = 200


@dataclass(frozen=True)
class AnalysisContext:
    """Execution regime assumed by profiles and trade-off decisions.

    ``nisq_gate_budget`` bounds the product of circuit depth and entangling
    gate count that a near-term device is assumed to sustain coherently.
    """

    regime: str = "nisq"
    nisq_gate_budget: int = DEFAULT_NISQ_GATE_BUDGET

    def __post_init__(self):
        if self.regime not in ("nisq", "fault_tolerant"):
            raise ValueError(
                f"regime must be 'nisq' or 'fault_tolerant', "
                f"got {self.regime!r}")


_SCOPE_OF = {
    Algorithm.GROVER: AlgorithmScope.SEARCH,
    Algorithm.SHOR: AlgorithmScope.PERIODICITY,
    Algorithm.VQE: AlgorithmScope.VARIATIONAL,
    Algorithm.QAOA: AlgorithmScope.VARIATIONAL,
    Algorithm.SIM: AlgorithmScope.SIMULATION,
}


class _Row(NamedTuple):
    """A lowerable primitive's analysis inputs. ``family(size)`` gives its
    params at a size; a fixed-size primitive has none and reuses its demo.
    ``demo`` is a family size, or params where the demo is no member."""

    demo: object
    family: Callable | None = None
    sizes: tuple = (4, 8, 16)


def _n(n):
    return {"n": n}


def _ring(n):
    return {"n": n, "edges": [[q, (q + 1) % n] for q in range(n)]}


def _all_ones(n):
    return {"n": n, "marked": [2 ** n - 1]}


def _layered(n):
    return {"n": n, "layers": 1, "thetas": [0.1] * (2 * n)}


_ROWS = {
    1: _Row({"n": 3, "value": 5}, lambda n: {"n": n, "value": 2 ** n - 1}),
    2: _Row(3, _n),
    3: _Row({"theta": math.pi / 3, "phi": math.pi / 5}),
    4: _Row({}),
    5: _Row(3, _n),
    6: _Row(4, _ring),
    7: _Row({}),
    8: _Row(3, _n), 9: _Row(3, _n),
    10: _Row(4, _ring),
    11: _Row({"n": 3, "marked": [5]}, _all_ones, (2, 3, 4, 5, 6)),
    12: _Row(3, _n),
    13: _Row(3, lambda n: {"n": n, "state": 0}),
    15: _Row(3, _n), 16: _Row(3, _n),
    17: _Row({"n": 4, "cutoff": 2}, lambda n: {"n": n, "cutoff": n}),
    18: _Row({"n": 3, "marked": [5]}, _all_ones),
    19: _Row({"n": 3, "marked": [5]}, _all_ones),
    20: _Row({"a": 7, "modulus": 15}),
    # truth tables double per extra qubit
    21: _Row({"n": 2, "truth_table": [0, 1, 0, 0]},
             lambda n: {"n": n, "truth_table": [1] + [0] * (2 ** n - 1)},
             (2, 3, 4)),
    22: _Row(3, lambda n: {"t": n, "phase": 0.375}),
    23: _Row({"phase": 0.375}),
    25: _Row({"n": 4, "layers": 2, "thetas": [0.1] * 16}, _layered),
    26: _Row(4, lambda n: {**_ring(n), "gammas": [0.4], "betas": [0.3]}),
    27: _Row({"n": 4, "thetas": [0.1, 0.1]},
             lambda n: {"n": n, "thetas": [0.1, 0.1],
                        "blocks": [["XX" + "Z" * (n - 2), 0, 1.0],
                                   ["YY" + "Z" * (n - 2), 1, 1.0]]}),
    28: _Row({"n": 4, "layers": 2, "thetas": [0.1] * 16}, _layered),
    29: _Row(4, lambda n: {"n": n, "dt": 0.1}),
    30: _Row({}), 31: _Row({}), 32: _Row({}),
    33: _Row(2, _n),
    34: _Row(2, lambda n: {"count": n}),
}

# the params a profile uses for a primitive given without params
DEFAULT_DEMO_PARAMS = {
    pid: row.demo if isinstance(row.demo, dict) else row.family(row.demo)
    for pid, row in _ROWS.items()}


def _complexity_of(circuit: GateCircuit, qubit_count: int,
                   ancilla_count: int, preprocessing: str):
    counts = gate_counts(circuit)
    return ComplexitySummary(
        gate_count=counts.total,
        depth=depth(circuit),
        qubit_count=qubit_count,
        ancilla_count=ancilla_count,
        two_qubit_count=counts.entangling,
        classical_preprocessing=preprocessing)


def _nisq_ok(summary: ComplexitySummary | None, budget: int) -> bool:
    if summary is None:
        return False
    return summary.depth * (1 + summary.two_qubit_count) <= budget


def _scope_from_usage(desc) -> frozenset:
    if all(u >= UsageLevel.SOMETIMES for u in desc.usage):
        return frozenset({AlgorithmScope.UNIVERSAL})
    return frozenset(
        _SCOPE_OF[alg] for alg in ALGORITHM_ORDER
        if desc.usage_for(alg) >= UsageLevel.SOMETIMES)


def nfr_profile(subject, context: AnalysisContext | None = None) -> NfrProfile:
    """Nine-dimension profile of a primitive or a concrete circuit.

    ``subject`` is a primitive id, an (id, params) pair, or a GateCircuit.
    Primitives without explicit params are profiled on small demo sizes.
    """
    ctx = context or AnalysisContext()
    if isinstance(subject, GateCircuit):
        return _circuit_profile(subject, ctx)
    if isinstance(subject, tuple):
        pid, params = subject
    else:
        pid, params = subject, None
    desc = get_primitive(pid)
    if params is None:
        params = DEFAULT_DEMO_PARAMS.get(pid, {})
    template = (None if desc.is_auxiliary
                else category_template(desc.category))

    if desc.lowerable:
        low = realize(pid, params)
        # the ladders' scratch qubits count as qubits and as ancillas
        circuit = decompose(low.circuit)
        summary = _complexity_of(
            circuit,
            qubit_count=circuit.width,
            ancilla_count=len(low.spec.anc_qubits) + circuit.width
            - low.circuit.width,
            preprocessing=template.preprocessing if template else "none")
        reversible = not low.circuit.has_measurement
    else:
        summary = None
        reversible = False  # a noise channel contracts the state space

    if template is not None:
        flow = template.flow
    elif low.spec.measures:  # an auxiliary row that reads out
        flow = InformationFlow.QUANTUM_CLASSICAL_LOOP
    else:
        flow = InformationFlow.LOCAL

    return NfrProfile(
        granularity=desc.granularity,
        parameterization=summarize_parameter_kinds(
            p.kind for p in desc.params),
        algorithm_scope=_scope_from_usage(desc),
        complexity=summary,
        reversible=reversible,
        unitary=reversible,
        information_flow=flow,
        nisq_suitable=_nisq_ok(summary, ctx.nisq_gate_budget),
        reuse_pattern=desc.reuse_pattern,
        hardware_binding=HardwareBinding.AGNOSTIC)


def _circuit_profile(circuit: GateCircuit, ctx: AnalysisContext):
    circuit = decompose(circuit)
    counts = gate_counts(circuit)
    summary = _complexity_of(circuit, circuit.width, 0, "none")
    reversible = not circuit.has_measurement
    if counts.entangling:
        flow = InformationFlow.GLOBAL
    elif circuit.has_measurement:
        flow = InformationFlow.QUANTUM_CLASSICAL_LOOP
    else:
        flow = InformationFlow.LOCAL
    return NfrProfile(
        granularity=(Granularity.ATOMIC if counts.total <= 1
                     else Granularity.COMPOSITE),
        parameterization=ParameterKind.FIXED,  # angles are already bound
        algorithm_scope=frozenset(),
        complexity=summary,
        reversible=reversible,
        unitary=reversible,
        information_flow=flow,
        nisq_suitable=_nisq_ok(summary, ctx.nisq_gate_budget),
        reuse_pattern=ReusePattern.DIRECT,
        hardware_binding=HardwareBinding.AGNOSTIC)


# reuse tiers


_PROSE_TIER = {}
_PROSE_TIER.update({i: ReuseTier.UNIVERSAL for i in (2, 3, 30, 31, 33)})
_PROSE_TIER.update({i: ReuseTier.CROSS_ALGORITHM
                    for i in (7, 8, 9, 10, 11, 13, 15, 16, 17, 22, 23, 24)})
_PROSE_TIER.update({i: ReuseTier.ALGORITHM_SPECIFIC
                    for i in (12, 20, 26, 27)})


def reuse_tier(primitive_id: int) -> ReuseTier:
    """Tier by usage breadth: in how many algorithm families is the
    primitive essential or frequent?

    All five: universal. Two to four: cross-algorithm. Fewer: specific.
    """
    desc = get_primitive(primitive_id)
    strong = sum(1 for u in desc.usage if u >= UsageLevel.FREQUENT)
    if strong == 5:
        return ReuseTier.UNIVERSAL
    if strong >= 2:
        return ReuseTier.CROSS_ALGORITHM
    return ReuseTier.ALGORITHM_SPECIFIC


def tier_notes(primitive_id: int) -> str | None:
    """Caveat when usage breadth and qualitative role point to
    different tiers, None when they agree."""
    computed = reuse_tier(primitive_id)
    prose = _PROSE_TIER.get(primitive_id)
    if prose is None or prose == computed:
        return None
    desc = get_primitive(primitive_id)
    return (f"usage breadth puts {desc.name} in the {computed.value} tier, "
            f"while its qualitative role suggests {prose.value}")


def tier_table() -> dict:
    """All primitives grouped by reuse tier."""
    table = {tier: [] for tier in ReuseTier}
    for desc in all_primitives():
        table[reuse_tier(desc.id)].append(desc.id)
    return table


# complexity growth checks


RATIO_TOLERANCE = 0.25


@dataclass(frozen=True)
class ComplexityCheck:
    """Measured growth of a primitive's dominant count across sizes."""

    primitive_id: int
    name: str
    metric: CountMetric
    growth: Growth
    sizes: tuple
    counts: tuple
    predicted_ratio: float
    measured_ratio: float
    tolerance: float
    passed: bool


def _default_sizes(pid: int) -> tuple:
    return _ROWS[pid].sizes


def _size_params(pid: int, size: int) -> dict:
    row = _ROWS[pid]
    return row.family(size) if row.family else DEFAULT_DEMO_PARAMS[pid]


def _count_for(pid: int, size: int) -> int:
    desc = get_primitive(pid)
    if desc.metric is CountMetric.ITERATIONS:
        return _best_grover_iterations(size)
    low = realize(pid, _size_params(pid, size))
    counts = gate_counts(low.circuit)
    # growth models concern the unitary work; readout-only primitives
    # are measured by their measurement count instead
    unitary = counts.total - counts.measurements
    return unitary if unitary else counts.measurements


def _best_grover_iterations(n: int) -> int:
    """Iteration count that maximizes the single-marked success chance."""
    from .simulate import run
    best_k, best_p = 1, -1.0
    limit = int(math.ceil(math.pi / 4 * math.sqrt(2 ** n))) + 2
    uniform = lower(2, _size_params(2, n)).ops
    for k in range(1, limit + 1):
        grover = lower(11, {**_size_params(11, n), "iterations": k})
        state = run(GateCircuit(n, uniform + grover.ops)).state
        p = state.probability(2 ** n - 1)
        if p > best_p + 1e-12:
            best_k, best_p = k, p
    return best_k


def _predicted_ratio(growth: Growth, s1: int, s2: int) -> float:
    if growth is Growth.CONSTANT:
        return 1.0
    if growth is Growth.LINEAR:
        return s2 / s1
    if growth is Growth.QUADRATIC:
        return (s2 / s1) ** 2
    return math.sqrt(2 ** (s2 - s1))  # sqrt of the state-space ratio


def complexity_check(primitive_id: int, sizes=None,
                     tolerance: float = RATIO_TOLERANCE) -> ComplexityCheck:
    """Measure the dominant count across sizes and compare the growth
    ratio at the largest step against the primitive's asymptotic model."""
    desc = get_primitive(primitive_id)
    if desc.growth is None:
        raise QsafError(
            f"{desc.name} has no gate realization to measure")
    sizes = tuple(sizes) if sizes is not None \
        else _default_sizes(primitive_id)
    if len(sizes) < 2 or any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing, two or more")
    counts = tuple(_count_for(primitive_id, s) for s in sizes)
    s1, s2 = sizes[-2], sizes[-1]
    c1, c2 = counts[-2], counts[-1]
    if c1 == c2:
        measured = 1.0  # flat counts, includes the zero-gate case
    elif c1 == 0:
        measured = math.inf
    else:
        measured = c2 / c1
    predicted = _predicted_ratio(desc.growth, s1, s2)
    passed = abs(measured - predicted) <= tolerance * predicted
    return ComplexityCheck(primitive_id, desc.name, desc.metric,
                           desc.growth, sizes, counts, predicted, measured,
                           tolerance, passed)


# trade-off analysis


@dataclass(frozen=True)
class DesignOption:
    """A named candidate realization entering a trade-off comparison."""

    name: str
    primitive_id: int
    params: dict = field(default_factory=dict)


def default_ansatz_options():
    """The canonical shallow-versus-expressive pair at four qubits."""
    shallow = DesignOption("hardware_efficient", 25,
                           dict(DEFAULT_DEMO_PARAMS[25]))
    expressive = DesignOption("problem_inspired_uccsd", 27,
                              dict(DEFAULT_DEMO_PARAMS[27]))
    return shallow, expressive


@dataclass(frozen=True)
class TradeoffReport:
    """Side-by-side nine-dimension comparison with a recommendation."""

    option_a: DesignOption
    option_b: DesignOption
    regime: str
    profile_a: NfrProfile
    profile_b: NfrProfile
    recommendation: str
    rationale: str

    @property
    def depth_a(self) -> int:
        return self.profile_a.complexity.depth

    @property
    def depth_b(self) -> int:
        return self.profile_b.complexity.depth

    def rows(self):
        """(dimension, option_a value, option_b value) triples."""
        left = dict(self.profile_a.as_pairs())
        right = dict(self.profile_b.as_pairs())
        return [(key, left[key], right.get(key, "-"))
                for key in left if key in right]


def compare(option_a: DesignOption | None = None,
            option_b: DesignOption | None = None,
            context: AnalysisContext | None = None) -> TradeoffReport:
    """Recommend one of two candidate realizations for the regime.

    Near-term devices favor the shallower, NISQ-suitable option; under
    fault tolerance depth is affordable and the more expressive (deeper,
    more entangling) option wins.
    """
    ctx = context or AnalysisContext()
    if option_a is None and option_b is None:
        option_a, option_b = default_ansatz_options()
    if option_a is None or option_b is None:
        raise ValueError("give both options or neither")
    profile_a = nfr_profile((option_a.primitive_id, option_a.params), ctx)
    profile_b = nfr_profile((option_b.primitive_id, option_b.params), ctx)
    if profile_a.complexity is None or profile_b.complexity is None:
        raise QsafError("both options need gate realizations to compare")

    a_key = (profile_a.nisq_suitable, -profile_a.complexity.depth)
    b_key = (profile_b.nisq_suitable, -profile_b.complexity.depth)
    if ctx.regime == "nisq":
        winner, loser = (option_a, option_b) if a_key >= b_key \
            else (option_b, option_a)
        deep = profile_b if winner is option_a else profile_a
        shallow = profile_a if winner is option_a else profile_b
        rationale = (
            f"{winner.name} stays within the near-term coherence budget "
            f"(depth {shallow.complexity.depth} vs "
            f"{deep.complexity.depth}); {loser.name} carries higher "
            f"computational complexity and is reserved for fault-tolerant "
            f"hardware")
    else:
        # depth is affordable; the more expressive circuit wins
        expr_a = (profile_a.complexity.two_qubit_count,
                  profile_a.complexity.depth)
        expr_b = (profile_b.complexity.two_qubit_count,
                  profile_b.complexity.depth)
        winner, loser = (option_a, option_b) if expr_a >= expr_b \
            else (option_b, option_a)
        rationale = (
            f"fault-tolerant execution absorbs the deeper circuit, so "
            f"{winner.name} is preferred for its problem structure; "
            f"{loser.name} trades accuracy for shallowness that is no "
            f"longer needed")
    return TradeoffReport(option_a, option_b, ctx.regime, profile_a,
                          profile_b, winner.name, rationale)


# report rendering


def render_profile(label: str, profile: NfrProfile) -> str:
    lines = [f"[profile {label}]"]
    lines += [f"{key} = {value}" for key, value in profile.as_pairs()]
    return "\n".join(lines)


def render_complexity_check(check: ComplexityCheck) -> str:
    lines = [f"[complexity {check.name}]"]
    lines.append(f"metric = {check.metric.value}")
    lines.append(f"model = {check.growth.value}")
    lines.append("sizes = " + ", ".join(str(s) for s in check.sizes))
    lines.append("counts = " + ", ".join(str(c) for c in check.counts))
    lines.append(f"predicted_ratio = {check.predicted_ratio:.4f}")
    lines.append(f"measured_ratio = {check.measured_ratio:.4f}")
    lines.append(f"tolerance = {check.tolerance:.2f}")
    lines.append(f"passed = {str(check.passed).lower()}")
    return "\n".join(lines)


def render_tradeoff(report: TradeoffReport) -> str:
    lines = [f"[tradeoff {report.option_a.name} vs {report.option_b.name}]"]
    lines.append(f"regime = {report.regime}")
    for key, left, right in report.rows():
        lines.append(f"{key} = {left} | {right}")
    lines.append(f"recommendation = {report.recommendation}")
    lines.append(f"rationale = {report.rationale}")
    return "\n".join(lines)
