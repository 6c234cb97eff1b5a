"""Architectural vocabulary: categories, interface descriptions, profiles.

These types carry no circuit semantics of their own; the catalog, the
composition checker, and the analyzer all speak in terms of them.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass


class FunctionalCategory(enum.Enum):
    """The seven functional roles a circuit primitive can play."""

    STATE_PREPARATION = "state_preparation"
    ENTANGLEMENT_GENERATION = "entanglement_generation"
    ORACLE_CONSTRUCTION = "oracle_construction"
    AMPLITUDE_AMPLIFICATION = "amplitude_amplification"
    BASIS_TRANSFORMATION = "basis_transformation"
    PHASE_ESTIMATION = "phase_estimation"
    VARIATIONAL_ANSATZ = "variational_ansatz"


class UnitaryKind(enum.Enum):
    FIXED = "fixed"
    REFLECTION = "reflection"
    FOURIER = "fourier"
    CONTROLLED = "controlled"
    PARAMETERIZED = "parameterized"
    PROBLEM_DEPENDENT = "problem_dependent"


class AncillaPolicy(enum.Enum):
    NONE = "none"
    OPTIONAL = "optional"
    REQUIRED = "required"


class ParameterKind(enum.Enum):
    FIXED = "fixed"
    STRUCTURAL = "structural"
    VARIATIONAL = "variational"
    PROBLEM_DEPENDENT = "problem_dependent"


# Kinds ordered from least to most dynamic; profiles summarize a parameter
# list by the most dynamic kind present.
_PARAM_KIND_ORDER = (
    ParameterKind.FIXED,
    ParameterKind.STRUCTURAL,
    ParameterKind.PROBLEM_DEPENDENT,
    ParameterKind.VARIATIONAL,
)


def summarize_parameter_kinds(kinds) -> ParameterKind:
    """Collapse a collection of parameter kinds to the most dynamic one."""
    kinds = list(kinds)
    if not kinds:
        return ParameterKind.FIXED
    return max(kinds, key=_PARAM_KIND_ORDER.index)


@functools.total_ordering
class UsageLevel(enum.Enum):
    """How strongly an algorithm family relies on a primitive.

    Ordered: essential > frequent > sometimes > not used.
    """

    ESSENTIAL = "ES"
    FREQUENT = "FU"
    SOMETIMES = "SU"
    NOT_USED = "NU"

    @property
    def rank(self) -> int:
        return {"NU": 0, "SU": 1, "FU": 2, "ES": 3}[self.value]

    def __lt__(self, other):
        if not isinstance(other, UsageLevel):
            return NotImplemented
        return self.rank < other.rank


class Granularity(enum.Enum):
    ATOMIC = "atomic"
    COMPOSITE = "composite"
    BLOCK = "block"
    ALGORITHM = "algorithm"


class InformationFlow(enum.Enum):
    LOCAL = "local"
    GLOBAL = "global"
    HIERARCHICAL = "hierarchical"
    FEED_FORWARD = "feed_forward"
    QUANTUM_CLASSICAL_LOOP = "quantum_classical_loop"


class ReusePattern(enum.Enum):
    DIRECT = "direct"
    PARAMETRIC = "parametric"
    CONTEXTUAL = "contextual"
    HIERARCHICAL = "hierarchical"


class HardwareBinding(enum.Enum):
    AGNOSTIC = "agnostic"
    TECHNOLOGY_SPECIFIC = "technology_specific"


class AlgorithmScope(enum.Enum):
    UNIVERSAL = "universal"
    SEARCH = "search"
    PERIODICITY = "periodicity"
    VARIATIONAL = "variational"
    SIMULATION = "simulation"


class ReuseTier(enum.Enum):
    UNIVERSAL = "universal"
    CROSS_ALGORITHM = "cross_algorithm"
    ALGORITHM_SPECIFIC = "algorithm_specific"


@dataclass(frozen=True)
class Parameter:
    """A named parameter of a primitive's interface."""

    name: str
    kind: ParameterKind
    domain: str = ""


@dataclass(frozen=True)
class InterfaceTemplate:
    """Category-level interface conventions.

    One template per functional category: what the inputs and outputs mean,
    the ancilla policy, the flavor of unitary, and how information flows
    through a component of that category.
    """

    category: FunctionalCategory
    input_desc: str
    output_desc: str
    anc_policy: AncillaPolicy
    anc_note: str
    unitary_kind: UnitaryKind
    param_kind: ParameterKind
    flow: InformationFlow
    flow_desc: str


_TEMPLATES = {
    FunctionalCategory.STATE_PREPARATION: InterfaceTemplate(
        category=FunctionalCategory.STATE_PREPARATION,
        input_desc="|0...0> register of n qubits",
        output_desc="prepared target state on the same n qubits",
        anc_policy=AncillaPolicy.OPTIONAL,
        anc_note="optional work qubits for multi-controlled preparation steps",
        unitary_kind=UnitaryKind.FIXED,
        param_kind=ParameterKind.STRUCTURAL,
        flow=InformationFlow.LOCAL,
        flow_desc="local amplitudes spread toward a global target state"),
    FunctionalCategory.ENTANGLEMENT_GENERATION: InterfaceTemplate(
        category=FunctionalCategory.ENTANGLEMENT_GENERATION,
        input_desc="product state on n qubits",
        output_desc="entangled state across the same n qubits",
        anc_policy=AncillaPolicy.OPTIONAL,
        anc_note="optional ancillas for cascaded controlled rotations",
        unitary_kind=UnitaryKind.FIXED,
        param_kind=ParameterKind.STRUCTURAL,
        flow=InformationFlow.GLOBAL,
        flow_desc="correlations become global properties of the register"),
    FunctionalCategory.ORACLE_CONSTRUCTION: InterfaceTemplate(
        category=FunctionalCategory.ORACLE_CONSTRUCTION,
        input_desc="query register (plus result qubit for bit-flip oracles)",
        output_desc="same register with marked inputs tagged in phase or bit",
        anc_policy=AncillaPolicy.OPTIONAL,
        anc_note="work qubits often required for multi-controlled marking",
        unitary_kind=UnitaryKind.PROBLEM_DEPENDENT,
        param_kind=ParameterKind.PROBLEM_DEPENDENT,
        flow=InformationFlow.GLOBAL,
        flow_desc="problem structure is encoded into the register's phases"),
    FunctionalCategory.AMPLITUDE_AMPLIFICATION: InterfaceTemplate(
        category=FunctionalCategory.AMPLITUDE_AMPLIFICATION,
        input_desc="superposition containing the marked subspace",
        output_desc="same register with marked amplitudes amplified",
        anc_policy=AncillaPolicy.OPTIONAL,
        anc_note="optional work qubits for the reflection's control ladder",
        unitary_kind=UnitaryKind.REFLECTION,
        param_kind=ParameterKind.STRUCTURAL,
        flow=InformationFlow.GLOBAL,
        flow_desc="global interference concentrates amplitude on solutions"),
    FunctionalCategory.BASIS_TRANSFORMATION: InterfaceTemplate(
        category=FunctionalCategory.BASIS_TRANSFORMATION,
        input_desc="state expressed in the computational basis",
        output_desc="same state expressed in the transformed basis",
        anc_policy=AncillaPolicy.NONE,
        anc_note="no ancillas: the transform acts in place",
        unitary_kind=UnitaryKind.FOURIER,
        param_kind=ParameterKind.STRUCTURAL,
        flow=InformationFlow.GLOBAL,
        flow_desc="amplitudes are redistributed across the whole spectrum"),
    FunctionalCategory.PHASE_ESTIMATION: InterfaceTemplate(
        category=FunctionalCategory.PHASE_ESTIMATION,
        input_desc="eigenstate register plus a counting register",
        output_desc="counting register holding the binary phase readout",
        anc_policy=AncillaPolicy.REQUIRED,
        anc_note="counting qubits are mandatory ancillas",
        unitary_kind=UnitaryKind.CONTROLLED,
        param_kind=ParameterKind.STRUCTURAL,
        flow=InformationFlow.FEED_FORWARD,
        flow_desc="phase kicks feed forward from target into the counters"),
    FunctionalCategory.VARIATIONAL_ANSATZ: InterfaceTemplate(
        category=FunctionalCategory.VARIATIONAL_ANSATZ,
        input_desc="reference state plus classical parameter vector",
        output_desc="trial state; expectation values flow back classically",
        anc_policy=AncillaPolicy.OPTIONAL,
        anc_note="optional ancillas for symmetry checks",
        unitary_kind=UnitaryKind.PARAMETERIZED,
        param_kind=ParameterKind.VARIATIONAL,
        flow=InformationFlow.QUANTUM_CLASSICAL_LOOP,
        flow_desc="quantum evaluation and classical update alternate"),
}


def category_template(category: FunctionalCategory) -> InterfaceTemplate:
    """Interface template for a functional category; total over all seven."""
    return _TEMPLATES[category]


@dataclass(frozen=True)
class ComplexitySummary:
    """Concrete resource counts measured from a gate-level realization."""

    gate_count: int
    depth: int
    qubit_count: int
    ancilla_count: int = 0
    two_qubit_count: int = 0
    classical_preprocessing: str = "none"


@dataclass(frozen=True)
class NfrProfile:
    """Non-functional characterization along nine dimensions."""

    granularity: Granularity
    parameterization: ParameterKind
    algorithm_scope: frozenset
    complexity: ComplexitySummary | None
    reversible: bool
    unitary: bool
    information_flow: InformationFlow
    nisq_suitable: bool
    reuse_pattern: ReusePattern
    hardware_binding: HardwareBinding = HardwareBinding.AGNOSTIC

    def __post_init__(self):
        if self.unitary and not self.reversible:
            raise ValueError("a unitary realization is always reversible")

    def as_pairs(self):
        """Stable (key, value) rows for report rendering."""
        scope = ",".join(sorted(s.value for s in self.algorithm_scope))
        rows = [
            ("granularity", self.granularity.value),
            ("parameterization", self.parameterization.value),
            ("algorithm_scope", scope or "none"),
        ]
        if self.complexity is None:
            rows.append(("complexity", "not_realizable"))
        else:
            c = self.complexity
            rows += [
                ("gate_count", str(c.gate_count)),
                ("depth", str(c.depth)),
                ("qubit_count", str(c.qubit_count)),
                ("ancilla_count", str(c.ancilla_count)),
                ("two_qubit_count", str(c.two_qubit_count)),
                ("classical_preprocessing", c.classical_preprocessing),
            ]
        rows += [
            ("reversible", str(self.reversible).lower()),
            ("unitary", str(self.unitary).lower()),
            ("information_flow", self.information_flow.value),
            ("nisq_suitable", str(self.nisq_suitable).lower()),
            ("reuse_pattern", self.reuse_pattern.value),
            ("hardware_binding", self.hardware_binding.value),
        ]
        return rows
