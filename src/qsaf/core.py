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
    """Everything the framework states about one functional category.

    One row per category, and the only table keyed by category. A row holds
    the catalog id block ``ids``, the decision-tree attribute ``flag`` that
    classifies into the category, the interface conventions (what the
    inputs and outputs mean, the ancilla policy, the flavor of unitary, how
    information flows), the design notes (dominant concern, classical
    analogy, complexity label), whether an unwired ``in`` port is a
    finding (``needs_input``), and the classical ``preprocessing`` a
    realization needs.
    """

    category: FunctionalCategory
    ids: range
    flag: str
    input_desc: str
    output_desc: str
    anc_policy: AncillaPolicy
    anc_note: str
    unitary_kind: UnitaryKind
    param_kind: ParameterKind
    flow: InformationFlow
    flow_desc: str
    dominant_concern: str
    classical_analogy: str
    complexity_label: str
    needs_input: bool
    preprocessing: str = "none"


_C = FunctionalCategory
_A = AncillaPolicy
_U = UnitaryKind
_K = ParameterKind
_I = InformationFlow

# In decision-tree order (the enum's order): category, ids, flag; input,
# output; ancilla policy and note; unitary kind, parameter kind, flow and
# its note; dominant concern, classical analogy, complexity label;
# needs_input, preprocessing.
_TEMPLATES = {row.category: row for row in (
    InterfaceTemplate(
        _C.STATE_PREPARATION, range(1, 7), "initializes_state",
        "|0...0> register of n qubits",
        "prepared target state on the same n qubits",
        _A.OPTIONAL,
        "optional work qubits for multi-controlled preparation steps",
        _U.FIXED, _K.STRUCTURAL, _I.LOCAL,
        "local amplitudes spread toward a global target state",
        "state preparation logic", "object factory", "O(1) to O(n)",
        False),
    InterfaceTemplate(
        _C.ENTANGLEMENT_GENERATION, range(7, 11), "generates_entanglement",
        "product state on n qubits",
        "entangled state across the same n qubits",
        _A.OPTIONAL, "optional ancillas for cascaded controlled rotations",
        _U.FIXED, _K.STRUCTURAL, _I.GLOBAL,
        "correlations become global properties of the register",
        "global interactions among the qubits", "coordination mechanism",
        "O(n) to O(n+|E|)", False),
    InterfaceTemplate(
        _C.ORACLE_CONSTRUCTION, range(18, 22), "encodes_problem",
        "query register (plus result qubit for bit-flip oracles)",
        "same register with marked inputs tagged in phase or bit",
        _A.OPTIONAL, "work qubits often required for multi-controlled marking",
        _U.PROBLEM_DEPENDENT, _K.PROBLEM_DEPENDENT, _I.GLOBAL,
        "problem structure is encoded into the register's phases",
        "encode problem-specific predicates",
        "predicate evaluator, interfaces", "polynomial in input size",
        True, "predicate compiled into controlled gates"),
    InterfaceTemplate(
        _C.AMPLITUDE_AMPLIFICATION, range(11, 15), "amplifies_amplitude",
        "superposition containing the marked subspace",
        "same register with marked amplitudes amplified",
        _A.OPTIONAL,
        "optional work qubits for the reflection's control ladder",
        _U.REFLECTION, _K.STRUCTURAL, _I.GLOBAL,
        "global interference concentrates amplitude on solutions",
        "marking of good states", "iterative refinement loop",
        "O(sqrt(N)) iterations; O(n) gates",
        True, "iteration count chosen from the marked fraction"),
    InterfaceTemplate(
        _C.BASIS_TRANSFORMATION, range(15, 18), "transforms_basis",
        "state expressed in the computational basis",
        "same state expressed in the transformed basis",
        _A.NONE, "no ancillas: the transform acts in place",
        _U.FOURIER, _K.STRUCTURAL, _I.GLOBAL,
        "amplitudes are redistributed across the whole spectrum",
        "basis conversion to reveal global structure", "FFT",
        "O(n^2), O(n log n)", True),
    InterfaceTemplate(
        _C.PHASE_ESTIMATION, range(22, 25), "estimates_phase",
        "eigenstate register plus a counting register",
        "counting register holding the binary phase readout",
        _A.REQUIRED, "counting qubits are mandatory ancillas",
        _U.CONTROLLED, _K.STRUCTURAL, _I.FEED_FORWARD,
        "phase kicks feed forward from target into the counters",
        "extracting phase information", "eigenvalue solver", "O(n^2)",
        True, "controlled powers of the target unitary"),
    InterfaceTemplate(
        _C.VARIATIONAL_ANSATZ, range(25, 30), "parameterized_form",
        "reference state plus classical parameter vector",
        "trial state; expectation values flow back classically",
        _A.OPTIONAL, "optional ancillas for symmetry checks",
        _U.PARAMETERIZED, _K.VARIATIONAL, _I.QUANTUM_CLASSICAL_LOOP,
        "quantum evaluation and classical update alternate",
        "parameterized circuit template for hybrid optimization",
        "template-based optimization model", "O(n) to O(n^2)",
        False, "parameter updates from a classical optimizer"),
)}


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
