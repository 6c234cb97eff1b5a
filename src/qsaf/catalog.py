"""The primitive catalog: 34 reusable circuit structures.

Rows 1-29 fall into the seven functional categories, one id block each
(``category_template(c).ids``); rows 30-34 are auxiliary single-gate
operations. The usage table records how strongly each of five
algorithm families relies on each primitive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .classify import ClassificationAttributes
from .core import (FunctionalCategory, Granularity, Parameter, ParameterKind,
                   ReusePattern, UsageLevel, category_template)
from .errors import UnknownAlgorithmError, UnknownPrimitiveError


class Algorithm(enum.Enum):
    GROVER = "grover"
    SHOR = "shor"
    VQE = "vqe"
    QAOA = "qaoa"
    SIM = "sim"


ALGORITHM_ORDER = tuple(Algorithm)


class Growth(enum.Enum):
    """Asymptotic gate-count (or iteration-count) model in the size knob."""

    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    SQRT_STATES = "sqrt_states"


class CountMetric(enum.Enum):
    GATES = "gates"
    ITERATIONS = "iterations"


#: Block label, category filter value and id block of the auxiliary rows.
_AUXILIARY = "auxiliary"
_AUXILIARY_IDS = range(30, 35)
AUXILIARY_COMPLEXITY_LABEL = "O(1)"


@dataclass(frozen=True)
class PrimitiveDescriptor:
    """One catalog row.

    ``category`` is None for auxiliary entries. ``level_range`` is the span
    of abstraction levels (1 atomic gate .. 5 full algorithm) at which the
    primitive may be instantiated; ``default_level`` is the conventional
    one. ``growth`` is None when the primitive has no gate realization.
    """

    id: int
    name: str
    manifest_name: str
    category: FunctionalCategory | None
    usage: tuple[UsageLevel, ...]
    attributes: ClassificationAttributes
    params: tuple[Parameter, ...]
    summary: str
    growth: Growth | None
    metric: CountMetric
    level_range: tuple[int, int]
    default_level: int
    reuse_pattern: ReusePattern

    @property
    def lowerable(self) -> bool:
        """Whether the primitive has a gate realization."""
        return self.growth is not None

    @property
    def is_auxiliary(self) -> bool:
        return self.category is None

    @property
    def category_label(self) -> str:
        """The category's value, or the auxiliary block label."""
        return self.category.value if self.category else _AUXILIARY

    @property
    def complexity_label(self) -> str:
        if self.category is None:
            return AUXILIARY_COMPLEXITY_LABEL
        return category_template(self.category).complexity_label

    @property
    def granularity(self) -> Granularity:
        return {1: Granularity.ATOMIC, 2: Granularity.ATOMIC,
                3: Granularity.COMPOSITE, 4: Granularity.BLOCK,
                5: Granularity.ALGORITHM}[self.default_level]

    def usage_for(self, algorithm: Algorithm) -> UsageLevel:
        return self.usage[ALGORITHM_ORDER.index(algorithm)]


# Usage table, one row per primitive in catalog block order.
# Columns: Grover, Shor, VQE, QAOA, Sim.
_USAGE_TABLE = """
1  ES ES ES ES ES
2  ES ES ES ES ES
3  ES ES ES ES ES
4  ES ES ES ES ES
5  SU SU SU SU ES
6  NU NU NU NU ES
7  FU FU FU FU FU
8  FU FU FU FU FU
9  FU FU FU FU FU
10 NU NU NU NU FU
11 ES NU NU NU NU
12 ES NU NU NU NU
13 ES NU NU NU NU
14 NU NU NU NU NU
15 NU ES NU NU SU
16 NU ES NU NU SU
17 NU ES NU NU SU
18 ES ES NU NU NU
19 ES NU NU NU NU
20 NU ES NU NU NU
21 ES NU NU NU NU
22 NU ES NU NU SU
23 NU ES NU NU SU
24 NU ES NU NU SU
25 NU NU ES ES NU
26 NU NU ES ES NU
27 NU NU ES NU NU
28 NU NU ES ES NU
29 NU NU ES NU ES
30 SU SU SU SU SU
31 ES ES ES ES ES
32 ES SU SU SU SU
33 ES ES ES ES ES
34 SU SU SU SU SU
"""


def _parse_usage():
    rows = {}
    for line in _USAGE_TABLE.strip().splitlines():
        cells = line.split()
        rows[int(cells[0])] = tuple(UsageLevel(c) for c in cells[1:])
    return rows


_USAGE = _parse_usage()


def _category_of(pid: int) -> FunctionalCategory | None:
    for category in FunctionalCategory:
        if pid in category_template(category).ids:
            return category
    if pid not in _AUXILIARY_IDS:
        raise UnknownPrimitiveError(f"no primitive with id {pid}")
    return None


def _attrs_for(category: FunctionalCategory | None) -> ClassificationAttributes:
    if category is None:
        return ClassificationAttributes()
    return ClassificationAttributes(**{category_template(category).flag: True})


_S = ParameterKind.STRUCTURAL
_P = ParameterKind.PROBLEM_DEPENDENT
_V = ParameterKind.VARIATIONAL
_F = ParameterKind.FIXED


def _p(name, kind, domain=""):
    return Parameter(name, kind, domain)


# id: (name, manifest name, params, summary, growth, metric, level range,
#      default level, reuse pattern)
_ROWS = {
    1: ("Basis States", "BasisStates",
        (_p("n", _S, "qubit count"), _p("value", _P, "0 <= value < 2^n")),
        "Load a computational basis state by flipping the qubits of a bit "
        "pattern", Growth.LINEAR, CountMetric.GATES, (2, 3), 2,
        ReusePattern.DIRECT),
    2: ("Superposition (H)", "Superposition",
        (_p("n", _S, "qubit count"),),
        "Uniform superposition over all basis states via a Hadamard on "
        "every qubit", Growth.LINEAR, CountMetric.GATES, (2, 3), 2,
        ReusePattern.DIRECT),
    3: ("Arbitrary States", "ArbitraryStates",
        (_p("theta", _P, "radians"), _p("phi", _P, "radians"),
         _p("lam", _P, "radians, default 0")),
        "Prepare a chosen single-qubit state from rotation angles",
        Growth.CONSTANT, CountMetric.GATES, (2, 3), 2,
        ReusePattern.PARAMETRIC),
    4: ("Bell States", "BellStates",
        (_p("variant", _S, "phi_plus | phi_minus | psi_plus | psi_minus"),),
        "Prepare one of the four maximally entangled two-qubit states",
        Growth.CONSTANT, CountMetric.GATES, (2, 3), 2,
        ReusePattern.DIRECT),
    5: ("GHZ States", "GHZStates",
        (_p("n", _S, "qubit count >= 2"),),
        "Prepare the n-qubit GHZ state (all-zeros plus all-ones)",
        Growth.LINEAR, CountMetric.GATES, (2, 3), 2,
        ReusePattern.PARAMETRIC),
    6: ("Cluster States", "ClusterStates",
        (_p("n", _S, "qubit count"), _p("edges", _S, "list of qubit pairs")),
        "Prepare a cluster state by entangling a graph of qubits with CZ",
        Growth.LINEAR, CountMetric.GATES, (2, 3), 2,
        ReusePattern.PARAMETRIC),
    7: ("Bell State Circuits", "BellStateCircuits",
        (_p("variant", _S, "phi_plus | phi_minus | psi_plus | psi_minus"),),
        "Bell pair generator used as an entangling subroutine",
        Growth.CONSTANT, CountMetric.GATES, (2, 3), 2,
        ReusePattern.DIRECT),
    8: ("GHZ State Circuits", "GHZStateCircuits",
        (_p("n", _S, "qubit count >= 2"),),
        "GHZ cascade used as an entangling subroutine",
        Growth.LINEAR, CountMetric.GATES, (2, 3), 2,
        ReusePattern.PARAMETRIC),
    9: ("W State Circuits", "WStateCircuits",
        (_p("n", _S, "qubit count >= 2"),),
        "W state: a single excitation shared equally across n qubits",
        Growth.LINEAR, CountMetric.GATES, (2, 3), 2,
        ReusePattern.PARAMETRIC),
    10: ("Cluster State Circuits", "ClusterStateCircuits",
         (_p("n", _S, "qubit count"), _p("edges", _S, "list of qubit pairs")),
         "Graph-topology entangler (H layer plus CZ per edge)",
         Growth.LINEAR, CountMetric.GATES, (2, 3), 2,
         ReusePattern.PARAMETRIC),
    11: ("Grover Operator", "GroverOperator",
         (_p("n", _S, "qubit count"), _p("marked", _P, "marked basis states"),
          _p("iterations", _S, "repetitions, default 1")),
         "One amplitude-amplification step: oracle then diffusion",
         Growth.SQRT_STATES, CountMetric.ITERATIONS, (3, 4), 3,
         ReusePattern.HIERARCHICAL),
    12: ("Diffusion Operator", "DiffusionOperator",
         (_p("n", _S, "qubit count"),),
         "Inversion about the mean over the uniform state",
         Growth.LINEAR, CountMetric.GATES, (3, 4), 3,
         ReusePattern.PARAMETRIC),
    13: ("Reflection Operators", "ReflectionOperators",
         (_p("n", _S, "qubit count"), _p("state", _P, "axis basis state")),
         "Reflection about a chosen basis state",
         Growth.LINEAR, CountMetric.GATES, (3, 4), 3,
         ReusePattern.CONTEXTUAL),
    14: ("Amplitude Damping", "AmplitudeDamping",
         (_p("gamma", _P, "damping strength"),),
         "Amplitude damping channel; no unitary gate realization",
         None, CountMetric.GATES, (3, 4), 3,
         ReusePattern.CONTEXTUAL),
    15: ("Standard QFT", "StandardQFT",
         (_p("n", _S, "qubit count"),),
         "Quantum Fourier transform (controlled-phase ladder plus reversal "
         "swaps)", Growth.QUADRATIC, CountMetric.GATES, (3, 4), 3,
         ReusePattern.PARAMETRIC),
    16: ("Inverse QFT", "InverseQFT",
         (_p("n", _S, "qubit count"),),
         "Inverse quantum Fourier transform",
         Growth.QUADRATIC, CountMetric.GATES, (3, 4), 3,
         ReusePattern.PARAMETRIC),
    17: ("Approximate QFT", "ApproximateQFT",
         (_p("n", _S, "qubit count"),
          _p("cutoff", _S, "max controlled-phase span kept")),
         "QFT with small-angle controlled phases dropped beyond a cutoff",
         Growth.QUADRATIC, CountMetric.GATES, (3, 4), 3,
         ReusePattern.PARAMETRIC),
    18: ("Phase Oracles", "PhaseOracles",
         (_p("n", _S, "qubit count"), _p("marked", _P, "marked basis states")),
         "Flip the phase of chosen basis states",
         Growth.LINEAR, CountMetric.GATES, (2, 3), 3,
         ReusePattern.CONTEXTUAL),
    19: ("Bit-Flip Oracles", "BitFlipOracles",
         (_p("n", _S, "query qubit count"),
          _p("marked", _P, "marked basis states")),
         "Flip a result qubit on chosen basis states",
         Growth.LINEAR, CountMetric.GATES, (2, 3), 3,
         ReusePattern.CONTEXTUAL),
    20: ("Arithmetic Oracles", "ArithmeticOracles",
         (_p("a", _P, "multiplier, coprime to modulus"),
          _p("modulus", _P, "modulus >= 2"),
          _p("power", _S, "controlled power, default 1")),
         "Modular multiply-by-a as a controlled arithmetic unitary",
         Growth.CONSTANT, CountMetric.GATES, (2, 3), 3,
         ReusePattern.CONTEXTUAL),
    21: ("Boolean Oracles", "BooleanOracles",
         (_p("n", _S, "input qubit count"),
          _p("truth_table", _P, "2^n output bits")),
         "Oracle compiled from an explicit truth table",
         Growth.LINEAR, CountMetric.GATES, (2, 3), 3,
         ReusePattern.CONTEXTUAL),
    22: ("Standard QPE", "StandardQPE",
         (_p("t", _S, "counting qubits"),
          _p("phase", _P, "eigenphase for the diagonal demo unitary"),
          _p("a", _P, "modular multiplier alternative"),
          _p("modulus", _P, "modulus for the multiplier alternative")),
         "Phase readout of a unitary into a measured counting register",
         Growth.QUADRATIC, CountMetric.GATES, (3, 4), 4,
         ReusePattern.HIERARCHICAL),
    23: ("Iterative QPE", "IterativeQPE",
         (_p("k", _S, "round exponent (power 2^k)"),
          _p("feedback", _S, "accumulated phase correction"),
          _p("phase", _P, "eigenphase for the diagonal demo unitary"),
          _p("a", _P, "modular multiplier alternative"),
          _p("modulus", _P, "modulus for the multiplier alternative")),
         "Single-ancilla phase estimation round with phase feedback",
         Growth.CONSTANT, CountMetric.GATES, (3, 4), 4,
         ReusePattern.HIERARCHICAL),
    24: ("Bayesian QPE", "BayesianQPE",
         (_p("prior", _P, "phase prior"),),
         "Adaptive phase estimation via prior updates; realization is "
         "problem-specific", None, CountMetric.GATES, (3, 4), 4,
         ReusePattern.CONTEXTUAL),
    25: ("Hardware-Efficient Ansatz", "HardwareEfficientAnsatz",
         (_p("n", _S, "qubit count"), _p("layers", _S, "layer count"),
          _p("thetas", _V, "2 * n * layers angles")),
         "Layered single-qubit rotations with a CNOT chain",
         Growth.LINEAR, CountMetric.GATES, (3, 3), 3,
         ReusePattern.PARAMETRIC),
    26: ("Problem-Inspired Ansatz", "ProblemInspiredAnsatz",
         (_p("n", _S, "qubit count"), _p("edges", _P, "problem graph"),
          _p("gammas", _V, "cost angles, one per layer"),
          _p("betas", _V, "mixer angles, one per layer")),
         "Cost/mixer alternation built from a problem graph",
         Growth.LINEAR, CountMetric.GATES, (3, 3), 3,
         ReusePattern.CONTEXTUAL),
    27: ("UCCSD Ansatz", "UCCSDAnsatz",
         (_p("n", _S, "qubit count"),
          _p("thetas", _V, "excitation amplitudes"),
          _p("blocks", _P, "Pauli-string blocks, default singles+doubles")),
         "Excitation-block ansatz built from Pauli-string exponentials",
         Growth.LINEAR, CountMetric.GATES, (3, 3), 3,
         ReusePattern.CONTEXTUAL),
    28: ("Heuristic Ansatz", "HeuristicAnsatz",
         (_p("n", _S, "qubit count"), _p("layers", _S, "layer count"),
          _p("rotations", _S, "rotation kinds per layer"),
          _p("entangler", _S, "chain | ring"),
          _p("thetas", _V, "layers * n * len(rotations) angles")),
         "Configurable rotation/entangler template",
         Growth.LINEAR, CountMetric.GATES, (3, 3), 3,
         ReusePattern.PARAMETRIC),
    29: ("Hamiltonian Ansatz", "HamiltonianAnsatz",
         (_p("n", _S, "qubit count"), _p("coupling", _P, "bond strength"),
          _p("field", _P, "transverse field"), _p("dt", _S, "time step"),
          _p("steps", _S, "Trotter steps"),
          _p("thetas", _V, "optional: 2 angles per step"),
          _p("periodic", _S, "ring topology flag")),
         "Trotterized evolution layers of a transverse-field Ising model",
         Growth.LINEAR, CountMetric.GATES, (3, 3), 3,
         ReusePattern.PARAMETRIC),
    30: ("SWAP Gates", "SwapGates",
         (_p("i", _S, "first qubit"), _p("j", _S, "second qubit"),
          _p("n", _S, "register width, default max(i,j)+1")),
         "Exchange two qubit positions",
         Growth.CONSTANT, CountMetric.GATES, (1, 2), 1,
         ReusePattern.DIRECT),
    31: ("Controlled Operations", "ControlledOperations",
         (_p("op", _S, "x | z | phase"), _p("control", _S, "control qubit"),
          _p("target", _S, "target qubit"),
          _p("theta", _F, "angle for op=phase"),
          _p("n", _S, "register width, default max+1")),
         "Two-qubit controlled gate (X, Z, or phase)",
         Growth.CONSTANT, CountMetric.GATES, (1, 2), 1,
         ReusePattern.DIRECT),
    32: ("Toffoli Gates", "ToffoliGates",
         (_p("c1", _S, "first control"), _p("c2", _S, "second control"),
          _p("target", _S, "target qubit"),
          _p("n", _S, "register width, default max+1")),
         "Doubly controlled NOT",
         Growth.CONSTANT, CountMetric.GATES, (1, 2), 1,
         ReusePattern.DIRECT),
    33: ("Measurement", "Measurement",
         (_p("n", _S, "qubits to read out"),),
         "Read out qubits into classical bits",
         Growth.LINEAR, CountMetric.GATES, (1, 2), 1,
         ReusePattern.DIRECT),
    34: ("Ancilla Management", "AncillaManagement",
         (_p("count", _S, "scratch qubits to reserve"),
          _p("released", _S,
             "released scratch qubits, 0..count, default count")),
         "Reserve and release scratch qubits",
         Growth.CONSTANT, CountMetric.GATES, (1, 2), 1,
         ReusePattern.DIRECT),
}


def _build_catalog():
    out = {}
    for pid, row in _ROWS.items():
        (name, mname, params, summary, growth, metric, level_range,
         default_level, pattern) = row
        category = _category_of(pid)
        out[pid] = PrimitiveDescriptor(
            id=pid, name=name, manifest_name=mname, category=category,
            usage=_USAGE[pid], attributes=_attrs_for(category),
            params=params, summary=summary, growth=growth, metric=metric,
            level_range=level_range, default_level=default_level,
            reuse_pattern=pattern)
    return out


_CATALOG = _build_catalog()

_BY_MANIFEST_NAME = {d.manifest_name.lower(): d.id for d in _CATALOG.values()}


def all_primitives() -> tuple[PrimitiveDescriptor, ...]:
    """All 34 descriptors in id order."""
    return tuple(_CATALOG[pid] for pid in sorted(_CATALOG))


def get_primitive(primitive_id: int) -> PrimitiveDescriptor:
    try:
        return _CATALOG[primitive_id]
    except KeyError:
        raise UnknownPrimitiveError(
            f"no primitive with id {primitive_id}") from None


def find_primitive(name: str) -> PrimitiveDescriptor:
    """Look up by manifest name (case-insensitive, punctuation ignored)."""
    key = "".join(c for c in name if c.isalnum()).lower()
    if key in _BY_MANIFEST_NAME:
        return _CATALOG[_BY_MANIFEST_NAME[key]]
    raise UnknownPrimitiveError(f"unknown primitive {name!r}")


def _algorithm(algorithm) -> Algorithm:
    """An Algorithm, given as itself or by its value in any case."""
    if not isinstance(algorithm, str):
        return algorithm
    try:
        return Algorithm(algorithm.lower())
    except ValueError:
        raise UnknownAlgorithmError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{[a.value for a in ALGORITHM_ORDER]}") from None


def _category_label(category) -> str:
    """The block label a category filter selects: a FunctionalCategory,
    or a category value or the auxiliary label in any case."""
    if isinstance(category, FunctionalCategory):
        return category.value
    labels = [c.value for c in FunctionalCategory] + [_AUXILIARY]
    label = str(category).lower()
    if label not in labels:
        raise ValueError(f"unknown category {category!r}; expected one of "
                         f"{labels}")
    return label


def usage(primitive_id: int, algorithm) -> UsageLevel:
    """Usage level of one primitive in one algorithm family."""
    desc = get_primitive(primitive_id)
    return desc.usage_for(_algorithm(algorithm))


def list_primitives(category=None, algorithm=None,
                    min_usage=UsageLevel.SOMETIMES):
    """Filter the catalog.

    With ``category`` (a FunctionalCategory, its value, or "auxiliary"),
    returns that block. With ``algorithm``, returns primitives whose usage
    there is at least ``min_usage``.
    """
    out = list(all_primitives())
    if category is not None:
        label = _category_label(category)
        out = [d for d in out if d.category_label == label]
    if algorithm is not None:
        algorithm = _algorithm(algorithm)
        if isinstance(min_usage, str):
            min_usage = UsageLevel(min_usage.upper())
        out = [d for d in out if d.usage_for(algorithm) >= min_usage]
    return out


def usage_heatmap() -> str:
    """Render the usage table as aligned text."""
    header = f"{'id':>3} {'primitive':<26}" + "".join(
        f"{a.value:>8}" for a in ALGORITHM_ORDER)
    lines = [header, "-" * len(header)]
    last_block = None
    for desc in all_primitives():
        block = desc.category_label
        if block != last_block:
            lines.append(f"[{block}]")
            last_block = block
        cells = "".join(f"{u.value:>8}" for u in desc.usage)
        lines.append(f"{desc.id:>3} {desc.name:<26}{cells}")
    return "\n".join(lines)
