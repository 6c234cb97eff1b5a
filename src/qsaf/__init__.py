"""Quantum circuit primitives as architectural components.

A catalog of 34 reusable circuit primitives organized into seven
functional categories plus auxiliary operations, with a gate-level
circuit representation, a composition engine with validation across five
abstraction levels, a dense statevector simulator with a variational
loop, non-functional profiling and trade-off analysis, a text manifest
format, and OPENQASM 2.0 export.
"""

from .analyze import (AnalysisContext, ComplexityCheck, DesignOption,
                      TradeoffReport, compare, complexity_check,
                      default_ansatz_options, nfr_profile, render_profile,
                      render_tradeoff, reuse_tier, tier_notes, tier_table)
from .catalog import (Algorithm, Growth, PrimitiveDescriptor, all_primitives,
                      find_primitive, get_primitive, list_primitives, usage,
                      usage_heatmap)
from .classify import (ClassificationAttributes, MeceViolation,
                       RatingsMatrix, check_mece, classify, fleiss_kappa,
                       parse_ratings_csv)
from .composition import (AbstractionLevel, ArchitectureGraph,
                          ComponentInstance, Diagnostic, Wire,
                          entanglement_sets, optimizer)
from .core import (AncillaPolicy, ComplexitySummary, FunctionalCategory,
                   Granularity, HardwareBinding, InformationFlow,
                   InterfaceTemplate, NfrProfile, Parameter,
                   ParameterKind, ReusePattern, ReuseTier, UnitaryKind,
                   UsageLevel, category_template)
from .errors import (BadParamsError, CompositionError,
                     DegenerateMarginalsError, FanOutError,
                     KindMismatchError, LevelViolationError, ManifestError,
                     MeasuredQubitReuseError, NotEigenstateError,
                     NotLowerableError, QsafError, UnclassifiableError,
                     UnexportableError, UnknownPrimitiveError,
                     ValidationFailedError, WidthMismatchError)
from .gates import (Gate, GateCircuit, GateCounts, GateKind, dagger,
                    decompose, depth, gate_counts, unitary_of)
from .lowering import (ansatz_theta_count, lower, modular_multiply_matrix,
                       phase_unitary, port_spec, realize, realize_ansatz)
from .manifest import (Manifest, RunDirective, parse_manifest,
                       render_manifest)
from .qasm import export_gates
from .simulate import (OptimizerConfig, PauliObservable, StateVector,
                       VariationalResult, expectation, find_order,
                       iterative_phase_estimate, maxcut_observable,
                       parameter_shift_gradient, qpe_estimate, run, sample,
                       variational_minimize)
from .workflows import (MinimizationOutcome, SimulationOutcome, execute,
                        execute_directive, simulate_graph)

__version__ = "0.1.0"

__all__ = [
    "AbstractionLevel", "Algorithm", "AnalysisContext", "AncillaPolicy",
    "ArchitectureGraph", "BadParamsError",
    "ClassificationAttributes", "ComplexityCheck", "ComplexitySummary",
    "ComponentInstance", "CompositionError", "DegenerateMarginalsError",
    "DesignOption", "Diagnostic", "FanOutError", "FunctionalCategory",
    "Gate", "GateCircuit", "GateCounts", "GateKind", "Granularity",
    "Growth", "HardwareBinding", "InformationFlow", "InterfaceTemplate",
    "KindMismatchError", "LevelViolationError", "Manifest",
    "ManifestError", "MeasuredQubitReuseError", "MeceViolation",
    "MinimizationOutcome", "NfrProfile",
    "NotEigenstateError", "NotLowerableError", "OptimizerConfig",
    "Parameter", "ParameterKind", "PauliObservable",
    "PrimitiveDescriptor", "QsafError", "RatingsMatrix", "ReusePattern",
    "ReuseTier", "RunDirective", "SimulationOutcome", "StateVector",
    "TradeoffReport", "UnclassifiableError", "UnexportableError",
    "UnitaryKind", "UnknownPrimitiveError", "UsageLevel",
    "ValidationFailedError", "VariationalResult", "Wire",
    "WidthMismatchError", "all_primitives", "ansatz_theta_count",
    "category_template", "check_mece", "classify", "compare",
    "complexity_check", "dagger", "decompose", "default_ansatz_options",
    "depth",
    "entanglement_sets", "execute", "execute_directive", "expectation",
    "export_gates", "find_order", "find_primitive", "fleiss_kappa",
    "gate_counts", "get_primitive", "iterative_phase_estimate",
    "list_primitives", "lower",
    "maxcut_observable", "modular_multiply_matrix", "nfr_profile",
    "optimizer", "parameter_shift_gradient", "parse_manifest",
    "parse_ratings_csv", "phase_unitary",
    "port_spec", "qpe_estimate", "realize", "realize_ansatz",
    "render_manifest", "render_profile", "render_tradeoff", "reuse_tier",
    "run", "sample", "simulate_graph", "tier_notes", "tier_table",
    "unitary_of", "usage", "usage_heatmap", "variational_minimize",
]
