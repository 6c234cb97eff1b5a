"""Exception hierarchy.

Everything raised on purpose derives from QsafError so callers can catch the
library as a whole. Subclasses are grouped by the layer that raises them.
"""

from __future__ import annotations


class QsafError(Exception):
    """Base class for all errors raised by this package."""


# circuit IR


class GateArityError(QsafError):
    """Gate applied to the wrong number of qubits."""


class DuplicateQubitError(QsafError):
    """Gate lists the same qubit twice."""


class IndexOutOfRangeError(QsafError):
    """Qubit or classical bit index outside the declared register."""


class MeasuredQubitReuseError(QsafError):
    """Unitary gate touches a qubit that was already measured."""


class NonReversibleError(QsafError):
    """Dagger or unitary requested for a circuit containing measurement."""


class TooWideError(QsafError):
    """Width exceeds the dense-representation cap."""


# interface model


class WidthMismatchError(QsafError):
    """Register widths disagree (interface, wire, or initial state)."""


# catalog and lowering


class UnknownPrimitiveError(QsafError):
    """No catalog entry with that id or name."""


class UnknownAlgorithmError(QsafError):
    """Usage requested for an algorithm column that does not exist."""


class NotLowerableError(QsafError):
    """Catalog entry has no gate-level realization."""


class BadParamsError(QsafError):
    """Lowering parameters missing, unknown, or out of range."""


# composition


class CompositionError(QsafError):
    """Structural error while building an architecture graph."""


class LevelViolationError(CompositionError):
    """Component level not below its container's level."""


class FanOutError(CompositionError):
    """Quantum output wired to more than one consumer."""


class KindMismatchError(CompositionError):
    """Quantum port wired to a classical port."""


class UnknownPortError(CompositionError):
    """Wire endpoint names a component or port that does not exist."""


class ValidationFailedError(CompositionError):
    """Flatten requested on a graph with blocking diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"[{d.code}] {d.message}"
                          for d in self.diagnostics)
        super().__init__(f"graph has blocking diagnostics: {lines}")


# classifier


class UnclassifiableError(QsafError):
    """No classification flag is set, so the decision tree has no branch."""


class RatingsMatrixError(QsafError):
    """Ratings table malformed (ragged, negative, or unequal rater counts)."""


class DegenerateMarginalsError(QsafError):
    """Agreement coefficient undefined: all ratings in a single category."""


# simulator


class NotEigenstateError(QsafError):
    """Phase estimation asked for a state the operator does not preserve."""


# manifests and export


class ManifestError(QsafError):
    """Manifest text rejected; carries the source position."""

    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class UnexportableError(QsafError):
    """Circuit uses a construct with no OPENQASM 2.0 statement."""
