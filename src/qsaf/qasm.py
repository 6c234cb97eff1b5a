"""Gate-level export in a small OPENQASM 2.0 subset.

Emitted programs use qelib1 names plus ``u1`` for the bare phase gate and
``cp`` for the controlled phase. Angles are printed with 17 significant
digits so re-exported circuits are byte stable. Matrix-defined controlled
unitaries have no textual form and are rejected.
"""

from __future__ import annotations

from .errors import UnexportableError
from .gates import KINDS, GateCircuit, GateKind


def _angle(theta: float) -> str:
    return f"{theta:.17g}"


def export_gates(circuit: GateCircuit) -> str:
    """Render a circuit as OPENQASM 2.0 text."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{circuit.width}];"]
    if circuit.classical_bits:
        lines.append(f"creg c[{circuit.classical_bits}];")
    for gate in circuit.ops:
        name = KINDS[gate.kind].qasm
        if gate.kind is GateKind.MEASURE:
            lines.append(
                f"measure q[{gate.qubits[0]}] -> c[{gate.cbit}];")
        elif name is not None:
            angle = "" if gate.theta is None else f"({_angle(gate.theta)})"
            regs = ",".join(f"q[{q}]" for q in gate.qubits)
            lines.append(f"{name}{angle} {regs};")
        else:
            raise UnexportableError(
                f"{gate.kind.value} has no OPENQASM 2.0 form; decompose "
                f"it before exporting")
    return "\n".join(lines) + "\n"
