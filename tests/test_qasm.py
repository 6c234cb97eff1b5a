"""Exporter output against golden files and per-gate spellings."""

import math
import pathlib

import pytest

import qsaf.gates as g
from qsaf.errors import UnexportableError
from qsaf.gates import GateCircuit
from qsaf.lowering import lower
from qsaf.qasm import export_gates

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_bell_matches_the_golden_file():
    circuit = lower(7, {})
    assert export_gates(circuit) == (GOLDEN / "bell.qasm").read_text()


def test_qft3_matches_the_golden_file():
    circuit = lower(15, {"n": 3})
    assert export_gates(circuit) == (GOLDEN / "qft3.qasm").read_text()


def test_export_is_deterministic():
    circuit = lower(9, {"n": 4})
    assert export_gates(circuit) == export_gates(circuit)


def test_every_exportable_gate_has_its_spelling():
    circuit = GateCircuit(3, [
        g.h(0), g.x(1), g.y(2), g.z(0), g.s(1), g.sdg(1), g.t(2), g.tdg(2),
        g.rx(0.5, 0), g.ry(-0.25, 1), g.rz(1.0, 2), g.phase(math.pi, 0),
        g.cnot(0, 1), g.cz(1, 2), g.cphase(math.pi / 2, 0, 2),
        g.swap(0, 1), g.toffoli(0, 1, 2),
    ])
    text = export_gates(circuit)
    lines = text.splitlines()
    assert lines[:3] == ["OPENQASM 2.0;", 'include "qelib1.inc";',
                         "qreg q[3];"]
    assert "creg" not in text
    assert lines[3:] == [
        "h q[0];", "x q[1];", "y q[2];", "z q[0];", "s q[1];", "sdg q[1];",
        "t q[2];", "tdg q[2];",
        "rx(0.5) q[0];", "ry(-0.25) q[1];", "rz(1) q[2];",
        "u1(3.1415926535897931) q[0];",
        "cx q[0],q[1];", "cz q[1],q[2];",
        "cp(1.5707963267948966) q[0],q[2];",
        "swap q[0],q[1];", "ccx q[0],q[1],q[2];",
    ]


def test_native_gates_export_as_their_ladders():
    circuit = GateCircuit(4, [g.mcz(0, 1, 2, 3), g.mcx(3, 1, 2, 0)])
    assert export_gates(circuit).splitlines()[2:] == [
        "qreg q[6];",
        "ccx q[0],q[1],q[4];", "ccx q[2],q[4],q[5];", "cz q[5],q[3];",
        "ccx q[2],q[4],q[5];", "ccx q[0],q[1],q[4];",
        "ccx q[3],q[1],q[4];", "ccx q[2],q[4],q[5];", "cx q[5],q[0];",
        "ccx q[2],q[4],q[5];", "ccx q[3],q[1],q[4];",
    ]


def test_measurement_emits_a_classical_register():
    circuit = GateCircuit(2, [g.h(0), g.measure(0, 0), g.measure(1, 1)])
    text = export_gates(circuit)
    assert "creg c[2];" in text
    assert "measure q[0] -> c[0];" in text
    assert "measure q[1] -> c[1];" in text


def test_matrix_defined_gates_are_rejected():
    # a dense controlled unitary, and a controlled multiply modulo 3
    for gate in (g.controlled_u([[1, 0], [0, 1j]], 0, [1]),
                 g.cmodmul(2, 3, 0, [1, 2])):
        with pytest.raises(UnexportableError):
            export_gates(GateCircuit(3, [gate]))
