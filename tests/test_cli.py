"""Command-line interface: every subcommand, exit codes, error paths."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from qsaf.cli import main
from qsaf.composition import ArchitectureGraph
from qsaf.simulate import NonDecreasingEnergyWarning

from reference import VQE_MANIFEST

SRC = str(Path(__file__).resolve().parent.parent / "src")

RATINGS = "2,1\n2,1\n1,2\n"


@pytest.fixture
def grover_file(tmp_path, grover_manifest_text):
    path = tmp_path / "grover.qsaf"
    path.write_text(grover_manifest_text)
    return str(path)


@pytest.fixture
def vqe_file(tmp_path, vqe_manifest_text):
    path = tmp_path / "vqe.qsaf"
    path.write_text(vqe_manifest_text)
    return str(path)


def test_catalog_list_prints_all_rows(capsys):
    assert main(["catalog", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 34
    assert lines[0].split() == ["1", "BasisStates", "state_preparation"]


def test_catalog_list_filters(capsys):
    assert main(["catalog", "list", "--category", "auxiliary"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert main(["catalog", "list", "--algorithm", "grover",
                 "--min-usage", "ES"]) == 0
    ids = [int(line.split()[0])
           for line in capsys.readouterr().out.splitlines()]
    assert ids == [1, 2, 3, 4, 11, 12, 13, 18, 19, 21, 31, 32, 33]


@pytest.mark.parametrize("flag", ["--category", "--algorithm"])
def test_catalog_list_rejects_a_bad_filter(capsys, flag):
    assert main(["catalog", "list", flag, "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = flag.lstrip("-")
    assert captured.err.startswith(
        f"error: unknown {name} 'bogus'; expected one of [")
    assert len(captured.err.splitlines()) == 1


def test_catalog_show_by_id_and_name(capsys):
    assert main(["catalog", "show", "15"]) == 0
    out = capsys.readouterr().out
    assert "[StandardQFT]" in out
    assert "id = 15" in out
    assert "usage.shor = ES" in out
    assert "reuse_tier = algorithm_specific" in out
    assert "tier_note = " in out
    assert main(["catalog", "show", "StandardQFT"]) == 0


def test_catalog_show_requires_a_primitive():
    with pytest.raises(SystemExit):
        main(["catalog", "show"])


def test_unknown_primitive_exits_2(capsys):
    assert main(["catalog", "show", "Flurbinator"]) == 2
    assert "error:" in capsys.readouterr().err


def test_heatmap(capsys):
    assert main(["heatmap"]) == 0
    out = capsys.readouterr().out
    assert "[auxiliary]" in out
    assert "[state_preparation]" in out


def test_classify(capsys):
    assert main(["classify", "15"]) == 0
    assert capsys.readouterr().out.strip() \
        == "StandardQFT: basis_transformation"
    assert main(["classify", "SwapGates"]) == 0
    assert "auxiliary (no classification flags)" in capsys.readouterr().out


def test_mece(capsys):
    assert main(["mece"]) == 0
    assert "mece check clean" in capsys.readouterr().out


def test_kappa(tmp_path, capsys):
    csv = tmp_path / "ratings.csv"
    csv.write_text(RATINGS)
    assert main(["kappa", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "fleiss_kappa = -0.350000" in out
    assert "items = 3" in out
    assert "raters = 3" in out


def test_kappa_missing_file(tmp_path, capsys):
    assert main(["kappa", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_clean(grover_file, capsys):
    assert main(["validate", grover_file]) == 0
    assert capsys.readouterr().out.strip() == "validation clean"


def test_validate_blocking(tmp_path, capsys):
    path = tmp_path / "broken.qsaf"
    path.write_text("component qft = StandardQFT(n=2)\n")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "unwired_input" in out
    assert "1 finding(s), 1 blocking" in out


def test_validate_contract_strictness(tmp_path, capsys):
    path = tmp_path / "advice.qsaf"
    path.write_text("component a = Superposition(n=1)\n"
                    "component b = Superposition(n=1)\n"
                    "contract {0, 1}\n")
    assert main(["validate", str(path)]) == 0
    assert "1 finding(s), 0 blocking" in capsys.readouterr().out
    assert main(["validate", str(path), "--strict-contracts"]) == 1
    assert "1 finding(s), 1 blocking" in capsys.readouterr().out


def test_export_to_stdout_and_file(grover_file, tmp_path, capsys):
    assert main(["export", grover_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OPENQASM 2.0;")
    assert "creg c[2];" in out

    target = tmp_path / "out.qasm"
    assert main(["export", grover_file, "-o", str(target)]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    assert target.read_text() == out


def test_export_rejects_invalid_graphs(tmp_path, capsys):
    path = tmp_path / "broken.qsaf"
    path.write_text("component qft = StandardQFT(n=2)\n")
    assert main(["export", str(path)]) == 2
    assert "blocking" in capsys.readouterr().err


def test_simulate_is_seed_deterministic(tmp_path, capsys):
    path = tmp_path / "bell.qsaf"
    path.write_text("component bell = BellStates()\n")
    assert main(["simulate", str(path), "--shots", "256",
                 "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "counts[00] = 139" in out
    assert "counts[11] = 117" in out


def test_simulate_reads_the_seed_environment(tmp_path, capsys,
                                             monkeypatch):
    path = tmp_path / "bell.qsaf"
    path.write_text("component bell = BellStates()\n")
    monkeypatch.setenv("QSAF_SEED", "11")
    assert main(["simulate", str(path), "--shots", "256"]) == 0
    out = capsys.readouterr().out
    assert "counts[00] = 139" in out


def test_simulate_projects_measured_registers(grover_file, capsys):
    assert main(["simulate", grover_file, "--shots", "16"]) == 0
    out = capsys.readouterr().out
    assert "register = classical (2 bits)" in out
    assert "counts[11] = 16" in out


def test_run_executes_directives(grover_file, capsys):
    assert main(["run", grover_file]) == 0
    out = capsys.readouterr().out
    assert "[simulate]" in out
    assert "counts[11] = 512" in out


def test_run_minimize(vqe_file, capsys):
    assert main(["run", vqe_file]) == 0
    out = capsys.readouterr().out
    assert "[minimize]" in out
    assert "converged = true" in out


def test_grover_runs_on_ten_qubits_and_exports_its_ladders(tmp_path,
                                                          capsys):
    # native MCZ gates need no scratch: 10 qubits, not the ladders' 18
    path = tmp_path / "grover10.qsaf"
    path.write_text("component sup = Superposition(n=10)\n"
                    "component search = GroverOperator(n=10, marked=[1])\n"
                    "component meas = Measurement(n=10)\n"
                    "wire sup.out -> search.in\n"
                    "wire search.out -> meas.in\n"
                    "run simulate shots=4096 seed=3\n")
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    counts = {}
    for line in captured.out.splitlines():
        if line.startswith("counts["):
            key, hits = line[len("counts["):].split("] = ")
            counts[key] = int(hits)
    assert sum(counts.values()) == 4096
    # one iteration lifts the marked state to about 9 times any other
    # (37 shots here; no other outcome gets more than 13)
    marked = counts.pop("0000000001")
    assert marked > 2 * max(counts.values())
    assert main(["export", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "qreg q[18];" in lines
    # each of the two phase flips is 8 Toffolis, a CZ and 8 Toffolis
    assert sum(line.startswith("ccx ") for line in lines) == 2 * 16
    assert "cz q[17],q[9];" in lines


def test_export_writes_phase_estimation_of_a_phase(tmp_path, capsys):
    # each controlled power of diag(1, e^{2 pi i phase}) is one CPHASE, so
    # phase estimation exports; the work qubit comes first in the flat
    # register, the counting qubits above it
    path = tmp_path / "qpe.qsaf"
    path.write_text("component w = BasisStates(n=1, value=1)\n"
                    "component q = StandardQPE(t=3, phase=0.375)\n"
                    "wire w.out -> q.in\n")
    assert main(["export", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "qreg q[4];" in lines and "creg c[3];" in lines
    for k, turns in enumerate((0.375, 0.75, 0.5)):
        assert f"cp({2 * math.pi * turns:.17g}) q[{k + 1}],q[0];" in lines
    assert "measure q[3] -> c[2];" in lines


def test_run_without_directives(tmp_path, capsys):
    path = tmp_path / "quiet.qsaf"
    path.write_text("component bell = BellStates()\n")
    assert main(["run", str(path)]) == 1
    assert "no run directives" in capsys.readouterr().err


def test_entanglement_groups(grover_file, capsys):
    assert main(["entanglement", grover_file]) == 0
    assert capsys.readouterr().out.strip() == "{0, 1}"


def test_analyze_profile_and_budget(capsys):
    assert main(["analyze", "25"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[profile HardwareEfficientAnsatz]")
    assert "nisq_suitable = true" in out
    assert main(["analyze", "25", "--nisq-budget", "10"]) == 0
    assert "nisq_suitable = false" in capsys.readouterr().out


def test_tier_single_and_table(capsys):
    assert main(["tier", "30"]) == 0
    out = capsys.readouterr().out
    assert "SwapGates: algorithm_specific" in out
    assert "note:" in out
    assert main(["tier"]) == 0
    out = capsys.readouterr().out
    assert "[universal]" in out
    assert "[cross_algorithm]" in out
    assert "[algorithm_specific]" in out


def test_complexity_check_command(capsys):
    assert main(["complexity", "15"]) == 0
    out = capsys.readouterr().out
    assert "passed = true" in out
    assert main(["complexity", "15", "--sizes", "4,8"]) == 0
    assert "sizes = 4, 8" in capsys.readouterr().out


def test_complexity_failures_and_errors(capsys):
    # the square-root model is a poor fit at the smallest sizes
    assert main(["complexity", "11", "--sizes", "2,3"]) == 1
    assert "passed = false" in capsys.readouterr().out
    assert main(["complexity", "14"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["complexity", "15", "--sizes", "8,4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_regimes(capsys):
    assert main(["compare"]) == 0
    assert "recommendation = hardware_efficient" in capsys.readouterr().out
    assert main(["compare", "--regime", "fault_tolerant"]) == 0
    assert "recommendation = problem_inspired_uccsd" \
        in capsys.readouterr().out


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("count", ["[1]", '"x"'])
def test_validate_reports_malformed_ancilla_count(tmp_path, capsys, count):
    path = tmp_path / "ancilla.qsaf"
    path.write_text(f"component a = AncillaManagement(count={count})\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "error [bad_params]" in captured.out
    assert "1 finding(s), 1 blocking" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("component", [
    "HeuristicAnsatz(n=2, layers=1, rotations=[[1]], thetas=[0.1, 0.2])",
    "UCCSDAnsatz(n=4, thetas=[0.1], blocks=5)",
])
def test_validate_reports_malformed_ansatz_structure(tmp_path, capsys,
                                                     component):
    path = tmp_path / "ansatz.qsaf"
    path.write_text(f"component a = {component}\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "error [bad_params]" in captured.out
    assert "1 finding(s), 1 blocking" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("component", [
    "ArithmeticOracles(a=7, modulus=8388609)",
    "StandardQPE(t=3, a=7, modulus=2097153)",
    "IterativeQPE(k=1, a=7, modulus=8388609)",
])
def test_validate_rejects_a_modulus_past_the_width_cap(tmp_path, capsys,
                                                       component):
    # control and work qubits together would be wider than
    # lowering.WIDTH_CAP (24); the check comes before any gate is built,
    # and a multiply is never a dense matrix, so nothing large is allocated
    path = tmp_path / "modulus.qsaf"
    path.write_text(f"component o = {component}\n")
    tracemalloc.start()
    try:
        assert main(["validate", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert "error [bad_params]" in captured.out
    assert "exceeds the width cap 24" in captured.out
    assert "1 finding(s), 1 blocking" in captured.out
    assert captured.err == ""
    assert peak < 2 ** 20


@pytest.mark.parametrize("options,message", [
    ("shots=8 seed=1.5", "'seed' must be an integer, got 1.5"),
    ("shots=8 seed=true", "'seed' must be an integer, got True"),
    ("shots=8 seed=-1", "'seed' must be >= 0, got -1"),
    ("shots=1.5", "'shots' must be an integer, got 1.5"),
    ("shots=true", "'shots' must be an integer, got True"),
    ("shots=0", "'shots' must be between 1 and 10000000, got 0"),
    ("shots=10000000000000", "'shots' must be between 1 and 10000000"),
])
def test_run_rejects_malformed_simulate_options(tmp_path, capsys, options,
                                                message):
    path = tmp_path / "bell.qsaf"
    path.write_text("component bell = BellStates()\n"
                    f"run simulate {options}\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_simulate_caps_shots(tmp_path, capsys):
    path = tmp_path / "bell.qsaf"
    path.write_text("component bell = BellStates()\n")
    assert main(["simulate", str(path), "--shots", "10000001"]) == 2
    captured = capsys.readouterr()
    assert "'shots' must be between 1 and 10000000" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("component,message", [
    ("GroverOperator(n=3, marked=[1], iterations=513)",
     "'iterations' must be <= 512"),
    ("GroverOperator(n=3, marked=[1], iterations=10000000)",
     "'iterations' must be <= 512"),
    ("HamiltonianAnsatz(n=2, steps=1025, dt=0.1)", "'steps' must be <= 1024"),
    ("HamiltonianAnsatz(n=2, steps=10000000, dt=0.1)",
     "'steps' must be <= 1024"),
])
def test_validate_bounds_repetition_counts(tmp_path, capsys, component,
                                           message):
    path = tmp_path / "repeat.qsaf"
    path.write_text(f"component a = {component}\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "error [bad_params]" in captured.out
    assert message in captured.out
    assert "1 finding(s), 1 blocking" in captured.out
    assert captured.err == ""


def _cli(*args, timeout=60):
    """``python -m qsaf.cli`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", "qsaf.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def _with_minimize_options(tmp_path, manifest_text, options):
    path = tmp_path / "minimize.qsaf"
    path.write_text(manifest_text.replace("run minimize",
                                          f"run minimize {options}"))
    return str(path)


@pytest.mark.parametrize("options,message", [
    ('step="abc"', "'step' must be a finite number, got 'abc'"),
    ("tol=[1]", "'tol' must be a finite number, got [1]"),
    ("step=true", "'step' must be a finite number, got True"),
    ("min_step=1e400", "'min_step' must be a finite number, got inf"),
    ("step=0", "'step' must be > 0, got 0"),
    ("tol=-0.5", "'tol' must be >= 0, got -0.5"),
    ("max_iters=1.5", "'max_iters' must be an integer, got 1.5"),
    ("max_iters=true", "'max_iters' must be an integer, got True"),
    ("max_iters=0", "'max_iters' must be between 1 and 100000, got 0"),
    ("max_iters=100001", "'max_iters' must be between 1 and 100000"),
])
def test_run_rejects_malformed_minimize_options(tmp_path, capsys,
                                                vqe_manifest_text, options,
                                                message):
    path = _with_minimize_options(tmp_path, vqe_manifest_text, options)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def _with_optimizer_params(tmp_path, manifest_text, params):
    path = tmp_path / "optimizer.qsaf"
    path.write_text(manifest_text.replace("max_iters=300)", f"{params})"))
    return str(path)


@pytest.mark.parametrize("params,message", [
    ('max_iters=300, step="abc", tol=-1',
     "'step' must be a finite number, got 'abc'"),
    ("max_iters=300, tol=-1", "'tol' must be >= 0, got -1"),
    ("max_iters=300, min_step=0", "'min_step' must be > 0, got 0"),
    ("max_iters=300, step=true", "'step' must be a finite number, got True"),
    ("max_iters=1.5", "'max_iters' must be an integer, got 1.5"),
    ("max_iters=0", "'max_iters' must be between 1 and 100000, got 0"),
])
def test_validate_and_run_reject_malformed_optimizer_params(
        tmp_path, capsys, vqe_manifest_text, params, message):
    path = _with_optimizer_params(tmp_path, vqe_manifest_text, params)
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"error [bad_params] opt: option {message}",
        "1 finding(s), 1 blocking"]
    assert captured.err == ""
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: graph has blocking diagnostics: "
                            f"[bad_params] opt: option {message}\n")
    assert captured.out == ""


NON_FINITE_STATE = """\
name non_finite_state
version 1
level 5

component s = ArbitraryStates(theta=1e999, phi=0.5)
component meas = Measurement(n=1)

wire s.out -> meas.in

run simulate shots=10 seed=1
"""


@pytest.mark.parametrize("text,message", [
    (NON_FINITE_STATE,
     "s: 'theta' must be a finite number, got inf"),
    (VQE_MANIFEST.replace("thetas=[0.1,", "thetas=[1e999,"),
     "ansatz: 'thetas' must contain finite numbers, got inf"),
], ids=["ArbitraryStates", "HardwareEfficientAnsatz"])
def test_validate_and_run_reject_non_finite_params(tmp_path, capsys, text,
                                                   message):
    # 1e999 parses to inf; a run used to fail with "math domain error"
    path = tmp_path / "non_finite.qsaf"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"error [bad_params] {message}" in out
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("observable", ["1e999*Z0", "nan*Z0", "inf"])
def test_run_rejects_a_non_finite_observable_factor(
        tmp_path, capsys, vqe_manifest_text, observable):
    path = tmp_path / "observable.qsaf"
    path.write_text(vqe_manifest_text.replace("Z0*Z1 + 0.5*X0", observable))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way out
        assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        "error: graph has blocking diagnostics: [bad_params] opt: "
        "coefficient ")
    assert "must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("observable,message", [
    ("Q9 + Z0", "cannot parse factor 'Q9'"),
    ("1e999*Z0", "coefficient inf must be finite"),
    ("Z0*Z2", "qubit 2 outside width 2 in 'Z0*Z2'"),
])
def test_validate_and_run_agree_on_the_observable(
        tmp_path, capsys, vqe_manifest_text, observable, message):
    # read at the width of the ansatz the optimizer drives
    path = tmp_path / "observable.qsaf"
    path.write_text(vqe_manifest_text.replace("Z0*Z1 + 0.5*X0", observable))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"error [bad_params] opt: {message}", "1 finding(s), 1 blocking"]
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: graph has blocking diagnostics: "
                            f"[bad_params] opt: {message}\n")
    assert captured.out == ""


def test_a_component_that_fails_to_realize_reports_only_bad_params(
        tmp_path, capsys):
    # its wires and the Measurement's input are not judged without ports
    path = tmp_path / "non_finite.qsaf"
    path.write_text(NON_FINITE_STATE)
    message = "s: 'theta' must be a finite number, got inf"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error [bad_params] {message}", "1 finding(s), 1 blocking"]
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: graph has blocking diagnostics: [bad_params] {message}\n")


def test_validate_reports_a_run_option_that_run_refuses(tmp_path, capsys,
                                                       vqe_manifest_text):
    # the directive's options override the optimizer's params at run time;
    # validate checks them as run does
    path = _with_minimize_options(tmp_path, vqe_manifest_text, "step=0")
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "error [bad_directive] run minimize on line 15: option 'step' must "
        "be > 0, got 0", "1 finding(s), 1 blocking"]
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == \
        "error: option 'step' must be > 0, got 0\n"


BELL = ('component bell = BellStates(variant="phi_plus")\n'
        "component meas = Measurement(n=2)\n"
        "wire bell.out -> meas.in\n")


@pytest.mark.parametrize("base,directive,message", [
    ("bell", "run simulate shots=0",
     "option 'shots' must be between 1 and 10000000, got 0"),
    ("bell", "run simulate shots=1.5",
     "option 'shots' must be an integer, got 1.5"),
    ("bell", "run simulate seed=-1", "option 'seed' must be >= 0, got -1"),
    ("bell", "run simulate bogus=1", "unknown simulate option 'bogus'"),
    ("vqe", "run minimize max_iters=0",
     "option 'max_iters' must be between 1 and 100000, got 0"),
    ("vqe", "run minimize foo=1", "unknown minimize option 'foo'"),
    ("bell", "run minimize",
     "minimize needs exactly one Optimizer component, found 0"),
])
def test_validate_reports_each_directive_run_refuses(
        tmp_path, capsys, vqe_manifest_text, base, directive, message):
    text = BELL if base == "bell" else \
        vqe_manifest_text.replace("run minimize\n", "")
    text += "\n" + directive + "\n"
    path = tmp_path / "directive.qsaf"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    line = text.count("\n")
    verb = directive.split()[1]
    assert capsys.readouterr().out.splitlines() == [
        f"error [bad_directive] run {verb} on line {line}: {message}",
        "1 finding(s), 1 blocking"]
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_validate_checks_the_graph_once_for_every_directive(
        tmp_path, capsys, monkeypatch, vqe_manifest_text):
    # validate's own pass vouches for the graph, so the directives'
    # checks neither validate it again nor flatten it more than once
    calls = dict.fromkeys(["validate", "_flatten_checked"], 0)
    for name in calls:
        def spy(self, *args, _name=name,
                _real=getattr(ArchitectureGraph, name), **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(ArchitectureGraph, name, spy)
    path = tmp_path / "vqe.qsaf"
    path.write_text(vqe_manifest_text + "run minimize\n"
                    "run simulate shots=8\nrun simulate shots=16\n")
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "validation clean\n"
    # one flatten judges the manifest's contract, one serves the directives
    assert calls == {"validate": 1, "_flatten_checked": 2}


def test_a_step_past_the_floats_shortens_without_a_warning(tmp_path):
    # every candidate of the first steps has an infinite angle
    path = tmp_path / "huge_step.qsaf"
    path.write_text(
        "level 5\n"
        "component a = HardwareEfficientAnsatz(n=2, layers=1, "
        "thetas=[0.1, 0.2, 0.3, 0.4])\n"
        "component m = Measurement(n=2)\n"
        'component o = Optimizer(observable="Z0 + Z1", max_iters=5, '
        "step=1e308)\n"
        "wire a.out -> m.in\n"
        "wire m.bits -> o.in\n"
        "wire o.out -> a.params\n"
        "run minimize\n")
    done = _cli("validate", str(path))
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, "validation clean\n", "")
    done = _cli("run", str(path))
    assert (done.returncode, done.stderr) == (0, "")
    assert "iterations = 5" in done.stdout.splitlines()


def test_zero_tolerance_and_min_step_end_without_a_traceback(
        tmp_path, vqe_manifest_text):
    # a step halved to 0.0 still satisfied "step >= min_step"
    path = _with_minimize_options(tmp_path, vqe_manifest_text,
                                  "tol=0 min_step=0")
    done = _cli("run", path, timeout=30)
    assert done.returncode == 2
    assert done.stderr == "error: option 'min_step' must be > 0, got 0\n"
    assert done.stdout == ""


def test_run_reports_a_stalled_descent_once(tmp_path, vqe_manifest_text):
    # no step of length >= min_step lowers the energy
    path = _with_minimize_options(tmp_path, vqe_manifest_text, "min_step=1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", path]) == 0
    assert not [w for w in caught
                if issubclass(w.category, NonDecreasingEnergyWarning)]
    done = _cli("run", path)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "warning = energy non-decreasing at iteration 1; stopping" \
        in done.stdout.splitlines()


@pytest.mark.parametrize("command", [
    ["validate", "{dir}"],
    ["kappa", "{dir}"],
    ["export", "{manifest}", "-o", "{dir}"],
])
def test_a_directory_for_a_file_is_an_error_not_a_traceback(
        tmp_path, capsys, grover_file, command):
    argv = [a.format(dir=tmp_path, manifest=grover_file) for a in command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21]")


def test_validate_reports_a_simulate_directive_past_the_simulator_cap(
        tmp_path, capsys):
    # every component is within the builders' width cap, so the graph
    # validates; only the directive needs the 21 qubits simulated
    path = tmp_path / "wide.qsaf"
    path.write_text("component b = BasisStates(n=21, value=3)\n"
                    "component o = ArithmeticOracles(a=7, modulus=1048573)\n"
                    "wire b.out -> o.in\n"
                    "run simulate shots=8 seed=1\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "error [too_wide] run simulate on line 4: width 21 exceeds "
        "simulator cap 16", "1 finding(s), 1 blocking"]
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: width 21 exceeds simulator cap 16\n"
    # without the directive there is nothing to simulate
    path.write_text(path.read_text().replace("run simulate shots=8 seed=1\n",
                                             ""))
    assert main(["validate", str(path)]) == 0


def test_validate_reports_a_minimize_directive_past_the_simulator_cap(
        tmp_path, capsys):
    # minimize simulates the driven ansatz alone, 18 qubits wide
    thetas = ", ".join(["0.1"] * 36)
    path = tmp_path / "wide_vqe.qsaf"
    path.write_text(
        "level 5\n"
        f"component a = HardwareEfficientAnsatz(n=18, layers=1, "
        f"thetas=[{thetas}])\n"
        "component m = Measurement(n=18)\n"
        'component o = Optimizer(observable="Z0", max_iters=1)\n'
        "wire a.out -> m.in\n"
        "wire m.bits -> o.in\n"
        "wire o.out -> a.params\n"
        "run minimize\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "error [too_wide] run minimize on line 8: width 18 exceeds "
        "simulator cap 16", "1 finding(s), 1 blocking"]
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: width 18 exceeds simulator cap 16\n"
