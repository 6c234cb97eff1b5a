"""Parameter-shift gradients and the classical minimization loop."""

import math

import numpy as np
import pytest

import qsaf.simulate as simulate
from qsaf.errors import BadParamsError
from qsaf.gates import Gate, gate_matrix
from qsaf.lowering import realize_ansatz
from qsaf.simulate import (NonDecreasingEnergyWarning, OptimizerConfig,
                           PauliObservable, expectation,
                           parameter_shift_gradient, run,
                           variational_minimize)

from reference import apply_ref


def _energy(pid, structure, thetas, obs):
    low = realize_ansatz(pid, structure, thetas)
    return expectation(run(low.circuit).state, obs)


@pytest.mark.parametrize("pid,structure,width", [
    (25, {"n": 2, "layers": 1}, 2),
    (26, {"n": 3, "edges": [[0, 1], [1, 2]]}, 3),
    (27, {"n": 4}, 4),
    (28, {"n": 2, "layers": 2}, 2),
    (29, {"n": 3, "steps": 1}, 3),
])
def test_shift_rule_matches_central_differences(pid, structure, width):
    obs = PauliObservable.parse("Z0*Z1 + 0.3*X0 - 0.4*Y1", width)
    rng = np.random.default_rng(pid)
    from qsaf.lowering import ansatz_theta_count
    count = ansatz_theta_count(pid, structure)
    thetas = rng.uniform(-1.5, 1.5, size=count)
    grad = parameter_shift_gradient(pid, thetas, obs, structure=structure)
    assert len(grad) == count
    eps = 1e-5
    for i in range(count):
        plus, minus = thetas.copy(), thetas.copy()
        plus[i] += eps
        minus[i] -= eps
        central = (_energy(pid, structure, plus, obs)
                   - _energy(pid, structure, minus, obs)) / (2 * eps)
        assert grad[i] == pytest.approx(central, abs=1e-7)


def test_gradient_of_a_single_rotation_is_analytic():
    # <Z> of ry(theta)|0> is cos(theta); hardware-efficient n=2 L=1
    # puts ry(theta0) on qubit 0 first
    obs = PauliObservable.parse("Z0", 2)
    structure = {"n": 2, "layers": 1}
    thetas = [0.8, 0.0, 0.0, 0.0]
    grad = parameter_shift_gradient(25, thetas, obs, structure=structure)
    assert grad[0] == pytest.approx(-math.sin(0.8), abs=1e-10)
    assert grad[1] == pytest.approx(0.0, abs=1e-10)


def test_shifted_runs_resume_from_the_unshifted_prefix(monkeypatch):
    structure = {"n": 3, "layers": 2}
    thetas = np.random.default_rng(4).uniform(-math.pi, math.pi, size=12)
    obs = PauliObservable.parse("Z0*Z1 + 0.5*X2 - 0.3*Y1", 3)
    calls = []

    def spy(circuit, initial=None, seed=None):
        calls.append((list(circuit.ops), initial))
        return run(circuit, initial, seed)

    monkeypatch.setattr(simulate, "run", spy)
    parameter_shift_gradient(25, thetas, obs, structure=structure)
    low = realize_ansatz(25, structure, thetas)
    ops = low.circuit.ops
    positions = sorted(pos for sites in low.sites for pos, _ in sites)
    assert len(calls) == 2 * len(positions)
    # a site's stretch of one-qubit gates ends at the first CNOT after it:
    # each layer's rotations are one stretch
    ends = {pos: next((j for j in range(pos + 1, len(ops))
                       if len(ops[j].qubits) > 1), len(ops))
            for pos in positions}
    assert sorted(set(ends.values())) == [6, 14]
    runs = iter(calls)
    for pos in positions:
        end, site = ends[pos], ops[pos]
        prefix = np.eye(8, dtype=complex)[0]
        for earlier in ops[:end]:
            prefix = apply_ref(prefix, 3, gate_matrix(earlier),
                               earlier.qubits)
        # the stretch's gates on the site's qubit after the site
        after = np.eye(2)
        for later in ops[pos + 1:end]:
            if later.qubits == site.qubits:
                after = gate_matrix(later) @ after
        for delta in (math.pi / 2, -math.pi / 2):
            suffix, initial = next(runs)
            assert suffix == ops[end:]  # replayed unchanged
            turn = (after @ gate_matrix(Gate(site.kind, site.qubits, delta))
                    @ after.conj().T)
            want = apply_ref(prefix, 3, turn, site.qubits)
            assert np.allclose(initial.amplitudes, want, rtol=0, atol=1e-12)


def test_minimize_reaches_the_single_qubit_ground_state():
    obs = PauliObservable.parse("Z0 + Z1", 2)
    result = variational_minimize(25, [0.3, 0.1, 0.2, 0.1], obs,
                                  structure={"n": 2, "layers": 1})
    assert result.best_energy == pytest.approx(-2.0, abs=1e-5)
    assert result.converged
    assert result.iterations <= 500
    assert result.trace[0] >= result.trace[-1]
    assert not result.warnings


def test_minimize_trace_is_monotone_nonincreasing():
    obs = PauliObservable.parse("Z0*Z1 + 0.5*X0", 2)
    result = variational_minimize(25, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                       0.7, 0.8], obs,
                                  structure={"n": 2, "layers": 2})
    assert all(b <= a + 1e-12 for a, b in zip(result.trace,
                                              result.trace[1:]))
    assert result.best_energy == min(result.trace)


def test_minimize_respects_iteration_budget():
    obs = PauliObservable.parse("Z0*Z1 + 0.5*X0", 2)
    config = OptimizerConfig(max_iters=3)
    result = variational_minimize(25, [0.1] * 8, obs, config=config,
                                  structure={"n": 2, "layers": 2})
    assert result.iterations <= 3
    assert not result.converged


def test_minimize_warns_when_stuck_at_a_minimum():
    # start exactly at the ground state of Z0: theta = pi
    obs = PauliObservable.parse("Z0", 2)
    config = OptimizerConfig(step=0.5, max_iters=50, tol=0.0)
    with pytest.warns(NonDecreasingEnergyWarning):
        result = variational_minimize(25, [math.pi, 0.0, 0.0, 0.0], obs,
                                      config=config,
                                      structure={"n": 2, "layers": 1})
    assert result.warnings
    assert result.best_energy == pytest.approx(-1.0, abs=1e-9)


def test_minimize_propagates_bad_structure():
    obs = PauliObservable.parse("Z0", 2)
    with pytest.raises(BadParamsError):
        variational_minimize(25, [0.1] * 3, obs,
                             structure={"n": 2, "layers": 1})


def test_qaoa_flat_layout_is_gammas_then_betas():
    structure = {"n": 2, "edges": [[0, 1]]}
    low = realize_ansatz(26, structure, [0.7, 0.2])
    rz_ops = [op for op in low.circuit.ops if op.kind.value == "rz"]
    rx_ops = [op for op in low.circuit.ops if op.kind.value == "rx"]
    assert rz_ops[0].theta == pytest.approx(1.4)  # 2 * gamma
    assert all(op.theta == pytest.approx(0.4) for op in rx_ops)  # 2 * beta
