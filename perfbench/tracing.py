"""Spans and counters at the public entry point of each qsaf layer.

A ``Tracer`` wraps one function per layer boundary and installs the wrapper
at every place qsaf binds that function: the defining module, every module
that imported it by name, and the package namespace. ``remove`` puts the
originals back. Spans (name, start, end, parent span, op id) are kept in
flat arrays and only turned into per-layer numbers when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# span name -> (defining module, attribute path); class methods are
# patched on the class, so calls through ``self`` are seen too
BOUNDARIES = {
    "manifest.parse": ("qsaf.manifest", "parse_manifest"),
    "composition.validate": ("qsaf.composition",
                             "ArchitectureGraph.validate"),
    "composition.flatten": ("qsaf.composition", "ArchitectureGraph.flatten"),
    "lowering.realize": ("qsaf.lowering", "realize"),
    "lowering.realize_ansatz": ("qsaf.lowering", "realize_ansatz"),
    "gates.apply": ("qsaf.gates", "apply_matrix"),
    "simulate.run": ("qsaf.simulate", "run"),
    "simulate.sample": ("qsaf.simulate", "sample"),
    "simulate.expectation": ("qsaf.simulate", "expectation"),
    "simulate.gradient": ("qsaf.simulate", "parameter_shift_gradient"),
    "simulate.minimize": ("qsaf.simulate", "variational_minimize"),
    "qasm.export": ("qsaf.qasm", "export_gates"),
    "workflows.execute": ("qsaf.workflows", "execute"),
}

LAYERS = ("manifest", "composition", "lowering", "gates", "simulate", "qasm",
          "workflows")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _note_validate(counts, args, kwargs, result):
    counts["composition.diagnostics"] += len(result)


def _note_flatten(counts, args, kwargs, result):
    counts["composition.flat_gates"] += len(result.ops)
    counts["composition.flat_width_sum"] += result.width


def _note_apply(counts, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    counts["gates.amps"] += state.size
    counts["gates.bytes_computed"] += 2 * state.nbytes  # one read, one write


def _note_sample(counts, args, kwargs, result):
    counts["simulate.shots"] += _arg(args, kwargs, 1, "shots")
    counts["simulate.distinct_outcomes"] += len(result)


def _note_expectation(counts, args, kwargs, result):
    observable = _arg(args, kwargs, 1, "observable")
    counts["simulate.pauli_terms"] += sum(
        1 for coeff, _ in observable.terms if coeff != 0.0)


def _note_minimize(counts, args, kwargs, result):
    counts["simulate.optimizer_iterations"] += result.iterations


def _note_export(counts, args, kwargs, result):
    counts["qasm.export_bytes"] += len(result.encode())


NOTES = {
    "composition.validate": _note_validate,
    "composition.flatten": _note_flatten,
    "gates.apply": _note_apply,
    "simulate.sample": _note_sample,
    "simulate.expectation": _note_expectation,
    "simulate.minimize": _note_minimize,
    "qasm.export": _note_export,
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _bindings(target):
    """Every (owner, attribute) in loaded qsaf modules bound to target."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qsaf"
                                  or name.startswith("qsaf.")):
            continue
        for attr, value in vars(module).items():
            if value is target:
                found.append((module, attr))
    return found


class Tracer:
    """Records spans and counts while installed; patches nothing before
    ``install`` and leaves nothing patched after ``remove``."""

    def __init__(self):
        self.names = list(BOUNDARIES)
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.arity = array("i")     # qubits per gate on gates.apply spans
        self.counts = Counter()
        self.current_op = -1
        self._stack = []
        self._sites = []            # (owner, attribute, original, wrapper)
        for index, name in enumerate(self.names):
            module_name, path = BOUNDARIES[name]
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._wrap(index, name, original)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = _bindings(original)
            self._sites += [(o, a, original, wrapper) for o, a in sites]

    def _wrap(self, index, name, fn):
        layer = name.split(".")[0]
        note = NOTES.get(name)
        is_apply = name == "gates.apply"
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span = len(self.span_name)
            self.span_name.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.arity.append(
                len(_arg(args, kwargs, 3, "qubits")) if is_apply else 0)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self.end[span] = clock()
                stack.pop()
            if note is not None:
                note(self.counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def spans(self):
        """Recorded spans as (name, start, end, parent, op) tuples."""
        return [(self.names[n], s, e, p, o) for n, s, e, p, o in zip(
            self.span_name, self.start, self.end, self.parent, self.op)]


def self_times(start, end, parent) -> list:
    """Duration of each span minus the time its child spans cover.

    Children are merged as intervals, so overlapping children are not
    subtracted twice.
    """
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        covered = 0.0
        lo = hi = None
        for s, e in sorted(children.get(i, ())):
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append(end[i] - start[i] - covered)
    return out


def summarize(tracer: Tracer, ops: int, components: int,
              op_seconds: float):
    """Per-op numbers for each layer, and each layer's share of op time.

    ``ops`` is the number of traced ops, ``components`` the number of graph
    components those ops handled and ``op_seconds`` their wall time. The
    share left over, ``rest``, is time outside every wrapped call: the
    benchmark loop itself and qsaf code between boundaries.
    """
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    self_s = Counter()
    calls = Counter()
    apply_by_arity = Counter()
    runs_under = Counter()
    for i, (n, parent) in enumerate(zip(tracer.span_name, tracer.parent)):
        name = names[n]
        self_s[name] += selfs[i]
        calls[name] += 1
        if name == "gates.apply":
            k = tracer.arity[i]
            apply_by_arity["k%d" % k if k <= 3 else "kwide"] += selfs[i]
        if name == "simulate.run" and parent >= 0:
            runs_under[names[tracer.span_name[parent]]] += 1
    c = tracer.counts
    per_op = 1.0 / max(ops, 1)

    def ms(name):
        return 1e3 * self_s[name] * per_op

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "manifest.parse_ms": ms("manifest.parse"),
        "manifest.parse_calls": calls["manifest.parse"] * per_op,
        "composition.validate_ms": ms("composition.validate"),
        "composition.validate_calls": calls["composition.validate"] * per_op,
        "composition.diagnostics": c["composition.diagnostics"] * per_op,
        "composition.flatten_ms": ms("composition.flatten"),
        "composition.flatten_calls": calls["composition.flatten"] * per_op,
        "composition.flat_gates": c["composition.flat_gates"] * per_op,
        "composition.flat_width": ratio(c["composition.flat_width_sum"],
                                        calls["composition.flatten"]),
        "lowering.realize_ms": ms("lowering.realize")
        + ms("lowering.realize_ansatz"),
        "lowering.realize_calls": calls["lowering.realize"] * per_op,
        "lowering.realize_per_component": ratio(calls["lowering.realize"],
                                                components),
        "lowering.realize_ansatz_calls":
            calls["lowering.realize_ansatz"] * per_op,
        "gates.apply_ms": ms("gates.apply"),
        "gates.apply_calls": calls["gates.apply"] * per_op,
    }
    for key in ("k1", "k2", "k3", "kwide"):
        out[f"gates.apply_ms.{key}"] = 1e3 * apply_by_arity[key] * per_op
    out.update({
        "gates.ns_per_amp": ratio(1e9 * self_s["gates.apply"],
                                  c["gates.amps"]),
        "gates.bytes_computed": c["gates.bytes_computed"] * per_op,
        "simulate.run_ms": ms("simulate.run"),
        "simulate.run_calls": calls["simulate.run"] * per_op,
        "simulate.sample_ms": ms("simulate.sample"),
        "simulate.shots": c["simulate.shots"] * per_op,
        "simulate.sample_ns_per_shot": ratio(
            1e9 * self_s["simulate.sample"], c["simulate.shots"]),
        "simulate.distinct_outcomes": ratio(
            c["simulate.distinct_outcomes"], calls["simulate.sample"]),
        "simulate.expectation_ms": ms("simulate.expectation"),
        "simulate.expectation_calls": calls["simulate.expectation"] * per_op,
        "simulate.pauli_terms": c["simulate.pauli_terms"] * per_op,
        "simulate.gradient_ms": ms("simulate.gradient"),
        "simulate.gradient_calls": calls["simulate.gradient"] * per_op,
        "simulate.runs_per_gradient": ratio(runs_under["simulate.gradient"],
                                            calls["simulate.gradient"]),
        "simulate.minimize_ms": ms("simulate.minimize"),
        "simulate.optimizer_iterations":
            c["simulate.optimizer_iterations"] * per_op,
        # energies the line search evaluates: runs straight under the
        # minimizer, less the one starting energy per call
        "simulate.line_search_evals":
            (runs_under["simulate.minimize"]
             - calls["simulate.minimize"]) * per_op,
        "qasm.export_ms": ms("qasm.export"),
        "qasm.export_bytes": c["qasm.export_bytes"] * per_op,
        "workflows.execute_ms": ms("workflows.execute"),
    })
    for layer in LAYERS:
        out[f"{layer}.errors"] = c[f"{layer}.errors"] * per_op

    by_layer = Counter()
    for name, seconds in self_s.items():
        by_layer[name.split(".")[0]] += seconds
    shares = {layer: by_layer[layer] / op_seconds for layer in LAYERS}
    shares["rest"] = 1.0 - sum(shares.values())
    return out, shares
