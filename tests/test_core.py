"""Vocabulary types: enums, interface templates, profile validation."""

import numpy as np
import pytest

from qsaf.analyze import (DEFAULT_DEMO_PARAMS, _default_sizes, _size_params,
                          nfr_profile)
from qsaf.catalog import CountMetric, all_primitives
from qsaf.core import (AncillaPolicy, FunctionalCategory, Granularity,
                       InformationFlow, NfrProfile, ParameterKind,
                       ReusePattern, UnitaryKind, UsageLevel,
                       category_template, summarize_parameter_kinds)
from qsaf.errors import BadParamsError
from qsaf.gates import UNITARY_WIDTH_CAP, unitary_of
from qsaf.lowering import _Params, lower, port_spec, realize


def test_usage_levels_are_ordered():
    assert UsageLevel.NOT_USED < UsageLevel.SOMETIMES
    assert UsageLevel.SOMETIMES < UsageLevel.FREQUENT
    assert UsageLevel.FREQUENT < UsageLevel.ESSENTIAL
    assert max(UsageLevel) is UsageLevel.ESSENTIAL
    assert sorted(UsageLevel)[0] is UsageLevel.NOT_USED


def test_usage_level_only_compares_to_itself():
    with pytest.raises(TypeError):
        UsageLevel.ESSENTIAL < 3


def test_parameter_kind_summary_picks_most_dynamic():
    assert summarize_parameter_kinds([]) is ParameterKind.FIXED
    assert summarize_parameter_kinds(
        [ParameterKind.FIXED, ParameterKind.STRUCTURAL]
    ) is ParameterKind.STRUCTURAL
    assert summarize_parameter_kinds(
        [ParameterKind.STRUCTURAL, ParameterKind.VARIATIONAL,
         ParameterKind.PROBLEM_DEPENDENT]
    ) is ParameterKind.VARIATIONAL


def test_every_category_has_a_template():
    for category in FunctionalCategory:
        template = category_template(category)
        assert template.category is category
        assert template.input_desc and template.output_desc
        assert template.flow_desc


def test_template_conventions():
    pe = category_template(FunctionalCategory.PHASE_ESTIMATION)
    assert pe.anc_policy is AncillaPolicy.REQUIRED
    assert pe.flow is InformationFlow.FEED_FORWARD
    va = category_template(FunctionalCategory.VARIATIONAL_ANSATZ)
    assert va.param_kind is ParameterKind.VARIATIONAL
    assert va.flow is InformationFlow.QUANTUM_CLASSICAL_LOOP
    bt = category_template(FunctionalCategory.BASIS_TRANSFORMATION)
    assert bt.anc_policy is AncillaPolicy.NONE
    assert bt.unitary_kind is UnitaryKind.FOURIER


def _conformance_cases():
    for desc in all_primitives():
        if not desc.lowerable:
            continue
        yield desc, DEFAULT_DEMO_PARAMS[desc.id]
        # a growth counted in iterations has no per-size params
        if desc.metric is not CountMetric.ITERATIONS:
            for size in _default_sizes(desc.id):
                yield desc, _size_params(desc.id, size)


def test_conformance_cases_cover_every_lowerable_primitive():
    assert {desc.id for desc, _ in _conformance_cases()} == {
        d.id for d in all_primitives() if d.lowerable}


def test_lowered_primitives_follow_their_ancilla_policy():
    for desc, params in _conformance_cases():
        if desc.category is None:
            continue
        spec = port_spec(desc.id, params)
        where = f"{desc.manifest_name}({params})"
        policy = category_template(desc.category).anc_policy
        if policy is AncillaPolicy.NONE:
            assert spec.anc_qubits == (), where
        if policy is AncillaPolicy.REQUIRED:
            assert spec.anc_qubits, where


def test_lowered_primitives_measure_only_where_allowed():
    for desc, params in _conformance_cases():
        spec = port_spec(desc.id, params)
        where = f"{desc.manifest_name}({params})"
        may_measure = (desc.category is FunctionalCategory.PHASE_ESTIMATION
                       or desc.id == 33)  # Measurement
        assert may_measure or not spec.measures, where


def test_builders_read_only_declared_params(monkeypatch):
    read = set()
    fetch = _Params._fetch

    def spy(self, key, default):
        read.add(key)
        return fetch(self, key, default)

    monkeypatch.setattr(_Params, "_fetch", spy)
    for desc, params in _conformance_cases():
        read.clear()
        realize(desc.id, params)
        declared = {param.name for param in desc.params}
        assert read <= declared, f"{desc.manifest_name}({params})"


def test_realize_rejects_a_key_its_builder_did_not_read():
    for desc in all_primitives():
        if desc.lowerable:
            with pytest.raises(BadParamsError, match="'bogus'"):
                realize(desc.id, {**DEFAULT_DEMO_PARAMS[desc.id], "bogus": 1})


def test_demo_realizations_are_unitary_exactly_where_profiled_so():
    for desc in all_primitives():
        unitary = False
        if desc.lowerable:
            circuit = lower(desc.id, DEFAULT_DEMO_PARAMS[desc.id])
            if (not circuit.has_measurement
                    and circuit.width <= UNITARY_WIDTH_CAP):
                u = unitary_of(circuit)
                assert np.abs(u @ u.conj().T - np.eye(len(u))).max() \
                    <= 1e-10, desc.manifest_name
                unitary = True
        assert nfr_profile(desc.id).unitary is unitary, desc.manifest_name


def test_profile_rejects_irreversible_unitary():
    with pytest.raises(ValueError):
        NfrProfile(granularity=Granularity.ATOMIC,
                   parameterization=ParameterKind.FIXED,
                   algorithm_scope=frozenset(),
                   complexity=None,
                   reversible=False,
                   unitary=True,
                   information_flow=InformationFlow.LOCAL,
                   nisq_suitable=True,
                   reuse_pattern=ReusePattern.DIRECT)


def test_profile_pairs_cover_missing_realization():
    profile = NfrProfile(granularity=Granularity.BLOCK,
                         parameterization=ParameterKind.FIXED,
                         algorithm_scope=frozenset(),
                         complexity=None,
                         reversible=False,
                         unitary=False,
                         information_flow=InformationFlow.LOCAL,
                         nisq_suitable=False,
                         reuse_pattern=ReusePattern.DIRECT)
    pairs = dict(profile.as_pairs())
    assert pairs["complexity"] == "not_realizable"
    assert pairs["algorithm_scope"] == "none"
