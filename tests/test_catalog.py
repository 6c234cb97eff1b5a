"""Catalog lookups, filters, and the usage heatmap."""

import pytest

from qsaf.catalog import (Algorithm, ALGORITHM_ORDER, all_primitives,
                          find_primitive, get_primitive, list_primitives,
                          usage, usage_heatmap)
from qsaf.core import FunctionalCategory, UsageLevel
from qsaf.errors import UnknownAlgorithmError, UnknownPrimitiveError
from qsaf.lowering import _BUILDERS


def test_ids_are_dense_and_stable():
    prims = all_primitives()
    assert [d.id for d in prims] == list(range(1, 35))
    assert all(get_primitive(d.id) is d for d in prims)


def test_lowerable_primitives_are_exactly_those_with_builders():
    lowerable = {d.id for d in all_primitives() if d.lowerable}
    assert set(_BUILDERS) == lowerable
    assert lowerable == set(range(1, 35)) - {14, 24}


def test_unknown_id_and_name():
    with pytest.raises(UnknownPrimitiveError):
        get_primitive(0)
    with pytest.raises(UnknownPrimitiveError):
        get_primitive(35)
    with pytest.raises(UnknownPrimitiveError):
        find_primitive("QFTX")


def test_find_primitive_accepts_display_and_manifest_names():
    assert find_primitive("StandardQFT").id == 15
    assert find_primitive("standardqft").id == 15
    assert find_primitive("Standard QFT").id == 15
    assert find_primitive("Grover Operator").id == 11


def test_manifest_names_are_unique():
    names = [d.manifest_name.lower() for d in all_primitives()]
    assert len(set(names)) == 34


def test_usage_lookup_by_enum_and_string():
    assert usage(11, Algorithm.GROVER) is UsageLevel.ESSENTIAL
    assert usage(11, "shor") is UsageLevel.NOT_USED
    assert usage(32, "grover") is UsageLevel.ESSENTIAL
    with pytest.raises(UnknownAlgorithmError):
        usage(11, "bernstein")


def test_usage_rows_cover_all_five_algorithms():
    for d in all_primitives():
        assert len(d.usage) == len(ALGORITHM_ORDER) == 5
        for algorithm in ALGORITHM_ORDER:
            assert d.usage_for(algorithm) in UsageLevel


def test_list_primitives_filters():
    sp = list_primitives(category=FunctionalCategory.STATE_PREPARATION)
    assert [d.id for d in sp] == [1, 2, 3, 4, 5, 6]
    aux = list_primitives(category="auxiliary")
    assert [d.id for d in aux] == [30, 31, 32, 33, 34]
    grover_es = list_primitives(algorithm="grover",
                                min_usage=UsageLevel.ESSENTIAL)
    assert {d.id for d in grover_es} == {1, 2, 3, 4, 11, 12, 13, 18, 19,
                                         21, 31, 32, 33}
    vqe_core = list_primitives(category=FunctionalCategory.VARIATIONAL_ANSATZ,
                               algorithm=Algorithm.VQE,
                               min_usage=UsageLevel.ESSENTIAL)
    assert {d.id for d in vqe_core} == {25, 26, 27, 28, 29}


def test_list_primitives_names_the_choices_of_a_bad_filter():
    assert list_primitives(category="Basis_Transformation") == \
        list_primitives(category=FunctionalCategory.BASIS_TRANSFORMATION)
    with pytest.raises(ValueError, match=r"unknown category 'bogus'; "
                       r"expected one of \['state_preparation', .*"
                       r"'variational_ansatz', 'auxiliary'\]"):
        list_primitives(category="bogus")
    expected = r"unknown algorithm 'bogus'; expected one of \['grover', "
    for lookup in (lambda: list_primitives(algorithm="bogus"),
                   lambda: usage(1, "bogus")):
        with pytest.raises(UnknownAlgorithmError, match=expected):
            lookup()


def test_descriptor_levels_are_consistent():
    for d in all_primitives():
        lo, hi = d.level_range
        assert 1 <= lo <= hi <= 5
        assert lo <= d.default_level <= hi


def test_complexity_labels():
    assert "O(n^2)" in get_primitive(15).complexity_label
    assert "O(sqrt(N))" in get_primitive(11).complexity_label
    assert get_primitive(30).complexity_label == "O(1)"


def test_heatmap_mentions_every_primitive():
    text = usage_heatmap()
    lines = text.splitlines()
    for d in all_primitives():
        assert any(line.startswith(f"{d.id:>3} ") for line in lines), d.id
    assert "ES" in text and "NU" in text
    assert "[auxiliary]" in text
