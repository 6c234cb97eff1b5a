"""Manifest parsing, error positions, canonical rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsaf.analyze import DEFAULT_DEMO_PARAMS
from qsaf.catalog import all_primitives
from qsaf.composition import (AbstractionLevel, ArchitectureGraph,
                              ComponentInstance, optimizer)
from qsaf.errors import ManifestError, UnknownPrimitiveError
from qsaf.manifest import (RUN_VERBS, Manifest, RunDirective, parse_manifest,
                           render_manifest)

GNARLY = """\
# architecture with every value shape
name kitchen_sink
version 3
level 4

component basis = BasisStates(n=2, value=3)
component cl = ClusterStates(n=3, edges=[[0, 1], [1, 2]], level=3)
component opt = Optimizer(observable="Z0*Z1 - 1.5e-1*X0", step=-0.25,
"""


def test_parse_reads_the_whole_fixture(grover_manifest_text):
    manifest = parse_manifest(grover_manifest_text)
    assert manifest.name == "grover_demo"
    assert manifest.version == 1
    assert set(manifest.graph.components) == {"sup", "search", "meas"}
    search = manifest.graph.components["search"]
    assert search.params == {"n": 2, "marked": [3], "iterations": 1}
    assert [str(w) for w in manifest.graph.wires] \
        == ["sup.out -> search.in", "search.out -> meas.in"]
    assert manifest.graph.contracts == [frozenset({0, 1})]
    assert manifest.directives == (
        RunDirective("simulate", {"shots": 512, "seed": 7}),)


def test_directive_equality_ignores_source_position():
    assert RunDirective("simulate", {"shots": 4}, line=3) \
        == RunDirective("simulate", {"shots": 4}, line=9)
    assert RunDirective("simulate", {}) != RunDirective("minimize", {})


def test_defaults_when_header_lines_are_omitted():
    manifest = parse_manifest("component b = BellStates()\n")
    assert manifest.name == "architecture"
    assert manifest.version == 1
    assert manifest.graph.level == 5
    assert manifest.directives == ()


def _line_of(excinfo):
    return excinfo.value.line


def test_unknown_statement_reports_its_line():
    with pytest.raises(ManifestError) as info:
        parse_manifest("name ok\n\nflurb 12\n")
    assert _line_of(info) == 3
    assert "flurb" in str(info.value)


def test_bad_value_reports_line_and_column():
    with pytest.raises(ManifestError) as info:
        parse_manifest("component a = Superposition(n=@)\n")
    assert info.value.line == 1
    assert info.value.col == 31
    assert "expected a number" in str(info.value)


def test_unterminated_string():
    with pytest.raises(ManifestError) as info:
        parse_manifest('component o = Optimizer(observable="Z0)\n')
    assert "unterminated string" in str(info.value)


def test_level_validation():
    with pytest.raises(ManifestError) as info:
        parse_manifest("level 9\n")
    assert "no abstraction level 9" in str(info.value)
    with pytest.raises(ManifestError):
        parse_manifest("level 2.5\n")
    with pytest.raises(ManifestError):
        parse_manifest("version two\n")


def test_duplicate_component_and_duplicate_option():
    text = "component a = BellStates()\ncomponent a = BellStates()\n"
    with pytest.raises(ManifestError) as info:
        parse_manifest(text)
    assert _line_of(info) == 2
    with pytest.raises(ManifestError) as info:
        parse_manifest("component a = Superposition(n=2, n=3)\n")
    assert "duplicate option 'n'" in str(info.value)


def test_unknown_primitive_names_the_line():
    with pytest.raises(UnknownPrimitiveError) as info:
        parse_manifest("\ncomponent a = Flurbinator()\n")
    assert "line 2" in str(info.value)


def test_wire_and_contract_syntax_errors():
    with pytest.raises(ManifestError) as info:
        parse_manifest("wire a.out -> b\n")
    assert "expected '.'" in str(info.value)
    with pytest.raises(ManifestError) as info:
        parse_manifest("contract {0, -1}\n")
    assert "nonnegative" in str(info.value)
    with pytest.raises(ManifestError) as info:
        parse_manifest("contract {0; 1}\n")
    assert "in contract" in str(info.value)


def test_run_verb_is_restricted():
    with pytest.raises(ManifestError) as info:
        parse_manifest("run explode shots=2\n")
    assert "simulate, minimize" in str(info.value)


def test_trailing_text_is_rejected():
    with pytest.raises(ManifestError) as info:
        parse_manifest("name foo bar\n")
    assert "unexpected trailing text" in str(info.value)


def test_comments_are_stripped_outside_strings():
    text = ('component o = Optimizer(observable="Z0 # kept")'
            "  # dropped\n")
    manifest = parse_manifest(text)
    assert manifest.graph.components["o"].params["observable"] == "Z0 # kept"


def test_level_kwarg_moves_onto_the_instance():
    manifest = parse_manifest(
        "component q = StandardQFT(n=2, level=4)\n")
    inst = manifest.graph.components["q"]
    assert inst.level == 4
    assert "level" not in inst.params
    with pytest.raises(ManifestError):
        parse_manifest("component q = StandardQFT(n=2, "
                       "level=true)\n")


def test_render_emits_level_only_when_nondefault():
    text = render_manifest(parse_manifest(
        "component q = StandardQFT(n=2, level=4)\n"
        "component r = StandardQFT(n=2)\n"))
    assert "component q = StandardQFT(n=2, level=4)" in text
    assert "component r = StandardQFT(n=2)" in text


def test_round_trip_is_stable(grover_manifest_text, vqe_manifest_text):
    gnarly = GNARLY + "    max_iters=40, verbose=true)\n" \
        + "contract {1, 0}\nrun minimize seed=5\nrun simulate shots=8\n"
    # the parser is line oriented, so fold the optimizer onto one line
    gnarly = gnarly.replace("step=-0.25,\n    max_iters",
                            "step=-0.25, max_iters")
    for source in (grover_manifest_text, vqe_manifest_text, gnarly):
        manifest = parse_manifest(source)
        text = render_manifest(manifest)
        again = parse_manifest(text)
        assert render_manifest(again) == text
        assert again.name == manifest.name
        assert again.version == manifest.version
        assert again.graph.level == manifest.graph.level
        assert again.directives == manifest.directives
        assert set(again.graph.components) == set(manifest.graph.components)
        for key, inst in manifest.graph.components.items():
            twin = again.graph.components[key]
            assert twin.primitive_id == inst.primitive_id
            assert twin.params == inst.params
            assert twin.level == inst.level
        assert again.graph.wires == manifest.graph.wires
        assert again.graph.contracts == manifest.graph.contracts


def test_render_refuses_unrepresentable_strings():
    manifest = parse_manifest(
        "component o = Optimizer(observable='a\"b')\n")
    with pytest.raises(ManifestError):
        render_manifest(manifest)


_WORD = "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_NAMES = st.builds(str.__add__, st.sampled_from(_WORD),
                   st.text(_WORD + "0123456789", max_size=7))
# every value shape the grammar has; strings hold no double quote or
# line break, which render refuses
_VALUES = st.recursive(
    st.integers(-10 ** 6, 10 ** 6) | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(min_codepoint=32, max_codepoint=126,
                            blacklist_characters='"'), max_size=8),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_OPTIONS = st.dictionaries(_NAMES.filter(lambda k: k != "level"), _VALUES,
                           max_size=3)


@st.composite
def manifests(draw):
    """A manifest of catalog components with their demo parameters, at
    any level they present at, plus an optimizer, wires as written,
    contracts and run directives."""
    graph = ArchitectureGraph(name=draw(_NAMES),
                              level=draw(st.sampled_from(AbstractionLevel.ALL)))
    ids = draw(st.lists(_NAMES, unique=True, max_size=6))
    with_optimizer = bool(ids) and draw(st.booleans())
    if with_optimizer:
        graph.add_component(optimizer(ids[0], **draw(_OPTIONS)), check=False)
    for instance_id in ids[with_optimizer:]:
        desc = draw(st.sampled_from(all_primitives()))
        graph.add_component(ComponentInstance(
            instance_id, desc.id, DEFAULT_DEMO_PARAMS.get(desc.id, {}),
            draw(st.integers(*desc.level_range))), check=False)
    ends = st.tuples(st.sampled_from([*ids, "ghost"]),
                     st.sampled_from(["in", "out", "bits", "params"]))
    for src, dst in draw(st.lists(st.tuples(ends, ends), max_size=4)):
        graph.record_wire(".".join(src), ".".join(dst))
    for qubits in draw(st.lists(st.sets(st.integers(0, 40), min_size=2),
                                max_size=2)):
        graph.add_contract(qubits)
    directives = draw(st.lists(st.builds(
        RunDirective, st.sampled_from(RUN_VERBS), _OPTIONS), max_size=2))
    return Manifest(graph.name, draw(st.integers(-10, 10 ** 6)), graph,
                    tuple(directives))


def _typed(value):
    """``value`` with the type beside each leaf: == takes 1, 1.0 and True
    as equal, and a round trip must keep them apart."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [(key, _typed(item)) for key, item in items]
    return type(value), value


@given(manifests())
def test_parse_inverts_render(manifest):
    again = parse_manifest(render_manifest(manifest))
    assert again == manifest
    assert _typed([*(i.params for i in again.graph.components.values()),
                   *(d.options for d in again.directives)]) \
        == _typed([*(i.params for i in manifest.graph.components.values()),
                   *(d.options for d in manifest.directives)])
