from __future__ import annotations

import pytest

from genline.classdiagram import parse_class_diagram
from genline import ootl
from genline.generation import EngineError, Fact, generate
from genline.reference import (
    FG_ENUM,
    FG_EXTERNAL,
    FG_IFACE,
    FG_NOBUILDER,
    FG_TAG,
    builder_emit,
    build_reference_registry,
    class_artifact,
    enum_artifact,
    factory_emit,
    guard_conditions,
    interface_artifact,
    provider_artifact,
    reference_components,
)

from helpers import ALL_FEATURES, compose_reference, covering_diagram, make_spec, read_tree, restrict_diagram

FULL = frozenset(ALL_FEATURES)
HYBRID_GEN = ("CD2Java", "Types", "Class", "DefaultConstructor", "Factory")


def _person():
    return parse_class_diagram(
        "classdiagram Shop { class Person { name: string; age: int; } }"
    ).classes()[0]


def _ctor_fact(name="Person"):
    return (Fact.make("constructor.generated", "Types", name),)


# ---------------------------------------------------------------------------
# Guard conditions

def test_guard_conditions_active_set():
    codes = lambda selected, mode: tuple(
        c.code for c in guard_conditions(frozenset(selected), mode)
    )
    assert codes(FULL, "hybrid") == (FG_TAG,)
    assert codes(FULL, "generation_time") == (FG_TAG, FG_EXTERNAL)
    assert codes(("CD2Java", "Types", "Class"), "generation_time") == (
        FG_TAG,
        FG_ENUM,
        FG_IFACE,
        FG_NOBUILDER,
        FG_EXTERNAL,
    )


def test_guard_checks_fire():
    diagram = covering_diagram()
    symbols = None
    by_code = {c.code: c for c in guard_conditions(frozenset(("CD2Java", "Types", "Class")), "generation_time")}
    enum_violations = by_code[FG_ENUM].check(diagram, symbols)
    assert [v.subjects for v in enum_violations] == [("Color",)]
    iface_violations = by_code[FG_IFACE].check(diagram, symbols)
    assert [v.subjects for v in iface_violations] == [("Printable",), ("Manager", "Printable")]
    nobuilder_violations = by_code[FG_NOBUILDER].check(diagram, symbols)
    assert [v.subjects for v in nobuilder_violations] == [("Receipt",)]
    external_violations = by_code[FG_EXTERNAL].check(diagram, symbols)
    assert [v.subjects for v in external_violations] == [("Person",)]


def test_guard_rejects_unknown_tags():
    diagram = parse_class_diagram("classdiagram D { <<mystery>> class A { } }")
    (tag_condition,) = [c for c in guard_conditions(FULL, "hybrid") if c.code == FG_TAG]
    violations = tag_condition.check(diagram, None)
    assert [v.subjects for v in violations] == [("A", "mystery")]


def test_restrict_diagram_helper_satisfies_guards():
    # The test helper strips exactly what each guard would reject.
    diagram = covering_diagram()
    selected = frozenset(("CD2Java", "Types", "Class"))
    restricted = restrict_diagram(diagram, selected, "generation_time")
    for condition in guard_conditions(selected, "generation_time"):
        assert condition.check(restricted, None) == []
    assert [c.name for c in restricted.classes()] == ["Person", "Receipt", "Manager"]
    assert restricted.enums() == () and restricted.interfaces() == ()


# ---------------------------------------------------------------------------
# Emitters

def test_class_artifact_variants():
    person = _person()
    options = {"default_constructor": True}
    vps = {"constructor_body": ""}
    text = class_artifact("Shop", person, options, vps).content()
    assert text == (
        "package Shop;\n"
        "class Person {\n"
        "  string name;\n"
        "  int age;\n"
        "  Person() { }\n"
        "}\n"
    )
    without = class_artifact("Shop", person, {"default_constructor": False}, vps).content()
    assert "Person()" not in without
    seeded = class_artifact(
        "Shop", person, options, {"constructor_body": " name = unknown;"}
    ).content()
    assert "  Person() { name = unknown; }\n" in seeded


def test_class_artifact_header_and_features():
    diagram = covering_diagram()
    manager = diagram.classes()[2]
    container = class_artifact("Shop", manager, {"default_constructor": False}, {"constructor_body": ""})
    assert "class Manager extends Person implements Printable {\n" in container.content()
    header_region = container.regions[1]
    assert header_region.features == ("Class", "Interface")


def test_provider_enum_interface_artifacts():
    assert provider_artifact("Shop", _person()).content() == (
        "package Shop;\n"
        "interface PersonProvider {\n"
        "  Person provide();\n"
        "}\n"
    )
    diagram = covering_diagram()
    assert enum_artifact("Shop", diagram.enums()[0]).content() == (
        "package Shop;\n"
        "enum Color {\n"
        "  RED,\n"
        "  GREEN,\n"
        "  BLUE\n"
        "}\n"
    )
    assert interface_artifact("Shop", diagram.interfaces()[0]).content() == (
        "package Shop;\n"
        "interface Printable {\n"
        "  string print();\n"
        "}\n"
    )


def test_all_emitters_produce_valid_units():
    person = _person()
    diagram = covering_diagram()
    containers = [
        class_artifact("Shop", person, {"default_constructor": True}, {"constructor_body": ""}),
        provider_artifact("Shop", person),
        enum_artifact("Shop", diagram.enums()[0]),
        interface_artifact("Shop", diagram.interfaces()[0]),
        builder_emit("Shop", person, _ctor_fact(), {}, {}),
        factory_emit(
            parse_class_diagram("classdiagram Shop { class Person { name: string; } }"),
            (Fact.make("type.generated", "Types", "Person", {"kind": "class", "tags": ""}),),
            {},
            {"factory_method_prefix": "create%s"},
            "run_time",
        ),
    ]
    for container in containers:
        assert ootl.check_unit(container.content()) is None, container.path


def test_builder_emit_golden():
    text = builder_emit("Shop", _person(), _ctor_fact(), {}, {}).content()
    assert text == (
        "package Shop;\n"
        "class PersonBuilder {\n"
        "  Person result;\n"
        "  PersonBuilder() { result = new Person(); }\n"
        "  PersonBuilder withName(string v) { result.name = v; return this; }\n"
        "  PersonBuilder withAge(int v) { result.age = v; return this; }\n"
        "  Person build() { return result; }\n"
        "}\n"
    )


def test_builder_emit_requires_constructor_fact():
    with pytest.raises(EngineError, match="constructor.generated"):
        builder_emit("Shop", _person(), (), {}, {})


def _factory_facts():
    return (
        Fact.make("type.generated", "Types", "Person", {"kind": "class", "tags": "external"}),
        Fact.make("type.generated", "Types", "Receipt", {"kind": "class", "tags": ""}),
        Fact.make("type.generated", "Types", "Color", {"kind": "enum", "tags": ""}),
    )


def test_factory_emit_modes():
    diagram = parse_class_diagram(
        "classdiagram Shop { <<external>> class Person { name: string; } class Receipt { total: int; } }"
    )
    vps = {"factory_method_prefix": "create%s"}
    direct = factory_emit(diagram, _factory_facts(), {}, vps, "generation_time").content()
    assert direct == (
        "package Shop;\n"
        "class ShopFactory {\n"
        "  Person createPerson() { return new Person(); }\n"
        "  Receipt createReceipt() { return new Receipt(); }\n"
        "}\n"
    )
    late = factory_emit(diagram, _factory_facts(), {}, vps, "run_time").content()
    assert late == (
        "package Shop;\n"
        "class ShopFactory {\n"
        "  PersonProvider personProvider;\n"
        "  ReceiptProvider receiptProvider;\n"
        "  Person createPerson() { return personProvider.provide(); }\n"
        "  Receipt createReceipt() { return receiptProvider.provide(); }\n"
        "}\n"
    )
    # Hybrid delegates exactly the external-tagged classes.
    mixed = factory_emit(diagram, _factory_facts(), {}, vps, "hybrid").content()
    assert mixed == (
        "package Shop;\n"
        "class ShopFactory {\n"
        "  PersonProvider personProvider;\n"
        "  Person createPerson() { return personProvider.provide(); }\n"
        "  Receipt createReceipt() { return new Receipt(); }\n"
        "}\n"
    )


def test_factory_emit_respects_prefix_pattern():
    diagram = parse_class_diagram("classdiagram Shop { class Person { name: string; } }")
    facts = (Fact.make("type.generated", "Types", "Person", {"kind": "class", "tags": ""}),)
    text = factory_emit(diagram, facts, {}, {"factory_method_prefix": "newFor%s"}, "generation_time").content()
    assert "  Person newForPerson() { return new Person(); }\n" in text


# ---------------------------------------------------------------------------
# Component declarations

def test_registry_invariants():
    registry = build_reference_registry()
    assert registry.ids() == ("Builder", "CoreFrontEnd", "Factory", "FeatureGuard", "Types")
    types = registry.get("Types")
    assert types.kind == "back_end"
    assert types.realizes == frozenset(
        {"Types", "Class", "Enum", "Interface", "DefaultConstructor"}
    )
    assert {o.name for o in types.interface.options} == {
        "default_constructor",
        "generate_enums",
        "generate_interfaces",
    }
    assert [(f.feature, f.option, f.value) for f in types.forced] == [
        ("DefaultConstructor", "default_constructor", True),
        ("Enum", "generate_enums", True),
        ("Interface", "generate_interfaces", True),
    ]
    builder = registry.get("Builder")
    assert builder.interface.consumes == frozenset({"type.generated", "constructor.generated"})
    assert str(builder.interface.constraints[0]) == "(Builder implies DefaultConstructor)"
    factory = registry.get("Factory")
    assert factory.interface.hooks_required == frozenset({"%sProvider"})
    assert factory.interface.variation_point("factory_method_prefix").default == "create%s"
    fronts = [c for c in registry.components if c.kind == "front_end"]
    assert {c.id for c in fronts} == {"CoreFrontEnd", "FeatureGuard"}
    assert all(b.phase == "restrict" for c in fronts for b in c.behaviors)


def test_components_are_fresh_instances():
    a, b = reference_components(), reference_components()
    assert a == b
    assert a is not b


# ---------------------------------------------------------------------------
# Whole-variant behavior

def test_run_time_generation_emits_providers(tmp_path):
    config = HYBRID_GEN
    diagram = restrict_diagram(covering_diagram(), frozenset(config), "run_time")
    spec = make_spec(config, tmp_path / "out", mode="run_time")
    report = generate(compose_reference(config), diagram, spec)
    assert report.ok
    tree = read_tree(tmp_path / "out")
    assert set(tree) == {
        "Person.oo",
        "PersonProvider.oo",
        "Receipt.oo",
        "ReceiptProvider.oo",
        "Manager.oo",
        "ManagerProvider.oo",
        "ShopFactory.oo",
        "trace.map",
    }
    factory = tree["ShopFactory.oo"].decode()
    assert "managerProvider.provide()" in factory
    assert "new " not in factory


def test_hybrid_generation_delegates_exactly_external(tmp_path):
    config = HYBRID_GEN
    diagram = restrict_diagram(covering_diagram(), frozenset(config), "hybrid")
    assert diagram.classes()[0].tags == ("external",)  # Person keeps its tag
    spec = make_spec(config, tmp_path / "out", mode="hybrid")
    report = generate(compose_reference(config), diagram, spec)
    assert report.ok
    factory = (tmp_path / "out" / "ShopFactory.oo").read_text()
    assert "Person createPerson() { return personProvider.provide(); }" in factory
    assert "Receipt createReceipt() { return new Receipt(); }" in factory
    assert "Manager createManager() { return new Manager(); }" in factory


def test_generated_regions_trace_to_selected_features(tmp_path):
    config = ("CD2Java", "Types", "Class", "Enum", "DefaultConstructor")
    diagram = restrict_diagram(covering_diagram(), frozenset(config), "generation_time")
    spec = make_spec(config, tmp_path / "out")
    report = generate(compose_reference(config), diagram, spec)
    assert report.ok
    allowed = set(config) | {"core"}
    for regions in report.trace.by_artifact.values():
        for region in regions:
            assert set(region.features) <= allowed
