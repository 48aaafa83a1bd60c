from __future__ import annotations

import pytest

from genline.classdiagram import (
    CC_IMPLEMENTS_IFACE,
    CC_NO_CYCLES,
    CC_SUPERCLASS,
    CC_TYPES_RESOLVE,
    CC_UNIQUE_NAMES,
    CdlSyntaxError,
    ClassDecl,
    ContextCondition,
    EnumDecl,
    InterfaceDecl,
    SymbolTable,
    UnknownTypeError,
    canonical_type_text,
    check_context_conditions,
    core_conditions,
    parse_class_diagram,
)

from helpers import COVERING_CDL, covering_diagram


def _check(source: str):
    diagram = parse_class_diagram(source)
    return check_context_conditions(diagram, core_conditions())


def test_parse_covering_diagram():
    diagram = covering_diagram()
    assert diagram.name == "Shop"
    assert [t.name for t in diagram.types] == [
        "Person",
        "Receipt",
        "Manager",
        "Printable",
        "Color",
    ]
    person, receipt, manager = diagram.classes()
    assert person.tags == ("external",)
    assert [(a.name, a.type_name) for a in person.attributes] == [
        ("name", "string"),
        ("age", "int"),
    ]
    assert receipt.tags == ("nobuilder",)
    assert manager.superclass == "Person"
    assert manager.interfaces == ("Printable",)
    (iface,) = diagram.interfaces()
    assert [(o.name, o.return_type) for o in iface.operations] == [("print", "string")]
    (enum,) = diagram.enums()
    assert enum.constants == ("RED", "GREEN", "BLUE")


def test_positions_are_recorded():
    diagram = covering_diagram()
    person = diagram.classes()[0]
    assert (person.line, person.column) == (2, 22)
    assert (person.attributes[0].line, person.attributes[0].column) == (3, 5)


def test_canonical_type_text_is_stable():
    diagram = covering_diagram()
    person, receipt, manager = diagram.classes()
    assert canonical_type_text(person) == "<<external>> class Person{name:string;age:int}"
    assert canonical_type_text(receipt) == "<<nobuilder>> class Receipt{total:int}"
    assert (
        canonical_type_text(manager)
        == "class Manager extends Person implements Printable{level:int}"
    )
    assert canonical_type_text(diagram.interfaces()[0]) == "interface Printable{print():string}"
    assert canonical_type_text(diagram.enums()[0]) == "enum Color{RED,GREEN,BLUE}"
    # Re-parsing yields the same canonical text.
    again = parse_class_diagram(COVERING_CDL)
    assert [canonical_type_text(t) for t in again.types] == [
        canonical_type_text(t) for t in diagram.types
    ]


def test_parse_errors():
    with pytest.raises(CdlSyntaxError, match="duplicate attribute 'x'"):
        parse_class_diagram("classdiagram D { class A { x: int; x: string; } }")
    with pytest.raises(CdlSyntaxError, match="duplicate enum constant 'R'"):
        parse_class_diagram("classdiagram D { enum E { R, R } }")
    with pytest.raises(CdlSyntaxError, match="tags may only precede a class"):
        parse_class_diagram("classdiagram D { <<x>> enum E { R } }")
    with pytest.raises(CdlSyntaxError, match="keyword 'class'"):
        parse_class_diagram("classdiagram class { }")
    with pytest.raises(CdlSyntaxError, match="trailing input"):
        parse_class_diagram("classdiagram D { } class")
    with pytest.raises(CdlSyntaxError, match="expected 'class', 'interface' or 'enum'"):
        parse_class_diagram("classdiagram D { widget W { } }")
    with pytest.raises(CdlSyntaxError) as err:
        parse_class_diagram("classdiagram D {\n  class A {\n    x int;\n  }\n}")
    assert (err.value.line, err.value.column) == (3, 7)


def test_symbol_table():
    symbols = SymbolTable(covering_diagram())
    assert symbols.kind_of("int") == "builtin"
    assert symbols.kind_of("Person") == "class"
    assert symbols.kind_of("Printable") == "interface"
    assert symbols.kind_of("Color") == "enum"
    assert symbols.kind_of("Missing") is None
    assert "string" in symbols and "Nope" not in symbols
    kind, decl = symbols.lookup("Manager")
    assert kind == "class" and decl.name == "Manager"
    with pytest.raises(UnknownTypeError):
        symbols.lookup("Missing")


def test_symbol_table_first_declaration_wins():
    diagram = parse_class_diagram(
        "classdiagram D { class A { x: int; } interface A { } }"
    )
    kind, decl = SymbolTable(diagram).lookup("A")
    assert kind == "class"
    assert isinstance(decl, ClassDecl)


def test_clean_diagram_passes_core_conditions():
    report = check_context_conditions(covering_diagram(), core_conditions())
    assert report.valid


def test_cc01_unique_names_and_builtin_shadowing():
    report = _check("classdiagram D { class A { } enum A { X } class int { } }")
    assert report.codes() == (CC_UNIQUE_NAMES, CC_UNIQUE_NAMES)
    messages = [v.message for v in report.violations]
    assert any("declared more than once" in m for m in messages)
    assert any("shadows a builtin" in m for m in messages)


def test_cc02_superclass_rules():
    report = _check("classdiagram D { class A extends Missing { } }")
    assert report.codes() == (CC_SUPERCLASS,)
    report = _check("classdiagram D { class A extends E { } enum E { X } }")
    assert report.codes() == (CC_SUPERCLASS,)
    assert "an enum, not a class" in report.violations[0].message


def test_cc03_inheritance_cycle_reported_once():
    report = _check(
        "classdiagram D { class B extends A { } class A extends B { } class C extends A { } }"
    )
    assert report.codes() == (CC_NO_CYCLES,)
    violation = report.violations[0]
    assert violation.subjects == ("A", "B")
    assert violation.message == "inheritance cycle: A -> B -> A"

    report = _check("classdiagram D { class A extends A { } }")
    assert report.codes() == (CC_NO_CYCLES,)
    assert report.violations[0].message == "inheritance cycle: A -> A"


def test_cc04_types_resolve():
    report = _check(
        "classdiagram D { class A { x: Widget; } interface I { f(): Gadget; } }"
    )
    assert report.codes() == (CC_TYPES_RESOLVE, CC_TYPES_RESOLVE)
    assert report.violations[0].subjects == ("A", "Widget")
    assert report.violations[1].subjects == ("I", "Gadget")


def test_cc05_implements_interfaces():
    report = _check("classdiagram D { class A implements B { } class B { } }")
    assert report.codes() == (CC_IMPLEMENTS_IFACE,)
    assert "a class, not an interface" in report.violations[0].message
    report = _check("classdiagram D { class A implements Nope { } }")
    assert report.codes() == (CC_IMPLEMENTS_IFACE,)
    assert "not declared" in report.violations[0].message


def test_violations_ordered_by_condition_code():
    # Both CC-02 and CC-01 fire; the report lists them in code order.
    report = _check(
        "classdiagram D { class A extends Missing { } class A extends Missing { } }"
    )
    assert report.codes() == tuple(sorted(report.codes()))
    assert report.codes()[0] == CC_UNIQUE_NAMES


def test_duplicate_condition_codes_rejected():
    extra = ContextCondition(CC_UNIQUE_NAMES, lambda d, s: [])
    with pytest.raises(ValueError, match="duplicate context condition code"):
        check_context_conditions(covering_diagram(), core_conditions() + (extra,))


def test_declaration_kinds_helpers():
    diagram = covering_diagram()
    assert all(isinstance(c, ClassDecl) for c in diagram.classes())
    assert all(isinstance(i, InterfaceDecl) for i in diagram.interfaces())
    assert all(isinstance(e, EnumDecl) for e in diagram.enums())
