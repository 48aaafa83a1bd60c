from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genline import classdiagram
from genline.classdiagram import (
    CC_IMPLEMENTS_IFACE,
    CC_NO_CYCLES,
    CC_SUPERCLASS,
    CC_TYPES_RESOLVE,
    CC_UNIQUE_NAMES,
    Attribute,
    ClassDecl,
    ClassDiagram,
    ContextCondition,
    EnumDecl,
    InterfaceDecl,
    Operation,
    SymbolTable,
    check_context_conditions,
    core_conditions,
    parse_class_diagram,
)
from genline.lexing import TextSyntaxError, tokenize

from helpers import COVERING_CDL, covering_diagram, parser_never_runs

SHOP_CDL = (Path(__file__).resolve().parents[1] / "samples" / "shop.cdl").read_text()


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


def test_parse_errors():
    with pytest.raises(TextSyntaxError, match="duplicate attribute 'x'"):
        parse_class_diagram("classdiagram D { class A { x: int; x: string; } }")
    with pytest.raises(TextSyntaxError, match="duplicate enum constant 'R'"):
        parse_class_diagram("classdiagram D { enum E { R, R } }")
    with pytest.raises(TextSyntaxError, match="tags may only precede a class"):
        parse_class_diagram("classdiagram D { <<x>> enum E { R } }")
    with pytest.raises(TextSyntaxError, match="keyword 'class'"):
        parse_class_diagram("classdiagram class { }")
    with pytest.raises(TextSyntaxError, match="trailing input"):
        parse_class_diagram("classdiagram D { } class")
    with pytest.raises(TextSyntaxError, match="expected 'class', 'interface' or 'enum'"):
        parse_class_diagram("classdiagram D { widget W { } }")
    with pytest.raises(TextSyntaxError) as err:
        parse_class_diagram("classdiagram D {\n  class A {\n    x int;\n  }\n}")
    assert (err.value.line, err.value.column) == (3, 7)


# The parser's corner cases, which the patterns must keep: (source, the
# diagram it parses to, or the error as (message, line, column)).
CORNER_CASES = {
    "reserved diagram name": (
        "classdiagram class { }", ("expected diagram name, found keyword 'class'", 1, 14),
    ),
    "reserved tag name": (
        "classdiagram D {\n  <<enum>> class A { }\n}", ("expected tag name, found keyword 'enum'", 2, 5),
    ),
    "reserved superclass name": (
        "classdiagram D { class A extends implements { } }",
        ("expected superclass name, found keyword 'implements'", 1, 34),
    ),
    "reserved interface name": (
        "classdiagram D { class A implements I, interface { } }",
        ("expected interface name, found keyword 'interface'", 1, 40),
    ),
    "reserved attribute name": (
        "classdiagram D { class A { x: int; extends: int; } }",
        ("expected attribute name, found keyword 'extends'", 1, 36),
    ),
    # Class, interface, enum, operation, constant and type names may be reserved words.
    "reserved words where any identifier goes": (
        "classdiagram D {\n"
        "  class class extends A implements B { x: enum; }\n"
        "  interface interface { extends(): class; }\n"
        "  enum enum { enum, implements }\n"
        "}\n",
        ClassDiagram("D", (
            ClassDecl("class", (), "A", ("B",), (Attribute("x", "enum", 2, 40),), 2, 9),
            InterfaceDecl("interface", (Operation("extends", "class", 3, 25),), 3, 13),
            EnumDecl("enum", ("enum", "implements"), 4, 8, ((4, 15), (4, 21))),
        ), 1, 14),
    ),
    "tags before an interface": (
        "classdiagram D { <<t>> interface I { } }",
        ("tags may only precede a class declaration", 1, 24),
    ),
    "tags before an enum": (
        "classdiagram D {\n\t<<a>> <<b>>\n\tenum E { X }\n}",
        ("tags may only precede a class declaration", 3, 2),
    ),
    "duplicate attribute": (
        "classdiagram D {\n  class A {\n    x: int;\n    y: int;\n    x: string;\n  }\n}",
        ("duplicate attribute 'x' in class 'A'", 5, 5),
    ),
    "duplicate enum constant": (
        "classdiagram D { enum E { R, G,\n  R } }", ("duplicate enum constant 'R' in 'E'", 2, 3),
    ),
    "a tag with no blank before class": (
        "classdiagram D {<<t>>class A{}}",
        ClassDiagram("D", (ClassDecl("A", ("t",), line=1, column=28),), 1, 14),
    ),
    "an operation without parentheses": (
        "classdiagram D { interface I { f: int; } }", ("expected '(', found ':'", 1, 33),
    ),
    "an attribute with parentheses": (
        "classdiagram D { class A { x(): int; } }", ("expected ':', found '('", 1, 29),
    ),
    "no diagram name": ("classdiagram{ }", ("expected diagram name, found '{'", 1, 13)),
    "a keyword joined to the name after it": (
        "classdiagram D { classA { } }",
        ("expected 'class', 'interface' or 'enum', found 'classA'", 1, 18),
    ),
    "trailing input": ("classdiagram D { }\n}", ("unexpected trailing input", 2, 1)),
    "crlf line ends and tabs": (
        "classdiagram\tD {\r\n"
        "\t<<t>>\tclass A {\r\n"
        "\t\tx:\tint;\r\n"
        "\t}\r\n"
        "\tinterface I { f(): int; }\r\n"
        "\tenum E {\tR,\r\n"
        "\tG }\r\n"
        "}\r\n",
        ClassDiagram("D", (
            ClassDecl("A", ("t",), attributes=(Attribute("x", "int", 3, 3),), line=2, column=14),
            InterfaceDecl("I", (Operation("f", "int", 5, 16),), 5, 12),
            EnumDecl("E", ("R", "G"), 6, 7, ((6, 11), (7, 2))),
        ), 1, 14),
    ),
}


def _decided(parse, source):
    """What a parse returns: the diagram, or the error as (message, line, column)."""
    try:
        return parse(source)
    except TextSyntaxError as err:
        return err.message, err.line, err.column


@pytest.mark.parametrize("source, expected", CORNER_CASES.values(), ids=CORNER_CASES.keys())
def test_corner_cases_parse_alike_with_and_without_the_patterns(source, expected):
    assert _decided(parse_class_diagram, source) == expected
    assert _decided(classdiagram._parse, source) == expected


def test_symbol_table():
    symbols = SymbolTable(covering_diagram())
    assert symbols.kind_of("int") == "builtin"
    assert symbols.kind_of("Person") == "class"
    assert symbols.kind_of("Printable") == "interface"
    assert symbols.kind_of("Color") == "enum"
    assert symbols.kind_of("Missing") is None
    assert "string" in symbols and "Nope" not in symbols
    assert symbols.kind_of("Manager") == "class"


def test_symbol_table_first_declaration_wins():
    diagram = parse_class_diagram(
        "classdiagram D { class A { x: int; } interface A { } }"
    )
    assert SymbolTable(diagram).kind_of("A") == "class"


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


# ---------------------------------------------------------------------------
# The patterns and the parser decide alike


def _parsed(text):
    """The parser alone: the oracle for parse_class_diagram."""
    return _decided(classdiagram._parse, text)


# Names the parser's expect_name takes, and any identifier, reserved or not.
_NAMES = ["A", "x", "b1", "_v", "int", "Person"]
_IDENTS = st.sampled_from([*_NAMES, *sorted(classdiagram._RESERVED)])
_NAME = st.sampled_from(_NAMES)


def _joined(words, sep=","):
    out = []
    for i, word in enumerate(words):
        out += [sep, word] if i else [word]
    return out


@st.composite
def _valid_diagram(draw):
    """The tokens of a diagram the parser accepts: no name repeats where it
    refuses that."""
    tokens = ["classdiagram", draw(_NAME), "{"]
    for kind in draw(st.lists(st.sampled_from(["class", "interface", "enum"]), max_size=4)):
        if kind == "class":
            for tag in draw(st.lists(_NAME, max_size=2)):
                tokens += ["<<", tag, ">>"]
            tokens += ["class", draw(_IDENTS)]
            if draw(st.booleans()):
                tokens += ["extends", draw(_NAME)]
            if draw(st.booleans()):
                tokens += ["implements", *_joined(draw(st.lists(_NAME, min_size=1, max_size=3)))]
            tokens.append("{")
            for name in draw(st.lists(_NAME, unique=True, max_size=3)):
                tokens += [name, ":", draw(_IDENTS), ";"]
        elif kind == "interface":
            tokens += ["interface", draw(_IDENTS), "{"]
            for name in draw(st.lists(_IDENTS, max_size=3)):
                tokens += [name, "(", ")", ":", draw(_IDENTS), ";"]
        else:
            tokens += ["enum", draw(_IDENTS), "{"]
            tokens += _joined(draw(st.lists(_IDENTS, unique=True, min_size=1, max_size=3)))
        tokens.append("}")
    return tokens + ["}"]


# What comes before each token: the tokenizer's blanks, in runs; with a
# comment, or with nothing, which merges neighbouring words.
_BLANKS = [" ", "\n", "\t", "\r\n", "\r", " \n\t"]
_SEPARATORS = ["", *_BLANKS, " // note\n"]
# Words and characters the tokenizer refuses, or that the grammar puts elsewhere.
_SOUP = [
    *sorted(classdiagram._RESERVED), "x", "int", *classdiagram._PUNCTS,
    "<", ">", "1", "é", "\x0c", "\u2028", "/", "//", " ", "\n", "\r\n", "\t",
]


@st.composite
def _rendered(draw, tokens, separators=_BLANKS):
    """Tokens, each after a separator drawn from ``separators``, and one more at the end."""
    tokens = draw(tokens)
    seps = draw(st.lists(st.sampled_from(separators), min_size=len(tokens), max_size=len(tokens)))
    return "".join(sep + tok for sep, tok in zip(seps, tokens)) + draw(st.sampled_from(["", *separators]))


@st.composite
def _mutated(draw):
    """A valid diagram with one token deleted, inserted or replaced."""
    tokens = draw(_valid_diagram())
    i = draw(st.integers(0, len(tokens) - 1))
    other = draw(st.sampled_from(_SOUP))
    tokens = draw(st.sampled_from([
        tokens[:i] + tokens[i + 1:], tokens[:i] + [other] + tokens[i:], tokens[:i] + [other] + tokens[i + 1:],
    ]))
    return draw(_rendered(st.just(tokens), _SEPARATORS))


_START = ["", "classdiagram D {", "classdiagram D { class C {", "classdiagram D { enum E {",
          "classdiagram D { interface I {", "classdiagram D { <<t>>"]
_SOUP_TEXT = st.tuples(st.sampled_from(_START), st.lists(st.sampled_from(_SOUP), max_size=30)).map(
    lambda t: t[0] + "".join(t[1])
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_SOUP_TEXT, _mutated(), _rendered(_valid_diagram(), _SEPARATORS)))
def test_parse_class_diagram_decides_as_the_parser_does(text):
    assert _decided(parse_class_diagram, text) == _parsed(text)


@settings(max_examples=300, deadline=None)
@given(_rendered(_valid_diagram()))
def test_a_valid_diagram_without_comments_never_reaches_the_parser(text):
    expected = _parsed(text)
    with parser_never_runs(classdiagram):
        assert parse_class_diagram(text) == expected


def test_the_covering_diagram_and_the_sample_never_reach_the_parser():
    for text in (COVERING_CDL, SHOP_CDL):
        expected = classdiagram._parse(text)
        with parser_never_runs(classdiagram):
            assert parse_class_diagram(text) == expected


def test_a_model_with_a_comment_goes_straight_to_the_parser(monkeypatch):
    # The patterns would read the model up to the comment and fail there, so
    # they are not run at all: a commented model is read once, as before.
    def refuse(text):
        raise AssertionError("the patterns ran on a model with a comment")

    expected = covering_diagram()
    monkeypatch.setattr(classdiagram, "_match_diagram", refuse)
    assert parse_class_diagram(COVERING_CDL + "// note\n") == expected


# Every token kind, and characters the tokenizer refuses.
_VOCABULARY = [*sorted(classdiagram._RESERVED), "x", *classdiagram._PUNCTS, "1", "é", "\x0c", "/"]


def test_every_one_token_change_of_a_valid_diagram_is_decided_as_the_parser_does():
    # Each token deleted, inserted or replaced, and each blank between two
    # tokens removed, which joins a keyword to the name after it.
    for diagram in dict.fromkeys([COVERING_CDL, SHOP_CDL]):
        tokens = [tok.value for tok in tokenize(diagram, classdiagram._PUNCTS)[:-1]]
        for i in range(len(tokens) + 1):
            changed = [tokens[:i] + [word] + tokens[i:] for word in _VOCABULARY]
            if i < len(tokens):
                changed.append(tokens[:i] + tokens[i + 1:])
                changed += [tokens[:i] + [word] + tokens[i + 1:] for word in _VOCABULARY]
            texts = [" ".join(variant) for variant in changed]
            if 0 < i < len(tokens):
                texts.append(" ".join(tokens[:i]) + " ".join(tokens[i:]))
            for text in texts:
                assert _decided(parse_class_diagram, text) == _parsed(text), text


def test_a_megabyte_unterminated_in_a_class_body_gets_the_parsers_error():
    # The class pattern reads all 60,000 attributes, then fails at the end of
    # the input and hands the text to the parser. A pattern that backtracked
    # with the square of the body's length would not finish.
    body = "".join(f"    a{i}: int;\n" for i in range(60_000))
    text = "classdiagram D {\n  class C {\n" + body
    assert len(text) > 1_000_000
    with pytest.raises(TextSyntaxError) as err:
        parse_class_diagram(text)
    assert (err.value.message, err.value.line, err.value.column) == (
        "expected attribute name, found end of input", 60_003, 1
    )
    diagram = parse_class_diagram(text + "  }\n}\n")
    assert len(diagram.types[0].attributes) == 60_000
