"""Class-diagram front end: CDL parsing, symbol table, and context conditions.

CDL text format:

    diagram   := "classdiagram" IDENT "{" { element } "}"
    element   := classdecl | ifacedecl | enumdecl
    classdecl := { tag } "class" IDENT [ "extends" IDENT ]
                 [ "implements" IDENT { "," IDENT } ] "{" { attr } "}"
    tag       := "<<" IDENT ">>"
    attr      := IDENT ":" type ";"
    ifacedecl := "interface" IDENT "{" { opsig } "}"
    opsig     := IDENT "(" ")" ":" type ";"
    enumdecl  := "enum" IDENT "{" IDENT { "," IDENT } "}"
    type      := "int" | "boolean" | "string" | IDENT

Context conditions are well-formedness predicates over a parsed diagram. The
core set (CC-01 .. CC-05) is always active; front-end components may contribute
further conditions per variant. A condition is a code and a check. Most are
built by ``positioned(code, offenses)``: ``offenses`` yields the subjects, the
message and the source line and column of each place the condition fails, and
the helper reports each one as a violation ``<message> at <line>:<column>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .lexing import TextSyntaxError, TokenStream, tokenize
from .report import ValidationReport, Violation

BUILTIN_TYPES = ("boolean", "int", "string")

_RESERVED = frozenset({"classdiagram", "class", "interface", "enum", "extends", "implements"})

CC_UNIQUE_NAMES = "CC-01"
CC_SUPERCLASS = "CC-02"
CC_NO_CYCLES = "CC-03"
CC_TYPES_RESOLVE = "CC-04"
CC_IMPLEMENTS_IFACE = "CC-05"


@dataclass(frozen=True)
class Attribute:
    name: str
    type_name: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Operation:
    name: str
    return_type: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class ClassDecl:
    name: str
    tags: tuple[str, ...] = ()
    superclass: str | None = None
    interfaces: tuple[str, ...] = ()
    attributes: tuple[Attribute, ...] = ()
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class InterfaceDecl:
    name: str
    operations: tuple[Operation, ...] = ()
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class EnumDecl:
    name: str
    constants: tuple[str, ...] = ()
    line: int = 0
    column: int = 0
    constant_positions: tuple[tuple[int, int], ...] = ()  # (line, column) per constant


TypeDecl = Union[ClassDecl, InterfaceDecl, EnumDecl]


@dataclass(frozen=True)
class ClassDiagram:
    name: str
    types: tuple[TypeDecl, ...] = ()
    line: int = 0
    column: int = 0

    def classes(self) -> tuple[ClassDecl, ...]:
        return tuple(t for t in self.types if isinstance(t, ClassDecl))

    def interfaces(self) -> tuple[InterfaceDecl, ...]:
        return tuple(t for t in self.types if isinstance(t, InterfaceDecl))

    def enums(self) -> tuple[EnumDecl, ...]:
        return tuple(t for t in self.types if isinstance(t, EnumDecl))


# ---------------------------------------------------------------------------
# Parsing

_PUNCTS = ("<<", ">>", "{", "}", "(", ")", ":", ";", ",")


def parse_class_diagram(source: str) -> ClassDiagram:
    """Parse CDL text, preserving declaration order and source positions."""
    ts = TokenStream(tokenize(source, _PUNCTS), source)
    ts.expect_keyword("classdiagram")
    name_tok = ts.expect_name("diagram name", _RESERVED)
    ts.expect_punct("{")
    types: list[TypeDecl] = []
    while not ts.at_punct("}"):
        types.append(_parse_element(ts))
    ts.expect_punct("}")
    if not ts.at_end():
        ts.error("unexpected trailing input")
    return ClassDiagram(name_tok.value, tuple(types), *ts.position(name_tok))


def _parse_element(ts: TokenStream) -> TypeDecl:
    tags: list[str] = []
    while ts.accept_punct("<<"):
        tags.append(ts.expect_name("tag name", _RESERVED).value)
        ts.expect_punct(">>")
    if ts.accept_ident("class"):
        return _parse_class(ts, tuple(tags))
    if tags:
        ts.error("tags may only precede a class declaration")
    if ts.accept_ident("interface"):
        return _parse_interface(ts)
    if ts.accept_ident("enum"):
        return _parse_enum(ts)
    ts.expected("'class', 'interface' or 'enum'")


def _parse_class(ts: TokenStream, tags: tuple[str, ...]) -> ClassDecl:
    name_tok = ts.expect_ident("class name")
    superclass = None
    interfaces: list[str] = []
    if ts.accept_ident("extends"):
        superclass = ts.expect_name("superclass name", _RESERVED).value
    if ts.accept_ident("implements"):
        interfaces.append(ts.expect_name("interface name", _RESERVED).value)
        while ts.accept_punct(","):
            interfaces.append(ts.expect_name("interface name", _RESERVED).value)
    ts.expect_punct("{")
    attributes: list[Attribute] = []
    seen: set[str] = set()
    while not ts.at_punct("}"):
        attr_tok = ts.expect_name("attribute name", _RESERVED)
        attr_name = attr_tok.value
        ts.expect_punct(":")
        type_name = ts.expect_ident("type name").value
        ts.expect_punct(";")
        if attr_name in seen:
            raise TextSyntaxError(
                f"duplicate attribute {attr_name!r} in class {name_tok.value!r}",
                *ts.position(attr_tok),
            )
        seen.add(attr_name)
        attributes.append(Attribute(attr_name, type_name, *ts.position(attr_tok)))
    ts.expect_punct("}")
    line, column = ts.position(name_tok)
    return ClassDecl(
        name=name_tok.value,
        tags=tags,
        superclass=superclass,
        interfaces=tuple(interfaces),
        attributes=tuple(attributes),
        line=line,
        column=column,
    )


def _parse_interface(ts: TokenStream) -> InterfaceDecl:
    name_tok = ts.expect_ident("interface name")
    ts.expect_punct("{")
    operations: list[Operation] = []
    while not ts.at_punct("}"):
        op_tok = ts.expect_ident("operation name")
        ts.expect_punct("(")
        ts.expect_punct(")")
        ts.expect_punct(":")
        return_type = ts.expect_ident("type name").value
        ts.expect_punct(";")
        operations.append(Operation(op_tok.value, return_type, *ts.position(op_tok)))
    ts.expect_punct("}")
    line, column = ts.position(name_tok)
    return InterfaceDecl(
        name=name_tok.value,
        operations=tuple(operations),
        line=line,
        column=column,
    )


def _parse_enum(ts: TokenStream) -> EnumDecl:
    name_tok = ts.expect_ident("enum name")
    ts.expect_punct("{")
    tokens = [ts.expect_ident("enum constant")]
    seen = {tokens[0].value}
    while ts.accept_punct(","):
        const_tok = ts.expect_ident("enum constant")
        if const_tok.value in seen:
            raise TextSyntaxError(
                f"duplicate enum constant {const_tok.value!r} in {name_tok.value!r}",
                *ts.position(const_tok),
            )
        seen.add(const_tok.value)
        tokens.append(const_tok)
    ts.expect_punct("}")
    line, column = ts.position(name_tok)
    return EnumDecl(
        name=name_tok.value,
        constants=tuple(tok.value for tok in tokens),
        line=line,
        column=column,
        constant_positions=tuple(map(ts.position, tokens)),
    )


def canonical_type_text(decl: TypeDecl) -> str:
    """Stable one-line rendering of a declaration, used for cache keys."""
    if isinstance(decl, ClassDecl):
        parts = [f"<<{t}>>" for t in decl.tags]
        parts.append(f"class {decl.name}")
        if decl.superclass:
            parts.append(f"extends {decl.superclass}")
        if decl.interfaces:
            parts.append("implements " + ",".join(decl.interfaces))
        body = ";".join(f"{a.name}:{a.type_name}" for a in decl.attributes)
        return " ".join(parts) + "{" + body + "}"
    if isinstance(decl, InterfaceDecl):
        body = ";".join(f"{o.name}():{o.return_type}" for o in decl.operations)
        return f"interface {decl.name}{{{body}}}"
    return f"enum {decl.name}{{{','.join(decl.constants)}}}"


# ---------------------------------------------------------------------------
# Symbol table

class SymbolTable:
    """Maps every type name to its kind; builtins included."""

    def __init__(self, diagram: ClassDiagram):
        self._kinds: dict[str, str] = dict.fromkeys(BUILTIN_TYPES, "builtin")
        for decl in diagram.types:
            if decl.name in self._kinds:
                continue  # duplicates are reported by CC-01, first declaration wins
            if isinstance(decl, ClassDecl):
                kind = "class"
            elif isinstance(decl, InterfaceDecl):
                kind = "interface"
            else:
                kind = "enum"
            self._kinds[decl.name] = kind

    def kind_of(self, name: str) -> str | None:
        return self._kinds.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds


# ---------------------------------------------------------------------------
# Context conditions

CheckFn = Callable[[ClassDiagram, SymbolTable], list[Violation]]
# (subjects, message, line, column) of one place where a condition fails.
Offense = tuple[tuple[str, ...], str, int, int]
OffenseFn = Callable[[ClassDiagram, SymbolTable], Iterable[Offense]]


@dataclass(frozen=True)
class ContextCondition:
    code: str
    check: CheckFn


def positioned(code: str, offenses: OffenseFn) -> ContextCondition:
    """The condition reporting each of ``offenses`` as a violation at its position."""

    def check(diagram: ClassDiagram, symbols: SymbolTable) -> list[Violation]:
        return [
            Violation(code, subjects, f"{message} at {line}:{column}")
            for subjects, message, line, column in offenses(diagram, symbols)
        ]

    return ContextCondition(code, check)


def _name_clashes(diagram: ClassDiagram, symbols: SymbolTable) -> Iterable[Offense]:
    seen: set[str] = set()
    for decl in diagram.types:
        if decl.name in BUILTIN_TYPES or decl.name in seen:
            what = "shadows a builtin" if decl.name in BUILTIN_TYPES else "declared more than once"
            yield (decl.name,), f"type name {decl.name!r} {what}", decl.line, decl.column
        seen.add(decl.name)


def _with_article(kind: str) -> str:
    return f"an {kind}" if kind[0] in "aeiou" else f"a {kind}"


def _bad_superclasses(diagram: ClassDiagram, symbols: SymbolTable) -> Iterable[Offense]:
    for cls in diagram.classes():
        kind = "class" if cls.superclass is None else symbols.kind_of(cls.superclass)
        if kind != "class":
            what = "not declared" if kind is None else f"{_with_article(kind)}, not a class"
            message = f"superclass {cls.superclass!r} of {cls.name!r} is {what}"
            yield (cls.name, cls.superclass), message, cls.line, cls.column


def _check_inheritance_cycles(diagram: ClassDiagram, symbols: SymbolTable) -> list[Violation]:
    # Follow superclass links that resolve to classes; report each cycle once,
    # rotated to start at its lexicographically smallest member.
    parent: dict[str, str] = {}
    for cls in diagram.classes():
        if cls.superclass and symbols.kind_of(cls.superclass) == "class":
            parent[cls.name] = cls.superclass
    violations: list[Violation] = []
    reported: set[tuple[str, ...]] = set()
    for start in sorted(parent):
        trail: list[str] = []
        seen_here: set[str] = set()
        node: str | None = start
        while node is not None and node in parent:
            if node in seen_here:
                cycle = trail[trail.index(node):]
                pivot = cycle.index(min(cycle))
                canon = tuple(cycle[pivot:] + cycle[:pivot])
                if canon not in reported:
                    reported.add(canon)
                    chain = " -> ".join(canon + (canon[0],))
                    violations.append(
                        Violation(CC_NO_CYCLES, canon, f"inheritance cycle: {chain}")
                    )
                break
            seen_here.add(node)
            trail.append(node)
            node = parent.get(node)
    return violations


def _unresolved_types(diagram: ClassDiagram, symbols: SymbolTable) -> Iterable[Offense]:
    for decl in diagram.types:
        if isinstance(decl, ClassDecl):
            for attr in decl.attributes:
                if attr.type_name not in symbols:
                    message = (
                        f"unknown type {attr.type_name!r} for attribute {attr.name!r} "
                        f"of {decl.name!r}"
                    )
                    yield (decl.name, attr.type_name), message, attr.line, attr.column
        elif isinstance(decl, InterfaceDecl):
            for op in decl.operations:
                if op.return_type not in symbols:
                    message = (
                        f"unknown return type {op.return_type!r} for operation {op.name!r} "
                        f"of {decl.name!r}"
                    )
                    yield (decl.name, op.return_type), message, op.line, op.column


def _bad_interfaces(diagram: ClassDiagram, symbols: SymbolTable) -> Iterable[Offense]:
    for cls in diagram.classes():
        for iface in cls.interfaces:
            kind = symbols.kind_of(iface)
            if kind != "interface":
                what = "not declared" if kind is None else f"{_with_article(kind)}, not an interface"
                message = f"{cls.name!r} implements {iface!r}, which is {what}"
                yield (cls.name, iface), message, cls.line, cls.column


def core_conditions() -> tuple[ContextCondition, ...]:
    """The always-active well-formedness conditions of the input language."""
    return (
        positioned(CC_UNIQUE_NAMES, _name_clashes),
        positioned(CC_SUPERCLASS, _bad_superclasses),
        ContextCondition(CC_NO_CYCLES, _check_inheritance_cycles),
        positioned(CC_TYPES_RESOLVE, _unresolved_types),
        positioned(CC_IMPLEMENTS_IFACE, _bad_interfaces),
    )


def check_context_conditions(
    diagram: ClassDiagram, conditions: Iterable[ContextCondition]
) -> ValidationReport:
    """Build the symbol table and evaluate every active condition.

    Condition codes must be unique within the active set; conditions are
    evaluated in code order so reports are deterministic regardless of how the
    set was assembled.
    """
    ordered = sorted(conditions, key=lambda c: c.code)
    codes = [c.code for c in ordered]
    for code, nxt in zip(codes, codes[1:]):
        if code == nxt:
            raise ValueError(f"duplicate context condition code {code!r}")
    symbols = SymbolTable(diagram)
    violations: list[Violation] = []
    for condition in ordered:
        violations.extend(condition.check(diagram, symbols))
    return ValidationReport(tuple(violations))
