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

Diagram, tag, superclass, interface and attribute names may not be reserved
words; class, interface, enum, operation, constant and type names may.

``parse_class_diagram`` reads a valid model with compiled patterns and runs
the recursive-descent parser only for a model the patterns leave, so every
error keeps the parser's message, line and column:

1. ``_HEAD`` matches ``classdiagram NAME {``.
2. ``_DECL`` matches, at the offset where the last match ended, one
   declaration with its whole body, or the closing ``}`` and the blanks up
   to the end of the text. It spells the grammar above over the
   tokenizer's exact blanks (``[ \\t\\r\\n]``, not ``\\s``) and identifiers,
   and refuses a reserved word where the parser refuses one.
3. Within a matched body, ``finditer`` reads the attributes, operations or
   constants. Their lines and columns come from the match offsets, with a
   line index that only moves forward through the text.

The parser gets a model with a ``//`` comment, which it skips, one the
patterns leave a gap in (an error, or any character the tokenizer refuses),
and one that repeats an attribute or an enum constant, which it reports.
For any other model the patterns build the parser's AST, positions
included. In each repeated part of a pattern, every blank run lies between
two tokens, so a failed match backtracks over each character a bounded
number of times and takes time linear in the text.

Context conditions are well-formedness predicates over a parsed diagram. The
core set (CC-01 .. CC-05) is always active; front-end components may contribute
further conditions per variant. A condition is a code and a check. Most are
built by ``positioned(code, offenses)``: ``offenses`` yields the subjects, the
message and the source line and column of each place the condition fails, and
the helper reports each one as a violation ``<message> at <line>:<column>``.
"""

from __future__ import annotations

import re
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

# The tokenizer's blanks. Not ``\s``: it also takes ``\x0c`` and ``\u2028``,
# which the tokenizer refuses.
_B = r"[ \t\r\n]"
# An identifier, and one the parser reads with ``expect_name``: not a reserved
# word. The patterns are compiled with re.ASCII, under which ``\w`` and ``\b``
# see only [A-Za-z0-9_], the tokenizer's identifier characters.
_IDENT = r"[A-Za-z_]\w*"
_NAME = r"(?!(?:%s)\b)%s" % ("|".join(sorted(_RESERVED)), _IDENT)

_HEAD = re.compile(rf"{_B}*classdiagram{_B}+({_NAME}){_B}*\{{", re.ASCII)


def _decl_pattern() -> str:
    """One declaration or the diagram's closing brace, from blanks on. The
    last group of each declaration is its body, so ``lastgroup`` names the
    kind matched, and is None for the closing brace."""
    names = rf"{_NAME}(?:{_B}*,{_B}*{_NAME})*"
    attrs = rf"(?:{_B}*{_NAME}{_B}*:{_B}*{_IDENT}{_B}*;)*"
    classd = (
        rf"(?P<tags>(?:<<{_B}*{_NAME}{_B}*>>{_B}*)*)class{_B}+(?P<class>{_IDENT})"
        rf"(?:{_B}+extends{_B}+(?P<extends>{_NAME}))?(?:{_B}+implements{_B}+(?P<implements>{names}))?"
        rf"{_B}*\{{(?P<attrs>{attrs}){_B}*\}}"
    )
    ops = rf"(?:{_B}*{_IDENT}{_B}*\({_B}*\){_B}*:{_B}*{_IDENT}{_B}*;)*"
    ifaced = rf"interface{_B}+(?P<interface>{_IDENT}){_B}*\{{(?P<ops>{ops}){_B}*\}}"
    constants = rf"{_B}*{_IDENT}(?:{_B}*,{_B}*{_IDENT})*"
    enumd = rf"enum{_B}+(?P<enum>{_IDENT}){_B}*\{{(?P<constants>{constants}){_B}*\}}"
    return rf"{_B}*(?:{classd}|{ifaced}|{enumd}|\}}{_B}*\Z)"


_DECL = re.compile(_decl_pattern(), re.ASCII)
# Within a matched body: an attribute or an operation (the ``()`` of an
# operation lies between its name and the ``:``), and any one word.
_MEMBER = re.compile(rf"(\w+)[ \t\r\n()]*:{_B}*(\w+)", re.ASCII)
_WORD = re.compile(r"\w+", re.ASCII)
_LINE_END = re.compile(r"\n")


def parse_class_diagram(source: str) -> ClassDiagram:
    """Parse CDL text, preserving declaration order and source positions.

    The patterns decide a valid model; the parser runs for one with an
    error, a comment or a repeated name, and raises its ``TextSyntaxError``.
    """
    # A comment leaves a gap at its first ``/``; skip the patterns' work up to it.
    diagram = None if "//" in source else _match_diagram(source)
    return _parse(source) if diagram is None else diagram


def _match_diagram(text: str) -> ClassDiagram | None:
    """The diagram the patterns read from ``text``, or None if they leave a
    gap or a name repeats where the parser refuses that."""
    head = _HEAD.match(text)
    if head is None:
        return None
    # starts[i] is the offset at which line i + 1 begins; the last entry lies
    # past the end. Offsets are placed in increasing order, so ``row`` only
    # moves forward.
    starts = [0, *map(re.Match.end, _LINE_END.finditer(text)), len(text) + 1]
    row = 1

    def at(offset: int) -> tuple[int, int]:
        """The (line, column) of an offset no lower than the last one placed."""
        nonlocal row
        while starts[row] <= offset:
            row += 1
        return row, offset - starts[row - 1] + 1

    name_at = at(head.start(1))
    types: list[TypeDecl] = []
    pos = head.end()
    while (m := _DECL.match(text, pos)) is not None:
        kind, pos = m.lastgroup, m.end()
        if kind is None:
            return ClassDiagram(head[1], tuple(types), *name_at)
        body = m.span(kind)
        if kind == "attrs":
            decl_at = at(m.start("class"))
            attributes: dict[str, Attribute] = {}
            for a in _MEMBER.finditer(text, *body):
                if a[1] in attributes:
                    return None
                attributes[a[1]] = Attribute(a[1], a[2], *at(a.start()))
            tags, interfaces = m["tags"], m["implements"]
            types.append(ClassDecl(
                m["class"],
                tuple(_WORD.findall(tags)) if tags else (),
                m["extends"],
                tuple(_WORD.findall(interfaces)) if interfaces else (),
                tuple(attributes.values()),
                *decl_at,
            ))
        elif kind == "ops":
            decl_at = at(m.start("interface"))
            operations = [Operation(o[1], o[2], *at(o.start())) for o in _MEMBER.finditer(text, *body)]
            types.append(InterfaceDecl(m["interface"], tuple(operations), *decl_at))
        else:
            decl_at = at(m.start("enum"))
            constants: dict[str, tuple[int, int]] = {}
            for c in _WORD.finditer(text, *body):
                if c[0] in constants:
                    return None
                constants[c[0]] = at(c.start())
            types.append(
                EnumDecl(m["enum"], tuple(constants), *decl_at, tuple(constants.values()))
            )
    return None


def _parse(source: str) -> ClassDiagram:
    """The recursive-descent parser: every diagram the patterns leave comes here."""
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
