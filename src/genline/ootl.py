"""Syntax checker for the generated object-oriented target language.

One compilation unit per artifact:

    unit   := "package" IDENT ";" typedecl
    typedecl := classd | ifaced | enumd
    classd := "class" IDENT ["extends" IDENT] ["implements" IDENT {"," IDENT}]
              "{" {member} "}"
    member := type IDENT ";"
            | IDENT "(" [params] ")" block
            | type IDENT "(" [params] ")" (block | ";")
    ifaced := "interface" IDENT "{" { type IDENT "(" [params] ")" ";" } "}"
    enumd  := "enum" IDENT "{" IDENT {"," IDENT} "}"
    params := type IDENT {"," type IDENT}
    block  := "{" {stmt} "}"
    stmt   := type IDENT "=" expr ";" | lval "=" expr ";"
            | "return" [expr] ";" | expr ";"
    expr   := "new" IDENT "(" ")" | "this" | lval | lval "(" [expr {"," expr}] ")"
    lval   := IDENT {"." IDENT}
    type   := "int" | "boolean" | "string" | "void" | IDENT

The checker recognizes the language; it does not build a tree or resolve
names. Checking happens on in-memory containers before anything is written.
"""

from __future__ import annotations

from .lexing import MAX_NESTING, TextSyntaxError, TokenStream, tokenize

_PUNCTS = ("{", "}", "(", ")", ";", ",", ".", "=")

# Reserved words of the target language: no generated name may be one.
KEYWORDS = frozenset(
    {"package", "class", "interface", "enum", "extends", "implements", "return", "new", "this"}
)


def check_unit(text: str) -> tuple[str, int, int] | None:
    """Return None when the text is a valid unit, else (message, line, column)."""
    try:
        ts = TokenStream(tokenize(text, _PUNCTS))
        _unit(ts)
    except TextSyntaxError as exc:
        return exc.message, exc.line, exc.column
    return None


def _unit(ts: TokenStream) -> None:
    ts.expect_keyword("package")
    ts.expect_name("package name", KEYWORDS)
    ts.expect_punct(";")
    if ts.accept_ident("class"):
        _classd(ts)
    elif ts.accept_ident("interface"):
        _ifaced(ts)
    elif ts.accept_ident("enum"):
        _enumd(ts)
    else:
        ts.expected("'class', 'interface' or 'enum'")
    if not ts.at_end():
        ts.error("unexpected trailing input")


def _classd(ts: TokenStream) -> None:
    ts.expect_name("class name", KEYWORDS)
    if ts.accept_ident("extends"):
        ts.expect_name("superclass name", KEYWORDS)
    if ts.accept_ident("implements"):
        ts.expect_name("interface name", KEYWORDS)
        while ts.accept_punct(","):
            ts.expect_name("interface name", KEYWORDS)
    ts.expect_punct("{")
    while not ts.at_punct("}"):
        _member(ts)
    ts.expect_punct("}")


def _member(ts: TokenStream) -> None:
    ts.expect_name("member type or constructor name", KEYWORDS)
    if ts.at_punct("("):
        # constructor: IDENT "(" [params] ")" block
        ts.expect_punct("(")
        _params(ts)
        ts.expect_punct(")")
        _block(ts)
        return
    ts.expect_name("member name", KEYWORDS)
    if ts.accept_punct(";"):
        return  # field
    if not ts.at_punct("("):
        ts.error("expected ';' or '(' after member name")
    ts.expect_punct("(")
    _params(ts)
    ts.expect_punct(")")
    if ts.accept_punct(";"):
        return  # bodyless method
    _block(ts)


def _ifaced(ts: TokenStream) -> None:
    ts.expect_name("interface name", KEYWORDS)
    ts.expect_punct("{")
    while not ts.at_punct("}"):
        ts.expect_name("return type", KEYWORDS)
        ts.expect_name("operation name", KEYWORDS)
        ts.expect_punct("(")
        _params(ts)
        ts.expect_punct(")")
        ts.expect_punct(";")
    ts.expect_punct("}")


def _enumd(ts: TokenStream) -> None:
    ts.expect_name("enum name", KEYWORDS)
    ts.expect_punct("{")
    ts.expect_name("enum constant", KEYWORDS)
    while ts.accept_punct(","):
        ts.expect_name("enum constant", KEYWORDS)
    ts.expect_punct("}")


def _params(ts: TokenStream) -> None:
    if ts.at_punct(")"):
        return
    ts.expect_name("parameter type", KEYWORDS)
    ts.expect_name("parameter name", KEYWORDS)
    while ts.accept_punct(","):
        ts.expect_name("parameter type", KEYWORDS)
        ts.expect_name("parameter name", KEYWORDS)


def _block(ts: TokenStream) -> None:
    ts.expect_punct("{")
    while not ts.at_punct("}"):
        _stmt(ts)
    ts.expect_punct("}")


def _stmt(ts: TokenStream) -> None:
    if ts.accept_ident("return"):
        if not ts.at_punct(";"):
            _expr(ts)
        ts.expect_punct(";")
        return
    if ts.at_ident("new") or ts.at_ident("this"):
        _expr(ts)
        ts.expect_punct(";")
        return
    ts.expect_name("statement", KEYWORDS)
    nxt = ts.peek()
    if nxt.kind == "ident" and nxt.value not in KEYWORDS:
        # local declaration: type IDENT "=" expr ";"
        ts.expect_name("variable name", KEYWORDS)
        ts.expect_punct("=")
        _expr(ts)
        ts.expect_punct(";")
        return
    while ts.accept_punct("."):
        ts.expect_name("member name", KEYWORDS)
    if ts.accept_punct("="):
        _expr(ts)
        ts.expect_punct(";")
        return
    if ts.at_punct("("):
        _call_args(ts)
    ts.expect_punct(";")


def _expr(ts: TokenStream, depth: int = 0) -> None:
    if ts.accept_ident("new"):
        ts.expect_name("class name", KEYWORDS)
        ts.expect_punct("(")
        ts.expect_punct(")")
        return
    if ts.accept_ident("this"):
        return
    ts.expect_name("expression", KEYWORDS)
    while ts.accept_punct("."):
        ts.expect_name("member name", KEYWORDS)
    if ts.at_punct("("):
        _call_args(ts, depth + 1)


def _call_args(ts: TokenStream, depth: int = 1) -> None:
    if depth > MAX_NESTING:
        ts.error(f"calls nested deeper than {MAX_NESTING} levels")
    ts.expect_punct("(")
    if not ts.at_punct(")"):
        _expr(ts, depth)
        while ts.accept_punct(","):
            _expr(ts, depth)
    ts.expect_punct(")")
