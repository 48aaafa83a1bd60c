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

``check_unit`` decides a unit with three C-level calls, and runs the
recursive-descent parser only when they find it invalid, so that every error
keeps the parser's message, line and column:

1. ``_NAME`` replaces each identifier that is not a keyword with ``I`` and
   leaves keywords as they are. It matches only at a token start: an
   identifier character before the match would make it the tail of a longer
   identifier or of a number.
2. The blanks that separate tokens (space, tab, ``\\r``, ``\\n``) are removed.
3. ``_UNIT`` must match the whole of what is left. It spells the grammar
   above over keywords, ``I`` and punctuation, with no blanks.

The normalisation never maps two different token sequences to one string.
Each token becomes one code word: a keyword, ``I`` or one punctuation
character. No code word is a prefix of another, because no keyword is a
prefix of another and none contains ``I`` or punctuation, so the string
splits into code words in only one way. A character the tokenizer refuses
stays in the string and lies outside ``_UNIT``'s alphabet: a digit at a
token start (kept with the identifier characters after it), ``\\x0c`` or
``é``. So does the ``/`` of a comment: generated code holds none, and a unit
that does is left to the parser, which skips it.

``_UNIT`` unrolls call nesting only ``_UNROLL_DEPTH`` levels deep, well
below ``MAX_NESTING``; each argument list holds one copy of the expression
of the level below, so the pattern grows linearly with the depth. The
pattern therefore accepts a subset of what the parser accepts, and a unit
with deeper calls is left to the parser.
"""

from __future__ import annotations

import re

from .lexing import MAX_NESTING, TextSyntaxError, TokenStream, tokenize

_PUNCTS = ("{", "}", "(", ")", ";", ",", ".", "=")

# Reserved words of the target language: no generated name may be one.
KEYWORDS = frozenset(
    {"package", "class", "interface", "enum", "extends", "implements", "return", "new", "this"}
)

# Call nesting that ``_UNIT`` follows (at least 1); deeper calls are left to
# the parser.
_UNROLL_DEPTH = 2

# An identifier that is not a keyword. Under re.ASCII, ``\b`` and ``\w`` see
# only [A-Za-z0-9_], the tokenizer's identifier characters, so a match starts
# where a token starts.
_NAME = re.compile(r"\b(?!(?:%s)\b)[A-Za-z_]\w*" % "|".join(sorted(KEYWORDS)), re.ASCII)
_BLANKS = str.maketrans("", "", " \t\r\n")


def _expr_rx(depth: int) -> str:
    """An expression whose calls nest at most ``depth`` levels."""
    call = f"(?:{_args_rx(depth)})?" if depth else ""
    return rf"(?:newI\(\)|this|I(?:\.I)*{call})"


def _args_rx(depth: int) -> str:
    """A call's argument list, with the expression written once: each
    argument is followed by a comma that a ')' does not follow, or by ')'."""
    return rf"\((?:{_expr_rx(depth - 1)}(?:,(?!\))|(?=\))))*\)"


def _unit_pattern() -> str:
    """The grammar above over code words: ``I`` for a name, each keyword
    and punctuation token as itself."""
    params = r"\((?:II(?:,II)*)?\)"
    stmt = (
        rf"(?:return|I(?:I|(?:\.I)*)=){_expr_rx(_UNROLL_DEPTH)};|return;"
        rf"|(?:newI\(\)|this);|I(?:\.I)*(?:{_args_rx(_UNROLL_DEPTH)})?;"
    )
    block = rf"\{{(?:{stmt})*\}}"
    member = rf"I(?:I;|I{params};|I?{params}{block})"
    classd = rf"classI(?:extendsI)?(?:implementsI(?:,I)*)?\{{(?:{member})*\}}"
    ifaced = rf"interfaceI\{{(?:II{params};)*\}}"
    enumd = r"enumI\{I(?:,I)*\}"
    return rf"packageI;(?:{classd}|{ifaced}|{enumd})"


_UNIT = re.compile(_unit_pattern())


def check_unit(text: str) -> TextSyntaxError | None:
    """Return None when the text is a valid unit, else its first syntax error."""
    if _UNIT.fullmatch(_NAME.sub("I", text).translate(_BLANKS)):
        return None
    try:
        ts = TokenStream(tokenize(text, _PUNCTS), text)
        _unit(ts)
    except TextSyntaxError as exc:
        return exc
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
