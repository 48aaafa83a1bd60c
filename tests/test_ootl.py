from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from genline import ootl
from genline.lexing import MAX_NESTING, TextSyntaxError, TokenStream, tokenize
from genline.ootl import KEYWORDS, check_unit

from helpers import parser_never_runs

VALID_UNITS = [
    "package P;\nclass A {\n}\n",
    "package P;\nclass A extends B {\n  int x;\n}\n",
    "package P;\nclass A extends B implements I, J {\n  string name;\n}\n",
    # Constructor, typed method with body, bodyless (abstract-style) method.
    "package P;\nclass A {\n  A() { }\n  int get(int a, boolean b) { return a; }\n  void stub();\n}\n",
    # Statements: local declaration, assignment, call, return, bare expression.
    (
        "package P;\n"
        "class A {\n"
        "  B b;\n"
        "  void run(B other) {\n"
        "    B local = new B();\n"
        "    local.x = other;\n"
        "    b = local;\n"
        "    local.ping();\n"
        "    b.take(local, other.y);\n"
        "    return;\n"
        "  }\n"
        "  A give() { return this; }\n"
        "}\n"
    ),
    "package P;\ninterface I {\n  int size();\n  void fill(string s, int n);\n}\n",
    "package P;\nenum E {\n  A,\n  B,\n  C\n}\n",
    "package P;\nenum E { ONLY }\n",
    # Chained field paths as lvalues and call receivers.
    "package P;\nclass A {\n  void f() {\n    a.b.c = d.e;\n    a.b.c.run(x.y);\n  }\n}\n",
]

INVALID_UNITS = [
    ("class A { }", "package", 1, 1),
    ("package P;\n", "", 2, 1),  # missing type declaration
    ("package P;\nclass A {", "", 2, 10),  # unbalanced brace at end of input
    ("package P;\nclass A { @@ }\n", "'@'", 2, 11),
    ("package P;\nclass A { } extra\n", "trailing", 2, 13),
    ("package P;\nclass A {\n  int x\n}\n", "';' or '('", 4, 1),
    ("package P;\nclass A {\n  void f() { x = 5; }\n}\n", "'5'", 3, 18),
    ("package P;\nclass A {\n  void f() { this.x = y; }\n}\n", "';'", 3, 18),
    ("package P;\nclass A {\n  void f() { int x; }\n}\n", "'='", 3, 19),
    ("package P;\nenum E { }\n", "", 2, 10),  # enums need at least one constant
    ("package P;\nclass A extends { }\n", "", 2, 17),
    ("package P;\ninterface I { void f() { } }\n", "';'", 2, 24),
]


def test_valid_units_pass():
    for text in VALID_UNITS:
        assert check_unit(text) is None, text


def test_invalid_units_report_positions():
    for text, fragment, line, column in INVALID_UNITS:
        result = check_unit(text)
        assert result is not None, text
        message, got_line, got_column = result.message, result.line, result.column
        assert fragment in message, (text, message)
        assert (got_line, got_column) == (line, column), (text, message, got_line, got_column)


def test_keywords_cannot_name_types():
    assert check_unit("package P;\nclass class { }\n") is not None
    assert check_unit("package class;\nclass A { }\n") is not None


def test_this_is_not_an_lvalue_root():
    # `this` may appear alone or as a returned expression, not as an
    # assignment target.
    assert check_unit("package P;\nclass A {\n  A me() { return this; }\n}\n") is None
    assert check_unit("package P;\nclass A {\n  void f() { this = x; }\n}\n") is not None


def test_error_is_first_failure():
    result = check_unit("package P;\nclass A {\n  int 1x;\n}\n")
    assert result is not None
    assert result.line == 3


# ---------------------------------------------------------------------------
# The pattern and the parser decide alike


def _parsed(text):
    """The parser path alone, tokenize and ``_unit``: the oracle for check_unit."""
    try:
        ootl._unit(TokenStream(tokenize(text, ootl._PUNCTS), text))
    except TextSyntaxError as exc:
        return exc.message, exc.line, exc.column
    return None


def _checked(text):
    result = check_unit(text)
    return None if result is None else (result.message, result.line, result.column)


_NAMES = st.sampled_from(["I", "x", "newx", "x1", "int", "Person", "_v"])
_SOUP = [
    *sorted(KEYWORDS), "I", "newx", "x1", "int", *ootl._PUNCTS,
    " ", "\t", "\n", "\r\n", "// note\n", "//", "\x0c", "é", "/", "1", "0x",
]
# What comes before each token of a rendered unit, and what may end it; the
# mutations also join tokens with nothing, which merges neighbouring words.
# Generated code holds no comments, so a unit that must take the fast path is
# rendered with blanks alone.
_BLANKS = [" ", "\n", "\t", "\r\n"]
_BLANKS_AND_COMMENTS = [*_BLANKS, " // note\n"]
_ENDS = ["", "\n"]
_ENDS_AND_COMMENTS = [*_ENDS, " // end"]
# Prefixes that take a soup of tokens past the first rules of the grammar.
_START = ["", "package p;", "package p; class C {", "package p; class C { void f() {",
          "package p; class C { void f() { x = f(", "package p; interface I {"]


def _joined(parts, sep=","):
    """Token lists joined by one separator token."""
    out = []
    for i, part in enumerate(parts):
        out += ([sep] if i else []) + part
    return out


def _names():
    return st.lists(_NAMES.map(lambda name: [name]), min_size=1, max_size=3)


@st.composite
def _expr(draw, depth):
    """An expression whose calls nest at most ``depth`` levels."""
    kind = draw(st.sampled_from(["this", "new", "lval", "call"][: 4 if depth else 3]))
    if kind == "this":
        return ["this"]
    if kind == "new":
        return ["new", draw(_NAMES), "(", ")"]
    lval = _joined(draw(_names()), ".")
    return lval + draw(_args(depth)) if kind == "call" else lval


@st.composite
def _args(draw, depth):
    return ["(", *_joined(draw(st.lists(_expr(depth - 1), max_size=3))), ")"]


@st.composite
def _stmt(draw, depth):
    lval = _joined(draw(_names()), ".")
    expr = draw(_expr(depth))
    return draw(st.sampled_from([
        ["return", ";"], ["return", *expr, ";"], ["this", ";"], ["new", "x", "(", ")", ";"],
        [draw(_NAMES), draw(_NAMES), "=", *expr, ";"], [*lval, "=", *expr, ";"], [*lval, ";"],
        [*lval, *draw(_args(depth)), ";"],
    ]))


@st.composite
def _block(draw, depth):
    return ["{", *sum(draw(st.lists(_stmt(depth), max_size=4)), []), "}"]


@st.composite
def _params(draw):
    return ["(", *_joined(draw(st.lists(st.lists(_NAMES, min_size=2, max_size=2), max_size=3))), ")"]


@st.composite
def _member(draw, depth, kinds=("field", "constructor", "method", "bodyless")):
    kind, name, params = draw(st.sampled_from(kinds)), draw(_NAMES), draw(_params())
    if kind == "field":
        return [draw(_NAMES), name, ";"]
    if kind == "constructor":
        return [name, *params, *draw(_block(depth))]
    return [draw(_NAMES), name, *params, *(draw(_block(depth)) if kind == "method" else [";"])]


@st.composite
def _valid_unit(draw, depth):
    """The tokens of a unit the grammar derives, its calls nested at most ``depth`` deep."""
    kind, name = draw(st.sampled_from(["class", "interface", "enum"])), draw(_NAMES)
    head = [kind, name]
    if kind == "class":
        if draw(st.booleans()):
            head += ["extends", draw(_NAMES)]
        if draw(st.booleans()):
            head += ["implements", *_joined(draw(_names()))]
        body = sum(draw(st.lists(_member(depth), max_size=4)), [])
    elif kind == "interface":
        body = sum(draw(st.lists(_member(depth, ("bodyless",)), max_size=3)), [])
    else:
        body = _joined(draw(_names()))
    return ["package", draw(_NAMES), ";", *head, "{", *body, "}"]


@st.composite
def _rendered(draw, tokens, blanks=_BLANKS_AND_COMMENTS, ends=_ENDS_AND_COMMENTS):
    """Tokens, each after a separator drawn from ``blanks``, then one of ``ends``."""
    tokens = draw(tokens)
    seps = draw(st.lists(st.sampled_from(blanks), min_size=len(tokens), max_size=len(tokens)))
    return "".join(sep + tok for sep, tok in zip(seps, tokens)) + draw(st.sampled_from(ends))


@st.composite
def _mutated(draw):
    """A valid unit, its calls nested up to two levels past the unroll depth,
    with one token deleted, inserted or replaced."""
    tokens = draw(_valid_unit(ootl._UNROLL_DEPTH + 2))
    i = draw(st.integers(0, len(tokens) - 1))
    other = draw(st.sampled_from(_SOUP))
    tokens = draw(st.sampled_from([
        tokens[:i] + tokens[i + 1:], tokens[:i] + [other] + tokens[i:], tokens[:i] + [other] + tokens[i + 1:],
    ]))
    return draw(_rendered(st.just(tokens), ["", *_BLANKS_AND_COMMENTS]))


_SOUP_TEXT = st.tuples(st.sampled_from(_START), st.lists(st.sampled_from(_SOUP), max_size=30)).map(
    lambda t: t[0] + "".join(t[1])
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_SOUP_TEXT, _mutated(), _rendered(_valid_unit(ootl._UNROLL_DEPTH + 2))))
def test_check_unit_decides_as_the_parser_does(text):
    assert _checked(text) == _parsed(text)


@settings(max_examples=300, deadline=None)
@given(_rendered(_valid_unit(ootl._UNROLL_DEPTH), _BLANKS, _ENDS))
def test_a_unit_within_the_unroll_depth_never_reaches_the_parser(text):
    with parser_never_runs():
        assert check_unit(text) is None


# Every token kind, and characters the tokenizer refuses.
_VOCABULARY = [*sorted(KEYWORDS), "x", *ootl._PUNCTS, "1", "é", "\x0c", "/"]


def test_every_one_token_change_of_a_valid_unit_is_decided_as_the_parser_does():
    # Each valid unit with one token deleted, inserted or replaced, at every
    # position: among these are a constructor with no body and a call with
    # a trailing comma, which random texts seldom hit.
    nested = "package P;\nclass A {\n  A() { f(g(h(x)), new B()); y = f(g(this)); }\n}\n"
    for unit in VALID_UNITS + [nested]:
        tokens = [tok.value for tok in tokenize(unit, ootl._PUNCTS)[:-1]]
        for i in range(len(tokens) + 1):
            changed = [tokens[:i] + [word] + tokens[i:] for word in _VOCABULARY]
            if i < len(tokens):
                changed.append(tokens[:i] + tokens[i + 1:])
                changed += [tokens[:i] + [word] + tokens[i + 1:] for word in _VOCABULARY]
            for variant in changed:
                text = " ".join(variant)
                assert _checked(text) == _parsed(text), text


def test_a_stray_token_after_many_members_gets_the_parsers_error():
    # Backtracking that grew with the square of the unit's length would not
    # finish on 50,000 members.
    members = "  int x;\n" * 50_000
    text = "package p;\nclass C {\n" + members + "  ;\n}\n"
    assert _checked(text) == _parsed(text) == (
        "expected member type or constructor name, found ';'", 50_003, 3
    )


def test_calls_nest_as_deep_as_the_parser_allows_and_no_deeper():
    def unit(depth):
        return "package p;\nclass C {\n  C() { " + "f(" * depth + ")" * depth + "; }\n}\n"

    assert check_unit(unit(MAX_NESTING)) is None
    assert _checked(unit(MAX_NESTING + 1)) == (
        f"calls nested deeper than {MAX_NESTING} levels", 3, 10 + 2 * MAX_NESTING
    )
