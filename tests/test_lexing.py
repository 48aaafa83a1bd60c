from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genline import classdiagram, featuremodel, ootl, vsp
from genline.classdiagram import parse_class_diagram
from genline.featuremodel import parse_feature_model
from genline.lexing import TextSyntaxError, TokenStream, _master, tokenize
from genline.ootl import check_unit
from genline.vsp import parse_variant_spec

from helpers import reference_tokenize

# (source, puncts, vsp, tokens as (kind, value, line, column) or the error
# as (message, line, column))
CASES = {
    "tabs count one column": (
        "a\tbc\t;", (";",), False,
        [("ident", "a", 1, 1), ("ident", "bc", 1, 3), ("punct", ";", 1, 6), ("eof", "", 1, 7)],
    ),
    "crlf ends a line": (
        "a\r\nb", (), False,
        [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 2, 2)],
    ),
    "longest punctuation first": (
        "<<<>>>", ("<", ">", "<<", ">>"), False,
        [("punct", "<<", 1, 1), ("punct", "<", 1, 3), ("punct", ">>", 1, 4),
         ("punct", ">", 1, 6), ("eof", "", 1, 7)],
    ),
    "identifiers are ascii": ("café", (), False, ("unexpected character 'é'", 1, 4)),
    "digits cannot start an identifier": ("a1 1a", (), False, ("unexpected character '1'", 1, 4)),
    "unterminated string": ('x = "abc\n"', ("=",), True, ("unterminated string", 1, 5)),
    "quotes only in variant specs": ('"a"', (), False, ("unexpected character '\"'", 1, 1)),
    # The column of end of input counts the characters of a trailing comment.
    "end of input after a comment": ("a // note", (), False, [("ident", "a", 1, 1), ("eof", "", 1, 10)]),
    "comment to the end of its line": (
        "a // b\n// c\nd", (), False, [("ident", "a", 1, 1), ("ident", "d", 3, 1), ("eof", "", 3, 2)],
    ),
    "escapes in quoted text": (
        r'"a\"b\\c\nd" x', (), True, [("string", 'a"b\\cnd', 1, 1), ("ident", "x", 1, 14), ("eof", "", 1, 15)],
    ),
    "escaped newline in quoted text": (
        '"a\\\nb" x', (), True, [("string", "a\nb", 1, 1), ("ident", "x", 2, 4), ("eof", "", 2, 5)],
    ),
    "path after model and out": (
        "model: a b//c.d ;out:\n  // note\n  ../~o-1\n;", (":", ";"), True,
        [("ident", "model", 1, 1), ("punct", ":", 1, 6), ("path", "a b//c.d", 1, 8),
         ("punct", ";", 1, 17), ("ident", "out", 1, 18), ("punct", ":", 1, 21),
         ("path", "../~o-1", 3, 3), ("punct", ";", 4, 1), ("eof", "", 4, 2)],
    ),
    "quoted path": (
        'out: "a;b";', (":", ";"), True,
        [("ident", "out", 1, 1), ("punct", ":", 1, 4), ("string", "a;b", 1, 6),
         ("punct", ";", 1, 11), ("eof", "", 1, 12)],
    ),
    "no path after other keys": (
        "mode: m;", (":", ";"), True,
        [("ident", "mode", 1, 1), ("punct", ":", 1, 5), ("ident", "m", 1, 7),
         ("punct", ";", 1, 8), ("eof", "", 1, 9)],
    ),
    "path without semicolon": ("out: o }", (":",), True, ("expected path ending with ';'", 1, 6)),
    "path over two lines": ("out: a\nb;", (":", ";"), True, ("expected path before ';'", 1, 6)),
    "empty path": ("model:\n;", (":", ";"), True, ("expected path before ';'", 2, 1)),
}


@pytest.mark.parametrize("source, puncts, vsp, expected", CASES.values(), ids=CASES.keys())
def test_tokenize(source, puncts, vsp, expected):
    if isinstance(expected, list):
        assert _positioned(source, puncts, vsp) == expected
    else:
        with pytest.raises(TextSyntaxError) as err:
            tokenize(source, puncts, vsp=vsp)
        assert (err.value.message, err.value.line, err.value.column) == expected


def _positioned(source, puncts, vsp):
    """Tokens as (kind, value, line, column), positions through the stream."""
    tokens = tokenize(source, puncts, vsp=vsp)
    stream = TokenStream(tokens, source)
    return [(tok.kind, tok.value, *stream.position(tok)) for tok in tokens]


# Text that looks like the formats often enough to get past their first token.
_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.sampled_from([
            "featuremodel", "classdiagram", "variant", "package", "class", "interface", "enum",
            "model:", "out:", "mode:", "features:", "hybrid", "option", "bind", "A", "b1",
            "{", "}", "(", ")", "[", "]", "<<", ">>", "!", "?", ";", ",", ".", "=", ":",
            '"', "\\", "//", " ", "\n", "\t", "é", "$",
        ]),
        max_size=40,
    ).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(_TEXT)
def test_any_text_is_a_syntax_error_or_a_result(text):
    for parse in (parse_feature_model, parse_class_diagram, parse_variant_spec):
        try:
            parse(text)
        except TextSyntaxError:
            pass
    result = check_unit(text)
    assert result is None or isinstance(result, TextSyntaxError)


# Every format's punctuation set, and variant specs' with their strings and paths.
_LEXICONS = (
    (ootl._PUNCTS, False),
    (classdiagram._PUNCTS, False),
    (featuremodel._PUNCTS, False),
    (vsp._PUNCTS, True),
)

# Every lexical shape: each kind of blank and line end, comments, quotes and
# escapes, the path keys, and every format's punctuation.
_LEXICAL_TEXT = st.one_of(
    _TEXT,
    st.lists(
        st.sampled_from([
            "model", "out", "mode", "a", "_b9", "9", ":", ";", "<<", ">>", "<", ">", "{", "}",
            "(", ")", "[", "]", "!", "?", ",", ".", "=", '"', "\\", '\\"', "/", "//",
            " ", "\t", "\r", "\n", "\r\n", "é", "\x0c", "\u2028",
        ]),
        max_size=40,
    ).map("".join),
)


@settings(max_examples=500, deadline=None)
@given(_LEXICAL_TEXT)
def test_positions_match_the_loop_that_tracks_them(text):
    for puncts, is_vsp in _LEXICONS:
        try:
            expected = reference_tokenize(text, puncts, is_vsp)
        except TextSyntaxError as err:
            with pytest.raises(TextSyntaxError) as got:
                tokenize(text, puncts, vsp=is_vsp)
            assert (got.value.message, got.value.line, got.value.column) == (
                err.message, err.line, err.column
            )
        else:
            assert _positioned(text, puncts, is_vsp) == expected


# About 1 MB of blanks, CRLF line ends and comment lines: 90,000 newlines,
# then a last comment that ends the input on line 90,001 at column 7.
_FILLER = " \t\r\n// a comment line\r\n" * 45_000 + "// end"


def test_a_megabyte_of_trailing_blanks_and_comments_is_skipped_in_one_pass():
    # A skip that backtracks, or restarts at every offset of the trailing run,
    # would not finish on this input.
    unit = "package p;\nclass C {\n  int x;\n}\n"
    assert check_unit(unit + _FILLER) is None
    err = check_unit(unit[:-2] + _FILLER)
    assert (err.message, err.line, err.column) == (
        "expected member type or constructor name, found end of input", 90_004, 7
    )

    diagram = "classdiagram D {\n  class C {\n    x: int;\n  }\n}\n"
    assert [c.name for c in parse_class_diagram(diagram + _FILLER).classes()] == ["C"]
    with pytest.raises(TextSyntaxError) as err:
        parse_class_diagram(diagram[:-2] + _FILLER)
    assert (err.value.message, err.value.line, err.value.column) == (
        "expected 'class', 'interface' or 'enum', found end of input", 90_005, 7
    )


def _opcodes(node):
    if isinstance(node, re._parser.SubPattern):
        for op, arg in node:
            yield op
            yield from _opcodes(arg)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item)


@pytest.mark.skipif(not hasattr(re, "_parser"), reason="re._parser is Python 3.11+")
def test_master_patterns_compile_on_python_3_10():
    # Possessive quantifiers and atomic groups need Python 3.11; genline
    # supports 3.10, where such a pattern fails to compile.
    newer = {re._constants.POSSESSIVE_REPEAT, re._constants.ATOMIC_GROUP}
    for puncts, is_vsp in _LEXICONS:
        parsed = re._parser.parse(_master(puncts, is_vsp).pattern)
        assert not newer & set(_opcodes(parsed))
