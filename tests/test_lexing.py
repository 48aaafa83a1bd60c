from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genline.classdiagram import parse_class_diagram
from genline.featuremodel import parse_feature_model
from genline.lexing import TextSyntaxError, tokenize
from genline.ootl import check_unit
from genline.vsp import parse_variant_spec

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
        assert tokenize(source, puncts, vsp=vsp) == expected
    else:
        with pytest.raises(TextSyntaxError) as err:
            tokenize(source, puncts, vsp=vsp)
        assert (err.value.message, err.value.line, err.value.column) == expected


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
