"""Shared tokenizer for the small text formats used across the framework.

Feature models, class diagrams, variant specs and the generated target
language share one lexical shape. ``tokenize`` reads it with one master
regular expression. Each match first skips any run of blanks, tabs, carriage
returns, newlines and ``//`` comments (to the end of the line), then reads
one token from these named groups, tried in this order:

- ``punct``: one of the format's punctuation tokens, longest first, so ``<<``
  is read before ``<``;
- ``ident``: an ASCII identifier, ``[A-Za-z_][A-Za-z0-9_]*``;
- ``other``: any other character, which is an ``unexpected character``.

A token carries its start offset in the source, not a line and column.
``TokenStream.position`` computes those on demand, for an error or a
declaration a parser records: lines are ended by ``\\n``, and columns count
characters from 1 after it, so a tab or a ``\\r`` is one column.

Variant specs (``vsp=True``) add two token kinds. A ``string`` is
double-quoted text in which a backslash escapes any next character; a raw
newline before the closing quote leaves it unterminated. Its value is the
text without quotes and escapes. A ``path`` is the unquoted value after
``model:`` or ``out:``: it runs from the first character that is not blank
or comment to the next ``;``, and is stripped of surrounding whitespace.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import lru_cache, partial
from typing import NamedTuple, NoReturn

# Deepest nesting the recursive-descent parsers follow; deeper input is a
# syntax error instead of an exhausted interpreter stack.
MAX_NESTING = 100

# Variant-spec keys whose unquoted value is a path token.
_PATH_KEYS = ("model", "out")

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_NEWLINE = re.compile(r"\n")


class TextSyntaxError(Exception):
    """Syntax error in one of the text formats, carrying a source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str  # "ident" | "punct" | "string" | "path" | "eof"
    value: str
    start: int  # offset in the source


# Builds a Token from a (kind, value, start) tuple with no Python-level call,
# so the tokenizer's cost stays in C.
_as_token = partial(tuple.__new__, Token)


@lru_cache(maxsize=None)
def _master(puncts: tuple[str, ...], vsp: bool) -> re.Pattern[str]:
    longest_first = sorted(puncts, key=len, reverse=True)
    groups = [
        ("string", r'"(?:[^"\\\n]|\\[\s\S])*"' if vsp else r"(?!)"),
        ("punct", "|".join(map(re.escape, longest_first)) or r"(?!)"),
        ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
        ("other", r"[^ \t\r\n]"),
    ]
    # The skip prefix reads blanks, then each comment with the blanks after it.
    # The token is optional, so a match never fails and the prefix is never
    # backtracked into, with no possessive quantifier (``re`` has none before
    # Python 3.11); blanks at the end of the source are one match with no
    # group, not a failed match retried at every offset.
    token = "|".join(f"(?P<{name}>{rx})" for name, rx in groups)
    return re.compile(rf"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*(?:{token})?")


def tokenize(source: str, puncts: tuple[str, ...], *, vsp: bool = False) -> list[Token]:
    """Split source into tokens, ending with one ``eof`` token."""
    if vsp:
        return _tokenize_vsp(source, puncts)
    # Only the last match or two, over trailing blanks, has no token. Each
    # token is built as its match is read, so no second list of tuples is held.
    tokens = [
        _as_token((kind, m[kind], m.start(kind)))
        for m in _master(puncts, False).finditer(source)
        if (kind := m.lastgroup)
    ]
    for kind, value, start in tokens:
        if kind == "other":
            raise TextSyntaxError(f"unexpected character {value!r}", *_position(source, start))
    tokens.append(Token("eof", "", len(source)))
    return tokens


def _tokenize_vsp(source: str, puncts: tuple[str, ...]) -> list[Token]:
    """The variant-spec tokenizer: strings, and a path after ``model:``/``out:``."""
    match = _master(puncts, True).match
    tokens: list[Token] = []
    pos = 0
    path_next = False
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        if kind is None:  # only blanks and comments were left
            break
        start, pos = m.span(kind)
        value = m[kind]
        if path_next and value[0] != '"':
            kind, pos = "path", source.find(";", start)
            if pos < 0:
                raise TextSyntaxError("expected path ending with ';'", *_position(source, start))
            value = source[start:pos].strip()
            if not value or "\n" in value:
                raise TextSyntaxError("expected path before ';'", *_position(source, start))
        elif kind == "string":
            value = _ESCAPE.sub(r"\1", value[1:-1])
        elif kind == "other":
            message = "unterminated string" if value == '"' else f"unexpected character {value!r}"
            raise TextSyntaxError(message, *_position(source, start))
        path_next = (
            kind == "punct" and value == ":" and len(tokens) > 0
            and tokens[-1].kind == "ident" and tokens[-1].value in _PATH_KEYS
        )
        tokens.append(Token(kind, value, start))
    tokens.append(Token("eof", "", len(source)))
    return tokens


def _newlines(source: str) -> list[int]:
    return [m.start() for m in _NEWLINE.finditer(source)]


def _line_column(newlines: list[int], offset: int) -> tuple[int, int]:
    """(line, column) of an offset, from the sorted offsets of the newlines."""
    line = bisect_right(newlines, offset)
    return line + 1, offset - (newlines[line - 1] if line else -1)


def _position(source: str, offset: int) -> tuple[int, int]:
    return _line_column(_newlines(source), offset)


def describe(tok: Token) -> str:
    """How an error message names the token it found."""
    return "end of input" if tok.kind == "eof" else repr(tok.value)


class TokenStream:
    """Cursor over a token list with expect/accept helpers.

    Positions are computed from the source only when asked for: by an error,
    or by ``position`` for a declaration a parser records.
    """

    def __init__(self, tokens: list[Token], source: str):
        self._tokens = tokens
        self._pos = 0
        self._source = source
        self._newlines: list[int] | None = None

    def position(self, tok: Token) -> tuple[int, int]:
        """The (line, column) at which a token starts."""
        if self._newlines is None:
            self._newlines = _newlines(self._source)
        return _line_column(self._newlines, tok.start)

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at_end(self) -> bool:
        return self._tokens[self._pos].kind == "eof"

    def at_punct(self, value: str) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == "punct" and tok.value == value

    def at_ident(self, value: str | None = None) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == "ident" and (value is None or tok.value == value)

    def accept_punct(self, value: str) -> Token | None:
        tok = self._tokens[self._pos]
        if tok.kind == "punct" and tok.value == value:
            self._pos += 1
            return tok
        return None

    def accept_ident(self, value: str | None = None) -> Token | None:
        tok = self._tokens[self._pos]
        if tok.kind == "ident" and (value is None or tok.value == value):
            self._pos += 1
            return tok
        return None

    def expect_punct(self, value: str) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "punct" or tok.value != value:
            self.expected(repr(value))
        self._pos += 1
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "ident":
            self.expected(what)
        self._pos += 1
        return tok

    def expect_name(self, what: str, reserved: frozenset[str]) -> Token:
        """Expect an identifier that is not one of the reserved words."""
        tok = self._tokens[self._pos]
        if tok.kind != "ident":
            self.expected(what)
        if tok.value in reserved:
            message = f"expected {what}, found keyword {tok.value!r}"
            raise TextSyntaxError(message, *self.position(tok))
        self._pos += 1
        return tok

    def expect_keyword(self, value: str) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "ident" or tok.value != value:
            self.expected(repr(value))
        self._pos += 1
        return tok

    def expected(self, what: str) -> NoReturn:
        self.error(f"expected {what}, found {describe(self._tokens[self._pos])}")

    def error(self, message: str) -> NoReturn:
        raise TextSyntaxError(message, *self.position(self._tokens[self._pos]))
