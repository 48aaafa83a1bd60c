"""Shared tokenizer for the small text formats used across the framework.

Feature models, class diagrams, variant specs and the generated target
language share one lexical shape. ``tokenize`` reads it with one master
regular expression whose named groups are tried in this order:

- ``newline``: ends a line; columns count characters from 1 after it;
- ``space``: a run of blanks, tabs and carriage returns;
- ``comment``: ``//`` to the end of the line;
- ``punct``: one of the format's punctuation tokens, longest first, so ``<<``
  is read before ``<``;
- ``ident``: an ASCII identifier, ``[A-Za-z_][A-Za-z0-9_]*``;
- anything else is an ``unexpected character``.

Variant specs (``vsp=True``) add two token kinds. A ``string`` is
double-quoted text in which a backslash escapes any next character; a raw
newline before the closing quote leaves it unterminated. Its value is the
text without quotes and escapes. A ``path`` is the unquoted value after
``model:`` or ``out:``: it runs from the first character that is not blank
or comment to the next ``;``, and is stripped of surrounding whitespace.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple, NoReturn

# Deepest nesting the recursive-descent parsers follow; deeper input is a
# syntax error instead of an exhausted interpreter stack.
MAX_NESTING = 100

# Variant-spec keys whose unquoted value is a path token.
_PATH_KEYS = ("model", "out")

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


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
    line: int
    column: int


@lru_cache(maxsize=None)
def _master(puncts: tuple[str, ...], vsp: bool) -> re.Pattern[str]:
    longest_first = sorted(puncts, key=len, reverse=True)
    groups = [
        ("newline", r"\n"),
        ("space", r"[ \t\r]+"),
        ("comment", r"//[^\n]*"),
        ("string", r'"(?:[^"\\\n]|\\[\s\S])*"' if vsp else r"(?!)"),
        ("punct", "|".join(map(re.escape, longest_first)) or r"(?!)"),
        ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
        ("other", r"[\s\S]"),
    ]
    return re.compile("|".join(f"(?P<{name}>{rx})" for name, rx in groups))


def tokenize(source: str, puncts: tuple[str, ...], *, vsp: bool = False) -> list[Token]:
    """Split source into tokens, ending with one ``eof`` token."""
    match = _master(puncts, vsp).match
    tokens: list[Token] = []
    line, line_start, pos, end = 1, 0, 0, len(source)
    path_next = False
    while pos < end:
        m = match(source, pos)
        kind = m.lastgroup
        stop = m.end()
        if kind == "newline":
            line += 1
            line_start = stop
        elif kind != "space" and kind != "comment":
            column = pos - line_start + 1
            value = m.group()
            if path_next and value[0] != '"':
                kind, stop = "path", source.find(";", pos)
                if stop < 0:
                    raise TextSyntaxError("expected path ending with ';'", line, column)
                value = source[pos:stop].strip()
                if not value or "\n" in value:
                    raise TextSyntaxError("expected path before ';'", line, column)
            elif kind == "string":
                value = _ESCAPE.sub(r"\1", value[1:-1])
            elif kind == "other":
                if vsp and value == '"':
                    raise TextSyntaxError("unterminated string", line, column)
                raise TextSyntaxError(f"unexpected character {value!r}", line, column)
            path_next = (
                vsp and kind == "punct" and value == ":" and len(tokens) > 0
                and tokens[-1].kind == "ident" and tokens[-1].value in _PATH_KEYS
            )
            tokens.append(Token(kind, value, line, column))
            if kind == "string" or kind == "path":  # escaped or trailing newlines
                last = source.rfind("\n", pos, stop)
                if last >= 0:
                    line += source.count("\n", pos, stop)
                    line_start = last + 1
        pos = stop
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


def describe(tok: Token) -> str:
    """How an error message names the token it found."""
    return "end of input" if tok.kind == "eof" else repr(tok.value)


class TokenStream:
    """Cursor over a token list with expect/accept helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_ident(self, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (value is None or tok.value == value)

    def accept_punct(self, value: str) -> Token | None:
        return self.next() if self.at_punct(value) else None

    def accept_ident(self, value: str | None = None) -> Token | None:
        return self.next() if self.at_ident(value) else None

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            self.expected(repr(value))
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.peek().kind != "ident":
            self.expected(what)
        return self.next()

    def expect_name(self, what: str, reserved: frozenset[str]) -> Token:
        """Expect an identifier that is not one of the reserved words."""
        tok = self.expect_ident(what)
        if tok.value in reserved:
            raise TextSyntaxError(f"expected {what}, found keyword {tok.value!r}", tok.line, tok.column)
        return tok

    def expect_keyword(self, value: str) -> Token:
        if not self.at_ident(value):
            self.expected(repr(value))
        return self.next()

    def expected(self, what: str) -> NoReturn:
        self.error(f"expected {what}, found {describe(self.peek())}")

    def error(self, message: str) -> NoReturn:
        tok = self.peek()
        raise TextSyntaxError(message, tok.line, tok.column)
