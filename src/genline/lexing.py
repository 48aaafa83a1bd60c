"""Shared tokenizer for the small text formats used across the framework.

All formats (feature models, class diagrams, variant specs, and the generated
target language) share the same lexical shape: identifiers, a fixed set of
punctuation tokens, optional double-quoted strings, and // line comments.
"""

from __future__ import annotations

from dataclasses import dataclass

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")

# Deepest nesting the recursive-descent parsers follow; deeper input is a
# syntax error instead of an exhausted interpreter stack.
MAX_NESTING = 100


class TextSyntaxError(Exception):
    """Syntax error in one of the text formats, carrying a source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "punct" | "string" | "eof"
    value: str
    line: int
    column: int


def tokenize(source: str, puncts: tuple[str, ...], *, strings: bool = False) -> list[Token]:
    """Split source into tokens; longest punctuation match wins."""
    ordered = sorted(puncts, key=len, reverse=True)
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if strings and ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf: list[str] = []
            while i < n and source[i] != '"':
                c = source[i]
                if c == "\n":
                    raise TextSyntaxError("unterminated string", start_line, start_col)
                if c == "\\" and i + 1 < n and source[i + 1] in '\\"':
                    buf.append(source[i + 1])
                    i += 2
                    col += 2
                    continue
                buf.append(c)
                i += 1
                col += 1
            if i >= n:
                raise TextSyntaxError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            continue
        matched = None
        for p in ordered:
            if source.startswith(p, i):
                matched = p
                break
        if matched is not None:
            tokens.append(Token("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch in _IDENT_START:
            start_line, start_col = line, col
            j = i
            while j < n and source[j] in _IDENT_CONT:
                j += 1
            tokens.append(Token("ident", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        raise TextSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with expect/accept helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

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
            self.error(f"expected {value!r}, found {self._describe(self.peek())}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.peek().kind != "ident":
            self.error(f"expected {what}, found {self._describe(self.peek())}")
        return self.next()

    def expect_keyword(self, value: str) -> Token:
        if not self.at_ident(value):
            self.error(f"expected {value!r}, found {self._describe(self.peek())}")
        return self.next()

    def error(self, message: str) -> None:
        tok = self.peek()
        raise TextSyntaxError(message, tok.line, tok.column)

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return repr(tok.value)
