"""Variant spec files: the batch input for deriving and generating a product.

    variant IDENT "{"
      "model:" path ";"
      "features:" "[" IDENT {"," IDENT} "]" ";"
      { "option" IDENT "." IDENT "=" value ";" }
      { "bind" IDENT "." IDENT "=" quoted-text ";" }
      "mode:" ("generation_time" | "run_time" | "hybrid") ";"
      "out:" path ";"
    "}"

Option values are true, false, a bare word, or quoted text. Paths run to the
closing semicolon and may be quoted; relative paths are resolved against the
spec file's directory when a base directory is supplied.
"""

from __future__ import annotations

import os
import re

from .components import BINDING_MODES, VariantSpec
from .featuremodel import Configuration
from .lexing import TextSyntaxError, TokenStream, tokenize

_PUNCTS = ("{", "}", "[", "]", ":", ";", ",", ".", "=")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_variant_spec(source: str, base_dir: str | None = None) -> VariantSpec:
    """Parse VSP text; with base_dir, resolve relative model and out paths."""
    ts = TokenStream(tokenize(source, _PUNCTS, vsp=True), source)
    ts.expect_keyword("variant")
    name = ts.expect_ident("variant name").value
    ts.expect_punct("{")
    model_path = _path(ts, "model", "model path")
    _key(ts, "features")
    ts.expect_punct("[")
    features = [ts.expect_ident("feature id").value]
    while ts.accept_punct(","):
        features.append(ts.expect_ident("feature id").value)
    ts.expect_punct("]")
    ts.expect_punct(";")
    options = _bindings(ts, "option", "option", quoted_only=False)
    binds = _bindings(ts, "bind", "variation point", quoted_only=True)
    _key(ts, "mode")
    mode = ts.expect_ident("binding mode")
    if mode.value not in BINDING_MODES:
        line, column = ts.position(mode)
        raise TextSyntaxError(f"unknown binding mode {mode.value!r}", line, column + len(mode.value))
    ts.expect_punct(";")
    out_path = _path(ts, "out", "output path")
    ts.expect_punct("}")
    if not ts.at_end():
        ts.error("unexpected trailing input")

    if base_dir:  # os.path.join keeps an absolute path as it is
        model_path = os.path.join(base_dir, model_path)
        out_path = os.path.join(base_dir, out_path)

    return VariantSpec(
        name=name,
        configuration=Configuration.of(*features),
        option_bindings=options,
        vp_bindings=binds,
        mode=mode.value,
        output_path=out_path,
        model_path=model_path,
    )


def _key(ts: TokenStream, key: str) -> None:
    if not ts.accept_ident(key):
        ts.expected(f"'{key}:'")
    ts.expect_punct(":")


def _path(ts: TokenStream, key: str, what: str) -> str:
    """``key: path;`` where the lexer has read the path as one token."""
    _key(ts, key)
    if ts.peek().kind not in ("path", "string"):
        ts.expected(what)
    path = ts.next().value
    ts.expect_punct(";")
    return path


def _bindings(ts: TokenStream, keyword: str, what: str, quoted_only: bool) -> dict:
    """``{keyword IDENT "." IDENT "=" value ";"}``, each key bound once."""
    bound = {}
    while ts.accept_ident(keyword):
        comp = ts.expect_ident("component id").value
        ts.expect_punct(".")
        key = f"{comp}.{ts.expect_ident(f'{what} name').value}"
        ts.expect_punct("=")
        if ts.peek().kind == "string":
            value = ts.next().value
        elif quoted_only:
            ts.expected("quoted binding text")
        else:
            word = ts.expect_ident("option value").value
            value = {"true": True, "false": False}.get(word, word)
        end = ts.expect_punct(";")
        if key in bound:
            line, column = ts.position(end)
            raise TextSyntaxError(f"{what} {key!r} bound twice", line, column + 1)
        bound[key] = value
    return bound


def format_variant_spec(spec: VariantSpec) -> str:
    """Render a spec back to VSP text that parses to an equal spec."""
    lines = [f"variant {spec.name} {{"]
    lines.append(f"  model: {_path_text(spec.model_path or '')};")
    lines.append("  features: [" + ", ".join(sorted(spec.configuration.selected)) + "];")
    for key in sorted(spec.option_bindings):
        value = spec.option_bindings[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, str) and _WORD.fullmatch(value) and value not in ("true", "false"):
            text = value
        else:
            text = _quoted(str(value))
        lines.append(f"  option {key} = {text};")
    for key in sorted(spec.vp_bindings):
        lines.append(f"  bind {key} = {_quoted(spec.vp_bindings[key])};")
    lines.append(f"  mode: {spec.mode};")
    lines.append(f"  out: {_path_text(spec.output_path)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quoted(text: str) -> str:
    return '"' + re.sub(r'([\\"\n])', r"\\\1", text) + '"'


def _path_text(path: str) -> str:
    """A path bare where it reads back the same, else quoted."""
    bare = path and path == path.strip() and ";" not in path and "\n" not in path
    return path if bare and not path.startswith(('"', "//")) else _quoted(path)
