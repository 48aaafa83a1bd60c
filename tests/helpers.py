"""Shared fixtures-in-spirit: covering input model, variant plumbing, dir diffing,
and the oracles that enumeration and the tokenizer are checked against."""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from genline import (
    ClassDiagram,
    Configuration,
    FeatureModel,
    GeneratorComponent,
    VariantSpec,
    compose_all,
    generate,
    parse_class_diagram,
    reference_components,
    reference_feature_model,
    resolve_components,
    validate_composition,
)
from genline.components import build_registry
from genline.composition import ComposedGenerator
from genline.lexing import TextSyntaxError

ALL_FEATURES = (
    "CD2Java",
    "Types",
    "Class",
    "Enum",
    "Interface",
    "DefaultConstructor",
    "Builder",
    "Factory",
)

OPTIONAL_FEATURES = ("Enum", "Interface", "DefaultConstructor", "Builder", "Factory")

# Two plain classes, one subclass implementing an interface, one enum, and
# both known tags, so every feature and guard rule has something to act on.
COVERING_CDL = """\
classdiagram Shop {
  <<external>> class Person {
    name: string;
    age: int;
  }
  <<nobuilder>> class Receipt {
    total: int;
  }
  class Manager extends Person implements Printable {
    level: int;
  }
  interface Printable {
    print(): string;
  }
  enum Color {
    RED, GREEN, BLUE
  }
}
"""


def covering_diagram() -> ClassDiagram:
    return parse_class_diagram(COVERING_CDL)


def restrict_diagram(diagram: ClassDiagram, selected: frozenset[str], mode: str) -> ClassDiagram:
    """Strip constructs the feature guard would reject under this variant."""
    types = []
    for decl in diagram.types:
        kind = type(decl).__name__
        if kind == "EnumDecl" and "Enum" not in selected:
            continue
        if kind == "InterfaceDecl" and "Interface" not in selected:
            continue
        if kind == "ClassDecl":
            tags = decl.tags
            if "Builder" not in selected:
                tags = tuple(t for t in tags if t != "nobuilder")
            if mode != "hybrid":
                tags = tuple(t for t in tags if t != "external")
            interfaces = decl.interfaces if "Interface" in selected else ()
            decl = replace(decl, tags=tags, interfaces=interfaces)
        types.append(decl)
    return ClassDiagram(name=diagram.name, types=tuple(types))


def make_spec(
    selected,
    out_dir,
    mode: str = "generation_time",
    options: dict | None = None,
    binds: dict | None = None,
    name: str = "test",
) -> VariantSpec:
    return VariantSpec(
        name=name,
        configuration=Configuration(frozenset(selected)),
        option_bindings=options or {},
        vp_bindings=binds or {},
        mode=mode,
        output_path=str(out_dir),
    )


def compose_reference(
    selected, extra: tuple[GeneratorComponent, ...] = ()
) -> ComposedGenerator:
    model = reference_feature_model()
    registry = build_registry(reference_components() + tuple(extra), model)
    components = resolve_components(Configuration(frozenset(selected)), registry)
    return compose_all(components)


def derive_and_generate(selected, diagram: ClassDiagram, spec: VariantSpec):
    """Full derivation: returns (report, files) or (None, None) when the
    composition is invalid for this variant."""
    composed = compose_reference(selected)
    if not validate_composition(composed, spec).valid:
        return None, None
    report = generate(composed, diagram, spec)
    assert report.ok, report.violations
    return report, read_tree(spec.output_path)


def iter_subsets(model: FeatureModel) -> Iterator[Configuration]:
    """All subsets of the model's features, in lexicographic id order: the
    brute-force oracle for enumeration."""
    ids = model.feature_ids()
    for mask in range(1 << len(ids)):
        yield Configuration(frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1))


def read_tree(root) -> dict[str, bytes]:
    """Every file under root, keyed by relative path; {} if root is missing."""
    base = Path(root)
    if not base.exists():
        return {}
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*"))
        if p.is_file()
    }


def artifact_map(root) -> dict[str, bytes]:
    """Like read_tree but only the generated target-language artifacts."""
    return {path: data for path, data in read_tree(root).items() if path.endswith(".oo")}


def reference_tokenize(source: str, puncts: tuple[str, ...], vsp: bool = False) -> list[tuple]:
    """The tokenizer loop that tracks line and column as it goes: the oracle
    for ``genline.lexing.tokenize`` and its positions on demand. Returns
    (kind, value, line, column) tuples, ending with ``eof``, or raises the
    same ``TextSyntaxError``."""
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
    match = re.compile("|".join(f"(?P<{name}>{rx})" for name, rx in groups)).match
    tokens: list[tuple] = []
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
                value = re.sub(r"\\(.)", r"\1", value[1:-1], flags=re.DOTALL)
            elif kind == "other":
                if vsp and value == '"':
                    raise TextSyntaxError("unterminated string", line, column)
                raise TextSyntaxError(f"unexpected character {value!r}", line, column)
            path_next = (
                vsp and kind == "punct" and value == ":" and len(tokens) > 0
                and tokens[-1][0] == "ident" and tokens[-1][1] in ("model", "out")
            )
            tokens.append((kind, value, line, column))
            if kind == "string" or kind == "path":  # escaped or trailing newlines
                last = source.rfind("\n", pos, stop)
                if last >= 0:
                    line += source.count("\n", pos, stop)
                    line_start = last + 1
        pos = stop
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens
