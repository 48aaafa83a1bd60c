"""Shared fixtures-in-spirit: covering input model, variant plumbing, dir diffing."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from genline import (
    ClassDiagram,
    Configuration,
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
