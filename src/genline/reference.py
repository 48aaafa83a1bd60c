"""The built-in class-diagram-to-code product line.

Five components over the built-in feature model:

  CoreFrontEnd   always on; contributes the core context conditions and
                 rejects names that are keywords of the target language.
  FeatureGuard   always on; rejects input constructs whose feature is off.
  Types          realizes Types/Class/Enum/Interface/DefaultConstructor;
                 emits one artifact per type plus provider interfaces for
                 run-time or hybrid binding.
  Builder        realizes Builder; emits a fluent builder per class.
  Factory        realizes Factory; emits one factory with a creation method
                 per class, delegating to providers depending on the mode.

Feature selection picks components (global variability); each component's
options and variation points tune its output (local variability). Builder and
Factory interfaces carry an "implies DefaultConstructor" constraint because
their generated code calls the no-argument constructor.
"""

from __future__ import annotations

from typing import Mapping

from .classdiagram import (
    ClassDecl,
    ClassDiagram,
    ContextCondition,
    EnumDecl,
    InterfaceDecl,
    canonical_type_text,
    core_conditions,
)
from .components import (
    Behavior,
    ComponentInterface,
    ComponentRegistry,
    ForcedOption,
    GeneratorComponent,
    OptionDecl,
    VariationPoint,
    build_registry,
)
from .featuremodel import FeatureModel, parse_feature_model
from .formula import TRUE, Atom, Implies
from .generation import ArtifactContainer, EngineError, Fact, GenContext
from .ootl import KEYWORDS
from .report import Violation

CC_KEYWORD = "CC-06"

FG_TAG = "FG-TAG"
FG_ENUM = "FG-ENUM"
FG_IFACE = "FG-IFACE"
FG_NOBUILDER = "FG-NOBUILDER"
FG_EXTERNAL = "FG-EXTERNAL"

KNOWN_TAGS = frozenset({"nobuilder", "external"})

REFERENCE_FML = """\
featuremodel CD2Java {
  CD2Java! {
    Types! {
      Class!
      Enum?
      Interface?
      DefaultConstructor?
    }
    Builder?
    Factory?
  }
}
constraints {
  DefaultConstructor requires Class;
  Builder requires Class;
  Factory requires Class;
}
"""


def reference_feature_model() -> FeatureModel:
    return parse_feature_model(REFERENCE_FML)


def _lower_first(name: str) -> str:
    return name[:1].lower() + name[1:]


def _upper_first(name: str) -> str:
    return name[:1].upper() + name[1:]


# ---------------------------------------------------------------------------
# Guard conditions (front end)

def guard_conditions(selected: frozenset[str], mode: str) -> tuple[ContextCondition, ...]:
    """Conditions rejecting constructs whose feature (or mode) is off."""
    conditions = [
        ContextCondition(FG_TAG, "tags are known", "FeatureGuard", _check_known_tags)
    ]
    if "Enum" not in selected:
        conditions.append(
            ContextCondition(FG_ENUM, "no enums without the Enum feature", "FeatureGuard", _check_no_enums)
        )
    if "Interface" not in selected:
        conditions.append(
            ContextCondition(
                FG_IFACE,
                "no interfaces or implements clauses without the Interface feature",
                "FeatureGuard",
                _check_no_interfaces,
            )
        )
    if "Builder" not in selected:
        conditions.append(
            ContextCondition(
                FG_NOBUILDER,
                "the nobuilder tag needs the Builder feature",
                "FeatureGuard",
                _check_no_nobuilder_tags,
            )
        )
    if mode != "hybrid":
        conditions.append(
            ContextCondition(
                FG_EXTERNAL,
                "the external tag needs hybrid binding",
                "FeatureGuard",
                _check_no_external_tags,
            )
        )
    return tuple(conditions)


def _check_known_tags(diagram: ClassDiagram, symbols: object) -> list[Violation]:
    violations = []
    for cls in diagram.classes():
        for tag in cls.tags:
            if tag not in KNOWN_TAGS:
                violations.append(
                    Violation(
                        FG_TAG,
                        (cls.name, tag),
                        f"class {cls.name!r} carries unknown tag <<{tag}>> "
                        f"at {cls.line}:{cls.column}",
                    )
                )
    return violations


def _check_no_enums(diagram: ClassDiagram, symbols: object) -> list[Violation]:
    return [
        Violation(
            FG_ENUM,
            (en.name,),
            f"enum {en.name!r} needs the Enum feature at {en.line}:{en.column}",
        )
        for en in diagram.enums()
    ]


def _check_no_interfaces(diagram: ClassDiagram, symbols: object) -> list[Violation]:
    violations = [
        Violation(
            FG_IFACE,
            (iface.name,),
            f"interface {iface.name!r} needs the Interface feature at {iface.line}:{iface.column}",
        )
        for iface in diagram.interfaces()
    ]
    for cls in diagram.classes():
        for iface in cls.interfaces:
            violations.append(
                Violation(
                    FG_IFACE,
                    (cls.name, iface),
                    f"class {cls.name!r} implements {iface!r}, which needs the Interface "
                    f"feature at {cls.line}:{cls.column}",
                )
            )
    return violations


def _check_no_nobuilder_tags(diagram: ClassDiagram, symbols: object) -> list[Violation]:
    return [
        Violation(
            FG_NOBUILDER,
            (cls.name,),
            f"class {cls.name!r} is tagged <<nobuilder>>, which needs the Builder feature "
            f"at {cls.line}:{cls.column}",
        )
        for cls in diagram.classes()
        if "nobuilder" in cls.tags
    ]


def _check_no_external_tags(diagram: ClassDiagram, symbols: object) -> list[Violation]:
    return [
        Violation(
            FG_EXTERNAL,
            (cls.name,),
            f"class {cls.name!r} is tagged <<external>>, which needs hybrid binding "
            f"at {cls.line}:{cls.column}",
        )
        for cls in diagram.classes()
        if "external" in cls.tags
    ]


def _declared_names(diagram: ClassDiagram):
    """(kind, name, line, column) of every name the generated code declares."""
    yield "diagram", diagram.name, diagram.line, diagram.column
    for decl in diagram.types:
        if isinstance(decl, ClassDecl):
            yield "class", decl.name, decl.line, decl.column
            yield from (("attribute", a.name, a.line, a.column) for a in decl.attributes)
        elif isinstance(decl, InterfaceDecl):
            yield "interface", decl.name, decl.line, decl.column
            yield from (("operation", o.name, o.line, o.column) for o in decl.operations)
        else:
            yield "enum", decl.name, decl.line, decl.column
            positions = decl.constant_positions or [(decl.line, decl.column)] * len(decl.constants)
            for name, (line, column) in zip(decl.constants, positions):
                yield "enum constant", name, line, column


def _check_no_keywords(diagram: ClassDiagram, symbols: object) -> list[Violation]:
    return [
        Violation(
            CC_KEYWORD,
            (name,),
            f"{kind} {name!r} is a keyword of the target language at {line}:{column}",
        )
        for kind, name, line, column in _declared_names(diagram)
        if name in KEYWORDS
    ]


def _restrict_core(ctx: GenContext, comp: GeneratorComponent) -> None:
    keywords = ContextCondition(
        CC_KEYWORD, "no name is a target-language keyword", "CoreFrontEnd", _check_no_keywords
    )
    for condition in (*core_conditions(), keywords):
        ctx.add_condition(comp, condition)


def _restrict_features(ctx: GenContext, comp: GeneratorComponent) -> None:
    for condition in guard_conditions(ctx.selected, ctx.mode):
        ctx.add_condition(comp, condition)


# ---------------------------------------------------------------------------
# Types component

def class_artifact(
    diagram_name: str, cls: ClassDecl, options: Mapping[str, object], vps: Mapping[str, str]
) -> ArtifactContainer:
    container = ArtifactContainer(f"{cls.name}.oo", "Types")
    container.append(f"package {diagram_name};\n", ("Class",))
    header = f"class {cls.name}"
    if cls.superclass:
        header += f" extends {cls.superclass}"
    if cls.interfaces:
        header += " implements " + ", ".join(cls.interfaces)
    header_features = ("Class", "Interface") if cls.interfaces else ("Class",)
    container.append(header + " {\n", header_features)
    for attr in cls.attributes:
        container.append(f"  {attr.type_name} {attr.name};\n", ("Class",))
    if options["default_constructor"]:
        body = vps["constructor_body"]
        container.append(f"  {cls.name}() {{{body} }}\n", ("DefaultConstructor",))
    container.append("}\n", ("Class",))
    return container


def provider_artifact(diagram_name: str, cls: ClassDecl) -> ArtifactContainer:
    container = ArtifactContainer(f"{cls.name}Provider.oo", "Types")
    container.append(f"package {diagram_name};\n", ("Class",))
    container.append(f"interface {cls.name}Provider {{\n", ("Class",))
    container.append(f"  {cls.name} provide();\n", ("Class",))
    container.append("}\n", ("Class",))
    return container


def enum_artifact(diagram_name: str, decl: EnumDecl) -> ArtifactContainer:
    container = ArtifactContainer(f"{decl.name}.oo", "Types")
    container.append(f"package {diagram_name};\n", ("Enum",))
    container.append(f"enum {decl.name} {{\n", ("Enum",))
    for index, constant in enumerate(decl.constants):
        comma = "," if index < len(decl.constants) - 1 else ""
        container.append(f"  {constant}{comma}\n", ("Enum",))
    container.append("}\n", ("Enum",))
    return container


def interface_artifact(diagram_name: str, decl: InterfaceDecl) -> ArtifactContainer:
    container = ArtifactContainer(f"{decl.name}.oo", "Types")
    container.append(f"package {diagram_name};\n", ("Interface",))
    container.append(f"interface {decl.name} {{\n", ("Interface",))
    for op in decl.operations:
        container.append(f"  {op.return_type} {op.name}();\n", ("Interface",))
    container.append("}\n", ("Interface",))
    return container


def _types_declare_classes(ctx: GenContext, comp: GeneratorComponent) -> None:
    options = ctx.options(comp)
    for cls in ctx.diagram.classes():
        ctx.claim(comp, f"{cls.name}.oo", f"{ctx.diagram.name}/{canonical_type_text(cls)}")
        ctx.publish(
            comp,
            "type.generated",
            cls.name,
            {"kind": "class", "tags": ",".join(cls.tags)},
        )
        if options["default_constructor"]:
            ctx.publish(comp, "constructor.generated", cls.name)


def _types_declare_enums(ctx: GenContext, comp: GeneratorComponent) -> None:
    for decl in ctx.diagram.enums():
        ctx.claim(comp, f"{decl.name}.oo", f"{ctx.diagram.name}/{canonical_type_text(decl)}")
        ctx.publish(comp, "type.generated", decl.name, {"kind": "enum", "tags": ""})


def _types_declare_interfaces(ctx: GenContext, comp: GeneratorComponent) -> None:
    for decl in ctx.diagram.interfaces():
        ctx.claim(comp, f"{decl.name}.oo", f"{ctx.diagram.name}/{canonical_type_text(decl)}")
        ctx.publish(comp, "type.generated", decl.name, {"kind": "interface", "tags": ""})


def _types_declare_providers(ctx: GenContext, comp: GeneratorComponent) -> None:
    if ctx.mode not in ("run_time", "hybrid"):
        return
    for cls in ctx.diagram.classes():
        ctx.claim(comp, f"{cls.name}Provider.oo", f"{ctx.diagram.name}/provider/{cls.name}")
        ctx.publish(comp, "hook.provided", f"{cls.name}Provider")


def _types_emit_classes(ctx: GenContext, comp: GeneratorComponent) -> None:
    options = ctx.options(comp)
    vps = ctx.vps(comp)
    for cls in ctx.diagram.classes():
        if ctx.should_emit(f"{cls.name}.oo"):
            ctx.adopt(comp, class_artifact(ctx.diagram.name, cls, options, vps))


def _types_emit_enums(ctx: GenContext, comp: GeneratorComponent) -> None:
    for decl in ctx.diagram.enums():
        if ctx.should_emit(f"{decl.name}.oo"):
            ctx.adopt(comp, enum_artifact(ctx.diagram.name, decl))


def _types_emit_interfaces(ctx: GenContext, comp: GeneratorComponent) -> None:
    for decl in ctx.diagram.interfaces():
        if ctx.should_emit(f"{decl.name}.oo"):
            ctx.adopt(comp, interface_artifact(ctx.diagram.name, decl))


def _types_emit_providers(ctx: GenContext, comp: GeneratorComponent) -> None:
    if ctx.mode not in ("run_time", "hybrid"):
        return
    for cls in ctx.diagram.classes():
        if ctx.should_emit(f"{cls.name}Provider.oo"):
            ctx.adopt(comp, provider_artifact(ctx.diagram.name, cls))


# ---------------------------------------------------------------------------
# Builder component

def builder_emit(
    diagram_name: str,
    cls: ClassDecl,
    facts: tuple[Fact, ...],
    options: Mapping[str, object],
    vps: Mapping[str, str],
) -> ArtifactContainer:
    """The fluent builder for one class; ``facts`` carry its constructor fact."""
    if not any(f.topic == "constructor.generated" and f.subject == cls.name for f in facts):
        raise EngineError(
            f"builder for {cls.name!r} needs a constructor.generated fact; "
            "the Builder constraint should have prevented this"
        )
    features = ("Builder",)
    container = ArtifactContainer(f"{cls.name}Builder.oo", "Builder")
    container.append(f"package {diagram_name};\n", features)
    container.append(f"class {cls.name}Builder {{\n", features)
    container.append(f"  {cls.name} result;\n", features)
    container.append(f"  {cls.name}Builder() {{ result = new {cls.name}(); }}\n", features)
    for attr in cls.attributes:
        container.append(
            f"  {cls.name}Builder with{_upper_first(attr.name)}({attr.type_name} v) "
            f"{{ result.{attr.name} = v; return this; }}\n",
            features,
        )
    container.append(f"  {cls.name} build() {{ return result; }}\n", features)
    container.append("}\n", features)
    return container


def _builder_classes(ctx: GenContext, comp: GeneratorComponent) -> list[ClassDecl]:
    chosen = []
    for cls in ctx.diagram.classes():
        if "nobuilder" in cls.tags:
            continue
        if not ctx.facts(comp, "type.generated", cls.name):
            continue
        chosen.append(cls)
    return chosen


def _builder_declare(ctx: GenContext, comp: GeneratorComponent) -> None:
    for cls in _builder_classes(ctx, comp):
        ctx.claim(
            comp,
            f"{cls.name}Builder.oo",
            f"{ctx.diagram.name}/{canonical_type_text(cls)}",
            fact_subjects=(cls.name,),
        )
        for attr in cls.attributes:
            ctx.publish(
                comp, "method.generated", f"{cls.name}Builder.with{_upper_first(attr.name)}"
            )
        ctx.publish(comp, "method.generated", f"{cls.name}Builder.build")


def _builder_emit(ctx: GenContext, comp: GeneratorComponent) -> None:
    options = ctx.options(comp)
    vps = ctx.vps(comp)
    for cls in _builder_classes(ctx, comp):
        if not ctx.should_emit(f"{cls.name}Builder.oo"):
            continue
        facts = ctx.facts(comp, "constructor.generated", cls.name)
        ctx.adopt(comp, builder_emit(ctx.diagram.name, cls, facts, options, vps))


# ---------------------------------------------------------------------------
# Factory component

def _fact_field(fact: Fact, key: str) -> str:
    for k, v in fact.payload:
        if k == key:
            return v
    return ""


def _factory_classes(facts: tuple[Fact, ...]) -> list[tuple[str, frozenset[str]]]:
    classes = []
    for fact in facts:
        if fact.topic != "type.generated" or _fact_field(fact, "kind") != "class":
            continue
        tags = frozenset(t for t in _fact_field(fact, "tags").split(",") if t)
        classes.append((fact.subject, tags))
    classes.sort(key=lambda item: item[0])
    return classes


def _delegated(classes: list[tuple[str, frozenset[str]]], mode: str) -> list[str]:
    if mode == "run_time":
        return [name for name, _ in classes]
    if mode == "hybrid":
        return [name for name, tags in classes if "external" in tags]
    return []


def factory_emit(
    diagram: ClassDiagram,
    facts: tuple[Fact, ...],
    options: Mapping[str, object],
    vps: Mapping[str, str],
    mode: str,
) -> ArtifactContainer:
    """One factory class with a creation method per class, alphabetical."""
    classes = _factory_classes(facts)
    delegated = set(_delegated(classes, mode))
    pattern = vps["factory_method_prefix"]
    features = ("Factory",)
    container = ArtifactContainer(f"{diagram.name}Factory.oo", "Factory")
    container.append(f"package {diagram.name};\n", features)
    container.append(f"class {diagram.name}Factory {{\n", features)
    for name, _ in classes:
        if name in delegated:
            container.append(f"  {name}Provider {_lower_first(name)}Provider;\n", features)
    for name, _ in classes:
        method = pattern.replace("%s", name)
        if name in delegated:
            body = f"return {_lower_first(name)}Provider.provide();"
        else:
            body = f"return new {name}();"
        container.append(f"  {name} {method}() {{ {body} }}\n", features)
    container.append("}\n", features)
    return container


def _factory_declare(ctx: GenContext, comp: GeneratorComponent) -> None:
    facts = ctx.facts(comp, "type.generated")
    classes = _factory_classes(facts)
    pattern = ctx.vps(comp)["factory_method_prefix"]
    ctx.claim(comp, f"{ctx.diagram.name}Factory.oo", f"{ctx.diagram.name}/factory")
    for name, _ in classes:
        method = pattern.replace("%s", name)
        ctx.publish(comp, "method.generated", f"{ctx.diagram.name}Factory.{method}")
    for name in _delegated(classes, ctx.mode):
        ctx.publish(comp, "hook.required", f"{name}Provider")


def _factory_emit(ctx: GenContext, comp: GeneratorComponent) -> None:
    if not ctx.should_emit(f"{ctx.diagram.name}Factory.oo"):
        return
    facts = ctx.facts(comp, "type.generated")
    ctx.adopt(
        comp, factory_emit(ctx.diagram, facts, ctx.options(comp), ctx.vps(comp), ctx.mode)
    )


# ---------------------------------------------------------------------------
# Component definitions

def _core_front_end() -> GeneratorComponent:
    return GeneratorComponent(
        id="CoreFrontEnd",
        version="1.0.0",
        kind="front_end",
        realizes=frozenset(),
        interface=ComponentInterface(concerns=frozenset({("input_wellformedness", "core context conditions on the input diagram")})),
        behaviors=(Behavior("restrict_core", "restrict", TRUE, _restrict_core),),
    )


def _feature_guard() -> GeneratorComponent:
    return GeneratorComponent(
        id="FeatureGuard",
        version="1.0.0",
        kind="front_end",
        realizes=frozenset(),
        interface=ComponentInterface(concerns=frozenset({("feature_gating", "per-variant restrictions on input constructs")})),
        behaviors=(Behavior("restrict_features", "restrict", TRUE, _restrict_features),),
    )


def _types_component() -> GeneratorComponent:
    return GeneratorComponent(
        id="Types",
        version="1.0.0",
        kind="back_end",
        realizes=frozenset({"Types", "Class", "Enum", "Interface", "DefaultConstructor"}),
        interface=ComponentInterface(
            concerns=frozenset({("type_mapping", "one target unit per input type declaration")}),
            options=(
                OptionDecl("default_constructor", "flag", False),
                OptionDecl("generate_enums", "flag", False),
                OptionDecl("generate_interfaces", "flag", False),
            ),
            variation_points=(VariationPoint("constructor_body", "text_fragment", ""),),
            produces=frozenset({"type.generated", "constructor.generated", "hook.provided"}),
            hooks_provided=frozenset({"%sProvider"}),
        ),
        behaviors=(
            Behavior("declare_classes", "declare", TRUE, _types_declare_classes),
            Behavior("declare_enums", "declare", Atom("Types.generate_enums"), _types_declare_enums),
            Behavior(
                "declare_interfaces",
                "declare",
                Atom("Types.generate_interfaces"),
                _types_declare_interfaces,
            ),
            Behavior("declare_providers", "declare", TRUE, _types_declare_providers),
            Behavior("emit_classes", "emit", TRUE, _types_emit_classes),
            Behavior("emit_enums", "emit", Atom("Types.generate_enums"), _types_emit_enums),
            Behavior(
                "emit_interfaces",
                "emit",
                Atom("Types.generate_interfaces"),
                _types_emit_interfaces,
            ),
            Behavior("emit_providers", "emit", TRUE, _types_emit_providers),
        ),
        forced=(
            ForcedOption("DefaultConstructor", "default_constructor", True),
            ForcedOption("Enum", "generate_enums", True),
            ForcedOption("Interface", "generate_interfaces", True),
        ),
    )


def _builder_component() -> GeneratorComponent:
    return GeneratorComponent(
        id="Builder",
        version="1.0.0",
        kind="back_end",
        realizes=frozenset({"Builder"}),
        interface=ComponentInterface(
            concerns=frozenset({("builder_api", "fluent builder classes for constructible classes")}),
            constraints=(Implies(Atom("Builder"), Atom("DefaultConstructor")),),
            consumes=frozenset({"type.generated", "constructor.generated"}),
            produces=frozenset({"method.generated"}),
        ),
        behaviors=(
            Behavior("declare_builders", "declare", TRUE, _builder_declare),
            Behavior("emit_builders", "emit", TRUE, _builder_emit),
        ),
    )


def _factory_component() -> GeneratorComponent:
    return GeneratorComponent(
        id="Factory",
        version="1.0.0",
        kind="back_end",
        realizes=frozenset({"Factory"}),
        interface=ComponentInterface(
            concerns=frozenset({("object_creation", "central factory for object creation")}),
            constraints=(Implies(Atom("Factory"), Atom("DefaultConstructor")),),
            consumes=frozenset({"type.generated"}),
            produces=frozenset({"method.generated", "hook.required"}),
            hooks_required=frozenset({"%sProvider"}),
            variation_points=(
                VariationPoint("factory_method_prefix", "name_pattern", "create%s"),
            ),
        ),
        behaviors=(
            Behavior("declare_factory", "declare", TRUE, _factory_declare),
            Behavior("emit_factory", "emit", TRUE, _factory_emit),
        ),
    )


def reference_components() -> tuple[GeneratorComponent, ...]:
    return (
        _core_front_end(),
        _feature_guard(),
        _types_component(),
        _builder_component(),
        _factory_component(),
    )


def build_reference_registry(model: FeatureModel | None = None) -> ComponentRegistry:
    """The five built-in components, registered against the built-in model."""
    return build_registry(reference_components(), model or reference_feature_model())
