"""The built-in class-diagram-to-code product line.

Five components over the built-in feature model:

  CoreFrontEnd   always on; contributes the core context conditions and
                 rejects names that are keywords of the target language.
  FeatureGuard   always on; rejects input constructs whose feature is off.
  Types          realizes Types/Class/Enum/Interface/DefaultConstructor;
                 builds one artifact per type plus provider interfaces for
                 run-time or hybrid binding.
  Builder        realizes Builder; builds a fluent builder per class.
  Factory        realizes Factory; builds one factory with a creation method
                 per class, delegating to providers depending on the mode.

A declare behavior claims each artifact with its builder, a public
``*_artifact`` or ``*_emit`` function, and the plain values that builder
reads; the engine calls the builder with those values only on a cache miss,
and keys the artifact by them. The declare behavior reads the function from
this module's attributes when it claims, so a wrapper set on the module in
its place is the one the engine calls.

Feature selection picks components (global variability); each component's
options and variation points tune its output (local variability). Builder and
Factory interfaces carry an "implies DefaultConstructor" constraint because
their generated code calls the no-argument constructor.
"""

from __future__ import annotations

from typing import Iterable

from .classdiagram import (
    ClassDecl,
    ClassDiagram,
    ContextCondition,
    InterfaceDecl,
    Offense,
    OffenseFn,
    core_conditions,
    positioned,
)
from .components import (
    Behavior,
    ComponentInterface,
    ComponentRegistry,
    ForcedOption,
    LATE_BINDING_MODES,
    GeneratorComponent,
    OptionDecl,
    VariationPoint,
    build_registry,
)
from .featuremodel import FeatureModel, parse_feature_model
from .formula import TRUE, Atom, Implies
from .generation import ArtifactContainer, EngineError, Fact, GenContext
from .ootl import KEYWORDS

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

def _unknown_tags(diagram: ClassDiagram, symbols: object) -> Iterable[Offense]:
    for cls in diagram.classes():
        for tag in cls.tags:
            if tag not in KNOWN_TAGS:
                message = f"class {cls.name!r} carries unknown tag <<{tag}>>"
                yield (cls.name, tag), message, cls.line, cls.column


def _enums(diagram: ClassDiagram, symbols: object) -> Iterable[Offense]:
    for en in diagram.enums():
        yield (en.name,), f"enum {en.name!r} needs the Enum feature", en.line, en.column


def _interfaces(diagram: ClassDiagram, symbols: object) -> Iterable[Offense]:
    for iface in diagram.interfaces():
        message = f"interface {iface.name!r} needs the Interface feature"
        yield (iface.name,), message, iface.line, iface.column
    for cls in diagram.classes():
        for iface in cls.interfaces:
            message = f"class {cls.name!r} implements {iface!r}, which needs the Interface feature"
            yield (cls.name, iface), message, cls.line, cls.column


def _tagged(tag: str, needs: str) -> OffenseFn:
    """Offenses of every class carrying ``tag``, which needs ``needs``."""

    def offenses(diagram: ClassDiagram, symbols: object) -> Iterable[Offense]:
        for cls in diagram.classes():
            if tag in cls.tags:
                message = f"class {cls.name!r} is tagged <<{tag}>>, which needs {needs}"
                yield (cls.name,), message, cls.line, cls.column

    return offenses


# (code, active for (selected features, binding mode), offenses)
_GUARDS = (
    (FG_TAG, lambda selected, mode: True, _unknown_tags),
    (FG_ENUM, lambda selected, mode: "Enum" not in selected, _enums),
    (FG_IFACE, lambda selected, mode: "Interface" not in selected, _interfaces),
    (
        FG_NOBUILDER,
        lambda selected, mode: "Builder" not in selected,
        _tagged("nobuilder", "the Builder feature"),
    ),
    (FG_EXTERNAL, lambda selected, mode: mode != "hybrid", _tagged("external", "hybrid binding")),
)


def guard_conditions(selected: frozenset[str], mode: str) -> tuple[ContextCondition, ...]:
    """Conditions rejecting constructs whose feature (or mode) is off."""
    return tuple(
        positioned(code, offenses) for code, active, offenses in _GUARDS if active(selected, mode)
    )


def _keywords(diagram: ClassDiagram, symbols: object) -> Iterable[Offense]:
    """Every name the generated code declares that is a target-language keyword."""
    named = [("diagram", diagram.name, diagram.line, diagram.column)]
    for decl in diagram.types:
        if isinstance(decl, ClassDecl):
            named.append(("class", decl.name, decl.line, decl.column))
            named += [("attribute", a.name, a.line, a.column) for a in decl.attributes]
        elif isinstance(decl, InterfaceDecl):
            named.append(("interface", decl.name, decl.line, decl.column))
            named += [("operation", o.name, o.line, o.column) for o in decl.operations]
        else:
            named.append(("enum", decl.name, decl.line, decl.column))
            positions = decl.constant_positions or [(decl.line, decl.column)] * len(decl.constants)
            named += [
                ("enum constant", name, line, column)
                for name, (line, column) in zip(decl.constants, positions)
            ]
    for kind, name, line, column in named:
        if name in KEYWORDS:
            yield (name,), f"{kind} {name!r} is a keyword of the target language", line, column


def _restrict_core(ctx: GenContext, comp: GeneratorComponent) -> None:
    for condition in (*core_conditions(), positioned(CC_KEYWORD, _keywords)):
        ctx.add_condition(comp, condition)


def _restrict_features(ctx: GenContext, comp: GeneratorComponent) -> None:
    for condition in guard_conditions(ctx.selected, ctx.mode):
        ctx.add_condition(comp, condition)


# ---------------------------------------------------------------------------
# Types component

def class_artifact(
    diagram_name: str,
    name: str,
    superclass: str | None,
    interfaces: tuple[str, ...],
    attributes: tuple[tuple[str, str], ...],
    constructor_body: str | None,
) -> ArtifactContainer:
    """One class; ``attributes`` are (name, type) pairs, and a ``constructor_body``
    of None generates no default constructor."""
    container = ArtifactContainer(f"{name}.oo", "Types")
    container.append(f"package {diagram_name};\n", ("Class",))
    header = f"class {name}"
    if superclass:
        header += f" extends {superclass}"
    if interfaces:
        header += " implements " + ", ".join(interfaces)
    header_features = ("Class", "Interface") if interfaces else ("Class",)
    container.append(header + " {\n", header_features)
    for attr_name, type_name in attributes:
        container.append(f"  {type_name} {attr_name};\n", ("Class",))
    if constructor_body is not None:
        container.append(f"  {name}() {{{constructor_body} }}\n", ("DefaultConstructor",))
    container.append("}\n", ("Class",))
    return container


def provider_artifact(diagram_name: str, name: str) -> ArtifactContainer:
    container = ArtifactContainer(f"{name}Provider.oo", "Types")
    container.append(f"package {diagram_name};\n", ("Class",))
    container.append(f"interface {name}Provider {{\n", ("Class",))
    container.append(f"  {name} provide();\n", ("Class",))
    container.append("}\n", ("Class",))
    return container


def enum_artifact(diagram_name: str, name: str, constants: tuple[str, ...]) -> ArtifactContainer:
    container = ArtifactContainer(f"{name}.oo", "Types")
    container.append(f"package {diagram_name};\n", ("Enum",))
    container.append(f"enum {name} {{\n", ("Enum",))
    for index, constant in enumerate(constants):
        comma = "," if index < len(constants) - 1 else ""
        container.append(f"  {constant}{comma}\n", ("Enum",))
    container.append("}\n", ("Enum",))
    return container


def interface_artifact(
    diagram_name: str, name: str, operations: tuple[tuple[str, str], ...]
) -> ArtifactContainer:
    """One interface; ``operations`` are (name, return type) pairs."""
    container = ArtifactContainer(f"{name}.oo", "Types")
    container.append(f"package {diagram_name};\n", ("Interface",))
    container.append(f"interface {name} {{\n", ("Interface",))
    for op_name, return_type in operations:
        container.append(f"  {return_type} {op_name}();\n", ("Interface",))
    container.append("}\n", ("Interface",))
    return container


def _attributes(cls: ClassDecl) -> tuple[tuple[str, str], ...]:
    return tuple([(attr.name, attr.type_name) for attr in cls.attributes])


def _types_declare_classes(ctx: GenContext, comp: GeneratorComponent) -> None:
    options = ctx.options(comp)
    body = ctx.vps(comp)["constructor_body"] if options["default_constructor"] else None
    for cls in ctx.diagram.classes():
        ctx.claim(
            comp, f"{cls.name}.oo", class_artifact, ctx.diagram.name,
            cls.name, cls.superclass, cls.interfaces, _attributes(cls), body,
        )
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
        ctx.claim(
            comp, f"{decl.name}.oo", enum_artifact, ctx.diagram.name, decl.name, decl.constants
        )
        ctx.publish(comp, "type.generated", decl.name, {"kind": "enum", "tags": ""})


def _types_declare_interfaces(ctx: GenContext, comp: GeneratorComponent) -> None:
    # An enum claims the same path with as many arguments; its keys differ from
    # an interface's because constants are strings, at least one, and operations pairs.
    for decl in ctx.diagram.interfaces():
        operations = tuple([(op.name, op.return_type) for op in decl.operations])
        ctx.claim(
            comp, f"{decl.name}.oo", interface_artifact, ctx.diagram.name, decl.name, operations
        )
        ctx.publish(comp, "type.generated", decl.name, {"kind": "interface", "tags": ""})


def _types_declare_providers(ctx: GenContext, comp: GeneratorComponent) -> None:
    if ctx.mode not in LATE_BINDING_MODES:
        return
    for cls in ctx.diagram.classes():
        ctx.claim(
            comp, f"{cls.name}Provider.oo", provider_artifact, ctx.diagram.name, cls.name
        )
        ctx.publish(comp, "hook.provided", f"{cls.name}Provider")


# ---------------------------------------------------------------------------
# Builder component

def builder_emit(
    diagram_name: str, name: str, attributes: tuple[tuple[str, str], ...], constructed: bool
) -> ArtifactContainer:
    """The fluent builder for one class; ``constructed`` tells whether a
    constructor.generated fact was published for it."""
    if not constructed:
        raise EngineError(
            f"builder for {name!r} needs a constructor.generated fact; "
            "the Builder constraint should have prevented this"
        )
    features = ("Builder",)
    container = ArtifactContainer(f"{name}Builder.oo", "Builder")
    container.append(f"package {diagram_name};\n", features)
    container.append(f"class {name}Builder {{\n", features)
    container.append(f"  {name} result;\n", features)
    container.append(f"  {name}Builder() {{ result = new {name}(); }}\n", features)
    for attr_name, type_name in attributes:
        container.append(
            f"  {name}Builder with{_upper_first(attr_name)}({type_name} v) "
            f"{{ result.{attr_name} = v; return this; }}\n",
            features,
        )
    container.append(f"  {name} build() {{ return result; }}\n", features)
    container.append("}\n", features)
    return container


def _builder_declare(ctx: GenContext, comp: GeneratorComponent) -> None:
    for cls in ctx.diagram.classes():
        if "nobuilder" in cls.tags or not ctx.facts(comp, "type.generated", cls.name):
            continue
        # Its producer ranks earlier in the declare phase: this is the build-time fact.
        constructed = bool(ctx.facts(comp, "constructor.generated", cls.name))
        ctx.claim(
            comp, f"{cls.name}Builder.oo", builder_emit, ctx.diagram.name,
            cls.name, _attributes(cls), constructed,
        )
        for attr in cls.attributes:
            ctx.publish(
                comp, "method.generated", f"{cls.name}Builder.with{_upper_first(attr.name)}"
            )
        ctx.publish(comp, "method.generated", f"{cls.name}Builder.build")


# ---------------------------------------------------------------------------
# Factory component

def _fact_field(fact: Fact, key: str) -> str:
    for k, v in fact.payload:
        if k == key:
            return v
    return ""


def _factory_classes(facts: tuple[Fact, ...], mode: str) -> tuple[tuple[str, bool], ...]:
    """Each class among the type.generated ``facts``, in their order, paired with
    whether its factory method delegates to its provider in ``mode``."""
    classes = []
    for fact in facts:
        if fact.topic != "type.generated" or _fact_field(fact, "kind") != "class":
            continue
        external = "external" in _fact_field(fact, "tags").split(",")
        classes.append((fact.subject, mode == "run_time" or mode == "hybrid" and external))
    return tuple(classes)


def factory_emit(
    diagram_name: str, pattern: str, classes: tuple[tuple[str, bool], ...]
) -> ArtifactContainer:
    """One factory class with a creation method, named by ``pattern``, per class
    of ``classes``, (name, delegated to its provider) pairs in method order."""
    features = ("Factory",)
    container = ArtifactContainer(f"{diagram_name}Factory.oo", "Factory")
    container.append(f"package {diagram_name};\n", features)
    container.append(f"class {diagram_name}Factory {{\n", features)
    for name, delegated in classes:
        if delegated:
            container.append(f"  {name}Provider {_lower_first(name)}Provider;\n", features)
    for name, delegated in classes:
        method = pattern.replace("%s", name)
        if delegated:
            body = f"return {_lower_first(name)}Provider.provide();"
        else:
            body = f"return new {name}();"
        container.append(f"  {name} {method}() {{ {body} }}\n", features)
    container.append("}\n", features)
    return container


def _factory_declare(ctx: GenContext, comp: GeneratorComponent) -> None:
    # The query answers in subject order, so the methods come alphabetically.
    classes = _factory_classes(ctx.facts(comp, "type.generated"), ctx.mode)
    pattern = ctx.vps(comp)["factory_method_prefix"]
    ctx.claim(
        comp, f"{ctx.diagram.name}Factory.oo", factory_emit, ctx.diagram.name, pattern, classes
    )
    for name, _ in classes:
        method = pattern.replace("%s", name)
        ctx.publish(comp, "method.generated", f"{ctx.diagram.name}Factory.{method}")
    for name, delegated in classes:
        if delegated:
            ctx.publish(comp, "hook.required", f"{name}Provider")


# ---------------------------------------------------------------------------
# Component definitions

def _core_front_end() -> GeneratorComponent:
    return GeneratorComponent(
        id="CoreFrontEnd",
        version="1.0.0",
        kind="front_end",
        realizes=frozenset(),
        interface=ComponentInterface(concerns=frozenset({("input_wellformedness", "core context conditions on the input diagram")})),
        behaviors=(Behavior("restrict_core", TRUE, _restrict_core),),
    )


def _feature_guard() -> GeneratorComponent:
    return GeneratorComponent(
        id="FeatureGuard",
        version="1.0.0",
        kind="front_end",
        realizes=frozenset(),
        interface=ComponentInterface(concerns=frozenset({("feature_gating", "per-variant restrictions on input constructs")})),
        behaviors=(Behavior("restrict_features", TRUE, _restrict_features),),
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
            Behavior("declare_classes", TRUE, _types_declare_classes),
            Behavior("declare_enums", Atom("Types.generate_enums"), _types_declare_enums),
            Behavior(
                "declare_interfaces",
                Atom("Types.generate_interfaces"),
                _types_declare_interfaces,
            ),
            Behavior("declare_providers", TRUE, _types_declare_providers),
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
            Behavior("declare_builders", TRUE, _builder_declare),
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
            Behavior("declare_factory", TRUE, _factory_declare),
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
