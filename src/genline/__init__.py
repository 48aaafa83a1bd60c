"""Component-based product-line framework for assembling code generators.

A feature model describes the product line's variability; configurations
select generator components; a composition operator merges their interfaces
and schedules their behaviors; the generation engine runs the schedule over
an input class diagram and writes syntax-checked, traceable artifacts
atomically, with optional incremental regeneration. A complete built-in
product line (Types, Builder, Factory plus two front ends) exercises every
mechanism and backs the command-line tool.
"""

from .classdiagram import (
    Attribute,
    ClassDecl,
    ClassDiagram,
    ContextCondition,
    EnumDecl,
    InterfaceDecl,
    Operation,
    SymbolTable,
    check_context_conditions,
    core_conditions,
    parse_class_diagram,
    positioned,
)
from .components import (
    Behavior,
    Bindings,
    ComponentInterface,
    ComponentRegistry,
    ForcedOption,
    GeneratorComponent,
    OptionBindingError,
    OptionDecl,
    RegistrationError,
    ResolutionError,
    VariantSpec,
    VariationPoint,
    build_registry,
    check_bindings,
    resolve_components,
)
from .composition import (
    ComposedGenerator,
    CompositionFault,
    ScheduledStep,
    compose,
    compose_all,
    schedule,
    validate_composition,
)
from .featuremodel import (
    Configuration,
    CrossTreeConstraint,
    Feature,
    FeatureGroup,
    FeatureModel,
    FeatureModelError,
    enumerate_configurations,
    format_feature_model,
    parse_feature_model,
    validate_configuration,
)
from .generation import (
    ArtifactContainer,
    Blackboard,
    ClaimConflictError,
    Fact,
    GenCache,
    GenContext,
    GenerationIOError,
    GenerationReport,
    TraceIndex,
    generate,
    incremental_generate,
    resolve_hooks,
)
from .lexing import TextSyntaxError
from .reference import build_reference_registry, reference_components, reference_feature_model
from .report import ValidationReport, Violation
from .vsp import format_variant_spec, parse_variant_spec

__version__ = "0.1.0"

__all__ = [
    "ArtifactContainer",
    "Attribute",
    "Behavior",
    "Bindings",
    "Blackboard",
    "ClaimConflictError",
    "ClassDecl",
    "ClassDiagram",
    "ComponentInterface",
    "ComponentRegistry",
    "ComposedGenerator",
    "CompositionFault",
    "Configuration",
    "ContextCondition",
    "CrossTreeConstraint",
    "EnumDecl",
    "Fact",
    "Feature",
    "FeatureGroup",
    "FeatureModel",
    "FeatureModelError",
    "ForcedOption",
    "GenCache",
    "GenContext",
    "GenerationIOError",
    "GenerationReport",
    "GeneratorComponent",
    "InterfaceDecl",
    "Operation",
    "OptionBindingError",
    "OptionDecl",
    "RegistrationError",
    "ResolutionError",
    "ScheduledStep",
    "SymbolTable",
    "TextSyntaxError",
    "TraceIndex",
    "ValidationReport",
    "VariantSpec",
    "VariationPoint",
    "Violation",
    "build_reference_registry",
    "build_registry",
    "check_bindings",
    "check_context_conditions",
    "compose",
    "compose_all",
    "core_conditions",
    "enumerate_configurations",
    "format_feature_model",
    "format_variant_spec",
    "generate",
    "incremental_generate",
    "parse_class_diagram",
    "parse_feature_model",
    "parse_variant_spec",
    "positioned",
    "reference_components",
    "reference_feature_model",
    "resolve_components",
    "resolve_hooks",
    "schedule",
    "validate_composition",
    "validate_configuration",
]
