"""Generator components, their interfaces, and variant specifications.

A generator component packages behaviors (phased units of work) behind an
interface that declares everything the composition machinery may rely on:
the concerns it covers, the features it realizes, configuration options and
variation points, and the fact topics and hooks it exchanges with others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from . import formula as fm
from .featuremodel import Configuration, FeatureModel

# Closed ontology of fact topics a component may produce or consume.
FACT_TOPICS = frozenset(
    {
        "type.generated",
        "constructor.generated",
        "method.generated",
        "artifact.claimed",
        "hook.provided",
        "hook.required",
    }
)

COMPONENT_KINDS = ("front_end", "back_end")
PHASES = ("restrict", "declare", "emit")
_PHASES_BY_KIND = {
    "front_end": frozenset({"restrict"}),
    "back_end": frozenset({"declare", "emit"}),
}

OPTION_TYPES = ("flag", "choice", "text")
VARIATION_POINT_KINDS = ("text_fragment", "name_pattern")
BINDING_MODES = ("generation_time", "run_time", "hybrid")


class RegistrationError(ValueError):
    """A component set is malformed independent of any configuration."""


class ResolutionError(ValueError):
    """A configuration cannot be mapped onto the registered components."""


class OptionBindingError(ValueError):
    """A variant binds an option or variation point inconsistently."""


@dataclass(frozen=True)
class OptionDecl:
    name: str
    type: str  # one of OPTION_TYPES
    default: object
    choices: tuple[str, ...] = ()


@dataclass(frozen=True)
class VariationPoint:
    name: str
    kind: str  # one of VARIATION_POINT_KINDS
    default: str


@dataclass(frozen=True)
class ForcedOption:
    """Selecting ``feature`` pins the component's ``option`` to ``value``."""

    feature: str
    option: str
    value: object


@dataclass(frozen=True)
class ComponentInterface:
    # Concerns are (id, description) pairs; components may share a concern id
    # as long as their descriptions agree.
    concerns: frozenset[tuple[str, str]] = frozenset()
    constraints: tuple[fm.Formula, ...] = ()
    options: tuple[OptionDecl, ...] = ()
    variation_points: tuple[VariationPoint, ...] = ()
    produces: frozenset[str] = frozenset()
    consumes: frozenset[str] = frozenset()
    hooks_provided: frozenset[str] = frozenset()
    hooks_required: frozenset[str] = frozenset()

    def option(self, name: str) -> OptionDecl | None:
        for opt in self.options:
            if opt.name == name:
                return opt
        return None

    def variation_point(self, name: str) -> VariationPoint | None:
        for vp in self.variation_points:
            if vp.name == name:
                return vp
        return None


@dataclass(frozen=True)
class Behavior:
    name: str
    phase: str  # one of PHASES
    applicability: fm.Formula
    run: Callable[["object", "GeneratorComponent"], object]


@dataclass(frozen=True)
class GeneratorComponent:
    id: str
    version: str
    kind: str  # one of COMPONENT_KINDS
    realizes: frozenset[str]
    interface: ComponentInterface
    behaviors: tuple[Behavior, ...] = ()
    forced: tuple[ForcedOption, ...] = ()


@dataclass(frozen=True)
class VariantSpec:
    """Everything needed to derive one product: configuration plus bindings."""

    name: str
    configuration: Configuration
    option_bindings: Mapping[str, object] = field(default_factory=dict)
    vp_bindings: Mapping[str, str] = field(default_factory=dict)
    mode: str = "generation_time"
    output_path: str = "out"
    model_path: str | None = None


# ---------------------------------------------------------------------------
# Registry

@dataclass(frozen=True)
class ComponentRegistry:
    model: FeatureModel
    components: tuple[GeneratorComponent, ...]  # sorted by id

    def get(self, component_id: str) -> GeneratorComponent:
        for comp in self.components:
            if comp.id == component_id:
                return comp
        raise KeyError(component_id)

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)


def _check_value_type(kind: str, opt: OptionDecl, value: object, where: str) -> None:
    if opt.type == "flag" and not isinstance(value, bool):
        raise kind_error(kind, f"{where}: option {opt.name!r} is a flag, got {value!r}")
    if opt.type == "text" and not isinstance(value, str):
        raise kind_error(kind, f"{where}: option {opt.name!r} is text, got {value!r}")
    if opt.type == "choice" and value not in opt.choices:
        raise kind_error(
            kind, f"{where}: option {opt.name!r} must be one of {sorted(opt.choices)}, got {value!r}"
        )


def kind_error(kind: str, message: str) -> ValueError:
    return RegistrationError(message) if kind == "register" else OptionBindingError(message)


def _atom_ok(ref: str, model: FeatureModel, by_id: Mapping[str, GeneratorComponent]) -> bool:
    if "." in ref:
        comp_id, _, opt_name = ref.partition(".")
        comp = by_id.get(comp_id)
        return comp is not None and comp.interface.option(opt_name) is not None
    return ref in model.features


def build_registry(
    components: Iterable[GeneratorComponent], model: FeatureModel
) -> ComponentRegistry:
    """Validate a component set against a feature model and index it.

    Raises RegistrationError on structural problems: duplicate ids, behaviors
    in phases foreign to the component kind, undeclared fact topics, malformed
    option or variation point declarations, or interface formulas referencing
    unknown features or options.
    """
    ordered = sorted(components, key=lambda c: c.id)
    by_id: dict[str, GeneratorComponent] = {}
    for comp in ordered:
        if comp.id in by_id:
            raise RegistrationError(f"duplicate component id {comp.id!r}")
        by_id[comp.id] = comp

    realized_by: dict[str, str] = {}
    for comp in ordered:
        if comp.kind not in COMPONENT_KINDS:
            raise RegistrationError(f"component {comp.id!r}: unknown kind {comp.kind!r}")
        allowed = _PHASES_BY_KIND[comp.kind]
        for beh in comp.behaviors:
            if beh.phase not in PHASES:
                raise RegistrationError(
                    f"component {comp.id!r}: behavior {beh.name!r} has unknown phase {beh.phase!r}"
                )
            if beh.phase not in allowed:
                raise RegistrationError(
                    f"component {comp.id!r}: {comp.kind} components may not run "
                    f"{beh.phase!r} behaviors ({beh.name!r})"
                )
        names = [b.name for b in comp.behaviors]
        if len(names) != len(set(names)):
            raise RegistrationError(f"component {comp.id!r}: duplicate behavior names")

        for topic in sorted(comp.interface.produces | comp.interface.consumes):
            if topic not in FACT_TOPICS:
                raise RegistrationError(
                    f"component {comp.id!r}: fact topic {topic!r} is outside the ontology"
                )

        seen_opts: set[str] = set()
        for opt in comp.interface.options:
            if opt.name in seen_opts:
                raise RegistrationError(f"component {comp.id!r}: duplicate option {opt.name!r}")
            seen_opts.add(opt.name)
            if opt.type not in OPTION_TYPES:
                raise RegistrationError(
                    f"component {comp.id!r}: option {opt.name!r} has unknown type {opt.type!r}"
                )
            if opt.type == "choice" and not opt.choices:
                raise RegistrationError(
                    f"component {comp.id!r}: choice option {opt.name!r} lists no choices"
                )
            _check_value_type("register", opt, opt.default, f"component {comp.id!r}")
        seen_vps: set[str] = set()
        for vp in comp.interface.variation_points:
            if vp.name in seen_vps:
                raise RegistrationError(
                    f"component {comp.id!r}: duplicate variation point {vp.name!r}"
                )
            seen_vps.add(vp.name)
            if vp.kind not in VARIATION_POINT_KINDS:
                raise RegistrationError(
                    f"component {comp.id!r}: variation point {vp.name!r} has unknown kind {vp.kind!r}"
                )
            if vp.kind == "name_pattern" and vp.default.count("%s") != 1:
                raise RegistrationError(
                    f"component {comp.id!r}: name pattern {vp.name!r} default must contain "
                    f"'%s' exactly once, got {vp.default!r}"
                )

        for feat in sorted(comp.realizes):
            if feat not in model.features:
                raise RegistrationError(
                    f"component {comp.id!r} realizes unknown feature {feat!r}"
                )
            if feat in realized_by:
                raise RegistrationError(
                    f"feature {feat!r} realized by both {realized_by[feat]!r} and {comp.id!r}"
                )
            realized_by[feat] = comp.id

        for forced in comp.forced:
            if forced.feature not in model.features:
                raise RegistrationError(
                    f"component {comp.id!r}: forced binding names unknown feature {forced.feature!r}"
                )
            opt = comp.interface.option(forced.option)
            if opt is None:
                raise RegistrationError(
                    f"component {comp.id!r}: forced binding names unknown option {forced.option!r}"
                )
            _check_value_type("register", opt, forced.value, f"component {comp.id!r}")

    for comp in ordered:
        refs = []
        for constraint in comp.interface.constraints:
            refs.extend(fm.atoms(constraint))
        for beh in comp.behaviors:
            refs.extend(fm.atoms(beh.applicability))
        for ref in refs:
            if not _atom_ok(ref, model, by_id):
                raise RegistrationError(
                    f"component {comp.id!r}: formula atom {ref!r} names no feature or option"
                )

    return ComponentRegistry(model=model, components=tuple(ordered))


def resolve_components(
    config: Configuration, registry: ComponentRegistry
) -> tuple[GeneratorComponent, ...]:
    """Map a configuration to the component set that realizes it.

    A component participates when it realizes at least one selected feature;
    components realizing no features at all are infrastructure and always
    participate. Every selected feature except the root must be realized.
    """
    selected = config.selected
    chosen: list[GeneratorComponent] = []
    realized: set[str] = set()
    for comp in registry.components:
        if not comp.realizes or (comp.realizes & selected):
            chosen.append(comp)
        realized |= comp.realizes
    unrealized = sorted((selected - realized) - {registry.model.root})
    if unrealized:
        raise ResolutionError(
            "no component realizes selected feature(s): " + ", ".join(unrealized)
        )
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Bindings: a variant's option values and variation point texts

@dataclass(frozen=True)
class Bindings:
    """Resolved option values and variation point texts, per component id."""

    options: Mapping[str, Mapping[str, object]]
    vps: Mapping[str, Mapping[str, str]]

    def qualified(self) -> dict[str, object]:
        """Every option value keyed ``Component.option``, as formula atoms name it."""
        return {
            f"{comp_id}.{name}": value
            for comp_id, values in self.options.items()
            for name, value in values.items()
        }


def check_bindings(spec: VariantSpec, components: Sequence[GeneratorComponent]) -> Bindings:
    """Resolve a variant's bindings for the participating components.

    An option takes the value a selected feature forces, else its bound value,
    else its declared default; a binding that contradicts a forced value is an
    error, not a silent override. A variation point takes its bound text, else
    its default. Raises OptionBindingError on a binding that addresses no
    participating component or declaration, has the wrong type, or is a name
    pattern without exactly one ``%s``, and on an unknown binding mode.
    """
    where = f"variant {spec.name!r}"
    ordered = sorted(components, key=lambda c: c.id)
    by_id = {c.id: c for c in ordered}
    options = {c.id: {o.name: o.default for o in c.interface.options} for c in ordered}
    vps = {c.id: {v.name: v.default for v in c.interface.variation_points} for c in ordered}

    def target(key: str, what: str, form: str) -> tuple[GeneratorComponent, str]:
        comp_id, dot, name = key.partition(".")
        if not dot:
            raise OptionBindingError(f"{where}: {what} {key!r} is not of the form Component.{form}")
        if comp_id not in by_id:
            raise OptionBindingError(f"{where}: {what} {key!r} addresses no participating component")
        return by_id[comp_id], name

    for key, value in sorted(spec.option_bindings.items()):
        comp, name = target(key, "option binding", "option")
        opt = comp.interface.option(name)
        if opt is None:
            raise OptionBindingError(f"{where}: component {comp.id!r} has no option {name!r}")
        _check_value_type("bind", opt, value, where)
        options[comp.id][name] = value
    for comp in ordered:
        for forced in comp.forced:
            if forced.feature not in spec.configuration.selected:
                continue
            bound = spec.option_bindings.get(f"{comp.id}.{forced.option}", forced.value)
            if bound != forced.value:
                raise OptionBindingError(
                    f"{where}: option {comp.id}.{forced.option} is forced to {forced.value!r} "
                    f"by feature {forced.feature!r} but bound to {bound!r}"
                )
            options[comp.id][forced.option] = forced.value
    for key, value in sorted(spec.vp_bindings.items()):
        comp, name = target(key, "binding", "point")
        vp = comp.interface.variation_point(name)
        if vp is None:
            raise OptionBindingError(f"{where}: component {comp.id!r} has no variation point {name!r}")
        if not isinstance(value, str):
            raise OptionBindingError(f"{where}: variation point {key!r} needs text, got {value!r}")
        if vp.kind == "name_pattern" and value.count("%s") != 1:
            raise OptionBindingError(
                f"{where}: name pattern must contain '%s' exactly once, got {value!r}"
            )
        vps[comp.id][name] = value
    if spec.mode not in BINDING_MODES:
        raise OptionBindingError(f"{where}: unknown binding mode {spec.mode!r}")
    return Bindings(options, vps)
