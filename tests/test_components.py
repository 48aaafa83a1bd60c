from __future__ import annotations

import pytest

from genline.components import (
    Behavior,
    ComponentInterface,
    ComponentRegistry,
    Configuration,
    ForcedOption,
    GeneratorComponent,
    OptionBindingError,
    OptionDecl,
    RegistrationError,
    ResolutionError,
    VariationPoint,
    build_registry,
    check_bindings,
    effective_configuration,
    effective_variation_points,
    qualified_options,
    resolve_components,
)
from genline.featuremodel import parse_feature_model
from genline.formula import TRUE, Atom, Implies, Not, UnknownAtomError, atoms, evaluate
from genline.reference import reference_components, reference_feature_model

from helpers import make_spec

MODEL = parse_feature_model("featuremodel M { R! { A? B? } }")


def _noop(ctx, comp):
    return None


def _component(cid="C", kind="back_end", **kwargs):
    defaults = dict(
        id=cid,
        version="1.0.0",
        kind=kind,
        realizes=frozenset(),
        interface=ComponentInterface(),
        behaviors=(),
        forced=(),
    )
    defaults.update(kwargs)
    return GeneratorComponent(**defaults)


# ---------------------------------------------------------------------------
# Formulas

def test_formula_evaluation():
    selected = frozenset({"R", "A"})
    options = {"C.flag": True, "C.text": "", "C.name": "x"}
    assert evaluate(Atom("A"), selected, options)
    assert not evaluate(Atom("B"), selected, options)
    assert evaluate(Atom("C.flag"), selected, options)
    assert not evaluate(Atom("C.text"), selected, options)  # empty text is false
    assert evaluate(Atom("C.name"), selected, options)
    assert evaluate(Implies(Atom("B"), Atom("A")), selected, options)  # vacuous
    assert not evaluate(Implies(Atom("A"), Atom("B")), selected, options)
    assert evaluate(Not(Atom("B")), selected, options)
    assert evaluate(TRUE, frozenset(), {})
    with pytest.raises(UnknownAtomError):
        evaluate(Atom("C.missing"), selected, options)


def test_formula_atoms_and_rendering():
    formula = Implies(Atom("Builder"), Atom("DefaultConstructor"))
    assert tuple(atoms(formula)) == ("Builder", "DefaultConstructor")
    assert str(formula) == "(Builder implies DefaultConstructor)"


# ---------------------------------------------------------------------------
# Registration

def test_build_registry_sorts_by_id():
    registry = build_registry([_component("Z"), _component("A")], MODEL)
    assert registry.ids() == ("A", "Z")
    assert registry.get("Z").id == "Z"
    with pytest.raises(KeyError):
        registry.get("Q")


def test_registry_rejects_duplicate_ids():
    with pytest.raises(RegistrationError, match="duplicate component id"):
        build_registry([_component("C"), _component("C")], MODEL)


def test_registry_enforces_phase_discipline():
    emit_behavior = Behavior("emit_x", "emit", TRUE, _noop)
    with pytest.raises(RegistrationError, match="may not run 'emit'"):
        build_registry([_component(kind="front_end", behaviors=(emit_behavior,))], MODEL)
    restrict_behavior = Behavior("r", "restrict", TRUE, _noop)
    with pytest.raises(RegistrationError, match="may not run 'restrict'"):
        build_registry([_component(kind="back_end", behaviors=(restrict_behavior,))], MODEL)
    for phase in ("bogus", "transform"):
        with pytest.raises(RegistrationError, match="unknown phase"):
            build_registry(
                [_component(behaviors=(Behavior("b", phase, TRUE, _noop),))], MODEL
            )
    with pytest.raises(RegistrationError, match="unknown kind"):
        build_registry([_component(kind="middle")], MODEL)


def test_registry_enforces_fact_ontology():
    iface = ComponentInterface(produces=frozenset({"weather.today"}))
    with pytest.raises(RegistrationError, match="outside the ontology"):
        build_registry([_component(interface=iface)], MODEL)


def test_registry_checks_option_declarations():
    bad_default = ComponentInterface(options=(OptionDecl("f", "flag", "yes"),))
    with pytest.raises(RegistrationError, match="is a flag"):
        build_registry([_component(interface=bad_default)], MODEL)
    no_choices = ComponentInterface(options=(OptionDecl("c", "choice", "a"),))
    with pytest.raises(RegistrationError, match="lists no choices"):
        build_registry([_component(interface=no_choices)], MODEL)
    dup = ComponentInterface(
        options=(OptionDecl("f", "flag", False), OptionDecl("f", "flag", True))
    )
    with pytest.raises(RegistrationError, match="duplicate option"):
        build_registry([_component(interface=dup)], MODEL)
    bad_kind = ComponentInterface(options=(OptionDecl("f", "toggle", False),))
    with pytest.raises(RegistrationError, match="unknown type"):
        build_registry([_component(interface=bad_kind)], MODEL)


def test_registry_checks_variation_points():
    bad_pattern = ComponentInterface(
        variation_points=(VariationPoint("p", "name_pattern", "make"),)
    )
    with pytest.raises(RegistrationError, match="'%s' exactly once"):
        build_registry([_component(interface=bad_pattern)], MODEL)
    two = ComponentInterface(
        variation_points=(VariationPoint("p", "name_pattern", "%s%s"),)
    )
    with pytest.raises(RegistrationError, match="'%s' exactly once"):
        build_registry([_component(interface=two)], MODEL)
    bad_kind = ComponentInterface(variation_points=(VariationPoint("p", "slot", ""),))
    with pytest.raises(RegistrationError, match="unknown kind"):
        build_registry([_component(interface=bad_kind)], MODEL)


def test_registry_checks_realizes():
    with pytest.raises(RegistrationError, match="unknown feature 'Z'"):
        build_registry([_component(realizes=frozenset({"Z"}))], MODEL)
    a = _component("C1", realizes=frozenset({"A"}))
    b = _component("C2", realizes=frozenset({"A"}))
    with pytest.raises(RegistrationError, match="realized by both"):
        build_registry([a, b], MODEL)


def test_registry_checks_forced_bindings():
    iface = ComponentInterface(options=(OptionDecl("f", "flag", False),))
    bad_feature = _component(interface=iface, forced=(ForcedOption("Z", "f", True),))
    with pytest.raises(RegistrationError, match="unknown feature 'Z'"):
        build_registry([bad_feature], MODEL)
    bad_option = _component(interface=iface, forced=(ForcedOption("A", "g", True),))
    with pytest.raises(RegistrationError, match="unknown option 'g'"):
        build_registry([bad_option], MODEL)
    bad_value = _component(interface=iface, forced=(ForcedOption("A", "f", "on"),))
    with pytest.raises(RegistrationError, match="is a flag"):
        build_registry([bad_value], MODEL)


def test_registry_checks_formula_atoms():
    bad_constraint = _component(interface=ComponentInterface(constraints=(Atom("Nope"),)))
    with pytest.raises(RegistrationError, match="names no feature or option"):
        build_registry([bad_constraint], MODEL)
    bad_applicability = _component(
        behaviors=(Behavior("d", "declare", Atom("C.ghost"), _noop),)
    )
    with pytest.raises(RegistrationError, match="names no feature or option"):
        build_registry([bad_applicability], MODEL)
    # Qualified atoms may point at any registered component's options.
    provider = _component("P", interface=ComponentInterface(options=(OptionDecl("on", "flag", True),)))
    user = _component("U", behaviors=(Behavior("d", "declare", Atom("P.on"), _noop),))
    assert build_registry([provider, user], MODEL).ids() == ("P", "U")


# ---------------------------------------------------------------------------
# Resolution

def test_resolve_reference_components():
    model = reference_feature_model()
    registry = build_registry(reference_components(), model)
    assert registry.ids() == ("Builder", "CoreFrontEnd", "Factory", "FeatureGuard", "Types")

    minimal = Configuration.of("CD2Java", "Types", "Class")
    chosen = tuple(c.id for c in resolve_components(minimal, registry))
    assert chosen == ("CoreFrontEnd", "FeatureGuard", "Types")

    full = Configuration.of(
        "CD2Java", "Types", "Class", "Enum", "Interface", "DefaultConstructor",
        "Builder", "Factory",
    )
    chosen = tuple(c.id for c in resolve_components(full, registry))
    assert chosen == ("Builder", "CoreFrontEnd", "Factory", "FeatureGuard", "Types")


def test_resolve_rejects_unrealized_features():
    model = parse_feature_model("featuremodel M { R! { A? B? } }")
    registry = build_registry([_component("CA", realizes=frozenset({"A"}))], model)
    with pytest.raises(ResolutionError, match="no component realizes selected feature"):
        resolve_components(Configuration.of("R", "A", "B"), registry)
    # The root never needs a realizing component.
    assert tuple(c.id for c in resolve_components(Configuration.of("R"), registry)) == ()


# ---------------------------------------------------------------------------
# Effective options and variation points

OPTED = _component(
    "C",
    interface=ComponentInterface(
        options=(
            OptionDecl("flag", "flag", False),
            OptionDecl("style", "choice", "plain", choices=("plain", "fancy")),
            OptionDecl("note", "text", ""),
        ),
        variation_points=(
            VariationPoint("body", "text_fragment", ""),
            VariationPoint("pattern", "name_pattern", "get%s"),
        ),
    ),
    forced=(ForcedOption("A", "flag", True),),
)


def test_effective_configuration_precedence():
    spec = make_spec({"R"}, "out")
    assert effective_configuration(OPTED, spec) == {
        "flag": False,
        "style": "plain",
        "note": "",
    }
    spec = make_spec({"R"}, "out", options={"C.style": "fancy"})
    assert effective_configuration(OPTED, spec)["style"] == "fancy"
    # Selecting A forces flag=True even without a binding.
    spec = make_spec({"R", "A"}, "out")
    assert effective_configuration(OPTED, spec)["flag"] is True
    # An agreeing binding is fine; a contradicting one is an error.
    spec = make_spec({"R", "A"}, "out", options={"C.flag": True})
    assert effective_configuration(OPTED, spec)["flag"] is True
    spec = make_spec({"R", "A"}, "out", options={"C.flag": False})
    with pytest.raises(OptionBindingError, match="forced to True"):
        effective_configuration(OPTED, spec)
    # When A is not selected the binding stands.
    spec = make_spec({"R"}, "out", options={"C.flag": False})
    assert effective_configuration(OPTED, spec)["flag"] is False


def test_effective_configuration_rejects_bad_bindings():
    spec = make_spec({"R"}, "out", options={"C.ghost": True})
    with pytest.raises(OptionBindingError, match="no option 'ghost'"):
        effective_configuration(OPTED, spec)
    spec = make_spec({"R"}, "out", options={"C.style": "bold"})
    with pytest.raises(OptionBindingError, match="must be one of"):
        effective_configuration(OPTED, spec)
    spec = make_spec({"R"}, "out", options={"C.flag": "yes"})
    with pytest.raises(OptionBindingError, match="is a flag"):
        effective_configuration(OPTED, spec)
    # Bindings for other components are ignored here.
    spec = make_spec({"R"}, "out", options={"Other.flag": True})
    assert effective_configuration(OPTED, spec)["flag"] is False


def test_effective_variation_points():
    spec = make_spec({"R"}, "out")
    assert effective_variation_points(OPTED, spec) == {"body": "", "pattern": "get%s"}
    spec = make_spec({"R"}, "out", binds={"C.body": "x = 1;", "C.pattern": "fetch%s"})
    assert effective_variation_points(OPTED, spec) == {
        "body": "x = 1;",
        "pattern": "fetch%s",
    }
    spec = make_spec({"R"}, "out", binds={"C.pattern": "fetch"})
    with pytest.raises(OptionBindingError, match="'%s' exactly once"):
        effective_variation_points(OPTED, spec)
    spec = make_spec({"R"}, "out", binds={"C.ghost": "x"})
    with pytest.raises(OptionBindingError, match="no variation point 'ghost'"):
        effective_variation_points(OPTED, spec)


def test_check_bindings():
    comps = (OPTED,)
    check_bindings(make_spec({"R"}, "out", options={"C.flag": True}), comps)
    with pytest.raises(OptionBindingError, match="addresses no participating component"):
        check_bindings(make_spec({"R"}, "out", options={"X.flag": True}), comps)
    with pytest.raises(OptionBindingError, match="not of the form"):
        check_bindings(make_spec({"R"}, "out", options={"flag": True}), comps)
    with pytest.raises(OptionBindingError, match="no option 'ghost'"):
        check_bindings(make_spec({"R"}, "out", options={"C.ghost": True}), comps)
    with pytest.raises(OptionBindingError, match="no variation point"):
        check_bindings(make_spec({"R"}, "out", binds={"C.ghost": "x"}), comps)
    with pytest.raises(OptionBindingError, match="unknown binding mode"):
        check_bindings(make_spec({"R"}, "out", mode="lazy"), comps)


def test_qualified_options():
    spec = make_spec({"R", "A"}, "out", options={"C.note": "hi"})
    values = qualified_options((OPTED,), spec)
    assert values == {
        "C.flag": True,
        "C.style": "plain",
        "C.note": "hi",
    }


def test_registry_type_is_frozen():
    registry = ComponentRegistry(MODEL, (OPTED,))
    with pytest.raises(AttributeError):
        registry.model = None
