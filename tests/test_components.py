from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genline.components import (
    BINDING_MODES,
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
        behaviors=(Behavior("d", Atom("C.ghost"), _noop),)
    )
    with pytest.raises(RegistrationError, match="names no feature or option"):
        build_registry([bad_applicability], MODEL)
    # Qualified atoms may point at any registered component's options.
    provider = _component("P", interface=ComponentInterface(options=(OptionDecl("on", "flag", True),)))
    user = _component("U", behaviors=(Behavior("d", Atom("P.on"), _noop),))
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


def _options(spec):
    return check_bindings(spec, (OPTED,)).options["C"]


def _vps(spec):
    return check_bindings(spec, (OPTED,)).vps["C"]


def test_effective_configuration_precedence():
    spec = make_spec({"R"}, "out")
    assert _options(spec) == {
        "flag": False,
        "style": "plain",
        "note": "",
    }
    spec = make_spec({"R"}, "out", options={"C.style": "fancy"})
    assert _options(spec)["style"] == "fancy"
    # Selecting A forces flag=True even without a binding.
    spec = make_spec({"R", "A"}, "out")
    assert _options(spec)["flag"] is True
    # An agreeing binding is fine; a contradicting one is an error.
    spec = make_spec({"R", "A"}, "out", options={"C.flag": True})
    assert _options(spec)["flag"] is True
    spec = make_spec({"R", "A"}, "out", options={"C.flag": False})
    with pytest.raises(OptionBindingError, match="forced to True"):
        _options(spec)
    # When A is not selected the binding stands.
    spec = make_spec({"R"}, "out", options={"C.flag": False})
    assert _options(spec)["flag"] is False


def test_effective_configuration_rejects_bad_bindings():
    spec = make_spec({"R"}, "out", options={"C.ghost": True})
    with pytest.raises(OptionBindingError, match="no option 'ghost'"):
        _options(spec)
    spec = make_spec({"R"}, "out", options={"C.style": "bold"})
    with pytest.raises(OptionBindingError, match="must be one of"):
        _options(spec)
    spec = make_spec({"R"}, "out", options={"C.flag": "yes"})
    with pytest.raises(OptionBindingError, match="is a flag"):
        _options(spec)
    spec = make_spec({"R"}, "out", options={"Other.flag": True})
    with pytest.raises(OptionBindingError, match="addresses no participating component"):
        _options(spec)


def test_effective_variation_points():
    spec = make_spec({"R"}, "out")
    assert _vps(spec) == {"body": "", "pattern": "get%s"}
    spec = make_spec({"R"}, "out", binds={"C.body": "x = 1;", "C.pattern": "fetch%s"})
    assert _vps(spec) == {
        "body": "x = 1;",
        "pattern": "fetch%s",
    }
    spec = make_spec({"R"}, "out", binds={"C.pattern": "fetch"})
    with pytest.raises(OptionBindingError, match="'%s' exactly once"):
        _vps(spec)
    spec = make_spec({"R"}, "out", binds={"C.ghost": "x"})
    with pytest.raises(OptionBindingError, match="no variation point 'ghost'"):
        _vps(spec)


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
    values = check_bindings(spec, (OPTED,)).qualified()
    assert values == {
        "C.flag": True,
        "C.style": "plain",
        "C.note": "hi",
    }


POOL = reference_components() + (OPTED,)
OPTION_VALUES = (True, False, "fancy", "yes")
VP_TEXTS = ("make%s", "x = 1;", "", "make", "%s%s", 3)
TYPES = {"flag": bool, "text": str, "choice": object}


def _keys(components, kind):
    """Binding keys over ``components``' declarations of ``kind``, good and bad."""
    declared = [f"{c.id}.{d.name}" for c in components for d in getattr(c.interface, kind)]
    return sorted(declared) + ["Types.ghost", "Ghost.x", "nodot"]


def _oracle(spec, components):
    """What check_bindings should resolve, or None when it must reject the spec."""
    by_id = {c.id: c for c in components}

    def declared(key, lookup):
        comp_id, _, name = key.partition(".")
        return getattr(by_id[comp_id].interface, lookup)(name) if comp_id in by_id else None

    for key, value in spec.option_bindings.items():
        opt = declared(key, "option")
        if opt is None or not isinstance(value, TYPES[opt.type]):
            return None
        if opt.type == "choice" and value not in opt.choices:
            return None
    for key, value in spec.vp_bindings.items():
        vp = declared(key, "variation_point")
        if vp is None or not isinstance(value, str):
            return None
        if vp.kind == "name_pattern" and value.count("%s") != 1:
            return None
    if spec.mode not in BINDING_MODES:
        return None
    options, vps = {}, {}
    for comp in components:
        forced = {f.option: f.value for f in comp.forced if f.feature in spec.configuration.selected}
        bound = {o.name: spec.option_bindings.get(f"{comp.id}.{o.name}") for o in comp.interface.options}
        if any(bound[name] not in (None, value) for name, value in forced.items()):
            return None
        options[comp.id] = {
            o.name: forced.get(o.name, o.default if bound[o.name] is None else bound[o.name])
            for o in comp.interface.options
        }
        vps[comp.id] = {
            vp.name: spec.vp_bindings.get(f"{comp.id}.{vp.name}", vp.default)
            for vp in comp.interface.variation_points
        }
    return options, vps


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_bindings_resolves_forced_then_bound_then_default(data):
    order = data.draw(st.permutations(POOL))
    components = order[data.draw(st.integers(0, len(order))):]
    features = sorted(reference_feature_model().features) + ["A"]  # A forces C.flag
    selected = data.draw(st.sets(st.sampled_from(features)))

    def keys(kind):
        # Keys of participating components, or of any component in the pool.
        return st.sampled_from(_keys(components, kind)) | st.sampled_from(_keys(POOL, kind))

    options = data.draw(st.dictionaries(keys("options"), st.sampled_from(OPTION_VALUES), max_size=3))
    binds = data.draw(st.dictionaries(keys("variation_points"), st.sampled_from(VP_TEXTS), max_size=2))
    mode = data.draw(st.sampled_from(BINDING_MODES + ("lazy",)))
    spec = make_spec(selected, "out", options=options, binds=binds, mode=mode)
    expected = _oracle(spec, components)
    if expected is None:
        with pytest.raises(OptionBindingError):
            check_bindings(spec, components)
        return
    bindings = check_bindings(spec, components)
    assert (bindings.options, bindings.vps) == expected
    assert check_bindings(spec, components[::-1]) == bindings


def test_registry_type_is_frozen():
    registry = ComponentRegistry(MODEL, (OPTED,))
    with pytest.raises(AttributeError):
        registry.model = None
