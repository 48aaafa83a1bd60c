from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genline.components import (
    Behavior,
    ComponentInterface,
    GeneratorComponent,
    OptionDecl,
    check_bindings,
)
from genline.composition import (
    CMP_CONCERN_CLASH,
    CMP_CONSTRAINT,
    CMP_DUP_ID,
    CMP_FACT_CYCLE,
    CMP_KIND,
    CMP_NO_PRODUCER,
    CompositionFault,
    compose,
    compose_all,
    schedule,
    validate_composition,
)
from genline.formula import TRUE, Atom
from genline.reference import reference_components

from helpers import ALL_FEATURES, compose_reference, make_spec


def _schedule(composed, spec):
    return schedule(composed, spec, check_bindings(spec, composed.components))


def _noop(ctx, comp):
    return None


def _component(cid, *, concerns=(), produces=(), consumes=(), behaviors=(), **kwargs):
    defaults = dict(
        id=cid,
        version="1.0.0",
        kind="back_end",
        realizes=frozenset(),
        interface=ComponentInterface(
            concerns=frozenset(concerns),
            produces=frozenset(produces),
            consumes=frozenset(consumes),
        ),
        behaviors=tuple(behaviors),
    )
    defaults.update(kwargs)
    return GeneratorComponent(**defaults)


def test_compose_reference_full_schedule():
    composed = compose_reference(ALL_FEATURES)
    assert tuple(c.id for c in composed.components) == (
        "Builder",
        "CoreFrontEnd",
        "Factory",
        "FeatureGuard",
        "Types",
    )
    assert composed.fact_cycle == ()
    steps = [(s.phase, s.component.id, s.behavior.name) for s in composed.full_schedule]
    assert steps == [
        ("restrict", "CoreFrontEnd", "restrict_core"),
        ("restrict", "FeatureGuard", "restrict_features"),
        ("declare", "Types", "declare_classes"),
        ("declare", "Types", "declare_enums"),
        ("declare", "Types", "declare_interfaces"),
        ("declare", "Types", "declare_providers"),
        ("declare", "Builder", "declare_builders"),
        ("declare", "Factory", "declare_factory"),
    ]
    # Producers precede consumers; lexicographic tie between Builder and Factory.
    declare_ids = [s.component.id for s in composed.full_schedule if s.phase == "declare"]
    assert declare_ids.index("Types") < declare_ids.index("Builder") < declare_ids.index("Factory")


def test_compose_is_canonical_in_member_set():
    components = list(reference_components())
    reference = compose_all(components)
    rng = random.Random(7)
    for _ in range(10):
        shuffled = components[:]
        rng.shuffle(shuffled)
        # Fold pairwise in shuffled order; grouping varies with the shuffle.
        acc = shuffled[0]
        for nxt in shuffled[1:]:
            acc = compose(acc, nxt)
        assert acc.components == reference.components
        assert acc.full_schedule == reference.full_schedule


def test_compose_duplicate_id_fault():
    comp = _component("Same")
    with pytest.raises(CompositionFault) as err:
        compose(comp, comp)
    assert err.value.code == CMP_DUP_ID
    assert err.value.involved == ("Same",)


def test_compose_concern_clash_fault():
    a = _component("A", concerns=(("naming", "camel case"),))
    b = _component("B", concerns=(("naming", "snake case"), ("other", "x")))
    with pytest.raises(CompositionFault) as err:
        compose(a, b)
    assert err.value.code == CMP_CONCERN_CLASH
    assert err.value.involved == ("A", "B")
    assert "naming" in err.value.detail


def test_compose_all_rejects_an_unknown_kind():
    # Only build_registry checks the kind; a caller may compose without a registry.
    middle = _component("Middle", kind="middle", behaviors=(Behavior("run", TRUE, _noop),))
    with pytest.raises(CompositionFault) as err:
        compose_all([_component("A"), middle])
    assert err.value.code == CMP_KIND
    assert err.value.involved == ("Middle",)
    assert str(err.value) == "CMP-KIND: component 'Middle' has the unknown kind 'middle'"


def test_compose_merges_identical_duplicate_concerns():
    a = _component("A", concerns=(("naming", "camel case"),))
    b = _component("B", concerns=(("naming", "camel case"),))
    composed = compose(a, b)
    assert tuple(c.id for c in composed.components) == ("A", "B")


def test_validate_reports_constraint_with_owner():
    composed = compose_reference(("CD2Java", "Types", "Class", "Builder"))
    report = validate_composition(composed, make_spec(("CD2Java", "Types", "Class", "Builder"), "out"))
    assert report.codes() == (CMP_CONSTRAINT,)
    violation = report.violations[0]
    assert violation.subjects == ("Builder",)
    assert "(Builder implies DefaultConstructor)" in violation.message


def test_validate_turns_a_bad_binding_into_one_constraint_violation():
    # Without the binding, Builder's own constraint would be reported; a
    # binding that check_bindings rejects stops the constraints being evaluated.
    selected = ("CD2Java", "Types", "Class", "Builder")
    composed = compose_reference(selected)
    report = validate_composition(composed, make_spec(selected, "out", options={"Types.nope": True}))
    assert report.codes() == (CMP_CONSTRAINT,)
    violation = report.violations[0]
    assert violation.subjects == ()
    assert violation.message == "variant 'test': component 'Types' has no option 'nope'"


def test_validate_reports_missing_producer():
    lonely = _component("Lonely", consumes=("type.generated",))
    composed = compose_all([lonely])
    report = validate_composition(composed, make_spec(("CD2Java",), "out"))
    assert report.codes() == (CMP_NO_PRODUCER,)
    assert report.violations[0].subjects == ("Lonely", "type.generated")


def test_validate_reports_unmatched_hooks_only_when_binding_late():
    needs = _component(
        "Needs",
        interface=ComponentInterface(hooks_required=frozenset({"%sProvider"})),
    )
    composed = compose_all([needs])
    assert validate_composition(composed, make_spec(("CD2Java",), "out")).valid
    report = validate_composition(composed, make_spec(("CD2Java",), "out", mode="run_time"))
    assert report.codes() == (CMP_NO_PRODUCER,)
    assert report.violations[0].subjects == ("Needs", "%sProvider")
    gives = _component(
        "Gives",
        interface=ComponentInterface(hooks_provided=frozenset({"%sProvider"})),
    )
    composed = compose_all([needs, gives])
    assert validate_composition(composed, make_spec(("CD2Java",), "out", mode="hybrid")).valid


def test_validate_reports_fact_cycle_and_schedule_refuses_it():
    a = _component("A", produces=("type.generated",), consumes=("method.generated",))
    b = _component("B", produces=("method.generated",), consumes=("type.generated",))
    composed = compose_all([a, b])
    assert composed.fact_cycle == ("A", "B")
    report = validate_composition(composed, make_spec(("CD2Java",), "out"))
    assert CMP_FACT_CYCLE in report.codes()
    with pytest.raises(CompositionFault) as err:
        _schedule(composed, make_spec(("CD2Java",), "out"))
    assert err.value.code == CMP_FACT_CYCLE


def test_schedule_filters_by_applicability():
    base = ("CD2Java", "Types", "Class")
    composed = compose_reference(base + ("Enum",))
    with_enum = _schedule(composed, make_spec(base + ("Enum",), "out"))
    names = [s.behavior.name for s in with_enum]
    assert "declare_enums" in names

    composed = compose_reference(base)
    without = _schedule(composed, make_spec(base, "out"))
    names = [s.behavior.name for s in without]
    assert "declare_enums" not in names
    assert "declare_classes" in names


@st.composite
def _composition_trees(draw):
    """A subset of the reference components in some order, and one binary
    ``compose`` tree over that order."""
    components = reference_components()
    picked = draw(st.lists(st.sampled_from(range(len(components))), min_size=1, unique=True))
    members = [components[i] for i in picked]

    def tree(parts):
        if len(parts) == 1:
            return parts[0]
        cut = draw(st.integers(1, len(parts) - 1))
        return compose(tree(parts[:cut]), tree(parts[cut:]))

    return members, tree(members) if len(members) > 1 else compose_all(members)


@settings(max_examples=100, deadline=None)
@given(
    _composition_trees(),
    st.sets(st.sampled_from(ALL_FEATURES)),
    st.sampled_from(("generation_time", "run_time", "hybrid")),
)
def test_schedule_is_deterministic_across_orders(trees, selected, mode):
    members, composed = trees
    canonical = compose_all(sorted(members, key=lambda c: c.id))
    assert composed.components == canonical.components
    assert composed.full_schedule == canonical.full_schedule
    spec = make_spec(selected, "out", mode=mode)
    assert _schedule(composed, spec) == _schedule(canonical, spec)


def test_applicability_atoms_can_reference_options():
    flag_user = _component(
        "Flagged",
        behaviors=(Behavior("declare_x", Atom("Flagged.on"), _noop),),
        interface=ComponentInterface(options=(OptionDecl("on", "flag", False),)),
    )
    composed = compose_all([flag_user])
    spec_off = make_spec(("CD2Java",), "out")
    assert _schedule(composed, spec_off) == ()
    spec_on = make_spec(("CD2Java",), "out", options={"Flagged.on": True})
    assert [s.behavior.name for s in _schedule(composed, spec_on)] == ["declare_x"]
