from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genline.featuremodel import (
    CFG_EXCLUDES,
    CFG_MANDATORY,
    CFG_OR,
    CFG_PARENT,
    CFG_REQUIRES,
    CFG_ROOT,
    CFG_UNKNOWN,
    CFG_XOR,
    MANDATORY,
    OPTIONAL,
    Configuration,
    CrossTreeConstraint,
    Feature,
    FeatureGroup,
    FeatureModel,
    FeatureModelError,
    enumerate_configurations,
    format_feature_model,
    model_formula,
    parse_feature_model,
    validate_configuration,
)
from genline.formula import evaluate
from genline.lexing import TextSyntaxError
from genline.reference import REFERENCE_FML, reference_feature_model

from helpers import ALL_FEATURES, iter_subsets, satisfies_model


def _valid_by_hand(selected: frozenset[str]) -> bool:
    """Independent rule set for the reference model, written directly from its
    tree: root and every parent must be selected, mandatory children of
    selected parents must be selected, and each requires edge must hold."""
    parents = {
        "Types": "CD2Java",
        "Builder": "CD2Java",
        "Factory": "CD2Java",
        "Class": "Types",
        "Enum": "Types",
        "Interface": "Types",
        "DefaultConstructor": "Types",
    }
    mandatory_children = {"CD2Java": ("Types",), "Types": ("Class",)}
    requires = (
        ("DefaultConstructor", "Class"),
        ("Builder", "Class"),
        ("Factory", "Class"),
    )
    if "CD2Java" not in selected:
        return False
    for child, parent in parents.items():
        if child in selected and parent not in selected:
            return False
    for parent, children in mandatory_children.items():
        if parent in selected and any(c not in selected for c in children):
            return False
    return all(lhs not in selected or rhs in selected for lhs, rhs in requires)


def test_parse_reference_model_structure():
    model = reference_feature_model()
    assert model.name == "CD2Java"
    assert model.root == "CD2Java"
    assert model.feature_ids() == tuple(sorted(ALL_FEATURES))
    root = model.features["CD2Java"]
    assert root.parent is None
    assert root.children == ("Types", "Builder", "Factory")
    assert model.features["Types"].variability == MANDATORY
    assert model.features["Types"].children == (
        "Class",
        "Enum",
        "Interface",
        "DefaultConstructor",
    )
    assert model.features["Class"].variability == MANDATORY
    for fid in ("Enum", "Interface", "DefaultConstructor", "Builder", "Factory"):
        assert model.features[fid].variability == OPTIONAL
    kinds = [(c.lhs, c.kind, c.rhs) for c in model.constraints]
    assert kinds == [
        ("DefaultConstructor", "requires", "Class"),
        ("Builder", "requires", "Class"),
        ("Factory", "requires", "Class"),
    ]


def test_format_round_trip():
    model = reference_feature_model()
    assert parse_feature_model(format_feature_model(model)) == model
    assert parse_feature_model(REFERENCE_FML) == model


def test_parse_is_deterministic():
    assert parse_feature_model(REFERENCE_FML) == parse_feature_model(REFERENCE_FML)


def test_enumeration_count_and_oracle_agreement():
    model = reference_feature_model()
    count, configs = enumerate_configurations(model, limit=1 << len(ALL_FEATURES))
    assert count == 32
    assert len(configs) == 32
    # Cross-check every subset against the hand-written rule set.
    for config in iter_subsets(model):
        assert validate_configuration(model, config).valid == _valid_by_hand(
            config.selected
        ), sorted(config.selected)
    assert sum(1 for s in iter_subsets(model) if _valid_by_hand(s.selected)) == 32


def test_enumeration_order_is_stable_and_truncation_works():
    model = reference_feature_model()
    count, configs = enumerate_configurations(model, limit=100)
    assert count == 32
    as_tuples = [tuple(sorted(c.selected)) for c in configs]
    assert as_tuples == sorted(as_tuples)
    count2, first5 = enumerate_configurations(model, limit=5)
    assert count2 == 32
    assert first5 == configs[:5]
    count3, none = enumerate_configurations(model)
    assert count3 == 32 and none is None


def test_iter_subsets_is_exhaustive():
    model = reference_feature_model()
    subsets = list(iter_subsets(model))
    assert len(subsets) == 1 << 8
    assert len(set(s.selected for s in subsets)) == len(subsets)


def test_enumeration_bound():
    """Only a list is bounded; a count comes from the BDD at any size."""
    ids = " ".join(f"F{i}?" for i in range(40))
    model = parse_feature_model(f"featuremodel Big {{ Root! {{ {ids} }} }}")
    assert enumerate_configurations(model) == (1 << 40, None)
    with pytest.raises(FeatureModelError, match="listing is bounded at 24"):
        enumerate_configurations(model, limit=1)


def test_validate_reports_each_rule():
    model = reference_feature_model()
    assert validate_configuration(model, Configuration.of("CD2Java", "Types", "Class")).valid

    report = validate_configuration(model, Configuration.of("Types", "Class"))
    assert CFG_ROOT in report.codes()

    report = validate_configuration(model, Configuration.of("CD2Java", "Types", "Class", "X"))
    assert report.codes() == (CFG_UNKNOWN,)
    assert "'X'" in report.violations[0].message

    report = validate_configuration(model, Configuration.of("CD2Java", "Types"))
    assert report.codes() == (CFG_MANDATORY,)
    assert report.violations[0].message == "mandatory child Class of selected Types not selected"

    report = validate_configuration(
        model, Configuration.of("CD2Java", "Types", "Class", "Builder", "Factory")
    )
    assert report.valid

    report = validate_configuration(model, Configuration.of("CD2Java", "Class"))
    assert CFG_PARENT in report.codes()


def test_requires_and_excludes():
    model = parse_feature_model(
        "featuremodel M { R! { A? B? C? } }\n"
        "constraints { A requires B; A excludes C; }"
    )
    assert validate_configuration(model, Configuration.of("R", "A", "B")).valid
    report = validate_configuration(model, Configuration.of("R", "A"))
    assert report.codes() == (CFG_REQUIRES,)
    report = validate_configuration(model, Configuration.of("R", "A", "B", "C"))
    assert report.codes() == (CFG_EXCLUDES,)


def test_xor_group():
    model = parse_feature_model("featuremodel M { R! { A? B? xor { A, B } } }")
    count, configs = enumerate_configurations(model, limit=10)
    assert count == 2
    assert [tuple(sorted(c.selected)) for c in configs] == [("A", "R"), ("B", "R")]
    report = validate_configuration(model, Configuration.of("R"))
    assert report.codes() == (CFG_XOR,)
    report = validate_configuration(model, Configuration.of("R", "A", "B"))
    assert report.codes() == (CFG_XOR,)


def test_or_group():
    model = parse_feature_model("featuremodel M { R! { A? B? or { A, B } } }")
    count, _ = enumerate_configurations(model, limit=10)
    assert count == 3
    report = validate_configuration(model, Configuration.of("R"))
    assert report.codes() == (CFG_OR,)


def test_group_rules_apply_only_when_owner_selected():
    model = parse_feature_model("featuremodel M { R! { G? { A? B? xor { A, B } } } }")
    assert validate_configuration(model, Configuration.of("R")).valid
    count, _ = enumerate_configurations(model)
    assert count == 3  # {R}, {R,G,A}, {R,G,B}


def test_parse_errors_carry_positions():
    with pytest.raises(TextSyntaxError) as err:
        parse_feature_model("featuremodel M { R! { A? A? } }")
    assert "duplicate feature id 'A'" in str(err.value)
    assert err.value.line == 1

    with pytest.raises(TextSyntaxError, match="not a child"):
        parse_feature_model("featuremodel M { R! { A? xor { A, Z } } }")

    with pytest.raises(TextSyntaxError, match="more than one group"):
        parse_feature_model("featuremodel M { R! { A? B? xor { A } or { B } } }")

    with pytest.raises(TextSyntaxError, match="unknown constraint endpoint"):
        parse_feature_model("featuremodel M { R! { A? } } constraints { A requires Z; }")

    with pytest.raises(TextSyntaxError, match="itself"):
        parse_feature_model("featuremodel M { R! { A? } } constraints { A requires A; }")

    with pytest.raises(TextSyntaxError, match="'!' or '\\?'"):
        parse_feature_model("featuremodel M { R { A? } }")

    with pytest.raises(TextSyntaxError, match="trailing input"):
        parse_feature_model("featuremodel M { R! } extra")


def test_comments_and_whitespace_are_insignificant():
    model = parse_feature_model(
        "// header\nfeaturemodel M {\n  R! { // root\n    A?\n  }\n}\n"
    )
    assert model.feature_ids() == ("A", "R")


def test_24_features_are_counted_without_visiting_every_subset():
    # 2^24 subsets would take minutes to validate one by one. The subtrees
    # are independent apart from the two constraints, so the count is a
    # product:
    #   X: off, or on with one of four (xor)                     5 states
    #   P: off, or on with any of P1..P4                         17 states
    #      "P1 requires X1" keeps (X, P) pairs: 5 * 9 + 1 * 8 = 53
    #   O: on, with a non-empty subset of O1..O3 (or)            7 states
    #      "L1 excludes O1" keeps (O, L1) pairs: 7 + 3          = 10
    #   M: on with M1, and any of M2, M3                         4 states
    #   L2..L5: free                                             16 states
    model = parse_feature_model(
        """featuremodel Big {
          Root! {
            X? { X1? X2? X3? X4? xor { X1, X2, X3, X4 } }
            O! { O1? O2? O3? or { O1, O2, O3 } }
            P? { P1? P2? P3? P4? }
            M! { M1! M2? M3? }
            L1? L2? L3? L4? L5?
          }
        }
        constraints { P1 requires X1; L1 excludes O1; }"""
    )
    assert len(model.feature_ids()) == 24
    assert enumerate_configurations(model) == (53 * 10 * 4 * 16, None)


# ---------------------------------------------------------------------------
# Properties over random feature models

# Mixed case and underscores, so sorted id order differs from tree order.
_NAMES = ("Root", "A", "b", "C_1", "Zeta", "a2", "_x", "Mid", "q", "B9", "z_", "Kk")


@st.composite
def feature_models(draw, max_features: int = 12) -> FeatureModel:
    """Random models: mandatory and optional features, xor and or groups over
    some of a feature's children, and requires/excludes constraints."""
    n = draw(st.integers(1, max_features))
    names = draw(st.permutations(_NAMES))[:n]
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    features: dict[str, Feature] = {}

    def build(i: int) -> None:
        kids = [j for j in range(1, n) if parents[j] == i]
        group = None
        if kids and draw(st.booleans()):
            members = draw(st.lists(st.sampled_from(kids), min_size=1, unique=True))
            kind = draw(st.sampled_from(("xor", "or")))
            group = FeatureGroup(kind, tuple(names[m] for m in members))
        features[names[i]] = Feature(
            id=names[i],
            parent=None if parents[i] is None else names[parents[i]],
            variability=draw(st.sampled_from((OPTIONAL, OPTIONAL, MANDATORY))),
            children=tuple(names[k] for k in kids),
            group=group,
        )
        for k in kids:
            build(k)

    build(0)
    pairs = st.tuples(
        st.sampled_from(("requires", "excludes")), st.sampled_from(names), st.sampled_from(names)
    ).filter(lambda c: c[1] != c[2])
    constraints = draw(st.lists(pairs, max_size=4)) if n > 1 else []
    return FeatureModel(
        "M", names[0], features, tuple(CrossTreeConstraint(*c) for c in constraints)
    )


def _oracle(model: FeatureModel) -> list[Configuration]:
    valid = sorted(
        tuple(sorted(config.selected))
        for config in iter_subsets(model)
        if validate_configuration(model, config).valid
    )
    return [Configuration(frozenset(t)) for t in valid]


@settings(max_examples=60, deadline=None)
@given(feature_models(), st.integers(0, 40))
def test_enumeration_equals_the_subset_oracle(model, limit):
    expected = _oracle(model)
    assert enumerate_configurations(model) == (len(expected), None)
    assert enumerate_configurations(model, limit=limit) == (len(expected), expected[:limit])
    everything = 1 << len(model.features)
    assert enumerate_configurations(model, limit=everything) == (len(expected), expected)


@settings(max_examples=40, deadline=None)
@given(feature_models())
def test_model_formula_holds_exactly_on_valid_configurations(model):
    formula = model_formula(model)
    for config in iter_subsets(model):
        assert evaluate(formula, config.selected, {}) == (
            validate_configuration(model, config).valid
        ), sorted(config.selected)


@settings(max_examples=40, deadline=None)
@given(feature_models())
def test_validation_and_model_formula_agree_with_the_set_oracle(model):
    # Both read one rule list, so each is checked against sets, not the other.
    formula = model_formula(model)
    for config in iter_subsets(model):
        expected = satisfies_model(model, config.selected)
        assert validate_configuration(model, config).valid == expected, sorted(config.selected)
        assert evaluate(formula, config.selected, {}) == expected, sorted(config.selected)
    unknown = Configuration(frozenset({model.root, "Unknown"}))
    assert not satisfies_model(model, unknown.selected)
    assert not validate_configuration(model, unknown).valid


@settings(max_examples=100, deadline=None)
@given(feature_models())
def test_format_then_parse_round_trips(model):
    assert parse_feature_model(format_feature_model(model)) == model
