"""End-to-end checks of the reference product line, one numbered check each.

Every test wraps its body in the `announce` fixture so a `[ACCEPTANCE n]`
PASS/FAIL verdict line reaches the terminal even under output capture.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import random
from pathlib import Path

import pytest

from genline import (
    enumerate_configurations,
    generate,
    incremental_generate,
    parse_class_diagram,
    reference_components,
    reference_feature_model,
    resolve_components,
    validate_composition,
    validate_configuration,
)
from genline.cli import exit_code_for_report, run_cli
from genline.components import (
    Behavior,
    ComponentInterface,
    GeneratorComponent,
    build_registry,
)
from genline.composition import compose_all
from genline.featuremodel import Configuration
from genline.formula import TRUE
from genline.generation import GenCache
from helpers import (
    ALL_FEATURES,
    COVERING_CDL,
    OPTIONAL_FEATURES,
    compose_reference,
    covering_diagram,
    derive_and_generate,
    make_spec,
    read_tree,
    restrict_diagram,
)
from test_featuremodel import _valid_by_hand

LATE_BOUND = ("CD2Java", "Types", "Class", "DefaultConstructor", "Factory")


@pytest.fixture(scope="module")
def all_variants(tmp_path_factory):
    """Outcome of deriving every valid configuration on the covering diagram:
    selected -> (report, {artifact: bytes}), or (None, None) when the variant's
    composition is invalid (Builder/Factory without DefaultConstructor)."""
    model = reference_feature_model()
    count, configs = enumerate_configurations(model, limit=64)
    assert count == len(configs) == 32
    base = tmp_path_factory.mktemp("variants")
    outcomes = {}
    for index, config in enumerate(configs):
        selected = config.selected
        diagram = restrict_diagram(covering_diagram(), selected, "generation_time")
        spec = make_spec(selected, base / f"v{index:02d}")
        report, files = derive_and_generate(selected, diagram, spec)
        if report is not None:
            files = {p: data for p, data in files.items() if p.endswith(".oo")}
        outcomes[selected] = (report, files)
    return outcomes


def test_acceptance_1_enumeration_matches_hand_oracle(announce):
    with announce(1, "32 valid configurations; validator agrees with the hand rules on all 256 subsets"):
        model = reference_feature_model()
        count, configs = enumerate_configurations(model, limit=64)
        assert count == 32 and len(configs) == 32
        oracle_count = 0
        for bits in itertools.product((False, True), repeat=len(ALL_FEATURES)):
            selected = frozenset(f for f, on in zip(ALL_FEATURES, bits) if on)
            expected = _valid_by_hand(selected)
            oracle_count += expected
            report = validate_configuration(model, Configuration(selected))
            assert report.valid == expected, sorted(selected)
        assert oracle_count == 32
        assert {c.selected for c in configs} == {
            frozenset(s)
            for s in map(
                frozenset,
                [
                    set(combo) | {"CD2Java", "Types", "Class"}
                    for r in range(6)
                    for combo in itertools.combinations(OPTIONAL_FEATURES, r)
                ],
            )
        }


def test_acceptance_2_each_optional_feature_changes_output(announce, all_variants):
    with announce(2, "toggling each optional feature changes the generated artifacts"):
        # Builder/Factory without DefaultConstructor cannot be derived (the
        # components' interface constraints reject the composition), so pairs
        # where both sides fail derivation are vacuous; their exact count per
        # feature is pinned so the comparison coverage stays honest.
        vacuous = dict.fromkeys(OPTIONAL_FEATURES, 0)
        effective = 0
        for selected, (report, files) in all_variants.items():
            for feature in OPTIONAL_FEATURES:
                if feature not in selected:
                    continue
                other_report, other_files = all_variants[selected - {feature}]
                if report is None and other_report is None:
                    vacuous[feature] += 1
                    continue
                effective += 1
                if report is None or other_report is None:
                    continue  # one side has no artifacts at all: differs trivially
                assert files != other_files, (sorted(selected), feature)
        assert vacuous == {
            "Enum": 6,
            "Interface": 6,
            "DefaultConstructor": 0,
            "Builder": 4,
            "Factory": 4,
        }
        assert effective == 60


def test_acceptance_3_trace_is_total_and_consistent(announce, all_variants):
    with announce(3, "every output line lies in exactly one trace region; both indices agree"):
        derived = 0
        for selected, (report, files) in all_variants.items():
            if report is None:
                continue
            derived += 1
            trace = report.trace
            assert set(trace.by_artifact) == set(files)
            for path, regions in trace.by_artifact.items():
                line_count = files[path].decode().count("\n")
                spans = [(r.start, r.end) for r in regions]
                assert all(start <= end for start, end in spans)
                assert spans[0][0] == 1
                assert spans[-1][1] == line_count
                for (_, prev_end), (start, _) in zip(spans, spans[1:]):
                    assert start == prev_end + 1, (path, spans)
            by_artifact_lines: dict[tuple[str, int], set[str]] = {}
            for path, regions in trace.by_artifact.items():
                for region in regions:
                    for line in range(region.start, region.end + 1):
                        by_artifact_lines.setdefault((path, line), set()).update(region.features)
            by_feature_lines: dict[tuple[str, int], set[str]] = {}
            for feature, ranges in trace.by_feature.items():
                for path, (start, end) in ranges:
                    for line in range(start, end + 1):
                        by_feature_lines.setdefault((path, line), set()).add(feature)
            assert by_feature_lines == by_artifact_lines
        assert derived == 20


def _variant_text(bind_line: str = "") -> str:
    features = ", ".join(ALL_FEATURES)
    return (
        "variant demo {\n"
        "  model: shop.cdl;\n"
        f"  features: [{features}];\n"
        f"{bind_line}"
        "  mode: hybrid;\n"
        "  out: out;\n"
        "}\n"
    )


def test_acceptance_4_syntax_gate_keeps_prior_outputs(announce, tmp_path):
    with announce(4, "an unbalanced-brace binding exits 3 and leaves outputs byte-identical"):
        (tmp_path / "shop.cdl").write_text(COVERING_CDL)
        vsp = tmp_path / "demo.vsp"
        vsp.write_text(_variant_text())
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["generate", "-s", str(vsp)], out, err) == 0
        before = read_tree(tmp_path / "out")
        assert before

        vsp.write_text(_variant_text('  bind Types.constructor_body = " {oops";\n'))
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["generate", "-s", str(vsp)], out, err) == 3
        assert "generation failed in the syntax stage" in err.getvalue()
        assert "GEN-SYNTAX" in err.getvalue()
        assert read_tree(tmp_path / "out") == before


def test_acceptance_5_second_claim_on_same_artifact_refused(announce, tmp_path):
    with announce(5, "a competing claim on Types' artifact names both components, writes nothing"):
        def declare_squat(ctx, comp):
            ctx.claim(comp, "Person.oo", "squat")

        squatter = GeneratorComponent(
            id="Squatter",
            version="1.0.0",
            kind="back_end",
            realizes=frozenset(),
            interface=ComponentInterface(
                concerns=frozenset({("squatting", "claims a path Types owns")})
            ),
            behaviors=(Behavior("declare_squat", "declare", TRUE, declare_squat),),
        )
        selected = ("CD2Java", "Types", "Class")
        composed = compose_reference(selected, extra=(squatter,))
        diagram = restrict_diagram(covering_diagram(), frozenset(selected), "generation_time")
        spec = make_spec(selected, tmp_path / "out")
        assert validate_composition(composed, spec).valid
        report = generate(composed, diagram, spec)
        assert not report.ok
        assert report.failed_stage == "declare"
        assert report.violations.codes() == ("GEN-CLAIM",)
        violation = report.violations.violations[0]
        assert violation.subjects == ("Squatter", "Types")
        assert "Person.oo" in violation.message
        assert not (tmp_path / "out").exists()


def test_acceptance_6_incremental_equals_cold_after_each_edit(announce, tmp_path):
    with announce(6, "five scripted edits: incremental output byte-identical to cold each time"):
        cdl_rename = COVERING_CDL.replace("name: string;", "fullName: string;")
        cdl_added = cdl_rename.replace(
            "  enum Color {",
            "  class Order {\n    amount: int;\n  }\n  enum Color {",
        )
        cdl_removed = cdl_added.replace("  class Order {\n    amount: int;\n  }\n", "")
        cdl_retagged = cdl_removed.replace("<<nobuilder>> class Receipt", "class Receipt")
        edits = [
            ("rename attribute", cdl_rename, {}),
            ("add class", cdl_added, {}),
            ("remove class", cdl_removed, {}),
            ("retag class", cdl_retagged, {}),
            ("change variation point", cdl_retagged, {"Factory.factory_method_prefix": "make%s"}),
        ]

        composed = compose_reference(ALL_FEATURES)
        selected = frozenset(ALL_FEATURES)
        inc_out = tmp_path / "inc"
        diagram = restrict_diagram(covering_diagram(), selected, "hybrid")
        report, cache = incremental_generate(
            composed, diagram, make_spec(ALL_FEATURES, inc_out, mode="hybrid"), GenCache()
        )
        assert report.ok

        for step, (label, cdl, binds) in enumerate(edits, start=1):
            diagram = restrict_diagram(parse_class_diagram(cdl), selected, "hybrid")
            spec = make_spec(ALL_FEATURES, inc_out, mode="hybrid", binds=binds)
            report, cache = incremental_generate(composed, diagram, spec, cache)
            assert report.ok, (label, report.violations)
            cold_out = tmp_path / f"cold{step}"
            cold = generate(
                composed, diagram, make_spec(ALL_FEATURES, cold_out, mode="hybrid", binds=binds)
            )
            assert cold.ok
            assert read_tree(inc_out) == read_tree(cold_out), label
            if label == "rename attribute":
                assert "ShopFactory.oo" in report.skipped_cache_hits
                assert report.written == ("Person.oo", "PersonBuilder.oo")


def test_acceptance_7_composition_order_never_matters(announce, tmp_path):
    with announce(7, "10 shuffled composition orders: same schedule, byte-identical output"):
        model = reference_feature_model()
        registry = build_registry(reference_components(), model)
        resolved = resolve_components(Configuration(frozenset(ALL_FEATURES)), registry)
        diagram = restrict_diagram(covering_diagram(), frozenset(ALL_FEATURES), "generation_time")
        schedules = []
        trees = []
        for seed in range(10):
            order = list(resolved)
            random.Random(seed).shuffle(order)
            composed = compose_all(tuple(order))
            schedules.append(composed.full_schedule)
            out_dir = tmp_path / f"order{seed}"
            report = generate(composed, diagram, make_spec(ALL_FEATURES, out_dir))
            assert report.ok
            trees.append(read_tree(out_dir))
        assert all(sched == schedules[0] for sched in schedules[1:])
        assert all(tree == trees[0] for tree in trees[1:])
        assert trees[0]


def test_acceptance_8_binding_modes(announce, tmp_path):
    with announce(8, "late-binding hooks: suppressed fails with subjects; enabled and hybrid match goldens"):
        selected = frozenset(LATE_BOUND)

        # Hooks suppressed: Types keeps its interface promise but never
        # publishes hook.provided, so hook resolution must fail.
        doctored = []
        for comp in reference_components():
            if comp.id == "Types":
                comp = dataclasses.replace(
                    comp,
                    behaviors=tuple(
                        b
                        for b in comp.behaviors
                        if b.name not in ("declare_providers", "emit_providers")
                    ),
                )
            doctored.append(comp)
        model = reference_feature_model()
        registry = build_registry(tuple(doctored), model)
        composed = compose_all(resolve_components(Configuration(selected), registry))
        diagram = restrict_diagram(covering_diagram(), selected, "run_time")
        spec = make_spec(LATE_BOUND, tmp_path / "suppressed", mode="run_time")
        assert validate_composition(composed, spec).valid
        report = generate(composed, diagram, spec)
        assert not report.ok
        assert report.failed_stage == "hooks"
        assert exit_code_for_report(report) == 3
        assert set(report.violations.codes()) == {"GEN-HOOK"}
        unresolved = {v.subjects[0] for v in report.violations.violations}
        assert unresolved == {"ManagerProvider", "PersonProvider", "ReceiptProvider"}
        assert not (tmp_path / "suppressed").exists()

        # Hooks enabled: every provider resolves and is itself an artifact.
        run_out = tmp_path / "run_time"
        report = generate(
            compose_reference(LATE_BOUND),
            diagram,
            make_spec(LATE_BOUND, run_out, mode="run_time"),
        )
        assert report.ok
        tree = read_tree(run_out)
        assert {p for p in tree if p.endswith("Provider.oo")} == {
            "ManagerProvider.oo",
            "PersonProvider.oo",
            "ReceiptProvider.oo",
        }
        assert tree["PersonProvider.oo"].decode() == (
            "package Shop;\n"
            "interface PersonProvider {\n"
            "  Person provide();\n"
            "}\n"
        )
        assert tree["ShopFactory.oo"].decode() == (
            "package Shop;\n"
            "class ShopFactory {\n"
            "  ManagerProvider managerProvider;\n"
            "  PersonProvider personProvider;\n"
            "  ReceiptProvider receiptProvider;\n"
            "  Manager createManager() { return managerProvider.provide(); }\n"
            "  Person createPerson() { return personProvider.provide(); }\n"
            "  Receipt createReceipt() { return receiptProvider.provide(); }\n"
            "}\n"
        )

        # Hybrid: only the <<external>>-tagged Person goes through a provider.
        hybrid_out = tmp_path / "hybrid"
        diagram = restrict_diagram(covering_diagram(), selected, "hybrid")
        report = generate(
            compose_reference(LATE_BOUND),
            diagram,
            make_spec(LATE_BOUND, hybrid_out, mode="hybrid"),
        )
        assert report.ok
        assert read_tree(hybrid_out)["ShopFactory.oo"].decode() == (
            "package Shop;\n"
            "class ShopFactory {\n"
            "  PersonProvider personProvider;\n"
            "  Manager createManager() { return new Manager(); }\n"
            "  Person createPerson() { return personProvider.provide(); }\n"
            "  Receipt createReceipt() { return new Receipt(); }\n"
            "}\n"
        )


def test_acceptance_9_interface_constraint_blocks_builder(announce, tmp_path):
    with announce(9, "Builder without DefaultConstructor: valid configuration, invalid composition"):
        selected = frozenset({"CD2Java", "Types", "Class", "Builder"})
        model = reference_feature_model()
        assert validate_configuration(model, Configuration(selected)).valid
        composed = compose_reference(selected)
        report = validate_composition(composed, make_spec(selected, tmp_path / "out"))
        assert not report.valid
        assert report.codes() == ("CMP-CONSTRAINT",)
        violation = report.violations[0]
        assert violation.subjects == ("Builder",)
        assert "implies DefaultConstructor" in violation.message
