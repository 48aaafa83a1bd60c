from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genline.classdiagram import ClassDiagram, parse_class_diagram
from genline.components import Behavior, ComponentInterface, GeneratorComponent
from genline.composition import compose_all
from genline import ootl
from genline.formula import TRUE
from genline.generation import (
    GEN_CLAIM,
    GEN_EMIT,
    GEN_HOOK,
    GEN_SYNTAX,
    TRACE_FILE,
    ArtifactContainer,
    Blackboard,
    BlackboardError,
    ClaimConflictError,
    EngineError,
    Fact,
    GenCache,
    GenerationIOError,
    TraceIndex,
    TraceRegion,
    claim_artifact,
    generate,
    incremental_generate,
    resolve_hooks,
    trace_query,
)

from helpers import compose_reference, make_spec, read_tree

FULL_GEN = ("CD2Java", "Types", "Class", "DefaultConstructor", "Builder", "Factory")

SMALL_CDL = (
    "classdiagram Shop {\n"
    "  class Person { name: string; age: int; }\n"
    "  class Receipt { total: int; }\n"
    "}\n"
)


def _small_diagram() -> ClassDiagram:
    return parse_class_diagram(SMALL_CDL)


def _mk(cid, behaviors=(), *, produces=(), consumes=(), concerns=()):
    return GeneratorComponent(
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


EMPTY_DIAGRAM = ClassDiagram("D", ())


# ---------------------------------------------------------------------------
# Blackboard

def test_blackboard_publish_and_query():
    board = Blackboard()
    board.publish(Fact.make("type.generated", "C", "B", {"kind": "class"}))
    board.publish(Fact.make("type.generated", "C", "A"))
    board.publish(Fact.make("type.generated", "B", "A"))
    found = board.query("type.generated")
    assert [(f.subject, f.producer) for f in found] == [("A", "B"), ("A", "C"), ("B", "C")]
    assert board.query("type.generated", subject="B")[0].payload == (("kind", "class"),)
    assert board.query("method.generated") == ()


_TOPICS = ("type.generated", "constructor.generated", "hook.required")
_PRODUCERS = ("P", "Q", "R")
_SUBJECTS = ("A", "B", "C")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.builds(
            Fact.make,
            st.sampled_from(_TOPICS),
            st.sampled_from(_PRODUCERS),
            st.sampled_from(_SUBJECTS),
        ),
        max_size=30,
    )
)
def test_blackboard_index_matches_a_scan(facts):
    board = Blackboard()
    for fact in facts:
        board.publish(fact)  # a repeated fact is a no-op
    assert board.facts == list(dict.fromkeys(facts))

    def scan(topic, subject):
        found = [f for f in board.facts if f.topic == topic and subject in (None, f.subject)]
        return tuple(sorted(found, key=lambda f: (f.subject, f.producer)))

    for topic in _TOPICS:
        assert board.query(topic) == scan(topic, None)
        for subject in _SUBJECTS:
            assert board.query(topic, subject) == scan(topic, subject)


def test_blackboard_rejects_unknown_topics():
    board = Blackboard()
    with pytest.raises(BlackboardError, match="outside the ontology"):
        board.publish(Fact.make("weather.today", "C", "x"))
    with pytest.raises(BlackboardError, match="outside the ontology"):
        board.query("weather.today")


def test_blackboard_enforces_produce_and_consume_declarations():
    producer = _mk("P", produces=("type.generated",))
    board = Blackboard()
    board.publish(Fact.make("type.generated", "P", "A"), producer=producer)
    with pytest.raises(BlackboardError, match="does not declare producing"):
        board.publish(Fact.make("method.generated", "P", "A.f"), producer=producer)
    # artifact.claimed is exempt: every claiming component publishes it.
    board.publish(Fact.make("artifact.claimed", "P", "A.oo"), producer=producer)
    consumer = _mk("Q", consumes=("type.generated",))
    assert len(board.query("type.generated", consumer=consumer)) == 1
    with pytest.raises(BlackboardError, match="does not declare consuming"):
        board.query("method.generated", consumer=consumer)


def test_blackboard_duplicate_facts():
    board = Blackboard()
    fact = Fact.make("type.generated", "C", "A", {"kind": "class"})
    board.publish(fact)
    board.publish(Fact.make("type.generated", "C", "A", {"kind": "class"}))  # no-op
    assert len(board.facts) == 1
    with pytest.raises(BlackboardError, match="conflicting facts"):
        board.publish(Fact.make("type.generated", "C", "A", {"kind": "enum"}))


def test_claim_artifact():
    board = Blackboard()
    claim_artifact(board, "A.oo", "First")
    claim_artifact(board, "A.oo", "First")  # idempotent
    assert board.claims == {"A.oo": "First"}
    claimed = board.query("artifact.claimed")
    assert [(f.producer, f.subject) for f in claimed] == [("First", "A.oo")]
    with pytest.raises(ClaimConflictError) as err:
        claim_artifact(board, "A.oo", "Second")
    assert (err.value.path, err.value.holder, err.value.claimant) == ("A.oo", "First", "Second")
    assert "First" in str(err.value) and "Second" in str(err.value)


# ---------------------------------------------------------------------------
# Containers and syntax

def test_container_coalesces_adjacent_regions_per_feature_set():
    container = ArtifactContainer("A.oo", "C")
    container.append("package P;\n", ("Class",))
    container.append("class A {\n", ("Class",))
    container.append("  A() { }\n", ("DefaultConstructor",))
    container.append("}\n", ("Class",))
    assert [(r.start, r.end, r.features) for r in container.regions] == [
        (1, 2, ("Class",)),
        (3, 3, ("DefaultConstructor",)),
        (4, 4, ("Class",)),
    ]
    assert container.content() == "package P;\nclass A {\n  A() { }\n}\n"
    assert container.line_count() == 4


def test_container_defaults_and_validation():
    container = ArtifactContainer("A.oo", "C")
    container.append("line one\nline two\n")
    assert container.regions[0].features == ("core",)
    container.append("x\n", ("B", "A", "B"))
    assert container.regions[1].features == ("A", "B")
    with pytest.raises(ValueError, match="end with a newline"):
        container.append("no newline")


def test_syntax_gate_reports_the_position_check_unit_finds(tmp_path):
    good = ArtifactContainer("A.oo", "C")
    good.append("package P;\nclass A {\n}\n")
    assert ootl.check_unit(good.content()) is None

    bad = ArtifactContainer("B.oo", "C")
    bad.append("package P;\nclass B {\n")
    error = ootl.check_unit(bad.content())
    assert (error.line, error.column) == (3, 1)

    def emit(ctx, comp):
        ctx.adopt(comp, bad)

    comp = _mk(
        "C",
        (
            Behavior("declare_b", "declare", TRUE, lambda ctx, c: ctx.claim(c, "B.oo", "b")),
            Behavior("emit_b", "emit", TRUE, emit),
        ),
    )
    spec = make_spec(("CD2Java",), tmp_path / "out")
    report = generate(compose_all([comp]), EMPTY_DIAGRAM, spec)
    assert report.failed_stage == "syntax"
    (violation,) = report.violations.violations
    assert (violation.code, violation.subjects) == (GEN_SYNTAX, ("B.oo",))
    assert violation.message == (
        f"artifact 'B.oo' is not syntactically valid: {error.message} (line 3, column 1)"
    )


# ---------------------------------------------------------------------------
# Traces

def test_trace_index_from_containers_and_round_trip():
    container = ArtifactContainer("A.oo", "C")
    container.append("package P;\nclass A {\n", ("Class",))
    container.append("  A() { }\n", ("DefaultConstructor",))
    container.append("}\n", ("Class",))
    trace = TraceIndex({container.path: container.regions})
    assert trace.by_artifact["A.oo"] == (
        TraceRegion(1, 2, ("Class",), "C"),
        TraceRegion(3, 3, ("DefaultConstructor",), "C"),
        TraceRegion(4, 4, ("Class",), "C"),
    )
    assert trace.to_lines() == [
        "A.oo:1-2 C Class",
        "A.oo:3-3 C DefaultConstructor",
        "A.oo:4-4 C Class",
    ]
    again = TraceIndex.from_text(trace.to_text())
    assert again.by_artifact == trace.by_artifact
    assert again.by_feature == trace.by_feature


def test_trace_by_feature_coalesces_adjacent_ranges():
    trace = TraceIndex(
        {
            "A.oo": [
                TraceRegion(1, 2, ("Class",), "C"),
                TraceRegion(3, 3, ("DefaultConstructor", "Class"), "C"),
                TraceRegion(4, 4, ("Class",), "C"),
                TraceRegion(6, 6, ("Class",), "C"),
            ]
        }
    )
    # Lines 1-4 merge for Class; line 6 stays separate (line 5 is foreign).
    assert trace.by_feature["Class"] == (
        ("A.oo", (1, 4)),
        ("A.oo", (6, 6)),
    )
    assert trace.by_feature["DefaultConstructor"] == (("A.oo", (3, 3)),)


def test_trace_from_text_skips_malformed_lines():
    text = (
        "A.oo:1-2 C Class\n"
        "not a trace line\n"
        "B.oo:x-2 C Class\n"
        "B.oo:2-1 C Class\n"
        "B.oo:0-1 C Class\n"
        "C.oo:1-1 C\n"
        "D.oo:1-\u00b2 C Class\n"
        "A.oo:3-3 C Enum\n"
    )
    trace = TraceIndex.from_text(text)
    assert list(trace.by_artifact) == ["A.oo"]
    assert len(trace.by_artifact["A.oo"]) == 2


def test_trace_query_kinds():
    trace = TraceIndex({"X": [TraceRegion(1, 1, ("X", "Y"), "C")]})
    as_artifact = trace_query(trace, "X", kind="artifact")
    assert as_artifact.kind == "artifact"
    assert as_artifact.artifact_regions == (TraceRegion(1, 1, ("X", "Y"), "C"),)
    as_feature = trace_query(trace, "X", kind="feature")
    assert as_feature.kind == "feature"
    assert as_feature.feature_ranges == (("X", (1, 1)),)
    assert trace_query(trace, "Y", kind="artifact").kind == "unknown"
    assert trace_query(trace, "Nope", kind="feature").kind == "unknown"
    with pytest.raises(ValueError, match="unknown query kind"):
        trace_query(trace, "X", kind="module")


# ---------------------------------------------------------------------------
# Cache text format

def test_gencache_round_trip_and_corruption():
    digest = hashlib.sha256(b"x").hexdigest()
    cache = GenCache({"A.oo": (digest, digest), "B.oo": (digest, digest)})
    again = GenCache.from_text(cache.to_text())
    assert again.entries == cache.entries
    corrupt = GenCache.from_text(
        f"A.oo {digest} {digest}\n"
        "B.oo short short\n"
        f"C.oo {digest}\n"
        f"D.oo {'z' * 64} {digest}\n"
        "\n"
    )
    assert list(corrupt.entries) == ["A.oo"]


# ---------------------------------------------------------------------------
# Hook resolution

def test_resolve_hooks():
    board = Blackboard()
    board.publish(Fact.make("hook.required", "Factory", "PersonProvider"))
    assert resolve_hooks(board, "generation_time").valid
    report = resolve_hooks(board, "run_time")
    assert report.codes() == (GEN_HOOK,)
    assert report.violations[0].subjects == ("PersonProvider",)
    board.publish(Fact.make("hook.provided", "Types", "PersonProvider"))
    assert resolve_hooks(board, "run_time").valid
    assert resolve_hooks(board, "hybrid").valid


# ---------------------------------------------------------------------------
# Engine, cold runs

def test_generate_minimal_component(tmp_path):
    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", "unit/A")

    def emit(ctx, comp):
        if ctx.should_emit("A.oo"):
            container = ArtifactContainer("A.oo", comp.id)
            container.append("package P;\n")
            container.append("class A {\n}\n")
            ctx.adopt(comp, container)

    comp = _mk(
        "Simple",
        (Behavior("declare_a", "declare", TRUE, declare), Behavior("emit_a", "emit", TRUE, emit)),
    )
    out = tmp_path / "out"
    report = generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), out))
    assert report.ok
    assert report.written == ("A.oo",)
    assert (out / "A.oo").read_text() == "package P;\nclass A {\n}\n"
    assert (out / "trace.map").read_text() == "A.oo:1-3 Simple core\n"


def test_generate_reference_goldens(tmp_path):
    out = tmp_path / "out"
    composed = compose_reference(FULL_GEN)
    report = generate(composed, _small_diagram(), make_spec(FULL_GEN, out))
    assert report.ok
    assert report.written == (
        "Person.oo",
        "PersonBuilder.oo",
        "Receipt.oo",
        "ReceiptBuilder.oo",
        "ShopFactory.oo",
    )
    assert report.skipped_cache_hits == ()
    assert (out / "Person.oo").read_text() == (
        "package Shop;\n"
        "class Person {\n"
        "  string name;\n"
        "  int age;\n"
        "  Person() { }\n"
        "}\n"
    )
    assert (out / "PersonBuilder.oo").read_text() == (
        "package Shop;\n"
        "class PersonBuilder {\n"
        "  Person result;\n"
        "  PersonBuilder() { result = new Person(); }\n"
        "  PersonBuilder withName(string v) { result.name = v; return this; }\n"
        "  PersonBuilder withAge(int v) { result.age = v; return this; }\n"
        "  Person build() { return result; }\n"
        "}\n"
    )
    assert (out / "ShopFactory.oo").read_text() == (
        "package Shop;\n"
        "class ShopFactory {\n"
        "  Person createPerson() { return new Person(); }\n"
        "  Receipt createReceipt() { return new Receipt(); }\n"
        "}\n"
    )
    trace_text = (out / "trace.map").read_text()
    assert "Person.oo:1-4 Types Class\n" in trace_text
    assert "Person.oo:5-5 Types DefaultConstructor\n" in trace_text
    assert "Person.oo:6-6 Types Class\n" in trace_text
    assert "ShopFactory.oo:1-5 Factory Factory\n" in trace_text
    # type.generated x2, constructor.generated x2, artifact.claimed x5,
    # builder methods x5, factory methods x2.
    assert report.facts_count == 16


def test_generate_restrict_failure_writes_nothing(tmp_path):
    out = tmp_path / "out"
    diagram = parse_class_diagram(
        "classdiagram Shop { class Person { name: string; } enum Color { RED } }"
    )
    config = ("CD2Java", "Types", "Class")  # Enum off, diagram has an enum
    report = generate(compose_reference(config), diagram, make_spec(config, out))
    assert not report.ok
    assert report.failed_stage == "restrict"
    assert "FG-ENUM" in report.violations.codes()
    assert not out.exists()


def test_generate_claim_conflict_names_both(tmp_path):
    def declare(ctx, comp):
        ctx.claim(comp, "Person.oo", "squat")

    squatter = _mk("Squatter", (Behavior("declare_squat", "declare", TRUE, declare),))
    components = list(compose_reference(FULL_GEN).components) + [squatter]
    composed = compose_all(components)
    out = tmp_path / "out"
    report = generate(composed, _small_diagram(), make_spec(FULL_GEN, out))
    assert not report.ok
    assert report.failed_stage == "declare"
    assert report.violations.codes() == (GEN_CLAIM,)
    violation = report.violations.violations[0]
    assert violation.subjects == ("Squatter", "Types")
    assert not out.exists()


def test_generate_claimed_but_never_emitted(tmp_path):
    comp = _mk("Lazy", (Behavior("declare_a", "declare", TRUE, lambda ctx, c: ctx.claim(c, "A.oo", "a")),))
    out = tmp_path / "out"
    report = generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), out))
    assert report.failed_stage == "emit"
    assert report.violations.codes() == (GEN_EMIT,)
    assert report.violations.violations[0].subjects == ("Lazy", "A.oo")
    assert not out.exists()


def test_generate_syntax_gate_preserves_previous_output(tmp_path):
    out = tmp_path / "out"
    composed = compose_reference(FULL_GEN)
    assert generate(composed, _small_diagram(), make_spec(FULL_GEN, out)).ok
    before = read_tree(out)

    bad = make_spec(FULL_GEN, out, binds={"Types.constructor_body": " {oops"})
    report = generate(composed, _small_diagram(), bad)
    assert not report.ok
    assert report.failed_stage == "syntax"
    assert set(report.violations.codes()) == {GEN_SYNTAX}
    paths = sorted(v.subjects[0] for v in report.violations.violations)
    assert paths == ["Person.oo", "Receipt.oo"]
    assert read_tree(out) == before


def test_generate_hook_failure_blocks_output(tmp_path):
    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", "a")
        ctx.publish(comp, "hook.required", "MissingProvider")

    def emit(ctx, comp):
        container = ArtifactContainer("A.oo", comp.id)
        container.append("package P;\nclass A {\n}\n")
        ctx.adopt(comp, container)

    comp = _mk(
        "Needy",
        (Behavior("declare_a", "declare", TRUE, declare), Behavior("emit_a", "emit", TRUE, emit)),
        produces=("hook.required",),
    )
    out = tmp_path / "out"
    report = generate(
        compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), out, mode="run_time")
    )
    assert report.failed_stage == "hooks"
    assert report.violations.codes() == (GEN_HOOK,)
    assert report.violations.violations[0].subjects == ("MissingProvider",)
    assert not out.exists()


def test_generate_replaces_stale_outputs(tmp_path):
    out = tmp_path / "out"
    composed = compose_reference(FULL_GEN)
    assert generate(composed, _small_diagram(), make_spec(FULL_GEN, out)).ok
    assert (out / "PersonBuilder.oo").is_file()
    (out / "junk.txt").write_text("leftover\n")

    no_builder = ("CD2Java", "Types", "Class", "DefaultConstructor", "Factory")
    report = generate(compose_reference(no_builder), _small_diagram(), make_spec(no_builder, out))
    assert report.ok
    tree = read_tree(out)
    assert "PersonBuilder.oo" not in tree
    assert "junk.txt" not in tree  # the output dir is replaced wholesale
    assert set(tree) == {"Person.oo", "Receipt.oo", "ShopFactory.oo", "trace.map"}


# ---------------------------------------------------------------------------
# Engine, context discipline

def test_phase_discipline_is_enforced(tmp_path):
    def bad_emit(ctx, comp):
        ctx.claim(comp, "A.oo", "a")  # claims are declare-phase only

    comp = _mk("Bad", (Behavior("emit_a", "emit", TRUE, bad_emit),))
    with pytest.raises(EngineError, match="only allowed in the declare phase"):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), tmp_path / "o"))


def test_emit_requires_a_claim(tmp_path):
    def emit(ctx, comp):
        ctx.adopt(comp, ArtifactContainer("A.oo", comp.id))

    comp = _mk("NoClaim", (Behavior("emit_a", "emit", TRUE, emit),))
    with pytest.raises(EngineError, match="without a claim"):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), tmp_path / "o"))


def test_emit_respects_other_claims(tmp_path):
    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", "a")

    def emit_other(ctx, comp):
        ctx.adopt(comp, ArtifactContainer("A.oo", comp.id))

    owner = _mk("AOwner", (Behavior("declare_a", "declare", TRUE, declare),))
    thief = _mk("Thief", (Behavior("emit_steal", "emit", TRUE, emit_other),))
    with pytest.raises(EngineError, match="claimed by 'AOwner'"):
        generate(
            compose_all([owner, thief]), EMPTY_DIAGRAM, make_spec(("CD2Java",), tmp_path / "o")
        )


def test_adopt_checks_builder_identity_and_double_emit(tmp_path):
    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", "a")

    def emit_foreign(ctx, comp):
        container = ArtifactContainer("A.oo", "SomeoneElse")
        container.append("package P;\nclass A {\n}\n")
        ctx.adopt(comp, container)

    comp = _mk(
        "Owner",
        (Behavior("declare_a", "declare", TRUE, declare), Behavior("emit_a", "emit", TRUE, emit_foreign)),
    )
    with pytest.raises(EngineError, match="was built for 'SomeoneElse'"):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), tmp_path / "o"))

    def emit_twice(ctx, comp):
        for _ in range(2):
            container = ArtifactContainer("A.oo", "Owner")
            container.append("package P;\nclass A {\n}\n")
            ctx.adopt(comp, container)

    comp = _mk(
        "Owner",
        (Behavior("declare_a", "declare", TRUE, declare), Behavior("emit_a", "emit", TRUE, emit_twice)),
    )
    with pytest.raises(EngineError, match="emitted twice"):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), tmp_path / "o"))


@pytest.mark.parametrize(
    "claimed",
    ["../escape.oo", "trace.map", "gencache.map", "{tmp}/abs.oo", "./A.oo", "p//q.oo", "p/", ".", ""],
)
def test_claim_paths_stay_inside_the_output(tmp_path, claimed):
    path = claimed.format(tmp=tmp_path)

    def declare(ctx, comp):
        ctx.claim(comp, path, "hostile")

    def emit(ctx, comp):
        container = ArtifactContainer(path, comp.id)
        container.append("package P;\nclass A {\n}\n")
        ctx.adopt(comp, container)

    hostile = _mk(
        "Hostile",
        (Behavior("declare_h", "declare", TRUE, declare), Behavior("emit_h", "emit", TRUE, emit)),
    )
    composed = compose_reference(FULL_GEN)
    spec = make_spec(FULL_GEN, tmp_path / "out")
    assert generate(composed, _small_diagram(), spec).ok
    before = read_tree(tmp_path)
    with pytest.raises(EngineError, match="artifact path must be relative"):
        generate(compose_all([*composed.components, hostile]), _small_diagram(), spec)
    assert read_tree(tmp_path) == before


def test_publish_requires_declared_topic(tmp_path):
    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", "a")
        ctx.publish(comp, "method.generated", "A.f")

    comp = _mk("Undeclared", (Behavior("declare_a", "declare", TRUE, declare),))
    with pytest.raises(BlackboardError, match="does not declare producing"):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), tmp_path / "o"))


# ---------------------------------------------------------------------------
# Incremental runs

def _pipeline(tmp_path, source=SMALL_CDL, config=FULL_GEN, **spec_kwargs):
    composed = compose_reference(config)
    diagram = parse_class_diagram(source)
    spec = make_spec(config, tmp_path / "out", **spec_kwargs)
    return composed, diagram, spec


# (cache key digest, content digest) per artifact of the small pipeline.
_PINNED_CACHE = {
    "generation_time": {
        "Person.oo": (
            "8bcea87aed9974d71488464c94133fa51bcf787dadb095d712eb46cde36d86fa",
            "9a72935514fff2a6e6d3b21a4d0443de89240321fb67125c57c1419e7502a7c6",
        ),
        "PersonBuilder.oo": (
            "beaae0ed1f7a17444ebf9b5af6319fec12ee7597ecba480ac48314cd4c625ac1",
            "c6d029255c4684c6179f4163818692e554357d71d3e7c87f88f5caf9e31a9ee1",
        ),
        "Receipt.oo": (
            "1fe378a1d6a1cf21106e1f248f77b7132a0dbe9d8eaefa2cf5e4447304049c95",
            "0bb8e1d4da2752c266b99b252555ca0d9cd3ea32d75c0d7274de05af5403ed20",
        ),
        "ReceiptBuilder.oo": (
            "af0e387df9793529bc10a467fee31013fb998abaad36622de6acc321b5045b88",
            "5e3f6659e12124a13da58df34a0bb10dad01df544d76814f36a7b127b7137a2f",
        ),
        "ShopFactory.oo": (
            "1626def390eac5dc11a326dd9f9d67fd0ebdc30c7763b447363c1945edb742a5",
            "7b10555f79516a4f79389c9f1a3aeeec3a57674c19b522d3f324aa0455308409",
        ),
    },
    "hybrid": {
        "Person.oo": (
            "a313775bf5bd4b57dbab94ac075b34c3903c8652f252ac66f68f6521d21cb477",
            "9a72935514fff2a6e6d3b21a4d0443de89240321fb67125c57c1419e7502a7c6",
        ),
        "PersonBuilder.oo": (
            "b4a109d7df6a1280c01de8ae0b180c39baf83513a88d7428741567459b70c3fc",
            "c6d029255c4684c6179f4163818692e554357d71d3e7c87f88f5caf9e31a9ee1",
        ),
        "PersonProvider.oo": (
            "029335e3169a3088c1068fd64f8ecbbe93d1301c7f77c24f0a4db48c983d4a73",
            "6ad55edf26491fc4b6dc54c79ca5ff50460e86b4a07373adcf3c09b3e3123e2e",
        ),
        "Receipt.oo": (
            "b6644c403763657f1969934198b99c2e0e024d2eb641e76dbbaf08346b2c9a85",
            "0bb8e1d4da2752c266b99b252555ca0d9cd3ea32d75c0d7274de05af5403ed20",
        ),
        "ReceiptBuilder.oo": (
            "ec6814a22df00bc47d6cb5a35ca404711cf3de664348b4ccf12554c83a3bd096",
            "5e3f6659e12124a13da58df34a0bb10dad01df544d76814f36a7b127b7137a2f",
        ),
        "ReceiptProvider.oo": (
            "2dc5207a4def4849df76a5235330e3fd584d1b4b406822a3466ea0e65481be8b",
            "65592383423389fa635ffe6a8bd503659e4c0d9e42b61d7a458c173e41298e0a",
        ),
        "ShopFactory.oo": (
            "e70524702e0fd219b09549f92fcd8e9fb88967dd62ae07ed7e96b4b8ef643444",
            "7b10555f79516a4f79389c9f1a3aeeec3a57674c19b522d3f324aa0455308409",
        ),
    },
}


@pytest.mark.parametrize("mode", sorted(_PINNED_CACHE))
def test_gencache_map_is_pinned(tmp_path, mode):
    """A change to the key material (element, component, mode, options, vps,
    consumed facts) would turn every old cache entry into a miss."""
    composed, diagram, spec = _pipeline(tmp_path, mode=mode)
    report, cache = incremental_generate(composed, diagram, spec, GenCache())
    assert report.ok
    assert cache.to_text() == GenCache(_PINNED_CACHE[mode]).to_text()


def test_incremental_cold_then_warm(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    report, cache = incremental_generate(composed, diagram, spec, GenCache())
    assert report.ok
    assert len(report.written) == 5 and report.skipped_cache_hits == ()
    assert sorted(cache.entries) == list(report.written)
    snapshot = read_tree(spec.output_path)

    report2, cache2 = incremental_generate(composed, diagram, spec, cache)
    assert report2.ok
    assert report2.written == ()
    assert report2.skipped_cache_hits == (
        "Person.oo",
        "PersonBuilder.oo",
        "Receipt.oo",
        "ReceiptBuilder.oo",
        "ShopFactory.oo",
    )
    assert read_tree(spec.output_path) == snapshot
    assert cache2.entries == cache.entries


def test_incremental_attribute_rename(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    renamed = parse_class_diagram(SMALL_CDL.replace("name: string;", "fullName: string;"))
    report, cache2 = incremental_generate(composed, renamed, spec, cache)
    assert report.ok
    assert report.written == ("Person.oo", "PersonBuilder.oo")
    assert report.skipped_cache_hits == ("Receipt.oo", "ReceiptBuilder.oo", "ShopFactory.oo")
    assert "withFullName" in (tmp_path / "out" / "PersonBuilder.oo").read_text()

    # The incremental result is byte-identical to a cold run.
    cold_spec = make_spec(FULL_GEN, tmp_path / "cold")
    assert generate(composed, renamed, cold_spec).ok
    warm = read_tree(spec.output_path)
    cold = read_tree(cold_spec.output_path)
    assert warm == cold
    assert cache2.entries != cache.entries


def test_incremental_add_and_remove_class(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())

    added_src = SMALL_CDL[:-2] + "  class Order { total: int; }\n}\n"
    added = parse_class_diagram(added_src)
    report, cache2 = incremental_generate(composed, added, spec, cache)
    assert report.ok
    # The factory consumes all type.generated facts, so it regenerates too.
    assert report.written == ("Order.oo", "OrderBuilder.oo", "ShopFactory.oo")
    assert report.skipped_cache_hits == (
        "Person.oo",
        "PersonBuilder.oo",
        "Receipt.oo",
        "ReceiptBuilder.oo",
    )
    assert "createOrder" in (tmp_path / "out" / "ShopFactory.oo").read_text()

    report, cache3 = incremental_generate(composed, diagram, spec, cache2)
    assert report.ok
    assert report.written == ("ShopFactory.oo",)
    tree = read_tree(spec.output_path)
    assert "Order.oo" not in tree and "OrderBuilder.oo" not in tree
    assert "Order.oo" not in cache3.entries
    cold_spec = make_spec(FULL_GEN, tmp_path / "cold")
    assert generate(composed, diagram, cold_spec).ok
    assert tree == read_tree(cold_spec.output_path)


def test_incremental_vp_change_regenerates_only_factory(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    respec = make_spec(
        FULL_GEN, tmp_path / "out", binds={"Factory.factory_method_prefix": "make%s"}
    )
    report, _ = incremental_generate(composed, diagram, respec, cache)
    assert report.ok
    assert report.written == ("ShopFactory.oo",)
    assert "makePerson" in (tmp_path / "out" / "ShopFactory.oo").read_text()


def test_incremental_mode_change_misses_everything(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    respec = make_spec(FULL_GEN, tmp_path / "out", mode="run_time")
    report, _ = incremental_generate(composed, diagram, respec, cache)
    assert report.ok
    assert report.skipped_cache_hits == ()
    assert "PersonProvider.oo" in report.written


def test_incremental_detects_tampered_and_missing_outputs(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    out = tmp_path / "out"
    canonical = (out / "Person.oo").read_text()
    (out / "Person.oo").write_text("package Shop;\nclass Person {\n}\n")
    (out / "Receipt.oo").unlink()
    report, _ = incremental_generate(composed, diagram, spec, cache)
    assert report.ok
    assert report.written == ("Person.oo", "Receipt.oo")
    assert (out / "Person.oo").read_text() == canonical


def test_incremental_without_trace_regenerates(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    (tmp_path / "out" / "trace.map").unlink()
    report, _ = incremental_generate(composed, diagram, spec, cache)
    assert report.ok
    assert report.skipped_cache_hits == ()
    assert len(report.written) == 5
    assert (tmp_path / "out" / "trace.map").is_file()


def test_incremental_reuses_artifacts_in_subdirectories(tmp_path):
    bodies = {"p/q/A.oo": "class A {\n}\n", "B.oo": "class B {\n}\n"}

    def declare(ctx, comp):
        for path, body in bodies.items():
            ctx.claim(comp, path, f"unit/{body}")

    def emit(ctx, comp):
        for path, body in bodies.items():
            if ctx.should_emit(path):
                container = ArtifactContainer(path, comp.id)
                container.append("package P;\n" + body)
                ctx.adopt(comp, container)

    comp = _mk(
        "Nested",
        (Behavior("declare_n", "declare", TRUE, declare), Behavior("emit_n", "emit", TRUE, emit)),
    )
    composed = compose_all([comp])
    out = tmp_path / "out"
    spec = make_spec(("CD2Java",), out)
    _, cache = incremental_generate(composed, EMPTY_DIAGRAM, spec, GenCache())
    nested = (out / "p" / "q" / "A.oo").stat().st_ino

    bodies["B.oo"] = "class C {\n}\n"
    report, cache = incremental_generate(composed, EMPTY_DIAGRAM, spec, cache)
    assert (report.written, report.skipped_cache_hits) == (("B.oo",), ("p/q/A.oo",))
    assert (out / "p" / "q" / "A.oo").stat().st_ino == nested
    cold = make_spec(("CD2Java",), tmp_path / "cold")
    assert generate(composed, EMPTY_DIAGRAM, cold).ok
    assert read_tree(out) == read_tree(tmp_path / "cold")

    # A directory the run would not write is removed, as a swap removes it.
    (out / "p" / "extra").mkdir()
    report, _ = incremental_generate(composed, EMPTY_DIAGRAM, spec, cache)
    assert report.written == ()
    assert sorted(p.name for p in (out / "p").iterdir()) == ["q"]
    assert (out / "p" / "q" / "A.oo").stat().st_ino == nested


def test_incremental_trace_matches_cold_trace(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    report, _ = incremental_generate(composed, diagram, spec, cache)
    assert report.skipped_cache_hits != ()
    warm_trace = (tmp_path / "out" / "trace.map").read_text()
    cold_spec = make_spec(FULL_GEN, tmp_path / "cold")
    generate(composed, diagram, cold_spec)
    assert warm_trace == (tmp_path / "cold" / "trace.map").read_text()


def test_incremental_abort_returns_input_cache(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    before = read_tree(spec.output_path)
    bad = make_spec(FULL_GEN, tmp_path / "out", binds={"Types.constructor_body": " {oops"})
    report, cache2 = incremental_generate(composed, diagram, bad, cache)
    assert not report.ok
    assert cache2.entries == cache.entries
    assert read_tree(spec.output_path) == before


def test_corrupt_cache_is_a_miss(tmp_path):
    composed, diagram, spec = _pipeline(tmp_path)
    incremental_generate(composed, diagram, spec, GenCache())
    report, _ = incremental_generate(
        composed, diagram, spec, GenCache.from_text("total garbage\n")
    )
    assert report.ok
    assert report.skipped_cache_hits == ()


_CLASS_NAMES = ("Alpha", "Beta", "Gamma")
_ATTR_NAMES = ("id", "size", "label")

_EDITS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_CLASS_NAMES)),
    st.tuples(st.just("remove"), st.sampled_from(_CLASS_NAMES)),
    st.tuples(st.just("rename"), st.sampled_from(_CLASS_NAMES), st.sampled_from(_ATTR_NAMES)),
    st.tuples(st.just("nobuilder"), st.sampled_from(_CLASS_NAMES)),
    st.tuples(st.just("prefix"), st.sampled_from(("create%s", "make%s", "new%s"))),
)


def _edited(classes: dict, prefix: str, edit: tuple) -> tuple[dict, str]:
    """Apply one edit to a {class: (nobuilder, attribute)} diagram and a factory prefix."""
    classes = dict(classes)
    kind, arg = edit[0], edit[1]
    if kind == "add":
        classes.setdefault(arg, (False, "id"))
    elif kind == "remove":
        classes.pop(arg, None)
    elif kind == "rename" and arg in classes:
        classes[arg] = (classes[arg][0], edit[2])
    elif kind == "nobuilder" and arg in classes:
        classes[arg] = (not classes[arg][0], classes[arg][1])
    elif kind == "prefix":
        prefix = arg
    return classes, prefix


def _cdl(classes: dict) -> str:
    body = "".join(
        f"  {'<<nobuilder>> ' if nobuilder else ''}class {name} {{ {attr}: int; }}\n"
        for name, (nobuilder, attr) in sorted(classes.items())
    )
    return "classdiagram Shop {\n" + body + "}\n"


@settings(max_examples=25, deadline=None)
@given(st.lists(_EDITS, min_size=1, max_size=4))
def test_incremental_equals_cold_over_edit_scripts(edits):
    composed = compose_reference(FULL_GEN)
    classes, prefix = {"Alpha": (False, "id"), "Beta": (False, "size")}, "create%s"
    with tempfile.TemporaryDirectory() as tmp:
        warm_dir, cold_dir = Path(tmp) / "warm", Path(tmp) / "cold"

        def spec(out):
            return make_spec(FULL_GEN, out, binds={"Factory.factory_method_prefix": prefix})

        report, cache = incremental_generate(
            composed, parse_class_diagram(_cdl(classes)), spec(warm_dir), GenCache()
        )
        assert report.ok
        for edit in edits:
            classes, prefix = _edited(classes, prefix, edit)
            diagram = parse_class_diagram(_cdl(classes))
            report, cache = incremental_generate(composed, diagram, spec(warm_dir), cache)
            assert report.ok, report.violations
            assert generate(composed, diagram, spec(cold_dir)).ok
            assert read_tree(warm_dir) == read_tree(cold_dir), edit


# ---------------------------------------------------------------------------
# Early cutoff: only changed bytes are written

_SMALL_FILES = (
    "Person.oo",
    "PersonBuilder.oo",
    "Receipt.oo",
    "ReceiptBuilder.oo",
    "ShopFactory.oo",
    "trace.map",
)

_DAMAGE = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(_SMALL_FILES)),
    st.tuples(
        st.just("mutate"), st.sampled_from(_SMALL_FILES), st.integers(0, 4096), st.integers(1, 255)
    ),
    st.tuples(st.just("append"), st.sampled_from(_SMALL_FILES), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("stray"), st.sampled_from(("notes.txt", ".hidden", "p/q.oo"))),
    st.tuples(st.just("empty dir"), st.sampled_from(("p", "Receipt.oo", "Person.oo.d"))),
    st.tuples(st.just("symlink"), st.sampled_from(_SMALL_FILES)),
    st.tuples(st.just("dir symlink"), st.sampled_from(("linked", "p/linked"))),
)


def _damage(out: Path, outside: Path, damage: tuple) -> bool:
    """Apply one damage to an output directory; False if it does not apply."""
    kind, target = damage[0], out / damage[1]
    if kind in ("stray", "empty dir", "dir symlink"):
        if target.exists() or target.is_symlink():
            return False
        if kind == "stray":
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(b"stray\n")
        elif kind == "dir symlink":  # a stray link to a directory outside the output
            target.parent.mkdir(parents=True, exist_ok=True)
            target.symlink_to(outside, target_is_directory=True)
        else:
            target.mkdir(parents=True)
        return True
    if target.is_symlink() or not target.is_file():
        return False
    if kind == "delete":
        target.unlink()
    elif kind == "mutate":
        data = bytearray(target.read_bytes())
        data[damage[2] % len(data)] ^= damage[3]
        target.write_bytes(bytes(data))
    elif kind == "append":
        with target.open("ab") as f:
            f.write(damage[2])
    else:  # the same bytes, reached through a symlink
        copy = outside / damage[1]
        target.rename(copy)
        target.symlink_to(copy)
    return True


def _shape(root: Path) -> dict[str, object]:
    """Every entry under root: a file's bytes, "dir", or "symlink"."""
    shape: dict[str, object] = {}
    for folder, dirs, names in os.walk(root):
        for name in dirs + names:
            path = Path(folder, name)
            rel = path.relative_to(root).as_posix()
            if path.is_symlink():
                shape[rel] = "symlink"
            else:
                shape[rel] = "dir" if path.is_dir() else path.read_bytes()
    return shape


@pytest.mark.parametrize("incremental", [False, True], ids=["plain", "incremental"])
@settings(max_examples=30, deadline=None)
@given(damages=st.lists(_DAMAGE, min_size=1, max_size=4))
# One byte of "Person.oo:1-4 Types Class" changed in its path, span, component and feature.
@example(damages=[("mutate", "trace.map", 0, 1)])
@example(damages=[("mutate", "trace.map", 12, 1)])
@example(damages=[("mutate", "trace.map", 14, 1)])
@example(damages=[("mutate", "trace.map", 20, 1)])
@example(damages=[("delete", "trace.map"), ("dir symlink", "linked")])
def test_generate_over_a_damaged_output_yields_the_cold_tree(incremental, damages):
    """Damage is repaired, and every file it left alone keeps its inode and mtime.

    Without its trace map, a directory holding a stray file or a stray symlink
    to a directory is not genline's and is refused as it stands.
    """
    composed, diagram = compose_reference(FULL_GEN), _small_diagram()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out, outside = root / "out", root / "outside"
        outside.mkdir()
        assert generate(composed, diagram, make_spec(FULL_GEN, root / "cold")).ok
        spec = make_spec(FULL_GEN, out)
        if incremental:
            _, cache = incremental_generate(composed, diagram, spec, GenCache())
        else:
            assert generate(composed, diagram, spec).ok
        before = {name: (out / name).stat() for name in _SMALL_FILES}
        applied = [damage[:2] for damage in damages if _damage(out, outside, damage)]
        damaged = {name for _, name in applied}

        def rerun():
            if incremental:
                return incremental_generate(composed, diagram, spec, cache)[0]
            return generate(composed, diagram, spec)

        if ("delete", TRACE_FILE) in applied and any(
            kind in ("stray", "dir symlink") for kind, _ in applied
        ):
            damaged_shape = _shape(out)
            with pytest.raises(GenerationIOError, match="refusing to replace"):
                rerun()
            assert _shape(out) == damaged_shape
            return
        assert rerun().ok
        assert _shape(out) == _shape(root / "cold")
        assert sorted(p.name for p in root.iterdir()) == ["cold", "out", "outside"]
        for name, old in before.items():
            new = (out / name).stat()
            if name not in damaged:
                assert (new.st_ino, new.st_mtime_ns) == (old.st_ino, old.st_mtime_ns), name
