from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genline.classdiagram import ClassDecl, ClassDiagram, parse_class_diagram
from genline.components import (
    FACT_TOPICS,
    Behavior,
    ComponentInterface,
    GeneratorComponent,
    check_bindings,
)
from genline.composition import compose_all
from genline import generation, ootl
from genline.formula import TRUE
from genline.generation import (
    CORE_FEATURE,
    GEN_CLAIM,
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
    GenContext,
    GenerationIOError,
    TraceIndex,
    TraceRegion,
    generate,
    incremental_generate,
    resolve_hooks,
    run_digest,
    unchanged_run,
)

from helpers import (
    ALL_FEATURES,
    compose_reference,
    covering_diagram,
    instances_built,
    make_spec,
    read_tree,
    refused_artifact_path,
    restrict_diagram,
)

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


def _unit(path, component, text="package P;\nclass A {\n}\n"):
    container = ArtifactContainer(path, component)
    container.append(text)
    return container


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
    # artifact.claimed is the engine's own fact: a component cannot forge it either.
    with pytest.raises(BlackboardError, match="does not declare producing"):
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


_BOARD_TOPICS = tuple(sorted(FACT_TOPICS))
_PAYLOADS = ({}, {"kind": "class"}, {"kind": "enum", "tags": ""})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from((*_BOARD_TOPICS, "weather.today")),
            st.sampled_from(_PRODUCERS),
            st.sampled_from(_SUBJECTS),
            st.sampled_from(_PAYLOADS),
            st.none() | st.frozensets(st.sampled_from(_BOARD_TOPICS)),  # the producer's produces
            st.booleans(),  # publish a Fact, or add its parts
        ),
        max_size=40,
    ),
    st.frozensets(st.sampled_from(_BOARD_TOPICS)),
)
def test_a_board_that_keeps_only_read_topics_answers_as_one_that_keeps_all(ops, read):
    board, everything = Blackboard(read), Blackboard()

    def outcome(target, topic, producer_id, subject, payload, produces, whole):
        producer = None if produces is None else _mk(producer_id, produces=produces)
        try:
            if whole:
                target.publish(Fact.make(topic, producer_id, subject, payload), producer)
            else:
                target.add(topic, producer_id, subject, tuple(sorted(payload.items())), producer)
        except BlackboardError as exc:
            return str(exc)
        return None

    for op in ops:
        # The ontology, producer and conflict errors are the same on every topic.
        assert outcome(board, *op) == outcome(everything, *op)
    assert board.count == everything.count
    assert board.facts == [f for f in everything.facts if f.topic in read]
    for topic in _BOARD_TOPICS:
        if topic in read:
            assert board.query(topic) == everything.query(topic)
            for subject in _SUBJECTS:
                assert board.query(topic, subject) == everything.query(topic, subject)
        else:
            with pytest.raises(BlackboardError, match=f"{topic!r} is not read"):
                board.query(topic, _SUBJECTS[0])
    with pytest.raises(BlackboardError, match="outside the ontology"):
        board.query("weather.today")


def test_an_unread_fact_is_counted_and_checked_but_not_kept():
    board = Blackboard({"type.generated"})
    board.add("method.generated", "C", "A.f")
    board.add("method.generated", "C", "A.f")  # a repeat is dropped
    board.publish(Fact.make("type.generated", "C", "A"))
    assert board.count == 2
    assert board.facts == [Fact.make("type.generated", "C", "A")]
    with pytest.raises(BlackboardError, match="conflicting facts"):
        board.add("method.generated", "C", "A.f", (("kind", "static"),))
    with pytest.raises(BlackboardError, match="'method.generated' is not read"):
        board.query("method.generated")


def _declaring(*components: GeneratorComponent) -> GenContext:
    """A fresh run's context in the declare phase, for components without options."""
    spec = make_spec(("CD2Java",), "out")
    ctx = GenContext(EMPTY_DIAGRAM, spec, check_bindings(spec, components), Blackboard())
    ctx.phase = "declare"
    return ctx


def test_a_claim_by_another_component_names_both():
    first, second = _mk("First"), _mk("Second")
    ctx = _declaring(first, second)
    ctx.claim(first, "A.oo", _unit, "A.oo", "First")
    with pytest.raises(ClaimConflictError) as err:
        ctx.claim(second, "A.oo", _unit, "A.oo", "Second")
    assert (err.value.path, err.value.holder, err.value.claimant) == ("A.oo", "First", "Second")
    assert "First" in str(err.value) and "Second" in str(err.value)
    claimed = ctx.board.query("artifact.claimed")
    assert [(f.producer, f.subject) for f in claimed] == [("First", "A.oo")]


_PATH_PIECES = ("a", ".", "..", "/", "trace.map", "gencache.map")
# Characters that str.split() or str.splitlines() break on, some of them outside ASCII.
_WHITESPACE_PIECES = (" ", "\t", "\n", "\x1c", "\xa0", "\u2028")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PATH_PIECES + _WHITESPACE_PIECES), max_size=6).map("".join))
@example("")
@example("//a")
@example("a/")
@example("./a")
@example("a/./a")
@example("a/trace.map")
@example("a b.oo")
@example("a\tb.oo")
@example("a\nb.oo")
@example("a\u2028b.oo")
def test_claim_path_rule_matches_the_pure_path_rule(path):
    """A claim is refused where the pure path rule refuses it, and where the
    path holds whitespace, which the trace and cache maps split their lines
    on. Every accepted path survives both maps' text form."""
    comp = _mk("C")
    ctx = _declaring(comp)
    try:
        ctx.claim(comp, path, _unit, path, "C")
    except EngineError as exc:
        assert repr(path) in str(exc)
        assert "artifact path must be relative" in str(exc) or "a file of the engine" in str(exc)
        refused = True
    else:
        refused = False
        region = TraceRegion(1, 3, ("core",), "C")
        trace = TraceIndex.from_text(TraceIndex({path: [region]}).to_text())
        assert trace.by_artifact == {path: (region,)}
        cache = GenCache({path: ("0" * 64, "f" * 64)})
        assert GenCache.from_text(cache.to_text()).entries == cache.entries
    assert refused == (refused_artifact_path(path) or any(c.isspace() for c in path))


@pytest.mark.parametrize(
    "first, second",
    [("A.oo", "A.oo/B.oo"), ("A.oo/B.oo", "A.oo"), ("p/q/A.oo", "p/q"), ("p/q", "p/q/r/A.oo")],
)
def test_nested_claims_are_refused_in_either_order(first, second):
    one, two = _mk("First"), _mk("Second")
    ctx = _declaring(one, two)
    ctx.claim(one, first, _unit, first, "First")
    with pytest.raises(EngineError) as err:
        ctx.claim(two, second, _unit, second, "Second")
    for name in (repr(first), repr(second), "'First'", "'Second'"):
        assert name in str(err.value)
    assert list(ctx.claim_meta) == [first]


@pytest.mark.parametrize("path", ["trace.map/x.oo", "gencache.map/x.oo", "gencache.map/p/x.oo"])
def test_a_claim_inside_an_engine_file_is_refused(path):
    comp = _mk("C")
    ctx = _declaring(comp)
    with pytest.raises(EngineError) as err:
        ctx.claim(comp, path, _unit, path, "C")
    folder = path.partition("/")[0]
    for name in (repr(path), repr(folder), "'C'", "the engine"):
        assert name in str(err.value)
    assert ctx.claim_meta == {}


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


class _OracleContainer:
    """The container's regions as ``ArtifactContainer.append`` kept them when it
    built a ``TraceRegion`` for every call."""

    def __init__(self, component: str):
        self.component = component
        self.regions: list[TraceRegion] = []
        self._content = ""

    def append(self, text, features=()):
        if not text.endswith("\n"):
            raise ValueError(f"region text must end with a newline: {text!r}")
        feats = tuple(sorted(set(features))) or (CORE_FEATURE,)
        start = self.regions[-1].end + 1 if self.regions else 1
        end = start + text.count("\n") - 1
        self._content += text
        if self.regions and self.regions[-1].features == feats:
            self.regions[-1] = TraceRegion(self.regions[-1].start, end, feats, self.component)
        else:
            self.regions.append(TraceRegion(start, end, feats, self.component))

    def content(self):
        return self._content

    def line_count(self):
        return self.regions[-1].end if self.regions else 0


_FEATURE_KINDS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda names: (name for name in names),
    "frozenset": frozenset,
}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.text(st.characters(exclude_characters="\n"), max_size=4), min_size=1, max_size=3),
            st.booleans(),  # the last line lacks its newline
            st.sampled_from(sorted(_FEATURE_KINDS)),
            st.lists(st.sampled_from(("B", "A", "core", "Class")), max_size=4),
            st.booleans(),  # read the regions after this call
        ),
        max_size=25,
    )
)
def test_container_regions_match_one_region_per_call(calls):
    container, oracle = ArtifactContainer("A.oo", "C"), _OracleContainer("C")

    def state(c):
        return c.regions, c.content(), c.line_count()

    for lines, cut, kind, names, peek in calls:
        text = "".join(line + "\n" for line in lines)
        if cut:
            text = text.rstrip("\n")
            before = state(container)
            with pytest.raises(ValueError, match="end with a newline"):
                oracle.append(text, _FEATURE_KINDS[kind](names))
            with pytest.raises(ValueError, match="end with a newline"):
                container.append(text, _FEATURE_KINDS[kind](names))
            assert state(container) == before
            continue
        oracle.append(text, _FEATURE_KINDS[kind](names))
        container.append(text, _FEATURE_KINDS[kind](names))
        if peek:
            assert state(container) == state(oracle)
    assert state(container) == state(oracle)


def test_a_reference_generate_builds_no_unread_fact_and_no_spare_region(tmp_path):
    selected = frozenset(ALL_FEATURES)
    diagram = restrict_diagram(covering_diagram(), selected, "hybrid")
    spec = make_spec(selected, tmp_path / "read", "hybrid")
    with instances_built(Fact) as facts, instances_built(TraceRegion) as regions:
        report = generate(compose_reference(selected), diagram, spec)
    assert report.ok, report.violations
    topics = {fact.topic for fact in facts}
    assert topics == {"type.generated", "constructor.generated", "hook.provided", "hook.required"}
    trace = (tmp_path / "read" / TRACE_FILE).read_text()
    assert 0 < len(regions) <= trace.count("\n")
    # A board that keeps every topic counts the same facts and writes the same bytes.
    spec_all = make_spec(selected, tmp_path / "all", "hybrid")
    with mock.patch.object(generation, "Blackboard", lambda read: Blackboard()):
        report_all = generate(compose_reference(selected), diagram, spec_all)
    # The claims and methods are counted, though no Fact is made of them.
    assert report_all.facts_count == report.facts_count > len(facts)
    assert read_tree(tmp_path / "all") == read_tree(tmp_path / "read")


def test_syntax_gate_reports_the_position_check_unit_finds(tmp_path):
    good = ArtifactContainer("A.oo", "C")
    good.append("package P;\nclass A {\n}\n")
    assert ootl.check_unit(good.content()) is None

    bad = ArtifactContainer("B.oo", "C")
    bad.append("package P;\nclass B {\n")
    error = ootl.check_unit(bad.content())
    assert (error.line, error.column) == (3, 1)

    def declare(ctx, comp):
        ctx.claim(comp, "B.oo", lambda: bad)

    comp = _mk("C", (Behavior("declare_b", TRUE, declare),))
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
    assert trace.to_text() == (
        "A.oo:1-2 C Class\n"
        "A.oo:3-3 C DefaultConstructor\n"
        "A.oo:4-4 C Class\n"
    )
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
    assert (corrupt.run, corrupt.trace) == (None, "")

    # The run line: written only with the run, trace and stat digests all known.
    other = hashlib.sha256(b"y").hexdigest()
    assert GenCache(cache.entries, trace=other, stat=other).to_text() == cache.to_text()
    assert GenCache(cache.entries, run=(digest, 12), stat=other).to_text() == cache.to_text()
    assert GenCache(cache.entries, trace=other, run=(digest, 12)).to_text() == cache.to_text()
    ran = GenCache(cache.entries, trace=other, run=(digest, 12), stat=other)
    assert ran.to_text() == cache.to_text() + f"run {digest} 12 {other} {other}\n"
    again = GenCache.from_text(ran.to_text())
    assert (again.entries, again.trace, again.run) == (cache.entries, other, (digest, 12))
    artifacts = cache.to_text()
    for damaged in (
        f"run {'z' * 64} 12 {other} {other}",  # a run digest that is not one
        f"run {digest} 12 {other[:-1]} {other}",  # a trace digest one digit short
        f"run {digest} twelve {other} {other}",  # a count that is not an integer
        f"run {digest} -12 {other} {other}",
        f"run {digest} \u0661\u0662 {other} {other}",  # digits, but not ASCII ones
        f"run {digest} 12 {other} {other} extra",  # a field too many
        f"run {digest} 12 {other}",  # one too few, as written before the stat digest
        f"run {digest} 12",  # three too few
    ):
        parsed = GenCache.from_text(artifacts + damaged + "\n")
        assert (parsed.entries, parsed.run, parsed.trace) == (cache.entries, None, ""), damaged


def test_gencache_takes_only_digests_as_hexdigest_writes_them():
    # int(x, 16) would take each of these 64-character fields.
    digest = hashlib.sha256(b"x").hexdigest()
    for bad in ("0x" + "a" * 62, "+" + "a" * 63, "a_a" + "a" * 61, "A" * 64):
        assert GenCache.from_text(f"X.oo {bad} {digest}\n").entries == {}, bad
        assert GenCache.from_text(f"X.oo {digest} {bad}\n").entries == {}, bad
        for run_line in (
            f"run {bad} 3 {digest} {digest}",
            f"run {digest} 3 {bad} {digest}",
            f"run {digest} 3 {digest} {bad}",
        ):
            parsed = GenCache.from_text(run_line + "\n")
            assert (parsed.run, parsed.trace, parsed.stat) == (None, "", ""), run_line
    assert GenCache.from_text(f"X.oo {digest} {digest}\n").entries == {"X.oo": (digest, digest)}


def test_the_run_line_carries_the_stat_digest_as_a_fifth_field():
    digest, trace, stat = (hashlib.sha256(text).hexdigest() for text in (b"x", b"y", b"z"))
    entries = {"A.oo": (digest, digest)}
    cache = GenCache(entries, trace=trace, run=(digest, 12), stat=stat)
    assert cache.to_text() == f"A.oo {digest} {digest}\nrun {digest} 12 {trace} {stat}\n"
    again = GenCache.from_text(cache.to_text())
    assert (again.entries, again.trace, again.run) == (entries, trace, (digest, 12))
    assert again.stat == stat
    # A run line of four fields, as written before the stat digest existed, is
    # not read: the map has no run line, and the next run goes through the engine.
    older = GenCache.from_text(f"A.oo {digest} {digest}\nrun {digest} 12 {trace}\n")
    assert (older.entries, older.trace, older.run, older.stat) == (entries, "", None, "")
    assert older.to_text() == f"A.oo {digest} {digest}\n"


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
        def build():
            container = ArtifactContainer("A.oo", comp.id)
            container.append("package P;\n")
            container.append("class A {\n}\n")
            return container

        ctx.claim(comp, "A.oo", build)

    comp = _mk("Simple", (Behavior("declare_a", TRUE, declare),))
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
        ctx.claim(comp, "Person.oo", _unit, "Person.oo", comp.id)

    squatter = _mk("Squatter", (Behavior("declare_squat", TRUE, declare),))
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
        ctx.claim(comp, "A.oo", _unit, "A.oo", comp.id)
        ctx.publish(comp, "hook.required", "MissingProvider")

    comp = _mk(
        "Needy", (Behavior("declare_a", TRUE, declare),), produces=("hook.required",)
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

@pytest.mark.parametrize("misuse", ["claim", "publish"])
def test_phase_discipline_is_enforced(tmp_path, misuse):
    # Builders run after the declare phase, so a builder may neither claim nor publish.
    def declare(ctx, comp):
        def build():
            if misuse == "claim":
                ctx.claim(comp, "B.oo", _unit, "B.oo", comp.id)
            else:
                ctx.publish(comp, "method.generated", "A.f")
            return _unit("A.oo", comp.id)

        ctx.claim(comp, "A.oo", build)

    comp = _mk(
        "Bad", (Behavior("declare_a", TRUE, declare),), produces=("method.generated",)
    )
    out = tmp_path / "o"
    with pytest.raises(EngineError, match=f"{misuse} is only allowed in the declare phase"):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), out))
    assert not out.exists()


@pytest.mark.parametrize("built", [("B.oo", "Owner"), ("A.oo", "SomeoneElse")])
def test_a_builder_must_return_its_claims_container(tmp_path, built):
    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", _unit, *built)

    comp = _mk("Owner", (Behavior("declare_a", TRUE, declare),))
    out = tmp_path / "o"
    wrong = "'A.oo', claimed by 'Owner', returned '{}' built for '{}'".format(*built)
    with pytest.raises(EngineError, match=wrong):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), out))
    assert not out.exists()


def test_a_path_claimed_twice_by_one_component_is_refused(tmp_path):
    built: list[str] = []

    def declare(ctx, comp):
        for text in ("first", "second"):
            ctx.claim(comp, "A.oo", lambda t: built.append(t) or _unit("A.oo", comp.id), text)

    comp = _mk("Owner", (Behavior("declare_a", TRUE, declare),))
    out = tmp_path / "o"
    with pytest.raises(EngineError, match="artifact 'A.oo' claimed twice by 'Owner'"):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), out))
    assert built == [] and not out.exists()


@pytest.mark.parametrize("mode", ["run_time", "hybrid"])
@pytest.mark.parametrize(
    "kind", ["class PersonProvider { id: int; }", "interface PersonProvider { id(): int; }",
             "enum PersonProvider { A, B }"],
)
def test_a_type_named_like_a_provider_is_refused(tmp_path, mode, kind):
    # In run_time and hybrid mode Types claims "<Class>Provider.oo" for each class,
    # so a user type named PersonProvider would otherwise be replaced by the provider.
    diagram = parse_class_diagram(
        "classdiagram D {\n  class Person { name: string; }\n  " + kind + "\n}\n"
    )
    features = ("CD2Java", "Types", "Class", "Interface", "Enum")
    out = tmp_path / "out"
    with pytest.raises(EngineError, match="artifact 'PersonProvider.oo' claimed twice by 'Types'"):
        generate(compose_reference(features), diagram, make_spec(features, out, mode=mode))
    assert not out.exists()


@pytest.mark.parametrize(
    "claimed",
    ["../escape.oo", "trace.map", "gencache.map", "{tmp}/abs.oo", "./A.oo", "p//q.oo", "p/", ".", ""],
)
def test_claim_paths_stay_inside_the_output(tmp_path, claimed):
    path = claimed.format(tmp=tmp_path)

    def declare(ctx, comp):
        ctx.claim(comp, path, _unit, path, comp.id)

    hostile = _mk("Hostile", (Behavior("declare_h", TRUE, declare),))
    composed = compose_reference(FULL_GEN)
    spec = make_spec(FULL_GEN, tmp_path / "out")
    assert generate(composed, _small_diagram(), spec).ok
    before = read_tree(tmp_path)
    with pytest.raises(EngineError, match="artifact path must be relative"):
        generate(compose_all([*composed.components, hostile]), _small_diagram(), spec)
    assert read_tree(tmp_path) == before


def test_publish_requires_declared_topic(tmp_path):
    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", _unit, "A.oo", comp.id)
        ctx.publish(comp, "method.generated", "A.f")

    comp = _mk("Undeclared", (Behavior("declare_a", TRUE, declare),))
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
            "29528d47b6f886c9ae29b6dcfa367b1414a6f68ca49d2ad40935f81b4e735a07",
            "9a72935514fff2a6e6d3b21a4d0443de89240321fb67125c57c1419e7502a7c6",
        ),
        "PersonBuilder.oo": (
            "a07d1787b432ccc922787efd1fa8a05fdb60b889a1a2e2869549e525701d15d4",
            "c6d029255c4684c6179f4163818692e554357d71d3e7c87f88f5caf9e31a9ee1",
        ),
        "Receipt.oo": (
            "bb73078f400dccc29cfffba02b18c8d5140ff8e87f71f404cf7b3eb2b3f9417b",
            "0bb8e1d4da2752c266b99b252555ca0d9cd3ea32d75c0d7274de05af5403ed20",
        ),
        "ReceiptBuilder.oo": (
            "081b61a20b33d03f0d3a0f5b9e1dac7a33eea7968fcd3b523d0d18123ba567be",
            "5e3f6659e12124a13da58df34a0bb10dad01df544d76814f36a7b127b7137a2f",
        ),
        "ShopFactory.oo": (
            "b0cca5541d2edd40c9244dc3cdb8d97d454452099ca241ba8acd85f0b02f641c",
            "7b10555f79516a4f79389c9f1a3aeeec3a57674c19b522d3f324aa0455308409",
        ),
    },
    "hybrid": {
        "Person.oo": (
            "29528d47b6f886c9ae29b6dcfa367b1414a6f68ca49d2ad40935f81b4e735a07",
            "9a72935514fff2a6e6d3b21a4d0443de89240321fb67125c57c1419e7502a7c6",
        ),
        "PersonBuilder.oo": (
            "a07d1787b432ccc922787efd1fa8a05fdb60b889a1a2e2869549e525701d15d4",
            "c6d029255c4684c6179f4163818692e554357d71d3e7c87f88f5caf9e31a9ee1",
        ),
        "PersonProvider.oo": (
            "c63d10fa1a129eb544a0836f10183e7df0b6e8eabfe5334cd0a1c515545c9e14",
            "6ad55edf26491fc4b6dc54c79ca5ff50460e86b4a07373adcf3c09b3e3123e2e",
        ),
        "Receipt.oo": (
            "bb73078f400dccc29cfffba02b18c8d5140ff8e87f71f404cf7b3eb2b3f9417b",
            "0bb8e1d4da2752c266b99b252555ca0d9cd3ea32d75c0d7274de05af5403ed20",
        ),
        "ReceiptBuilder.oo": (
            "081b61a20b33d03f0d3a0f5b9e1dac7a33eea7968fcd3b523d0d18123ba567be",
            "5e3f6659e12124a13da58df34a0bb10dad01df544d76814f36a7b127b7137a2f",
        ),
        "ReceiptProvider.oo": (
            "7f055bddc5d6b54eeb3d9256ee9a8a99d7982b6bb356e30b45449a927ce58208",
            "65592383423389fa635ffe6a8bd503659e4c0d9e42b61d7a458c173e41298e0a",
        ),
        "ShopFactory.oo": (
            "b0cca5541d2edd40c9244dc3cdb8d97d454452099ca241ba8acd85f0b02f641c",
            "7b10555f79516a4f79389c9f1a3aeeec3a57674c19b522d3f324aa0455308409",
        ),
    },
}


@pytest.mark.parametrize("mode", sorted(_PINNED_CACHE))
def test_gencache_map_is_pinned(tmp_path, mode):
    """A key is the digest of the claiming component's id@version and its
    builder's arguments; a change to how that digest is taken would turn every
    old cache entry into a miss. A claim whose builder does not read the mode
    has the same key in both modes."""
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


def test_incremental_mode_change_builds_only_what_reads_the_mode(tmp_path):
    # Only the factory's arguments (which classes delegate) and the providers
    # depend on the mode; the classes and builders are hits.
    composed, diagram, spec = _pipeline(tmp_path)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    respec = make_spec(FULL_GEN, tmp_path / "out", mode="run_time")
    report, _ = incremental_generate(composed, diagram, respec, cache)
    assert report.ok
    assert report.written == ("PersonProvider.oo", "ReceiptProvider.oo", "ShopFactory.oo")
    assert report.skipped_cache_hits == (
        "Person.oo", "PersonBuilder.oo", "Receipt.oo", "ReceiptBuilder.oo"
    )
    cold_spec = make_spec(FULL_GEN, tmp_path / "cold", mode="run_time")
    assert generate(composed, diagram, cold_spec).ok
    assert read_tree(respec.output_path) == read_tree(cold_spec.output_path)


def test_incremental_tag_change_builds_only_what_reads_the_tag(tmp_path):
    # In hybrid mode <<external>> decides only whether the factory delegates
    # Person to its provider; neither Person.oo nor PersonBuilder.oo reads it.
    composed, diagram, spec = _pipeline(tmp_path, mode="hybrid")
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    tagged = parse_class_diagram(SMALL_CDL.replace("class Person", "<<external>> class Person"))
    report, _ = incremental_generate(composed, tagged, spec, cache)
    assert report.ok
    assert report.written == ("ShopFactory.oo",)
    assert len(report.skipped_cache_hits) == 6
    cold_spec = make_spec(FULL_GEN, tmp_path / "cold", mode="hybrid")
    assert generate(composed, tagged, cold_spec).ok
    assert read_tree(spec.output_path) == read_tree(cold_spec.output_path)


def test_an_enum_turned_interface_of_one_name_is_rebuilt(tmp_path):
    # Both builders take (diagram name, type name, members) for one path; the key,
    # which does not name the builder, must still tell them apart.
    config = (*FULL_GEN, "Enum", "Interface")
    source = SMALL_CDL[:-2] + "  enum Kind { A }\n}\n"
    composed, diagram, spec = _pipeline(tmp_path, source=source, config=config)
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    turned = parse_class_diagram(source.replace("enum Kind { A }", "interface Kind { A(): int; }"))
    report, _ = incremental_generate(composed, turned, spec, cache)
    assert report.written == ("Kind.oo",)
    cold_spec = make_spec(config, tmp_path / "cold")
    assert generate(composed, turned, cold_spec).ok
    assert read_tree(spec.output_path) == read_tree(cold_spec.output_path)


@pytest.mark.parametrize(
    "arg",
    [[1], {"a": 1}, {1}, frozenset({1}), 1.5, ClassDecl("A")],
    ids=["list", "dict", "set", "frozenset", "float", "ClassDecl"],
)
@pytest.mark.parametrize("nested", [False, True], ids=["top", "nested"])
def test_a_claim_argument_that_is_not_plain_data_is_refused(tmp_path, arg, nested):
    # A key is the repr of the arguments: a set or dict would make it depend on
    # the hash seed, an AST node on source positions.
    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", _unit, "A.oo", comp.id, ("x", (1, arg)) if nested else arg)

    comp = _mk("Odd", (Behavior("declare_a", TRUE, declare),))
    out = tmp_path / "o"
    with pytest.raises(EngineError, match="component 'Odd' claims 'A.oo' with builder arguments"):
        generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), out))
    assert not out.exists()


def test_plain_claim_arguments_reach_the_builder(tmp_path):
    args = ("text", -3, True, None, (("a", 1), (), (False, (None,))))
    received = []

    def declare(ctx, comp):
        ctx.claim(comp, "A.oo", lambda *a: received.append(a) or _unit("A.oo", comp.id), *args)

    comp = _mk("Plain", (Behavior("declare_a", TRUE, declare),))
    assert generate(compose_all([comp]), EMPTY_DIAGRAM, make_spec(("CD2Java",), tmp_path / "o")).ok
    assert received == [args]


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


def test_a_racy_file_is_read_though_the_stat_data_match(tmp_path, monkeypatch):
    """A file rewritten within the clock tick of the newest mtime can keep its
    stat data. Such a racy file is read and hashed; an older one is taken at
    its recorded digest unread."""
    composed, diagram, spec = _pipeline(tmp_path)
    out = tmp_path / "out"
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    newest = max(p.stat().st_mtime_ns for p in out.iterdir())
    os.utime(out / "Person.oo", ns=(newest, newest))
    os.utime(out / "Receipt.oo", ns=(newest - 10**9, newest - 10**9))
    _, cache = incremental_generate(composed, diagram, spec, cache)  # records Person.oo as racy
    recorded = generation._scan(os.path.realpath(out))
    assert generation._stat_digest(recorded[1]) == cache.stat
    canonical = (out / "Person.oo").read_bytes()
    for name in ("Person.oo", "Receipt.oo"):  # the same size, other bytes
        (out / name).write_bytes((out / name).read_bytes().replace(b"class", b"CLASS", 1))
    # As if both were rewritten in that tick: the scan finds the recorded stat data.
    monkeypatch.setattr(generation, "_scan", lambda *_, **__: recorded)
    reads = []
    real_read = generation._read
    monkeypatch.setattr(
        generation, "_read", lambda out, path: reads.append(path) or real_read(out, path)
    )
    report, _ = incremental_generate(composed, diagram, spec, cache)
    assert report.written == ("Person.oo",)
    assert (out / "Person.oo").read_bytes() == canonical
    assert "Person.oo" in reads and "Receipt.oo" not in reads


def test_a_trusted_file_keeps_its_line_count_check_unless_the_trace_map_is_as_recorded(
    tmp_path, monkeypatch
):
    composed, diagram, spec = _pipeline(tmp_path)
    out = tmp_path / "out"
    _, cache = incremental_generate(composed, diagram, spec, GenCache())
    old = (out / "Person.oo").stat().st_mtime_ns - 10**9
    os.utime(out / "Person.oo", ns=(old, old))
    _, cache = incremental_generate(composed, diagram, spec, cache)  # records Person.oo as older
    recorded = generation._scan(os.path.realpath(out))
    assert generation._stat_digest(recorded[1]) == cache.stat
    cold = read_tree(out)
    # One line too many for Person.oo, at the same size, and the recorded stat data.
    (out / TRACE_FILE).write_bytes(cold[TRACE_FILE].replace(b"Person.oo:6-6 ", b"Person.oo:6-7 "))
    monkeypatch.setattr(generation, "_scan", lambda *_, **__: recorded)
    report, _ = incremental_generate(composed, diagram, spec, cache)
    assert report.written == ("Person.oo",)
    assert read_tree(out) == cold


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
            ctx.claim(comp, path, _unit, path, comp.id, "package P;\n" + body)

    comp = _mk("Nested", (Behavior("declare_n", TRUE, declare),))
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


def test_builders_run_only_for_misses(tmp_path):
    built = []

    def declare(ctx, comp):
        for cls in ctx.diagram.classes():
            fields = "".join(f"  {a.type_name} {a.name};\n" for a in cls.attributes)
            ctx.claim(comp, f"{cls.name}.oo", build, cls.name, fields)

    def build(name, fields):
        built.append(f"{name}.oo")
        return _unit(f"{name}.oo", "Counted", f"package P;\nclass {name} {{\n{fields}}}\n")

    composed = compose_all([_mk("Counted", (Behavior("declare_c", TRUE, declare),))])
    spec = make_spec(("CD2Java",), tmp_path / "out")
    assert generate(composed, _small_diagram(), spec).ok
    assert built == ["Person.oo", "Receipt.oo"]

    built.clear()
    report, cache = incremental_generate(composed, _small_diagram(), spec, GenCache())
    assert tuple(built) == report.written == ("Person.oo", "Receipt.oo")

    built.clear()
    report, cache = incremental_generate(composed, _small_diagram(), spec, cache)
    assert (built, report.written) == ([], ())
    assert report.skipped_cache_hits == ("Person.oo", "Receipt.oo")

    edited = parse_class_diagram(SMALL_CDL.replace("total: int;", "total: int; paid: int;"))
    report, _ = incremental_generate(composed, edited, spec, cache)
    assert tuple(built) == report.written == ("Receipt.oo",)
    assert report.skipped_cache_hits == ("Person.oo",)


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
    st.tuples(st.just("none"), st.none()),
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


_SAMPLE_DIGEST = """
import sys
from pathlib import Path
sys.path.insert(0, {src!r})
from genline import (
    build_reference_registry, check_bindings, compose_all, parse_variant_spec,
    reference_feature_model, resolve_components,
)
from genline.generation import run_digest
vsp = Path({vsp!r})
spec = parse_variant_spec(vsp.read_text(encoding="utf-8"), base_dir=str(vsp.parent))
registry = build_reference_registry(reference_feature_model())
composed = compose_all(resolve_components(spec.configuration, registry))
bindings = check_bindings(spec, composed.components)
print(run_digest(Path(spec.model_path).read_text(encoding="utf-8"), spec, composed, bindings))
"""


def test_run_digest_repeats_across_hash_seeds():
    # Sets and dicts iterate in an order that depends on the hash seed; an
    # unsorted one in the digest would make the cutoff miss between two
    # genline invocations.
    root = Path(__file__).resolve().parents[1]
    code = _SAMPLE_DIGEST.format(src=str(root / "src"), vsp=str(root / "samples" / "shop.vsp"))
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout.strip())
    assert len(digests) == 1
    assert len(digests.pop()) == 64


def test_cache_keys_repeat_across_hash_seeds(tmp_path):
    # Two fresh outputs of one variant under two hash seeds get the same cache
    # map, but for the stat digest ending the run line: it records inodes and mtimes.
    root = Path(__file__).resolve().parents[1]
    maps = []
    for hash_seed in ("1", "2"):
        folder = tmp_path / hash_seed
        folder.mkdir()
        for name in ("shop.cdl", "shop.vsp"):
            (folder / name).write_bytes((root / "samples" / name).read_bytes())
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "genline.cli", "generate", "--incremental",
             "-s", str(folder / "shop.vsp")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        text = (folder / "generated" / "gencache.map").read_text()
        assert text.splitlines()[-1].startswith("run ")
        maps.append(text.rpartition(" ")[0])
    assert maps[0] == maps[1]
    assert maps[0].count("\n") == 11  # one line per artifact


def test_run_digest_covers_every_input(tmp_path):
    composed = compose_reference(FULL_GEN)
    spec = make_spec(FULL_GEN, tmp_path / "out")

    def digest(text=SMALL_CDL, spec=spec, composed=composed):
        return run_digest(text, spec, composed, check_bindings(spec, composed.components))

    bumped = compose_all(
        dataclasses.replace(c, version="9.9.9") if c.id == "Builder" else c
        for c in composed.components
    )
    variants = [
        digest(),
        digest(text=SMALL_CDL.replace("age", "years")),
        digest(spec=make_spec(FULL_GEN, tmp_path / "out", mode="hybrid")),
        digest(spec=make_spec(FULL_GEN, tmp_path / "out", options={"Types.generate_enums": True})),
        digest(spec=make_spec(FULL_GEN, tmp_path / "out", binds={"Factory.factory_method_prefix": "make%s"})),
        digest(composed=bumped),
    ]
    assert len(set(variants)) == len(variants)
    fewer = FULL_GEN[:-1]  # without Factory: another feature set and component list
    assert digest(spec=make_spec(fewer, tmp_path / "out"), composed=compose_reference(fewer)) not in variants
    # Where the output goes and what the variant is called are not inputs.
    assert digest(spec=make_spec(FULL_GEN, tmp_path / "elsewhere", name="other")) == variants[0]


def _rerun(composed, text: str, spec, cache_text: str) -> tuple[object, str, bool]:
    """An incremental run as ``genline generate --incremental`` makes it: the
    whole-run cutoff first, then the engine. Returns the report, the new cache
    map text and whether the cutoff answered."""
    cache = GenCache.from_text(cache_text)
    digest = run_digest(text, spec, composed, check_bindings(spec, composed.components))
    report = unchanged_run(spec.output_path, cache, digest)
    if report is not None:
        return report, cache_text, True
    report, cache = incremental_generate(composed, parse_class_diagram(text), spec, cache)
    cache.run = (digest, report.facts_count)
    return report, cache.to_text(), False


@settings(max_examples=25, deadline=None)
@given(st.lists(_EDITS, min_size=1, max_size=4))
@example([("none", None)])
def test_incremental_equals_cold_over_edit_scripts(edits):
    composed = compose_reference(FULL_GEN)
    classes, prefix = {"Alpha": (False, "id"), "Beta": (False, "size")}, "create%s"
    with tempfile.TemporaryDirectory() as tmp:
        warm_dir, cold_dir = Path(tmp) / "warm", Path(tmp) / "cold"

        def spec(out):
            return make_spec(FULL_GEN, out, binds={"Factory.factory_method_prefix": prefix})

        report, cache_text, _ = _rerun(composed, _cdl(classes), spec(warm_dir), "")
        assert report.ok
        for edit in edits:
            before = _cdl(classes), prefix
            classes, prefix = _edited(classes, prefix, edit)
            report, cache_text, cut = _rerun(composed, _cdl(classes), spec(warm_dir), cache_text)
            assert report.ok, report.violations
            # Only a run whose inputs are unchanged may be cut off, and it always is.
            assert cut == ((_cdl(classes), prefix) == before), edit
            assert report.trace.to_text() == (warm_dir / TRACE_FILE).read_text()
            cold = generate(composed, parse_class_diagram(_cdl(classes)), spec(cold_dir))
            assert cold.ok
            assert read_tree(warm_dir) == read_tree(cold_dir), edit
            assert report.facts_count == cold.facts_count
            assert sorted(report.written + report.skipped_cache_hits) == list(cold.written)


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
