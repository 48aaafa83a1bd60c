"""Generation engine: run a composed generator's schedule over an input model.

The run is phased. Front-end behaviors restrict the input (context
conditions), declare behaviors claim artifact paths and publish facts on the
blackboard, emit behaviors fill artifact containers. Nothing touches the
filesystem until every container has passed syntax validation and every
required hook is resolved; then all files are written in one atomic
stage-and-swap. Incremental runs reuse artifacts whose cache key (input
element, component, options, consumed facts) is unchanged, with outputs
byte-identical to a cold run. Every run, incremental or not, writes only the
files whose bytes changed: a cache hit, or a file already on disk with the
same bytes, is hard-linked into the stage, never rewritten, and a run that
changes nothing leaves the output directory alone. The engine looks at that
directory once per run: one resolved path and one scan serve every step.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import uuid
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Collection, Iterable, Mapping, Sequence

from . import ootl
from .classdiagram import ClassDiagram, ContextCondition, check_context_conditions
from .components import (
    FACT_TOPICS,
    PHASES,
    Bindings,
    GeneratorComponent,
    VariantSpec,
    check_bindings,
)
from .composition import ComposedGenerator, schedule
from .report import ValidationReport, Violation

GEN_CLAIM = "GEN-CLAIM"
GEN_EMIT = "GEN-EMIT"
GEN_SYNTAX = "GEN-SYNTAX"
GEN_HOOK = "GEN-HOOK"

CORE_FEATURE = "core"

TRACE_FILE = "trace.map"
CACHE_FILE = "gencache.map"
_DIR, _OTHER = -1, -2  # scan markers: a folder, and what is neither a folder nor a regular file


class BlackboardError(RuntimeError):
    """A component broke the fact-exchange discipline."""


class ClaimConflictError(Exception):
    """Two components claimed the same artifact path."""

    def __init__(self, path: str, holder: str, claimant: str):
        super().__init__(
            f"artifact {path!r} claimed by both {holder!r} and {claimant!r}"
        )
        self.path = path
        self.holder = holder
        self.claimant = claimant


class GenerationIOError(Exception):
    """Writing the staged outputs failed; distinct from validation failures."""


class EngineError(RuntimeError):
    """A behavior used the engine context outside its phase or ownership."""


# ---------------------------------------------------------------------------
# Blackboard

@dataclass(frozen=True)
class Fact:
    topic: str
    producer: str  # component id
    subject: str
    payload: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def make(topic: str, producer: str, subject: str, payload: Mapping[str, str] | None = None) -> "Fact":
        items = tuple(sorted((payload or {}).items()))
        return Fact(topic=topic, producer=producer, subject=subject, payload=items)


class Blackboard:
    """Shared fact store plus artifact claims for one generation run.

    ``facts`` keeps publication order; every lookup goes through one index,
    topic -> subject -> producer -> fact.
    """

    def __init__(self) -> None:
        self.facts: list[Fact] = []
        self.claims: dict[str, str] = {}  # artifact path -> component id
        self._index: dict[str, dict[str, dict[str, Fact]]] = {}

    def publish(self, fact: Fact, producer: GeneratorComponent | None = None) -> None:
        if fact.topic not in FACT_TOPICS:
            raise BlackboardError(f"fact topic {fact.topic!r} is outside the ontology")
        if producer is not None and fact.topic != "artifact.claimed":
            if fact.topic not in producer.interface.produces:
                raise BlackboardError(
                    f"component {producer.id!r} does not declare producing {fact.topic!r}"
                )
        by_producer = self._index.setdefault(fact.topic, {}).setdefault(fact.subject, {})
        existing = by_producer.get(fact.producer)
        if existing is not None:
            if existing.payload != fact.payload:
                key = (fact.topic, fact.producer, fact.subject)
                raise BlackboardError(
                    f"conflicting facts for {key}: {existing.payload!r} vs {fact.payload!r}"
                )
            return
        by_producer[fact.producer] = fact
        self.facts.append(fact)

    def query(
        self,
        topic: str,
        subject: str | None = None,
        consumer: GeneratorComponent | None = None,
    ) -> tuple[Fact, ...]:
        if topic not in FACT_TOPICS:
            raise BlackboardError(f"fact topic {topic!r} is outside the ontology")
        if consumer is not None and topic not in consumer.interface.consumes:
            raise BlackboardError(
                f"component {consumer.id!r} does not declare consuming {topic!r}"
            )
        by_subject = self._index.get(topic, {})
        found: list[Fact] = []
        for s in sorted(by_subject) if subject is None else (subject,):
            by_producer = by_subject.get(s, {})
            found.extend(by_producer[p] for p in sorted(by_producer))
        return tuple(found)


def claim_artifact(board: Blackboard, path: str, component: str) -> None:
    """Record that ``component`` will write ``path``; idempotent per pair.

    Raises EngineError if the path is absolute, climbs out with "..", is not in
    normal form (``./A.oo``, ``p//q.oo``, ``.``) or names one of the engine's own
    files, and ClaimConflictError naming both components if the path is already
    claimed by someone else. Publishes an artifact.claimed fact.
    """
    pure = PurePosixPath(path)
    if str(pure) != path or pure.is_absolute() or ".." in pure.parts or path in (".", TRACE_FILE, CACHE_FILE):
        raise EngineError(
            f"component {component!r} claims {path!r}: an artifact path must be relative, "
            f"in normal form, without '..', and not {TRACE_FILE!r} or {CACHE_FILE!r}"
        )
    holder = board.claims.get(path)
    if holder is not None:
        if holder == component:
            return
        raise ClaimConflictError(path, holder, component)
    board.claims[path] = component
    board.publish(Fact.make("artifact.claimed", component, path))


# ---------------------------------------------------------------------------
# Artifact containers

@dataclass(frozen=True)
class TraceRegion:
    start: int  # 1-based
    end: int  # inclusive
    features: tuple[str, ...]  # sorted, non-empty ("core" sentinel when none apply)
    component: str


class ArtifactContainer:
    """In-memory buffer for one output artifact, built region by region."""

    def __init__(self, path: str, component: str):
        self.path = path
        self.component = component
        self.regions: list[TraceRegion] = []
        self._content = ""

    def append(self, text: str, features: Iterable[str] = ()) -> None:
        """Add whole lines attributed to the given features (default "core")."""
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

    def content(self) -> str:
        return self._content

    def line_count(self) -> int:
        return self.regions[-1].end if self.regions else 0


# ---------------------------------------------------------------------------
# Traceability

class TraceIndex:
    """Feature-to-lines and artifact-to-regions views of one generated variant."""

    def __init__(self, regions_by_artifact: Mapping[str, Sequence[TraceRegion]]):
        self.by_artifact: dict[str, tuple[TraceRegion, ...]] = {
            path: tuple(sorted(regions, key=lambda r: r.start))
            for path, regions in sorted(regions_by_artifact.items())
        }
        by_feature: dict[str, list[tuple[str, tuple[int, int]]]] = {}
        for path, regions in self.by_artifact.items():
            for region in regions:
                for feat in region.features:
                    ranges = by_feature.setdefault(feat, [])
                    if ranges and ranges[-1][0] == path and ranges[-1][1][1] + 1 == region.start:
                        ranges[-1] = (path, (ranges[-1][1][0], region.end))
                    else:
                        ranges.append((path, (region.start, region.end)))
        self.by_feature: dict[str, tuple[tuple[str, tuple[int, int]], ...]] = {
            feat: tuple(ranges) for feat, ranges in sorted(by_feature.items())
        }

    def to_lines(self) -> list[str]:
        lines = []
        for path, regions in self.by_artifact.items():
            for region in regions:
                feats = ",".join(region.features)
                lines.append(f"{path}:{region.start}-{region.end} {region.component} {feats}")
        return lines

    def to_text(self) -> str:
        return "".join(line + "\n" for line in self.to_lines())

    @staticmethod
    def from_text(text: str) -> "TraceIndex":
        """Parse trace lines; malformed lines are skipped, never fatal."""
        regions: dict[str, list[TraceRegion]] = {}
        for raw in text.splitlines():
            parts = raw.split()
            if len(parts) != 3 or ":" not in parts[0]:
                continue
            location, component, feats = parts
            path, _, span = location.rpartition(":")
            bounds = span.split("-")
            if len(bounds) != 2 or not all(b.isascii() and b.isdigit() for b in bounds):
                continue
            start, end = int(bounds[0]), int(bounds[1])
            if not path or start < 1 or end < start:
                continue
            features = tuple(sorted(set(f for f in feats.split(",") if f)))
            if not features:
                continue
            regions.setdefault(path, []).append(
                TraceRegion(start=start, end=end, features=features, component=component)
            )
        return TraceIndex(regions)


@dataclass(frozen=True)
class TraceQueryResult:
    kind: str  # "feature" | "artifact" | "unknown"
    query: str
    feature_ranges: tuple[tuple[str, tuple[int, int]], ...] = ()
    artifact_regions: tuple[TraceRegion, ...] = ()


def trace_query(trace: TraceIndex, query: str, kind: str) -> TraceQueryResult:
    """Look up a feature id (kind "feature") or an artifact path (kind "artifact").

    Unknown names produce an empty "unknown" result, not an error.
    """
    if kind not in ("feature", "artifact"):
        raise ValueError(f"unknown query kind {kind!r}")
    if kind == "artifact" and query in trace.by_artifact:
        return TraceQueryResult("artifact", query, artifact_regions=trace.by_artifact[query])
    if kind == "feature" and query in trace.by_feature:
        return TraceQueryResult("feature", query, feature_ranges=trace.by_feature[query])
    return TraceQueryResult("unknown", query)


# ---------------------------------------------------------------------------
# Incremental cache

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class GenCache:
    """Per-artifact (key digest, content digest) pairs from a previous run."""

    def __init__(self, entries: Mapping[str, tuple[str, str]] | None = None):
        self.entries: dict[str, tuple[str, str]] = dict(entries or {})

    def to_text(self) -> str:
        lines = [
            f"{path} {key} {content}"
            for path, (key, content) in sorted(self.entries.items())
        ]
        return "".join(line + "\n" for line in lines)

    @staticmethod
    def from_text(text: str) -> "GenCache":
        """Parse cache lines; a corrupt line is dropped (treated as a miss)."""
        entries: dict[str, tuple[str, str]] = {}
        for raw in text.splitlines():
            parts = raw.split()
            if len(parts) != 3:
                continue
            path, key, content = parts
            if len(key) != 64 or len(content) != 64:
                continue
            try:
                int(key, 16)
                int(content, 16)
            except ValueError:
                continue
            entries[path] = (key, content)
        return GenCache(entries)


# ---------------------------------------------------------------------------
# Reports and context

@dataclass(frozen=True)
class GenerationReport:
    written: tuple[str, ...]
    skipped_cache_hits: tuple[str, ...]
    facts_count: int
    violations: ValidationReport
    trace: TraceIndex
    failed_stage: str | None = None  # "restrict"|"declare"|"emit"|"syntax"|"hooks"|None

    @property
    def ok(self) -> bool:
        return self.failed_stage is None and self.violations.valid


@dataclass
class _ClaimMeta:
    component: str
    element_key: str
    fact_subjects: tuple[str, ...] | None  # None = all consumed facts matter


class GenContext:
    """The engine-side API handed to behaviors, one instance per run."""

    def __init__(
        self, diagram: ClassDiagram, spec: VariantSpec, bindings: Bindings, board: Blackboard
    ):
        self.spec = spec
        self.mode = spec.mode
        self.selected = spec.configuration.selected
        self.diagram = diagram
        self.board = board
        self.phase = ""
        self.conditions: list[ContextCondition] = []
        self.containers: dict[str, ArtifactContainer] = {}
        self.claim_meta: dict[str, _ClaimMeta] = {}
        self._hits: frozenset[str] = frozenset()
        self._bindings = bindings

    # -- variant views ------------------------------------------------------

    def options(self, component: GeneratorComponent) -> dict[str, object]:
        return dict(self._bindings.options[component.id])

    def vps(self, component: GeneratorComponent) -> dict[str, str]:
        return dict(self._bindings.vps[component.id])

    # -- restrict phase ------------------------------------------------------

    def add_condition(self, component: GeneratorComponent, condition: ContextCondition) -> None:
        self._require_phase("restrict", "add_condition")
        self.conditions.append(condition)

    # -- declare phase -------------------------------------------------------

    def claim(
        self,
        component: GeneratorComponent,
        path: str,
        element_key: str,
        fact_subjects: Iterable[str] | None = None,
    ) -> None:
        self._require_phase("declare", "claim")
        claim_artifact(self.board, path, component.id)
        subjects = None if fact_subjects is None else tuple(sorted(set(fact_subjects)))
        self.claim_meta[path] = _ClaimMeta(component.id, element_key, subjects)

    def publish(
        self,
        component: GeneratorComponent,
        topic: str,
        subject: str,
        payload: Mapping[str, str] | None = None,
    ) -> None:
        self._require_phase("declare", "publish")
        self.board.publish(Fact.make(topic, component.id, subject, payload), producer=component)

    # -- declare and emit phases ----------------------------------------------

    def facts(
        self, component: GeneratorComponent, topic: str, subject: str | None = None
    ) -> tuple[Fact, ...]:
        return self.board.query(topic, subject, consumer=component)

    # -- emit phase ------------------------------------------------------------

    def should_emit(self, path: str) -> bool:
        return path not in self._hits

    def adopt(self, component: GeneratorComponent, container: ArtifactContainer) -> None:
        """Register a fully built container for the component's claimed path."""
        self._require_phase("emit", "adopt")
        self._check_ownership(component, container.path)
        if container.component != component.id:
            raise EngineError(
                f"container for {container.path!r} was built for {container.component!r}, "
                f"not {component.id!r}"
            )
        if container.path in self.containers:
            raise EngineError(f"artifact {container.path!r} emitted twice")
        self.containers[container.path] = container

    def _check_ownership(self, component: GeneratorComponent, path: str) -> None:
        holder = self.board.claims.get(path)
        if holder != component.id:
            raise EngineError(
                f"component {component.id!r} emits {path!r} "
                + ("without a claim" if holder is None else f"claimed by {holder!r}")
            )

    def _require_phase(self, phase: str, what: str) -> None:
        if self.phase != phase:
            raise EngineError(f"{what} is only allowed in the {phase} phase, not {self.phase!r}")


# ---------------------------------------------------------------------------
# Hook resolution

def resolve_hooks(board: Blackboard, mode: str) -> ValidationReport:
    """Match hook.required facts against hook.provided subjects.

    Generation-time binding uses no hooks, so the check is vacuous there.
    """
    if mode == "generation_time":
        return ValidationReport()
    provided = {f.subject for f in board.query("hook.provided")}
    violations = [
        Violation(
            GEN_HOOK,
            (fact.subject,),
            f"hook {fact.subject!r} required by {fact.producer!r} is unresolved",
        )
        for fact in board.query("hook.required")
        if fact.subject not in provided
    ]
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# Engine

def _cache_key(
    meta: _ClaimMeta,
    composed: ComposedGenerator,
    ctx: GenContext,
    board: Blackboard,
) -> str:
    comp = composed.component(meta.component)
    subjects = (None,) if meta.fact_subjects is None else meta.fact_subjects
    consumed = [
        f"{fact.topic}|{fact.producer}|{fact.subject}|"
        + ";".join(f"{k}={v}" for k, v in fact.payload)
        for topic in sorted(comp.interface.consumes)
        for subject in subjects
        for fact in board.query(topic, subject)
    ]
    options = ctx.options(comp)
    vps = ctx.vps(comp)
    material = "\n".join(
        [
            "element=" + meta.element_key,
            "component=" + f"{comp.id}@{comp.version}",
            "mode=" + ctx.mode,
            "options=" + repr(sorted(options.items())),
            "vps=" + repr(sorted(vps.items())),
            "facts=" + repr(consumed),
        ]
    )
    return _digest(material)


def _lookup_cache(
    cache: GenCache, composed: ComposedGenerator, ctx: GenContext,
    out: str, snapshot: Mapping[str, int], old_trace: bytes | None,
) -> tuple[dict[str, str], dict[str, tuple[str, tuple[TraceRegion, ...]]]]:
    """Key every claim, and find the claims whose previous output is reusable.

    A claim is a hit when its key matches the cache entry, the snapshot of
    ``out`` lists it as a regular file that still has the recorded content
    digest, and the previous trace ``old_trace`` could be the one written
    with it (see ``_traces``). Returns the keys and, per hit, its content
    digest and trace regions.
    """
    keys = {
        path: _cache_key(meta, composed, ctx, ctx.board)
        for path, meta in ctx.claim_meta.items()
    }
    hits: dict[str, tuple[str, tuple[TraceRegion, ...]]] = {}
    if old_trace is None:
        return keys, hits
    trace = TraceIndex.from_text(old_trace.decode("utf-8", errors="replace"))
    features = ctx.selected | {CORE_FEATURE}
    for path, key in keys.items():
        entry = cache.entries.get(path)
        regions = trace.by_artifact.get(path)
        if entry is None or entry[0] != key or regions is None or snapshot.get(path, _OTHER) < 0:
            continue
        data = _read(out, path)
        # A file that is not UTF-8 cannot match a digest of UTF-8 text: a miss.
        if data is not None and hashlib.sha256(data).hexdigest() == entry[1] and _traces(
            regions, data, ctx.claim_meta[path].component, features
        ):
            hits[path] = (entry[1], regions)
    return keys, hits


def _traces(
    regions: Sequence[TraceRegion], data: bytes, component: str, features: frozenset[str]
) -> bool:
    """Whether ``regions`` could be the trace a run wrote for the artifact ``data``.

    They must cover its lines in order, name the component that claims it and
    only features of this variant. This keeps a damaged trace map a miss.
    """
    line = 1
    for region in regions:
        if region.start != line or region.component != component:
            return False
        for feature in region.features:
            if feature not in features:
                return False
        line = region.end + 1
    return line == data.count(b"\n") + 1


def _gate(stage: str, ctx: GenContext) -> tuple[Violation, ...]:
    """The violations that stop the run once ``stage`` has run its behaviors."""
    if stage == "restrict":
        return check_context_conditions(ctx.diagram, ctx.conditions).violations
    if stage == "emit":
        return tuple(
            Violation(
                GEN_EMIT,
                (meta.component, path),
                f"artifact {path!r} was claimed by {meta.component!r} but never emitted",
            )
            for path, meta in sorted(ctx.claim_meta.items())
            if ctx.should_emit(path) and path not in ctx.containers
        )
    if stage == "syntax":
        violations = []
        for path, container in sorted(ctx.containers.items()):
            error = ootl.check_unit(container.content())
            if error is not None:
                violations.append(
                    Violation(
                        GEN_SYNTAX, (path,), f"artifact {path!r} is not syntactically valid: {error}"
                    )
                )
        return tuple(violations)
    if stage == "hooks":
        return resolve_hooks(ctx.board, ctx.mode).violations
    return ()


def _run_engine(
    composed: ComposedGenerator,
    diagram: ClassDiagram,
    spec: VariantSpec,
    cache: GenCache | None,
) -> tuple[GenerationReport, GenCache]:
    bindings = check_bindings(spec, composed.components)
    steps = schedule(composed, spec, bindings)
    board = Blackboard()
    ctx = GenContext(diagram, spec, bindings, board)
    out = os.path.realpath(spec.output_path)
    recover_interrupted_swap(out)
    keys: dict[str, str] = {}
    hits: dict[str, tuple[str, tuple[TraceRegion, ...]]] = {}

    # The syntax and hook stages run no behaviors, only their gates.
    for stage in (*PHASES, "syntax", "hooks"):
        if stage == "emit":
            snapshot = _scan(out)
            old_trace = None if snapshot.get(TRACE_FILE, _OTHER) < 0 else _read(out, TRACE_FILE)
            if cache is not None:
                keys, hits = _lookup_cache(cache, composed, ctx, out, snapshot, old_trace)
                ctx._hits = frozenset(hits)
        ctx.phase = stage
        try:
            for step in steps:
                if step.phase == stage:
                    comp, beh = composed.behavior(step)
                    beh.run(ctx, comp)
            violations = _gate(stage, ctx)
        except ClaimConflictError as exc:
            violations = (Violation(GEN_CLAIM, (exc.holder, exc.claimant), str(exc)),)
        if violations:
            report = GenerationReport(
                written=(),
                skipped_cache_hits=(),
                facts_count=len(board.facts),
                violations=ValidationReport(violations),
                trace=TraceIndex({}),
                failed_stage=stage,
            )
            return report, cache if cache is not None else GenCache()

    # Assemble every output byte in memory before touching the filesystem.
    fresh = [c for path, c in ctx.containers.items() if path not in hits]
    files = {c.path: c.content() for c in fresh}
    regions = {c.path: c.regions for c in fresh}
    for path, (_, hit_regions) in hits.items():
        regions[path] = hit_regions
    trace = TraceIndex(regions)
    files[TRACE_FILE] = trace.to_text()

    # Early cutoff: a file whose bytes are already on disk is linked, not rewritten.
    ours = {*files, *hits, CACHE_FILE}
    same = _same_on_disk(out, files, snapshot, old_trace)
    if len(same) < len(files) or _strays(snapshot, ours):
        if snapshot.get(TRACE_FILE, _DIR) == _DIR:  # no trace.map; a folder of that name is none
            _check_replaceable(out, ours)
        changed = {path: text for path, text in files.items() if path not in same}
        _atomic_swap(out, changed, [*hits, *same])

    report = GenerationReport(
        written=tuple(sorted(c.path for c in fresh)),
        skipped_cache_hits=tuple(sorted(hits)),
        facts_count=len(board.facts),
        violations=ValidationReport(),
        trace=trace,
    )
    return report, GenCache(
        {
            path: (key, hits[path][0] if path in hits else _digest(files[path]))
            for path, key in keys.items()
        }
    )


def _same_on_disk(
    out: str, files: Mapping[str, str], snapshot: Mapping[str, int], old_trace: bytes | None
) -> set[str]:
    """The paths among ``files`` that ``out`` holds as a regular file with these bytes.

    Only a file of the same size is read; the trace map's bytes are ``old_trace``.
    """
    same = set()
    for path, text in files.items():
        data = text.encode("utf-8")
        if snapshot.get(path) != len(data):
            continue
        old = old_trace if path == TRACE_FILE else _read(out, path)
        if old == data:
            same.add(path)
    return same


def _scan(out: str) -> dict[str, int]:
    """Map the relative path of every entry under ``out`` to a regular file's size or a marker.

    A folder is ``_DIR``. A symlink, anything else and a folder that cannot be listed
    (``out`` itself as "") are ``_OTHER``. A missing ``out`` gives an empty snapshot.
    """
    snapshot: dict[str, int] = {}
    pending = [""]
    while pending:
        folder = pending.pop()
        try:
            with os.scandir(os.path.join(out, folder)) as entries:
                for entry in entries:
                    path = f"{folder}/{entry.name}" if folder else entry.name
                    if entry.is_dir(follow_symlinks=False):
                        snapshot[path] = _DIR
                        pending.append(path)
                    elif entry.is_file(follow_symlinks=False):
                        snapshot[path] = entry.stat(follow_symlinks=False).st_size
                    else:
                        snapshot[path] = _OTHER
        except OSError as exc:
            if folder or not isinstance(exc, FileNotFoundError):
                snapshot[folder] = _OTHER
    return snapshot


def _strays(snapshot: Mapping[str, int], ours: Collection[str]) -> list[str]:
    """The entries of ``snapshot`` other than a regular file in ``ours`` and a folder above one."""
    folders = set()
    for path in ours:
        while "/" in path:
            path = path.rpartition("/")[0]
            folders.add(path)
    return [
        path
        for path, size in snapshot.items()
        if not (size >= 0 and path in ours or size == _DIR and path in folders)
    ]


def _read(out: str, path: str) -> bytes | None:
    """The bytes of the file at ``path`` in ``out``, or None if it cannot be read."""
    try:
        with open(os.path.join(out, path), "rb") as f:
            return f.read()
    except OSError:
        return None


def _atomic_swap(out: str, files: Mapping[str, str], linked: Collection[str]) -> None:
    """Replace ``out`` with the written ``files`` plus the ``linked`` paths of the old output.

    Linked paths are hard-linked from ``out`` into the stage, or copied
    where the filesystem refuses the link. ``out`` is a resolved path.
    """
    parent, name = os.path.split(out)
    try:
        os.makedirs(parent, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=f".{name}.stage-", dir=parent)
    except OSError as exc:
        raise GenerationIOError(f"cannot stage outputs: {exc}") from exc
    backup = Path(parent, f".{name}.old-{uuid.uuid4().hex}")
    try:
        for rel in (*files, *linked):
            if "/" in rel:
                os.makedirs(os.path.dirname(os.path.join(stage, rel)), exist_ok=True)
        for rel, text in files.items():
            with open(os.path.join(stage, rel), "w", encoding="utf-8") as f:
                f.write(text)
        for rel in linked:
            try:
                os.link(os.path.join(out, rel), os.path.join(stage, rel))
            except OSError:
                shutil.copyfile(os.path.join(out, rel), os.path.join(stage, rel))
        if os.path.exists(out):
            Path(out).rename(backup)
        Path(stage).rename(out)
    except OSError as exc:
        shutil.rmtree(stage, ignore_errors=True)
        if backup.exists() and not os.path.exists(out):
            backup.rename(out)
        raise GenerationIOError(f"cannot write outputs: {exc}") from exc
    shutil.rmtree(backup, ignore_errors=True)


def recover_interrupted_swap(out_dir: str | Path) -> None:
    """Undo a swap that was cut off between its two renames.

    Such a swap leaves no ``out``, the resolved ``out_dir``, a ``.<out>.old-*``
    sibling holding the previous output and a ``.<out>.stage-*`` sibling. When
    ``out`` is missing, the newest old sibling that has a trace map becomes
    ``out`` again and every other such sibling is removed. Otherwise nothing happens.
    """
    out = Path(os.path.realpath(out_dir))
    if os.path.lexists(out):
        return
    prefixes = (f".{out.name}.old-", f".{out.name}.stage-")
    try:
        with os.scandir(out.parent) as entries:
            leftovers = [
                Path(entry.path)
                for entry in entries
                if entry.name.startswith(prefixes) and entry.is_dir(follow_symlinks=False)
            ]
    except OSError:
        return  # no parent directory, so nothing to recover; the swap reports real faults
    try:
        backups = [
            p for p in leftovers if p.name.startswith(prefixes[0]) and (p / TRACE_FILE).is_file()
        ]
        if backups:
            newest = max(backups, key=lambda p: p.stat().st_mtime_ns)
            newest.rename(out)
            leftovers.remove(newest)
    except OSError as exc:
        raise GenerationIOError(f"cannot recover an interrupted output swap: {exc}") from exc
    for path in leftovers:
        shutil.rmtree(path, ignore_errors=True)


def _check_replaceable(out: str, ours: Collection[str]) -> None:
    """Refuse to replace a directory that genline did not write.

    An earlier output has a trace.map. Without one (it may have been deleted),
    a stray other than a folder must sit at a path this run writes or links.
    """
    snapshot = _scan(out)
    for path in _strays(snapshot, ours):
        if snapshot[path] != _DIR and path not in ours:
            why = f"has no {TRACE_FILE} and holds {path!r}, which generation does not write"
            raise GenerationIOError(
                f"refusing to replace {out!r}: it "
                + (why if path else "is not a directory that can be listed")
            )


def generate(
    composed: ComposedGenerator, diagram: ClassDiagram, spec: VariantSpec
) -> GenerationReport:
    """Run the full pipeline and write all artifacts atomically."""
    report, _ = _run_engine(composed, diagram, spec, cache=None)
    return report


def incremental_generate(
    composed: ComposedGenerator,
    diagram: ClassDiagram,
    spec: VariantSpec,
    cache: GenCache,
) -> tuple[GenerationReport, GenCache]:
    """Like generate, but skip emitting artifacts whose cache key is unchanged.

    Outputs are byte-identical to a cold run; the returned cache reflects the
    new state. On an aborted run the input cache is returned unchanged.
    """
    return _run_engine(composed, diagram, spec, cache=cache)
