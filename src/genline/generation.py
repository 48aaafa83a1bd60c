"""Generation engine: run a composed generator's schedule over an input model.

The run is phased. Front-end behaviors restrict the input (context
conditions); declare behaviors publish facts on the blackboard and claim
artifact paths, each path once and with the builder of its artifact
container. The engine then calls the builder of every claim whose cached
output cannot be reused, and of no other. Nothing touches the filesystem until every built
container has passed syntax validation and every required hook is resolved;
then all files are written in one atomic stage-and-swap. Incremental runs
reuse artifacts whose cache key (the claiming component's ``id@version`` and
the arguments its builder is called with) is unchanged, with outputs
byte-identical to a cold run. Every run,
incremental or not, writes only the files whose bytes changed: a cache hit,
or a file already on disk with the same bytes, is hard-linked into the stage,
never rewritten, and a run that changes nothing leaves the output directory
alone. The engine looks at that directory once per run: one resolved path and
one scan serve every step.

An incremental run whose inputs are unchanged need not run the engine at all.
The cache map's run line records a digest of everything the run read (see
``run_digest``), its facts count and the trace map's content digest. When the
digest matches and the output directory still holds exactly the recorded
files with their recorded bytes, ``unchanged_run`` returns the report of a run
that reused every artifact, without parsing the input model or running any
stage; anything else falls through to the engine.

The run line also records one digest of the stat data of every file in the
output directory, taken when the run left it (see ``_stat_digest``). While
the directory's stat data still has that digest, a file whose mtime is older
than the newest one is taken at its recorded content digest without being
read (see ``_trusted``); every other file is read and hashed.

The engine reads and writes the cache map, ``gencache.map``: ``read_cache``
reads it once per run, and ``incremental_generate``, or ``unchanged_run``
when it renews the stat record, writes it back. A map kept outside the
output directory is checked to be writable before the output is replaced.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import shutil
import tempfile
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence

from . import ootl
from .classdiagram import ClassDiagram, ContextCondition, check_context_conditions
from .components import (
    FACT_TOPICS,
    LATE_BINDING_MODES,
    PHASE_OF_KIND,
    Bindings,
    GeneratorComponent,
    VariantSpec,
    check_bindings,
)
from .composition import ComposedGenerator, schedule
from .report import ValidationReport, Violation

GEN_CLAIM = "GEN-CLAIM"
GEN_SYNTAX = "GEN-SYNTAX"
GEN_HOOK = "GEN-HOOK"

CORE_FEATURE = "core"

TRACE_FILE = "trace.map"
CACHE_FILE = "gencache.map"
_DIR, _OTHER = -1, -2  # scan markers: a folder, and what is neither a folder nor a regular file
# What an artifact path may not hold: whitespace (any character str.isspace()
# accepts, which the trace and cache maps split their lines on), or, at its
# start or after a "/", an empty, "." or ".." part. One search checks a path.
_BAD_PATH = re.compile(r"\s|(?:\A|/)(?:/|\Z|\.\.?(?:/|\Z))")


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
    """Shared fact store for one generation run.

    A board built with ``read`` indexes only the facts of those topics, and a
    query of any other topic raises BlackboardError. The engine's board reads
    the topics that some composed component consumes, and the two that the
    hook gate reads. A fact of another topic is checked like any other (its
    topic, its producer, a repeat with another payload) and counted in
    ``count``, which the ``facts:`` line reports, but no ``Fact`` is made of
    it. A board built without ``read`` keeps every topic.

    ``facts`` holds the kept facts in publication order; every lookup goes
    through one index, topic -> subject -> producer -> fact.
    """

    def __init__(self, read: Iterable[str] | None = None) -> None:
        self.facts: list[Fact] = []
        self._read = None if read is None else frozenset(read)
        self._index: dict[str, dict[str, dict[str, Fact]]] = {}
        # (topic, producer, subject) -> payload of each fact of an unread topic
        self._unread: dict[tuple[str, str, str], tuple[tuple[str, str], ...]] = {}

    @property
    def count(self) -> int:
        """The number of distinct facts published, kept or not."""
        return len(self.facts) + len(self._unread)

    def publish(self, fact: Fact, producer: GeneratorComponent | None = None) -> None:
        self.add(fact.topic, fact.producer, fact.subject, fact.payload, producer)

    def add(
        self,
        topic: str,
        producer_id: str,
        subject: str,
        payload: tuple[tuple[str, str], ...] = (),
        producer: GeneratorComponent | None = None,
    ) -> None:
        """Publish the fact of these parts, ``payload`` sorted as ``Fact.make`` sorts it.

        ``producer``, if given, must declare producing ``topic``. A repeat of
        a fact is dropped; one with another payload raises.
        """
        if topic not in FACT_TOPICS:
            raise BlackboardError(f"fact topic {topic!r} is outside the ontology")
        if producer is not None and topic not in producer.interface.produces:
            raise BlackboardError(
                f"component {producer.id!r} does not declare producing {topic!r}"
            )
        key = (topic, producer_id, subject)
        if self._read is None or topic in self._read:
            by_producer = self._index.setdefault(topic, {}).setdefault(subject, {})
            if producer_id not in by_producer:
                fact = Fact(topic, producer_id, subject, payload)
                by_producer[producer_id] = fact
                self.facts.append(fact)
                return
            existing = by_producer[producer_id].payload
        else:
            if key not in self._unread:
                self._unread[key] = payload
                return
            existing = self._unread[key]
        if existing != payload:
            raise BlackboardError(f"conflicting facts for {key}: {existing!r} vs {payload!r}")

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
        if self._read is not None and topic not in self._read:
            raise BlackboardError(f"fact topic {topic!r} is not read in this run, so not kept")
        by_subject = self._index.get(topic, {})
        found: list[Fact] = []
        for s in sorted(by_subject) if subject is None else (subject,):
            by_producer = by_subject.get(s, {})
            found += map(by_producer.__getitem__, sorted(by_producer))
        return tuple(found)


# ---------------------------------------------------------------------------
# Artifact containers

@dataclass(frozen=True)
class TraceRegion:
    start: int  # 1-based
    end: int  # inclusive
    features: tuple[str, ...]  # sorted, non-empty ("core" sentinel when none apply)
    component: str


# Each features tuple passed to ``append``, as given, to its normal form.
_FEATURE_SETS: dict[tuple[str, ...], tuple[str, ...]] = {}


def _feature_set(features: Iterable[str]) -> tuple[str, ...]:
    """``features`` sorted and without repeats, or ("core",) when empty."""
    return tuple(sorted(set(features))) or (CORE_FEATURE,)


class ArtifactContainer:
    """In-memory buffer for one output artifact, built region by region.

    ``append`` extends the open region, the last one, while the features stay
    the same; a ``TraceRegion`` is made for it only when the features change
    or ``regions`` is read. A features tuple is normalised once per process.
    """

    def __init__(self, path: str, component: str):
        self.path = path
        self.component = component
        self._closed: list[TraceRegion] = []  # the regions before the open one
        self._start = self._end = 0  # the open region's lines; _end is the last line
        self._features: tuple[str, ...] | None = None  # None before the first append
        self._content = ""

    def append(self, text: str, features: Iterable[str] = ()) -> None:
        """Add whole lines attributed to the given features (default "core")."""
        if text[-1:] != "\n":
            raise ValueError(f"region text must end with a newline: {text!r}")
        if type(features) is tuple:
            try:
                feats = _FEATURE_SETS[features]
            except KeyError:
                feats = _FEATURE_SETS[features] = _feature_set(features)
        else:
            feats = _feature_set(features)
        if feats != self._features:
            if self._features is not None:
                self._closed.append(
                    TraceRegion(self._start, self._end, self._features, self.component)
                )
            self._start = self._end + 1
            self._features = feats
        self._end += text.count("\n") if "\n" in text[:-1] else 1
        self._content += text

    @property
    def regions(self) -> list[TraceRegion]:
        """The line regions so far, in order; adjacent lines of equal features share one."""
        if self._features is None:
            return []
        return [*self._closed, TraceRegion(self._start, self._end, self._features, self.component)]

    def content(self) -> str:
        return self._content

    def line_count(self) -> int:
        return self._end


# ---------------------------------------------------------------------------
# Traceability

class TraceIndex:
    """Feature-to-lines and artifact-to-regions views of one generated variant.

    An index made by ``from_text`` keeps the text and parses it when
    ``by_artifact``, ``by_feature`` or ``to_text`` is first read.
    """

    _text: str  # the trace lines given to ``from_text``

    def __init__(self, regions_by_artifact: Mapping[str, Sequence[TraceRegion]]):
        # Set on the instance, this hides the property that parses ``from_text``'s text.
        self.by_artifact: dict[str, tuple[TraceRegion, ...]] = {
            path: tuple(sorted(regions, key=lambda r: r.start))
            for path, regions in sorted(regions_by_artifact.items())
        }

    @functools.cached_property
    def by_feature(self) -> dict[str, tuple[tuple[str, tuple[int, int]], ...]]:
        """Per feature, its line ranges in artifact order; adjacent ranges coalesce."""
        by_feature: dict[str, list[tuple[str, tuple[int, int]]]] = {}
        for path, regions in self.by_artifact.items():
            for region in regions:
                for feat in region.features:
                    ranges = by_feature.setdefault(feat, [])
                    if ranges and ranges[-1][0] == path and ranges[-1][1][1] + 1 == region.start:
                        ranges[-1] = (path, (ranges[-1][1][0], region.end))
                    else:
                        ranges.append((path, (region.start, region.end)))
        return {feat: tuple(ranges) for feat, ranges in sorted(by_feature.items())}

    def to_text(self) -> str:
        return "".join(
            f"{path}:{region.start}-{region.end} {region.component} {','.join(region.features)}\n"
            for path, regions in self.by_artifact.items()
            for region in regions
        )

    @staticmethod
    def from_text(text: str) -> "TraceIndex":
        """An index of trace lines; malformed lines are skipped, never fatal."""
        index = object.__new__(TraceIndex)
        index._text = text
        return index

    @functools.cached_property
    def by_artifact(self) -> dict[str, tuple[TraceRegion, ...]]:
        regions: dict[str, list[TraceRegion]] = {}
        for raw in self._text.splitlines():
            parts = raw.split()
            if len(parts) != 3 or ":" not in parts[0]:
                continue
            location, component, feats = parts
            path, _, span = location.rpartition(":")
            first, _, last = span.partition("-")
            if not (span.isascii() and first.isdigit() and last.isdigit()):
                continue
            start, end = int(first), int(last)
            if not path or start < 1 or end < start:
                continue
            features = tuple(sorted(set(feats.split(",")) - {""}))
            if not features:
                continue
            regions.setdefault(path, []).append(
                TraceRegion(start=start, end=end, features=features, component=component)
            )
        return TraceIndex(regions).by_artifact


# ---------------------------------------------------------------------------
# Incremental cache

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_HEX_DIGEST = re.compile(r"[0-9a-f]{64}")
_RUN = "run"  # first field of the cache map's run line


class GenCache:
    """Per-artifact (key digest, content digest) pairs from a previous run.

    ``trace`` is the content digest of the trace map written with them,
    ``run`` the run digest (see ``run_digest``) and facts count of the run
    that wrote them, and ``stat`` the ``_stat_digest`` of the output directory
    that run left. The map keeps them on one run line,
    ``run <run digest> <facts count> <trace digest> <stat digest>``, written
    when all four are known, as they are after every run through the engine
    with a cache. A run line of any other shape is not read.

    ``path`` is where the cache map lives and ``saved`` the bytes it holds
    there (see ``read_cache``); a cache built in memory has no path and is
    written nowhere.
    """

    def __init__(
        self,
        entries: Mapping[str, tuple[str, str]] | None = None,
        trace: str = "",
        run: tuple[str, int] | None = None,
        stat: str = "",
        path: str | None = None,
        saved: bytes | None = None,
    ):
        self.entries: dict[str, tuple[str, str]] = dict(entries or {})
        self.trace = trace
        self.run = run
        self.stat = stat
        self.path = path
        self.saved = saved

    def to_text(self) -> str:
        lines = [
            f"{path} {key} {content}"
            for path, (key, content) in sorted(self.entries.items())
        ]
        if self.run is not None and self.trace and self.stat:
            lines.append(f"{_RUN} {self.run[0]} {self.run[1]} {self.trace} {self.stat}")
        return "".join(line + "\n" for line in lines)

    @staticmethod
    def from_text(text: str) -> "GenCache":
        """Parse cache lines; a corrupt line is dropped (an artifact line is then a miss).

        Every digest field must be 64 lowercase hex digits, as ``hexdigest`` writes them.
        """
        entries: dict[str, tuple[str, str]] = {}
        trace, run, stat_digest = "", None, ""
        for raw in text.splitlines():
            parts = raw.split()
            if len(parts) == 3:
                path, key, content = parts
                if _HEX_DIGEST.fullmatch(key) and _HEX_DIGEST.fullmatch(content):
                    entries[path] = (key, content)
            elif len(parts) == 5 and parts[0] == _RUN:
                _, digest, facts, trace_digest, stat = parts
                if (
                    all(_HEX_DIGEST.fullmatch(d) for d in (digest, trace_digest, stat))
                    and facts.isascii()
                    and facts.isdigit()
                ):
                    trace, run, stat_digest = trace_digest, (digest, int(facts)), stat
        return GenCache(entries, trace, run, stat_digest)


def read_cache(out_dir: str | Path, cache_dir: str | Path | None = None) -> GenCache:
    """The cache of the output directory ``out_dir``, read from its map in ``cache_dir``,
    or in ``out_dir`` itself when that is None.

    A swap cut off by a kill leaves the map in a backup of the output, so an
    interrupted swap is recovered first. A map that is missing or cannot be
    read is an empty cache: every artifact misses.
    """
    recover_interrupted_swap(out_dir)
    path = str(Path(cache_dir or out_dir) / CACHE_FILE)
    data = None
    if os.path.isfile(path):
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            pass
    cache = GenCache.from_text((data or b"").decode("utf-8", errors="replace"))
    cache.path, cache.saved = path, data
    return cache


def _save(cache: GenCache) -> None:
    """Write ``cache`` to its map, unless it has no path or the map already holds its bytes."""
    if cache.path is None:
        return
    data = cache.to_text().encode("utf-8")
    # A swap drops a map kept in the output directory, though the bytes are the same.
    if data != cache.saved or not os.path.isfile(cache.path):
        _write_map(cache.path, data)
        cache.saved = data


def _write_map(path: str, data: bytes, mode: str = "wb") -> None:
    """Write ``data`` to the cache map at ``path``, making its folder; ``mode`` "ab"
    with no data only makes sure that the map can be written."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, mode) as f:
            f.write(data)
    except OSError as exc:
        raise GenerationIOError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Reports and context

@dataclass(frozen=True)
class GenerationReport:
    written: tuple[str, ...]
    skipped_cache_hits: tuple[str, ...]
    facts_count: int
    violations: ValidationReport
    trace: TraceIndex
    failed_stage: str | None = None  # "restrict"|"declare"|"syntax"|"hooks"|None

    @property
    def ok(self) -> bool:
        return self.failed_stage is None and self.violations.valid


@dataclass
class _ClaimMeta:
    component: GeneratorComponent
    build: Callable[..., ArtifactContainer]
    args: tuple  # plain data (see ``_plain``), the cache key's material


_PLAIN = frozenset({str, int, bool, type(None)})


def _plain(value: object) -> bool:
    """Whether ``value`` is a str, int, bool or None, or a tuple of such values
    nested to any depth; the repr of such a value is the same in every process."""
    pending = [value]
    for item in pending:  # a tuple's items join the list as it is walked
        if type(item) is tuple:
            pending += item
        elif type(item) not in _PLAIN:
            return False
    return True


class GenContext:
    """The engine-side API handed to behaviors and builders, one instance per run."""

    def __init__(
        self, diagram: ClassDiagram, spec: VariantSpec, bindings: Bindings, board: Blackboard
    ):
        self.mode = spec.mode
        self.selected = spec.configuration.selected
        self.diagram = diagram
        self.board = board
        self.phase = ""
        self.conditions: list[ContextCondition] = []
        self.containers: dict[str, ArtifactContainer] = {}
        self.claim_meta: dict[str, _ClaimMeta] = {}
        self._claimed_folders: set[str] = set()  # every folder above a claimed path
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
        build: Callable[..., ArtifactContainer],
        *args: object,
    ) -> None:
        """Claim ``path``; the engine calls ``build(*args)`` for its container on a cache miss.

        The cache key of the claim is ``component``'s ``id@version`` and
        ``args``, not ``build`` itself, so a wrapper put in the builder's
        place (as a profiler puts one) keeps every key: a component at one
        ``id@version`` is trusted to build the same bytes from the same path
        and arguments, as the run digest trusts it (see ``run_digest``). So
        ``args`` must be everything the builder reads, and each must be a
        str, int, bool or None, or a tuple of these nested to any depth; any
        other type raises EngineError.

        Raises EngineError if the path is absolute, has an empty, "." or ".."
        part or a whitespace character, names one of the engine's own files,
        lies inside a claimed path or one of those files, or is a folder above
        a claimed path. A path has one builder: a claim by another component
        raises ClaimConflictError naming both, a second claim by the same
        component EngineError. Publishes an artifact.claimed fact.
        """
        self._require_phase("declare", "claim")
        if _BAD_PATH.search(path) or path in (TRACE_FILE, CACHE_FILE):
            raise EngineError(
                f"component {component.id!r} claims {path!r}: an artifact path must be relative, "
                f"in normal form, without '..' or whitespace, and not {TRACE_FILE!r} or "
                f"{CACHE_FILE!r}"
            )
        held = self.claim_meta.get(path)
        if held is not None:
            if held.component.id != component.id:
                raise ClaimConflictError(path, held.component.id, component.id)
            raise EngineError(f"artifact {path!r} claimed twice by {component.id!r}")
        if path in self._claimed_folders:
            below = next(p for p in self.claim_meta if p.startswith(path + "/"))
            raise EngineError(
                f"component {component.id!r} claims {path!r}, a folder above {below!r} "
                f"claimed by {self.claim_meta[below].component.id!r}"
            )
        if "/" in path:
            parts = path.split("/")
            folders = ["/".join(parts[:i]) for i in range(1, len(parts))]
            for folder in folders:
                outer = self.claim_meta.get(folder)
                if outer is not None or folder in (TRACE_FILE, CACHE_FILE):
                    owner = "the engine" if outer is None else repr(outer.component.id)
                    raise EngineError(
                        f"component {component.id!r} claims {path!r} inside {folder!r}, "
                        f"a file of {owner}"
                    )
            self._claimed_folders.update(folders)
        if not _plain(args):
            raise EngineError(
                f"component {component.id!r} claims {path!r} with builder arguments that are not "
                "str, int, bool, None or tuples of these"
            )
        self.claim_meta[path] = _ClaimMeta(component, build, args)
        self.board.add("artifact.claimed", component.id, path)

    def publish(
        self,
        component: GeneratorComponent,
        topic: str,
        subject: str,
        payload: Mapping[str, str] | None = None,
    ) -> None:
        self._require_phase("declare", "publish")
        items = tuple(sorted(payload.items())) if payload else ()
        self.board.add(topic, component.id, subject, items, component)

    # -- declare phase and builders --------------------------------------------

    def facts(
        self, component: GeneratorComponent, topic: str, subject: str | None = None
    ) -> tuple[Fact, ...]:
        return self.board.query(topic, subject, consumer=component)

    def _require_phase(self, phase: str, what: str) -> None:
        if self.phase != phase:
            raise EngineError(f"{what} is only allowed in the {phase} phase, not {self.phase!r}")


# ---------------------------------------------------------------------------
# Hook resolution

_HOOK_TOPICS = frozenset({"hook.provided", "hook.required"})  # the topics resolve_hooks reads


def resolve_hooks(board: Blackboard, mode: str) -> ValidationReport:
    """Match hook.required facts against hook.provided subjects.

    Generation-time binding uses no hooks, so the check is vacuous there.
    """
    if mode not in LATE_BINDING_MODES:
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

def _cache_key(meta: _ClaimMeta) -> str:
    """The digest of the claiming component's id and version and its builder's arguments."""
    return _digest(repr((meta.component.id, meta.component.version, meta.args)))


def _lookup_cache(
    cache: GenCache, ctx: GenContext, out: str, snapshot: Mapping[str, int],
    trusted: Collection[str], old_trace: bytes | None,
) -> tuple[dict[str, str], dict[str, tuple[str, tuple[TraceRegion, ...]]]]:
    """Key every claim, and find the claims whose previous output is reusable.

    A claim is a hit when its key matches the cache entry, the snapshot of
    ``out`` lists it as a regular file that still has the recorded content
    digest, and the previous trace ``old_trace`` could be the one written
    with it (see ``_traced_lines``). A file in ``trusted`` has that digest unread;
    when ``old_trace`` also hashes to the recorded trace digest, the trace
    was written with that content and its line count is not checked either.
    Returns the keys and, per hit, its content digest and trace regions.
    """
    keys = {path: _cache_key(meta) for path, meta in ctx.claim_meta.items()}
    hits: dict[str, tuple[str, tuple[TraceRegion, ...]]] = {}
    if old_trace is None:
        return keys, hits
    if hashlib.sha256(old_trace).hexdigest() != cache.trace:
        trusted = ()
    trace = TraceIndex.from_text(old_trace.decode("utf-8", errors="replace"))
    features = ctx.selected | {CORE_FEATURE}
    for path, key in keys.items():
        entry = cache.entries.get(path)
        regions = trace.by_artifact.get(path)
        if entry is None or entry[0] != key or regions is None or snapshot.get(path, _OTHER) < 0:
            continue
        lines = _traced_lines(regions, ctx.claim_meta[path].component.id, features)
        if not lines:
            continue
        if path not in trusted:
            data = _read(out, path)
            # A file that is not UTF-8 cannot match a digest of UTF-8 text: a miss.
            if (
                data is None
                or data.count(b"\n") != lines
                or hashlib.sha256(data).hexdigest() != entry[1]
            ):
                continue
        hits[path] = (entry[1], regions)
    return keys, hits


def _traced_lines(regions: Sequence[TraceRegion], component: str, features: frozenset[str]) -> int:
    """The number of lines ``regions`` cover if they could be the trace a run
    wrote for an artifact of ``component``, else 0.

    They must cover lines from 1 on in order, name the component and only
    features of this variant; the caller checks the count against the
    artifact. This keeps a damaged trace map a miss.
    """
    line = 1
    for region in regions:
        if region.start != line or region.component != component:
            return 0
        for feature in region.features:
            if feature not in features:
                return 0
        line = region.end + 1
    return line - 1


def _gate(stage: str, ctx: GenContext) -> tuple[Violation, ...]:
    """The violations that stop the run once ``stage`` has run its behaviors."""
    if stage == "restrict":
        return check_context_conditions(ctx.diagram, ctx.conditions).violations
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


def _build(ctx: GenContext, hits: Collection[str]) -> None:
    """Build the container of every claim not in ``hits``, in claim order."""
    for path, meta in ctx.claim_meta.items():
        if path in hits:
            continue
        container = meta.build(*meta.args)
        if container.path != path or container.component != meta.component.id:
            raise EngineError(
                f"the builder of {path!r}, claimed by {meta.component.id!r}, returned "
                f"{container.path!r} built for {container.component!r}"
            )
        ctx.containers[path] = container


def _run_engine(
    composed: ComposedGenerator,
    diagram: ClassDiagram,
    spec: VariantSpec,
    cache: GenCache | None,
) -> tuple[GenerationReport, GenCache]:
    bindings = check_bindings(spec, composed.components)
    steps = schedule(composed, spec, bindings)
    # No reader but the composed components and resolve_hooks asks the board.
    board = Blackboard(
        _HOOK_TOPICS.union(*(comp.interface.consumes for comp in composed.components))
    )
    ctx = GenContext(diagram, spec, bindings, board)
    out = os.path.realpath(spec.output_path)
    keys: dict[str, str] = {}
    stat = ""  # the _stat_digest of the output as this run leaves it, kept with a cache
    hits: dict[str, tuple[str, tuple[TraceRegion, ...]]] = {}

    # The syntax and hook stages run no behaviors, only their gates. Builders run
    # in the syntax stage, so a builder that claims or publishes is refused.
    for stage in (*PHASE_OF_KIND.values(), "syntax", "hooks"):
        ctx.phase = stage
        if stage == "syntax":
            snapshot, stats = _scan(out, stat_data=cache is not None)  # a plain run keeps no record
            old_trace = None if snapshot.get(TRACE_FILE, _OTHER) < 0 else _read(out, TRACE_FILE)
            if cache is not None:
                stat = _stat_digest(stats)
                trusted = _trusted(stats) if stat == cache.stat else ()
                keys, hits = _lookup_cache(cache, ctx, out, snapshot, trusted, old_trace)
            _build(ctx, hits)
        try:
            for step in steps:
                if step.phase == stage:
                    step.behavior.run(ctx, step.component)
            violations = _gate(stage, ctx)
        except ClaimConflictError as exc:
            violations = (Violation(GEN_CLAIM, (exc.holder, exc.claimant), str(exc)),)
        if violations:
            report = GenerationReport(
                written=(),
                skipped_cache_hits=(),
                facts_count=board.count,
                violations=ValidationReport(violations),
                trace=TraceIndex({}),
                failed_stage=stage,
            )
            return report, cache if cache is not None else GenCache()

    # Assemble every output byte in memory before touching the filesystem.
    files = {path: c.content() for path, c in ctx.containers.items()}
    regions = {path: c.regions for path, c in ctx.containers.items()}
    for path, (_, hit_regions) in hits.items():
        regions[path] = hit_regions
    trace = TraceIndex(regions)
    files[TRACE_FILE] = trace.to_text()

    # Early cutoff: a file whose bytes are already on disk is linked, not rewritten.
    ours = {*files, *hits, CACHE_FILE}
    same = _same_on_disk(out, files, snapshot, old_trace)
    if len(same) < len(files) or _strays(snapshot, ours):
        if snapshot.get(TRACE_FILE, _DIR) == _DIR:  # no trace.map; a folder of that name is none
            _check_replaceable(out, snapshot, ours)
        changed = {path: text for path, text in files.items() if path not in same}
        if cache is not None and cache.path is not None:
            if os.path.realpath(os.path.dirname(cache.path) or ".") != out:
                _write_map(cache.path, b"", "ab")  # fail before the swap, not after it
        _atomic_swap(out, changed, [*hits, *same])
        if cache is not None:
            stat = _stat_digest(_scan(out)[1])

    report = GenerationReport(
        written=tuple(sorted(ctx.containers)),
        skipped_cache_hits=tuple(sorted(hits)),
        facts_count=board.count,
        violations=ValidationReport(),
        trace=trace,
    )
    return report, GenCache(
        {
            path: (key, hits[path][0] if path in hits else _digest(files[path]))
            for path, key in keys.items()
        },
        trace=_digest(files[TRACE_FILE]),
        stat=stat,
        path=None if cache is None else cache.path,
        saved=None if cache is None else cache.saved,
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


def _scan(
    out: str, stat_data: bool = True
) -> tuple[dict[str, int], dict[str, tuple[int, int, int, int]]]:
    """Map the relative path of every entry under ``out`` to a regular file's size or a marker,
    and, if ``stat_data``, every regular file but the cache map to its stat data: size, mtime
    and ctime in nanoseconds, and inode.

    A folder is ``_DIR``. A symlink, anything else and a folder that cannot be listed
    (``out`` itself as "") are ``_OTHER``. A missing ``out`` gives an empty snapshot.
    """
    snapshot: dict[str, int] = {}
    stats: dict[str, tuple[int, int, int, int]] = {}
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
                        st = entry.stat(follow_symlinks=False)
                        snapshot[path] = st.st_size
                        if stat_data:
                            stats[path] = (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)
                    else:
                        snapshot[path] = _OTHER
        except OSError as exc:
            if folder or not isinstance(exc, FileNotFoundError):
                snapshot[folder] = _OTHER
    stats.pop(CACHE_FILE, None)  # written after the run, and not trusted by its stat data
    return snapshot, stats


def _stat_digest(stats: Mapping[str, tuple[int, int, int, int]]) -> str:
    """One digest of the stat data of every file in a ``_scan``.

    A file written, replaced by a rename, touched, added or removed changes
    it; so does a reset of its mtime, which sets its ctime.
    """
    return _digest(repr(sorted(stats.items())))


def _trusted(stats: Mapping[str, tuple[int, int, int, int]]) -> set[str]:
    """The files of ``stats`` that hold the bytes they held when the record was taken.

    The record is the ``_stat_digest`` of the output directory as a run left
    it, and the caller trusts no file unless ``stats`` still has that digest.
    The record was taken after every write, so
    a file changed since, other than by setting its mtime back, got an mtime
    no older than the newest one; it kept its stat data only if its recorded
    mtime was in that same clock tick. A file whose mtime is older than the
    newest is trusted, and the rest are racy and must be read (git's
    racy-clean rule, with the newest mtime in place of the index file's own).
    """
    mtimes = {path: mtime for path, (_, mtime, _, _) in stats.items()}
    newest = max(mtimes.values(), default=0)
    return {path for path, mtime in mtimes.items() if mtime < newest}


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


def _check_replaceable(out: str, snapshot: Mapping[str, int], ours: Collection[str]) -> None:
    """Refuse to replace a directory that genline did not write.

    An earlier output has a trace.map. Without one (it may have been deleted),
    a stray other than a folder must sit at a path this run writes or links.
    ``snapshot`` is the run's scan of ``out``.
    """
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
    """Run the full pipeline and write all artifacts atomically.

    A swap of the output that was cut off between its renames is recovered first.
    """
    recover_interrupted_swap(spec.output_path)
    report, _ = _run_engine(composed, diagram, spec, cache=None)
    return report


def incremental_generate(
    composed: ComposedGenerator,
    diagram: ClassDiagram,
    spec: VariantSpec,
    cache: GenCache,
    digest: str | None = None,
) -> tuple[GenerationReport, GenCache]:
    """Like generate, but skip building artifacts whose cache key is unchanged.

    Outputs are byte-identical to a cold run; the returned cache reflects the
    new state, with a run line for the run digest ``digest`` (see
    ``run_digest``) if one is given. A cache read by ``read_cache`` is written
    back to its map when the map's bytes change or the map is gone; a map
    kept outside the output directory that cannot be written fails the run
    before the output is replaced. On an aborted run the input cache is
    returned unchanged and nothing is written.
    """
    report, new_cache = _run_engine(composed, diagram, spec, cache=cache)
    if report.ok:
        if digest is not None:
            new_cache.run = (digest, report.facts_count)
        _save(new_cache)
    return report, new_cache


# ---------------------------------------------------------------------------
# Whole-run cutoff

def run_digest(
    model_text: str, spec: VariantSpec, composed: ComposedGenerator, bindings: Bindings
) -> str:
    """The digest of everything an incremental run's outputs depend on.

    It covers the input model's text, the mode, the selected features, the
    resolved ``bindings``, each composed component's ``id@version`` and
    genline's version. Components are trusted to build the same output for
    the same ``id@version``, as the per-artifact cache key trusts them.
    Everything is sorted, so the digest repeats across processes.
    """
    from . import __version__

    material = repr(
        (
            __version__,
            spec.mode,
            sorted(spec.configuration.selected),
            [f"{comp.id}@{comp.version}" for comp in composed.components],
            sorted((cid, sorted(values.items())) for cid, values in bindings.options.items()),
            sorted((cid, sorted(texts.items())) for cid, texts in bindings.vps.items()),
        )
    )
    return _digest(material + "\n" + model_text)


def unchanged_run(out_dir: str | Path, cache: GenCache, digest: str) -> GenerationReport | None:
    """The report of a run with inputs of ``digest`` if ``out_dir`` already holds its output.

    That holds when the run line of ``cache`` has ``digest``, one scan of the
    output lists the artifacts of ``cache`` and ``trace.map`` as regular files
    and nothing else but a regular ``gencache.map`` and folders above an
    artifact, and every one of those files hashes to its recorded content
    digest; an artifact that the recorded stat data vouches for (see
    ``_trusted``) is not read. The report then lists every artifact as a
    cache hit, with the recorded facts count and the trace read from
    ``trace.map`` on first use; nothing is parsed, built or written in the
    output. Otherwise it is None, and the engine must run.

    When the stat data no longer match the record, every file was read, so
    the record is renewed: ``cache`` takes the new stat digest and its map,
    if it has one, is written again.
    """
    if cache.run is None or cache.run[0] != digest or TRACE_FILE in cache.entries:
        return None
    out = os.path.realpath(out_dir)
    snapshot, stats = _scan(out)
    if _strays(snapshot, {*cache.entries, TRACE_FILE, CACHE_FILE}):
        return None
    stat = _stat_digest(stats)
    trusted = _trusted(stats) if stat == cache.stat else set()
    recorded = {
        path: content for path, (_, content) in cache.entries.items() if path not in trusted
    }
    recorded[TRACE_FILE] = cache.trace  # always read, and last: ``data`` keeps its bytes
    for path, content in recorded.items():
        data = _read(out, path) if snapshot.get(path, _OTHER) >= 0 else None
        if data is None or hashlib.sha256(data).hexdigest() != content:
            return None
    if stat != cache.stat:
        cache.stat = stat
        _save(cache)
    return GenerationReport(
        written=(),
        skipped_cache_hits=tuple(sorted(cache.entries)),
        facts_count=cache.run[1],
        violations=ValidationReport(),
        trace=TraceIndex.from_text(data.decode("utf-8", errors="replace")),
    )
