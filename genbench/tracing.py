"""Spans and call counts recorded from the benchmark, around calls into genline.

A ``Tracer`` replaces a function at the module or class attribute its caller
looks up (``genline.cli.parse_variant_spec``, ``Blackboard.query``, ...) with
a wrapper that records a span, or only counts calls where a span per call
would cost more than the work (``validate_configuration`` runs 2^n times in
``enumerate``). Spans stay in memory as ``[name, start, end, parent]`` lists
and are written out when the run ends. ``count_calls`` is the separate
counting pass: cProfile over one operation, grouped by the file each function
is defined in.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# (module or class, attribute, span name). The span name's first part is the
# layer the function belongs to, not the module that calls it.
SPAN_POINTS = (
    ("genline.cli", "parse_variant_spec", "vsp.parse_variant_spec"),
    ("genline.cli", "parse_feature_model", "featuremodel.parse_feature_model"),
    ("genline.reference", "parse_feature_model", "featuremodel.parse_feature_model"),
    ("genline.cli", "enumerate_configurations", "featuremodel.enumerate_configurations"),
    ("genline.cli", "parse_class_diagram", "classdiagram.parse_class_diagram"),
    ("genline.generation", "check_context_conditions", "classdiagram.check_context_conditions"),
    ("genline.cli", "build_reference_registry", "components.build_reference_registry"),
    ("genline.cli", "resolve_components", "components.resolve_components"),
    ("genline.cli", "check_bindings", "components.check_bindings"),
    ("genline.generation", "check_bindings", "components.check_bindings"),
    ("genline.cli", "compose_all", "composition.compose_all"),
    ("genline.cli", "validate_composition", "composition.validate_composition"),
    ("genline.cli", "schedule", "composition.schedule"),
    ("genline.generation", "schedule", "composition.schedule"),
    ("genline.cli", "generate", "generation.generate"),
    ("genline.cli", "incremental_generate", "generation.incremental_generate"),
    ("genline.generation:Blackboard", "query", "generation.Blackboard.query"),
    ("genline.generation:TraceIndex", "from_text", "generation.TraceIndex.from_text"),
    ("genline.generation:TraceIndex", "to_text", "generation.TraceIndex.to_text"),
    ("genline.ootl", "check_unit", "ootl.check_unit"),
    ("genline.ootl", "tokenize", "lexing.tokenize"),
    ("genline.classdiagram", "tokenize", "lexing.tokenize"),
    ("genline.featuremodel", "tokenize", "lexing.tokenize"),
    ("genline.reference", "class_artifact", "reference.class_artifact"),
    ("genline.reference", "provider_artifact", "reference.provider_artifact"),
    ("genline.reference", "enum_artifact", "reference.enum_artifact"),
    ("genline.reference", "interface_artifact", "reference.interface_artifact"),
    ("genline.reference", "builder_emit", "reference.builder_emit"),
    ("genline.reference", "factory_emit", "reference.factory_emit"),
)
COUNT_POINTS = (
    ("genline.cli", "validate_configuration", "featuremodel.validate_configuration"),
    ("genline.featuremodel", "validate_configuration", "featuremodel.validate_configuration"),
)

# Per-layer times: the summed duration of these spans in one operation.
TIME_METRICS = {
    "lexing.tokenize_s": ("lexing.tokenize",),
    "featuremodel.parse_s": ("featuremodel.parse_feature_model",),
    "featuremodel.enumerate_s": ("featuremodel.enumerate_configurations",),
    "vsp.parse_s": ("vsp.parse_variant_spec",),
    "classdiagram.parse_s": ("classdiagram.parse_class_diagram",),
    "classdiagram.check_s": ("classdiagram.check_context_conditions",),
    "components.resolve_s": (
        "components.build_reference_registry", "components.resolve_components",
        "components.check_bindings",
    ),
    "composition.compose_s": (
        "composition.compose_all", "composition.validate_composition", "composition.schedule",
    ),
    "generation.engine_s": ("generation.generate", "generation.incremental_generate"),
    "generation.query_s": ("generation.Blackboard.query",),
    "generation.trace_s": ("generation.TraceIndex.from_text", "generation.TraceIndex.to_text"),
    "ootl.check_s": ("ootl.check_unit",),
    "reference.emit_s": tuple(name for _, _, name in SPAN_POINTS if name.startswith("reference.")),
}
# Self times: span duration minus the duration of its direct child spans.
SELF_METRICS = {
    "generation.engine_self_s": TIME_METRICS["generation.engine_s"],
    "cli.self_s": ("cli.run_cli",),
}

LAYERS = (
    "lexing", "featuremodel", "vsp", "classdiagram", "components", "composition",
    "generation", "ootl", "reference", "cli", "formula", "report",
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = sys.modules[module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def install(self) -> None:
        for target, attr, name in SPAN_POINTS:
            self._wrap(_resolve(target), attr, name, spans=True)
        for target, attr, name in COUNT_POINTS:
            self._wrap(_resolve(target), attr, name, spans=False)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner: object, attr: str, name: str, spans: bool) -> None:
        original = vars(owner)[attr]
        func = original.__func__ if isinstance(original, staticmethod) else original
        observe = self._observer(name)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            result = func(*args, **kwargs)
            observe(result)
            return result

        def spanned(*args, **kwargs):
            counts[name] += 1
            with self.span(name):
                result = func(*args, **kwargs)
            observe(result)
            return result

        wrapper = spanned if spans else counted
        setattr(owner, attr, staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper)
        self._patches.append((owner, attr, original))

    def _observer(self, name: str) -> Callable[[object], None]:
        counts = self.counts
        if name == "lexing.tokenize":
            def observe(tokens):
                counts["lexing.tokens"] += len(tokens)
        elif name == "featuremodel.validate_configuration":
            def observe(report):
                counts["featuremodel.valid"] += report.valid
        elif name.startswith("generation.") and name.endswith("generate"):
            def observe(result):
                report = result[0] if isinstance(result, tuple) else result
                counts["generation.written"] += len(report.written)
                counts["generation.cache_hits"] += len(report.skipped_cache_hits)
                counts["generation.facts"] += report.facts_count
        else:
            def observe(result):
                pass
        return observe


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer numbers of one operation from its spans and call counts."""
    total: Counter[str] = Counter()
    children: Counter[int] = Counter()
    for name, start, end, parent in spans:
        total[name] += end - start
        if parent >= 0:
            children[parent] += end - start
    own: Counter[str] = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        own[name] += end - start - children[index]
    metrics = {m: sum(total[n] for n in names) for m, names in TIME_METRICS.items()}
    metrics.update({m: sum(own[n] for n in names) for m, names in SELF_METRICS.items()})
    validated = counts["featuremodel.validate_configuration"]
    written, hits = counts["generation.written"], counts["generation.cache_hits"]
    metrics.update({
        "lexing.tokens": counts["lexing.tokens"],
        "featuremodel.validate_calls": validated,
        "featuremodel.valid_ratio": counts["featuremodel.valid"] / validated if validated else 0.0,
        "generation.query_calls": counts["generation.Blackboard.query"],
        "generation.written": written,
        "generation.cache_hits": hits,
        "generation.hit_ratio": hits / (hits + written) if hits + written else 0.0,
        "generation.facts": counts["generation.facts"],
        "ootl.check_calls": counts["ootl.check_unit"],
    })
    return metrics


def count_calls(op: Callable[[], object], package_dir: Path) -> tuple[Counter, pstats.Stats]:
    """Run ``op`` once under cProfile; calls grouped by defining file.

    Functions of ``package_dir/<module>.py`` count under ``<module>``,
    built-ins under ``builtin`` and everything else (the standard library and
    the benchmark's own loop) under ``other``.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        op()
    finally:
        profile.disable()
    stats = pstats.Stats(profile)
    calls: Counter[str] = Counter()
    prefix = str(package_dir) + "/"
    for (filename, _, _), (_, ncalls, _, _, _) in stats.stats.items():
        if filename.startswith(prefix):
            group = filename[len(prefix):].removesuffix(".py")
        elif filename == "~":
            group = "builtin"
        else:
            group = "other"
        calls[group] += ncalls
    return calls, stats


# Functions the trace spans inside the engine; the rest of the engine's time
# under cProfile is its self time.
_ENGINE_CHILDREN = {
    ("generation.py", "query"), ("generation.py", "from_text"), ("generation.py", "to_text"),
    ("classdiagram.py", "check_context_conditions"), ("components.py", "check_bindings"),
    ("composition.py", "schedule"), ("ootl.py", "check_unit"),
    *(("reference.py", n.split(".")[1]) for n in TIME_METRICS["reference.emit_s"]),
}


def cache_key_share(stats: pstats.Stats) -> float:
    """Share of the engine's self time that cProfile puts in ``_cache_key``.

    The engine's self time is ``_run_engine``'s cumulative time minus that of
    the traced functions it reaches; calls from ``cli.py`` happen outside it.
    """
    engine = cache_key = children = 0.0
    for (filename, _, func), (_, _, _, cumtime, callers) in stats.stats.items():
        base = Path(filename).name
        if (base, func) == ("generation.py", "_run_engine"):
            engine += cumtime
        elif (base, func) == ("generation.py", "_cache_key"):
            cache_key += cumtime
        elif (base, func) in _ENGINE_CHILDREN:
            for (c_file, _, _), caller_stats in callers.items():
                if Path(c_file).name != "cli.py":
                    children += caller_stats[3]
    own = engine - children
    return cache_key / own if own > 0 else 0.0
