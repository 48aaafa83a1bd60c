"""Command-line entry point.

Commands: validate, enumerate, derive, generate, trace. Results go to stdout,
diagnostics to stderr. Exit codes: 0 success, 1 configuration or
context-condition failure, 2 composition error, 3 generation error, 4 usage
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence, TextIO

from .classdiagram import parse_class_diagram
from .components import (
    OptionBindingError,
    RegistrationError,
    ResolutionError,
    VariantSpec,
    check_bindings,
    resolve_components,
)
from .composition import CompositionFault, compose_all, schedule, validate_composition
from .featuremodel import (
    Configuration,
    FeatureModel,
    FeatureModelError,
    enumerate_configurations,
    parse_feature_model,
    validate_configuration,
)
from .generation import (
    TRACE_FILE,
    BlackboardError,
    EngineError,
    GenerationIOError,
    GenerationReport,
    TraceIndex,
    generate,
    incremental_generate,
    read_cache,
    run_digest,
    unchanged_run,
)
from .lexing import TextSyntaxError
from .report import ValidationReport
from .reference import build_reference_registry, reference_feature_model
from .vsp import parse_variant_spec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPOSITION = 2
EXIT_GENERATION = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _HelpShown(Exception):
    """-h or --help was given; the exception carries the help text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2)
        raise UsageError(message)

    def print_help(self, file: TextIO | None = None) -> None:
        # argparse would print to sys.stdout and exit(0); run_cli prints to ``out``.
        raise _HelpShown(self.format_help())


def _build_parser() -> _Parser:
    parser = _Parser(prog="genline", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str) -> _Parser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.error = parser.error  # type: ignore[method-assign]
        cmd.add_argument("-m", "--model", help="feature model file (default: built in)")
        return cmd

    validate = add("validate", "check a configuration against the feature model")
    validate.add_argument("-c", "--config", required=True, help="comma-separated feature ids")

    enumerate_cmd = add("enumerate", "count (and list) all valid configurations")
    enumerate_cmd.add_argument("--list", action="store_true", help="print every configuration")

    derive = add("derive", "resolve, compose, and validate a variant")
    derive.add_argument("-s", "--spec", required=True, help="variant spec (.vsp) file")

    gen = add("generate", "derive a variant and generate its artifacts")
    gen.add_argument("-s", "--spec", required=True, help="variant spec (.vsp) file")
    gen.add_argument("--incremental", action="store_true", help="reuse unchanged artifacts")
    gen.add_argument("--cache", help="cache directory (default: the output directory)")

    trace = add("trace", "query the trace map of a generated variant")
    trace.add_argument("-s", "--spec", required=True, help="variant spec (.vsp) file")
    trace.add_argument("--feature", help="feature id to look up")
    trace.add_argument("--artifact", help="artifact path to look up")
    return parser


# parse_args leaves the parser as it was, so one serves every call; the help
# text is formatted when it is shown, for the terminal width at that moment.
_PARSER = _build_parser()


def _print_violations(report: ValidationReport, err: TextIO) -> None:
    for violation in report.violations:
        print(f"{violation.code}: {violation.message}", file=err)


def _read_input(path: str, what: str) -> str:
    """The text of a user-given file; unreadable or non-UTF-8 bytes are a UsageError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc}") from exc


def _load_model(path: str | None) -> FeatureModel:
    if path is None:
        return reference_feature_model()
    text = _read_input(path, "feature model")
    try:
        return parse_feature_model(text)
    except TextSyntaxError as exc:
        raise UsageError(f"feature model {path!r}: {exc}") from exc


def _load_spec(path: str) -> VariantSpec:
    text = _read_input(path, "variant spec")
    try:
        return parse_variant_spec(text, base_dir=os.path.dirname(os.path.abspath(path)))
    except TextSyntaxError as exc:
        raise UsageError(f"variant spec {path!r}: {exc}") from exc


def exit_code_for_report(report: GenerationReport) -> int:
    """Map a finished generation report to the documented exit codes."""
    if report.ok:
        return EXIT_OK
    if report.failed_stage == "restrict":
        return EXIT_CONFIG
    return EXIT_GENERATION


def _cmd_validate(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    model = _load_model(args.model)
    ids = [part for part in (args.config or "").split(",") if part]
    if not ids:
        raise UsageError("-c/--config needs at least one feature id")
    report = validate_configuration(model, Configuration.of(*ids))
    if report.valid:
        print("valid", file=out)
        return EXIT_OK
    print("invalid", file=out)
    _print_violations(report, err)
    return EXIT_CONFIG


def _cmd_enumerate(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    model = _load_model(args.model)
    try:
        if args.list:
            limit = 2 ** len(model.feature_ids())
            count, configs = enumerate_configurations(model, limit=limit)
        else:
            count, configs = enumerate_configurations(model)
    except FeatureModelError as exc:
        raise UsageError(str(exc)) from exc
    print(count, file=out)
    if args.list and configs:
        for config in configs:
            print(",".join(sorted(config.selected)), file=out)
    return EXIT_OK


def _derive(model: FeatureModel, spec: VariantSpec, err: TextIO):
    """Shared front half of derive and generate: (exit code, composed generator,
    bindings), with None for both when the variant is rejected."""
    config_report = validate_configuration(model, spec.configuration)
    if not config_report.valid:
        _print_violations(config_report, err)
        return EXIT_CONFIG, None, None
    registry = build_reference_registry(model)
    components = resolve_components(spec.configuration, registry)
    composed = compose_all(components)
    bindings = check_bindings(spec, composed.components)
    composition_report = validate_composition(composed, spec)
    if not composition_report.valid:
        _print_violations(composition_report, err)
        return EXIT_COMPOSITION, None, None
    return EXIT_OK, composed, bindings


def _cmd_derive(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    model = _load_model(args.model)
    spec = _load_spec(args.spec)
    code, composed, bindings = _derive(model, spec, err)
    if composed is None:
        return code
    print(f"variant {spec.name}", file=out)
    print("configuration: " + ", ".join(sorted(spec.configuration.selected)), file=out)
    print(
        "components: "
        + ", ".join(f"{c.id} {c.version}" for c in composed.components),
        file=out,
    )
    options = bindings.qualified()
    if options:
        print("options:", file=out)
        for key, value in sorted(options.items()):
            text = ("true" if value else "false") if isinstance(value, bool) else str(value)
            print(f"  {key} = {text}", file=out)
    vps = {f"{cid}.{name}": text for cid, texts in bindings.vps.items() for name, text in texts.items()}
    if vps:
        print("variation points:", file=out)
        for key, text in sorted(vps.items()):
            print(f"  {key} = {text!r}", file=out)
    print(f"mode: {spec.mode}", file=out)
    steps = schedule(composed, spec, bindings)
    print("schedule:", file=out)
    for step in steps:
        print(f"  {step.phase} {step.component.id}.{step.behavior.name}", file=out)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    model = _load_model(args.model)
    spec = _load_spec(args.spec)
    code, composed, bindings = _derive(model, spec, err)
    if composed is None:
        return code
    if not spec.model_path:
        raise UsageError(f"variant {spec.name!r} names no input model")
    model_text = _read_input(spec.model_path, "input model")
    report = None
    if args.incremental:
        if args.cache:
            # The nearest existing ancestor must be a directory, or the cache
            # map could never be written. Inside out: the map would be a
            # stray that every run swaps away; out: itself is where it lives
            # without --cache.
            cache_dir = Path(args.cache)
            existing = next(p for p in (cache_dir, *cache_dir.parents) if p.exists())
            if not existing.is_dir():
                raise UsageError(f"--cache {args.cache!r} is not a directory")
            out_dir = Path(os.path.realpath(spec.output_path))
            if out_dir in Path(os.path.realpath(cache_dir)).parents:
                raise UsageError(
                    f"--cache {args.cache!r} lies inside the output directory {spec.output_path!r}"
                )
        cache = read_cache(spec.output_path, args.cache)
        # Unchanged inputs over the output they wrote: done without parsing the model.
        digest = run_digest(model_text, spec, composed, bindings)
        report = unchanged_run(spec.output_path, cache, digest)
    if report is None:
        try:
            diagram = parse_class_diagram(model_text)
        except TextSyntaxError as exc:
            print(f"input model {spec.model_path!r}: {exc}", file=err)
            return EXIT_CONFIG
        if args.incremental:
            report, _ = incremental_generate(composed, diagram, spec, cache, digest)
        else:
            report = generate(composed, diagram, spec)
    if not report.ok:
        print(f"generation failed in the {report.failed_stage} stage", file=err)
        _print_violations(report.violations, err)
        return exit_code_for_report(report)
    written = ", ".join(report.written) if report.written else "none"
    skipped = ", ".join(report.skipped_cache_hits) if report.skipped_cache_hits else "none"
    print(f"variant {spec.name}: {len(report.written)} artifact(s) into {spec.output_path}", file=out)
    print(f"written: {written}", file=out)
    print(f"cache hits: {skipped}", file=out)
    print(f"facts: {report.facts_count}", file=out)
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if bool(args.feature) == bool(args.artifact):
        raise UsageError("trace needs exactly one of --feature or --artifact")
    spec = _load_spec(args.spec)
    trace_path = Path(spec.output_path) / TRACE_FILE
    try:
        text = trace_path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise UsageError(f"no trace map at {str(trace_path)!r}: {exc}") from exc
    trace = TraceIndex.from_text(text)
    if args.feature:
        ranges = trace.by_feature.get(args.feature)
        if ranges is None:
            print(f"unknown feature: {args.feature}", file=out)
            return EXIT_OK
        for path, (start, end) in ranges:
            print(f"{path}:{start}-{end}", file=out)
        return EXIT_OK
    regions = trace.by_artifact.get(args.artifact)
    if regions is None:
        print(f"unknown artifact: {args.artifact}", file=out)
        return EXIT_OK
    for region in regions:
        print(f"{region.start}-{region.end} {region.component} {','.join(region.features)}", file=out)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "derive": _cmd_derive,
    "generate": _cmd_generate,
    "trace": _cmd_trace,
}


def run_cli(argv: Sequence[str], out: TextIO, err: TextIO) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if not args.command:
            raise UsageError("a command is required (validate, enumerate, derive, generate, trace)")
        return _COMMANDS[args.command](args, out, err)
    except _HelpShown as exc:
        print(exc, file=out, end="")
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except (ResolutionError, OptionBindingError, RegistrationError, CompositionFault) as exc:
        print(str(exc), file=err)
        return EXIT_COMPOSITION
    except (GenerationIOError, EngineError, BlackboardError) as exc:
        print(str(exc), file=err)
        return EXIT_GENERATION


def main(argv: Sequence[str] | None = None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
