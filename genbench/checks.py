"""Output checkers that work from the generator's own data, not from genline.

Each function returns a list of problems; an empty list means the output is
as expected. The expectations restate the reference product line's contract
(one unit per type, a Provider per class under run-time and hybrid binding, a
Builder per class without ``<<nobuilder>>``, one Factory) rather than
comparing against stored output.
"""

from __future__ import annotations

import re
from pathlib import Path

from inputs import ClassSpec, DiagramSpec

TRACE_FILE = "trace.map"
CACHE_FILE = "gencache.map"


def _upper_first(name: str) -> str:
    return name[:1].upper() + name[1:]


def routed_classes(diagram: DiagramSpec, mode: str) -> set[str]:
    """Classes whose creation the Factory delegates to a provider."""
    if mode == "run_time":
        return {c.name for c in diagram.classes()}
    if mode == "hybrid":
        return {c.name for c in diagram.classes() if "external" in c.tags}
    return set()


def builder_classes(diagram: DiagramSpec, features: frozenset[str]) -> list[ClassSpec]:
    if "Builder" not in features:
        return []
    return [c for c in diagram.classes() if "nobuilder" not in c.tags]


def expected_artifacts(diagram: DiagramSpec, features: frozenset[str], mode: str) -> set[str]:
    paths = {f"{c.name}.oo" for c in diagram.classes()}
    if mode in ("run_time", "hybrid"):
        paths |= {f"{c.name}Provider.oo" for c in diagram.classes()}
    paths |= {f"{c.name}Builder.oo" for c in builder_classes(diagram, features)}
    if "Enum" in features:
        paths |= {f"{e.name}.oo" for e in diagram.enums()}
    if "Interface" in features:
        paths |= {f"{i.name}.oo" for i in diagram.interfaces()}
    if "Factory" in features:
        paths.add(f"{diagram.name}Factory.oo")
    return paths


def expected_facts(diagram: DiagramSpec, features: frozenset[str], mode: str) -> int:
    """Blackboard facts of one run: types, constructors, hooks, claims, methods."""
    classes = diagram.classes()
    types = len(classes)
    types += len(diagram.enums()) if "Enum" in features else 0
    types += len(diagram.interfaces()) if "Interface" in features else 0
    count = types + len(expected_artifacts(diagram, features, mode))
    if "DefaultConstructor" in features:
        count += len(classes)
    if mode in ("run_time", "hybrid"):
        count += len(classes)
    count += sum(len(c.attributes) + 1 for c in builder_classes(diagram, features))
    if "Factory" in features:
        count += len(classes) + len(routed_classes(diagram, mode))
    return count


def parse_report(text: str) -> list[dict]:
    """The per-variant blocks ``genline generate`` prints on stdout."""
    blocks: list[dict] = []
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if line.startswith("variant "):
            blocks.append({})
        elif key in ("written", "cache hits"):
            blocks[-1][key] = set() if value == "none" else set(value.split(", "))
        elif key == "facts":
            blocks[-1][key] = int(value)
    return blocks


def check_report(block: dict, written: set[str], hits: set[str], facts: int) -> list[str]:
    problems = []
    if block.get("written") != written:
        problems.append(f"written {sorted(block.get('written') or ())[:5]}... expected {len(written)} artifact(s)")
    if block.get("cache hits") != hits:
        problems.append(f"{len(block.get('cache hits') or ())} cache hit(s), expected {len(hits)}")
    if block.get("facts") != facts:
        problems.append(f"{block.get('facts')} facts, expected {facts}")
    return problems


def check_output(
    out_dir: Path,
    diagram: DiagramSpec,
    features: frozenset[str],
    mode: str,
    extra: frozenset[str] = frozenset(),
) -> list[str]:
    """Check one variant's output directory against the diagram it came from."""
    expected = expected_artifacts(diagram, features, mode)
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if present != expected | {TRACE_FILE} | extra:
        missing = sorted(expected - present)[:3]
        unexpected = sorted(present - expected - {TRACE_FILE} - extra)[:3]
        return [f"{out_dir}: missing {missing}, unexpected {unexpected}"]
    texts = {name: (out_dir / name).read_text(encoding="utf-8") for name in expected}
    problems = _check_tiling(out_dir, texts)
    package = f"package {diagram.name};"
    for name, text in texts.items():
        if not text.startswith(package + "\n"):
            problems.append(f"{name}: does not start with {package!r}")
    for cls in diagram.classes():
        problems += _check_class(texts[f"{cls.name}.oo"], cls, features)
        provider = texts.get(f"{cls.name}Provider.oo")
        if provider is not None and f"  {cls.name} provide();\n" not in provider:
            problems.append(f"{cls.name}Provider.oo: no provide() returning {cls.name}")
    for cls in builder_classes(diagram, features):
        text = texts[f"{cls.name}Builder.oo"]
        for attr, type_name in cls.attributes:
            signature = f"  {cls.name}Builder with{_upper_first(attr)}({type_name} v) "
            if signature not in text:
                problems.append(f"{cls.name}Builder.oo: no setter for {attr}")
    if "Factory" in features:
        problems += _check_factory(texts[f"{diagram.name}Factory.oo"], diagram, mode)
    if "Enum" in features:
        for decl in diagram.enums():
            body = re.findall(r"^  ([A-Z]+),?$", texts[f"{decl.name}.oo"], re.M)
            if body != decl.constants:
                problems.append(f"{decl.name}.oo: constants {body} != {decl.constants}")
    if "Interface" in features:
        for decl in diagram.interfaces():
            ops = re.findall(r"^  (\w+) (\w+)\(\);$", texts[f"{decl.name}.oo"], re.M)
            if ops != [(t, n) for n, t in decl.operations]:
                problems.append(f"{decl.name}.oo: operations {ops}")
    return problems


def _check_class(text: str, cls: ClassSpec, features: frozenset[str]) -> list[str]:
    header = f"class {cls.name}"
    if cls.superclass:
        header += f" extends {cls.superclass}"
    if cls.interfaces:
        header += " implements " + ", ".join(cls.interfaces)
    lines = text.splitlines()
    problems = []
    if len(lines) < 2 or lines[1] != header + " {":
        problems.append(f"{cls.name}.oo: header is not {header!r}")
    fields = [tuple(reversed(m)) for m in re.findall(r"^  (\w+) (\w+);$", text, re.M)]
    if fields != list(cls.attributes):
        problems.append(f"{cls.name}.oo: fields {fields} != {cls.attributes}")
    has_ctor = re.search(rf"^  {cls.name}\(\) \{{.*\}}$", text, re.M) is not None
    if has_ctor != ("DefaultConstructor" in features):
        problems.append(f"{cls.name}.oo: default constructor present={has_ctor}")
    return problems


def _check_factory(text: str, diagram: DiagramSpec, mode: str) -> list[str]:
    creations = dict(re.findall(r"^  \w+ create(\w+)\(\) \{ return (.*); \}$", text, re.M))
    names = {c.name for c in diagram.classes()}
    problems = []
    if set(creations) != names:
        problems.append(f"factory creates {len(creations)} classes, expected {len(names)}")
    delegated = {
        name for name, body in creations.items()
        if body == f"{name[:1].lower()}{name[1:]}Provider.provide()"
    }
    direct = {name for name, body in creations.items() if body == f"new {name}()"}
    routed = routed_classes(diagram, mode)
    if delegated != routed or direct != names - routed:
        problems.append(
            f"factory delegates {len(delegated)} and builds {len(direct)} classes, "
            f"expected {len(routed)} delegated under {mode}"
        )
    return problems


def _check_tiling(out_dir: Path, texts: dict[str, str]) -> list[str]:
    """The trace regions of each artifact cover lines 1..n once, in order."""
    regions: dict[str, list[tuple[int, int]]] = {}
    for raw in (out_dir / TRACE_FILE).read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"(\S+):(\d+)-(\d+) \S+ \S+", raw)
        if match is None:
            return [f"{TRACE_FILE}: malformed line {raw!r}"]
        regions.setdefault(match[1], []).append((int(match[2]), int(match[3])))
    problems = []
    if set(regions) != set(texts):
        problems.append(f"{TRACE_FILE}: covers {len(regions)} artifacts, expected {len(texts)}")
    for name, spans in regions.items():
        n = texts.get(name, "").count("\n")
        next_line = 1
        for start, end in sorted(spans):
            if start != next_line or end < start:
                problems.append(f"{TRACE_FILE}: {name} region {start}-{end} leaves a gap or overlap")
                break
            next_line = end + 1
        else:
            if next_line != n + 1:
                problems.append(f"{TRACE_FILE}: {name} regions end at {next_line - 1}, file has {n} lines")
    return problems


def same_files(left: Path, right: Path, ignore: frozenset[str] = frozenset()) -> list[str]:
    """File-for-file equality of two output directories."""
    names_l = {p.name for p in left.iterdir()} - ignore
    names_r = {p.name for p in right.iterdir()} - ignore
    if names_l != names_r:
        return [f"{left} and {right} hold different files: {sorted(names_l ^ names_r)[:5]}"]
    return [
        f"{name} differs between {left} and {right}"
        for name in sorted(names_l)
        if (left / name).read_bytes() != (right / name).read_bytes()
    ]
