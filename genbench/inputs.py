"""Seeded synthetic inputs for the benchmark: class diagrams, feature models, specs.

Everything here is plain data built from a ``random.Random`` and rendered to
the CDL, FML and VSP text formats; genline only ever sees the rendered files.
Sizes are fixed per workload and the seed only chooses names, structure and
order, so the amount of work per operation barely moves between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ALL_FEATURES = (
    "CD2Java", "Types", "Class", "Enum", "Interface", "DefaultConstructor", "Builder", "Factory",
)
OPTIONAL_FEATURES = ("Enum", "Interface", "DefaultConstructor", "Builder", "Factory")
MODES = ("generation_time", "run_time", "hybrid")
BUILTIN_TYPES = ("int", "boolean", "string")

# Words the CDL or target-language grammars reserve; generated names avoid them.
_RESERVED = frozenset({
    "classdiagram", "class", "interface", "enum", "extends", "implements",
    "package", "return", "new", "this", "void", *BUILTIN_TYPES,
})
_LOWER = "abcdefghijklmnopqrstuvwxyz"
_UPPER = _LOWER.upper()


# ---------------------------------------------------------------------------
# Class diagrams

@dataclass
class ClassSpec:
    name: str
    tags: tuple[str, ...] = ()
    superclass: str | None = None
    interfaces: tuple[str, ...] = ()
    attributes: list[tuple[str, str]] = field(default_factory=list)  # (name, type)


@dataclass
class InterfaceSpec:
    name: str
    operations: list[tuple[str, str]]  # (name, return type)


@dataclass
class EnumSpec:
    name: str
    constants: list[str]


@dataclass
class DiagramSpec:
    name: str
    types: list  # ClassSpec | InterfaceSpec | EnumSpec, in declaration order

    def classes(self) -> list[ClassSpec]:
        return [t for t in self.types if isinstance(t, ClassSpec)]

    def interfaces(self) -> list[InterfaceSpec]:
        return [t for t in self.types if isinstance(t, InterfaceSpec)]

    def enums(self) -> list[EnumSpec]:
        return [t for t in self.types if isinstance(t, EnumSpec)]


class _Names:
    """Unique fixed-length names, so name length never varies with the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken: set[str] = set()

    def type_name(self) -> str:
        return self._fresh(lambda: self.rng.choice(_UPPER) + self._letters(_LOWER, 7), self.taken)

    def member_name(self, taken: set[str]) -> str:
        return self._fresh(lambda: self._letters(_LOWER, 6), taken)

    def constant(self, taken: set[str]) -> str:
        return self._fresh(lambda: self._letters(_UPPER, 5), taken)

    def _letters(self, alphabet: str, n: int) -> str:
        return "".join(self.rng.choice(alphabet) for _ in range(n))

    @staticmethod
    def _fresh(make, taken: set[str]) -> str:
        while True:
            name = make()
            if name not in taken and name not in _RESERVED:
                taken.add(name)
                return name


def large_diagram(seed: int, n_classes: int) -> DiagramSpec:
    """A diagram exercising every CDL construct, with fixed counts per size.

    Per 20 classes: 1 interface, 1 enum, 8 subclasses (each extending an
    earlier class, so inheritance chains form), 5 classes implementing one or
    two interfaces, 3 ``<<external>>`` and 2 ``<<nobuilder>>`` classes. Each
    class has 1 to 5 attributes, 3 on average; attribute types are builtins,
    enums or classes.
    """
    rng = random.Random(seed)
    names = _Names(rng)
    diagram_name = "D" + "".join(rng.choice(_LOWER) for _ in range(7))
    names.taken.add(diagram_name)
    n_units = max(1, n_classes // 20)
    interfaces = [_interface(names) for _ in range(n_units)]
    enums = [_enum(names, 3 + i % 3) for i in range(n_units)]
    classes = [ClassSpec(names.type_name()) for _ in range(n_classes)]

    def pick(count: int) -> list[int]:
        return rng.sample(range(n_classes), count)

    for i in rng.sample(range(1, n_classes), n_classes * 8 // 20):
        classes[i].superclass = classes[rng.randrange(i)].name
    for i in pick(n_classes * 5 // 20):
        chosen = rng.sample(interfaces, min(len(interfaces), 1 + i % 2))
        classes[i].interfaces = tuple(iface.name for iface in chosen)
    tags: dict[int, list[str]] = {}
    for i in pick(n_classes * 3 // 20):
        tags.setdefault(i, []).append("external")
    for i in pick(n_classes * 2 // 20):
        tags.setdefault(i, []).append("nobuilder")
    for i, tag_list in tags.items():
        classes[i].tags = tuple(tag_list)

    counts = [1 + i % 5 for i in range(n_classes)]
    rng.shuffle(counts)
    for cls, count in zip(classes, counts):
        taken: set[str] = set()
        for _ in range(count):
            cls.attributes.append((names.member_name(taken), _attr_type(rng, classes, enums)))

    types: list = [*classes, *interfaces, *enums]
    rng.shuffle(types)
    return DiagramSpec(diagram_name, types)


def _interface(names: _Names) -> InterfaceSpec:
    taken: set[str] = set()
    ops = [(names.member_name(taken), BUILTIN_TYPES[k % 3]) for k in range(2)]
    return InterfaceSpec(names.type_name(), ops)


def _enum(names: _Names, n_constants: int) -> EnumSpec:
    taken: set[str] = set()
    return EnumSpec(names.type_name(), [names.constant(taken) for _ in range(n_constants)])


def _attr_type(rng: random.Random, classes: list[ClassSpec], enums: list[EnumSpec]) -> str:
    roll = rng.random()
    if roll < 0.6 or not enums:
        return rng.choice(BUILTIN_TYPES)
    if roll < 0.8:
        return rng.choice(enums).name
    return rng.choice(classes).name


def small_diagram(seed: int) -> DiagramSpec:
    """The base diagram of the product sweep: 6 classes, 2 interfaces, 2 enums."""
    rng = random.Random(seed)
    names = _Names(rng)
    diagram_name = "S" + "".join(rng.choice(_LOWER) for _ in range(7))
    names.taken.add(diagram_name)
    interfaces = [_interface(names) for _ in range(2)]
    enums = [_enum(names, 3) for _ in range(2)]
    classes = [ClassSpec(names.type_name()) for _ in range(6)]
    classes[1].superclass = classes[0].name
    classes[2].superclass = classes[1].name
    classes[3].interfaces = (interfaces[0].name,)
    classes[4].interfaces = (interfaces[0].name, interfaces[1].name)
    classes[0].tags = ("external",)
    classes[3].tags = ("external", "nobuilder")
    classes[5].tags = ("nobuilder",)
    for cls in classes:
        taken: set[str] = set()
        for _ in range(3):
            cls.attributes.append((names.member_name(taken), _attr_type(rng, classes, enums)))
    types: list = [*classes, *interfaces, *enums]
    rng.shuffle(types)
    return DiagramSpec(diagram_name, types)


def restrict_to_variant(diagram: DiagramSpec, features: frozenset[str], mode: str) -> DiagramSpec:
    """The part of a diagram a variant admits: no construct whose feature is off.

    Enums need Enum, interfaces and implements clauses need Interface,
    ``<<nobuilder>>`` needs Builder and ``<<external>>`` needs hybrid binding.
    Attributes typed by a dropped enum fall back to ``int``.
    """
    keep_enums = "Enum" in features
    keep_ifaces = "Interface" in features
    dropped = set() if keep_enums else {e.name for e in diagram.enums()}
    types: list = []
    for decl in diagram.types:
        if isinstance(decl, EnumSpec):
            if keep_enums:
                types.append(decl)
        elif isinstance(decl, InterfaceSpec):
            if keep_ifaces:
                types.append(decl)
        else:
            tags = tuple(
                t for t in decl.tags
                if (t != "nobuilder" or "Builder" in features) and (t != "external" or mode == "hybrid")
            )
            types.append(ClassSpec(
                decl.name,
                tags,
                decl.superclass,
                decl.interfaces if keep_ifaces else (),
                [(n, "int" if t in dropped else t) for n, t in decl.attributes],
            ))
    return DiagramSpec(diagram.name, types)


def render_cdl(diagram: DiagramSpec) -> str:
    lines = [f"classdiagram {diagram.name} {{"]
    for decl in diagram.types:
        if isinstance(decl, ClassSpec):
            head = "".join(f"<<{t}>> " for t in decl.tags) + f"class {decl.name}"
            if decl.superclass:
                head += f" extends {decl.superclass}"
            if decl.interfaces:
                head += " implements " + ", ".join(decl.interfaces)
            lines.append(f"  {head} {{")
            lines.extend(f"    {n}: {t};" for n, t in decl.attributes)
            lines.append("  }")
        elif isinstance(decl, InterfaceSpec):
            lines.append(f"  interface {decl.name} {{")
            lines.extend(f"    {n}(): {t};" for n, t in decl.operations)
            lines.append("  }")
        else:
            lines.append(f"  enum {decl.name} {{ {', '.join(decl.constants)} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def edit_attribute(rng: random.Random, diagram: DiagramSpec) -> ClassSpec:
    """Change one attribute's type to another builtin type; return its class."""
    cls = rng.choice(diagram.classes())
    index = rng.randrange(len(cls.attributes))
    name, old = cls.attributes[index]
    cls.attributes[index] = (name, rng.choice([t for t in BUILTIN_TYPES if t != old]))
    return cls


# ---------------------------------------------------------------------------
# Variant specs

def composable_configurations() -> list[frozenset[str]]:
    """The reference configurations that compose: Builder and Factory need a
    default constructor, so they need DefaultConstructor (20 of 32)."""
    configs = []
    for mask in range(1 << len(OPTIONAL_FEATURES)):
        chosen = {f for i, f in enumerate(OPTIONAL_FEATURES) if mask >> i & 1}
        if chosen & {"Builder", "Factory"} and "DefaultConstructor" not in chosen:
            continue
        configs.append(frozenset({"CD2Java", "Types", "Class", *chosen}))
    return configs


def render_vsp(name: str, features: frozenset[str], mode: str, model: str, out: str) -> str:
    ordered = [f for f in ALL_FEATURES if f in features]
    return (
        f"variant {name} {{\n"
        f"  model: {model};\n"
        f"  features: [{', '.join(ordered)}];\n"
        f"  mode: {mode};\n"
        f"  out: {out};\n"
        "}\n"
    )


# ---------------------------------------------------------------------------
# Feature models

@dataclass
class FeatureSpec:
    name: str
    mandatory: bool
    children: list["FeatureSpec"] = field(default_factory=list)
    group: tuple[str, list[str]] | None = None  # (kind, member names)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class FeatureModelSpec:
    name: str
    root: FeatureSpec
    constraints: list[tuple[str, str, str]]  # (kind, lhs, rhs)


def feature_model(seed: int, width: int = 3) -> FeatureModelSpec:
    """A model of 4 + 4*width features (16 at width 3).

    The root has five subtrees: an xor group and an or group of ``width``
    members each, an optional subtree of ``width - 1`` optional leaves, a
    subtree with one mandatory and ``width - 2`` optional leaves, and one
    optional leaf. Two cross-tree constraints each join a different pair of
    subtrees, so no subtree is touched by two constraints and the count has a
    closed form (``expected_count``).
    """
    rng = random.Random(seed)
    names = _Names(rng)

    def leaf(mandatory: bool = False) -> FeatureSpec:
        return FeatureSpec(names.type_name(), mandatory)

    def grouped(kind: str) -> FeatureSpec:
        members = [leaf() for _ in range(width)]
        return FeatureSpec(
            names.type_name(), rng.random() < 0.5, members, (kind, [m.name for m in members])
        )

    subtrees = [
        grouped("xor"),
        grouped("or"),
        FeatureSpec(names.type_name(), False, [leaf() for _ in range(width - 1)]),
        FeatureSpec(names.type_name(), rng.random() < 0.5, [leaf(True)] + [leaf() for _ in range(width - 2)]),
        leaf(),
    ]
    for sub in subtrees:
        rng.shuffle(sub.children)
    rng.shuffle(subtrees)
    root = FeatureSpec(names.type_name(), True, subtrees)
    pairs = rng.sample(range(len(subtrees)), 4)
    constraints = []
    for a, b in (pairs[:2], pairs[2:]):
        lhs = rng.choice(list(subtrees[a].walk())).name
        rhs = rng.choice(list(subtrees[b].walk())).name
        constraints.append((rng.choice(("requires", "excludes")), lhs, rhs))
    return FeatureModelSpec("M" + root.name, root, constraints)


def render_fml(model: FeatureModelSpec) -> str:
    lines = [f"featuremodel {model.name} {{"]

    def emit(node: FeatureSpec, depth: int) -> None:
        pad = "  " * depth
        marker = "!" if node.mandatory else "?"
        if not node.children:
            lines.append(f"{pad}{node.name}{marker}")
            return
        lines.append(f"{pad}{node.name}{marker} {{")
        for child in node.children:
            emit(child, depth + 1)
        if node.group:
            lines.append(f"{pad}  {node.group[0]} {{ {', '.join(node.group[1])} }}")
        lines.append(f"{pad}}}")

    emit(model.root, 1)
    lines.append("}")
    lines.append("constraints {")
    lines.extend(f"  {lhs} {kind} {rhs};" for kind, lhs, rhs in model.constraints)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _configs(node: FeatureSpec) -> int:
    """Configurations of the subtree under ``node``, given ``node`` is selected."""
    total = 1
    members = set(node.group[1]) if node.group else set()
    for child in node.children:
        if child.name not in members:
            total *= _configs(child) + (0 if child.mandatory else 1)
    if node.group:
        counts = [_configs(c) for c in node.children if c.name in members]
        total *= sum(counts) if node.group[0] == "xor" else _or_product(counts)
    return total


def _with(node: FeatureSpec, target: str) -> int:
    """Configurations of the subtree under ``node`` (selected) that select ``target``."""
    if node.name == target:
        return _configs(node)
    members = set(node.group[1]) if node.group else set()
    path = next(c for c in node.children if target in {f.name for f in c.walk()})
    total = 1
    for child in node.children:
        if child.name not in members and child is not path:
            total *= _configs(child) + (0 if child.mandatory else 1)
    if path.name not in members:
        total *= _with(path, target)
        if node.group:
            counts = [_configs(c) for c in node.children if c.name in members]
            total *= sum(counts) if node.group[0] == "xor" else _or_product(counts)
        return total
    if node.group[0] == "xor":
        return total * _with(path, target)
    others = 1
    for child in node.children:
        if child.name in members and child is not path:
            others *= _configs(child) + 1
    return total * _with(path, target) * others


def _or_product(counts: list[int]) -> int:
    product = 1
    for c in counts:
        product *= c + 1
    return product - 1


def expected_count(model: FeatureModelSpec) -> int:
    """Closed-form count of valid configurations.

    The root is mandatory and its subtrees are independent except for the
    constraints, each of which joins two subtrees no other constraint touches.
    A free subtree contributes its own count (plus one when it may be left
    out). A joined pair contributes all its combinations minus those that
    break the constraint: ``requires`` breaks when lhs is in and rhs out,
    ``excludes`` when both are in.
    """
    subtrees = model.root.children

    def owner(feature: str) -> FeatureSpec:
        return next(s for s in subtrees if feature in {f.name for f in s.walk()})

    def total(sub: FeatureSpec) -> int:
        return _configs(sub) + (0 if sub.mandatory else 1)

    joined: set[str] = set()
    count = 1
    for kind, lhs, rhs in model.constraints:
        a, b = owner(lhs), owner(rhs)
        joined |= {a.name, b.name}
        with_l, with_r = _with(a, lhs), _with(b, rhs)
        broken = with_l * (total(b) - with_r) if kind == "requires" else with_l * with_r
        count *= total(a) * total(b) - broken
    for sub in subtrees:
        if sub.name not in joined:
            count *= total(sub)
    return count
