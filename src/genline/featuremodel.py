"""Feature models: parsing, configuration validation, and enumeration.

A feature model is a tree of features with mandatory/optional markers, optional
xor/or groups over a feature's children, and cross-tree requires/excludes
constraints. A configuration is a set of selected features; it is valid when it
satisfies the tree and constraint semantics. ``model_formula`` states those
semantics as one propositional formula (Batory, SPLC 2005), and enumeration
counts and lists its models through a BDD instead of testing every subset.

FML text format:

    model    := "featuremodel" IDENT "{" node "}" [ "constraints" "{" { ctc } "}" ]
    node     := IDENT marker [ "{" { node | group } "}" ]
    marker   := "!" (mandatory) | "?" (optional)
    group    := ( "xor" | "or" ) "{" IDENT { "," IDENT } "}"
    ctc      := IDENT ( "requires" | "excludes" ) IDENT ";"

Comments run from "//" to end of line; whitespace is insignificant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Mapping

from .formula import FALSE, TRUE, And, Atom, Bdd, Formula, Implies, Not, Or
from .lexing import MAX_NESTING, TextSyntaxError, TokenStream, tokenize
from .report import ValidationReport, Violation

MANDATORY = "mandatory"
OPTIONAL = "optional"

ENUMERATION_BOUND = 24

# Stable violation codes, one per configuration rule.
CFG_ROOT = "CFG-ROOT"
CFG_PARENT = "CFG-PARENT"
CFG_MANDATORY = "CFG-MANDATORY"
CFG_XOR = "CFG-XOR"
CFG_OR = "CFG-OR"
CFG_REQUIRES = "CFG-REQUIRES"
CFG_EXCLUDES = "CFG-EXCLUDES"
CFG_UNKNOWN = "CFG-UNKNOWN"


class FeatureModelError(Exception):
    """Structural problem in a feature model or an enumeration request."""


FmlSyntaxError = TextSyntaxError


@dataclass(frozen=True)
class FeatureGroup:
    kind: str  # "xor" | "or"
    members: tuple[str, ...]


@dataclass(frozen=True)
class Feature:
    id: str
    name: str
    parent: str | None
    variability: str  # "mandatory" | "optional"
    children: tuple[str, ...] = ()
    group: FeatureGroup | None = None


@dataclass(frozen=True)
class CrossTreeConstraint:
    kind: str  # "requires" | "excludes"
    lhs: str
    rhs: str


@dataclass(frozen=True)
class FeatureModel:
    name: str
    root: str
    features: Mapping[str, Feature]
    constraints: tuple[CrossTreeConstraint, ...] = ()

    def feature_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.features))


@dataclass(frozen=True)
class Configuration:
    selected: frozenset[str]

    @staticmethod
    def of(*ids: str) -> "Configuration":
        return Configuration(frozenset(ids))


# ---------------------------------------------------------------------------
# Parsing

_PUNCTS = ("{", "}", "!", "?", ",", ";")


@dataclass
class _Node:
    name: str
    variability: str
    children: list["_Node"] = field(default_factory=list)
    groups: list[tuple[str, tuple[str, ...], int, int]] = field(default_factory=list)
    line: int = 0
    column: int = 0


def parse_feature_model(source: str) -> FeatureModel:
    """Parse FML text into a validated FeatureModel."""
    ts = TokenStream(tokenize(source, _PUNCTS), source)
    ts.expect_keyword("featuremodel")
    name = ts.expect_ident("model name").value
    ts.expect_punct("{")
    root_node = _parse_node(ts, 1)
    ts.expect_punct("}")
    constraints: list[tuple[CrossTreeConstraint, int, int]] = []
    if ts.accept_ident("constraints"):
        ts.expect_punct("{")
        while not ts.at_punct("}"):
            lhs = ts.expect_ident("feature id")
            if not (ts.at_ident("requires") or ts.at_ident("excludes")):
                ts.expected("'requires' or 'excludes'")
            kind = ts.next()
            rhs = ts.expect_ident("feature id")
            ts.expect_punct(";")
            constraints.append(
                (CrossTreeConstraint(kind.value, lhs.value, rhs.value), *ts.position(lhs))
            )
        ts.expect_punct("}")
    if not ts.at_end():
        ts.error("unexpected trailing input")
    return _build_model(name, root_node, constraints)


def _parse_node(ts: TokenStream, depth: int) -> _Node:
    if depth > MAX_NESTING:
        ts.error(f"features nested deeper than {MAX_NESTING} levels")
    name_tok = ts.expect_ident("feature id")
    if ts.accept_punct("!"):
        variability = MANDATORY
    elif ts.accept_punct("?"):
        variability = OPTIONAL
    else:
        ts.error("expected '!' or '?' after feature id")
    line, column = ts.position(name_tok)
    node = _Node(name_tok.value, variability, line=line, column=column)
    if ts.accept_punct("{"):
        while not ts.at_punct("}"):
            if ts.at_ident("xor") or ts.at_ident("or"):
                kind_tok = ts.next()
                ts.expect_punct("{")
                members = [ts.expect_ident("group member").value]
                while ts.accept_punct(","):
                    members.append(ts.expect_ident("group member").value)
                ts.expect_punct("}")
                node.groups.append((kind_tok.value, tuple(members), *ts.position(kind_tok)))
            else:
                node.children.append(_parse_node(ts, depth + 1))
        ts.expect_punct("}")
    return node


def _build_model(
    name: str,
    root_node: _Node,
    constraints: list[tuple[CrossTreeConstraint, int, int]],
) -> FeatureModel:
    features: dict[str, Feature] = {}

    def build(node: _Node, parent: str | None) -> None:
        if node.name in features:
            raise TextSyntaxError(f"duplicate feature id {node.name!r}", node.line, node.column)
        child_ids = tuple(c.name for c in node.children)
        if len(node.groups) > 1:
            kind, _, line, col = node.groups[1]
            raise TextSyntaxError(
                f"feature {node.name!r} declares more than one group", line, col
            )
        group = None
        if node.groups:
            kind, members, line, col = node.groups[0]
            seen: set[str] = set()
            for member in members:
                if member not in child_ids:
                    raise TextSyntaxError(
                        f"group member {member!r} is not a child of {node.name!r}", line, col
                    )
                if member in seen:
                    raise TextSyntaxError(
                        f"group member {member!r} listed twice", line, col
                    )
                seen.add(member)
            group = FeatureGroup(kind, members)
        features[node.name] = Feature(
            id=node.name,
            name=node.name,
            parent=parent,
            variability=node.variability,
            children=child_ids,
            group=group,
        )
        for child in node.children:
            build(child, node.name)

    build(root_node, None)
    for ctc, line, col in constraints:
        for endpoint in (ctc.lhs, ctc.rhs):
            if endpoint not in features:
                raise TextSyntaxError(f"unknown constraint endpoint {endpoint!r}", line, col)
        if ctc.lhs == ctc.rhs:
            raise TextSyntaxError(f"constraint relates {ctc.lhs!r} to itself", line, col)
    return FeatureModel(
        name=name,
        root=root_node.name,
        features=features,
        constraints=tuple(c for c, _, _ in constraints),
    )


def format_feature_model(model: FeatureModel) -> str:
    """Render a model back to FML text; re-parsing yields an identical model."""
    lines: list[str] = [f"featuremodel {model.name} {{"]

    def emit(feature_id: str, depth: int) -> None:
        feature = model.features[feature_id]
        marker = "!" if feature.variability == MANDATORY else "?"
        indent = "  " * depth
        if feature.children:
            lines.append(f"{indent}{feature.id}{marker} {{")
            for child in feature.children:
                emit(child, depth + 1)
            if feature.group:
                members = ", ".join(feature.group.members)
                lines.append(f"{indent}  {feature.group.kind} {{ {members} }}")
            lines.append(f"{indent}}}")
        else:
            lines.append(f"{indent}{feature.id}{marker}")

    emit(model.root, 1)
    lines.append("}")
    if model.constraints:
        lines.append("constraints {")
        for ctc in model.constraints:
            lines.append(f"  {ctc.lhs} {ctc.kind} {ctc.rhs};")
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Configuration semantics

def validate_configuration(model: FeatureModel, config: Configuration) -> ValidationReport:
    """Check a selection against the model; one violation per violated rule."""
    violations: list[Violation] = []
    known = frozenset(fid for fid in config.selected if fid in model.features)
    for fid in sorted(config.selected - known):
        violations.append(
            Violation(CFG_UNKNOWN, (fid,), f"unknown feature {fid!r} in configuration")
        )
    selected = known
    if model.root not in selected:
        violations.append(
            Violation(CFG_ROOT, (model.root,), f"root feature {model.root} not selected")
        )
    for fid in sorted(selected):
        feature = model.features[fid]
        if feature.parent is not None and feature.parent not in selected:
            violations.append(
                Violation(
                    CFG_PARENT,
                    (fid, feature.parent),
                    f"parent {feature.parent} of selected {fid} not selected",
                )
            )
        for child_id in feature.children:
            child = model.features[child_id]
            if child.variability == MANDATORY and child_id not in selected:
                violations.append(
                    Violation(
                        CFG_MANDATORY,
                        (child_id, fid),
                        f"mandatory child {child_id} of selected {fid} not selected",
                    )
                )
        if feature.group is not None:
            chosen = [m for m in feature.group.members if m in selected]
            if feature.group.kind == "xor" and len(chosen) != 1:
                violations.append(
                    Violation(
                        CFG_XOR,
                        (fid, *feature.group.members),
                        f"xor group of {fid} needs exactly one member, {len(chosen)} selected",
                    )
                )
            elif feature.group.kind == "or" and not chosen:
                violations.append(
                    Violation(
                        CFG_OR,
                        (fid, *feature.group.members),
                        f"or group of {fid} needs at least one member",
                    )
                )
    for ctc in model.constraints:
        if ctc.kind == "requires" and ctc.lhs in selected and ctc.rhs not in selected:
            violations.append(
                Violation(
                    CFG_REQUIRES,
                    (ctc.lhs, ctc.rhs),
                    f"{ctc.lhs} requires {ctc.rhs}, which is not selected",
                )
            )
        elif ctc.kind == "excludes" and ctc.lhs in selected and ctc.rhs in selected:
            violations.append(
                Violation(
                    CFG_EXCLUDES,
                    (ctc.lhs, ctc.rhs),
                    f"{ctc.lhs} excludes {ctc.rhs}, both selected",
                )
            )
    return ValidationReport(tuple(violations))


def model_formula(model: FeatureModel) -> Formula:
    """The model's tree and constraints as one formula over its feature ids.

    Its models are exactly the valid configurations: the root is selected, a
    child implies its parent, a parent its mandatory children, a group owner
    at least one member (and, for xor, no two members together), and each
    requires/excludes constraint holds.
    """
    rules: list[Formula] = [Atom(model.root)]
    for feature in model.features.values():
        fid = feature.id
        if feature.parent is not None:
            rules.append(Implies(Atom(fid), Atom(feature.parent)))
        for child in feature.children:
            if model.features[child].variability == MANDATORY:
                rules.append(Implies(Atom(fid), Atom(child)))
        if feature.group is not None:
            members = [Atom(m) for m in feature.group.members]
            rules.append(Implies(Atom(fid), _balanced(Or, members, FALSE)))
            if feature.group.kind == "xor":
                rules.extend(Not(And(a, b)) for a, b in combinations(members, 2))
    for ctc in model.constraints:
        lhs, rhs = Atom(ctc.lhs), Atom(ctc.rhs)
        rules.append(Implies(lhs, rhs) if ctc.kind == "requires" else Not(And(lhs, rhs)))
    return _balanced(And, rules, TRUE)


def _balanced(op: type, parts: list[Formula], empty: Formula) -> Formula:
    """``parts`` joined by ``op`` in a tree of logarithmic depth."""
    if not parts:
        return empty
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return op(_balanced(op, parts[:mid], empty), _balanced(op, parts[mid:], empty))


def enumerate_configurations(
    model: FeatureModel, limit: int | None = None
) -> tuple[int, list[Configuration] | None]:
    """Count of valid configurations, plus the list when requested.

    Both come from a BDD of ``model_formula`` over the sorted feature ids, so
    the cost follows the size of that BDD, not the 2^n subsets. The list
    (returned when `limit` is given, truncated to `limit` entries) is ordered
    lexicographically by the sorted feature-id tuple of each configuration,
    so enumeration order is stable across runs. Only a list is refused for a
    model of more than ENUMERATION_BOUND features; a count has no bound.
    """
    ids = model.feature_ids()
    if limit is not None and len(ids) > ENUMERATION_BOUND:
        raise FeatureModelError(
            f"model has {len(ids)} features, listing is bounded at {ENUMERATION_BOUND}"
        )
    bdd = Bdd(ids)
    root = bdd.compile(model_formula(model))
    count = bdd.count(root)
    if limit is None:
        return count, None
    return count, [Configuration(frozenset(t)) for t in islice(bdd.solutions(root), limit)]
