"""Composition of generator components into a single composed generator.

Composition is a two-stage discipline. The compose step is structural: it
orders behaviors and fails only on problems that make the member set itself
meaningless (duplicate ids, conflicting concerns). Everything that depends on
a concrete variant (bindings, constraints, producer coverage, hook matching)
is checked afterwards by validate_composition, which reads the member
interfaces directly, and reported, not raised, so callers can collect every
problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from . import formula as fm
from .components import (
    Behavior,
    Bindings,
    GeneratorComponent,
    LATE_BINDING_MODES,
    OptionBindingError,
    PHASE_OF_KIND,
    VariantSpec,
    check_bindings,
)
from .report import ValidationReport, Violation

CMP_DUP_ID = "CMP-DUP-ID"
CMP_CONSTRAINT = "CMP-CONSTRAINT"
CMP_NO_PRODUCER = "CMP-NO-PRODUCER"
CMP_FACT_CYCLE = "CMP-FACT-CYCLE"
CMP_CONCERN_CLASH = "CMP-CONCERN-CLASH"
CMP_KIND = "CMP-KIND"

_PHASE_RANK = {phase: rank for rank, phase in enumerate(PHASE_OF_KIND.values())}


class CompositionFault(Exception):
    """A structural problem that prevents composing at all."""

    def __init__(self, code: str, detail: str, involved: tuple[str, ...] = ()):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.involved = involved


@dataclass(frozen=True)
class ScheduledStep:
    phase: str  # the phase of the component's kind
    component: GeneratorComponent
    behavior: Behavior


@dataclass(frozen=True)
class ComposedGenerator:
    components: tuple[GeneratorComponent, ...]  # sorted by id
    full_schedule: tuple[ScheduledStep, ...]
    fact_cycle: tuple[str, ...]  # component ids on a cycle, empty when acyclic


Composable = Union[GeneratorComponent, ComposedGenerator]


def _members(value: Composable) -> tuple[GeneratorComponent, ...]:
    if isinstance(value, ComposedGenerator):
        return value.components
    return (value,)


def _topological_ranks(
    components: Sequence[GeneratorComponent],
) -> tuple[dict[str, int], tuple[str, ...]]:
    """Rank components by fact flow: producers come before consumers.

    Ties break lexicographically, so the ranking is independent of input
    order. Returns the ranks plus the ids left on a cycle (empty if none);
    cyclic components keep a stable lexicographic fallback rank.
    """
    ids = sorted(c.id for c in components)
    producers: dict[str, set[str]] = {}
    consumers: dict[str, set[str]] = {}
    for comp in components:
        for topic in comp.interface.produces:
            producers.setdefault(topic, set()).add(comp.id)
        for topic in comp.interface.consumes:
            consumers.setdefault(topic, set()).add(comp.id)
    edges: dict[str, set[str]] = {cid: set() for cid in ids}
    indegree: dict[str, int] = {cid: 0 for cid in ids}
    for topic, prods in producers.items():
        for producer in prods:
            for consumer in consumers.get(topic, ()):
                if consumer == producer or consumer in edges[producer]:
                    continue
                edges[producer].add(consumer)
                indegree[consumer] += 1
    ranks: dict[str, int] = {}
    ready = sorted(cid for cid in ids if indegree[cid] == 0)
    rank = 0
    while ready:
        current = ready.pop(0)
        ranks[current] = rank
        rank += 1
        opened = []
        for target in edges[current]:
            indegree[target] -= 1
            if indegree[target] == 0:
                opened.append(target)
        if opened:
            ready = sorted(ready + opened)
    cycle = tuple(cid for cid in ids if cid not in ranks)
    for cid in cycle:
        ranks[cid] = rank
        rank += 1
    return ranks, cycle


def _build_schedule(
    components: Sequence[GeneratorComponent], ranks: dict[str, int]
) -> tuple[ScheduledStep, ...]:
    steps = [
        ScheduledStep(PHASE_OF_KIND[comp.kind], comp, beh)
        for comp in components
        for beh in comp.behaviors
    ]
    # Ranks are unique per component, so ties only arise within one component.
    steps.sort(key=lambda s: (_PHASE_RANK[s.phase], ranks[s.component.id], s.behavior.name))
    return tuple(steps)


def compose(left: Composable, right: Composable) -> ComposedGenerator:
    """Merge two components or composed generators into one.

    The result is canonical in the member set: composing in any order or
    grouping yields an identical generator. Raises CompositionFault on
    duplicate component ids, a component kind outside PHASE_OF_KIND or
    conflicting concern descriptions.
    """
    return compose_all(_members(left) + _members(right))


def compose_all(components: Iterable[GeneratorComponent]) -> ComposedGenerator:
    """Compose a component set; a single canonical result for any ordering."""
    ordered = sorted(components, key=lambda c: c.id)
    seen: dict[str, GeneratorComponent] = {}
    for comp in ordered:
        if comp.id in seen:
            raise CompositionFault(
                CMP_DUP_ID, f"component id {comp.id!r} appears more than once", (comp.id,)
            )
        if comp.kind not in PHASE_OF_KIND:
            raise CompositionFault(
                CMP_KIND, f"component {comp.id!r} has the unknown kind {comp.kind!r}", (comp.id,)
            )
        seen[comp.id] = comp
    # Identical duplicate concerns merge; the same id described differently
    # is a clash.
    descriptions: dict[str, dict[str, set[str]]] = {}
    for comp in ordered:
        for concern_id, description in comp.interface.concerns:
            owners = descriptions.setdefault(concern_id, {})
            owners.setdefault(description, set()).add(comp.id)
    for concern_id, by_description in sorted(descriptions.items()):
        if len(by_description) > 1:
            involved = tuple(sorted(set().union(*by_description.values())))
            raise CompositionFault(
                CMP_CONCERN_CLASH,
                f"concern {concern_id!r} is described differently by components "
                + ", ".join(repr(c) for c in involved),
                involved,
            )
    ranks, cycle = _topological_ranks(ordered)
    return ComposedGenerator(
        components=tuple(ordered),
        full_schedule=_build_schedule(ordered, ranks),
        fact_cycle=cycle,
    )


def validate_composition(composed: ComposedGenerator, spec: VariantSpec) -> ValidationReport:
    """Check a composed generator against one variant spec.

    Reports, in order: a binding that check_bindings rejects, or else the
    unsatisfied component constraints (attributed to the declaring
    component); consumed topics no member produces, unmatched hook
    requirements under run-time or hybrid binding, and fact cycles.
    """
    violations: list[Violation] = []
    selected = spec.configuration.selected
    try:
        opts = check_bindings(spec, composed.components).qualified()
    except OptionBindingError as exc:
        violations.append(Violation(CMP_CONSTRAINT, (), str(exc)))
    else:
        for comp in composed.components:
            for constraint in comp.interface.constraints:
                if not fm.evaluate(constraint, selected, opts):
                    violations.append(
                        Violation(
                            CMP_CONSTRAINT,
                            (comp.id,),
                            f"constraint of component {comp.id!r} not satisfied: {constraint}",
                        )
                    )

    produced = frozenset().union(*(c.interface.produces for c in composed.components))
    for comp in composed.components:
        for topic in sorted(comp.interface.consumes - produced):
            violations.append(
                Violation(
                    CMP_NO_PRODUCER,
                    (comp.id, topic),
                    f"component {comp.id!r} consumes {topic!r}, which no member produces",
                )
            )

    if spec.mode in LATE_BINDING_MODES:
        provided = frozenset().union(*(c.interface.hooks_provided for c in composed.components))
        for comp in composed.components:
            for pattern in sorted(comp.interface.hooks_required - provided):
                violations.append(
                    Violation(
                        CMP_NO_PRODUCER,
                        (comp.id, pattern),
                        f"component {comp.id!r} requires hook {pattern!r}, which no member provides",
                    )
                )

    if composed.fact_cycle:
        violations.append(
            Violation(
                CMP_FACT_CYCLE,
                composed.fact_cycle,
                "fact exchange cycle between components: " + ", ".join(composed.fact_cycle),
            )
        )
    return ValidationReport(tuple(violations))


def schedule(
    composed: ComposedGenerator, spec: VariantSpec, bindings: Bindings
) -> tuple[ScheduledStep, ...]:
    """The variant's behavior order: the full schedule filtered by applicability."""
    if composed.fact_cycle:
        raise CompositionFault(
            CMP_FACT_CYCLE,
            "cannot schedule: fact exchange cycle between components "
            + ", ".join(composed.fact_cycle),
            composed.fact_cycle,
        )
    selected = spec.configuration.selected
    opts = bindings.qualified()
    return tuple(
        step
        for step in composed.full_schedule
        if fm.evaluate(step.behavior.applicability, selected, opts)
    )
