"""Boolean formulas over feature selections and component option bindings.

Atoms name either a feature (bare identifier) or a component option in
qualified ``Component.option`` form. Option atoms are truthy when a flag is
true or a text value is non-empty.

``Bdd`` compiles formulas over a fixed variable order into reduced ordered
binary decision diagrams (Bryant, IEEE TC 1986), which count and list their
models without visiting every assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Set, Union

Formula = Union["Atom", "Not", "And", "Or", "Implies", "Literal"]


class UnknownAtomError(KeyError):
    pass


@dataclass(frozen=True)
class Atom:
    ref: str

    def __str__(self) -> str:
        return self.ref


@dataclass(frozen=True)
class Literal:
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = Literal(True)
FALSE = Literal(False)


@dataclass(frozen=True)
class Not:
    operand: Formula

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class And:
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or:
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Implies:
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} implies {self.right})"


def atoms(formula: Formula) -> Iterator[str]:
    """Yield every atom reference in the formula, left to right."""
    if isinstance(formula, Atom):
        yield formula.ref
    elif isinstance(formula, Not):
        yield from atoms(formula.operand)
    elif isinstance(formula, (And, Or, Implies)):
        yield from atoms(formula.left)
        yield from atoms(formula.right)


def _truthy(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value != ""
    return bool(value)


def evaluate(formula: Formula, selected: Set[str], options: Mapping[str, object]) -> bool:
    """Evaluate under a feature selection and qualified option bindings.

    Qualified atoms (containing a dot) must be present in ``options``;
    a missing binding raises UnknownAtomError rather than defaulting.
    """
    if isinstance(formula, Literal):
        return formula.value
    if isinstance(formula, Atom):
        if "." in formula.ref:
            if formula.ref not in options:
                raise UnknownAtomError(formula.ref)
            return _truthy(options[formula.ref])
        return formula.ref in selected
    if isinstance(formula, Not):
        return not evaluate(formula.operand, selected, options)
    if isinstance(formula, And):
        return evaluate(formula.left, selected, options) and evaluate(formula.right, selected, options)
    if isinstance(formula, Or):
        return evaluate(formula.left, selected, options) or evaluate(formula.right, selected, options)
    if isinstance(formula, Implies):
        return (not evaluate(formula.left, selected, options)) or evaluate(
            formula.right, selected, options
        )
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Binary decision diagrams

FALSE_NODE = 0
TRUE_NODE = 1


class Bdd:
    """Reduced ordered BDDs over one variable order, sharing one node table.

    A node is an int: 0 and 1 are the terminals, and any other node tests the
    variable at its level, leading to ``low`` when it is false and ``high``
    when it is true. The unique table keeps one node per (level, low, high),
    so equal functions are equal ints. Terminals sit at level ``len(order)``.
    """

    def __init__(self, order: Sequence[str]):
        self.order = tuple(order)
        self._index = {name: i for i, name in enumerate(self.order)}
        n = len(self.order)
        self._level = [n, n]
        self._low = [FALSE_NODE, TRUE_NODE]
        self._high = [FALSE_NODE, TRUE_NODE]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._memo: dict[tuple[int, int, int], int] = {}

    def _node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = self._unique[key] = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
        return node

    def _cofactors(self, node: int, level: int) -> tuple[int, int]:
        if self._level[node] == level:
            return self._low[node], self._high[node]
        return node, node

    def ite(self, f: int, g: int, h: int) -> int:
        """The node of "if f then g else h"."""
        if f == TRUE_NODE or g == h:
            return g
        if f == FALSE_NODE:
            return h
        if g == TRUE_NODE and h == FALSE_NODE:
            return f
        key = (f, g, h)
        node = self._memo.get(key)
        if node is None:
            level = min(self._level[f], self._level[g], self._level[h])
            f0, f1 = self._cofactors(f, level)
            g0, g1 = self._cofactors(g, level)
            h0, h1 = self._cofactors(h, level)
            node = self._memo[key] = self._node(
                level, self.ite(f0, g0, h0), self.ite(f1, g1, h1)
            )
        return node

    def compile(self, formula: Formula) -> int:
        """The node of a formula whose atoms are all in the variable order."""
        if isinstance(formula, Literal):
            return TRUE_NODE if formula.value else FALSE_NODE
        if isinstance(formula, Atom):
            if formula.ref not in self._index:
                raise UnknownAtomError(formula.ref)
            return self._node(self._index[formula.ref], FALSE_NODE, TRUE_NODE)
        if isinstance(formula, Not):
            return self.ite(self.compile(formula.operand), FALSE_NODE, TRUE_NODE)
        if isinstance(formula, (And, Or, Implies)):
            left, right = self.compile(formula.left), self.compile(formula.right)
            if isinstance(formula, And):
                return self.ite(left, right, FALSE_NODE)
            if isinstance(formula, Or):
                return self.ite(left, TRUE_NODE, right)
            return self.ite(left, right, TRUE_NODE)
        raise TypeError(f"not a formula: {formula!r}")

    def count(self, node: int) -> int:
        """How many assignments of all the variables satisfy the node."""
        models: dict[int, int] = {FALSE_NODE: 0, TRUE_NODE: 1}

        def below(node: int) -> int:
            # Models over the variables from the node's level down; a level
            # an edge skips is free and doubles the count.
            if node not in models:
                level = self._level[node]
                low, high = self._low[node], self._high[node]
                models[node] = (below(low) << (self._level[low] - level - 1)) + (
                    below(high) << (self._level[high] - level - 1)
                )
            return models[node]

        return below(node) << self._level[node]

    def solutions(self, node: int) -> Iterator[tuple[str, ...]]:
        """Each satisfying assignment as the tuple of its true variables.

        Tuples come in lexicographic order of their names when the variable
        order is sorted: at each variable, the assignment that sets nothing
        after it comes first, then those that set it, then the rest.
        """
        return self._walk(node, 0, (), False)

    def _walk(
        self, node: int, level: int, chosen: tuple[str, ...], skip_none: bool
    ) -> Iterator[tuple[str, ...]]:
        if node == FALSE_NODE:
            return
        if not skip_none and self._none_set(node):
            yield chosen
        if level == len(self.order):
            return
        low, high = self._cofactors(node, level)
        yield from self._walk(high, level + 1, chosen + (self.order[level],), False)
        yield from self._walk(low, level + 1, chosen, True)

    def _none_set(self, node: int) -> bool:
        """Whether setting every remaining variable false satisfies the node."""
        while node > TRUE_NODE:
            node = self._low[node]
        return node == TRUE_NODE
