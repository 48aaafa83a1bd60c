from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genline.formula import FALSE, TRUE, And, Atom, Bdd, Implies, Not, Or, UnknownAtomError, evaluate

_VARS = ("a", "b", "c", "d", "e")

_formulas = st.recursive(
    st.sampled_from([TRUE, FALSE, *(Atom(v) for v in _VARS)]),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_bdd_counts_and_lists_the_models_evaluate_accepts(formula):
    subsets = [s for k in range(len(_VARS) + 1) for s in combinations(_VARS, k)]
    models = sorted(s for s in subsets if evaluate(formula, set(s), {}))
    bdd = Bdd(_VARS)
    root = bdd.compile(formula)
    assert bdd.count(root) == len(models)
    assert list(bdd.solutions(root)) == models
    # Equal functions are the same node.
    assert bdd.compile(Not(Not(formula))) == root


def test_bdd_rejects_an_atom_outside_its_order():
    with pytest.raises(UnknownAtomError):
        Bdd(_VARS).compile(And(Atom("a"), Atom("Comp.flag")))
