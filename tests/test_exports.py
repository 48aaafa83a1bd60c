from __future__ import annotations

import types

import genline


def test_all_lists_exactly_the_public_names_in_order():
    exported = genline.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {
        name
        for name, value in vars(genline).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
