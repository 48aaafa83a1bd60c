from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genline.components import BINDING_MODES, VariantSpec
from genline.featuremodel import Configuration
from genline.vsp import VspSyntaxError, format_variant_spec, parse_variant_spec

FULL_VSP = """\
// sample variant
variant demo {
  model: diagrams/shop.cdl;
  features: [CD2Java, Types, Class, DefaultConstructor, Factory];
  option Types.default_constructor = true;
  option Factory.some_choice = fancy;
  bind Factory.factory_method_prefix = "make%s";
  bind Types.constructor_body = " x = \\"quoted\\";";
  mode: generation_time;
  out: build/shop;
}
"""


def test_parse_full_spec():
    spec = parse_variant_spec(FULL_VSP)
    assert spec.name == "demo"
    assert spec.model_path == "diagrams/shop.cdl"
    assert spec.configuration.selected == frozenset(
        {"CD2Java", "Types", "Class", "DefaultConstructor", "Factory"}
    )
    assert spec.option_bindings == {
        "Types.default_constructor": True,
        "Factory.some_choice": "fancy",
    }
    assert spec.vp_bindings == {
        "Factory.factory_method_prefix": "make%s",
        "Types.constructor_body": ' x = "quoted";',
    }
    assert spec.mode == "generation_time"
    assert spec.output_path == "build/shop"


def test_relative_paths_resolve_against_base_dir():
    spec = parse_variant_spec(FULL_VSP, base_dir="/work/specs")
    assert spec.model_path == "/work/specs/diagrams/shop.cdl"
    assert spec.output_path == "/work/specs/build/shop"
    absolute = FULL_VSP.replace("diagrams/shop.cdl", "/abs/shop.cdl")
    assert parse_variant_spec(absolute, base_dir="/work").model_path == "/abs/shop.cdl"


def test_quoted_paths_and_values():
    source = (
        'variant q {\n'
        '  model: "with space/shop.cdl";\n'
        '  features: [CD2Java];\n'
        '  option C.text = "hello world";\n'
        '  mode: run_time;\n'
        '  out: "o u t";\n'
        '}\n'
    )
    spec = parse_variant_spec(source)
    assert spec.model_path == "with space/shop.cdl"
    assert spec.option_bindings == {"C.text": "hello world"}
    assert spec.output_path == "o u t"
    assert spec.mode == "run_time"


def test_option_value_words():
    source = (
        "variant v {\n"
        "  model: m.cdl;\n"
        "  features: [CD2Java];\n"
        "  option A.a = true;\n"
        "  option A.b = false;\n"
        "  option A.c = word;\n"
        "  mode: hybrid;\n"
        "  out: o;\n"
        "}\n"
    )
    spec = parse_variant_spec(source)
    assert spec.option_bindings == {"A.a": True, "A.b": False, "A.c": "word"}


def test_parse_errors():
    with pytest.raises(VspSyntaxError, match="'variant'"):
        parse_variant_spec("product x { }")
    with pytest.raises(VspSyntaxError, match="'model:'"):
        parse_variant_spec("variant v { features: [A]; }")
    with pytest.raises(VspSyntaxError, match="bound twice"):
        parse_variant_spec(
            "variant v { model: m; features: [A];\n"
            "option C.x = true; option C.x = false;\n"
            "mode: hybrid; out: o; }"
        )
    with pytest.raises(VspSyntaxError, match="unknown binding mode 'lazy'"):
        parse_variant_spec("variant v { model: m; features: [A]; mode: lazy; out: o; }")
    with pytest.raises(VspSyntaxError, match="trailing input"):
        parse_variant_spec("variant v { model: m; features: [A]; mode: hybrid; out: o; } more")
    with pytest.raises(VspSyntaxError, match="quoted binding text"):
        parse_variant_spec(
            "variant v { model: m; features: [A]; bind C.p = bare; mode: hybrid; out: o; }"
        )
    with pytest.raises(VspSyntaxError, match="unterminated"):
        parse_variant_spec('variant v { model: m; features: [A]; option C.x = "oops\n')


def test_error_positions_are_line_and_column():
    with pytest.raises(VspSyntaxError) as err:
        parse_variant_spec("variant v {\n  model: m;\n  features: (A);\n}\n")
    assert err.value.line == 3
    assert err.value.column == 13


def test_format_round_trip():
    spec = parse_variant_spec(FULL_VSP)
    text = format_variant_spec(spec)
    again = parse_variant_spec(text)
    assert again == spec


def test_sections_must_appear_in_order():
    out_before_mode = (
        "variant v { model: m; features: [A]; out: o; mode: hybrid; }"
    )
    with pytest.raises(VspSyntaxError, match="'mode:'"):
        parse_variant_spec(out_before_mode)
    option_after_bind = (
        'variant v { model: m; features: [A];\n'
        'bind C.p = "%s";\n'
        'option C.x = true;\n'
        'mode: hybrid; out: o; }'
    )
    with pytest.raises(VspSyntaxError, match="'mode:'"):
        parse_variant_spec(option_after_bind)


def _spec(model="m", between="", mode="hybrid", out="o", after=""):
    return (
        f"variant v {{\n  model: {model};\n  features: [A];\n{between}"
        f"  mode: {mode};\n  out: {out};\n}}{after}\n"
    )


# (source, the parsed fields or the error as (message, line, column))
EDGE_CASES = {
    "path on the line after model:": (_spec(model="\n    m.cdl"), {"model_path": "m.cdl"}),
    "comment before the path": (_spec(model="// the model\n  m.cdl"), {"model_path": "m.cdl"}),
    "spaces and // inside a path": (_spec(model="my dir//m.cdl "), {"model_path": "my dir//m.cdl"}),
    "- ~ and .. in a bare path": (_spec(out="../~gen-out..x"), {"output_path": "../~gen-out..x"}),
    "path starting with [": (_spec(model="[m].cdl"), {"model_path": "[m].cdl"}),
    "quoted path": (_spec(out='"a;b"'), {"output_path": "a;b"}),
    "mode on the next line": (_spec(mode="\n    run_time"), {"mode": "run_time"}),
    "escapes in quoted text": (
        _spec(between='  bind C.p = "a\\"b\\\\c\\nd";\n'), {"vp_bindings": {"C.p": 'a"b\\cnd'}},
    ),
    "empty path": (_spec(model=""), ("expected path before ';'", 2, 10)),
    "path without ';'": ("variant v { model: m }", ("expected path ending with ';'", 1, 20)),
    "model path at end of input": ("variant v { model:", ("expected model path, found end of input", 1, 19)),
    "unknown mode, after the word": (_spec(mode="lazy"), ("unknown binding mode 'lazy'", 4, 13)),
    "bound twice, after the ';'": (
        _spec(between="  option C.x = a;\n  option C.x = b;\n"), ("option 'C.x' bound twice", 5, 18),
    ),
    # The lexer reads the whole text first, so a bad character is reported
    # before the syntax error ("unexpected trailing input" at 'extra') that
    # comes earlier in the text.
    "lexical error after a syntax error": (
        _spec(after=" extra $"), ("unexpected character '$'", 6, 9),
    ),
}


@pytest.mark.parametrize("source, expected", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_parse_edge_cases(source, expected):
    if isinstance(expected, dict):
        spec = parse_variant_spec(source)
        assert {field: getattr(spec, field) for field in expected} == expected
    else:
        with pytest.raises(VspSyntaxError) as err:
            parse_variant_spec(source)
        assert (err.value.message, err.value.line, err.value.column) == expected


_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
_KEY = st.builds(lambda comp, name: f"{comp}.{name}", _IDENT, _IDENT)
_TEXT = st.text(st.sampled_from('ab \t\\"\n;/:{}[]é'), max_size=12)
_BARE_PATH = st.from_regex(r"[A-Za-z0-9_./~-]([A-Za-z0-9_./~ -]{0,10}[A-Za-z0-9_./~-])?", fullmatch=True)
_PATH = st.one_of(_BARE_PATH, _TEXT)


@settings(max_examples=100, deadline=None)
@given(
    name=_IDENT,
    features=st.frozensets(_IDENT, min_size=1, max_size=4),
    options=st.dictionaries(_KEY, st.one_of(st.booleans(), _IDENT, _TEXT), max_size=3),
    binds=st.dictionaries(_KEY, _TEXT, max_size=3),
    mode=st.sampled_from(BINDING_MODES),
    model=_PATH,
    out=_PATH,
)
def test_format_then_parse_round_trips(name, features, options, binds, mode, model, out):
    spec = VariantSpec(
        name=name,
        configuration=Configuration(features),
        option_bindings=options,
        vp_bindings=binds,
        mode=mode,
        output_path=out,
        model_path=model,
    )
    assert parse_variant_spec(format_variant_spec(spec)) == spec
