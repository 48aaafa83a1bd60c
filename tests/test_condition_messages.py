"""Exact (code, subjects, message) of every context condition, in report order.

Each diagram runs through the restrict stage of a full generate under a
minimal and a full selection, in generation-time and hybrid binding; the
expected report is the listed codes' violations, concatenated in that order.
"""

from __future__ import annotations

import pytest

from genline import generate, parse_class_diagram

from helpers import ALL_FEATURES, COVERING_CDL, compose_reference, make_spec

MINIMAL = ("CD2Java", "Types", "Class")

# Trips every rule of CC-01 .. CC-05 and every feature guard.
TRIP_CDL = """\
classdiagram Trip {
  <<mystery>> <<nobuilder>> class int { }
  <<external>> class A extends Missing implements I, Gone { x: Unknown; }
  class A { }
  class B extends I implements A { }
  class C extends E implements E { }
  class P extends Q { }
  class Q extends P { }
  interface I { f(): Nowhere; }
  enum E { ONE, TWO }
}
"""

# A target-language keyword in each of the seven positions CC-06 checks.
KEYWORD_CDL = """\
classdiagram package {
  class new { this: int; }
  interface return { new(): int; }
  enum this { ONE, package }
}
"""

COVERING = {
    "FG-ENUM": [(("Color",), "enum 'Color' needs the Enum feature at 15:8")],
    "FG-EXTERNAL": [
        (("Person",), "class 'Person' is tagged <<external>>, which needs hybrid binding at 2:22"),
    ],
    "FG-IFACE": [
        (("Printable",), "interface 'Printable' needs the Interface feature at 12:13"),
        (
            ("Manager", "Printable"),
            "class 'Manager' implements 'Printable', which needs the Interface feature at 9:9",
        ),
    ],
    "FG-NOBUILDER": [
        (
            ("Receipt",),
            "class 'Receipt' is tagged <<nobuilder>>, which needs the Builder feature at 6:23",
        ),
    ],
}

TRIP = {
    "CC-01": [
        (("int",), "type name 'int' shadows a builtin at 2:35"),
        (("A",), "type name 'A' declared more than once at 4:9"),
    ],
    "CC-02": [
        (("A", "Missing"), "superclass 'Missing' of 'A' is not declared at 3:22"),
        (("B", "I"), "superclass 'I' of 'B' is an interface, not a class at 5:9"),
        (("C", "E"), "superclass 'E' of 'C' is an enum, not a class at 6:9"),
    ],
    "CC-03": [(("P", "Q"), "inheritance cycle: P -> Q -> P")],
    "CC-04": [
        (("A", "Unknown"), "unknown type 'Unknown' for attribute 'x' of 'A' at 3:61"),
        (("I", "Nowhere"), "unknown return type 'Nowhere' for operation 'f' of 'I' at 9:17"),
    ],
    "CC-05": [
        (("A", "Gone"), "'A' implements 'Gone', which is not declared at 3:22"),
        (("B", "A"), "'B' implements 'A', which is a class, not an interface at 5:9"),
        (("C", "E"), "'C' implements 'E', which is an enum, not an interface at 6:9"),
    ],
    "FG-ENUM": [(("E",), "enum 'E' needs the Enum feature at 10:8")],
    "FG-EXTERNAL": [
        (("A",), "class 'A' is tagged <<external>>, which needs hybrid binding at 3:22"),
    ],
    "FG-IFACE": [
        (("I",), "interface 'I' needs the Interface feature at 9:13"),
        (("A", "I"), "class 'A' implements 'I', which needs the Interface feature at 3:22"),
        (("A", "Gone"), "class 'A' implements 'Gone', which needs the Interface feature at 3:22"),
        (("B", "A"), "class 'B' implements 'A', which needs the Interface feature at 5:9"),
        (("C", "E"), "class 'C' implements 'E', which needs the Interface feature at 6:9"),
    ],
    "FG-NOBUILDER": [
        (("int",), "class 'int' is tagged <<nobuilder>>, which needs the Builder feature at 2:35"),
    ],
    "FG-TAG": [(("int", "mystery"), "class 'int' carries unknown tag <<mystery>> at 2:35")],
}

KEYWORD = {
    "CC-06": [
        (("package",), "diagram 'package' is a keyword of the target language at 1:14"),
        (("new",), "class 'new' is a keyword of the target language at 2:9"),
        (("this",), "attribute 'this' is a keyword of the target language at 2:15"),
        (("return",), "interface 'return' is a keyword of the target language at 3:13"),
        (("new",), "operation 'new' is a keyword of the target language at 3:22"),
        (("this",), "enum 'this' is a keyword of the target language at 4:8"),
        (("package",), "enum constant 'package' is a keyword of the target language at 4:20"),
    ],
    "FG-ENUM": [(("this",), "enum 'this' needs the Enum feature at 4:8")],
    "FG-IFACE": [(("return",), "interface 'return' needs the Interface feature at 3:13")],
}

CORE = ("CC-01", "CC-02", "CC-03", "CC-04", "CC-05")

CASES = [
    # (cdl, messages by code, selection, mode, codes in report order)
    (COVERING_CDL, COVERING, MINIMAL, "generation_time",
     ("FG-ENUM", "FG-EXTERNAL", "FG-IFACE", "FG-NOBUILDER")),
    (COVERING_CDL, COVERING, MINIMAL, "hybrid", ("FG-ENUM", "FG-IFACE", "FG-NOBUILDER")),
    (COVERING_CDL, COVERING, ALL_FEATURES, "generation_time", ("FG-EXTERNAL",)),
    (COVERING_CDL, COVERING, ALL_FEATURES, "hybrid", ()),
    (TRIP_CDL, TRIP, MINIMAL, "generation_time",
     CORE + ("FG-ENUM", "FG-EXTERNAL", "FG-IFACE", "FG-NOBUILDER", "FG-TAG")),
    (TRIP_CDL, TRIP, MINIMAL, "hybrid", CORE + ("FG-ENUM", "FG-IFACE", "FG-NOBUILDER", "FG-TAG")),
    (TRIP_CDL, TRIP, ALL_FEATURES, "generation_time", CORE + ("FG-EXTERNAL", "FG-TAG")),
    (TRIP_CDL, TRIP, ALL_FEATURES, "hybrid", CORE + ("FG-TAG",)),
    (KEYWORD_CDL, KEYWORD, MINIMAL, "generation_time", ("CC-06", "FG-ENUM", "FG-IFACE")),
    (KEYWORD_CDL, KEYWORD, MINIMAL, "hybrid", ("CC-06", "FG-ENUM", "FG-IFACE")),
    (KEYWORD_CDL, KEYWORD, ALL_FEATURES, "generation_time", ("CC-06",)),
    (KEYWORD_CDL, KEYWORD, ALL_FEATURES, "hybrid", ("CC-06",)),
]


@pytest.mark.parametrize("cdl, messages, selected, mode, codes", CASES)
def test_context_condition_messages_are_pinned(tmp_path, cdl, messages, selected, mode, codes):
    spec = make_spec(selected, tmp_path / "out", mode)
    report = generate(compose_reference(selected), parse_class_diagram(cdl), spec)
    got = [(v.code, v.subjects, v.message) for v in report.violations.violations]
    expected = [(code, *entry) for code in codes for entry in messages[code]]
    assert got == expected
    assert report.failed_stage == ("restrict" if codes else None)
