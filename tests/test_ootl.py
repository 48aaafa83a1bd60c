from __future__ import annotations

from genline.ootl import check_unit

VALID_UNITS = [
    "package P;\nclass A {\n}\n",
    "package P;\nclass A extends B {\n  int x;\n}\n",
    "package P;\nclass A extends B implements I, J {\n  string name;\n}\n",
    # Constructor, typed method with body, bodyless (abstract-style) method.
    "package P;\nclass A {\n  A() { }\n  int get(int a, boolean b) { return a; }\n  void stub();\n}\n",
    # Statements: local declaration, assignment, call, return, bare expression.
    (
        "package P;\n"
        "class A {\n"
        "  B b;\n"
        "  void run(B other) {\n"
        "    B local = new B();\n"
        "    local.x = other;\n"
        "    b = local;\n"
        "    local.ping();\n"
        "    b.take(local, other.y);\n"
        "    return;\n"
        "  }\n"
        "  A give() { return this; }\n"
        "}\n"
    ),
    "package P;\ninterface I {\n  int size();\n  void fill(string s, int n);\n}\n",
    "package P;\nenum E {\n  A,\n  B,\n  C\n}\n",
    "package P;\nenum E { ONLY }\n",
    # Chained field paths as lvalues and call receivers.
    "package P;\nclass A {\n  void f() {\n    a.b.c = d.e;\n    a.b.c.run(x.y);\n  }\n}\n",
]

INVALID_UNITS = [
    ("class A { }", "package", 1, 1),
    ("package P;\n", "", 2, 1),  # missing type declaration
    ("package P;\nclass A {", "", 2, 10),  # unbalanced brace at end of input
    ("package P;\nclass A { @@ }\n", "'@'", 2, 11),
    ("package P;\nclass A { } extra\n", "trailing", 2, 13),
    ("package P;\nclass A {\n  int x\n}\n", "';' or '('", 4, 1),
    ("package P;\nclass A {\n  void f() { x = 5; }\n}\n", "'5'", 3, 18),
    ("package P;\nclass A {\n  void f() { this.x = y; }\n}\n", "';'", 3, 18),
    ("package P;\nclass A {\n  void f() { int x; }\n}\n", "'='", 3, 19),
    ("package P;\nenum E { }\n", "", 2, 10),  # enums need at least one constant
    ("package P;\nclass A extends { }\n", "", 2, 17),
    ("package P;\ninterface I { void f() { } }\n", "';'", 2, 24),
]


def test_valid_units_pass():
    for text in VALID_UNITS:
        assert check_unit(text) is None, text


def test_invalid_units_report_positions():
    for text, fragment, line, column in INVALID_UNITS:
        result = check_unit(text)
        assert result is not None, text
        message, got_line, got_column = result.message, result.line, result.column
        assert fragment in message, (text, message)
        assert (got_line, got_column) == (line, column), (text, message, got_line, got_column)


def test_keywords_cannot_name_types():
    assert check_unit("package P;\nclass class { }\n") is not None
    assert check_unit("package class;\nclass A { }\n") is not None


def test_this_is_not_an_lvalue_root():
    # `this` may appear alone or as a returned expression, not as an
    # assignment target.
    assert check_unit("package P;\nclass A {\n  A me() { return this; }\n}\n") is None
    assert check_unit("package P;\nclass A {\n  void f() { this = x; }\n}\n") is not None


def test_error_is_first_failure():
    result = check_unit("package P;\nclass A {\n  int 1x;\n}\n")
    assert result is not None
    assert result.line == 3
