from __future__ import annotations

import errno
import io
import os
import shutil
from pathlib import Path

import pytest

from genline.cli import (
    EXIT_COMPOSITION,
    EXIT_CONFIG,
    EXIT_GENERATION,
    EXIT_OK,
    EXIT_USAGE,
    main,
    run_cli,
)

from helpers import ALL_FEATURES, COVERING_CDL, read_tree

SHOP_CDL = (
    "classdiagram Shop {\n"
    "  class Person { name: string; age: int; }\n"
    "  class Receipt { total: int; }\n"
    "}\n"
)

GEN_FEATURES = "CD2Java, Types, Class, DefaultConstructor, Builder, Factory"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def write_variant(
    tmp_path: Path,
    *,
    features: str = GEN_FEATURES,
    mode: str = "generation_time",
    extra: str = "",
    cdl: str = SHOP_CDL,
    name: str = "demo",
) -> Path:
    (tmp_path / "shop.cdl").write_text(cdl)
    vsp = tmp_path / f"{name}.vsp"
    vsp.write_text(
        f"variant {name} {{\n"
        "  model: shop.cdl;\n"
        f"  features: [{features}];\n"
        f"{extra}"
        f"  mode: {mode};\n"
        "  out: out;\n"
        "}\n"
    )
    return vsp


# ---------------------------------------------------------------------------
# validate / enumerate

def test_validate_ok():
    code, out, err = run("validate", "-c", "CD2Java,Types,Class")
    assert (code, out, err) == (EXIT_OK, "valid\n", "")


def test_validate_invalid_prints_violations():
    code, out, err = run("validate", "-c", "CD2Java,Types")
    assert code == EXIT_CONFIG
    assert out == "invalid\n"
    assert err == "CFG-MANDATORY: mandatory child Class of selected Types not selected\n"


def test_validate_usage_errors():
    code, _, err = run("validate")
    assert code == EXIT_USAGE and "usage error" in err
    code, _, err = run("validate", "-c", "")
    assert code == EXIT_USAGE and "at least one feature id" in err


def test_validate_with_model_file(tmp_path):
    model = tmp_path / "m.fml"
    model.write_text("featuremodel M { R! { A? } }\n")
    code, out, _ = run("validate", "-m", str(model), "-c", "R,A")
    assert (code, out) == (EXIT_OK, "valid\n")
    code, _, err = run("validate", "-m", str(tmp_path / "missing.fml"), "-c", "R")
    assert code == EXIT_USAGE and "cannot read feature model" in err
    model.write_text("featuremodel M { R! { A }\n")
    code, _, err = run("validate", "-m", str(model), "-c", "R")
    assert code == EXIT_USAGE and "m.fml" in err


def test_enumerate_count_and_list():
    code, out, _ = run("enumerate")
    assert (code, out) == (EXIT_OK, "32\n")
    code, out, _ = run("enumerate", "--list")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "32"
    assert len(lines) == 33
    assert len(set(lines[1:])) == 32
    assert "CD2Java,Class,Types" in lines
    assert (
        "Builder,CD2Java,Class,DefaultConstructor,Enum,Factory,Interface,Types" in lines
    )


def test_enumerate_counts_past_the_listing_bound(tmp_path):
    leaves = " ".join(f"F{i}?" for i in range(30))
    model = tmp_path / "wide.fml"
    model.write_text(f"featuremodel Wide {{ Root! {{ {leaves} }} }}\n")
    assert run("enumerate", "-m", str(model)) == (EXIT_OK, f"{1 << 30}\n", "")
    code, out, err = run("enumerate", "--list", "-m", str(model))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "usage error: model has 31 features, listing is bounded at 24\n"


# ---------------------------------------------------------------------------
# derive

def test_derive_reports_plan(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    vsp = write_variant(tmp_path)
    code, out, err = run("derive", "-s", str(vsp))
    assert code == EXIT_OK and err == ""
    assert "variant demo" in out
    assert "components: Builder 1.0.0, CoreFrontEnd 1.0.0, Factory 1.0.0, FeatureGuard 1.0.0, Types 1.0.0" in out
    assert "  Types.default_constructor = true" in out
    assert "  Factory.factory_method_prefix = 'create%s'" in out
    assert "mode: generation_time" in out
    schedule_lines = [l for l in out.splitlines() if l.startswith("  restrict ")]
    assert schedule_lines == [
        "  restrict CoreFrontEnd.restrict_core",
        "  restrict FeatureGuard.restrict_features",
    ]


def test_derive_rejects_invalid_configuration(tmp_path):
    vsp = write_variant(tmp_path, features="CD2Java, Types")
    code, _, err = run("derive", "-s", str(vsp))
    assert code == EXIT_CONFIG
    assert "CFG-MANDATORY" in err


def test_derive_rejects_unsatisfied_constraint(tmp_path):
    vsp = write_variant(tmp_path, features="CD2Java, Types, Class, Builder")
    code, _, err = run("derive", "-s", str(vsp))
    assert code == EXIT_COMPOSITION
    assert err == (
        "CMP-CONSTRAINT: constraint of component 'Builder' not satisfied: "
        "(Builder implies DefaultConstructor)\n"
    )


def test_derive_rejects_binding_for_absent_component(tmp_path):
    vsp = write_variant(
        tmp_path,
        features="CD2Java, Types, Class",
        extra="  option Builder.x = true;\n",
    )
    code, _, err = run("derive", "-s", str(vsp))
    assert code == EXIT_COMPOSITION
    assert "addresses no participating component" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            "  option Types.default_constructor = yes;\n",
            "variant 'demo': option 'default_constructor' is a flag, got 'yes'",
        ),
        (
            "  option Types.default_constructor = false;\n",
            "variant 'demo': option Types.default_constructor is forced to True "
            "by feature 'DefaultConstructor' but bound to False",
        ),
        (
            '  bind Factory.factory_method_prefix = "make";\n',
            "variant 'demo': name pattern must contain '%s' exactly once, got 'make'",
        ),
    ],
    ids=["wrong type", "forced conflict", "bad name pattern"],
)
def test_bad_binding_is_one_composition_error(tmp_path, extra, message):
    vsp = write_variant(tmp_path, extra=extra)
    for command in ("derive", "generate"):
        assert run(command, "-s", str(vsp)) == (EXIT_COMPOSITION, "", message + "\n")
    assert not (tmp_path / "out").exists()


def test_derive_missing_spec_file(tmp_path):
    code, _, err = run("derive", "-s", str(tmp_path / "none.vsp"))
    assert code == EXIT_USAGE and "cannot read variant spec" in err


def test_derive_malformed_spec(tmp_path):
    vsp = tmp_path / "bad.vsp"
    vsp.write_text("variant x { oops }\n")
    code, _, err = run("derive", "-s", str(vsp))
    assert code == EXIT_USAGE and "bad.vsp" in err


def test_enumerate_rejects_over_deep_model(tmp_path):
    depth = 1500
    body = "".join(f"F{i}! {{ " for i in range(depth)) + "Leaf!" + " }" * depth
    fml = tmp_path / "deep.fml"
    fml.write_text(f"featuremodel Deep {{ {body} }}\n")
    code, _, err = run("enumerate", "-m", str(fml))
    assert code == EXIT_USAGE
    assert "nested deeper than" in err


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_artifacts(tmp_path):
    vsp = write_variant(tmp_path)
    code, out, err = run("generate", "-s", str(vsp))
    assert code == EXIT_OK and err == ""
    assert "variant demo: 5 artifact(s)" in out
    assert "facts: 16" in out
    out_dir = tmp_path / "out"
    assert (out_dir / "Person.oo").is_file()
    assert (out_dir / "trace.map").is_file()
    assert not (out_dir / "gencache.map").exists()  # only --incremental writes it


def test_generate_incremental_cycle(tmp_path):
    vsp = write_variant(tmp_path)
    code, out, _ = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK
    assert "cache hits: none" in out
    assert (tmp_path / "out" / "gencache.map").is_file()
    code, out, _ = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK
    assert "written: none" in out
    assert "Person.oo" in out  # listed among the cache hits


def test_generate_incremental_custom_cache_dir(tmp_path):
    vsp = write_variant(tmp_path)
    cache_dir = tmp_path / "cache"
    code, _, _ = run("generate", "--incremental", "--cache", str(cache_dir), "-s", str(vsp))
    assert code == EXIT_OK
    assert (cache_dir / "gencache.map").is_file()
    assert not (tmp_path / "out" / "gencache.map").exists()
    code, out, _ = run("generate", "--incremental", "--cache", str(cache_dir), "-s", str(vsp))
    assert code == EXIT_OK and "written: none" in out


EDITED_CDL = SHOP_CDL.replace("age: int;", "age: int; email: string;")


def _file_stats(root: Path) -> dict[str, tuple[int, int]]:
    """(inode, mtime in ns) of every file under root, keyed by relative path."""
    return {
        p.relative_to(root).as_posix(): (p.stat().st_ino, p.stat().st_mtime_ns)
        for p in root.rglob("*")
        if p.is_file()
    }


def test_generate_incremental_leaves_reused_files_alone(tmp_path):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    before = _file_stats(out_dir)

    # A run that changes nothing touches no file and stages nothing.
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK, err
    assert "written: none\n" in out
    assert _file_stats(out_dir) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl"]

    # After an edit the reused artifacts keep their files; only the edited
    # ones and the trace map are new.
    write_variant(tmp_path, cdl=EDITED_CDL)
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK, err
    assert "written: Person.oo, PersonBuilder.oo\n" in out
    after = _file_stats(out_dir)
    assert sorted(after) == sorted(before)
    for path in ("Receipt.oo", "ReceiptBuilder.oo", "ShopFactory.oo"):
        assert after[path] == before[path], path
    for path in ("Person.oo", "PersonBuilder.oo", "trace.map"):
        assert after[path][0] != before[path][0], path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl"]


def test_generate_leaves_identical_files_alone(tmp_path):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "-s", str(vsp))[0] == EXIT_OK
    before = _file_stats(out_dir)

    # A plain rerun still reports every artifact, but touches no file.
    code, out, err = run("generate", "-s", str(vsp))
    assert code == EXIT_OK, err
    assert "written: Person.oo, PersonBuilder.oo, Receipt.oo, ReceiptBuilder.oo, ShopFactory.oo\n" in out
    assert _file_stats(out_dir) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl"]

    # After an edit only the files whose bytes changed are new.
    write_variant(tmp_path, cdl=EDITED_CDL)
    assert run("generate", "-s", str(vsp))[0] == EXIT_OK
    after = _file_stats(out_dir)
    assert sorted(after) == sorted(before)
    new = {path for path in after if after[path][0] != before[path][0]}
    assert new == {"Person.oo", "PersonBuilder.oo", "trace.map"}
    for path in after.keys() - new:
        assert after[path] == before[path], path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl"]


@pytest.mark.parametrize("damage", ["same-size edit", "symlink"])
@pytest.mark.parametrize("rerun", [("--incremental",), ()], ids=["incremental", "plain"])
def test_generate_rewrites_a_file_that_is_not_the_same_regular_file(tmp_path, rerun, damage):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", *rerun, "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(out_dir)
    before = _file_stats(out_dir)
    person = out_dir / "Person.oo"
    elsewhere = tmp_path / "Person.copy"
    if damage == "same-size edit":
        person.write_bytes(cold["Person.oo"].replace(b"class", b"CLASS", 1))
    else:  # the same bytes, but through a symlink
        person.rename(elsewhere)
        person.symlink_to(elsewhere)
    code, out, err = run("generate", *rerun, "-s", str(vsp))
    assert code == EXIT_OK, err
    if rerun:
        assert "written: Person.oo\n" in out
    assert read_tree(out_dir) == cold
    assert not person.is_symlink()
    after = _file_stats(out_dir)
    assert after["Person.oo"][0] != before["Person.oo"][0]  # also not a link to the symlink's target
    for path in before.keys() - {"Person.oo", "gencache.map"}:
        assert after[path] == before[path], path


@pytest.mark.parametrize("rerun", [("--incremental",), ()], ids=["incremental", "plain"])
def test_generate_copies_where_links_fail(tmp_path, monkeypatch, rerun):
    """Reused artifacts are copied when the filesystem refuses a hard link,
    with the same outputs, trace map, cache map and report."""
    refused = []

    def no_link(src, dst, **kwargs):
        refused.append(dst)
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    results = {}
    for name in ("link", "copy"):
        root = tmp_path / name
        root.mkdir()
        if name == "copy":
            monkeypatch.setattr(os, "link", no_link)
        runs = []
        for cdl in (SHOP_CDL, EDITED_CDL, EDITED_CDL):  # cold, edit, no change
            vsp = write_variant(root, cdl=cdl)
            code, out, err = run("generate", *rerun, "-s", str(vsp))
            assert code == EXIT_OK, err
            runs.append((out.replace(str(root), "<root>"), read_tree(root / "out")))
        results[name] = runs
    assert len(refused) == 3  # the edit run reused three artifacts, the last run none
    assert results["copy"] == results["link"]


@pytest.mark.parametrize("damage", ["stray file", "deleted artifact", "edited trace"])
def test_generate_incremental_replaces_an_output_that_differs(tmp_path, damage):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(out_dir)
    if damage == "stray file":
        (out_dir / "notes.txt").write_text("scratch\n")
    elif damage == "deleted artifact":
        (out_dir / "Receipt.oo").unlink()
    else:
        with (out_dir / "trace.map").open("a") as trace:
            trace.write("# edited by hand\n")
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK, err
    written = "Receipt.oo" if damage == "deleted artifact" else "none"
    assert f"written: {written}\n" in out
    assert read_tree(out_dir) == cold


@pytest.mark.parametrize("rerun", [("--incremental",), ()], ids=["incremental", "plain"])
def test_generate_recovers_a_swap_cut_off_between_its_renames(tmp_path, monkeypatch, rerun):
    vsp = write_variant(tmp_path)
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(tmp_path / "out")
    real_rename = Path.rename
    renames = []

    def rename(self, target):
        renames.append(target)
        if len(renames) == 2:  # output moved aside, stage not yet moved in
            raise KeyboardInterrupt
        return real_rename(self, target)

    # The interrupted run has changed bytes to write, so it must swap.
    write_variant(tmp_path, cdl=EDITED_CDL)
    monkeypatch.setattr(Path, "rename", rename)
    with pytest.raises(KeyboardInterrupt):
        run("generate", "-s", str(vsp))
    monkeypatch.undo()
    left = sorted(p.name.split("-")[0] for p in tmp_path.iterdir())
    assert left == [".out.old", ".out.stage", "demo.vsp", "shop.cdl"]

    write_variant(tmp_path, cdl=SHOP_CDL)
    code, out, err = run("generate", *rerun, "-s", str(vsp))
    assert code == EXIT_OK, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl"]
    if rerun:
        # The old output and its cache map are back, so everything is reused.
        assert "written: none\n" in out
    # The recovered output already holds these bytes, so even a plain run
    # leaves it, cache map included.
    assert read_tree(tmp_path / "out") == cold


@pytest.mark.parametrize("rerun", [(), ("--incremental",)], ids=["plain", "incremental"])
def test_generate_through_a_symlinked_output(tmp_path, rerun):
    """An ``out:`` that is a symlink to a directory replaces that directory
    and keeps the link; the stage and backup sit beside the target."""
    vsp = write_variant(tmp_path)
    store = tmp_path / "store"
    target = store / "real"
    target.mkdir(parents=True)
    link = tmp_path / "out"
    link.symlink_to(target, target_is_directory=True)
    names = ["PersonBuilder.oo", "Person.oo", "ReceiptBuilder.oo", "Receipt.oo", "ShopFactory.oo"]
    expected = sorted([*names, "trace.map", *(["gencache.map"] if rerun else [])])

    def generate_and_check():
        code, _, err = run("generate", *rerun, "-s", str(vsp))
        assert code == EXIT_OK, err
        assert link.is_symlink() and link.readlink() == target
        assert sorted(read_tree(target)) == expected
        assert sorted(p.name for p in store.iterdir()) == ["real"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl", "store"]

    generate_and_check()
    before = _file_stats(target)
    generate_and_check()  # no change: no file is touched
    assert _file_stats(target) == before
    code, out, err = run("trace", "-s", str(vsp), "--feature", "Builder")
    assert code == EXIT_OK, err
    assert "PersonBuilder.oo:" in out

    # A swap cut off between its renames leaves the target moved aside; the
    # next run moves it back and, changing nothing, leaves it as it was.
    target.rename(store / f".real.old-{'0' * 32}")
    (store / ".real.stage-x").mkdir()
    generate_and_check()
    assert _file_stats(target) == before


def test_generate_incremental_cache_that_is_not_a_directory(tmp_path):
    vsp = write_variant(tmp_path)
    assert run("generate", "-s", str(vsp))[0] == EXIT_OK
    before = read_tree(tmp_path / "out")
    afile = tmp_path / "afile"
    afile.write_text("not a cache\n")
    write_variant(tmp_path, cdl=SHOP_CDL.replace("total: int;", "total: int; paid: boolean;"))

    # An explicit --cache that is a file is refused before anything is written.
    code, out, err = run("generate", "--incremental", "--cache", str(afile), "-s", str(vsp))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"usage error: --cache {str(afile)!r} is not a directory\n"
    assert read_tree(tmp_path / "out") == before
    assert afile.read_text() == "not a cache\n"


def test_generate_incremental_cache_under_a_file(tmp_path):
    vsp = write_variant(tmp_path)
    assert run("generate", "-s", str(vsp))[0] == EXIT_OK
    before = read_tree(tmp_path / "out")
    afile = tmp_path / "afile"
    afile.write_text("not a cache\n")
    write_variant(tmp_path, cdl=SHOP_CDL.replace("total: int;", "total: int; paid: boolean;"))

    # A cache directory that could never be created is refused before the
    # outputs are replaced, so the old outputs stay as they were.
    cache = afile / "sub"
    code, out, err = run("generate", "--incremental", "--cache", str(cache), "-s", str(vsp))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"usage error: --cache {str(cache)!r} is not a directory\n"
    assert read_tree(tmp_path / "out") == before
    assert afile.read_text() == "not a cache\n"


@pytest.mark.parametrize(
    "damaged, command, expected",
    [
        ("bad.fml", ("validate", "-c", "CD2Java", "-m", "{tmp}/bad.fml"), EXIT_USAGE),
        ("out/gencache.map", ("generate", "--incremental", "-s", "{vsp}"), EXIT_OK),
        ("out/Person.oo", ("generate", "--incremental", "-s", "{vsp}"), EXIT_OK),
        ("out/trace.map", ("trace", "-s", "{vsp}", "--artifact", "Person.oo"), EXIT_OK),
    ],
    ids=["model", "cache", "artifact", "trace"],
)
def test_bytes_that_are_not_utf8_never_raise(tmp_path, damaged, command, expected):
    vsp = write_variant(tmp_path)
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(tmp_path / "out")
    (tmp_path / damaged).write_bytes(b"\xff\xfe")
    code, out, err = run(*(arg.format(tmp=tmp_path, vsp=vsp) for arg in command))
    assert code == expected, err
    if command[0] == "validate":
        assert "cannot read feature model" in err and "bad.fml" in err
    elif command[0] == "generate":
        # The damaged file only causes misses; the output is rebuilt in full.
        assert read_tree(tmp_path / "out") == cold
    else:
        assert out == "unknown artifact: Person.oo\n"


def test_generate_refuses_a_directory_it_did_not_write(tmp_path):
    vsp = write_variant(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "notes.txt").write_text("keep me\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run("generate", "-s", str(vsp))
    assert code == EXIT_GENERATION and out == ""
    assert "refusing to replace" in err and "notes.txt" in err
    assert read_tree(tmp_path / "out") == {"notes.txt": b"keep me\n"}
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no stage left behind
    # An empty directory, and one holding an earlier output, are replaced.
    (tmp_path / "out" / "notes.txt").unlink()
    assert run("generate", "-s", str(vsp))[0] == EXIT_OK
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    assert "notes.txt" not in read_tree(tmp_path / "out")
    # A plain file in the place of the directory stays, too.
    shutil.rmtree(tmp_path / "out")
    (tmp_path / "out").write_text("keep me\n")
    code, _, err = run("generate", "-s", str(vsp))
    assert code == EXIT_GENERATION and "not a directory" in err
    assert (tmp_path / "out").read_text() == "keep me\n"


def test_generate_rejects_malformed_input_model(tmp_path):
    vsp = write_variant(tmp_path, cdl="classdiagram Shop { class }\n")
    code, _, err = run("generate", "-s", str(vsp))
    assert code == EXIT_CONFIG
    assert "input model" in err


def test_generate_missing_input_model(tmp_path):
    vsp = write_variant(tmp_path)
    (tmp_path / "shop.cdl").unlink()
    code, _, err = run("generate", "-s", str(vsp))
    assert code == EXIT_USAGE and "cannot read input model" in err


def test_generate_restrict_failure_is_config_exit(tmp_path):
    cdl = SHOP_CDL[:-2] + "  enum Color { RED }\n}\n"
    vsp = write_variant(tmp_path, features="CD2Java, Types, Class", cdl=cdl)
    code, _, err = run("generate", "-s", str(vsp))
    assert code == EXIT_CONFIG
    assert "generation failed in the restrict stage" in err
    assert "FG-ENUM" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cdl, message",
    [
        ("classdiagram package { class P { a: int; } }", "diagram 'package' ... at 1:14"),
        ("classdiagram D { class extends { a: int; } }", "class 'extends' ... at 1:24"),
        ("classdiagram D { interface new { f(): int; } }", "interface 'new' ... at 1:28"),
        ("classdiagram D { enum class { A } }", "enum 'class' ... at 1:23"),
        ("classdiagram D { class P { return: int; } }", "attribute 'return' ... at 1:28"),
        ("classdiagram D { interface I { this(): int; } }", "operation 'this' ... at 1:32"),
        ("classdiagram D { enum E { A,\n  new } }", "enum constant 'new' ... at 2:3"),
    ],
    ids=["diagram", "class", "interface", "enum", "attribute", "operation", "enum constant"],
)
def test_generate_rejects_a_keyword_as_a_name(tmp_path, cdl, message):
    vsp = write_variant(tmp_path, features="CD2Java, Types, Class, Enum, Interface", cdl=cdl)
    message = message.replace("...", "is a keyword of the target language")
    code, out, err = run("generate", "-s", str(vsp))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"generation failed in the restrict stage\nCC-06: {message}\n"
    assert not (tmp_path / "out").exists()


def test_generate_syntax_failure_is_generation_exit(tmp_path):
    vsp = write_variant(
        tmp_path, extra='  bind Types.constructor_body = " {oops";\n'
    )
    code, _, err = run("generate", "-s", str(vsp))
    assert code == EXIT_GENERATION
    assert "generation failed in the syntax stage" in err
    assert "GEN-SYNTAX" in err
    assert not (tmp_path / "out").exists()


def test_generate_rejects_over_deep_generated_code(tmp_path):
    vsp = write_variant(tmp_path)
    assert run("generate", "-s", str(vsp))[0] == EXIT_OK
    before = read_tree(tmp_path / "out")
    call = "f(" * 1500 + ")" * 1500
    vsp = write_variant(tmp_path, extra=f'  bind Types.constructor_body = " {call};";\n')
    code, _, err = run("generate", "-s", str(vsp))
    assert code == EXIT_GENERATION
    assert "GEN-SYNTAX" in err and "nested deeper than" in err
    assert read_tree(tmp_path / "out") == before


def test_generate_run_time_mode(tmp_path):
    vsp = write_variant(
        tmp_path, features="CD2Java, Types, Class, DefaultConstructor, Factory", mode="run_time"
    )
    code, out, _ = run("generate", "-s", str(vsp))
    assert code == EXIT_OK
    assert (tmp_path / "out" / "PersonProvider.oo").is_file()
    factory = (tmp_path / "out" / "ShopFactory.oo").read_text()
    assert "personProvider.provide()" in factory


# ---------------------------------------------------------------------------
# trace

def test_trace_queries(tmp_path):
    vsp = write_variant(tmp_path)
    assert run("generate", "-s", str(vsp))[0] == EXIT_OK

    code, out, _ = run("trace", "-s", str(vsp), "--feature", "DefaultConstructor")
    assert code == EXIT_OK
    assert out.splitlines() == ["Person.oo:5-5", "Receipt.oo:4-4"]

    code, out, _ = run("trace", "-s", str(vsp), "--artifact", "Person.oo")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "1-4 Types Class",
        "5-5 Types DefaultConstructor",
        "6-6 Types Class",
    ]

    code, out, _ = run("trace", "-s", str(vsp), "--feature", "Ghost")
    assert code == EXIT_OK and out == "unknown feature: Ghost\n"
    code, out, _ = run("trace", "-s", str(vsp), "--artifact", "Ghost.oo")
    assert code == EXIT_OK and out == "unknown artifact: Ghost.oo\n"


def test_trace_usage_errors(tmp_path):
    vsp = write_variant(tmp_path)
    code, _, err = run("trace", "-s", str(vsp))
    assert code == EXIT_USAGE and "exactly one of" in err
    code, _, err = run("trace", "-s", str(vsp), "--feature", "A", "--artifact", "B")
    assert code == EXIT_USAGE
    code, _, err = run("trace", "-s", str(vsp), "--feature", "A")
    assert code == EXIT_USAGE and "no trace map" in err


# ---------------------------------------------------------------------------
# top level

def test_unknown_and_missing_commands():
    code, _, err = run("frobnicate")
    assert code == EXIT_USAGE and "usage error" in err
    code, _, err = run()
    assert code == EXIT_USAGE and "a command is required" in err


def test_main_uses_stdio(capsys):
    assert main(["enumerate"]) == EXIT_OK
    assert capsys.readouterr().out == "32\n"


# ---------------------------------------------------------------------------
# benchmark hook points

def test_benchmark_hook_points_see_a_generate(tmp_path, monkeypatch):
    # genbench/tracing.py wraps genline functions where their callers look
    # them up (genline.ootl.tokenize, ...). A refactor that calls one another
    # way silently drops that layer from the benchmark's per-layer numbers.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "genbench"))
    import tracing

    vsp = write_variant(tmp_path, features=", ".join(ALL_FEATURES), mode="hybrid", cdl=COVERING_CDL)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _, err = run("generate", "-s", str(vsp))
    finally:
        tracer.uninstall()
    assert code == EXIT_OK, err
    spans = {name for name, *_ in tracer.spans}
    # A plain generate runs every wrapped function but these three.
    not_in_generate = {
        "featuremodel.enumerate_configurations",
        "generation.incremental_generate",
        "generation.TraceIndex.from_text",
    }
    assert spans == {name for *_, name in tracing.SPAN_POINTS} - not_in_generate
    assert len(spans) == 21
    assert tracer.counts["lexing.tokens"] > 0
