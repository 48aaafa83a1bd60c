from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genline.cli
import genline.generation
from genline.cli import (
    EXIT_COMPOSITION,
    EXIT_CONFIG,
    EXIT_GENERATION,
    EXIT_OK,
    EXIT_USAGE,
    main,
    run_cli,
)
from genline.components import Behavior, ComponentInterface, GeneratorComponent, build_registry
from genline.formula import TRUE
from genline.generation import ArtifactContainer, GenCache, unchanged_run
from genline.reference import REFERENCE_FML, reference_components

from helpers import ALL_FEATURES, COVERING_CDL, read_tree

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

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


def test_derive_reports_the_whole_schedule_of_the_sample():
    code, out, err = run("derive", "-s", str(SAMPLES / "shop.vsp"))
    assert code == EXIT_OK and err == ""
    assert out.partition("schedule:\n")[2].splitlines() == [
        "  restrict CoreFrontEnd.restrict_core",
        "  restrict FeatureGuard.restrict_features",
        "  declare Types.declare_classes",
        "  declare Types.declare_enums",
        "  declare Types.declare_interfaces",
        "  declare Types.declare_providers",
        "  declare Builder.declare_builders",
        "  declare Factory.declare_factory",
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


def _tree_but_stat(root: Path) -> dict[str, bytes]:
    """``read_tree`` with the cache map's stat digest, the run line's fifth field,
    cut, if there is a map: it records inodes and times, which differ from one
    run to the next."""
    tree = read_tree(root)
    if "gencache.map" in tree:
        body, _, run_line = tree["gencache.map"].rstrip(b"\n").rpartition(b"\n")
        fields = run_line.split()
        assert fields[0] == b"run" and len(fields) == 5
        tree["gencache.map"] = body + b"\n" + b" ".join(fields[:4]) + b"\n"
    return tree


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
    cold = _tree_but_stat(out_dir)
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
    assert _tree_but_stat(out_dir) == cold
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
            runs.append((out.replace(str(root), "<root>"), _tree_but_stat(root / "out")))
        results[name] = runs
    assert len(refused) == 3  # the edit run reused three artifacts, the last run none
    assert results["copy"] == results["link"]


@pytest.mark.parametrize("damage", ["stray file", "deleted artifact", "edited trace"])
def test_generate_incremental_replaces_an_output_that_differs(tmp_path, damage):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = _tree_but_stat(out_dir)
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
    assert _tree_but_stat(out_dir) == cold


@pytest.mark.parametrize("rerun", [("--incremental",), ()], ids=["incremental", "plain"])
def test_generate_recovers_a_swap_cut_off_between_its_renames(tmp_path, monkeypatch, rerun):
    vsp = write_variant(tmp_path)
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    # The interrupted swap's links changed the stat data of the old files, so
    # an incremental rerun hashes them all and renews the map's stat record.
    tree = _tree_but_stat if rerun else read_tree
    cold = tree(tmp_path / "out")
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
    assert tree(tmp_path / "out") == cold


@pytest.mark.parametrize("fail", ["staging", "rename"])
def test_generate_leaves_out_alone_when_the_swap_fails(tmp_path, monkeypatch, fail):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(out_dir)
    before = _file_stats(out_dir)

    def refuse(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    real_rename = Path.rename
    renames = []

    def rename(self, target):
        renames.append(target)
        if len(renames) == 2:  # output moved aside, stage not yet moved in
            refuse()
        return real_rename(self, target)

    # Changed bytes to write, so the run must swap; the unchanged files are linked.
    write_variant(tmp_path, cdl=EDITED_CDL)
    if fail == "staging":
        monkeypatch.setattr(os, "link", refuse)
        monkeypatch.setattr(shutil, "copyfile", refuse)
    else:
        monkeypatch.setattr(Path, "rename", rename)
    code, out, err = run("generate", "-s", str(vsp))
    monkeypatch.undo()
    assert (code, out) == (EXIT_GENERATION, "")
    assert "cannot write outputs" in err
    if fail == "rename":
        assert len(renames) == 3  # the third moves the old output back
    assert read_tree(out_dir) == cold
    assert _file_stats(out_dir) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl"]


def test_generate_refuses_a_claim_inside_the_cache_map_before_touching_out(tmp_path, monkeypatch):
    """A claim of ``gencache.map/x.oo`` would turn the cache map into a folder:
    it is refused in the declare stage, and the old output keeps every file."""
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(out_dir)
    before = _file_stats(out_dir)

    def declare_squat(ctx, comp):
        path = "gencache.map/x.oo"

        def build():
            container = ArtifactContainer(path, comp.id)
            container.append("package Shop;\nclass X {\n}\n")
            return container

        ctx.claim(comp, path, build)

    squatter = GeneratorComponent(
        id="Squatter",
        version="1.0.0",
        kind="back_end",
        realizes=frozenset(),
        interface=ComponentInterface(),
        behaviors=(Behavior("declare_squat", TRUE, declare_squat),),
    )
    monkeypatch.setattr(
        genline.cli,
        "build_reference_registry",
        lambda model: build_registry([*reference_components(), squatter], model),
    )
    write_variant(tmp_path, cdl=EDITED_CDL)
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert (code, out) == (EXIT_GENERATION, "")
    assert read_tree(out_dir) == cold
    assert _file_stats(out_dir) == before
    assert "'gencache.map/x.oo'" in err and "'Squatter'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl"]


@pytest.mark.parametrize("arg", [["x"], ("x", ({"x": 1},))], ids=["top", "nested"])
def test_generate_refuses_a_claim_argument_that_is_not_plain_data(tmp_path, monkeypatch, arg):
    """A builder argument other than a str, int, bool, None or tuple of these
    stops the run in the declare stage, and the old output keeps every file."""
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(out_dir)
    before = _file_stats(out_dir)

    def declare_odd(ctx, comp):
        ctx.claim(comp, "Odd.oo", ArtifactContainer, "Odd.oo", comp.id, arg)

    odd = GeneratorComponent(
        id="Odd",
        version="1.0.0",
        kind="back_end",
        realizes=frozenset(),
        interface=ComponentInterface(),
        behaviors=(Behavior("declare_odd", TRUE, declare_odd),),
    )
    monkeypatch.setattr(
        genline.cli,
        "build_reference_registry",
        lambda model: build_registry([*reference_components(), odd], model),
    )
    write_variant(tmp_path, cdl=EDITED_CDL)
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert (code, out) == (EXIT_GENERATION, "")
    assert "component 'Odd' claims 'Odd.oo' with builder arguments" in err
    assert read_tree(out_dir) == cold
    assert _file_stats(out_dir) == before


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


def test_generate_incremental_fails_on_an_unwritable_map_before_replacing_out(tmp_path):
    vsp = write_variant(tmp_path)
    cache_dir = tmp_path / "c"
    assert run("generate", "--incremental", "--cache", str(cache_dir), "-s", str(vsp))[0] == EXIT_OK
    out_dir = tmp_path / "out"
    before, stats = read_tree(out_dir), _file_stats(out_dir)
    (cache_dir / "gencache.map").unlink()
    (cache_dir / "gencache.map").mkdir()  # a map that cannot be written
    write_variant(tmp_path, cdl=SHOP_CDL.replace("}\n}", "}\n  class Extra { id: int; }\n}"))

    # The new class has files to write, so the run would swap out:; the map
    # is found unwritable first, and out: keeps every old file.
    code, out, err = run("generate", "--incremental", "--cache", str(cache_dir), "-s", str(vsp))
    assert (code, out) == (EXIT_GENERATION, "")
    assert "cannot write" in err and str(cache_dir / "gencache.map") in err
    assert read_tree(out_dir) == before and _file_stats(out_dir) == stats
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "demo.vsp", "out", "shop.cdl"]


def test_generate_incremental_refuses_a_cache_inside_out(tmp_path):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    before, stats = read_tree(out_dir), _file_stats(out_dir)
    (tmp_path / "link").symlink_to(out_dir)

    # A map inside out: would be a stray that every run swaps away; the
    # refusal comes before anything is written, also through a symlink.
    for cache_dir in (out_dir / "sub", tmp_path / "link" / "sub" / "deeper"):
        code, out, err = run("generate", "--incremental", "--cache", str(cache_dir), "-s", str(vsp))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"usage error: --cache {str(cache_dir)!r} lies inside the output directory "
            f"{str(out_dir)!r}\n"
        )
        assert read_tree(out_dir) == before and _file_stats(out_dir) == stats

    # out: itself is where the map lives without --cache.
    code, out, err = run("generate", "--incremental", "--cache", str(out_dir), "-s", str(vsp))
    assert (code, err) == (EXIT_OK, "") and "written: none\n" in out
    assert read_tree(out_dir) == before and _file_stats(out_dir) == stats


@pytest.mark.parametrize(
    "runs",
    [[()], [("--incremental",)] * 3, [("--incremental", "--cache", "c")] * 2],
    ids=["plain", "incremental", "incremental with --cache"],
)
def test_generate_recovers_an_interrupted_swap_once_per_command(tmp_path, monkeypatch, runs):
    vsp = write_variant(tmp_path)
    monkeypatch.chdir(tmp_path)
    real = genline.generation.recover_interrupted_swap
    calls = []

    def spy(out_dir):
        calls.append(out_dir)
        return real(out_dir)

    monkeypatch.setattr(genline.generation, "recover_interrupted_swap", spy)
    # Cold, a no-change rerun (the cutoff) and an edit (the engine).
    for options, cdl in zip(runs, (SHOP_CDL, SHOP_CDL, EDITED_CDL)):
        write_variant(tmp_path, cdl=cdl)
        calls.clear()
        code, _, err = run("generate", *options, "-s", str(vsp))
        assert (code, err) == (EXIT_OK, "")
        assert calls == [str(tmp_path / "out")]


def _spy(monkeypatch, name: str, replace=None) -> list:
    """Record the results of ``genline.cli.<name>``; ``replace`` stands in for it."""
    real = getattr(genline.cli, name)
    results = []

    def spy(*args, **kwargs):
        result = (replace or real)(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(genline.cli, name, spy)
    return results


def test_generate_incremental_no_change_run_is_cut_off(tmp_path, monkeypatch):
    vsp = write_variant(tmp_path, features=", ".join(ALL_FEATURES), mode="hybrid", cdl=COVERING_CDL)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold, before = read_tree(out_dir), _file_stats(out_dir)

    # The cutoff answers: no input model is parsed and the engine does not run.
    reports = _spy(monkeypatch, "unchanged_run")
    monkeypatch.setattr(genline.cli, "parse_class_diagram", None)  # not callable
    monkeypatch.setattr(genline.cli, "incremental_generate", None)
    code, cut_out, err = run("generate", "--incremental", "-s", str(vsp))
    assert (code, err) == (EXIT_OK, "")
    [report] = reports
    assert report.trace.to_text() == (out_dir / "trace.map").read_text()
    assert read_tree(out_dir) == cold and _file_stats(out_dir) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.vsp", "out", "shop.cdl"]

    # Today's path, through the engine, prints the same and changes nothing either.
    monkeypatch.undo()
    _spy(monkeypatch, "unchanged_run", replace=lambda *args: None)
    engine_reports = _spy(monkeypatch, "incremental_generate")
    code, engine_out, err = run("generate", "--incremental", "-s", str(vsp))
    assert (code, err) == (EXIT_OK, "")
    assert engine_out == cut_out
    assert "written: none\n" in cut_out and "facts: " in cut_out
    [(engine_report, _)] = engine_reports
    assert engine_report.trace.to_text() == report.trace.to_text()
    assert read_tree(out_dir) == cold and _file_stats(out_dir) == before


def test_cutoff_report_parses_its_trace_on_first_use(tmp_path, monkeypatch):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    trace_text = (out_dir / "trace.map").read_text()
    built = []
    real_region = genline.generation.TraceRegion

    def region(*args, **kwargs):
        built.append(real_region(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(genline.generation, "TraceRegion", region)
    reports = _spy(monkeypatch, "unchanged_run")
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert (code, err) == (EXIT_OK, "") and "written: none\n" in out
    [report] = reports
    assert built == []  # the CLI never reads the report's trace
    assert report.trace.to_text() == trace_text
    assert len(built) == trace_text.count("\n")

    # Malformed lines and bytes that are not UTF-8 are skipped when the trace
    # is first read, as they were when it was read at once.
    damaged = b"Person.oo:1-\xb2 Types Class\nnot a trace line\n\xff\xfe\n" + trace_text.encode()
    (out_dir / "trace.map").write_bytes(damaged)
    cache = GenCache.from_text((out_dir / "gencache.map").read_text())
    cache.trace = hashlib.sha256(damaged).hexdigest()
    report = unchanged_run(out_dir, cache, cache.run[0])
    assert report is not None
    assert report.trace.to_text() == trace_text
    assert report.trace.by_feature == genline.generation.TraceIndex.from_text(trace_text).by_feature


def _break_run(tmp_path: Path, damage: str) -> None:
    out_dir = tmp_path / "out"
    if damage.startswith("flip "):  # one byte changed, the size kept
        target = out_dir / damage[5:]
        data = bytearray(target.read_bytes())
        data[3] ^= 1
        target.write_bytes(bytes(data))
    elif damage == "deleted artifact":
        (out_dir / "Receipt.oo").unlink()
    elif damage == "deleted trace":
        (out_dir / "trace.map").unlink()
    elif damage == "stray file":
        (out_dir / "notes.txt").write_text("scratch\n")
    elif damage == "empty folder":
        (out_dir / "sub").mkdir()
    elif damage == "symlink":  # the same bytes, through a link
        target = out_dir / "Person.oo"
        target.rename(tmp_path / "Person.copy")
        target.symlink_to(tmp_path / "Person.copy")
    elif damage == "binding":
        write_variant(tmp_path, extra='  bind Factory.factory_method_prefix = "make%s";\n')
    elif damage == "mode":
        write_variant(tmp_path, mode="run_time")
    elif damage == "feature":
        write_variant(tmp_path, features=GEN_FEATURES.replace(", Builder", ""))
    else:
        raise AssertionError(damage)


@pytest.mark.parametrize(
    "damage",
    [
        "flip Person.oo", "flip trace.map", "deleted artifact", "deleted trace", "stray file",
        "empty folder", "symlink", "binding", "mode", "feature",
    ],
)
def test_generate_incremental_falls_through_to_the_engine(tmp_path, monkeypatch, damage):
    vsp = write_variant(tmp_path)
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    _break_run(tmp_path, damage)
    engine_reports = _spy(monkeypatch, "incremental_generate")
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK, err
    assert len(engine_reports) == 1
    # The result is the tree a first run of the same variant writes elsewhere.
    (tmp_path / "cold").mkdir()
    shutil.copy(tmp_path / "shop.cdl", tmp_path / "cold" / "shop.cdl")
    shutil.copy(vsp, tmp_path / "cold" / "demo.vsp")
    assert run("generate", "--incremental", "-s", str(tmp_path / "cold" / "demo.vsp"))[0] == EXIT_OK
    assert _tree_but_stat(tmp_path / "out") == _tree_but_stat(tmp_path / "cold" / "out")
    assert not (tmp_path / "out" / "Person.oo").is_symlink()


@pytest.mark.parametrize(
    "damage",
    ["no run line", "bad digest", "count not an integer", "extra field", "gone file"],
)
def test_generate_incremental_with_a_damaged_run_line(tmp_path, monkeypatch, damage):
    vsp = write_variant(tmp_path)
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(tmp_path / "out")
    cache_map = tmp_path / "out" / "gencache.map"
    text = cache_map.read_bytes()
    body, _, run_line = text.rstrip(b"\n").rpartition(b"\n")
    assert run_line.startswith(b"run ")
    fields = run_line.split()
    if damage == "no run line":
        run_line = b""
    elif damage == "bad digest":
        run_line = b" ".join([fields[0], fields[1][:-1] + b"g", *fields[2:]])
    elif damage == "count not an integer":
        run_line = b" ".join([*fields[:2], b"1.5", fields[3]])
    elif damage == "extra field":
        run_line += b" 7"
    else:  # the run line stands, but the map lists an artifact that is gone
        body += b"\nGone.oo " + fields[1] + b" " + fields[3]
    cache_map.write_bytes(body + b"\n" + run_line + b"\n")
    engine_reports = _spy(monkeypatch, "incremental_generate")
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK, err
    assert len(engine_reports) == 1
    assert "written: none\n" in out
    assert read_tree(tmp_path / "out") == cold  # the engine wrote the map again


@pytest.mark.parametrize(
    "damaged, command, expected",
    [
        ("bad.fml", ("validate", "-c", "CD2Java", "-m", "{tmp}/bad.fml"), EXIT_USAGE),
        ("out/gencache.map", ("generate", "--incremental", "-s", "{vsp}"), EXIT_OK),
        ("out/gencache.map run", ("generate", "--incremental", "-s", "{vsp}"), EXIT_OK),
        ("out/Person.oo", ("generate", "--incremental", "-s", "{vsp}"), EXIT_OK),
        ("out/trace.map", ("trace", "-s", "{vsp}", "--artifact", "Person.oo"), EXIT_OK),
    ],
    ids=["model", "cache", "run line", "artifact", "trace"],
)
def test_bytes_that_are_not_utf8_never_raise(tmp_path, damaged, command, expected):
    vsp = write_variant(tmp_path)
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = _tree_but_stat(tmp_path / "out")
    damaged, _, line = damaged.partition(" ")
    if line:  # only the cache map's run line, whose digest gets a byte that is not UTF-8
        data = (tmp_path / damaged).read_bytes()
        (tmp_path / damaged).write_bytes(data.replace(b"\nrun ", b"\nrun \xfe", 1))
    else:
        (tmp_path / damaged).write_bytes(b"\xff\xfe")
    code, out, err = run(*(arg.format(tmp=tmp_path, vsp=vsp) for arg in command))
    assert code == expected, err
    if command[0] == "validate":
        assert "cannot read feature model" in err and "bad.fml" in err
    elif command[0] == "generate":
        # The damaged file only causes misses; the output is rebuilt in full.
        assert _tree_but_stat(tmp_path / "out") == cold
    else:
        assert out == "unknown artifact: Person.oo\n"


# ---------------------------------------------------------------------------
# the stat record: a reused file is trusted by its stat data

def _stat_digest_of(out_dir: Path) -> str:
    """The stat digest of ``out_dir`` as the run line records it: path, size,
    mtime, ctime and inode of every regular file but the cache map."""
    rows = []
    for path in out_dir.rglob("*"):
        st = path.lstat()
        rel = path.relative_to(out_dir).as_posix()
        if path.is_file() and not path.is_symlink() and rel != "gencache.map":
            rows.append((rel, (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)))
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def _run_line(cache_dir: Path) -> list[str]:
    return (cache_dir / "gencache.map").read_text().splitlines()[-1].split()


def _racy(out_dir: Path) -> set[str]:
    """The files with the newest mtime, the cache map aside: they are always read."""
    mtimes = {p.name: p.stat().st_mtime_ns for p in out_dir.iterdir() if p.name != "gencache.map"}
    return {name for name, mtime in mtimes.items() if mtime == max(mtimes.values())}


def _spy_reads(monkeypatch) -> list[str]:
    """The paths that ``genline.generation._read`` opens, in order."""
    real = genline.generation._read
    reads = []

    def spy(out, path):
        reads.append(path)
        return real(out, path)

    monkeypatch.setattr(genline.generation, "_read", spy)
    return reads


def test_the_run_line_records_the_stat_digest_of_out(tmp_path):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    assert _run_line(out_dir)[4] == _stat_digest_of(out_dir)
    write_variant(tmp_path, cdl=EDITED_CDL)  # a swap: new files and new links
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    assert _run_line(out_dir)[4] == _stat_digest_of(out_dir)
    # A new comment in the model: the engine runs and swaps nothing, and the
    # map records the stat data its scan found, a touched file's included.
    (out_dir / "Receipt.oo").touch()
    write_variant(tmp_path, cdl=EDITED_CDL + "// a comment\n")
    code, out, _ = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK and "written: none\n" in out
    assert _run_line(out_dir)[4] == _stat_digest_of(out_dir)
    cache_dir = tmp_path / "cache"  # a map kept elsewhere records the same
    assert run("generate", "--incremental", "--cache", str(cache_dir), "-s", str(vsp))[0] == EXIT_OK
    assert _run_line(cache_dir)[4] == _stat_digest_of(out_dir)


def test_a_no_change_rerun_reads_only_racy_files(tmp_path, monkeypatch):
    vsp = write_variant(tmp_path, features=", ".join(ALL_FEATURES), mode="hybrid", cdl=COVERING_CDL)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    racy = _racy(out_dir)
    reads = _spy_reads(monkeypatch)
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert (code, err) == (EXIT_OK, "") and "written: none\n" in out
    assert set(reads) == racy | {"trace.map"}

    # An edited run reads the trace map, the racy files and, to leave them
    # alone if their bytes are the same, rebuilt files of the same size.
    racy = _racy(out_dir)
    (tmp_path / "shop.cdl").write_text(COVERING_CDL.replace("level: int;", "level: string;"))
    reads.clear()
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK, err
    assert "written: Manager.oo, ManagerBuilder.oo\n" in out
    assert set(reads) <= racy | {"trace.map", "Manager.oo", "ManagerBuilder.oo"}


@pytest.mark.parametrize("damage", ["four fields", "damaged stat digest"])
def test_a_map_without_a_valid_stat_digest_is_read_and_hashed(tmp_path, monkeypatch, damage):
    vsp = write_variant(tmp_path)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(out_dir)
    body, _, run_line = cold["gencache.map"].rstrip(b"\n").rpartition(b"\n")
    fields = run_line.split()
    if damage == "four fields":  # as written before the stat digest existed: not read
        fields = fields[:4]
    else:  # one digit short: not read either
        fields[4] = fields[4][:-1]
    older = body + b"\n" + b" ".join(fields) + b"\n"
    (out_dir / "gencache.map").write_bytes(older)
    reads = _spy_reads(monkeypatch)
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert (code, err) == (EXIT_OK, "") and "written: none\n" in out
    artifacts = set(cold) - {"gencache.map", "trace.map"}
    assert artifacts <= set(reads)
    # With no run line read, the engine answered, read every file and left
    # each one. It wrote the stat digest of out:, which has not changed, so
    # the map is the first one again.
    assert read_tree(out_dir) == cold
    assert _run_line(out_dir)[4] == _stat_digest_of(out_dir)


def test_a_cutoff_that_hashed_every_file_renews_the_stat_record(tmp_path, monkeypatch):
    vsp = write_variant(tmp_path, features=", ".join(ALL_FEATURES), mode="hybrid", cdl=COVERING_CDL)
    out_dir = tmp_path / "out"
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    reads = _spy_reads(monkeypatch)
    for touched in ("Manager.oo", "all"):
        if touched == "all":  # every file gets the newest mtime: none is trusted
            for p in out_dir.iterdir():
                os.utime(p, ns=(10**18, 10**18))
        else:
            os.utime(out_dir / touched)
        stats = _file_stats(out_dir)
        files = set(stats) - {"gencache.map"}

        # The stat data no longer match: the cutoff hashes every file, writes
        # nothing in out: but renews the map's record.
        reads.clear()
        code, out, err = run("generate", "--incremental", "-s", str(vsp))
        assert (code, err) == (EXIT_OK, "") and "written: none\n" in out
        assert set(reads) == files
        assert _run_line(out_dir)[4] == _stat_digest_of(out_dir)
        after = _file_stats(out_dir)
        assert {p: after[p] for p in files} == {p: stats[p] for p in files}

        # So the next rerun reads only the racy files, and, the record
        # matching, writes no map.
        reads.clear()
        code, out, err = run("generate", "--incremental", "-s", str(vsp))
        assert (code, err) == (EXIT_OK, "") and "written: none\n" in out
        assert set(reads) == _racy(out_dir) | {"trace.map"}
        assert len(reads) < len(files) or touched == "all"
        assert _file_stats(out_dir) == after


@lru_cache(maxsize=None)
def _cold_tree(cdl: str) -> dict[str, bytes]:
    """The tree a plain ``generate`` of ``cdl`` writes into a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        vsp = write_variant(Path(tmp), cdl=cdl)
        assert run("generate", "-s", str(vsp))[0] == EXIT_OK
        return read_tree(Path(tmp) / "out")


_OUT_FILES = (
    "Person.oo", "PersonBuilder.oo", "Receipt.oo", "ReceiptBuilder.oo", "ShopFactory.oo",
    "trace.map",
)
_OUT_DAMAGE = st.one_of(
    st.tuples(st.just("edit")),  # switch the input model, so the engine runs
    st.tuples(
        st.sampled_from(["rewrite", "racy rewrite", "rename", "delete", "append", "touch"]),
        st.sampled_from(_OUT_FILES),
    ),
)


def _damage_out(out_dir: Path, damage: tuple, newest: int) -> None:
    """Apply one damage to ``out_dir``; ``newest`` is the newest recorded mtime."""
    kind, target = damage[0], out_dir / damage[1]
    if not target.is_file():
        return
    data = target.read_bytes()
    other = bytes([data[0] ^ 0x20]) + data[1:]  # the same size, other bytes
    if kind in ("rewrite", "racy rewrite"):
        with target.open("r+b") as f:  # in place: the same inode
            f.write(other)
        if kind == "racy rewrite":
            os.utime(target, ns=(newest, newest))
    elif kind == "rename":  # a new inode, with the old size and mtime
        mtime = target.stat().st_mtime_ns
        replacement = out_dir.parent / "replacement"
        replacement.write_bytes(other)
        os.utime(replacement, ns=(mtime, mtime))
        os.replace(replacement, target)
    elif kind == "delete":
        target.unlink()
    elif kind == "append":
        with target.open("ab") as f:
            f.write(b"// more\n")
    else:  # touch: the same bytes, a new mtime
        os.utime(target)


@settings(max_examples=30, deadline=None)
@given(script=st.lists(st.lists(_OUT_DAMAGE, max_size=3), min_size=1, max_size=4))
def test_incremental_runs_over_a_damaged_output_equal_a_cold_generate(script):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out_dir, cdl = root / "out", SHOP_CDL
        vsp = write_variant(root, cdl=cdl)
        assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
        for damages in script:
            newest = max(
                p.stat().st_mtime_ns for p in out_dir.iterdir() if p.name != "gencache.map"
            )
            for damage in damages:
                if damage == ("edit",):
                    cdl = EDITED_CDL if cdl == SHOP_CDL else SHOP_CDL
                    write_variant(root, cdl=cdl)
                else:
                    _damage_out(out_dir, damage, newest)
            code, _, err = run("generate", "--incremental", "-s", str(vsp))
            assert code == EXIT_OK, err
            tree = read_tree(out_dir)
            tree.pop("gencache.map")
            assert tree == _cold_tree(cdl), damages


def test_generate_incremental_with_an_unreadable_cache(tmp_path, monkeypatch):
    vsp = write_variant(tmp_path)
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    cold = read_tree(tmp_path / "out")

    def refused_for_the_map(*modes):
        """The engine's ``open``, refusing the cache map in these modes."""
        def method(file, mode="r", *args, **kwargs):
            if os.path.basename(file) == "gencache.map" and mode in modes:
                raise PermissionError(errno.EACCES, "Permission denied", file)
            return open(file, mode, *args, **kwargs)

        return method

    # A cache map that cannot be read is no cache: every artifact misses,
    # the output already holds the bytes, and the map is written again.
    monkeypatch.setattr(genline.generation, "open", refused_for_the_map("rb"), raising=False)
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_OK, err
    assert "cache hits: none\n" in out
    # A map that can then not be written either fails the run.
    monkeypatch.setattr(genline.generation, "open", refused_for_the_map("rb", "wb", "ab"))
    code, out, err = run("generate", "--incremental", "-s", str(vsp))
    assert code == EXIT_GENERATION
    assert "cannot write" in err and "gencache.map" in err
    monkeypatch.undo()
    assert read_tree(tmp_path / "out") == cold


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


@pytest.mark.parametrize(
    "argv, usage",
    [
        (("--help",), "usage: genline [-h] command ...\n"),
        (("generate", "-h"), "usage: genline generate [-h] [-m MODEL] -s SPEC"),
    ],
    ids=["genline", "generate"],
)
def test_help_goes_to_the_given_stream(capsys, argv, usage):
    code, out, err = run(*argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(usage) and "show this help message and exit" in out
    assert capsys.readouterr() == ("", "")


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    # genline.cli builds its parser once, on import. Each call in a sequence,
    # a usage error included, gives what a parser of its own would give.
    for name in ("shop.vsp", "shop.cdl"):
        shutil.copy(SAMPLES / name, tmp_path / name)
    (tmp_path / "m.fml").write_text(REFERENCE_FML)
    calls = [
        ("generate", "-s"),
        ("frobnicate",),
        ("validate", "-c", "CD2Java,Types,Class"),
        ("enumerate", "--list", "-m", str(tmp_path / "m.fml")),
        ("generate", "-h"),
        ("generate", "-s", str(tmp_path / "shop.vsp")),
    ]

    def results(parser_per_call: bool) -> list:
        shutil.rmtree(tmp_path / "generated", ignore_errors=True)
        found = []
        for argv in calls:
            if parser_per_call:
                monkeypatch.setattr(genline.cli, "_PARSER", genline.cli._build_parser())
            found.append(run(*argv))
        return found

    def no_parser():
        raise AssertionError("run_cli built a parser")

    with monkeypatch.context() as patch:
        patch.setattr(genline.cli, "_build_parser", no_parser)
        shared = results(parser_per_call=False)
    assert results(parser_per_call=True) == shared
    assert [code for code, _, _ in shared] == [EXIT_USAGE, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
    assert "expected one argument" in shared[0][2] and "invalid choice" in shared[1][2]
    assert shared[3][1].startswith("32\n") and "written: " in shared[5][1]


def test_help_is_formatted_for_the_width_when_shown(monkeypatch):
    usage = "usage: genline generate [-h] [-m MODEL] -s SPEC [--incremental] [--cache CACHE]"
    monkeypatch.setenv("COLUMNS", "60")
    assert run("generate", "--help")[1].splitlines()[0] != usage
    monkeypatch.setenv("COLUMNS", "200")
    assert run("generate", "--help")[1].splitlines()[0] == usage


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


def _trace_an_incremental_rerun(tmp_path, monkeypatch, cdl_after: str):
    """Spans and stdout of a traced ``--incremental`` run over ``cdl_after``,
    after a first untraced run over the covering diagram."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "genbench"))
    import tracing

    vsp = write_variant(tmp_path, features=", ".join(ALL_FEATURES), mode="hybrid", cdl=COVERING_CDL)
    assert run("generate", "--incremental", "-s", str(vsp))[0] == EXIT_OK
    (tmp_path / "shop.cdl").write_text(cdl_after)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, out, err = run("generate", "--incremental", "-s", str(vsp))
    finally:
        tracer.uninstall()
    assert code == EXIT_OK, err
    return {name for name, *_ in tracer.spans}, {name for *_, name in tracing.SPAN_POINTS}, out


def test_benchmark_hook_points_see_an_incremental_rerun(tmp_path, monkeypatch):
    # The sibling of the test above for a no-change --incremental run. The
    # whole-run cutoff finds the inputs and outputs unchanged, so it parses no
    # input model and runs no engine stage: of the engine's spans only
    # TraceIndex.from_text remains, which keeps the trace map's text for the
    # report and parses nothing. The feature model is still parsed, so
    # lexing.tokenize stays.
    spans, points, out = _trace_an_incremental_rerun(tmp_path, monkeypatch, COVERING_CDL)
    assert "written: none\n" in out
    not_in_rerun = {
        "featuremodel.enumerate_configurations",
        "classdiagram.parse_class_diagram",
        "classdiagram.check_context_conditions",
        "composition.schedule",
        "generation.generate",
        "generation.incremental_generate",
        "generation.Blackboard.query",
        "generation.TraceIndex.to_text",
        "ootl.check_unit",
        *(name for name in points if name.startswith("reference.")),
    }
    assert spans == points - not_in_rerun
    assert len(spans) == 9


def test_benchmark_hook_points_see_an_incremental_edit(tmp_path, monkeypatch):
    # After a one-line edit of the input model the run goes through the
    # engine: every span of today's engine path is seen, and the builders and
    # syntax check of the two artifacts the edit changed.
    edited = COVERING_CDL.replace("level: int;", "level: string;")
    spans, points, out = _trace_an_incremental_rerun(tmp_path, monkeypatch, edited)
    assert "written: Manager.oo, ManagerBuilder.oo\n" in out
    rebuilt = {"ootl.check_unit", "reference.class_artifact", "reference.builder_emit"}
    not_in_edit = {
        "featuremodel.enumerate_configurations",
        "generation.generate",
        *(name for name in points if name.startswith("reference.") and name not in rebuilt),
    }
    assert spans == points - not_in_edit
    assert len(spans) == 18


@pytest.mark.parametrize("workload", ["incremental", "cold-large"])
def test_one_traced_benchmark_round_of_the_workload_is_correct(workload):
    # genbench's incremental workload edits a 200-class diagram, regenerates
    # with --incremental, reruns with no change and compares every output
    # with a cold generate; cold-large generates that diagram into a fresh
    # directory and checks every artifact. It writes only under .genbench-out/.
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "genbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0)
