"""Tests of the benchmark's own input generator, count oracle and checkers."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from genline import enumerate_configurations, parse_feature_model  # noqa: E402
from genline.cli import run_cli  # noqa: E402

ALL = frozenset(inputs.ALL_FEATURES)


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_count_matches_enumeration(seed):
    model = inputs.feature_model(seed, width=2)
    count, _ = enumerate_configurations(parse_feature_model(inputs.render_fml(model)))
    assert inputs.expected_count(model) == count


def test_feature_model_size_is_fixed():
    for seed in range(5):
        model = inputs.feature_model(seed)
        assert len(list(model.root.walk())) == 16
        assert parse_feature_model(inputs.render_fml(model)).feature_ids()


def test_inputs_depend_only_on_the_seed():
    assert inputs.render_cdl(inputs.large_diagram(7, 40)) == inputs.render_cdl(inputs.large_diagram(7, 40))
    assert inputs.render_cdl(inputs.large_diagram(7, 40)) != inputs.render_cdl(inputs.large_diagram(8, 40))
    assert inputs.render_fml(inputs.feature_model(7)) == inputs.render_fml(inputs.feature_model(7))


def test_twenty_configurations_compose():
    configs = inputs.composable_configurations()
    assert len(configs) == 20
    assert len(set(configs)) == 20


def _generate(tmp_path: Path, diagram, features, mode, name="v") -> str:
    (tmp_path / f"{name}.cdl").write_text(inputs.render_cdl(diagram), encoding="utf-8")
    (tmp_path / f"{name}.vsp").write_text(
        inputs.render_vsp(name, features, mode, f"{name}.cdl", f"out_{name}"), encoding="utf-8"
    )
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(["generate", "-s", str(tmp_path / f"{name}.vsp")], out, err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_checkers_accept_genline_output_of_every_variant(tmp_path):
    base = inputs.small_diagram(3)
    for index, features in enumerate(inputs.composable_configurations()):
        for mode in inputs.MODES:
            diagram = inputs.restrict_to_variant(base, features, mode)
            stdout = _generate(tmp_path, diagram, features, mode, f"v{index}{mode}")
            [block] = checks.parse_report(stdout)
            expected = checks.expected_artifacts(diagram, features, mode)
            facts = checks.expected_facts(diagram, features, mode)
            assert checks.check_report(block, expected, set(), facts) == []
            assert checks.check_output(tmp_path / f"out_v{index}{mode}", diagram, features, mode) == []


def test_checkers_reject_damaged_output(tmp_path):
    diagram = inputs.large_diagram(5, 40)
    _generate(tmp_path, diagram, ALL, "hybrid")
    out = tmp_path / "out_v"
    assert checks.check_output(out, diagram, ALL, "hybrid") == []
    cls = diagram.classes()[0]
    unit = out / f"{cls.name}.oo"
    unit.write_text(unit.read_text().replace(f"class {cls.name}", f"class {cls.name}X"))
    assert checks.check_output(out, diagram, ALL, "hybrid")
    routed = sorted(checks.routed_classes(diagram, "hybrid"))[0]
    factory = out / f"{diagram.name}Factory.oo"
    lowered = routed[:1].lower() + routed[1:]
    factory.write_text(factory.read_text().replace(f"{lowered}Provider.provide()", f"new {routed}()"))
    assert any("factory" in p for p in checks.check_output(out, diagram, ALL, "hybrid"))
    trace = out / checks.TRACE_FILE
    trace.write_text(trace.read_text().replace(":1-", ":2-", 1))
    assert any("gap" in p for p in checks.check_output(out, diagram, ALL, "hybrid"))


_COUNT_ONE_OP = """
import io, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import inputs, tracing
from genline.cli import run_cli
work = Path({work!r})
work.mkdir(exist_ok=True)
(work / "d.cdl").write_text(inputs.render_cdl(inputs.large_diagram(3, 40)))
(work / "d.vsp").write_text(inputs.render_vsp("d", frozenset(inputs.ALL_FEATURES), "hybrid", "d.cdl", "out"))
run_cli(["generate", "-s", str(work / "d.vsp")], io.StringIO(), io.StringIO())
import genline
calls, _ = tracing.count_calls(
    lambda: run_cli(["generate", "-s", str(work / "d.vsp")], io.StringIO(), io.StringIO()),
    Path(genline.__file__).parent,
)
print(sum(calls.values()))
"""


def test_call_count_repeats_across_hash_seeds(tmp_path):
    bench = str(Path(__file__).resolve().parent)
    counts = set()
    for hash_seed in ("0", "1", "2"):
        code = _COUNT_ONE_OP.format(src=str(SRC), bench=bench, work=str(tmp_path / "work"))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        counts.add(int(result.stdout.split()[-1]))
    assert len(counts) == 1
