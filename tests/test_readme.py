from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _section_code(title: str) -> str:
    """The first ```python block under the README heading ``## title``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under '## {title}'"
    return match.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_section_code("Library use"), str(README), "exec"), {})
    assert (tmp_path / "out" / "Person.oo").is_file()
