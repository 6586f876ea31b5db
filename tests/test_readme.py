"""The README's Python API example runs as written, so it cannot name a
symbol the package no longer has."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python_api_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_python_api_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example reads tests/fixtures/udhr
    exec(compile(_python_api_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"3\.\d\d eng chars per cmn_hant char over 39 units", lines[0])
    assert lines[1] == "False 71 ucs2_chars"
