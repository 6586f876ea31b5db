"""The README's Python API example runs as written, so it cannot name a
symbol the package no longer has; its config example and the pipeline's
docstring name the settings that `options.SETTINGS` declares."""

import re
import shutil
from pathlib import Path

import pytest

import lingspace.pipeline
from lingspace.options import SETTINGS

ROOT = Path(__file__).resolve().parent.parent


def _python_api_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    # The example reads tests/fixtures/udhr and writes ratios.csv.
    shutil.copytree(ROOT / "tests" / "fixtures" / "udhr",
                    tmp_path / "tests" / "fixtures" / "udhr")
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_api_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"3\.\d\d eng chars per cmn_hant char over 39 units", lines[0])
    assert lines[1] == "False 71 ucs2_chars"
    assert re.fullmatch(r"\[\(\('eng', 'cmn_hant'\), 3\.\d{1,4}\)\]", lines[2])


def _sections(text: str, header: str) -> dict[str, str]:
    """{section: its text} of each `[section]` that starts a line after
    `header` (a run of spaces), up to the next one."""
    found = re.findall(rf"^{header}\[(\w+)\](.*?)(?=^{header}\[|\Z)", text, re.M | re.S)
    return dict(found)


def test_readme_config_example_holds_exactly_the_declared_keys():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    keys = {(section, key) for section, body in _sections(block, "").items()
            for key in re.findall(r"^;? *(\w+) =", body, re.M)}
    assert keys == {(setting.section, setting.key) for setting in SETTINGS}


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.config_name)
def test_pipeline_docstring_lists_every_setting(setting):
    sections = _sections(lingspace.pipeline.__doc__, " {4}")
    assert re.search(rf"\b{setting.key}\b", sections[setting.section])
