"""Start-up cost: `import lingspace.cli` loads only what `limit check` runs.

Every CLI invocation pays for that import, and `limit check` answers for one
text per process, so its start-up is most of its cost. The import loads no
stage module (corpus, posts, ratios, captions, figures, the pipeline) and
none of their dependencies (`statistics`, `configparser`, `datetime`); the
other commands import their stages when they run. Neither the import nor a
`limit check` run loads `dataclasses`, `inspect`, `logging` or `csv`: the
limit types are slotted classes, only the commands that log set up logging,
and `csv` is imported where a table is read or written as CSV. It also loads
no network, XML or e-mail module: `xml.sax.saxutils` alone once pulled in
urllib.request, http.client, ssl, socket and email. The probe runs in a
fresh interpreter and counts only the modules the import adds, so those a
site hook preloads do not count.

Run as a script (`python tests/test_startup.py`) it checks the import and
one `limit check` run of whichever lingspace the interpreter finds, such as
an installed package when started outside the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = ("xml", "http", "email", "ssl", "socket", "urllib.request")
STAGES = ("corpus", "microblog", "pipeline", "ratios", "subtitles", "svgplot")
STAGE_ONLY = ("statistics", "configparser", "datetime",
              *(f"lingspace.{stage}" for stage in STAGES))
# Modules that `limit check` does not use at run time.
NOT_FOR_CHECK = ("dataclasses", "inspect", "logging", "csv")
LIMIT_CHECK = ("limit", "check", "--platform", "sms", "--text", "x", "--out", os.devnull)
LIMIT_CHECK_MODULES = {
    "lingspace",
    *(f"lingspace.{name}" for name in ("cli", "errors", "gsm7", "langtags", "limits",
                                       "measures", "options", "tables")),
}

_PROBE = """\
import sys
before = set(sys.modules)
import lingspace.cli
if sys.argv[1:]:
    lingspace.cli.main(sys.argv[1:])
print(lingspace.cli.__file__)
print(*sorted(set(sys.modules) - before))
"""


def import_cli(env: dict[str, str] | None = None, *argv: str) -> tuple[str, list[str]]:
    """The file `lingspace.cli` was loaded from, and the modules its import
    added, in a fresh interpreter; with `argv`, the import and a run of
    `main(argv)` added."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    path, modules = proc.stdout.splitlines()
    return path, modules.split()


def unwanted(modules: list[str], tops: tuple[str, ...] = UNWANTED) -> list[str]:
    return [name for name in modules
            if any(name == top or name.startswith(top + ".") for top in tops)]


def test_cli_import_loads_no_network_xml_or_email_module():
    path, modules = import_cli({**os.environ, "PYTHONPATH": str(SRC)})
    assert Path(path).is_relative_to(SRC)
    assert "lingspace.cli" in modules
    assert unwanted(modules) == []


@pytest.mark.parametrize("argv", [(), LIMIT_CHECK], ids=["import", "limit-check"])
def test_cli_loads_only_what_limit_check_runs(argv):
    _, modules = import_cli({**os.environ, "PYTHONPATH": str(SRC)}, *argv)
    assert {name for name in modules
            if name.partition(".")[0] == "lingspace"} == LIMIT_CHECK_MODULES
    assert unwanted(modules, STAGE_ONLY) == []
    assert unwanted(modules, NOT_FOR_CHECK) == []


if __name__ == "__main__":
    failed = False
    for argv in ((), LIMIT_CHECK):
        path, modules = import_cli(None, *argv)
        found = unwanted(modules, UNWANTED + STAGE_ONLY + NOT_FOR_CHECK)
        failed = failed or bool(found)
        run = "import and limit check" if argv else "import"
        print(f"{path}: {run} added {len(modules)} modules; unwanted: {found or 'none'}")
    sys.exit(1 if failed else 0)
