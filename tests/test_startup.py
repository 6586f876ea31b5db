"""Start-up cost: `import lingspace.cli` loads no network, XML or e-mail module.

Every CLI invocation pays for that import, and `xml.sax.saxutils` alone once
pulled in urllib.request, http.client, ssl, socket and email. The probe runs
in a fresh interpreter and counts only the modules the import adds, so those
a site hook preloads do not count.

Run as a script (`python tests/test_startup.py`) it checks whichever
lingspace the interpreter finds, such as an installed package when started
outside the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = ("xml", "http", "email", "ssl", "socket", "urllib.request")

_PROBE = """\
import sys
before = set(sys.modules)
import lingspace.cli
print(lingspace.cli.__file__)
print(*sorted(set(sys.modules) - before))
"""


def import_cli(env: dict[str, str] | None = None) -> tuple[str, list[str]]:
    """The file `lingspace.cli` was loaded from, and the modules its import
    added, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True)
    path, modules = proc.stdout.splitlines()
    return path, modules.split()


def unwanted(modules: list[str]) -> list[str]:
    return [name for name in modules
            if any(name == top or name.startswith(top + ".") for top in UNWANTED)]


def test_cli_import_loads_no_network_xml_or_email_module():
    path, modules = import_cli({**os.environ, "PYTHONPATH": str(SRC)})
    assert Path(path).is_relative_to(SRC)
    assert "lingspace.cli" in modules
    assert unwanted(modules) == []


if __name__ == "__main__":
    path, modules = import_cli()
    found = unwanted(modules)
    print(f"{path}: import added {len(modules)} modules; unwanted: {found or 'none'}")
    sys.exit(1 if found else 0)
