"""The engine is stdlib-only: it declares no dependencies and imports none.

numpy and scipy may well be installed where the tests run, so the import
check runs in a fresh interpreter, started with -S so that site-packages
.pth hooks do not preload anything of their own, and lists every top-level
module that importing the CLI left loaded.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = (
    "import json, sys, syzlab.cli; "
    "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))"
)


def test_cli_import_loads_only_the_stdlib():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "syzlab" in loaded
    assert not loaded & {"numpy", "scipy"}
    assert loaded - set(sys.stdlib_module_names) == {"__main__", "syzlab"}


def test_pyproject_declares_no_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r"^dependencies = \[\]$", project, re.M)
    assert "optional-dependencies" not in text
