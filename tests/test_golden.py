"""Golden stdout: a fixed set of CLI commands keeps its exit codes and bytes.

Each command runs in-process through `syzlab.cli.main`; its exit code and
stdout are compared with `golden_stdout.json` next to this file.  Two things
are normalised first: the store directory in the config echo (every command
shares one fresh store, so repeats are answered from it) and any
`wall_time_ms` value.

The goldens are a record of what the engine printed when they were made, so
regenerate them only on purpose, after an intended output change:

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_stdout.json")

CACHE = "{cache}"

COMMANDS = [
    # kpq: a store miss then a hit, each mode, a repeated prime, a cap
    "kpq --n 1 --b 0 --d 3 --p 2 --q 1 --cache-dir {cache}",
    "kpq --n 1 --b 0 --d 3 --p 2 --q 1 --cache-dir {cache}",
    "kpq --n 2 --b 0 --d 3 --p 5 --q 1 --no-cache",
    "kpq --n 2 --b 0 --d 3 --p 5 --q 1 --mode exact --no-cache",
    "kpq --n 2 --b 0 --d 2 --p 1 --q 1 --prime-seeds 5 5 --no-cache",
    "kpq --n 2 --b 0 --d 4 --p 6 --q 1 --no-cache",
    "kpq --n 2 --b 0 --d 4 --p 6 --q 1 --memory-cap-mb 1 --no-cache",
    # betti: three formats on one store, several tables, both modes
    "betti --n 1 --b 0 --d 3 --cache-dir {cache}",
    "betti --n 1 --b 0 --d 3 --format m2 --cache-dir {cache}",
    "betti --n 1 --b 0 --d 3 --format csv --cache-dir {cache}",
    "betti --n 2 --b 0 --d 3 --format m2 --cache-dir {cache}",
    "betti --n 2 --b 1 --d 3 --format csv --no-cache",
    "betti --n 3 --b 0 --d 2 --format m2 --no-cache",
    "betti --n 1 --b 1 --d 4 --no-cache",
    "betti --n 1 --b 2 --d 2 --format m2 --no-cache",
    "betti --n 2 --b 0 --d 2 --format m2 --mode exact --no-cache",
    "betti --n 1 --b 1 --d 4 --format csv --mode exact --no-cache",
    "betti --n 2 --b 0 --d 4 --p-min 5 --p-max 7 --q-min 1 --q-max 1 --format m2 "
    "--memory-cap-mb 1 --no-cache",
    # an infeasible cell in JSON: its entry prints the repr of the cell's Parameters
    "betti --n 2 --b 0 --d 4 --p-min 6 --p-max 6 --q-min 1 --q-max 1 --memory-cap-mb 1 "
    "--no-cache",
    # verify: a curve, a surface, b >= d, a twisted table, exact mode
    "verify --n 1 --b 0 --d 3 --no-cache",
    "verify --n 2 --b 0 --d 3 --cache-dir {cache}",
    "verify --n 1 --b 2 --d 2 --no-cache",
    "verify --n 2 --b 1 --d 2 --no-cache",
    "verify --n 1 --b 1 --d 4 --mode exact --no-cache",
    # schur: two-prime, exact, a twisted cell
    "schur --n 2 --b 0 --d 3 --p 2 --q 1 --no-cache",
    "schur --n 2 --b 0 --d 2 --p 1 --q 1 --mode exact --no-cache",
    "schur --n 2 --b 1 --d 3 --p 3 --q 1 --no-cache",
    # cycle and bounds
    "cycle --n 1 --b 2 --d 3 --p 2",
    "cycle --n 2 --b 1 --d 2 --p 2",
    "bounds --n 2 --b 0 --d 3",
    # every config echo: render and explore, a strand filter, a window, and
    # explicit seeds and cap
    "render --n 1 --b 0 --d 3 --width-px 320 --cache-dir {cache}",
    "explore --n 1 --b 0 --d 3 --no-cache",
    "explore --n 1 --b 1 --d-min 2 --d-max 4 --q-min 0 --cache-dir {cache}",
    "bounds --n 2 --b 0 --d 3 --q 1",
    "betti --n 2 --b 0 --d 3 --p-min 2 --p-max 5 --q-min 1 --q-max 2 --no-cache",
    "betti --n 1 --b 0 --d 4 --format csv --prime-seeds 3 4 --memory-cap-mb 64 "
    "--no-cache",
]


def normalise(text: str, cache: str) -> str:
    text = text.replace(cache, CACHE)
    return re.sub(r'("?wall_time_ms"?\s*[:=]\s*)\d+', r"\g<1>0", text)


def run_all() -> list:
    """[{"command", "exit", "stdout"}, ...] in order, on one fresh store."""
    from syzlab.cli import main

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "store")
        for command in COMMANDS:
            argv = shlex.split(command.replace(CACHE, cache))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            out.append({"command": command, "exit": code,
                        "stdout": normalise(buf.getvalue(), cache)})
    return out


def test_stdout_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [g["command"] for g in golden] == COMMANDS
    for got, want in zip(run_all(), golden):
        assert got == want, want["command"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(run_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
