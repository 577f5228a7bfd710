"""Check a golden file against an earlier one after settings are retired.

Retiring an engine setting may change the goldens in three ways only: its
key leaves every config echo, the commands that set it leave the list, and
a command it used to accept may now be refused (exit 1, empty stdout).
This script applies exactly those edits to the earlier golden file and
reports every entry of the new one that differs from the result:

    git show REV:tests/golden_stdout.json > old.json
    python tests/golden_retire.py old.json tests/golden_stdout.json \\
        --drop-key exact_threshold prime_bits \\
        --drop-command "mode one-prime" exact-threshold \\
        --refuse "prime-seeds 5 5"

A command is dropped or refused when it contains one of the given strings
(given without their leading dashes, which would read as options here).
Exit 0 when the files match after the edits, 1 otherwise.
"""

import argparse
import json
import sys

CONFIG_LINES = ("-- config: ", "# config: ")


def drop_keys(stdout: str, keys) -> str:
    """stdout with `keys` removed from its config echo, as the CLI prints it:
    a JSON payload (indent 2, sorted keys) or an m2/csv comment line."""
    if stdout.startswith("{"):
        payload = json.loads(stdout)
        for key in keys:
            payload["config"].pop(key, None)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = stdout.split("\n")
    for i, line in enumerate(lines):
        for prefix in CONFIG_LINES:
            if line.startswith(prefix):
                config = json.loads(line[len(prefix):])
                for key in keys:
                    config.pop(key, None)
                lines[i] = prefix + json.dumps(config, sort_keys=True)
    return "\n".join(lines)


def expected(old: list, keys, dropped, refused) -> list:
    out = []
    for entry in old:
        command = entry["command"]
        if any(s in command for s in dropped):
            continue
        if any(s in command for s in refused):
            out.append({"command": command, "exit": 1, "stdout": ""})
        else:
            out.append(dict(entry, stdout=drop_keys(entry["stdout"], keys)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--drop-key", nargs="+", default=[])
    parser.add_argument("--drop-command", nargs="+", default=[])
    parser.add_argument("--refuse", nargs="+", default=[])
    args = parser.parse_args(argv)
    with open(args.old, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    # the re-serialisation must reproduce an entry whose keys it leaves alone
    for entry in old:
        assert drop_keys(entry["stdout"], []) == entry["stdout"], entry["command"]
    want = expected(old, args.drop_key, args.drop_command, args.refuse)
    bad = [w["command"] for w, n in zip(want, new) if w != n]
    if len(want) != len(new):
        bad.append(f"{len(new)} entries, expected {len(want)}")
    for line in bad:
        print("differs:", line)
    print(f"{len(old)} old entries, {len(new)} new, {len(old) - len(want)} dropped, "
          f"{'match' if not bad else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
