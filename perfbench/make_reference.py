"""Write perfbench/reference.json: every answer of every workload, checked.

    python3 perfbench/make_reference.py

Run once, at a commit whose answers are trusted.  Answers are computed
through syzlab's CLI with its default primes, then cross-checked by means
that do not share the cell computation:

* every table a request reads from passes `verify` (Euler identity, twisted
  duality, proved strand bounds), and each request's dims equal that table's;
  for b >= d, where `verify`'s Euler series omits the strand q = -1 and
  fails, the table is the verified one of b - d shifted by one strand,
  K_{p,q}(n, b; d) = K_{p,q+1}(n, b - d; d);
* the q = 1 strand of each rational normal curve (n, b) = (1, 0) equals
  p * binom(d, p + 1);
* the two quartic cells equal the Hilbert-series coefficients of their
  antidiagonals, every other cell of which vanishes by a proved range:
  K_{6,1} = c_7 and K_{11,2} = -c_13 for (n, b, d) = (2, 0, 4).

The store used here is .perfbench_work/reference-store, emptied first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from syzlab import cli  # noqa: E402

STORE = os.path.join(".perfbench_work", "reference-store")


def run(argv: list) -> tuple:
    if argv[0] in workloads.ENGINE_COMMANDS:
        argv = argv + ["--cache-dir", STORE]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def hilbert_numerator(n, b, d, j) -> int:
    """Coefficient of t^j in H(t) (1 - t)^v, H(t) = sum_m binom(md + b + n, n) t^m."""
    v = math.comb(d + n, n)
    return sum((-1) ** (j - m) * math.comb(m * d + b + n, n) * math.comb(v, j - m)
               for m in range(j + 1))


def nbd(argv: list) -> tuple:
    return int(argv[2]), int(argv[4]), int(argv[6])


def verified_table(n, b, d, tables: dict) -> dict:
    """{"p=P q=Q": dim} of the whole table, after `verify` reports ok."""
    if b >= d:
        base = verified_table(n, b - d, d, tables)
        return {f"{k.split()[0]} q={int(k.split('=')[2]) - 1}": v for k, v in base.items()}
    if (n, b, d) not in tables:
        code, out = run(workloads.command("verify", n, b, d))
        if code != 0 or not json.loads(out)["verify"]["ok"]:
            raise SystemExit(f"verify failed on {(n, b, d)}")
        code, out = run(workloads.command("betti", n, b, d, format="csv"))
        dims = workloads.parse_csv(out)
        if code != 0 or any(not isinstance(x, int) for x in dims.values()):
            raise SystemExit(f"uncertified table {(n, b, d)}")
        if (n, b) == (1, 0):
            for p in range(d + 1):
                if dims.get(f"p={p} q=1", 0) != p * math.comb(d, p + 1):
                    raise SystemExit(f"curve strand K_{p},1 of d={d} is wrong")
        tables[(n, b, d)] = dims
    return tables[(n, b, d)]


def cross_check(argv: list, got: dict, tables: dict) -> None:
    name = argv[0]
    n, b, d = nbd(argv)
    if name == "bounds" or (n, b, d) == (2, 0, 4):
        return  # bounds are closed forms; the quartic cells are checked in main()
    table = verified_table(n, b, d, tables)
    cell = {a: argv[argv.index(a) + 1] for a in ("--p", "--q") if a in argv}
    key = f"p={cell.get('--p')} q={cell.get('--q')}"
    if name == "kpq":
        ok = got["dim"] == table.get(key, 0)
    elif name == "schur":
        ok = got["total_dim"] == table.get(key, 0)
    elif name == "cycle":
        ok = got["certifies"] and table.get(f"p={cell['--p']} q=0", 0) > 0
    elif name in ("betti", "verify"):
        ok = all(table.get(k, 0) == v for k, v in got.items() if k != "ok")
    else:
        raise SystemExit(f"no cross-check for {name}")
    if not ok:
        raise SystemExit(f"{' '.join(argv)} disagrees with its verified table: {got}")


def main() -> None:
    os.chdir(ROOT)
    shutil.rmtree(STORE, ignore_errors=True)
    commands = {}
    for workload in workloads.WORKLOADS:
        for _, item in workloads.items(workload, seed=0):
            for argv in item:
                commands[workloads.command_key(argv)] = argv
    tables = {}
    reference = {}
    for key, argv in sorted(commands.items()):
        code, out = run(argv)
        check = workloads.check_command(argv)
        check_out = run(check)[1] if check else None
        got = workloads.answers(argv, out, check_out)
        if code != 0:
            raise SystemExit(f"{key} exited {code}")
        cross_check(argv, got, tables)
        reference[key] = {"exit": code, "answers": got}

    for (p, q), j, sign in (((6, 1), 7, 1), ((11, 2), 13, -1)):
        key = workloads.command_key(workloads.command("kpq", 2, 0, 4, p=p, q=q))
        want = sign * hilbert_numerator(2, 0, 4, j)
        if reference[key]["answers"]["dim"] != want:
            raise SystemExit(f"{key}: {reference[key]['answers']['dim']} != {want}")

    doc = {"about": "answers of every perfbench command; see make_reference.py",
           "commands": reference}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} commands, {sum(len(r['answers']) for r in reference.values())} "
          f"answers, {len(tables)} verified tables")


if __name__ == "__main__":
    main()
