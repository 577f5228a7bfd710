"""Seeded inputs of the three workloads, and the answers read back from
syzlab's stdout.

A workload is a list of items.  An item is a list of syzlab command lines
that one child process runs against one fresh, empty store; an item's time
is the time of those commands.  The seed picks the certification primes of
every workload and the order of the small-requests session; it never picks
which computations are made, so every seed does the same work.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("quartic-cells", "surface-tables", "small-requests")

# Commands that take the engine flags (--prime-seeds, --cache-dir).
ENGINE_COMMANDS = ("kpq", "betti", "verify", "schur", "explore", "render")

# Two cells of the north-star table (2, 0, 4): K_{6,1} has 258 weight
# blocks, the largest of dim 1,627; K_{11,2} has 315, the largest 1,051.
QUARTIC_CELLS = ((6, 1), (11, 2))

# Full tables behind `verify`, duality companions included.
SURFACE_TABLES = ((2, 0, 3), (2, 1, 3), (1, 0, 8))

# A small request has a middle plus source space of at most this many
# basis elements: the median request then costs a few milliseconds.
SMALL_SPACE = 200
REPEAT_SHARE = 0.3


def prime_seeds(seed: int) -> list:
    """Two distinct seeds for syzlab's --prime-seeds, drawn from `seed`."""
    rng = random.Random(f"primes-{seed}")
    first = rng.randrange(1 << 30)
    second = rng.randrange(1 << 30)
    while second == first:
        second = rng.randrange(1 << 30)
    return [first, second]


def command(name, n, b, d, **kw) -> list:
    """A syzlab command line without engine flags."""
    argv = [name, "--n", str(n), "--b", str(b), "--d", str(d)]
    for key, val in kw.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    return argv


def _piece(n, e) -> int:
    return math.comb(e + n, n) if e >= 0 else 0


def space_size(n, b, d, p, q) -> int:
    """Dimension of the middle plus source space of cell (p, q)."""
    v = math.comb(d + n, n)
    mid = math.comb(v, p) * _piece(n, q * d + b)
    src = math.comb(v, p + 1) * _piece(n, (q - 1) * d + b)
    return mid + src


def _small(n, b, d, p, q) -> bool:
    return 0 < space_size(n, b, d, p, q) <= SMALL_SPACE


def small_request_catalog() -> list:
    """Every distinct request of the small-requests workload, fixed order."""
    out = []
    for b in (0, 1, 2):
        for d in range(2, 10):
            for q in (0, 1, 2):
                for p in range(d + 1):
                    if _small(1, b, d, p, q):
                        out.append(command("kpq", 1, b, d, p=p, q=q))
    for n, b, d in ((2, 0, 3), (2, 1, 3), (2, 0, 2), (3, 0, 2)):
        for q in range(n + 2):
            for p in range(4):
                if _small(n, b, d, p, q):
                    out.append(command("kpq", n, b, d, p=p, q=q))
    for d in range(2, 10):
        for p in range(d):
            if _small(1, 0, d, p, 1):
                out.append(command("schur", 1, 0, d, p=p, q=1))
    for b in (1, 2, 3):
        for d in range(b + 1, 10):
            for p in range(b + 1):
                out.append(command("cycle", 1, b, d, p=p))
    for b in (0, 1, 2):
        for d in range(2, 10):
            out.append(command("bounds", 1, b, d))
    for b in (0, 1):
        for d in range(2, 10):
            for lo in range(0, d, 2):
                hi = min(lo + 1, d)
                if all(space_size(1, b, d, p, q) <= SMALL_SPACE
                       for p in range(lo, hi + 1) for q in (0, 1)):
                    out.append(command("betti", 1, b, d, p_min=lo, p_max=hi,
                                    q_min=0, q_max=1, format="m2"))
    return out


def small_request_sequence(seed: int) -> list:
    """The catalog in seeded order, with REPEAT_SHARE of the requests being
    repeats of an earlier kpq or betti request, so the store serves reads."""
    rng = random.Random(f"requests-{seed}")
    fresh = small_request_catalog()
    rng.shuffle(fresh)
    repeats = round(len(fresh) * REPEAT_SHARE / (1 - REPEAT_SHARE))
    total = len(fresh) + repeats
    # No repeat among the first 20 requests, so earlier stored ones exist.
    repeat_at = set(rng.sample(range(20, total), repeats))
    seen = []
    out = []
    it = iter(fresh)
    for i in range(total):
        if i in repeat_at:
            out.append(list(rng.choice(seen)))
            continue
        argv = next(it)
        out.append(argv)
        if argv[0] in ("kpq", "betti"):
            seen.append(argv)
    return out


def items(workload: str, seed: int) -> list:
    """(item name, command lines without engine flags) for one pass."""
    if workload == "quartic-cells":
        return [(f"K{p},{q}", [command("kpq", 2, 0, 4, p=p, q=q)])
                for p, q in QUARTIC_CELLS]
    if workload == "surface-tables":
        return [(f"verify{n},{b},{d}", [command("verify", n, b, d)])
                for n, b, d in SURFACE_TABLES]
    if workload == "small-requests":
        return [("session", small_request_sequence(seed))]
    raise ValueError(f"unknown workload {workload!r}")


def with_engine_flags(argv: list, seeds: list, store: str) -> list:
    if argv[0] not in ENGINE_COMMANDS:
        return list(argv)
    return list(argv) + ["--prime-seeds", *map(str, seeds), "--cache-dir", store]


def check_command(argv: list):
    """The follow-up command whose stdout carries the dims of `argv`, or
    None.  `verify` prints only its verdicts, so its table is read back from
    the same store with `betti --format csv`."""
    if argv[0] == "verify":
        return ["betti"] + argv[1:7] + ["--format", "csv"]
    return None


def command_key(argv: list) -> str:
    return " ".join(argv)


def parse_m2(text: str) -> dict:
    """{"p=P q=Q": dim} from `betti --format m2` output."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("--")]
    header = lines[0].split()
    cols = [int(p) for p in header[1:]]
    out = {}
    for line in lines[1:]:
        fields = line.split()
        q = int(fields[0])
        for p, cell in zip(cols, fields[1:]):
            out[f"p={p} q={q}"] = 0 if cell == "." else (int(cell) if cell.isdigit() else cell)
    return out


def parse_csv(text: str) -> dict:
    """{"p=P q=Q": dim} from `betti --format csv`; a cell whose primes
    disagree reads as a string, so it never equals a reference dim."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("p,"):
            continue
        p, q, dim, _level, agreement = line.split(",")
        out[f"p={p} q={q}"] = int(dim) if agreement == "true" else "agreement false"
    return out


def answers(argv: list, stdout: str, check_stdout: str = None) -> dict:
    """The answers one command gave, keyed as in the reference.

    Only dims and verdicts are read: never the `level` or `schema` strings,
    which may change without any answer changing.
    """
    name = argv[0]
    if name == "betti":
        return parse_m2(stdout)
    doc = json.loads(stdout)
    if name == "kpq":
        res = doc["result"]
        return {"dim": res["dim"] if res["agreement"] else "agreement false"}
    if name == "verify":
        out = parse_csv(check_stdout)
        out["ok"] = doc["verify"]["ok"]
        return out
    if name == "schur":
        s = doc["schur"]
        comps = [[c["partition"], c["multiplicity"]] for c in s["components"]]
        return {"total_dim": s["total_dim"], "components": comps}
    if name == "cycle":
        c = doc["cycle"]
        return {"certifies": c["certifies_nonvanishing"], "terms": len(c["chain"]["terms"])}
    if name == "bounds":
        return {"ranges": doc["ranges"]}
    raise ValueError(f"no answer reader for {name!r}")
