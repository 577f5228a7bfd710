"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 infeasible computation (memory cap),
3 verification failure.  All structured output goes to stdout and is
byte-reproducible for a fixed invocation (sorted keys, no timestamps);
timing diagnostics go to stderr.  Results of cell computations are cached
in a JSONL store under --cache-dir, defaulting to $SYZ_CACHE_DIR or
./.syzcache.

The run config is the parsed argparse namespace itself, completed by
config_from_args.  Every output embeds it as its config echo: each field
that is not None, with mode, prime_seeds, memory_cap_mb, fmt and width_px
for every command, also one without those flags.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

from . import ENGINE_VERSION, SCHEMA
from .arith import binom_safe
from .betti import (
    DEFAULT_PRIME_SEEDS,
    MODES,
    EngineConfig,
    IncompleteTableError,
    ResultStore,
    StoreConflictError,
    CorruptRecordError,
    betti_table,
    cell_result,
    check_duality,
    dual_b,
    euler_check,
    kpq_dim,
    m2_text,
    make_config,
)
from .bounds import all_ranges, compare_report
from .cycles import build_kp0_cycle, verify_nonzero_class
from .koszul import DEFAULT_MEMORY_CAP, InfeasibleBlockError
from .linalg import InvariantError
from .render import check_width, render_normalized_diagram
from .schur import CertificationError, SchurSolveError, schur_multiplicities

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

DEFAULT_CACHE_DIR = ".syzcache"


class UsageFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that signals usage errors instead of exiting(2)."""

    def error(self, message):
        raise UsageFailure(message)


# Fields of every run config, also of a command without the flag, and the
# parser's defaults.  Every config echo prints those that are not None, so
# old outputs stay byte-stable; the window ends are None unless given.
ECHOED = {
    "mode": EngineConfig.mode,
    "prime_seeds": None,    # the mode's own, resolved by config_from_args
    "memory_cap_mb": DEFAULT_MEMORY_CAP >> 20,
    "fmt": "json",
    "width_px": 640,
    "p_min": None, "p_max": None, "q_min": None, "q_max": None,
}


def _add_engine_flags(sp):
    sp.add_argument("--mode", choices=MODES, default=ECHOED["mode"])
    sp.add_argument("--prime-seeds", type=int, nargs="+", default=ECHOED["prime_seeds"],
                    help="seeds for the certification primes (default: the mode's own)")
    sp.add_argument("--memory-cap-mb", type=int, default=ECHOED["memory_cap_mb"])
    sp.add_argument("--cache-dir", default=None)
    sp.add_argument("--no-cache", action="store_true")


def _add_nbd(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="syzlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kpq", help="dimension of a single K_{p,q} cell")
    _add_nbd(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    _add_engine_flags(sp)

    sp = sub.add_parser("betti", help="a window of the Betti table")
    _add_nbd(sp)
    sp.add_argument("--p-min", type=int, default=ECHOED["p_min"])
    sp.add_argument("--p-max", type=int, default=ECHOED["p_max"])
    sp.add_argument("--q-min", type=int, default=ECHOED["q_min"])
    sp.add_argument("--q-max", type=int, default=ECHOED["q_max"])
    sp.add_argument("--format", dest="fmt", choices=["json", "m2", "csv"],
                    default=ECHOED["fmt"])
    _add_engine_flags(sp)

    sp = sub.add_parser("verify", help="Euler, duality and bound checks on a full table")
    _add_nbd(sp)
    _add_engine_flags(sp)

    sp = sub.add_parser("bounds", help="closed-form predicted ranges")
    _add_nbd(sp)
    sp.add_argument("--q", type=int, default=None, help="restrict to one strand")

    sp = sub.add_parser("schur", help="decomposition into GL irreducibles")
    _add_nbd(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    _add_engine_flags(sp)

    sp = sub.add_parser("cycle", help="explicit K_{p,0} witness cycle")
    _add_nbd(sp)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("explore", help="minimal nonzero p per strand over a d sweep (CSV)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, default=None, help="single d (alternative to a sweep)")
    sp.add_argument("--d-min", type=int, default=None)
    sp.add_argument("--d-max", type=int, default=None)
    sp.add_argument("--q-min", type=int, default=1)
    sp.add_argument("--q-max", type=int, default=None)
    _add_engine_flags(sp)

    sp = sub.add_parser("render", help="normalized Betti diagram as SVG")
    _add_nbd(sp)
    sp.add_argument("--width-px", type=int, default=ECHOED["width_px"])
    sp.add_argument("--out", default=None, help="write SVG here instead of stdout")
    _add_engine_flags(sp)
    return parser


def config_from_args(args) -> argparse.Namespace:
    """The run config: the parsed arguments with every ECHOED field, the
    prime seeds and the store directory resolved, and no_cache dropped.
    --no-cache beats --cache-dir, which beats $SYZ_CACHE_DIR and ./.syzcache."""
    for name, value in ECHOED.items():
        vars(args).setdefault(name, value)
    if args.prime_seeds is None:
        args.prime_seeds = DEFAULT_PRIME_SEEDS[args.mode]
    if vars(args).pop("no_cache", True):
        args.cache_dir = None
    elif not args.cache_dir:
        args.cache_dir = os.environ.get("SYZ_CACHE_DIR", DEFAULT_CACHE_DIR)
    return args


def _echo(cfg) -> dict:
    """The config every output embeds: its fields that are not None."""
    return {k: v for k, v in vars(cfg).items() if v is not None}


def _header(cfg) -> dict:
    return {"schema": SCHEMA, "engine_version": ENGINE_VERSION, "config": _echo(cfg)}


def _text_head(cfg, mark: str) -> list:
    """The schema and config lines that open a text output, each after `mark`."""
    return [f"{mark} schema: {SCHEMA}  engine: {ENGINE_VERSION}",
            f"{mark} config: {json.dumps(_echo(cfg), sort_keys=True)}"]


def _engine(cfg) -> EngineConfig:
    return make_config(mode=cfg.mode, prime_seeds=cfg.prime_seeds,
                       memory_cap=cfg.memory_cap_mb * (1 << 20))


def _store(cfg):
    if cfg.cache_dir is None:
        return None
    try:
        return ResultStore(cfg.cache_dir)
    except OSError as exc:
        raise UsageFailure(f"cannot open store {cfg.cache_dir!r}: {exc.strerror}") from None


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell_json(res) -> dict:
    """Every field of the result but its timing, as the store compares it."""
    return ResultStore._payload(vars(res))


def cmd_kpq(cfg) -> tuple:
    res = cell_result(cfg.n, cfg.b, cfg.d, cfg.p, cfg.q, _engine(cfg), _store(cfg))
    payload = _header(cfg)
    payload["result"] = _cell_json(res)
    return EXIT_OK, _emit_json(payload)


def _table_for(cfg, b: int):
    return betti_table(cfg.n, b, cfg.d, (cfg.p_min, cfg.p_max), (cfg.q_min, cfg.q_max),
                       _engine(cfg), _store(cfg))


def _whole_table(cfg, b: int):
    """The table of a command that reads every cell: cells the memory cap
    refused stop it (exit 2), named, rather than be read as zeros."""
    table = _table_for(cfg, b)
    if table.failures:
        raise InfeasibleBlockError(
            f"the memory cap refused cells (p, q) = {sorted(table.failures)} "
            f"of the table (n, b, d) = ({table.n}, {table.b}, {table.d})")
    return table


def _table_json(table) -> dict:
    return {
        "n": table.n, "b": table.b, "d": table.d,
        "p_range": list(table.p_range), "q_range": list(table.q_range),
        "entries": [
            _cell_json(table.cells[pq]) for pq in sorted(table.cells)
        ],
        "infeasible": [
            {"p": p, "q": q, "error": msg}
            for (p, q), msg in sorted(table.failures.items())
        ],
    }


def cmd_betti(cfg) -> tuple:
    table = _table_for(cfg, cfg.b)
    if cfg.fmt == "m2":
        return EXIT_OK, "\n".join(_text_head(cfg, "--") + [m2_text(table)]) + "\n"
    if cfg.fmt == "csv":
        lines = _text_head(cfg, "#") + ["p,q,dim,level,agreement"]
        for pq in sorted(table.cells):
            c = table.cells[pq]
            lines.append(f"{c.p},{c.q},{c.dim},{c.level},{str(c.agreement).lower()}")
        return EXIT_OK, "\n".join(lines) + "\n"
    payload = _header(cfg)
    payload["table"] = _table_json(table)
    return EXIT_OK, _emit_json(payload)


def cmd_verify(cfg) -> tuple:
    table = _whole_table(cfg, cfg.b)
    report = {"euler": None, "duality": None, "bounds": None}
    euler = euler_check(table)
    report["euler"] = {"ok": euler.ok,
                       "nonzero_residuals": {str(j): r for j, r in
                                             euler.nonzero_residuals().items()}}
    ok = euler.ok
    if cfg.d >= cfg.b + cfg.n + 1:
        b2 = dual_b(cfg.n, cfg.b, cfg.d)
        companion = table if b2 == cfg.b else _whole_table(cfg, b2)
        dual = check_duality(table, companion)
        report["duality"] = {
            "ok": dual.ok, "b_dual": dual.b_dual,
            "mismatches": [list(m) for m in dual.mismatches],
        }
        ok = ok and dual.ok
    else:
        report["duality"] = {"skipped": f"needs d >= b + n + 1 = {cfg.b + cfg.n + 1}"}
    bounds = compare_report(table)
    report["bounds"] = bounds.to_dict()
    ok = ok and bounds.ok
    report["ok"] = ok
    payload = _header(cfg)
    payload["verify"] = report
    return (EXIT_OK if ok else EXIT_VERIFY), _emit_json(payload)


def cmd_bounds(cfg) -> tuple:
    ranges = all_ranges(cfg.n, cfg.b, cfg.d)
    if cfg.q is not None:
        ranges = [r for r in ranges if r.q == cfg.q]
    payload = _header(cfg)
    payload["ranges"] = [r.to_dict() for r in ranges]
    return EXIT_OK, _emit_json(payload)


def cmd_schur(cfg) -> tuple:
    table = schur_multiplicities(cfg.n, cfg.b, cfg.d, cfg.p, cfg.q, _engine(cfg))
    payload = _header(cfg)
    payload["schur"] = table.to_dict()
    return EXIT_OK, _emit_json(payload)


def cmd_cycle(cfg) -> tuple:
    chain = build_kp0_cycle(cfg.n, cfg.b, cfg.d, cfg.p)
    rep = verify_nonzero_class(chain)
    payload = _header(cfg)
    payload["cycle"] = {
        "chain": chain.to_dict(),
        "text": chain.text(),
        "nonzero": rep.nonzero,
        "is_cycle": rep.is_cycle,
        "certifies_nonvanishing": rep.certifies_nonvanishing,
    }
    code = EXIT_OK if rep.certifies_nonvanishing else EXIT_VERIFY
    return code, _emit_json(payload)


def cmd_explore(cfg) -> tuple:
    engine = _engine(cfg)
    store = _store(cfg)
    d_lo = cfg.d_min if cfg.d_min is not None else cfg.d
    d_hi = cfg.d_max if cfg.d_max is not None else cfg.d
    if d_lo is None or d_hi is None:
        raise UsageFailure("explore needs --d or both --d-min and --d-max")
    q_hi = cfg.q_max if cfg.q_max is not None else cfg.n
    lines = _text_head(cfg, "#") + ["q,d,min_nonzero_p,r_d"]
    for q in range(cfg.q_min, q_hi + 1):
        for d in range(d_lo, d_hi + 1):
            r_d = binom_safe(d + cfg.n, cfg.n) - 1
            found = ""
            for p in range(0, r_d + 1):
                if kpq_dim(cfg.n, cfg.b, d, p, q, engine, store) > 0:
                    found = str(p)
                    break
            lines.append(f"{q},{d},{found},{r_d}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _check_out(path: str) -> None:
    """Refuse an --out that cannot be written before any cell is computed:
    its directory is missing or not writable, or it is a directory."""
    directory = os.path.dirname(path) or os.curdir
    if not os.path.exists(directory):
        reason = errno.ENOENT
    elif not os.path.isdir(directory):
        reason = errno.ENOTDIR
    elif not os.access(directory, os.W_OK | os.X_OK):
        reason = errno.EACCES
    elif os.path.isdir(path):
        reason = errno.EISDIR
    else:
        return
    raise UsageFailure(f"cannot write --out {path!r}: {os.strerror(reason)}")


def cmd_render(cfg) -> tuple:
    # refuse what cannot be rendered or written before any cell is computed
    check_width(cfg.width_px)
    if cfg.out:
        _check_out(cfg.out)
    table = _whole_table(cfg, cfg.b)
    comment = (f"schema: {SCHEMA} engine: {ENGINE_VERSION} "
               f"config: {json.dumps(_echo(cfg), sort_keys=True)}")
    svg = render_normalized_diagram(table, cfg.width_px, comment)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise UsageFailure(f"cannot write --out {cfg.out!r}: {exc.strerror}") from None
        import hashlib      # render alone digests its output
        digest = hashlib.sha256(svg.encode()).hexdigest()
        payload = _header(cfg)
        payload["render"] = {"out": cfg.out, "bytes": len(svg.encode()),
                             "sha256": digest}
        return EXIT_OK, _emit_json(payload)
    return EXIT_OK, svg


_COMMANDS = {
    "kpq": cmd_kpq,
    "betti": cmd_betti,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
    "schur": cmd_schur,
    "cycle": cmd_cycle,
    "explore": cmd_explore,
    "render": cmd_render,
}


def main(argv=None) -> int:
    t0 = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
        code, out = _COMMANDS[cfg.command](cfg)
    except UsageFailure as exc:
        print(f"syzlab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleBlockError as exc:
        print(f"syzlab: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SchurSolveError, IncompleteTableError, StoreConflictError,
            CorruptRecordError, InvariantError) as exc:
        print(f"syzlab: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, CertificationError) as exc:
        print(f"syzlab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(out)
    elapsed = int((time.monotonic() - t0) * 1000)
    print(f"[syzlab] {cfg.command} wall_time_ms={elapsed}", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
