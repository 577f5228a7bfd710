"""Spans and counts around the public functions of each syzlab module.

The hooks live here, not in syzlab: `install` replaces each target with a
wrapper in every syzlab module that binds it by name (betti imports
`certified_rank` and `rank_mod_p` by name, while `certified_rank` looks up
`linalg.rank_mod_p`), or on its class for a method.  A wrapper records a
span (name, start, end, parent, request id) and may read counts off the
call's arguments and result; it never alters them.  A target that no longer
exists marks its layer absent instead of failing.

A span's self time is its duration minus the time its child spans cover.
Calls are nested and single-threaded, so the children of a span never
overlap and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name).  The layer is the span name's prefix.
HOOKS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "_Parser.parse_args", "cli.parse_args"),
    ("betti", "ResultStore.__init__", "betti.store_open"),
    ("betti", "ResultStore.get", "betti.store_get"),
    ("betti", "ResultStore.put", "betti.store_put"),
    ("betti", "cell_result", "betti.cell_result"),
    ("betti", "_compute_cell", "betti.compute_cell"),
    ("betti", "betti_table", "betti.table"),
    ("betti", "euler_check", "betti.euler_check"),
    ("betti", "check_duality", "betti.check_duality"),
    ("koszul", "KoszulCell._ensure_groups", "koszul.group"),
    ("koszul", "KoszulCell.weights", "koszul.weights"),
    ("koszul", "KoszulCell.block", "koszul.block"),
    ("linalg", "rank_mod_p", "linalg.rank_mod_p"),
    ("linalg", "rank_exact", "linalg.rank_exact"),
    ("linalg", "certified_rank", "linalg.certified_rank"),
    ("bounds", "compare_report", "bounds.compare_report"),
    ("bounds", "all_ranges", "bounds.all_ranges"),
    ("schur", "weight_space_dims", "schur.weight_space_dims"),
    ("schur", "schur_multiplicities", "schur.multiplicities"),
    ("cycles", "build_kp0_cycle", "cycles.build"),
    ("cycles", "verify_nonzero_class", "cycles.verify"),
)

# Counters combined by max rather than by sum.
MAX_COUNTERS = ("koszul.max_block_dim",)


class Tracer:
    """Spans kept in memory while `active`; written as JSONL by `dump`."""

    def __init__(self):
        self.active = True
        self.spans = []          # [name, start, end, parent index, request id]
        self.covered = []        # time covered by each span's children
        self.stack = []
        self.request = 0
        self.counters = {}
        self.largest_block = None   # (nnz, cell, weight, block)
        self.absent = []

    def enter(self, name) -> int:
        if name == "cli.main":
            self.request += 1
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.covered.append(0.0)
        self.stack.append(idx)
        return idx

    def exit(self, idx) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        if span[3] is not None:
            self.covered[span[3]] += end - span[1]

    def count(self, name, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span_stats(self) -> dict:
        """{span name: [calls, inclusive seconds, self seconds]}."""
        out = {}
        for (name, start, end, _parent, _rid), covered in zip(self.spans, self.covered):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, rid), covered in zip(self.spans, self.covered):
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "request": rid, "self": end - start - covered,
                }) + "\n")


def _observe_block(tracer, args, out):
    nnz = out.d_in.nnz + out.d_out.nnz
    tracer.count("koszul.blocks")
    tracer.count("koszul.nnz", nnz)
    tracer.counters["koszul.max_block_dim"] = max(
        tracer.counters.get("koszul.max_block_dim", 0), out.mid_dim)
    big = max(out.d_in.nnz, out.d_out.nnz)
    if tracer.largest_block is None or big > tracer.largest_block[0]:
        tracer.largest_block = (big, args[0], args[1], out)


def _observe_rank(tracer, args, out):
    m = args[0]
    tracer.count("linalg.rank_mod_p_nnz", m.nnz)
    tracer.count("linalg.rank_sum", out)
    tracer.count("linalg.rank_bound", min(m.rows, m.cols))


def _observe_certified(tracer, args, out):
    if not (out.exact or out.agreement):
        tracer.count("linalg.disagreements")


def _observe_get(tracer, args, out):
    if out is not None:
        tracer.count("betti.store_hits")


OBSERVERS = {
    "koszul.weights": lambda t, a, out: t.count("koszul.weights", len(out)),
    "koszul.block": _observe_block,
    "linalg.rank_mod_p": _observe_rank,
    "linalg.certified_rank": _observe_certified,
    "betti.store_get": _observe_get,
}


def _wrap(tracer, name, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if observe is not None:
            observe(tracer, args, out)
        return out

    return wrapper


def install(package) -> Tracer:
    """Wrap every hook target of the imported syzlab `package`."""
    tracer = Tracer()
    modules = [m for key, m in sys.modules.items()
               if m is not None and key.startswith(package.__name__ + ".")]
    for mod_name, attr, span in HOOKS:
        mod = sys.modules.get(f"{package.__name__}.{mod_name}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        target = getattr(owner, leaf, None) if owner is not None else None
        if target is None:
            tracer.absent.append(f"{mod_name}.{attr}")
            continue
        wrapper = _wrap(tracer, span, target)
        if owner_name:
            setattr(owner, leaf, wrapper)
            continue
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is target:
                    setattr(m, key, wrapper)
    return tracer


def merge(parts) -> tuple:
    """Sum the (span stats, counters) of several traced children."""
    stats, counters = {}, {}
    for part_stats, part_counters in parts:
        for name, row in part_stats.items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, val in part_counters.items():
            if name in MAX_COUNTERS:
                counters[name] = max(counters.get(name, 0), val)
            else:
                counters[name] = counters.get(name, 0) + val
    return stats, counters


def layer_metrics(stats: dict, counters: dict, absent_spans: set) -> dict:
    """{metric: {"value", "unit"}} from merged span stats and counters.

    Each row of the table is (name, unit, spans it needs, how it is
    computed); a metric whose spans are all absent is left out.
    """
    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def incl(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters.get
    table = (
        ("cli.parse_s", "s", ("cli.build_parser", "cli.parse_args"),
         lambda: incl("cli.build_parser", "cli.parse_args")),
        ("cli.self_s", "s", ("cli.main",), lambda: self_("cli.main")),
        ("cli.requests", "count", ("cli.main",), lambda: calls("cli.main")),
        ("betti.cell_self_s", "s",
         ("betti.cell_result", "betti.compute_cell", "betti.table"),
         lambda: self_("betti.cell_result", "betti.compute_cell", "betti.table")),
        ("betti.cells", "count", ("betti.compute_cell",),
         lambda: calls("betti.compute_cell")),
        ("betti.store_open_s", "s", ("betti.store_open",), lambda: incl("betti.store_open")),
        ("betti.store_get_s", "s", ("betti.store_get",), lambda: incl("betti.store_get")),
        ("betti.store_put_s", "s", ("betti.store_put",), lambda: incl("betti.store_put")),
        ("betti.store_gets", "count", ("betti.store_get",), lambda: calls("betti.store_get")),
        ("betti.store_hit_ratio", "frac", ("betti.store_get",),
         lambda: ratio(c("betti.store_hits", 0), calls("betti.store_get"))),
        ("betti.check_s", "s", ("betti.euler_check", "betti.check_duality"),
         lambda: incl("betti.euler_check", "betti.check_duality")),
        ("koszul.group_s", "s", ("koszul.group",), lambda: incl("koszul.group")),
        ("koszul.weights", "count", ("koszul.weights",), lambda: c("koszul.weights", 0)),
        ("koszul.build_s", "s", ("koszul.block",), lambda: self_("koszul.block")),
        ("koszul.blocks", "count", ("koszul.block",), lambda: c("koszul.blocks", 0)),
        ("koszul.nnz", "count", ("koszul.block",), lambda: c("koszul.nnz", 0)),
        ("koszul.max_block_dim", "count", ("koszul.block",),
         lambda: c("koszul.max_block_dim", 0)),
        ("linalg.rank_mod_p_s", "s", ("linalg.rank_mod_p",), lambda: incl("linalg.rank_mod_p")),
        ("linalg.rank_mod_p_calls", "count", ("linalg.rank_mod_p",),
         lambda: calls("linalg.rank_mod_p")),
        ("linalg.rank_mod_p_nnz", "count", ("linalg.rank_mod_p",),
         lambda: c("linalg.rank_mod_p_nnz", 0)),
        ("linalg.pivot_yield", "frac", ("linalg.rank_mod_p",),
         lambda: ratio(c("linalg.rank_sum", 0), c("linalg.rank_bound", 0))),
        ("linalg.certify_s", "s", ("linalg.certified_rank",),
         lambda: self_("linalg.certified_rank")),
        ("linalg.rank_exact_s", "s", ("linalg.rank_exact",), lambda: incl("linalg.rank_exact")),
        ("linalg.rank_exact_calls", "count", ("linalg.rank_exact",),
         lambda: calls("linalg.rank_exact")),
        ("linalg.disagreements", "count", ("linalg.certified_rank",),
         lambda: c("linalg.disagreements", 0)),
        ("bounds.compare_s", "s", ("bounds.compare_report",),
         lambda: incl("bounds.compare_report")),
        ("bounds.ranges_s", "s", ("bounds.all_ranges",), lambda: incl("bounds.all_ranges")),
        ("schur.weight_space_s", "s", ("schur.weight_space_dims",),
         lambda: incl("schur.weight_space_dims")),
        ("schur.solve_s", "s", ("schur.multiplicities",), lambda: self_("schur.multiplicities")),
        ("cycles.s", "s", ("cycles.build", "cycles.verify"),
         lambda: incl("cycles.build", "cycles.verify")),
    )
    out = {}
    for name, unit, needs, compute in table:
        if all(n in absent_spans for n in needs):
            continue
        out[name] = {"value": compute(), "unit": unit}
    return out


def absent_span_names(absent_targets) -> set:
    """Span names whose hook target was missing."""
    missing = set(absent_targets)
    return {span for mod, attr, span in HOOKS if f"{mod}.{attr}" in missing}
