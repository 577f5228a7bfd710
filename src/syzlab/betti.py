"""Computing dim K_{p,q} cells and tables, with consistency checks and caching.

A cell is computed blockwise: each torus-weight block contributes
mid_dim - rank(d_in) - rank(d_out), ranks taken per the engine mode: exact
rational, or two-prime certified.  Since modular ranks can only undercount,
dimensions can only overcount; agreement of two independent 31-bit primes
is the standard certification level.  Both modes rank through
linalg.certified_rank, and one pass over the weight blocks, _pass, serves
single cells, tables and schur's weight-space dimensions.

Only the dominant weights are built and ranked, in descending lex order.
The blocks at the permutations of a weight are isomorphic to it over the
integers (see koszul), so each dominant block counts distinct-permutations
times: in dim, in block_count, and once in max_block_dim.  Its ranks, and
with them the level and the agreement flag, are those of every block of its
orbit.

Each block is ranked on its quotient by the union of the stars of its
apexes, vertices with pairwise disjoint supports (see koszul), which has the
same cohomology over every field: each rank of the block is the star
union's rank, the same in all fields, plus the quotient's.  What the result
says about a block is still taken from the unreduced block.  Its middle
dimension counts in block_count and max_block_dim, and in two-prime mode
its shapes pick the route of each map: zero, exact (rows*cols <=
EXACT_THRESHOLD, with the modular ranks checked against the exact one) or
modular, and so the level.  The route is picked here alone (_routes);
exact mode sizes no map.  Routed by its own, smaller shape, the quotient of
a map would often go to the exact route, or be zero (an empty quotient of
a map above the threshold still goes modular), and the cell would report
level exact where it reported two-prime.  Only the ranks are the quotient's;
they differ from the block's by the star union's ranks, the same in every
field, so the dimension is the same and the primes agree or disagree on a
block as before.  The unreduced d_out's columns are its middle elements,
and its rows their distinct faces, whose number the counts bound: so the
counts fix most routes, and the faces are enumerated only where they do not
(see _routes).

A weight whose quotient has no middle element is settled by the cell:
ranked() builds nothing there, and gives the unreduced counts alone.  It
contributes 0 with agreement, and costs the pass one step: its orbit is
added to the cell's block_count, its unreduced middle dimension to
max_block_dim, and its routes to the level.  No map of it is built or
ranked, and no block is made.  Its maps are still routed by their
unreduced counts, and where a route is not zero the primes are checked, as
certified_rank checks them on a map without entries.  Those routes can
only change the level, and once one map of the cell has taken the modular
route the level is two-prime whatever follows: so the pass routes a settled
weight only while every map before it in the cell took an exact route.
weight_blocks gives it as a koszul.KoszulBlock whose maps are None, and
schur reads 0 there.

Cells are computed one antidiagonal j = p + q at a time, weight by weight
(_pass).  At a dominant weight w the cells of an antidiagonal are
consecutive homology degrees of one complex, the squarefree divisor
complex of w (see koszul): the source of (p - 1, q + 1) is the middle of
(p, q), and its d_in is the d_out of (p, q), on the same quotient.  So
the KoszulCells of one pass share their groupings, and the pass walks the
union of their dominant weights in descending lex order.  At each weight
it ranks the cells with a middle there in ascending p, and the d_in a cell
builds, with its kept elements, is the next cell's d_out and kept middle at
that weight (KoszulCell.ranked); then it is dropped, so no map outlives its
weight.  The pass keeps the certificates _block_ranks made for the d_in it
ranked last at the weight, one per route, and gives them to the next block
there whose d_out is that same matrix.  Each role of a map is still routed
by its own unreduced shape: where the two routes differ, the second
certificate is computed as before, so every level and agreement flag is
what the cell alone gives.  A cell the store holds, a vanishing theorem
answers, or the memory cap refuses when it is made is not in the pass; one
the cap refuses at a weight leaves it there, and the next cell builds its
own d_out from then on.  The pass sums each cell's weights as it goes,
into the cell's tally (dim, block_count, max_block_dim, exact, agreement),
from which _compute_cell makes the result: no record of a weight outlives
its step.  One function, _antidiagonal, fetches, computes and stores every
cell: the cells of an antidiagonal for betti_table, or a single cell for
cell_result, and so for kpq and explore.  It builds each
cell's store key once, and stores the antidiagonal's new records together,
in cell order, after its last result: one ResultStore.put, one append under
one lock.  weight_blocks is the pass over one cell alone; schur reads it and
stores nothing.  A cell's wall_time_ms is the wall time of its
antidiagonal's call, from its start (store reads, grouping and the whole
pass included) to the cell's result: its own time when it is computed
alone, about that of the whole pass for each cell of a table's
antidiagonal, analytic zeros included.  No store write is in it.  It is in
no stdout, and the store does not compare it.

Two global consistency checks are provided.  The Euler check compares the
alternating column sums of a complete table against the coefficients of
H_R(t) * (1-t)^v, where H_R(t) = sum_m binom(md+b+n, n) t^m is the Hilbert
series of the section module.  Its sums telescope to the chain dimensions
and the ranks of the maps at the window's edge, so it does not see every
rank error: an interior map's one certificate serves both cells it
borders, and a wrong rank there moves the two by the same amount and leaves
every residual unchanged (the duality check and the strand bounds can see
it).  The duality check compares dim K_{p,q}(n, b; d) with
dim K_{p',q'}(n, b'; d) for p' = r_d - p - n, q' = n - q, b' = d - n - 1 - b,
valid once d >= b + n + 1.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import time
import zlib
from itertools import combinations

from . import ENGINE_VERSION
from .arith import binom_safe, random_prime
from .koszul import (
    DEFAULT_MEMORY_CAP,
    InfeasibleBlockError,
    KoszulBlock,
    KoszulCell,
    Parameters,
    check_nbd,
)
from .linalg import InvariantError, RankCertificate, certified_rank, check_primes
from .monomials import distinct_permutations_count
from .records import FrozenRecord, Record, set_field

LEVEL_EXACT = "exact"
LEVEL_TWO_PRIME = "two-prime"

MODES = (LEVEL_EXACT, LEVEL_TWO_PRIME)
DEFAULT_PRIME_SEEDS = {LEVEL_EXACT: (), LEVEL_TWO_PRIME: (0, 1)}
DEFAULT_PRIME_BITS = 31

# In two-prime mode a map whose unreduced block has rows*cols at most this
# takes the exact route.  No request needs another value, so it is a
# constant; the store key still holds it (see ResultStore.key_of).
EXACT_THRESHOLD = 256


class EngineConfig(FrozenRecord):
    """How ranks are taken: mode, primes, memory cap."""

    _fields = ("mode", "primes", "memory_cap")
    mode = LEVEL_TWO_PRIME
    primes = ()
    memory_cap = DEFAULT_MEMORY_CAP

    def __init__(self, mode: str = mode, primes: tuple = primes,
                 memory_cap: int = memory_cap):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        # one prime given twice is one field, and certifies nothing
        if mode == LEVEL_TWO_PRIME and len(set(primes)) < 2:
            raise ValueError("two-prime mode needs at least two distinct primes")
        if memory_cap < 0:
            raise ValueError(f"negative memory cap {memory_cap}")
        set_field(self, "mode", mode)
        set_field(self, "primes", primes)
        set_field(self, "memory_cap", memory_cap)


def make_config(
    mode: str = EngineConfig.mode,
    prime_seeds=None,
    memory_cap: int = EngineConfig.memory_cap,
) -> EngineConfig:
    """Config with reproducible primes drawn from the given seeds."""
    if prime_seeds is None:
        prime_seeds = DEFAULT_PRIME_SEEDS.get(mode, ())   # EngineConfig refuses a bad mode
    primes = tuple(random_prime(DEFAULT_PRIME_BITS, s) for s in prime_seeds)
    return EngineConfig(mode=mode, primes=primes, memory_cap=memory_cap)


class CellResult(FrozenRecord):
    """One computed cell with its certification metadata."""

    _fields = ("n", "b", "d", "p", "q", "dim", "level", "agreement", "primes",
               "block_count", "max_block_dim", "wall_time_ms", "analytic")
    analytic = False

    def __init__(self, n: int, b: int, d: int, p: int, q: int, dim: int, level: str,
                 agreement: bool, primes: tuple, block_count: int, max_block_dim: int,
                 wall_time_ms: int, analytic: bool = analytic):
        set_field(self, "n", n)
        set_field(self, "b", b)
        set_field(self, "d", d)
        set_field(self, "p", p)
        set_field(self, "q", q)
        set_field(self, "dim", dim)
        set_field(self, "level", level)
        set_field(self, "agreement", agreement)
        set_field(self, "primes", primes)
        set_field(self, "block_count", block_count)
        set_field(self, "max_block_dim", max_block_dim)
        set_field(self, "wall_time_ms", wall_time_ms)
        set_field(self, "analytic", analytic)

    def to_record(self) -> dict:
        """Every field, tuples as the lists JSON reads back, and the engine
        settings the result was computed under."""
        rec = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}
        rec.update(exact_threshold=EXACT_THRESHOLD, engine_version=ENGINE_VERSION)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "CellResult":
        """The result a record holds; a field it lacks, as older stores lack
        `analytic`, takes its default."""
        held = {k: rec[k] for k in cls._fields if k in rec}
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in held.items()})


def _analytic_zero_reason(n: int, b: int, d: int, p: int, q: int):
    """A vanishing theorem that settles the cell without any linear algebra.

    q > n+1 vanishes for every b >= 0; q < 0 vanishes provided b < d (no
    sections of O(b - jd) for j > 0).  For b >= d negative strands can be
    honestly nonzero, so no short-circuit applies there.
    """
    if p < 0:
        return "empty wedge power"
    if q > n + 1:
        return "strand above top"
    if q < 0 and b < d:
        return "negative strand with b < d"
    return None


def _route(size: int) -> str:
    """The two-prime route of a map whose unreduced block has this size."""
    return "zero" if not size else "exact" if size <= EXACT_THRESHOLD else "modular"


def _routes(mid: int, src: int, middle) -> tuple:
    """The two-prime routes of the unreduced d_in and d_out of a block with
    `mid` middle and `src` source elements and middle classes `middle`.

    d_in has size mid * src.  d_out has mid columns, and a row for each
    distinct face of the middle wedges.  A wedge of p factors has p distinct
    faces, so the rows number between p and p * mid, and d_out takes the
    exact route where p * mid * mid <= EXACT_THRESHOLD and the modular route
    where p * mid > EXACT_THRESHOLD, whatever their number.  Only in between
    are the faces enumerated, until they number more than
    EXACT_THRESHOLD // mid, past which the size is above the threshold."""
    rows = mid and mid * len(middle[0][1][0])
    if rows <= EXACT_THRESHOLD < rows * mid:
        rows = _distinct_faces(middle, EXACT_THRESHOLD // mid)
    return _route(mid * src), _route(rows * mid)


def _distinct_faces(middle, enough: int) -> int:
    """How many distinct faces the wedges of the classes `middle` have,
    counted until there are more than `enough`."""
    faces = set()
    for _, wedges in middle:
        for wedge in wedges:
            faces.update(combinations(wedge, len(wedge) - 1))
            if len(faces) > enough:
                return len(faces)
    return len(faces)


def _block_ranks(block, config: EngineConfig, in_ranks: dict, out_ranks: dict):
    """(rank_in, rank_out, exact, agreement) for one built block under the
    config.

    The route of each map is picked here.  Exact mode sends every map to
    the exact route and checks no primes.  Two-prime mode routes the maps
    by the unreduced block's counts (_routes): a zero map has rank 0 and
    checks no primes, one of rows*cols <= EXACT_THRESHOLD takes the exact
    route and any other the modular route.  The ranks are the quotient's,
    the block's own matrices.  Each certificate is kept under its route in
    the map's dict, in_ranks for d_in and out_ranks for d_out, and one
    already there is reused: the pass gives a d_out handed over by the cell
    (p - 1, q + 1) the dict of its d_in role."""
    if config.mode == LEVEL_EXACT:
        routes, primes = ("exact", "exact"), ()
    else:
        routes = _routes(block.full_mid_dim, block.full_src_dim, block.full_middle)
        primes = config.primes
    certs = []
    for m, known, route in zip((block.d_in, block.d_out), (in_ranks, out_ranks), routes):
        if route not in known:
            known[route] = (certified_rank(m, primes, route == "exact") if route != "zero"
                            else RankCertificate(0, primes, True, True))
        certs.append(known[route])
    cert_in, cert_out = certs
    return (cert_in.rank, cert_out.rank, cert_in.exact and cert_out.exact,
            cert_in.agreement and cert_out.agreement)


def _block_dim(block, config: EngineConfig, in_ranks: dict, out_ranks: dict):
    """(mid_dim - rank_in - rank_out, exact, agreement) for one built block,
    its certificates kept in in_ranks and out_ranks (see _block_ranks)."""
    r_in, r_out, exact, agree = _block_ranks(block, config, in_ranks, out_ranks)
    if r_in + r_out > block.mid_dim:
        raise InvariantError(
            f"ranks {r_in} + {r_out} exceed the middle dimension "
            f"{block.mid_dim} at weight {block.weight}"
        )
    return block.mid_dim - r_in - r_out, exact, agree


def _settled_exact(unreduced, config: EngineConfig) -> bool:
    """Whether both maps of a settled weight, whose unreduced block has the
    (full_mid_dim, full_src_dim, full_middle) `unreduced`, take exact
    routes, as _block_ranks would route them.  Where a route is not zero
    the primes are checked, as certified_rank checks them on a map without
    entries."""
    if config.mode == LEVEL_EXACT:
        return True
    routes = _routes(*unreduced)
    if routes != ("zero", "zero"):
        check_primes(config.primes)
    return "modular" not in routes


def weight_blocks(n: int, b: int, d: int, p: int, q: int, config: EngineConfig,
                  cell: KoszulCell = None):
    """(block, contribution, exact, agreement) at each dominant weight of the
    cell, in descending lex order: the pass over `cell` alone if given, else
    over a new KoszulCell.  A cell or a block the memory cap refuses raises.
    A weight the cell settles comes as a KoszulBlock without maps, with
    contribution 0 and agreement (see the module notes)."""
    cell = cell or KoszulCell(Parameters(n, b, d, p, q), config.memory_cap)
    for _, ranked in _pass({None: cell}, config, {}, blocks=True):
        if isinstance(ranked, InfeasibleBlockError):
            raise ranked
        yield ranked


def _pass(cells: dict, config: EngineConfig, tallies: dict, blocks: bool = False):
    """Rank the KoszulCells of one antidiagonal, given in ascending p, weight
    by weight (see the module notes), over the union of their dominant
    weights in descending lex order, and sum each cell's weights into
    tallies[key] = [dim, block_count, max_block_dim, exact, agreement] for
    the cell cells[key].  Yields (key, the InfeasibleBlockError) where the
    memory cap refuses the cell at a weight: its tally is then None, and it
    drops out of the pass.  With `blocks`, it also yields (key, (block,
    contribution, exact, agreement)) at each of the cell's weights, a
    settled one as a KoszulBlock without maps.  The cells share one dict
    of grouped spaces.  The certificates of the d_in ranked last at a
    weight are kept, and serve the next block there whose d_out is that
    map.  A settled weight is routed only while every map before it in its
    cell took an exact route."""
    # each dominant weight -> the keys of the cells with a middle there
    live, spaces = {}, {}
    for key, cell in cells.items():
        cell.spaces = spaces
        tallies[key] = [0, 0, 0, True, True]
        for w in cell.weights():
            live.setdefault(w, []).append(key)
    for w in sorted(live, reverse=True):
        orbit = distinct_permutations_count(w)
        gave = held = None  # what the cell ranked last at w gave, its d_in's certificates
        for key in live[w]:
            tally = tallies[key]
            if tally is None:
                continue
            offered = gave and gave[4]
            try:
                unreduced, block, gave = cells[key].ranked(w, gave)
            except InfeasibleBlockError as exc:
                tallies[key] = None
                yield key, exc
                continue
            if block is None:       # settled: 0, with agreement
                tally[3] = tally[3] and _settled_exact(unreduced, config)
                if blocks:
                    yield key, (KoszulBlock(w, *unreduced), 0, tally[3], True)
            else:
                in_ranks, out_ranks = {}, held if block.d_out is offered else {}
                dim, exact, agree = _block_dim(block, config, in_ranks, out_ranks)
                held = in_ranks
                tally[0] += orbit * dim
                tally[3] = tally[3] and exact
                tally[4] = tally[4] and agree
                if blocks:
                    yield key, (block, dim, exact, agree)
            tally[1] += orbit
            tally[2] = max(tally[2], unreduced[0])
            block = None    # only `gave` and `held` outlive the step


def _compute_cell(n: int, b: int, d: int, p: int, q: int, config: EngineConfig,
                  tally, started: float) -> CellResult:
    """The result of one cell from the (dim, block_count, max_block_dim,
    exact, agreement) its pass summed over its dominant weights, all 0 and
    True for an analytic zero; timed from `started` (see the module
    notes)."""
    dim, block_count, max_block, exact, agree = tally
    # modes are named for their levels, and exact mode is always all-exact
    return CellResult(
        n=n, b=b, d=d, p=p, q=q, dim=dim, level=LEVEL_EXACT if exact else config.mode,
        agreement=agree, primes=config.primes, block_count=block_count,
        max_block_dim=max_block, wall_time_ms=int((time.monotonic() - started) * 1000),
        analytic=_analytic_zero_reason(n, b, d, p, q) is not None,
    )


class CorruptRecordError(Exception):
    pass


class StoreConflictError(Exception):
    pass


class ResultStore:
    """Append-only JSONL store of cell results, keyed by the cell and every
    engine setting that can change an answer or how it is known (see key_of).

    Keys are write-once: re-putting an identical result is a no-op, a
    conflicting result is an error (timing metadata is allowed to differ).
    Each line carries a CRC of its payload, checked on read.

    put takes a batch, one antidiagonal's new records, and writes them as
    one append of whole lines, newline last on each, so a crash mid-append
    leaves whole lines and at most one torn last line: unterminated or
    unreadable.  Loading skips it with a warning on stderr, and the next
    append cuts it off first, unless another process has appended since.
    An unreadable line anywhere else is damage, not a crash, and raises
    CorruptRecordError.  Processes may share a store: each append holds an
    exclusive flock on the file.
    """

    FILENAME = "results.jsonl"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, self.FILENAME)
        self._lock = threading.Lock()
        self._index = {}
        self._torn_at = None     # (byte offset, file size) of a torn last line
        if os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        unreadable = None    # (line number, offset, error): torn if nothing follows
        start = 0
        with open(self.path, "rb") as fh:
            for number, raw in enumerate(fh, 1):
                if raw.strip():
                    if unreadable is not None:
                        raise CorruptRecordError(
                            f"line {unreadable[0]} of {self.path} is not a store "
                            f"record: {unreadable[2]}"
                        )
                    try:
                        if not raw.endswith(b"\n"):
                            raise ValueError("no newline at the end")
                        row = json.loads(raw)
                        self._index[row["key"]] = (row["crc"], row["record"])
                    except (ValueError, KeyError, TypeError) as exc:
                        unreadable = (number, start, exc)
                start += len(raw)
        if unreadable is not None:
            import logging      # loaded only to warn: importing it is costly
            logging.getLogger(__name__).warning("skipping torn last line %d of %s (%s)",
                                                unreadable[0], self.path, unreadable[2])
            self._torn_at = (unreadable[1], start)

    @staticmethod
    def key_of(n, b, d, p, q, config: EngineConfig) -> str:
        """The key of a cell computed under `config`: the mode, the primes
        (a result prints them), EXACT_THRESHOLD in two-prime mode, the only
        mode whose answer it can change, and the engine version."""
        key = {"n": n, "b": b, "d": d, "p": p, "q": q, "mode": config.mode,
               "primes": sorted(config.primes), "engine": ENGINE_VERSION}
        if config.mode == LEVEL_TWO_PRIME:
            key["exact_threshold"] = EXACT_THRESHOLD
        return json.dumps(key, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def _canonical(record: dict) -> str:
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def _crc(cls, record: dict) -> int:
        return zlib.crc32(cls._canonical(record).encode())

    @staticmethod
    def _payload(record: dict) -> dict:
        return {k: v for k, v in record.items() if k != "wall_time_ms"}

    def get(self, key: str):
        with self._lock:
            hit = self._index.get(key)
        if hit is None:
            return None
        crc, record = hit
        if self._crc(record) != crc:
            raise CorruptRecordError(f"checksum mismatch for key {key}")
        return record

    def put(self, items) -> None:
        """Store each (key, record) of `items` in order, as one append under
        one flock.  A key already held with the same payload is skipped; at
        a conflicting one the records before it are appended, and then
        StoreConflictError is raised.  Each record is serialised once: its
        CRC and its line come from the same JSON text, and the line is
        json.dumps({"key", "crc", "record"}) with sorted keys, byte for
        byte."""
        with self._lock:
            new, lines, conflict = {}, [], None
            for key, record in items:
                hit = new.get(key) or self._index.get(key)
                if hit is not None:
                    if self._payload(hit[1]) != self._payload(record):
                        conflict = StoreConflictError(
                            f"conflicting result for existing key {key}: "
                            f"{hit[1]} vs {record}"
                        )
                        break
                    continue
                blob = self._canonical(record)
                crc = zlib.crc32(blob.encode())
                new[key] = crc, record
                lines.append(f'{{"crc":{crc},"key":{json.dumps(key)},"record":{blob}}}\n')
            if lines:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fcntl.flock(fh, fcntl.LOCK_EX)   # released when fh closes
                    if self._torn_at is not None:
                        offset, size = self._torn_at
                        if os.fstat(fh.fileno()).st_size == size:
                            fh.truncate(offset)
                        self._torn_at = None
                    fh.write("".join(lines))
                self._index.update(new)
            if conflict is not None:
                raise conflict


def cell_result(n, b, d, p, q, config: EngineConfig = None,
                store: ResultStore = None) -> CellResult:
    """Compute (or fetch from the store) one cell; a bad (n, b, d) first raises."""
    check_nbd(n, b, d)
    res = _antidiagonal(n, b, d, [(p, q)], config or make_config(), store)[(p, q)]
    if isinstance(res, InfeasibleBlockError):
        raise res
    return res


def _antidiagonal(n, b, d, cells: list, config: EngineConfig, store) -> dict:
    """{(p, q): result, or the InfeasibleBlockError that refused the cell}
    for `cells`, on one antidiagonal in ascending p: each one the store
    holds is fetched, every other cell is computed, in one pass for all
    those that are not analytic zeros, and stored, in the order of
    `cells`, by one put.  Each cell's store key is built once."""
    t0 = time.monotonic()
    out, made, tallies, new = {}, {}, {}, []
    keys = ({pq: ResultStore.key_of(n, b, d, *pq, config) for pq in cells}
            if store is not None else {})
    for pq in cells:
        rec = store and store.get(keys[pq])
        if rec is not None:
            out[pq] = CellResult.from_record(rec)
        elif _analytic_zero_reason(n, b, d, *pq) is None:
            try:
                made[pq] = KoszulCell(Parameters(n, b, d, *pq), config.memory_cap)
            except InfeasibleBlockError as exc:
                out[pq] = exc
    for pq, refused in _pass(made, config, tallies):
        out[pq] = refused
    for pq in cells:
        if pq not in out:
            out[pq] = res = _compute_cell(n, b, d, *pq, config,
                                          tallies.get(pq, (0, 0, 0, True, True)), t0)
            if store is not None:
                new.append((keys[pq], res.to_record()))
    if new:
        store.put(new)
    return out


def kpq_dim(n, b, d, p, q, config: EngineConfig = None,
            store: ResultStore = None) -> int:
    return cell_result(n, b, d, p, q, config, store).dim


def default_q_lo(b: int, d: int) -> int:
    """Lowest strand that can be nonzero: qd + b >= 0, so q >= -(b // d)."""
    return -(b // d)


class BettiTable(Record):
    """A window of cells for fixed (n, b, d)."""

    _fields = ("n", "b", "d", "p_range", "q_range", "cells", "failures")

    def __init__(self, n: int, b: int, d: int, p_range: tuple, q_range: tuple,
                 cells: dict = None, failures: dict = None):
        self.n, self.b, self.d, self.p_range, self.q_range = n, b, d, p_range, q_range
        self.cells = {} if cells is None else cells
        self.failures = {} if failures is None else failures

    @property
    def v(self) -> int:
        return binom_safe(self.d + self.n, self.n)

    @property
    def r_d(self) -> int:
        return self.v - 1

    def dim(self, p: int, q: int) -> int:
        cell = self.cells.get((p, q))
        if cell is None:
            raise KeyError(f"cell (p={p}, q={q}) not in table window")
        return cell.dim

    def has_cell(self, p: int, q: int) -> bool:
        return (p, q) in self.cells

    def nonzero_p(self, q: int) -> list:
        return sorted(p for (p, qq) in self.cells if qq == q and self.cells[(p, qq)].dim > 0)

    def max_dim(self) -> int:
        return max((c.dim for c in self.cells.values()), default=0)

    def window_cells(self) -> list:
        p_lo, p_hi = self.p_range
        q_lo, q_hi = self.q_range
        return [(p, q) for q in range(q_lo, q_hi + 1) for p in range(p_lo, p_hi + 1)]

    def missing_cells(self) -> list:
        return [pq for pq in self.window_cells() if pq not in self.cells]


def betti_table(n, b, d, p_range=(None, None), q_range=(None, None),
                config: EngineConfig = None, store: ResultStore = None) -> BettiTable:
    """Compute a window of cells; a range end that is None is the end of the
    full table, which holds every possibly-nonzero cell.

    Infeasible cells are recorded per cell, not fatal; everything already in
    the store is reused.  The cells are computed one antidiagonal at a time
    (see the module notes); both dicts of the table are in window order.
    """
    check_nbd(n, b, d)      # an empty window reaches no cell_result
    config = config or make_config()
    (p_lo, p_hi), (q_lo, q_hi) = p_range, q_range
    table = BettiTable(
        n=n, b=b, d=d,
        p_range=(0 if p_lo is None else p_lo,
                 binom_safe(d + n, n) - 1 if p_hi is None else p_hi),
        q_range=(default_q_lo(b, d) if q_lo is None else q_lo,
                 n + 1 if q_hi is None else q_hi),
    )
    (p_lo, p_hi), (q_lo, q_hi) = table.p_range, table.q_range
    cells, failures = {}, {}
    for j in range(p_lo + q_lo, p_hi + q_hi + 1):
        qs = range(min(q_hi, j - p_lo), max(q_lo, j - p_hi) - 1, -1)
        for pq, res in _antidiagonal(n, b, d, [(j - q, q) for q in qs], config, store).items():
            (failures if isinstance(res, InfeasibleBlockError) else cells)[pq] = res
    order = table.window_cells()
    table.cells = {pq: cells[pq] for pq in order if pq in cells}
    table.failures = {pq: str(failures[pq]) for pq in order if pq in failures}
    return table


class IncompleteTableError(ValueError):
    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = list(missing)


def hilbert_numerator_coeffs(n, b, d, jmax) -> list:
    """Coefficients c_j of H_R(t)(1-t)^v for j = default_q_lo(b, d), ..., jmax.

    H_R(t) = sum_m binom(md+b+n, n) t^m runs over every m with md + b >= 0,
    so for b >= d it starts at the negative degree -(b // d), and so does
    the list.  If the table is correct, sum_{p+q=j} (-1)^p dim K_{p,q} = c_j
    in every degree: this is the alternating-sum identity of a minimal free
    resolution, valid for any b >= 0.
    """
    v = binom_safe(d + n, n)
    lo = default_q_lo(b, d)
    out = []
    for j in range(lo, jmax + 1):
        c = 0
        for m in range(lo, j + 1):
            h = binom_safe(m * d + b + n, n)
            if h:
                c += h * (-1) ** (j - m) * binom_safe(v, j - m)
        out.append(c)
    return out


class EulerReport(Record):
    _fields = ("coefficients", "residuals")

    def __init__(self, coefficients: dict, residuals: dict):
        self.coefficients, self.residuals = coefficients, residuals

    @property
    def ok(self) -> bool:
        return all(r == 0 for r in self.residuals.values())

    def nonzero_residuals(self) -> dict:
        return {j: r for j, r in self.residuals.items() if r != 0}


def euler_check(table: BettiTable) -> EulerReport:
    """Alternating-sum consistency of a complete table.

    Requires the window to cover every possibly-nonzero cell: p over
    [0, r_d], q from -(b // d) up to n + 1.  Residuals are reported through
    degree p_max + n + 2, past the support of the resolution, so trailing
    junk would show up too.
    """
    if table.failures:
        raise IncompleteTableError(
            f"table has infeasible cells {sorted(table.failures)}", sorted(table.failures)
        )
    missing = table.missing_cells()
    if missing:
        raise IncompleteTableError(f"table is missing cells {missing}", missing)
    p_lo, p_hi = table.p_range
    q_lo, q_hi = table.q_range
    need_q_lo = default_q_lo(table.b, table.d)
    if p_lo > 0 or p_hi < table.r_d or q_lo > need_q_lo or q_hi < table.n + 1:
        raise IncompleteTableError(
            f"window p={table.p_range}, q={table.q_range} cannot cover all "
            f"nonzero cells (need p=[0, {table.r_d}], q=[{need_q_lo}, {table.n + 1}])"
        )
    jmax = p_hi + table.n + 2
    coeffs = dict(enumerate(hilbert_numerator_coeffs(table.n, table.b, table.d, jmax),
                            start=need_q_lo))
    residuals = {}
    for j, c in coeffs.items():
        total = 0
        for (p, q), cell in table.cells.items():
            if p + q == j:
                total += (-1) ** p * cell.dim
        residuals[j] = total - c
    return EulerReport(coefficients=coeffs, residuals=residuals)


def dual_b(n, b, d) -> int:
    return d - n - 1 - b


def dual_cell_coords(n, b, d, p, q) -> tuple:
    """(p', q') with dim K_{p,q}(n, b; d) = dim K_{p',q'}(n, b'; d)."""
    v = binom_safe(d + n, n)
    return (v - 1) - p - n, n - q


class DualityReport(Record):
    _fields = ("b_dual", "mismatches")

    def __init__(self, b_dual: int, mismatches: list):
        self.b_dual, self.mismatches = b_dual, mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_duality(table: BettiTable, dual_table: BettiTable = None) -> DualityReport:
    """Compare a table against its twisted dual, cell by cell.

    Valid once d >= b + n + 1 (equivalently b' = d - n - 1 - b >= 0).  When
    b' == b the table is self-dual and no companion is needed.  Strands are
    compared for 0 <= q <= n; indices falling outside [0, r_d] correspond to
    zero groups.
    """
    n, b, d = table.n, table.b, table.d
    if d < b + n + 1:
        raise ValueError(f"duality needs d >= b + n + 1, got d={d}, b={b}, n={n}")
    b2 = dual_b(n, b, d)
    if dual_table is None:
        if b2 != b:
            raise ValueError(f"self-dual only when b' == b; need companion table with b={b2}")
        dual_table = table
    if (dual_table.n, dual_table.b, dual_table.d) != (n, b2, d):
        raise ValueError(
            f"companion table is ({dual_table.n}, {dual_table.b}, {dual_table.d}), "
            f"expected ({n}, {b2}, {d})"
        )
    mismatches = []
    for (p, q), cell in sorted(table.cells.items()):
        if not 0 <= q <= n:
            continue
        p2, q2 = dual_cell_coords(n, b, d, p, q)
        if 0 <= p2 <= table.r_d:
            if not dual_table.has_cell(p2, q2):
                raise IncompleteTableError(
                    f"companion table lacks cell (p={p2}, q={q2})", [(p2, q2)]
                )
            dual_dim = dual_table.dim(p2, q2)
        else:
            dual_dim = 0
        if cell.dim != dual_dim:
            mismatches.append((p, q, cell.dim, p2, q2, dual_dim))
    return DualityReport(b_dual=b2, mismatches=mismatches)


def m2_text(table: BettiTable) -> str:
    """Betti-diagram text layout: rows are q, columns are p, dot for zero."""
    p_lo, p_hi = table.p_range
    q_lo, q_hi = table.q_range
    cols = list(range(p_lo, p_hi + 1))
    header = ["q\\p"] + [str(p) for p in cols]
    rows = [header]
    for q in range(q_lo, q_hi + 1):
        row = [str(q)]
        for p in cols:
            if (p, q) in table.failures:
                row.append("?")
            elif table.has_cell(p, q):
                dim = table.dim(p, q)
                row.append(str(dim) if dim else ".")
            else:
                row.append(" ")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append(" ".join(s.rjust(w) for s, w in zip(r, widths)))
    return "\n".join(lines)
