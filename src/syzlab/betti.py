"""Computing dim K_{p,q} cells and tables, with consistency checks and caching.

A cell is computed blockwise: each torus-weight block contributes
mid_dim - rank(d_in) - rank(d_out), ranks taken per the engine mode (exact
rational, two-prime certified, or single-prime estimate).  Since modular
ranks can only undercount, dimensions can only overcount; agreement of two
independent 31-bit primes is the standard certification level.  Every mode
ranks through linalg.certified_rank, and one pass over the weight blocks,
weight_blocks, serves both the cells and schur's weight-space dimensions.

Only the dominant weights are built and ranked, in descending lex order.
The blocks at the permutations of a weight are isomorphic to it over the
integers (see koszul), so each dominant block counts distinct-permutations
times: in dim, in block_count, and once in max_block_dim.  Its ranks, and
with them the level and the agreement flag, are those of every block of its
orbit.

Each block is ranked on its quotient by a vertex star (see koszul), which
has the same cohomology over every field: each rank of the block is the
star's rank, the same in all fields, plus the quotient's.  What the result
says about a block is still taken from the unreduced block.  Its middle
dimension counts in block_count and max_block_dim, and its shapes pick the
route of each map: zero, exact (rows*cols <= exact_threshold, with the
modular ranks checked against the exact one) or modular, and so the level.
Routed by its own, smaller shape, the quotient of a map would often go to
the exact route, or be zero, and the cell would report level exact where it
reported two-prime.  Only the ranks are the quotient's; they differ from the
block's by the star's ranks, the same in every field, so the dimension is
the same and the primes agree or disagree on a block as before.

Two global consistency checks are provided.  The Euler check compares the
alternating column sums of a complete table against the coefficients of
H_R(t) * (1-t)^v, where H_R(t) = sum_m binom(md+b+n, n) t^m is the Hilbert
series of the section module; any rank error in any block breaks some
residual.  The duality check compares dim K_{p,q}(n, b; d) with
dim K_{p',q'}(n, b'; d) for p' = r_d - p - n, q' = n - q, b' = d - n - 1 - b,
valid once d >= b + n + 1.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
import time
import zlib
from dataclasses import dataclass, field

from . import ENGINE_VERSION
from .arith import binom_safe, random_prime
from .koszul import (
    DEFAULT_MEMORY_CAP,
    InfeasibleBlockError,
    KoszulCell,
    Parameters,
)
from .linalg import InvariantError, certified_rank
from .monomials import distinct_permutations_count

logger = logging.getLogger(__name__)

LEVEL_EXACT = "exact"
LEVEL_TWO_PRIME = "two-prime"
LEVEL_ONE_PRIME = "one-prime"

MODES = (LEVEL_EXACT, LEVEL_TWO_PRIME, LEVEL_ONE_PRIME)
DEFAULT_PRIME_SEEDS = {LEVEL_EXACT: (), LEVEL_TWO_PRIME: (0, 1), LEVEL_ONE_PRIME: (0,)}
DEFAULT_PRIME_BITS = 31


@dataclass(frozen=True)
class EngineConfig:
    """How ranks are taken: mode, primes, exact threshold, memory cap."""

    mode: str = LEVEL_TWO_PRIME
    primes: tuple = ()
    exact_threshold: int = 256
    memory_cap: int = DEFAULT_MEMORY_CAP

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == LEVEL_TWO_PRIME and len(self.primes) < 2:
            raise ValueError("two-prime mode needs at least two primes")
        if self.mode == LEVEL_ONE_PRIME and len(self.primes) != 1:
            raise ValueError("one-prime mode needs exactly one prime")


def make_config(
    mode: str = EngineConfig.mode,
    prime_seeds=None,
    prime_bits: int = DEFAULT_PRIME_BITS,
    exact_threshold: int = EngineConfig.exact_threshold,
    memory_cap: int = EngineConfig.memory_cap,
) -> EngineConfig:
    """Config with reproducible primes drawn from the given seeds."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if prime_seeds is None:
        prime_seeds = DEFAULT_PRIME_SEEDS[mode]
    primes = tuple(random_prime(prime_bits, s) for s in prime_seeds)
    return EngineConfig(
        mode=mode, primes=primes, exact_threshold=exact_threshold,
        memory_cap=memory_cap,
    )


@dataclass(frozen=True)
class CellResult:
    """One computed cell with its certification metadata."""

    n: int
    b: int
    d: int
    p: int
    q: int
    dim: int
    level: str
    agreement: bool
    primes: tuple
    exact_threshold: int
    block_count: int
    max_block_dim: int
    wall_time_ms: int
    analytic: bool = False

    def to_record(self) -> dict:
        return {
            "n": self.n, "b": self.b, "d": self.d, "p": self.p, "q": self.q,
            "dim": self.dim, "level": self.level, "agreement": self.agreement,
            "primes": list(self.primes),
            "exact_threshold": self.exact_threshold, "engine_version": ENGINE_VERSION,
            "wall_time_ms": self.wall_time_ms, "block_count": self.block_count,
            "max_block_dim": self.max_block_dim, "analytic": self.analytic,
        }

    @staticmethod
    def from_record(rec: dict) -> "CellResult":
        return CellResult(
            n=rec["n"], b=rec["b"], d=rec["d"], p=rec["p"], q=rec["q"],
            dim=rec["dim"], level=rec["level"], agreement=rec["agreement"],
            primes=tuple(rec["primes"]),
            exact_threshold=rec["exact_threshold"], block_count=rec["block_count"],
            max_block_dim=rec["max_block_dim"], wall_time_ms=rec["wall_time_ms"],
            analytic=rec.get("analytic", False),
        )


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


def _block_ranks(block, config: EngineConfig):
    """(rank_in, rank_out, exact, agreement) for one block under the config.

    The mode sets only the largest map that takes the exact route: any in
    exact mode, which checks no primes, none in one-prime mode.  The ranks
    are the quotient's, the block's own matrices; the route, and so `exact`,
    is picked from the shapes of the unreduced block (see the module notes)."""
    # sizes past zero matter only to two-prime mode's threshold
    limit = config.exact_threshold if config.mode == LEVEL_TWO_PRIME else 0
    threshold, primes = limit, config.primes
    if config.mode == LEVEL_EXACT:
        threshold, primes = float("inf"), ()
    size_in, size_out = block.full_sizes(limit)
    cert_in = certified_rank(block.d_in, primes, threshold, size_in)
    cert_out = certified_rank(block.d_out, primes, threshold, size_out)
    return (cert_in.rank, cert_out.rank, cert_in.exact and cert_out.exact,
            cert_in.agreement and cert_out.agreement)


def _block_dim(block, config: EngineConfig):
    """(mid_dim - rank_in - rank_out, exact, agreement) for one block."""
    r_in, r_out, exact, agree = _block_ranks(block, config)
    if r_in + r_out > block.mid_dim:
        raise InvariantError(
            f"ranks {r_in} + {r_out} exceed the middle dimension "
            f"{block.mid_dim} at weight {block.weight}"
        )
    return block.mid_dim - r_in - r_out, exact, agree


def weight_blocks(n: int, b: int, d: int, p: int, q: int, config: EngineConfig):
    """(block, contribution, exact, agreement) at each dominant weight of the
    cell, in descending lex order.  The cell's parameters and memory cap are
    checked before the first block is asked for."""
    cell = KoszulCell(Parameters(n=n, b=b, d=d, p=p, q=q), config.memory_cap)
    return ((block, *_block_dim(block, config)) for block in cell.iter_blocks())


def _compute_cell(n: int, b: int, d: int, p: int, q: int, config: EngineConfig) -> CellResult:
    t0 = time.monotonic()
    reason = _analytic_zero_reason(n, b, d, p, q)
    if reason is not None:
        return CellResult(
            n=n, b=b, d=d, p=p, q=q, dim=0, level=LEVEL_EXACT, agreement=True,
            primes=config.primes, exact_threshold=config.exact_threshold,
            block_count=0, max_block_dim=0,
            wall_time_ms=int((time.monotonic() - t0) * 1000), analytic=True,
        )
    dim = 0
    block_count = 0
    max_block = 0
    all_exact = True
    all_agree = True
    for block, block_dim, exact, agree in weight_blocks(n, b, d, p, q, config):
        orbit = distinct_permutations_count(block.weight)
        dim += orbit * block_dim
        block_count += orbit
        max_block = max(max_block, block.full_mid_dim)
        all_exact = all_exact and exact
        all_agree = all_agree and agree
    if all_exact:
        level = LEVEL_EXACT
    else:
        level = LEVEL_TWO_PRIME if config.mode == LEVEL_TWO_PRIME else LEVEL_ONE_PRIME
    return CellResult(
        n=n, b=b, d=d, p=p, q=q, dim=dim, level=level,
        agreement=all_agree, primes=config.primes,
        exact_threshold=config.exact_threshold, block_count=block_count,
        max_block_dim=max_block, wall_time_ms=int((time.monotonic() - t0) * 1000),
    )


class CorruptRecordError(Exception):
    pass


class StoreConflictError(Exception):
    pass


class ResultStore:
    """Append-only JSONL store of cell results, keyed by parameters, primes,
    exact threshold and engine version: every engine setting that can change
    an answer or how it is known.

    Keys are write-once: re-putting an identical result is a no-op, a
    conflicting result is an error (timing metadata is allowed to differ).
    Each line carries a CRC of its payload, checked on read.

    Every append writes one whole line, newline last, so a crash mid-append
    leaves a torn last line: unterminated or unreadable.  Loading skips it
    with a warning on stderr, and the next append cuts it off first, unless
    another process has appended since.  An unreadable line anywhere else is
    damage, not a crash, and raises CorruptRecordError.  Processes may share
    a store: each append holds an exclusive flock on the file.
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
            logger.warning("skipping torn last line %d of %s (%s)",
                           unreadable[0], self.path, unreadable[2])
            self._torn_at = (unreadable[1], start)

    @staticmethod
    def key_of(n, b, d, p, q, primes, exact_threshold=EngineConfig.exact_threshold,
               engine_version=ENGINE_VERSION) -> str:
        return json.dumps(
            {"n": n, "b": b, "d": d, "p": p, "q": q, "primes": sorted(primes),
             "exact_threshold": exact_threshold, "engine": engine_version},
            sort_keys=True, separators=(",", ":"),
        )

    @staticmethod
    def _crc(record: dict) -> int:
        blob = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        return zlib.crc32(blob)

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

    def put(self, record: dict) -> None:
        key = self.key_of(
            record["n"], record["b"], record["d"], record["p"], record["q"],
            record["primes"], record["exact_threshold"], record["engine_version"],
        )
        with self._lock:
            hit = self._index.get(key)
            if hit is not None:
                if self._payload(hit[1]) != self._payload(record):
                    raise StoreConflictError(
                        f"conflicting result for existing key {key}: "
                        f"{hit[1]} vs {record}"
                    )
                return
            crc = self._crc(record)
            with open(self.path, "a", encoding="utf-8") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)   # released when fh closes
                if self._torn_at is not None:
                    offset, size = self._torn_at
                    if os.fstat(fh.fileno()).st_size == size:
                        fh.truncate(offset)
                    self._torn_at = None
                fh.write(json.dumps({"key": key, "crc": crc, "record": record},
                                    sort_keys=True, separators=(",", ":")) + "\n")
            self._index[key] = (crc, record)


def cell_result(n, b, d, p, q, config: EngineConfig = None,
                store: ResultStore = None) -> CellResult:
    """Compute (or fetch from the store) one cell."""
    config = config or make_config()
    if store is not None:
        key = ResultStore.key_of(n, b, d, p, q, config.primes, config.exact_threshold)
        rec = store.get(key)
        if rec is not None:
            return CellResult.from_record(rec)
    res = _compute_cell(n, b, d, p, q, config)
    if store is not None:
        store.put(res.to_record())
    return res


def kpq_dim(n, b, d, p, q, config: EngineConfig = None,
            store: ResultStore = None) -> int:
    return cell_result(n, b, d, p, q, config, store).dim


def default_q_lo(b: int, d: int) -> int:
    """Lowest strand that can be nonzero: qd + b >= 0, so q >= -(b // d)."""
    return -(b // d)


@dataclass
class BettiTable:
    """A window of cells for fixed (n, b, d)."""

    n: int
    b: int
    d: int
    p_range: tuple
    q_range: tuple
    cells: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

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
    the store is reused.
    """
    config = config or make_config()
    (p_lo, p_hi), (q_lo, q_hi) = p_range, q_range
    table = BettiTable(
        n=n, b=b, d=d,
        p_range=(0 if p_lo is None else p_lo,
                 binom_safe(d + n, n) - 1 if p_hi is None else p_hi),
        q_range=(default_q_lo(b, d) if q_lo is None else q_lo,
                 n + 1 if q_hi is None else q_hi),
    )
    for p, q in table.window_cells():
        try:
            table.cells[(p, q)] = cell_result(n, b, d, p, q, config, store)
        except InfeasibleBlockError as exc:
            table.failures[(p, q)] = str(exc)
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


@dataclass
class EulerReport:
    coefficients: dict
    residuals: dict

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
    missing = table.missing_cells()
    if missing:
        raise IncompleteTableError(f"table is missing cells {missing}", missing)
    if table.failures:
        raise IncompleteTableError(
            f"table has infeasible cells {sorted(table.failures)}", sorted(table.failures)
        )
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


@dataclass
class DualityReport:
    b_dual: int
    mismatches: list

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
