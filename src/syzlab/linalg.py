"""Sparse exact rank computation, modular and rational.

The Koszul differentials have +-1 entries and very low fill, so the default
rank engine is sparse Gaussian elimination over a prime field with Markowitz
pivoting (pick the nonzero entry minimizing (row_nnz-1)*(col_nnz-1), ties
broken by position so runs are deterministic).  Rational ranks use Bareiss
fraction-free elimination, kept for blocks small enough that integer growth
is harmless.

A modular rank can only undercount the rational rank (bad primes divide some
minor), never overcount.  Rank certification therefore computes ranks at
several independent primes and takes the maximum; agreement across primes is
recorded and disagreement is logged, since cohomology dimensions built from
undercounted ranks can only overcount.  One call, `certified_rank`, serves
every engine mode, whatever its number of primes.

The elimination kernel runs over Z/N for any modulus N, and certification
runs it once with N the product of the distinct primes.  By the Chinese
remainder theorem Z/N is the product of the fields F_p, and a unit of Z/N is
nonzero in every one of them.  While every chosen pivot is a unit, each step
is therefore a valid elimination step in each field at once, and at the end
every remaining entry is zero in all of them: each field's rank is exactly
the pivot count, as separate runs per prime would find.  A pivot that is not
a unit (nonzero mod some primes, zero mod another) ends the joint run, and
the ranks are then taken one prime at a time.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .arith import PrimeField

logger = logging.getLogger(__name__)


class InvariantError(Exception):
    """A proved identity failed, so some computed value is wrong.

    Raised instead of asserted: the checks that guard results must still
    run under `python -O`.
    """


class NonUnitPivot(ArithmeticError):
    """A pivot chosen mod a composite modulus has no inverse."""


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable coordinate-format matrix over the integers.

    Entries are (row, col, value) with value != 0, indices in range, and no
    duplicate positions.  Zero rows and columns are representable simply by
    absence.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        assert self.rows >= 0 and self.cols >= 0
        seen = set()
        for r, c, v in self.entries:
            assert 0 <= r < self.rows and 0 <= c < self.cols, (r, c, self.rows, self.cols)
            assert v != 0, f"explicit zero entry at {(r, c)}"
            assert (r, c) not in seen, f"duplicate entry at {(r, c)}"
            seen.add((r, c))

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> list:
        a = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries:
            a[r][c] = v
        return a

    @staticmethod
    def from_dense(a) -> "SparseMatrix":
        rows = len(a)
        cols = len(a[0]) if rows else 0
        entries = tuple(
            (r, c, a[r][c]) for r in range(rows) for c in range(cols) if a[r][c]
        )
        return SparseMatrix(rows, cols, entries)


def rank_mod_p(m: SparseMatrix, field: PrimeField) -> int:
    """Rank of m over F_p by sparse elimination with Markowitz pivoting."""
    return _rank_mod(m, field.modulus)


def _rank_mod(m: SparseMatrix, modulus: int) -> int:
    """Pivot count of sparse elimination of m over Z/modulus.

    The pivot row is the sparsest remaining row (ties by row id, kept in a
    heap); within it the entry minimizing the Markowitz fill estimate
    (row_nnz - 1) * (col_nnz - 1) is chosen, ties by column id.  Restricting
    the candidate search to one minimal row keeps pivoting near-linear while
    retaining the fill behaviour of the full search on these +-1 incidence
    matrices.  Fully deterministic for a given matrix and modulus.  For a
    prime modulus this is the rank; for a composite one it raises
    NonUnitPivot when a chosen pivot is not a unit (see the module notes).
    """
    rows = {}
    for r, c, v in m.entries:
        v %= modulus
        if v:
            rows.setdefault(r, {})[c] = v
    col_rows = {}
    for r, cols in rows.items():
        for c in cols:
            col_rows.setdefault(c, set()).add(r)

    heap = [(len(cols), r) for r, cols in sorted(rows.items())]
    heapq.heapify(heap)
    rank = 0
    while heap:
        ln, r = heapq.heappop(heap)
        cols = rows.get(r)
        if cols is None or len(cols) != ln:
            continue  # stale: every row update pushes a current entry
        best = None
        for c in cols:
            score = (ln - 1) * (len(col_rows[c]) - 1)
            if best is None or (score, c) < best:
                best = (score, c)
        pc = best[1]
        try:
            piv_inv = pow(cols[pc], -1, modulus)
        except ValueError:
            raise NonUnitPivot(f"pivot {cols[pc]} is not a unit mod {modulus}") from None
        pivot_items = [(c, v) for c, v in cols.items() if c != pc]
        del rows[r]
        for c, _ in pivot_items:
            col_rows[c].discard(r)
        col_rows[pc].discard(r)
        for r2 in col_rows.pop(pc):
            target = rows[r2]
            factor = target.pop(pc) * piv_inv % modulus
            for c, v in pivot_items:
                old = target.get(c)
                if old is None:
                    nv = -factor * v % modulus
                    if nv:
                        target[c] = nv
                        col_rows[c].add(r2)
                else:
                    nv = (old - factor * v) % modulus
                    if nv:
                        target[c] = nv
                    else:
                        del target[c]
                        col_rows[c].discard(r2)
            if target:
                heapq.heappush(heap, (len(target), r2))
            else:
                del rows[r2]
        rank += 1
    return rank


def rank_exact(m: SparseMatrix) -> int:
    """Rank over the rationals via Bareiss fraction-free elimination.

    All intermediate entries are minors of the original integer matrix, so
    divisions are exact and no rounding can occur.
    """
    a = m.to_dense()
    nrows, ncols = m.rows, m.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pivot = a[r][c]
        for i in range(r + 1, nrows):
            head = a[i][c]
            row_i = a[i]
            row_r = a[r]
            for j in range(c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        rank += 1
    return rank


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of a certified rank computation.

    `exact` means the rational rank was computed outright; otherwise `rank`
    is the max over the listed primes and `agreement` records whether they
    all matched (they can only undercount, so the max is the best estimate).
    """

    rank: int
    primes: tuple
    agreement: bool
    exact: bool


@lru_cache
def _field(p: int) -> PrimeField:
    """The field of p, checked prime once per process rather than per call."""
    return PrimeField(p)


def _modular_ranks(m: SparseMatrix, primes: tuple) -> list:
    """The rank of m mod each prime, in order.

    Elimination runs once modulo the product of the distinct primes and
    falls back to one run per prime on a non-unit pivot (see the module
    notes).
    """
    fields = [_field(p) for p in primes]
    try:
        rank = _rank_mod(m, prod(set(primes)))
    except NonUnitPivot:
        return [rank_mod_p(m, f) for f in fields]
    return [rank] * len(primes)


def certified_rank(m: SparseMatrix, primes, exact_threshold: int = 0,
                   size: int = None) -> RankCertificate:
    """Rank with a certification level, for any number of primes.

    Matrices with rows*cols <= exact_threshold take the rational path, and
    each prime's modular rank is checked against it (modular can never
    exceed exact).  Others get modular ranks only, and `agreement` needs two
    primes or more that agree, so a one-prime estimate is never certified.

    `size` is the rows*cols (0 if zero) that picks the route, by default m's
    own.  A caller ranking m as the quotient of a larger matrix whose rank
    exceeds m's by the same amount over every field passes the larger one's,
    so the route, and with it `exact`, is the larger matrix's; `agreement`
    is already the same for both.
    """
    primes = tuple(primes)
    if size is None:
        size = m.rows * m.cols if m.nnz else 0
    if size == 0:
        return RankCertificate(0, primes, True, True)
    if size <= exact_threshold:
        exact = rank_exact(m)
        for p, modular in zip(primes, _modular_ranks(m, primes) if primes else ()):
            if modular > exact:
                raise InvariantError(
                    f"rank mod {p} is {modular}, above the exact rank {exact} "
                    f"of a {m.rows}x{m.cols} block"
                )
            if modular < exact:
                logger.warning(
                    "prime %d undercounts rank (%d < %d) on a %dx%d block",
                    p, modular, exact, m.rows, m.cols,
                )
        return RankCertificate(exact, primes, True, True)
    ranks = _modular_ranks(m, primes)
    agreement = len(set(ranks)) == 1
    if not agreement:
        logger.warning(
            "rank disagreement across primes %s: %s on a %dx%d block",
            primes, ranks, m.rows, m.cols,
        )
    return RankCertificate(max(ranks), primes, agreement and len(ranks) > 1, False)
