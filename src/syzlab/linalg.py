"""Sparse exact rank computation, modular and rational.

A matrix is its list of columns, each a tuple of (row, value) pairs, as
koszul builds every map.  Both kernels eliminate the columns as rows: the
transpose has the same rank over Q and over every field.  The kernels are
the one check of a map's entries, with or without `python -O`: each reads
a value of 0 as no entry and refuses, with InvariantError, a row out of
range or repeated within a column, as it sets the map up.

The Koszul differentials have +-1 entries and very low fill, so the default
rank engine is sparse Gaussian elimination over a prime field.  It peels
first.  A row with a single live entry, taken as the pivot, eliminates
nothing but its own column: every other row there just loses its entry in
that column.  A column with a single live entry has no other row to
eliminate, and deleting its pivot row only takes one entry from each other
column that row meets.  So such a pivot makes no fill and leaves every
other entry unchanged, and the peel deletes the pivot's row and column and
counts one.  These deletions are elementary collapses in Forman's discrete
Morse theory (Adv. Math. 1998).  On the quotient maps koszul builds they
usually rank the whole map: they do on every map of the benchmark's quartic
cells, and leave a core in only 3 maps of (2,0,4) K_{9,2}.  Only the core
the peel leaves, if any, is eliminated with Markowitz pivoting (pick the
nonzero entry minimizing (row_nnz-1)*(col_nnz-1), ties broken by
position).  The peel takes its pivots from two stacks in an order fixed by
the matrix, and the Markowitz loop breaks every tie by position, so runs
are deterministic.  Rational ranks use Bareiss fraction-free elimination,
kept for blocks small enough that integer growth is harmless.

A modular rank can only undercount the rational rank (bad primes divide some
minor), never overcount.  Rank certification therefore computes ranks at
several independent primes and takes the maximum; agreement across primes is
recorded and disagreement is logged, since cohomology dimensions built from
undercounted ranks can only overcount.  One call, `certified_rank`, serves
every engine mode, whatever its number of primes; betti picks its route.
A map without entries has rank 0 over Q and over every field, and many
quotient maps koszul builds are of this kind (the union of the stars of the
apexes is often most of the block): certified_rank checks the primes
(check_primes) and returns its certificate without eliminating.

The elimination kernel runs over Z/N for any modulus N, and certification
runs it once with N the product of the distinct primes.  By the Chinese
remainder theorem Z/N is the product of the fields F_p, and a unit of Z/N is
nonzero in every one of them.  While every chosen pivot is a unit, each step
is therefore a valid elimination step in each field at once, and at the end
every remaining entry is zero in all of them: each field's rank is exactly
the pivot count, as separate runs per prime would find.  A unit pivot of
the peel is a single nonzero entry of its row or column in every field at
once, so the peel is valid in each field just as a fill-making step is.  A
pivot that is not a unit (nonzero mod some primes, zero mod another), in
the peel or in the core, ends the joint run, and the ranks are then taken
one prime at a time.

The kernel keeps each entry as a signed residue in (-N, N) and reduces it
mod N only when it leaves that range, so an entry is zero mod N iff it is
0: the zero pattern, and with it every pivot choice and rank, is that of
elimination on residues in [0, N).  Every entry of a Koszul map is +-1, a
+-1 pivot is its own inverse, and fill values rarely leave +-1, so nearly
every update multiplies small ints where residues in [0, N) would multiply
62-bit ones and reduce.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from functools import lru_cache
from math import gcd, prod

from .arith import PrimeField
from .records import FrozenRecord, set_field


class InvariantError(Exception):
    """A proved identity failed, so some computed value is wrong.

    Raised instead of asserted: the checks that guard results must still
    run under `python -O`.
    """


class NonUnitPivot(ArithmeticError):
    """A pivot chosen mod a composite modulus has no inverse."""


class SparseMatrix(FrozenRecord):
    """Immutable matrix over the integers, stored as its list of columns.

    columns[c] is a tuple of (row, value) pairs, a value of 0 being no
    entry; there are len(columns) columns, and nnz counts the pairs.
    Nothing is checked here: the rank kernels check the entries (see the
    module notes).
    """

    _fields = ("rows", "columns")

    def __init__(self, rows: int, columns: tuple):
        set_field(self, "rows", rows)
        set_field(self, "columns", columns)

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))


def rank_mod_p(m: SparseMatrix, field: PrimeField) -> int:
    """Rank of m over F_p by sparse elimination: single-entry pivots first,
    which make no fill, then Markowitz pivoting on the core they leave (see
    _rank_mod).  Deterministic for a given matrix and field."""
    return _rank_mod(m, field.modulus)


def _rank_mod(m: SparseMatrix, modulus: int) -> int:
    """Pivot count of sparse elimination of m over Z/modulus.

    The elimination runs on the transpose: each column of m is one of its
    rows, and the rank is the same.  It peels first: while a row or a
    column of the transpose has one live entry, that entry is the pivot,
    and its row and column are deleted.  The pivot is alone in its row, so
    eliminating with it subtracts nothing from another row but its entry
    in the pivot column; or it is alone in its column, so there is nothing
    to eliminate.  Either way no entry is made or changed: no fill.  A unit
    pivot is nonzero in each field of Z/modulus, so the step is the same
    in all of them.  Only the core that is left, if any, goes to
    _markowitz.  Both take their pivots in an order fixed by the matrix, so
    the kernel is fully deterministic for a given matrix and modulus.  For
    a prime modulus this is the rank; for a composite one it raises
    NonUnitPivot when a chosen pivot, in the peel or in the core, is not a
    unit (see the module notes).

    The set-up is the one check of m's entries: an entry zero mod modulus
    is no entry, and a row out of range, or repeated in a column after an
    entry nonzero over Z, raises InvariantError, whatever the modulus, as
    in rank_exact.  An entry nonzero over Z but zero mod modulus is listed
    nowhere, so a repeat after it is found by a scan of the rest of its
    column; no Koszul map, whose entries are +-1, has such an entry.
    """
    neg, nrows = -modulus, m.rows
    # live entries per row of the transpose (a column of m) and per column
    # (a row of m), and the rows with an entry in each column; an entry
    # zero mod modulus is never counted or listed
    row_count = [0] * m.cols
    col_count = [0] * nrows
    col_lists = [[] for _ in range(nrows)]
    for r, column in enumerate(m.columns):
        k = 0
        for c, v in column:
            if not 0 <= c < nrows:
                raise InvariantError(f"row {c} of column {r} is outside a {nrows}-row matrix")
            rows_of = col_lists[c]
            if rows_of and rows_of[-1] == r:
                raise InvariantError(f"row {c} is repeated in column {r}")
            if v if neg < v < modulus else v % modulus:
                rows_of.append(r)
                col_count[c] += 1
                k += 1
            elif v and any(c2 == c for c2, _ in column[column.index((c, v)) + 1:]):
                # nonzero over Z but no entry mod modulus: listed nowhere
                raise InvariantError(f"row {c} is repeated in column {r}")
        row_count[r] = k

    # the peel: deleting a lone entry's column takes one entry from each
    # other row there, deleting its row one from each other column there
    lone_rows = [r for r, k in enumerate(row_count) if k == 1]
    lone_cols = [c for c, k in enumerate(col_count) if k == 1]
    rank = 0
    while lone_rows or lone_cols:
        if lone_rows:
            r = lone_rows.pop()
            if row_count[r] != 1:
                continue    # emptied, or taken by a column's peel
            c, v = next((c, v) for c, v in m.columns[r]
                        if col_count[c] and (v if neg < v < modulus else v % modulus))
            row_count[r] = col_count[c] = 0
            for r2 in col_lists[c]:
                k = row_count[r2]
                if k:
                    row_count[r2] = k - 1
                    if k == 2:
                        lone_rows.append(r2)
        else:
            c = lone_cols.pop()
            if col_count[c] != 1:
                continue
            r = next(r for r in col_lists[c] if row_count[r])
            row_count[r] = col_count[c] = 0
            for c2, v2 in m.columns[r]:
                if c2 == c:
                    v = v2
                elif (k := col_count[c2]) and (v2 if neg < v2 < modulus else v2 % modulus):
                    col_count[c2] = k - 1
                    if k == 2:
                        lone_cols.append(c2)
        if v != 1 and v != -1 and gcd(v, modulus) != 1:
            raise NonUnitPivot(f"pivot {v} is not a unit mod {modulus}")
        rank += 1

    core = {r: {c: v for c, v0 in m.columns[r]
                if col_count[c] and (v := v0 if neg < v0 < modulus else v0 % modulus)}
            for r, k in enumerate(row_count) if k}
    return rank + _markowitz(core, modulus) if core else rank


def _markowitz(rows: dict, modulus: int) -> int:
    """Pivot count of sparse elimination over Z/modulus of `rows`,
    {row: {column: value}}, its values nonzero signed residues in
    (-modulus, modulus); `rows` is consumed.

    The pivot row is the sparsest remaining row (ties by row id, kept in a
    heap); within it the entry minimizing the Markowitz fill estimate
    (row_nnz - 1) * (col_nnz - 1) is chosen, ties by column id.
    Restricting the candidate search to one minimal row keeps pivoting
    near-linear while retaining the fill behaviour of the full search on
    these +-1 incidence matrices.  The pivot row is scaled once by
    -1/pivot, and a +-1 pivot is its own inverse; any other goes through
    pow, which refuses a non-unit with NonUnitPivot.
    """
    neg = -modulus
    col_rows = defaultdict(set)
    for r, row in rows.items():
        for c in row:
            col_rows[c].add(r)

    heap = [(len(cols), r) for r, cols in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        ln, r = heapq.heappop(heap)
        cols = rows.get(r)
        if cols is None or len(cols) != ln:
            continue  # stale: a row whose length changes gets a new entry
        # the least (row_nnz - 1) * (col_nnz - 1): row_nnz is fixed, and a
        # row with one entry has one candidate
        best = pc = None
        for c in cols:
            k = len(col_rows[c])
            if best is None or k < best or (k == best and c < pc):
                best, pc = k, c
        del rows[r]
        pivot = cols.pop(pc)
        if pivot == 1 or pivot == -1:
            scale = -pivot
        else:
            try:
                scale = -pow(pivot, -1, modulus)
            except ValueError:
                raise NonUnitPivot(f"pivot {pivot} is not a unit mod {modulus}") from None
        pivot_items = [(c, w if neg < (w := v * scale) < modulus else w % modulus)
                       for c, v in cols.items()]
        for c in cols:
            col_rows[c].discard(r)
        col_rows[pc].discard(r)
        for r2 in col_rows.pop(pc):
            target = rows[r2]
            ln2 = len(target)
            factor = target.pop(pc)
            for c, w in pivot_items:
                old = target.get(c)
                if old is None:
                    nv = factor * w
                    if not neg < nv < modulus:
                        nv %= modulus
                    if nv:
                        target[c] = nv
                        col_rows[c].add(r2)
                else:
                    nv = old + factor * w
                    if not neg < nv < modulus:
                        nv %= modulus
                    if nv:
                        target[c] = nv
                    else:
                        del target[c]
                        col_rows[c].discard(r2)
            if not target:
                del rows[r2]
            elif len(target) != ln2:    # else its heap entry is still current
                heapq.heappush(heap, (len(target), r2))
        rank += 1
    return rank


def rank_exact(m: SparseMatrix) -> int:
    """Rank over the rationals via Bareiss fraction-free elimination of the
    transpose, one row per column of m.

    All intermediate entries are minors of the original integer matrix, so
    divisions are exact and no rounding can occur.  The set-up checks m's
    entries as _rank_mod's does: 0 is no entry, and a row out of range, or
    repeated after a nonzero entry, raises InvariantError.
    """
    a = [[0] * m.rows for _ in m.columns]
    for c, (row, column) in enumerate(zip(a, m.columns)):
        for r, v in column:
            if not 0 <= r < m.rows or row[r]:
                raise InvariantError(f"row {r} of column {c} is out of range or repeated")
            row[r] = v
    nrows, ncols = m.cols, m.rows
    prev = 1
    r = 0       # the rank so far
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
    return r


class RankCertificate(FrozenRecord):
    """Outcome of a certified rank computation.

    `exact` means the rational rank was computed outright; otherwise `rank`
    is the max over the listed primes and `agreement` records whether they
    all matched (they can only undercount, so the max is the best estimate).
    """

    _fields = ("rank", "primes", "agreement", "exact")

    def __init__(self, rank: int, primes: tuple, agreement: bool, exact: bool):
        set_field(self, "rank", rank)
        set_field(self, "primes", primes)
        set_field(self, "agreement", agreement)
        set_field(self, "exact", exact)


@lru_cache
def _field(p: int) -> PrimeField:
    """The field of p, checked prime once per process rather than per call."""
    return PrimeField(p)


def check_primes(primes) -> None:
    """Refuse any of the primes that is not a prime of 31 to 62 bits."""
    for p in primes:
        _field(p)


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


def certified_rank(m: SparseMatrix, primes, exact: bool) -> RankCertificate:
    """Rank of m with a certification level, for any number of primes.

    The caller picks the route.  On the exact route the rational rank is
    computed outright, and each prime's modular rank is checked against it
    (modular can never exceed exact).  On the modular route there are
    modular ranks only, and `agreement` needs two primes or more that agree,
    so a one-prime estimate is never certified, and a route with no prime is
    refused.  A map without entries is not eliminated, but its primes are
    still checked.
    """
    primes = tuple(primes)
    if not exact and not primes:
        raise ValueError("the modular route needs at least one prime")
    if not any(m.columns):      # no entries: rank 0 over Q and every field
        check_primes(primes)
        return RankCertificate(0, primes, exact or len(primes) > 1, exact)
    if exact:
        rank = rank_exact(m)
        for p, modular in zip(primes, _modular_ranks(m, primes) if primes else ()):
            if modular > rank:
                raise InvariantError(
                    f"rank mod {p} is {modular}, above the exact rank {rank} "
                    f"of a {m.rows}x{m.cols} block"
                )
            if modular < rank:
                import logging      # loaded only to warn: importing it is costly
                logging.getLogger(__name__).warning(
                    "prime %d undercounts rank (%d < %d) on a %dx%d block",
                    p, modular, rank, m.rows, m.cols,
                )
        return RankCertificate(rank, primes, True, True)
    ranks = _modular_ranks(m, primes)
    agreement = len(set(ranks)) == 1
    if not agreement:
        import logging
        logging.getLogger(__name__).warning(
            "rank disagreement across primes %s: %s on a %dx%d block",
            primes, ranks, m.rows, m.cols,
        )
    return RankCertificate(max(ranks), primes, agreement and len(ranks) > 1, False)
