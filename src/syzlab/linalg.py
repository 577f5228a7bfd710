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
undercounted ranks can only overcount.

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
import random
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


def _berlekamp_massey(seq, p):
    """Minimal generating polynomial (monic, low-to-high coeffs) of seq mod p."""
    c = [1]
    b = [1]
    l, m, bb = 0, 1, 1
    for i, s in enumerate(seq):
        delta = s
        for j in range(1, l + 1):
            delta = (delta + c[j] * seq[i - j]) % p
        if delta == 0:
            m += 1
        elif 2 * l <= i:
            t = list(c)
            coef = delta * pow(bb, -1, p) % p
            c += [0] * (len(b) + m - len(c))
            for j, bv in enumerate(b):
                c[j + m] = (c[j + m] - coef * bv) % p
            l = i + 1 - l
            b = t
            bb = delta
            m = 1
        else:
            coef = delta * pow(bb, -1, p) % p
            c += [0] * (len(b) + m - len(c))
            for j, bv in enumerate(b):
                c[j + m] = (c[j + m] - coef * bv) % p
            m += 1
    while c and c[-1] == 0:
        c.pop()
    # Reverse to get the connection polynomial monic in the leading term.
    rev = list(reversed(c))
    lead_inv = pow(rev[-1], -1, p)
    return [x * lead_inv % p for x in rev]


def _poly_mod(a, b, p):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv = pow(b[-1], -1, p)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv % p
        shift = len(a) - 1 - db
        for i, bv in enumerate(b):
            a[i + shift] = (a[i + shift] - coef * bv) % p
        while a and a[-1] == 0:
            a.pop()
    return a if a else [0]


def _poly_lcm(f, g, p):
    if f == [0] or len(f) == 1:
        return g
    if g == [0] or len(g) == 1:
        return f
    a, b = list(f), list(g)
    while any(b):
        a, b = b, _poly_mod(a, b, p)
    gcd = a
    # lcm = f * g / gcd; polynomial long multiplication then division.
    prod = [0] * (len(f) + len(g) - 1)
    for i, fv in enumerate(f):
        if fv:
            for j, gv in enumerate(g):
                prod[i + j] = (prod[i + j] + fv * gv) % p
    quot = _poly_divide_exact(prod, gcd, p)
    return quot


def _poly_divide_exact(a, b, p):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    for k in range(len(out) - 1, -1, -1):
        coef = a[k + len(b) - 1] * inv % p
        out[k] = coef
        if coef:
            for i, bv in enumerate(b):
                a[k + i] = (a[k + i] - coef * bv) % p
    assert not any(a), "inexact polynomial division"
    return out


def rank_mod_p_wiedemann(m: SparseMatrix, field: PrimeField, seed: int = 0) -> int:
    """Black-box rank via the Wiedemann minimal-polynomial method.

    Preconditions the matrix with random diagonal scalings D1, D2, forms
    M = (D1*A*D2)^T (D1*A*D2), and recovers deg(minpoly) from the Krylov
    sequence u^T M^i w by Berlekamp-Massey.  For random diagonals the rank is
    deg(minpoly) - 1 when x divides it, deg(minpoly) otherwise, with failure
    probability O(n/p).  Kept as an independent backend for cross-checks.
    """
    p = field.modulus
    if m.nnz == 0:
        return 0
    rng = random.Random(0x9E3779B1 * (seed + 1) + m.rows * 131 + m.cols * 31 + p % 97)
    d1 = [rng.randrange(1, p) for _ in range(m.rows)]
    d2 = [rng.randrange(1, p) for _ in range(m.cols)]
    scaled = [(r, c, d1[r] * v * d2[c] % p) for r, c, v in m.entries]
    scaled = [(r, c, v) for r, c, v in scaled if v]
    n = m.cols

    def apply_m(w):
        mid = [0] * m.rows
        for r, c, v in scaled:
            mid[r] = (mid[r] + v * w[c]) % p
        out = [0] * n
        for r, c, v in scaled:
            out[c] = (out[c] + v * mid[r]) % p
        return out

    length = 2 * (min(m.rows, m.cols) + 2)
    gen = [1]
    for _ in range(2):
        u = [rng.randrange(p) for _ in range(n)]
        w = [rng.randrange(p) for _ in range(n)]
        seq = []
        vec = w
        for _ in range(length):
            seq.append(sum(ui * vi for ui, vi in zip(u, vec)) % p)
            vec = apply_m(vec)
        gen = _poly_lcm(gen, _berlekamp_massey(seq, p), p)
    deg = len(gen) - 1
    return deg - 1 if gen[0] == 0 else deg


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


def _modular_ranks(m: SparseMatrix, primes: tuple, backend: str) -> list:
    """The rank of m mod each prime, in order.

    Elimination runs once modulo the product of the distinct primes and
    falls back to one run per prime on a non-unit pivot (see the module
    notes); Wiedemann runs per prime.
    """
    fields = [_field(p) for p in primes]
    if backend == "wiedemann":
        return [rank_mod_p_wiedemann(m, f) for f in fields]
    try:
        rank = _rank_mod(m, prod(set(primes)))
    except NonUnitPivot:
        return [rank_mod_p(m, f) for f in fields]
    return [rank] * len(primes)


def certified_rank(
    m: SparseMatrix,
    primes,
    exact_threshold: int = 0,
    backend: str = "elimination",
) -> RankCertificate:
    """Rank with a certification level.

    Requires at least two primes; single-prime estimates are deliberately a
    different, lower-trust code path so they cannot masquerade as certified.
    Matrices with rows*cols <= exact_threshold take the rational path, and
    the modular ranks are checked against it (modular can never exceed exact).
    """
    primes = tuple(primes)
    if len(primes) < 2:
        raise ValueError("certified_rank needs at least two primes")
    if m.nnz == 0:
        return RankCertificate(0, primes, True, True)
    if m.rows * m.cols <= exact_threshold:
        exact = rank_exact(m)
        for p, modular in zip(primes, _modular_ranks(m, primes, backend)):
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
    ranks = _modular_ranks(m, primes, backend)
    agreement = len(set(ranks)) == 1
    if not agreement:
        logger.warning(
            "rank disagreement across primes %s: %s on a %dx%d block",
            primes, ranks, m.rows, m.cols,
        )
    return RankCertificate(max(ranks), primes, agreement, False)
