"""Independent oracles used to pin expected values.

Everything here except the all-weights cell loop at the end is deliberately
written from scratch against the defining formulas, sharing no enumeration
order, no matrix layout and no rank code with the package: monomials come
from combinations_with_replacement in ascending order, matrices are dense,
ranks are Fraction-exact Gaussian elimination.  Slow but unarguable at tiny
sizes.  The all-weights loop is the cell computation as it was before the
orbit reduction, on whole blocks (AllWeightsCell) or on the star quotients
the engine ranks (AllWeightsStarCell), and UnreducedCell builds each whole
weight block as the engine did before it ranked blocks on their star
quotients; they share the
package's grouping, memory check and rank code on purpose, so that
comparing against them tests the reduction and nothing else.  Likewise the
block build on full (wedge, tensor) keys is the build as it was before
blocks were keyed by wedge alone, with the star union taken from full keys,
and full_complex and kpq_dim_unblocked at the end take the whole three-term
complex, with no weight decomposition, through the package's term and
exact-rank code.  grouped_all_pairs is the dominant grouping as it was
before it was indexed by wedge sum: every wedge against every tensor, one
(wedge, tensor) element at a time.  A cell's groups hold (packed tensor,
wedges) classes; wedges_of and elements read them back as wedges, or as
(wedge, tensor) elements, an element's tensor being the weight less its
wedge sum.  iter_blocks and iter_ranked walk one cell's dominant weights
alone: every block built, or what the pass would rank there.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add, ge, sub

from syzlab import ENGINE_VERSION, betti
from syzlab.arith import random_prime
from syzlab.koszul import (
    DEFAULT_MEMORY_CAP,
    KoszulBlock,
    KoszulCell,
    Parameters,
    _delta_terms,
    _faces,
    _pack,
)
from syzlab.linalg import SparseMatrix, rank_exact
from syzlab.monomials import exponent_vectors


def default_primes(count: int = 2, bits: int = betti.DEFAULT_PRIME_BITS) -> tuple:
    """The engine's standard certification primes, seeds 0, 1, ..."""
    return tuple(random_prime(bits, seed) for seed in range(count))


def from_dense(a) -> SparseMatrix:
    """The SparseMatrix of a dense list of rows."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return SparseMatrix(rows, tuple(
        tuple((r, a[r][c]) for r in range(rows) if a[r][c]) for c in range(cols)))


def to_dense(m: SparseMatrix) -> list:
    """The dense list of rows of a SparseMatrix."""
    a = [[0] * m.cols for _ in range(m.rows)]
    for c, column in enumerate(m.columns):
        for r, v in column:
            a[r][c] = v
    return a


def lo_hi(predicted) -> tuple:
    """(lo, hi) of a bounds.PredictedRange."""
    return (predicted.lo, predicted.hi)


def fraction_rank(dense) -> int:
    rows = [[Fraction(x) for x in row] for row in dense]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def brute_monomials(n, e):
    """Exponent tuples of degree e in n+1 variables, ascending order."""
    if e < 0:
        return []
    seen = set()
    for combo in itertools.combinations_with_replacement(range(n + 1), e):
        exp = [0] * (n + 1)
        for i in combo:
            exp[i] += 1
        seen.add(tuple(exp))
    return sorted(seen)


def _brute_delta_dense(n, d, k, e):
    """Dense matrix of the Koszul differential
    Wedge^k(S^d) (x) S^e -> Wedge^{k-1}(S^d) (x) S^{e+d}."""
    V = brute_monomials(n, d)
    src = [
        (w, t)
        for w in itertools.combinations(range(len(V)), k)
        for t in brute_monomials(n, e)
    ]
    tgt = [
        (w, t)
        for w in itertools.combinations(range(len(V)), max(k - 1, 0))
        for t in brute_monomials(n, e + d)
    ] if k >= 1 else []
    tgt_idx = {x: i for i, x in enumerate(tgt)}
    rows = [[0] * len(src) for _ in range(len(tgt))]
    for j, (w, t) in enumerate(src):
        for pos in range(k):
            nw = w[:pos] + w[pos + 1:]
            nt = tuple(a + b for a, b in zip(t, V[w[pos]]))
            rows[tgt_idx[(nw, nt)]][j] += (-1) ** pos
    return rows, len(src)


def brute_kpq(n, b, d, p, q) -> int:
    """dim K_{p,q} from the full complex, Fraction-exact, no weight blocks."""
    if p < 0:
        return 0
    d_out, mid = _brute_delta_dense(n, d, p, q * d + b)
    d_in, _ = _brute_delta_dense(n, d, p + 1, (q - 1) * d + b)
    r_out = fraction_rank(d_out) if p >= 1 else 0
    # d_in maps into the middle space; its rank is the image dimension there.
    r_in = fraction_rank(d_in)
    return mid - r_in - r_out


def brute_hilbert_numerator(n, b, d, jmax):
    """Coefficients of (sum_m binom(md+b+n, n) t^m) * (1-t)^v via explicit
    polynomial convolution with a locally built Pascal triangle.  The series
    runs over every m with md + b >= 0, found by stepping down from m = 0,
    and so does the output: entry i is the coefficient of t^(m_lo + i)."""
    # Pascal triangle rows up to v.
    import math

    v = math.comb(d + n, n)
    pascal = [[1]]
    for _ in range(v):
        prev = pascal[-1]
        pascal.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    sign_binoms = [(-1) ** k * pascal[v][k] for k in range(v + 1)]
    m_lo = 0
    while (m_lo - 1) * d + b >= 0:
        m_lo -= 1
    series = [math.comb(m * d + b + n, n) for m in range(m_lo, jmax + 1)]
    out = []
    for i in range(len(series)):
        acc = 0
        for k in range(min(i, v) + 1):
            acc += sign_binoms[k] * series[i - k]
        out.append(acc)
    return out


def brute_ssyt_count(shape, content) -> int:
    """Count semistandard tableaux by direct backtracking over fillings."""
    shape = tuple(x for x in shape if x)
    content = tuple(x for x in content if x)
    if sum(shape) != sum(content):
        return 0
    letters = len(content)
    rows = [[0] * ln for ln in shape]
    remaining = list(content)
    cells = [(i, j) for i, ln in enumerate(shape) for j in range(ln)]

    def ok(i, j, val):
        if j > 0 and rows[i][j - 1] > val:
            return False
        if i > 0 and len(rows[i - 1]) > j and rows[i - 1][j] >= val:
            return False
        return True

    def rec(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for val in range(1, letters + 1):
            if remaining[val - 1] and ok(i, j, val):
                rows[i][j] = val
                remaining[val - 1] -= 1
                total += rec(idx + 1)
                remaining[val - 1] += 1
                rows[i][j] = 0
        return total

    return rec(0)


def iter_blocks(cell: KoszulCell):
    """The blocks of a cell at its dominant weights, in the order of
    weights(), each built alone."""
    for w in cell.weights():
        yield cell.block(w)


def iter_ranked(cell: KoszulCell):
    """What the pass ranks at each dominant weight of a cell alone, in the
    order of weights(): the block, or where the quotient has no middle
    element, and ranked() makes none, a block without maps on the unreduced
    counts."""
    for w in cell.weights():
        unreduced, block, _ = cell.ranked(w)
        yield block or KoszulBlock(w, *unreduced)


class UnreducedCell(KoszulCell):
    """A KoszulCell whose blocks are the whole weight blocks, as built before
    each block was reduced by a vertex star: full bases, full matrices, and
    the d_out . d_in = 0 check on the full matrices.  It settles no weight,
    and neither gives nor takes a map at a weight: the pass builds each of
    its blocks whole."""

    def ranked(self, weight, given=None):
        block = self.block(weight)
        return (block.full_mid_dim, block.full_src_dim, block.full_middle), block, None

    def _build(self, weight, kept, d_out=None):
        # the scan made the cap check; the whole block ignores its star
        full_middle = self._middle.get(weight, [])
        middle, source = wedges_of(full_middle), wedges_of(self._source.get(weight, []))
        mid_index = {wedge: i for i, wedge in enumerate(middle)}
        target_index = {}
        out_columns = tuple(
            tuple((target_index.setdefault(face, len(target_index)), sign)
                  for _, face, sign in _faces(wedge))
            for wedge in middle)
        d_out = SparseMatrix(len(target_index), out_columns)
        d_in = SparseMatrix(len(middle), tuple(
            tuple((mid_index[face], sign) for _, face, sign in _faces(wedge))
            for wedge in source))
        self._check_composition_zero(d_out, d_in, weight)
        return KoszulBlock(
            weight=weight, d_in=d_in, d_out=d_out,
            full_mid_dim=len(middle), full_src_dim=len(source), full_middle=full_middle,
        )


def counts(groups) -> dict:
    """{weight: number of elements in its classes}."""
    return {w: len(wedges_of(group)) for w, group in groups.items()}


def wedges_of(group) -> list:
    """The wedges of a group's (packed tensor, wedges) classes, in order."""
    return [wedge for _, wedges in group for wedge in wedges]


def elements(cell: KoszulCell, weight, group) -> list:
    """The (wedge, tensor) elements of a group's classes at a weight, in
    order: an element's tensor is the weight less its wedge sum."""
    exps = cell.basis_d.monomials
    out = []
    for wedge in wedges_of(group):
        tensor = tuple(weight)
        for i in wedge:
            tensor = tuple(map(sub, tensor, exps[i]))
        out.append((wedge, tensor))
    return out


def grouped_all_pairs(cell: KoszulCell, wedge_size: int, tensor_degree: int) -> dict:
    """KoszulCell._grouped by testing every wedge against every tensor:
    s + t is dominant iff each gap t_i - t_(i+1) covers s_(i+1) - s_i.
    Each weight's group is a list of (wedge, tensor) elements, in wedge
    order; `elements` lists a cell's classes the same way."""
    par = cell.params
    groups = {}
    if wedge_size < 0 or wedge_size > par.v:
        return groups
    tensors = exponent_vectors(par.n, tensor_degree)
    gaps = [(t, tuple(map(sub, t, t[1:]))) for t in tensors]
    exps = cell.basis_d.monomials
    for wedge in itertools.combinations(range(par.v), wedge_size):
        s = (0,) * (par.n + 1)
        for i in wedge:
            s = tuple(map(add, s, exps[i]))
        need = tuple(map(sub, s[1:], s))
        for t, gap in gaps:
            if all(map(ge, gap, need)):
                groups.setdefault(tuple(map(add, s, t)), []).append((wedge, t))
    return groups


class _AllWeights:
    """Mixed in ahead of a cell class: groups and builds every weight, not
    only the dominant ones."""

    def _grouped(self, wedge_size, tensor_degree):
        # one class per element, its tensor packed as the cell packs it
        par = self.params
        groups = {}
        if wedge_size < 0 or wedge_size > par.v:
            return groups
        exps = self.basis_d.monomials
        tensors = [(t, _pack(t, self._width) + self._guards)
                   for t in brute_monomials(par.n, tensor_degree)]
        for wedge in itertools.combinations(range(par.v), wedge_size):
            s = (0,) * (par.n + 1)
            for i in wedge:
                s = tuple(map(add, s, exps[i]))
            for t, packed in tensors:
                groups.setdefault(tuple(map(add, s, t)), []).append((packed, [wedge]))
        return groups

    def _ensure_groups(self):
        if self._middle is None:
            par = self.params
            self._middle = self._grouped(par.p, par.middle_degree)
            self._source = self._grouped(par.p + 1, par.source_degree)
            self._middle_counts, self._source_counts = counts(self._middle), counts(self._source)

    def block(self, weight):
        self._ensure_groups()
        weight = tuple(weight)
        return self._build(weight, self._scan(weight))


class AllWeightsCell(_AllWeights, UnreducedCell):
    """Every weight block, each built whole."""


class AllWeightsStarCell(_AllWeights, KoszulCell):
    """Every weight block, each built as the engine builds a dominant one:
    as its quotient by the union of the stars of its apexes."""


def all_weights_cell(n, b, d, p, q, config, cell_class=AllWeightsCell) -> dict:
    """(dim, level, agreement, block_count, max_block_dim) of a cell from
    every weight block in turn, descending lex, as a dict.  Asserts the
    premise of the orbit reduction on the way: each block's contribution and
    flags are those of the block at its dominant rearrangement."""
    if betti._analytic_zero_reason(n, b, d, p, q) is not None:
        return {"dim": 0, "level": betti.LEVEL_EXACT, "agreement": True,
                "block_count": 0, "max_block_dim": 0}
    cell = cell_class(Parameters(n=n, b=b, d=d, p=p, q=q), config.memory_cap)
    dim = block_count = max_block = 0
    all_exact = all_agree = True
    dominant = {}    # dominant weight -> (contribution, exact, agreement)
    for block in iter_blocks(cell):
        r_in, r_out, exact, agree = betti._block_ranks(block, config, {}, {})
        assert r_in + r_out <= block.mid_dim
        ranked = (block.mid_dim - r_in - r_out, exact, agree)
        orbit = tuple(sorted(block.weight, reverse=True))
        assert dominant.setdefault(orbit, ranked) == ranked, (block.weight, orbit)
        dim += ranked[0]
        block_count += 1
        max_block = max(max_block, block.full_mid_dim)
        all_exact = all_exact and exact
        all_agree = all_agree and agree
    level = betti.LEVEL_EXACT if all_exact else config.mode
    return {"dim": dim, "level": level, "agreement": all_agree,
            "block_count": block_count, "max_block_dim": max_block}


def delta_terms_block(cell: KoszulCell, weight) -> tuple:
    """(d_in, d_out) of the block at a weight on its quotient by the union of
    the stars of its apexes, with every basis element keyed by its full
    (wedge, tensor) pair and every term taken from _delta_terms.  The apexes
    are taken in basis order: each degree-d monomial that divides x^weight
    and shares no variable with the apexes before it.  An element lies in
    the star union when its wedge holds an apex or an apex divides its
    tensor.  The bases are the cell's own, in its order, less the star
    union."""
    cell._ensure_groups()
    middle = elements(cell, weight, cell._middle.get(tuple(weight), []))
    source = elements(cell, weight, cell._source.get(tuple(weight), []))
    exps = cell.basis_d.monomials
    apexes, used = [], set()
    for i, m in enumerate(exps):
        support = {k for k, e in enumerate(m) if e}
        if not support & used and all(a >= c for a, c in zip(weight, m)):
            apexes.append(i)
            used |= support

    def kept(key):
        wedge, tensor = key
        return not any(apex in wedge or all(a >= c for a, c in zip(tensor, exps[apex]))
                       for apex in apexes)

    middle = [elem for elem in middle if kept(elem)]
    source = [elem for elem in source if kept(elem)]
    mid_index = {elem: i for i, elem in enumerate(middle)}
    target_index = {}
    out_columns = tuple(
        tuple((target_index.setdefault(key, len(target_index)), sign)
              for key, sign in _delta_terms(wedge, tensor, exps) if kept(key))
        for wedge, tensor in middle)
    in_columns = tuple(
        tuple((mid_index[key], sign)
              for key, sign in _delta_terms(wedge, tensor, exps) if kept(key))
        for wedge, tensor in source)
    return (SparseMatrix(len(middle), in_columns),
            SparseMatrix(len(target_index), out_columns))


def append_records(directory, q, count):
    """Put `count` made-up records with distinct keys (p = 0..count-1 at
    strand q) into the store at `directory`; a child-process target."""
    store = betti.ResultStore(directory)
    config = betti.make_config(betti.LEVEL_EXACT)
    for p in range(count):
        store.put([(betti.ResultStore.key_of(1, 0, 2, p, q, config),
                    {"n": 1, "b": 0, "d": 2, "p": p, "q": q, "dim": p, "level": "exact",
                     "agreement": True, "primes": [],
                     "exact_threshold": 256, "engine_version": ENGINE_VERSION,
                     "wall_time_ms": 0, "block_count": 1, "max_block_dim": 1,
                     "analytic": False})])


def full_complex(params: Parameters, memory_cap: int = DEFAULT_MEMORY_CAP):
    """The unblocked three-term complex, for cross-checks on tiny instances.

    Returns (d_in, d_out, mid_dim) over the full bases with no weight
    decomposition; shares no grouping code with the block path.
    """
    par = params
    cell_guard = KoszulCell(par, memory_cap)  # reuse the feasibility estimate
    exps = cell_guard.basis_d.monomials

    def basis_of(wedge_size, tensor_degree):
        if wedge_size < 0 or wedge_size > par.v:
            return []
        tensors = exponent_vectors(par.n, tensor_degree)
        return [
            (wedge, t)
            for wedge in itertools.combinations(range(par.v), wedge_size)
            for t in tensors
        ]

    middle = basis_of(par.p, par.middle_degree)
    source = basis_of(par.p + 1, par.source_degree)
    mid_index = {elem: i for i, elem in enumerate(middle)}

    target_index = {}
    out_columns = tuple(
        tuple((target_index.setdefault(key, len(target_index)), sign)
              for key, sign in _delta_terms(wedge, tensor, exps))
        for wedge, tensor in middle)
    d_out = SparseMatrix(len(target_index), out_columns)

    d_in = SparseMatrix(len(middle), tuple(
        tuple((mid_index[key], sign) for key, sign in _delta_terms(wedge, tensor, exps))
        for wedge, tensor in source))
    return d_in, d_out, len(middle)


def kpq_dim_unblocked(n, b, d, p, q, memory_cap: int = DEFAULT_MEMORY_CAP) -> int:
    """Cross-check path: exact cohomology of the full complex, no weight
    decomposition.  Only for tiny instances."""
    if betti._analytic_zero_reason(n, b, d, p, q) is not None:
        return 0
    params = Parameters(n=n, b=b, d=d, p=p, q=q)
    d_in, d_out, mid = full_complex(params, memory_cap)
    return mid - rank_exact(d_in) - rank_exact(d_out)
