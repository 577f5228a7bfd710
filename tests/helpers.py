"""Independent oracles used to pin expected values.

Everything here except the all-weights cell loop at the end is deliberately
written from scratch against the defining formulas, sharing no enumeration
order, no matrix layout and no rank code with the package: monomials come
from combinations_with_replacement in ascending order, matrices are dense,
ranks are Fraction-exact Gaussian elimination.  Slow but unarguable at tiny
sizes.  The all-weights loop is the cell computation as it was before the
orbit reduction; it shares the package's block builder and rank code on
purpose, so that comparing against it tests the reduction and nothing else.
Likewise the block build on full (wedge, tensor) keys is the build as it
was before blocks were keyed by wedge alone, and full_complex and
kpq_dim_unblocked at the end take the whole three-term complex, with no
weight decomposition, through the package's term and exact-rank code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from syzlab import ENGINE_VERSION, betti
from syzlab.koszul import DEFAULT_MEMORY_CAP, KoszulCell, Parameters, _delta_terms
from syzlab.linalg import SparseMatrix, rank_exact
from syzlab.monomials import exponent_vectors


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


class AllWeightsCell(KoszulCell):
    """A KoszulCell that groups and builds every weight, not only the
    dominant ones."""

    def _grouped(self, wedge_size, tensor_degree):
        par = self.params
        groups = {}
        if wedge_size < 0 or wedge_size > par.v:
            return groups
        exps = self.basis_d.monomials
        for wedge in itertools.combinations(range(par.v), wedge_size):
            s = (0,) * (par.n + 1)
            for i in wedge:
                s = tuple(a + c for a, c in zip(s, exps[i]))
            for t in brute_monomials(par.n, tensor_degree):
                w = tuple(a + c for a, c in zip(s, t))
                groups.setdefault(w, []).append((wedge, t))
        return groups

    def _ensure_groups(self):
        if self._middle is None:
            par = self.params
            self._middle = self._grouped(par.p, par.middle_degree)
            self._source = self._grouped(par.p + 1, par.source_degree)

    def block(self, weight):
        self._ensure_groups()
        return self._build(weight, self._middle.get(weight, []),
                           self._source.get(weight, []))


def all_weights_cell(n, b, d, p, q, config, cell_class=AllWeightsCell) -> dict:
    """(dim, level, agreement, block_count, max_block_dim) of a cell from
    every weight block in turn, descending lex, as a dict."""
    if betti._analytic_zero_reason(n, b, d, p, q) is not None:
        return {"dim": 0, "level": betti.LEVEL_EXACT, "agreement": True,
                "block_count": 0, "max_block_dim": 0}
    cell = cell_class(Parameters(n=n, b=b, d=d, p=p, q=q), config.memory_cap)
    dim = block_count = max_block = 0
    all_exact = all_agree = True
    for block in cell.iter_blocks():
        r_in, r_out, exact, agree = betti._block_ranks(block, config)
        assert r_in + r_out <= block.mid_dim
        dim += block.mid_dim - r_in - r_out
        block_count += 1
        max_block = max(max_block, block.mid_dim)
        all_exact = all_exact and exact
        all_agree = all_agree and agree
    if all_exact:
        level = betti.LEVEL_EXACT
    else:
        level = (betti.LEVEL_TWO_PRIME if config.mode == betti.LEVEL_TWO_PRIME
                 else betti.LEVEL_ONE_PRIME)
    return {"dim": dim, "level": level, "agreement": all_agree,
            "block_count": block_count, "max_block_dim": max_block}


def delta_terms_block(cell: KoszulCell, weight) -> tuple:
    """(d_in, d_out) of the block at a weight, with every basis element keyed
    by its full (wedge, tensor) pair and every term taken from _delta_terms.
    The bases are the cell's own, in its order."""
    cell._ensure_groups()
    dominant = tuple(sorted(weight, reverse=True))
    middle = cell._middle.get(dominant, [])
    source = cell._source.get(dominant, [])
    if tuple(weight) != dominant:
        middle = cell._permuted(middle, weight)
        source = cell._permuted(source, weight)
    exps = cell.basis_d.monomials
    mid_index = {elem: i for i, elem in enumerate(middle)}
    target_index = {}
    out_entries = []
    for col, (wedge, tensor) in enumerate(middle):
        for key, sign in _delta_terms(wedge, tensor, exps):
            out_entries.append((target_index.setdefault(key, len(target_index)), col, sign))
    in_entries = [(mid_index[key], col, sign)
                  for col, (wedge, tensor) in enumerate(source)
                  for key, sign in _delta_terms(wedge, tensor, exps)]
    return (SparseMatrix(len(middle), len(source), tuple(in_entries)),
            SparseMatrix(len(target_index), len(middle), tuple(out_entries)))


def append_records(directory, q, count):
    """Put `count` made-up records with distinct keys (p = 0..count-1 at
    strand q) into the store at `directory`; a child-process target."""
    store = betti.ResultStore(directory)
    for p in range(count):
        store.put({"n": 1, "b": 0, "d": 2, "p": p, "q": q, "dim": p, "level": "exact",
                   "agreement": True, "primes": [],
                   "exact_threshold": 256, "engine_version": ENGINE_VERSION,
                   "wall_time_ms": 0, "block_count": 1, "max_block_dim": 1,
                   "analytic": False})


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
    out_entries = []
    for col, (wedge, tensor) in enumerate(middle):
        for key, sign in _delta_terms(wedge, tensor, exps):
            row = target_index.setdefault(key, len(target_index))
            out_entries.append((row, col, sign))
    d_out = SparseMatrix(len(target_index), len(middle), tuple(out_entries))

    in_entries = []
    for col, (wedge, tensor) in enumerate(source):
        for key, sign in _delta_terms(wedge, tensor, exps):
            in_entries.append((mid_index[key], col, sign))
    d_in = SparseMatrix(len(middle), len(source), tuple(in_entries))
    return d_in, d_out, len(middle)


def kpq_dim_unblocked(n, b, d, p, q, memory_cap: int = DEFAULT_MEMORY_CAP) -> int:
    """Cross-check path: exact cohomology of the full complex, no weight
    decomposition.  Only for tiny instances."""
    if betti._analytic_zero_reason(n, b, d, p, q) is not None:
        return 0
    params = Parameters(n=n, b=b, d=d, p=p, q=q)
    d_in, d_out, mid = full_complex(params, memory_cap)
    return mid - rank_exact(d_in) - rank_exact(d_out)
