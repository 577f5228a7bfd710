"""Ranking each block on its quotient by the star union changes no answer.

The engine builds every weight block as its quotient by the union of the
closed stars of its apexes, degree-d monomials with pairwise disjoint
supports, and ranks only that.  The union is acyclic: here its augmented
chain complex is built whole on small weights and found exact.  The oracle
in helpers.py, UnreducedCell, builds the whole block as the engine did
before it took any quotient, and SingleApexCell takes the quotient by the
star of the first apex alone.  Block by block, the contributions
mid - rank(d_in) - rank(d_out) must agree over every field; cell by cell,
every field of the result must agree in every mode, since the route and
the flags come from the unreduced shapes.
"""

from itertools import combinations
from operator import add, ge

import pytest

from syzlab import betti
from syzlab.arith import binom_safe, random_prime
from syzlab.betti import EngineConfig, default_q_lo, make_config
from syzlab.koszul import KoszulCell, Parameters, _faces, _pack
from syzlab.linalg import InvariantError, _rank_mod, rank_exact

from helpers import (AllWeightsCell, AllWeightsStarCell, UnreducedCell, fraction_rank,
                     from_dense)

TABLES = [(1, 1, 4), (2, 0, 3), (2, 1, 3), (3, 0, 2), (2, 1, 2), (1, 2, 2)]
PRIMES = [2, random_prime(31, 0)]


def table_cells(n, b, d):
    v = binom_safe(d + n, n)
    return [(p, q) for q in range(default_q_lo(b, d), n + 2) for p in range(v)
            if betti._analytic_zero_reason(n, b, d, p, q) is None]


def contribution(block, prime) -> int:
    return block.mid_dim - _rank_mod(block.d_in, prime) - _rank_mod(block.d_out, prime)


@pytest.mark.parametrize("nbd", TABLES, ids=lambda nbd: "".join(map(str, nbd)))
def test_quotient_contribution_matches_the_unreduced_block(nbd):
    shrunk = 0
    for p, q in table_cells(*nbd):
        params = Parameters(*nbd, p, q)
        cell, oracle = KoszulCell(params), UnreducedCell(params)
        weights = cell.weights()
        # every dominant block, and one permuted block from the all-weights cells
        pairs = [(cell.block(w), oracle.block(w)) for w in weights]
        w = tuple(reversed(weights[len(weights) // 2]))
        pairs.append((AllWeightsStarCell(params).block(w), AllWeightsCell(params).block(w)))
        for block, full in pairs:
            assert (block.full_mid_dim, block.full_src_dim) == (full.mid_dim, full.src_dim)
            for prime in PRIMES:
                assert contribution(block, prime) == contribution(full, prime), \
                    (nbd, p, q, block.weight, prime)
            shrunk += block.mid_dim < full.mid_dim
    assert shrunk


# The edges of the packed star tests.  K_{0,0} of (1,2,5) has weight total
# 2 < d: its one block has no apex, so nothing is in its star.  (4,0,2)
# packs five fields; its cells with q <= 2 have fields as wide as the rest
# (weight_total has up to 6 bits), whose unreduced blocks take the oracle some
# 40 s.  (1,6,8) has the widest fields of the suite: weight_total up to 86,
# 7 bits.  The field width is what the dominance gaps need (width_term),
# which also holds every exponent a star test meets (see the koszul
# notes).  At K_{0,0} with b = 0 and d = 8 the weight total is 0, and the
# packed monomials overflow their fields: none is read.  At (2,0,1) and
# (2,0,2) one bit less packs some tensor's gaps into the next field and
# loses dominant elements.
EDGES = {
    "125": [Parameters(1, 2, 5, p, q) for p, q in table_cells(1, 2, 5)],
    "402": [Parameters(4, 0, 2, p, q) for p, q in table_cells(4, 0, 2) if q <= 2],
    "168": [Parameters(1, 6, 8, p, q) for p, q in table_cells(1, 6, 8)],
    "K00-d8": [Parameters(n, 0, 8, 0, 0) for n in (1, 2)],
    "201": [Parameters(2, 0, 1, p, q) for p, q in table_cells(2, 0, 1)],
    "202": [Parameters(2, 0, 2, p, q) for p, q in table_cells(2, 0, 2)],
}


def width_term(params) -> int:
    """The bits per field the dominance gaps need."""
    return params.weight_total.bit_length() + 2


class Narrower(KoszulCell):
    """A cell packed one bit narrower per field than the engine packs it."""

    def __init__(self, params):
        super().__init__(params)
        width = self._width = self._width - 1
        self._guards = _pack([1 << (width - 1)] * (params.n + 1), width)
        self._packed = [_pack(m, width) for m in self.basis_d.monomials]


def loses_elements(params) -> bool:
    try:
        Narrower(params).weights()
    except InvariantError as exc:
        assert str(exc).startswith("orbit total"), exc
        return True
    return False


def test_each_width_term_decides_at_an_edge():
    # one term is left, and it is the width at every edge
    for cells in EDGES.values():
        for params in cells:
            assert KoszulCell(params)._width == width_term(params), params
    # it is tight: one bit less loses dominant elements
    assert any(map(loses_elements, EDGES["201"]))
    assert any(map(loses_elements, EDGES["202"]))
    # it is narrower than d where the packed monomials are never read
    assert all(params.d >= 1 << (width_term(params) - 1) for params in EDGES["K00-d8"])


@pytest.mark.parametrize("name", sorted(EDGES))
def test_quotient_contribution_at_the_packing_edges(name):
    no_apex = set()
    for params in EDGES[name]:
        cell, oracle = KoszulCell(params), UnreducedCell(params)
        exps = cell.basis_d.monomials
        for w in cell.weights():
            block, full = cell.block(w), oracle.block(w)
            if not any(all(a >= c for a, c in zip(w, m)) for m in exps):
                assert block.mid_dim == full.mid_dim, (params, w)
                no_apex.add((params.p, params.q))
            for prime in PRIMES:
                assert contribution(block, prime) == contribution(full, prime), \
                    (params, w, prime)
    assert name != "125" or (0, 0) in no_apex


# name: (config, EXACT_THRESHOLD).  The two extremes of the threshold put
# every nonzero map of a two-prime run on the modular route, or every one on
# the exact route.  Under threshold 0 a map routed by its quotient's own
# shape, often zero, would show in the level.
CONFIGS = {
    "two-prime": (make_config(), betti.EXACT_THRESHOLD),
    "exact": (make_config("exact"), betti.EXACT_THRESHOLD),
    "threshold-0": (make_config(), 0),
    "threshold-100000": (make_config(), 100000),
    "primes-2-3": (EngineConfig(primes=(2, 3)), betti.EXACT_THRESHOLD),
}


def cell_fields(n, b, d, p, q, config):
    """The result's fields, or the error it raised (the primes 2 and 3 are
    refused as certification primes, at the first nonzero map)."""
    try:
        res = betti.cell_result(n, b, d, p, q, config)
    except ValueError as exc:
        return ("refused", str(exc))
    return {"dim": res.dim, "level": res.level, "agreement": res.agreement,
            "block_count": res.block_count, "max_block_dim": res.max_block_dim}


# Exact ranks of unreduced blocks (exact mode, threshold 100000) take the
# oracle minutes on the three larger tables, so those run the other modes.
SMALL = [(1, 1, 4), (2, 1, 2), (1, 2, 2), (2, 0, 2)]
CASES = [(nbd, name) for nbd in SMALL for name in sorted(CONFIGS)] + [
    (nbd, name) for nbd in [(2, 0, 3), (2, 1, 3), (3, 0, 2)]
    for name in ["primes-2-3", "threshold-0", "two-prime"]]


@pytest.mark.parametrize("nbd,name", CASES,
                         ids=["".join(map(str, nbd)) + "-" + name for nbd, name in CASES])
def test_every_cell_matches_the_unreduced_engine(nbd, name, monkeypatch):
    config, threshold = CONFIGS[name]
    monkeypatch.setattr(betti, "EXACT_THRESHOLD", threshold)
    cells = table_cells(*nbd)
    new = [cell_fields(*nbd, p, q, config) for p, q in cells]
    monkeypatch.setattr(betti, "KoszulCell", UnreducedCell)
    old = [cell_fields(*nbd, p, q, config) for p, q in cells]
    for (p, q), got, want in zip(cells, new, old):
        assert got == want, (nbd, p, q, name)


class SingleApexCell(KoszulCell):
    """A cell that takes each block's quotient by the star of its first apex
    alone, the first degree-d monomial dividing x^w."""

    def _apex(self, weight):
        apexes, _ = super()._apex(weight)
        first = sorted(apexes)[:1]
        return frozenset(first), tuple([self._packed[i] for i in first])


def sizes(block) -> tuple:
    return block.mid_dim, block.src_dim, block.target_dim


# (n, b, d, p, q), weight, its apexes: two with a second that is not a pure
# power, three pure powers, three with a third that is not, and four
APEX_SETS = [
    ((2, 1, 3, 1, 1), (3, 2, 2), [(3, 0, 0), (0, 2, 1)]),
    ((2, 1, 3, 2, 0), (3, 2, 2), [(3, 0, 0), (0, 2, 1)]),
    ((2, 0, 3, 2, 1), (3, 3, 3), [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
    ((2, 0, 3, 3, 1), (4, 4, 4), [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
    ((3, 0, 2, 2, 1), (2, 2, 1, 1), [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)]),
    ((3, 0, 2, 3, 1), (2, 2, 2, 2),
     [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]),
]


@pytest.mark.parametrize("params,weight,apexes", APEX_SETS,
                         ids=["".join(map(str, par)) + "-" + "".join(map(str, w))
                              for par, w, _ in APEX_SETS])
def test_apex_sets_shrink_the_quotient_and_keep_the_contribution(params, weight, apexes):
    params = Parameters(*params)
    cell = KoszulCell(params)
    exps = cell.basis_d.monomials
    taken, tops = cell._apex(weight)
    assert sorted(exps[i] for i in taken) == sorted(apexes)
    assert tops == tuple(cell._packed[i] for i in sorted(taken))
    block = cell.block(weight)
    single = SingleApexCell(params).block(weight)
    full = UnreducedCell(params).block(weight)
    assert all(map(ge, sizes(single), sizes(block))) and sizes(block) != sizes(single)
    assert (block.full_mid_dim, block.full_src_dim) == (full.mid_dim, full.src_dim)
    for reduced in (block, single):
        assert (reduced.mid_dim - rank_exact(reduced.d_in) - rank_exact(reduced.d_out)
                == full.mid_dim - rank_exact(full.d_in) - rank_exact(full.d_out))
        for prime in PRIMES:
            assert contribution(reduced, prime) == contribution(full, prime), prime


@pytest.mark.parametrize("nbd", TABLES, ids=lambda nbd: "".join(map(str, nbd)))
def test_apexes_are_disjoint_dividing_and_maximal(nbd):
    # taken in basis order, the first is the first monomial dividing x^w,
    # and every monomial dividing x^w shares a variable with an apex
    n = nbd[0]
    for p, q in table_cells(*nbd)[:6]:
        cell = KoszulCell(Parameters(*nbd, p, q))
        exps = cell.basis_d.monomials
        for w in cell.weights():
            apexes, _ = cell._apex(w)
            dividing = [i for i, m in enumerate(exps) if all(map(ge, w, m))]
            supports = [{k for k in range(n + 1) if exps[i][k]} for i in sorted(apexes)]
            assert set(apexes) <= set(dividing)
            assert not dividing or min(apexes) == dividing[0]
            assert sum(map(len, supports)) == len(set().union(*supports))
            assert all(any(exps[i][k] for k in set().union(*supports)) for i in dividing)


def star_union(cell, weight) -> list:
    """The faces of the union of the closed stars of the cell's apexes in the
    squarefree divisor complex of x^weight, by size from the empty face:
    the sets F of degree-d monomials with sum F <= weight that hold an
    apex, or stay in the complex with one added."""
    exps = cell.basis_d.monomials
    apexes, _ = cell._apex(weight)

    def fits(face):
        total = (0,) * len(weight)
        for i in face:
            total = tuple(map(add, total, exps[i]))
        return all(map(ge, weight, total))

    dividing = [i for i in range(len(exps)) if fits((i,))]
    by_size = []
    for size in range(len(dividing) + 1):
        faces = [face for face in combinations(dividing, size) if fits(face) and any(
            apex in face or fits(face + (apex,)) for apex in apexes)]
        if not faces:
            break
        by_size.append(faces)
    return by_size


def boundary(faces, below) -> list:
    """The dense boundary map from `faces` to the faces `below`, one size
    less, as a list of rows; every face of a face must be below."""
    row_of = {face: r for r, face in enumerate(below)}
    rows = [[0] * len(faces) for _ in below]
    for c, face in enumerate(faces):
        for _, smaller, sign in _faces(face):
            rows[row_of[smaller]][c] += sign
    return rows


# (n, d, weight): one apex, two with a second that is not a pure power,
# three, and four
STAR_WEIGHTS = [(2, 2, (3, 1, 0)), (2, 3, (3, 2, 2)), (2, 2, (4, 1, 1)), (2, 2, (2, 2, 2)),
                (2, 3, (3, 3, 3)), (3, 2, (2, 2, 1, 1)), (3, 2, (2, 2, 2, 2)), (1, 4, (6, 6))]


@pytest.mark.parametrize("n,d,weight", STAR_WEIGHTS,
                         ids=[f"{n}{d}-" + "".join(map(str, w)) for n, d, w in STAR_WEIGHTS])
def test_star_union_is_acyclic(n, d, weight):
    total = sum(weight)
    cell = KoszulCell(Parameters(n, total % d, d, 0, total // d))
    chains = star_union(cell, weight)
    assert len(chains) > 2      # the empty face, vertices and edges at least
    maps = [boundary(chains[k], chains[k - 1]) for k in range(1, len(chains))]
    for rank in (fraction_rank, lambda a: _rank_mod(from_dense(a), 2)):
        ranks = [0] + [rank(m) for m in maps] + [0]
        for k, faces in enumerate(chains):
            assert len(faces) == ranks[k] + ranks[k + 1], (weight, k)
