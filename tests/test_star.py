"""Ranking each block on its quotient by a vertex star changes no answer.

The engine builds every weight block as its quotient by the star of its
apex, an acyclic cone, and ranks only that.  The oracle in helpers.py,
UnreducedCell, builds the whole block as the engine did before.  Block by
block, the two contributions mid - rank(d_in) - rank(d_out) must agree over
every field; cell by cell, every field of the result must agree in every
mode, since the route and the flags come from the unreduced shapes.
"""

import pytest

from syzlab import betti
from syzlab.arith import binom_safe, random_prime
from syzlab.betti import EngineConfig, default_q_lo, make_config
from syzlab.koszul import KoszulCell, Parameters, _pack
from syzlab.linalg import InvariantError, _rank_mod

from helpers import AllWeightsCell, AllWeightsStarCell, UnreducedCell

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
