"""The combinatorial front end of a cell: dominant grouping and route sizing.

KoszulCell._grouped finds the tensors that make a wedge's weight dominant
once per wedge sum, and files the one list of the wedges with that sum
under each weight they reach; helpers.grouped_all_pairs tests every wedge
against every tensor, as the engine did before.  Both must give the same
weights in the same order, and the same (wedge, tensor) elements at each.
Inside a weight the engine lists its elements class by class, so there
they are compared as multisets.  betti._routes routes the maps of an
unreduced block from its counts, and enumerates the faces of its middle
wedges only where the counts leave the d_out's route open, and then only
until their number passes the threshold.  At every threshold, each route
must be the one of the full sizes, every face counted, at every dominant
weight of the surface-tables benchmark's cells and a few more.
"""

from collections import Counter
from itertools import combinations
from operator import add

import pytest

from syzlab.arith import binom_safe
from syzlab import betti
from syzlab.betti import default_q_lo
from syzlab.koszul import KoszulCell, Parameters, _faces, _pack

from helpers import elements, grouped_all_pairs, wedges_of

LIMITS = (0, 1, 16, 256, 10 ** 6)


def table_params(n, b, d):
    """Parameters of every cell (p, q) of the table, p = 0..v, q from the
    lowest possible strand to n + 1."""
    v = binom_safe(d + n, n)
    return [Parameters(n, b, d, p, q)
            for q in range(default_q_lo(b, d), n + 2) for p in range(v + 1)]


def grouping_cases():
    """(cell, wedge size, tensor degree): the middle and source space of
    every cell of the small tables, and of (2,0,4) K_{6,1} and K_{11,2}.
    (4,0,2) packs five fields; its cells with q > 3 exceed the memory cap.
    (1,0,8) and its dual (1,6,8) have the widest wedge sums of the
    surface-tables benchmark.  (1,0,5) K_{1,1} and K_{2,1} reach the two
    edges of the tensor prefix (see test_prefix_edges_are_reached).  The
    edges of the packing in test_star.EDGES come too: (2,0,1) and (2,0,2),
    where one bit less per field loses dominant weights, (1,2,5), whose
    K_{0,0} has weight total 2 < d, and K_{0,0} of (2,0,8), where the
    packed monomials overflow their fields."""
    params = [par for nbd in [(1, 1, 4), (2, 0, 3), (2, 1, 3), (3, 0, 2), (4, 0, 2),
                              (1, 0, 8), (1, 6, 8), (2, 0, 1), (2, 0, 2), (1, 2, 5)]
              for par in table_params(*nbd) if par.n < 4 or par.q <= 3]
    params += [Parameters(2, 0, 4, 6, 1), Parameters(2, 0, 4, 11, 2),
               Parameters(1, 0, 5, 1, 1), Parameters(1, 0, 5, 2, 1),
               Parameters(2, 0, 8, 0, 0)]
    cases = {}
    for par in params:
        nbd = f"{par.n}{par.b}{par.d}"
        cases.setdefault(f"{nbd}-{par.p}-{par.middle_degree}", (par, par.p, par.middle_degree))
        cases.setdefault(f"{nbd}-{par.p + 1}-{par.source_degree}",
                         (par, par.p + 1, par.source_degree))
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("par,wedge_size,tensor_degree", grouping_cases())
def test_grouping_matches_all_pairs(par, wedge_size, tensor_degree):
    cell = KoszulCell(par)
    got = cell._grouped(wedge_size, tensor_degree)
    want = grouped_all_pairs(cell, wedge_size, tensor_degree)
    assert list(got) == list(want)
    lists = {}      # wedge sum -> the one list of its wedges
    for weight, group in got.items():
        found = elements(cell, weight, group)
        assert Counter(found) == Counter(want[weight]), weight
        at = 0
        for packed, wedges in group:
            tensors = {t for _, t in found[at:at + len(wedges)]}
            at += len(wedges)
            assert len(tensors) == 1, (weight, wedges)      # one sum per class
            t = tensors.pop()
            assert packed == _pack(t, cell._width) + cell._guards, (weight, t)
            s = tuple(w - e for w, e in zip(weight, t))
            assert lists.setdefault(s, wedges) is wedges, (weight, s)
    # each wedge lies in exactly one class
    wedges = [wedge for group in lists.values() for wedge in group]
    assert len(wedges) == len(set(wedges))


def prefix_edges(par, wedge_size, tensor_degree) -> set:
    """The edges of _grouped's tensor prefix that a space reaches.  With
    lo = max(mean part, max s) - s_0 for a wedge sum s, only tensors with
    t_0 >= lo can make s + t dominant: "whole" where lo <= 0 for a sum that
    the last tensor, (0, ..., 0, e), makes dominant, so the whole list is
    needed; "none" where lo > e, so no tensor is tested."""
    exps = KoszulCell(par).basis_d.monomials
    mean = -(-(wedge_size * par.d + tensor_degree) // (par.n + 1))
    last = (0,) * par.n + (tensor_degree,)
    edges = set()
    for wedge in combinations(range(par.v), wedge_size):
        s = tuple(map(sum, zip(*[exps[i] for i in wedge])))
        lo = max(mean, *s) - s[0]
        w = tuple(map(add, s, last))
        if lo <= 0 and all(a >= c for a, c in zip(w, w[1:])):
            edges.add("whole")
        if lo > tensor_degree:
            edges.add("none")
    return edges


def test_prefix_edges_are_reached():
    assert "whole" in prefix_edges(Parameters(1, 0, 5, 1, 1), 1, 5)
    assert "none" in prefix_edges(Parameters(1, 0, 5, 2, 1), 2, 5)


def distinct_faces(middle) -> int:
    """The number of distinct faces of the wedges of `middle`'s classes,
    every one counted: the rows of the unreduced d_out."""
    return len({face for wedge in wedges_of(middle) for _, face, _ in _faces(wedge)})


# every cell of the surface-tables benchmark's tables and of (3, 0, 2), and
# two cells of the quartic Veronese surface with large unreduced blocks
ROUTED = {"".join(map(str, nbd)): table_params(*nbd)
          for nbd in [(2, 0, 3), (2, 1, 3), (3, 0, 2), (1, 0, 8), (1, 6, 8)]}
ROUTED.update({"204-K61": [Parameters(2, 0, 4, 6, 1)], "204-K112": [Parameters(2, 0, 4, 11, 2)]})


@pytest.mark.parametrize("name", list(ROUTED))
def test_route_sizes_decide_as_the_full_count(name, monkeypatch):
    # at every dominant weight of every cell and at every threshold, the
    # routes picked from the counts, with the faces enumerated only where
    # the counts leave a route open and only until they pass the
    # threshold, are the routes of the full sizes, every face counted
    blocks = []     # (unreduced counts, size of d_in, size of d_out)
    for par in ROUTED[name]:
        cell = KoszulCell(par)
        for w in cell.weights():
            mid, src, middle = unreduced = cell._unreduced(w)
            blocks.append((unreduced, mid * src, mid * distinct_faces(middle)))
    enumerated = []     # (faces counted, every distinct face)
    count = betti._distinct_faces

    def counting(middle, enough):
        enumerated.append((count(middle, enough), distinct_faces(middle)))
        return enumerated[-1][0]

    monkeypatch.setattr(betti, "_distinct_faces", counting)
    for limit in LIMITS:
        monkeypatch.setattr(betti, "EXACT_THRESHOLD", limit)
        before = len(enumerated)
        for unreduced, size_in, size_out in blocks:
            assert betti._routes(*unreduced) == (betti._route(size_in), betti._route(size_out)), \
                (name, limit, unreduced[:2])
        # the counts alone route most maps at every threshold
        assert len(enumerated) - before < len(blocks) / 2, (name, limit)
    assert any(got < every for got, every in enumerated)     # the early exit is taken
