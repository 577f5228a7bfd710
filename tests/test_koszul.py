import gc
import random
from itertools import permutations

import pytest

from syzlab import betti, koszul
from syzlab.arith import binom_safe
from syzlab.koszul import InfeasibleBlockError, KoszulCell, Parameters, _delta_terms, _faces
from syzlab.monomials import distinct_permutations_count, enumerate_basis

from helpers import (
    AllWeightsCell,
    AllWeightsStarCell,
    UnreducedCell,
    delta_terms_block,
    fraction_rank,
    full_complex,
    iter_blocks,
    to_dense,
    wedges_of,
)


def orbits(cell):
    """The orbits of the cell's dominant weights, descending lex."""
    return sorted({perm for w in cell.weights() for perm in permutations(w)},
                  reverse=True)


def test_parameters_derived_sizes():
    par = Parameters(2, 0, 3, 1, 1)
    assert par.v == 10
    assert par.r_d == 9
    assert par.middle_degree == 3
    assert par.source_degree == 0
    assert par.weight_total == 6


def test_parameters_validation():
    with pytest.raises(ValueError):
        Parameters(0, 0, 2, 1, 1)
    with pytest.raises(ValueError):
        Parameters(1, -1, 2, 1, 1)
    with pytest.raises(ValueError):
        Parameters(1, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        Parameters(1, 0, 2, -1, 1)


def test_differential_two_term_example():
    # basis of degree 2 in x, y: index 0 = x^2, 1 = xy, 2 = y^2
    monomials = enumerate_basis(1, 2).monomials
    terms = _delta_terms((0, 2), (1, 0), monomials)
    # delta(x^2 ^ y^2 (x) x) = y^2 (x) x^3  -  x^2 (x) x*y^2
    assert terms == [(((2,), (3, 0)), 1), (((0,), (1, 2)), -1)]


def test_differential_single_factor_multiplies():
    monomials = enumerate_basis(1, 2).monomials
    assert _delta_terms((1,), (2, 1), monomials) == [(((), (3, 2)), 1)]


def test_enumerate_weights_example():
    par = Parameters(1, 0, 2, 1, 1)
    cell = KoszulCell(par)
    assert cell.weights() == [(4, 0), (3, 1), (2, 2)]
    assert orbits(cell) == AllWeightsCell(par).weights() == \
        [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]


def test_block_refuses_a_non_dominant_weight():
    cell = KoszulCell(Parameters(1, 0, 2, 1, 1))
    with pytest.raises(ValueError):
        cell.block((1, 3))
    assert cell.block((3, 1)).weight == (3, 1)


def test_weights_sum_and_order():
    for par in [Parameters(1, 1, 3, 2, 1), Parameters(2, 0, 2, 1, 1)]:
        ws = KoszulCell(par).weights()
        assert ws == sorted(ws, reverse=True)
        assert len(set(ws)) == len(ws)
        for w in ws:
            assert len(w) == par.n + 1
            assert sum(w) == par.weight_total


def test_block_2_2_of_twisted_cubic_cell():
    par = Parameters(1, 0, 2, 1, 1)
    block = UnreducedCell(par).block((2, 2))
    # middle basis: x^2 (x) y^2, xy (x) xy, y^2 (x) x^2
    assert block.mid_dim == 3
    # source basis: x^2 ^ y^2 (x) 1 only
    assert block.src_dim == 1
    assert block.d_in.rows == 3 and block.d_in.cols == 1
    assert sorted(v for column in block.d_in.columns for _, v in column) == [-1, 1]
    assert fraction_rank(to_dense(block.d_out)) == 1
    assert fraction_rank(to_dense(block.d_in)) == 1
    # the engine ranks its quotient by the stars of x^2 and y^2, which
    # leaves only xy (x) xy: a cycle and no boundary, the block's one class
    quotient = KoszulCell(par).block((2, 2))
    assert (quotient.mid_dim, quotient.src_dim, quotient.target_dim) == (1, 0, 0)
    assert (quotient.full_mid_dim, quotient.full_src_dim) == (3, 1)


def test_block_contributions_sum_to_one():
    # dim K_{1,1}(P^1, 0; 2) = 1, concentrated in the balanced weight
    contributions = {}
    for block in iter_blocks(AllWeightsStarCell(Parameters(1, 0, 2, 1, 1))):
        r_in = fraction_rank(to_dense(block.d_in))
        r_out = fraction_rank(to_dense(block.d_out))
        contributions[block.weight] = block.mid_dim - r_in - r_out
    assert contributions == {(4, 0): 0, (3, 1): 0, (2, 2): 1, (1, 3): 0, (0, 4): 0}


def test_iter_blocks_follows_weight_order():
    cell = KoszulCell(Parameters(1, 1, 2, 1, 1))
    seen = [b.weight for b, *_ in betti.weight_blocks(1, 1, 2, 1, 1, betti.make_config(), cell)]
    assert seen == cell.weights() == [b.weight for b in iter_blocks(cell)]


def test_total_middle_dim_formula():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randrange(1, 3)
        b = rng.randrange(0, 2)
        d = rng.randrange(1, 4)
        p = rng.randrange(0, 4)
        q = rng.randrange(0, 3)
        par = Parameters(n, b, d, p, q)
        cell, oracle = KoszulCell(par), AllWeightsCell(par)
        expect = binom_safe(par.v, p) * binom_safe(par.middle_degree + n, n)
        assert orbits(cell) == oracle.weights()
        assert sum(oracle.block(w).mid_dim for w in oracle.weights()) == expect
        assert sum(distinct_permutations_count(b.weight) * b.full_mid_dim
                   for b in iter_blocks(cell)) == expect


def test_composition_is_zero_unblocked():
    # d_out . d_in = 0 exactly over the integers, checked by dense multiply
    rng = random.Random(29)
    for _ in range(6):
        n = rng.randrange(1, 3)
        par = Parameters(n, rng.randrange(0, 2), rng.randrange(1, 3),
                         rng.randrange(0, 3), rng.randrange(0, 3))
        d_in, d_out, mid = full_complex(par)
        a = to_dense(d_out)
        bm = to_dense(d_in)
        assert d_in.rows == mid and d_out.cols == mid
        for i in range(d_out.rows):
            for j in range(d_in.cols):
                assert sum(a[i][k] * bm[k][j] for k in range(mid)) == 0


def _source_wedges(par):
    """The distinct wedges of the cell's source elements of dominant weight."""
    cell = KoszulCell(par)
    cell._ensure_groups()
    return {wedge for group in cell._source.values() for wedge in wedges_of(group)}


def test_faces_of_faces_cancel_on_every_source_wedge():
    # the cell checks one wedge per size; every wedge a block is built on
    # must cancel as that one does, since signs depend on positions alone
    cells = [Parameters(n, b, d, p, q)
             for n, b, d in [(2, 0, 3), (2, 1, 3), (3, 0, 2)]
             for p in range(binom_safe(d + n, n)) for q in range(n + 2)]
    cells.append(Parameters(2, 0, 4, 6, 1))
    walked = 0
    for par in cells:
        for wedge in _source_wedges(par):
            assert len(wedge) == par.p + 1
            acc = {}
            for _, face, sign in _faces(wedge):
                for _, face2, sign2 in _faces(face):
                    acc[face2] = acc.get(face2, 0) + sign * sign2
            assert not any(acc.values()), (par, wedge)
            walked += 1
    assert walked > 7_000           # 7,909 wedge walks over the 131 cells


def test_unreduced_composition_is_checked_once_per_cell(monkeypatch):
    sizes = []
    monkeypatch.setattr(koszul, "_check_faces_of_faces", sizes.append)
    cell = KoszulCell(Parameters(2, 0, 3, 5, 1))
    blocks = list(iter_blocks(cell))
    assert len(blocks) > 1 and sum(b.full_src_dim for b in blocks) > 1
    assert sizes == [6]
    KoszulCell(Parameters(1, 0, 2, 5, 1))       # no source wedge: nothing to check
    assert sizes == [6]


def test_block_ranks_match_unblocked_ranks():
    for par in [Parameters(1, 0, 2, 1, 1), Parameters(1, 1, 2, 2, 1),
                Parameters(2, 0, 2, 1, 1)]:
        d_in, d_out, mid = full_complex(par)
        whole_in = fraction_rank(to_dense(d_in))
        whole_out = fraction_rank(to_dense(d_out))
        blocks = list(iter_blocks(AllWeightsCell(par)))
        assert sum(b.mid_dim for b in blocks) == mid
        assert sum(fraction_rank(to_dense(b.d_in)) for b in blocks) == whole_in
        assert sum(fraction_rank(to_dense(b.d_out)) for b in blocks) == whole_out
        # the engine's count: dominant blocks only, each times its orbit
        dominant = [(distinct_permutations_count(b.weight), b)
                    for b in iter_blocks(UnreducedCell(par))]
        assert sum(o * fraction_rank(to_dense(b.d_in)) for o, b in dominant) == whole_in
        assert sum(o * fraction_rank(to_dense(b.d_out)) for o, b in dominant) == whole_out


def test_built_maps_are_well_formed(monkeypatch):
    # SparseMatrix checks nothing, and the kernels refuse a malformed map
    # only as they read it: every map koszul builds on the surface-tables
    # tables and two quartic cells has entries +-1, every row in range and
    # no row repeated within a column
    built = []
    block = KoszulCell.block

    def spy(self, *args, **kwargs):
        built.append(block(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(KoszulCell, "block", spy)
    for nbd in [(2, 0, 3), (2, 1, 3), (1, 0, 8)]:
        betti.betti_table(*nbd)
    for pq in [(6, 1), (11, 2)]:
        betti.cell_result(2, 0, 4, *pq)
    entries = 0
    for m in (m for b in built for m in (b.d_in, b.d_out)):
        for column in m.columns:
            rows = [r for r, _ in column]
            assert all(v in (1, -1) for _, v in column), column
            assert all(0 <= r < m.rows for r in rows), (m.rows, column)
            assert len(set(rows)) == len(rows), column
            entries += len(column)
    assert len(built) > 200 and entries > 5000, (len(built), entries)


def test_built_blocks_leave_no_reference_cycle():
    # a cell, its bases and the maps of its blocks are freed by reference
    # counting alone: with the cyclic GC off, nothing is left for it to find
    gc.collect()
    gc.disable()
    try:
        cell = KoszulCell(Parameters(2, 0, 3, 3, 1))
        blocks = [cell.block(w) for w in cell.weights()]
        assert len(blocks) == 16 and any(b.d_out.rows for b in blocks)
        del cell, blocks
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_weight_permutation_symmetry():
    # permuting the variables permutes weights without changing the shape of
    # the unreduced block or the block's contribution
    dims = {}
    for block in iter_blocks(AllWeightsStarCell(Parameters(2, 0, 2, 1, 1))):
        r_in = fraction_rank(to_dense(block.d_in))
        r_out = fraction_rank(to_dense(block.d_out))
        dims[block.weight] = (block.full_mid_dim, block.full_src_dim,
                              block.mid_dim - r_in - r_out)
    for w in dims:
        for perm in permutations(w):
            assert dims[perm] == dims[w]


@pytest.mark.parametrize("params", [(1, 1, 4, 2, 1), (2, 0, 3, 3, 1), (2, 1, 3, 4, 1),
                                    (3, 0, 2, 3, 1), (2, 0, 2, 2, 1), (2, 3, 2, 1, -1)])
def test_wedge_keyed_build_matches_delta_terms_build(params):
    # the quotient of every dominant block and of one permuted block, entry
    # for entry
    cell = KoszulCell(Parameters(*params))
    weights = cell.weights()
    assert weights
    for w in weights:
        block = cell.block(w)
        assert (block.d_in, block.d_out) == delta_terms_block(cell, w), w
    permuted = AllWeightsStarCell(Parameters(*params))
    w = tuple(reversed(weights[len(weights) // 2]))
    block = permuted.block(w)
    assert (block.d_in, block.d_out) == delta_terms_block(permuted, w), w


def test_memory_cap_raises_infeasible():
    with pytest.raises(InfeasibleBlockError) as info:
        KoszulCell(Parameters(2, 0, 3, 4, 1), memory_cap=64)
    err = info.value
    assert err.cap == 64
    assert err.estimated_bytes > 64
    assert err.middle_dim > 0
    assert err.weight is None  # refused before any block was attempted
    with pytest.raises(InfeasibleBlockError):
        KoszulCell(Parameters(1, 0, 2, 1, 1), memory_cap=1).block((2, 2))
