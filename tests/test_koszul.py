import random
from itertools import permutations

import pytest

from syzlab.arith import binom_safe
from syzlab.koszul import (
    InfeasibleBlockError,
    KoszulCell,
    Parameters,
    build_block,
    differential,
    enumerate_weights,
)
from syzlab.monomials import distinct_permutations_count, enumerate_basis

from helpers import UnreducedCell, delta_terms_block, fraction_rank, full_complex


def all_weights(cell):
    """Every weight with a nonzero middle space: the orbits of the cell's
    dominant weights, descending lex."""
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
    basis = enumerate_basis(1, 2)
    terms = differential((0, 2), (1, 0), basis)
    # delta(x^2 ^ y^2 (x) x) = y^2 (x) x^3  -  x^2 (x) x*y^2
    assert terms == [(((2,), (3, 0)), 1), (((0,), (1, 2)), -1)]


def test_differential_single_factor_multiplies():
    basis = enumerate_basis(1, 2)
    assert differential((1,), (2, 1), basis) == [(((), (3, 2)), 1)]


def test_differential_rejects_bad_input():
    basis = enumerate_basis(1, 2)
    with pytest.raises(ValueError):
        differential((2, 0), (1, 0), basis)     # not increasing
    with pytest.raises(ValueError):
        differential((0, 0), (1, 0), basis)     # repeated factor
    with pytest.raises(ValueError):
        differential((0, 9), (1, 0), basis)     # index out of range
    with pytest.raises(ValueError):
        differential((0, 1), (1, 0, 0), basis)  # wrong variable count


def test_enumerate_weights_example():
    ws = enumerate_weights(Parameters(1, 0, 2, 1, 1))
    assert ws == [(4, 0), (3, 1), (2, 2)]
    assert all_weights(KoszulCell(Parameters(1, 0, 2, 1, 1))) == \
        [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]


def test_weights_sum_and_order():
    for par in [Parameters(1, 1, 3, 2, 1), Parameters(2, 0, 2, 1, 1)]:
        ws = enumerate_weights(par)
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
    assert sorted(v for _, _, v in block.d_in.entries) == [-1, 1]
    assert fraction_rank(block.d_out.to_dense()) == 1
    assert fraction_rank(block.d_in.to_dense()) == 1
    # the engine ranks its quotient by the star of x^2, which leaves only
    # xy (x) xy: a cycle and no boundary, the block's one class
    quotient = build_block(par, (2, 2))
    assert (quotient.mid_dim, quotient.src_dim, quotient.target_dim) == (1, 0, 0)
    assert (quotient.full_mid_dim, quotient.full_src_dim) == (3, 1)


def test_block_contributions_sum_to_one():
    # dim K_{1,1}(P^1, 0; 2) = 1, concentrated in the balanced weight
    par = Parameters(1, 0, 2, 1, 1)
    cell = KoszulCell(par)
    contributions = {}
    for w in all_weights(cell):
        block = cell.block(w)
        r_in = fraction_rank(block.d_in.to_dense())
        r_out = fraction_rank(block.d_out.to_dense())
        contributions[block.weight] = block.mid_dim - r_in - r_out
    assert contributions == {(4, 0): 0, (3, 1): 0, (2, 2): 1, (1, 3): 0, (0, 4): 0}


def test_iter_blocks_follows_weight_order():
    cell = KoszulCell(Parameters(1, 1, 2, 1, 1))
    seen = [b.weight for b in cell.iter_blocks()]
    assert seen == cell.weights()


def test_total_middle_dim_formula():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randrange(1, 3)
        b = rng.randrange(0, 2)
        d = rng.randrange(1, 4)
        p = rng.randrange(0, 4)
        q = rng.randrange(0, 3)
        par = Parameters(n, b, d, p, q)
        cell = KoszulCell(par)
        expect = binom_safe(par.v, p) * binom_safe(par.middle_degree + n, n)
        assert cell.total_middle_dim() == expect
        assert sum(cell.middle_dim(w) for w in all_weights(cell)) == expect
        assert sum(distinct_permutations_count(w) * cell.middle_dim(w)
                   for w in cell.weights()) == expect


def test_composition_is_zero_unblocked():
    # d_out . d_in = 0 exactly over the integers, checked by dense multiply
    rng = random.Random(29)
    for _ in range(6):
        n = rng.randrange(1, 3)
        par = Parameters(n, rng.randrange(0, 2), rng.randrange(1, 3),
                         rng.randrange(0, 3), rng.randrange(0, 3))
        d_in, d_out, mid = full_complex(par)
        a = d_out.to_dense()
        bm = d_in.to_dense()
        assert d_in.rows == mid and d_out.cols == mid
        for i in range(d_out.rows):
            for j in range(d_in.cols):
                assert sum(a[i][k] * bm[k][j] for k in range(mid)) == 0


def test_block_ranks_match_unblocked_ranks():
    for par in [Parameters(1, 0, 2, 1, 1), Parameters(1, 1, 2, 2, 1),
                Parameters(2, 0, 2, 1, 1)]:
        d_in, d_out, mid = full_complex(par)
        whole_in = fraction_rank(d_in.to_dense())
        whole_out = fraction_rank(d_out.to_dense())
        cell = UnreducedCell(par)
        blocks = [cell.block(w) for w in all_weights(cell)]
        assert sum(b.mid_dim for b in blocks) == mid
        assert sum(fraction_rank(b.d_in.to_dense()) for b in blocks) == whole_in
        assert sum(fraction_rank(b.d_out.to_dense()) for b in blocks) == whole_out
        # the engine's count: dominant blocks only, each times its orbit
        dominant = [(distinct_permutations_count(b.weight), b) for b in cell.iter_blocks()]
        assert sum(o * fraction_rank(b.d_in.to_dense()) for o, b in dominant) == whole_in
        assert sum(o * fraction_rank(b.d_out.to_dense()) for o, b in dominant) == whole_out


def test_weight_permutation_symmetry():
    # permuting the variables permutes weights without changing the shape of
    # the unreduced block or the block's contribution
    par = Parameters(2, 0, 2, 1, 1)
    cell = KoszulCell(par)
    dims = {}
    for w in all_weights(cell):
        block = cell.block(w)
        r_in = fraction_rank(block.d_in.to_dense())
        r_out = fraction_rank(block.d_out.to_dense())
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
    for w in weights + [tuple(reversed(weights[len(weights) // 2]))]:
        block = cell.block(w)
        assert (block.d_in, block.d_out) == delta_terms_block(cell, w), w


def test_memory_cap_raises_infeasible():
    with pytest.raises(InfeasibleBlockError) as info:
        KoszulCell(Parameters(2, 0, 3, 4, 1), memory_cap=64)
    err = info.value
    assert err.cap == 64
    assert err.estimated_bytes > 64
    assert err.middle_dim > 0
    assert err.weight is None  # refused before any block was attempted
    with pytest.raises(InfeasibleBlockError):
        build_block(Parameters(1, 0, 2, 1, 1), (2, 2), memory_cap=1)
