"""Weights settled from their counts change no answer.

KoszulCell.iter_ranked settles each dominant weight whose star quotient has
no middle element: its contribution is 0 in every field, and no map of it
is built or ranked.  The oracle, helpers.UnreducedCell, builds the whole
block there as the engine did before.  At every settled weight the whole
block must contribute 0 and agree across the primes, and, while the cell's
level is still exact, route its maps as the settled weight was routed.
block(w) still builds the quotient there, with no middle.  Every table
settles some weights and builds others.  A weight settled in
(p - 1, q + 1) keeps no map for (p, q), which builds its own d_out there,
without entries; a handed map there with a column is refused, and a cap
lowered after grouping still refuses a settled weight.
"""

import re

import pytest

from syzlab import betti
from syzlab.koszul import (
    InfeasibleBlockError,
    KoszulBlock,
    KoszulCell,
    Parameters,
    SettledWeight,
)
from syzlab.linalg import InvariantError, SparseMatrix

from helpers import UnreducedCell
from test_star import CONFIGS, PRIMES, contribution, table_cells

TABLES = [(1, 1, 4), (2, 1, 2), (2, 0, 3), (2, 1, 3)]
# As in test_star, exact ranks of the unreduced blocks of the two larger
# tables (exact mode, threshold 100000) take the oracle minutes.
CASES = [(nbd, name) for nbd in TABLES[:2] for name in sorted(CONFIGS)] + [
    (nbd, name) for nbd in TABLES[2:] for name in ["primes-2-3", "threshold-0", "two-prime"]]


def ranked_pass(cell, config) -> tuple:
    """(weight_blocks items of the cell, the message of the ValueError that
    refused a prime, or None)."""
    items, par = [], cell.params
    try:
        for item in betti.weight_blocks(par.n, par.b, par.d, par.p, par.q, config, cell):
            items.append(item)
    except ValueError as exc:
        return items, str(exc)
    return items, None


@pytest.mark.parametrize("nbd,name", CASES,
                         ids=["".join(map(str, nbd)) + "-" + name for nbd, name in CASES])
def test_settled_weights_contribute_nothing(nbd, name, monkeypatch):
    config, threshold = CONFIGS[name]
    monkeypatch.setattr(betti, "EXACT_THRESHOLD", threshold)
    kinds = set()
    for p, q in table_cells(*nbd):
        params = Parameters(*nbd, p, q)
        cell = KoszulCell(params)
        items, refused = ranked_pass(cell, config)
        whole, whole_refused = ranked_pass(UnreducedCell(params), config)
        assert (len(items), refused) == (len(whole), whole_refused), (nbd, p, q, name)
        if refused:     # at the first map routed other than zero
            kinds.add(("refused at", type(list(cell.iter_ranked())[len(items)])))
        exact = True        # the cell's level so far
        for (block, dim, block_exact, agree), (full, *ranked) in zip(items, whole):
            kinds.add(type(block))
            if isinstance(block, SettledWeight):
                where = (nbd, p, q, block.weight, name)
                assert (dim, agree) == (0, True) and ranked[0] == 0 and ranked[2], where
                if exact:
                    assert block_exact == ranked[1], where
                assert cell.block(block.weight).mid_dim == 0, where
                assert (full.mid_dim, full.src_dim) == (block.full_mid_dim,
                                                        block.full_src_dim), where
                for prime in PRIMES:
                    assert contribution(full, prime) == 0, where
            exact = exact and block_exact
    if name == "primes-2-3":
        assert ("refused at", SettledWeight) in kinds
    else:
        assert {SettledWeight, KoszulBlock} <= kinds


def test_weight_settled_below_is_built_above_with_a_d_out_without_entries():
    checked = 0
    for nbd in TABLES:
        for p, q in table_cells(*nbd):
            params = Parameters(*nbd, p, q)
            if p == 0 or betti._analytic_zero_reason(*nbd, p - 1, q + 1):
                continue
            below = KoszulCell(Parameters(*nbd, p - 1, q + 1), keep=True)
            settled = {item.weight for item in below.iter_ranked()
                       if isinstance(item, SettledWeight)}
            assert not settled & set(below._kept)     # none kept where settled
            cell = KoszulCell(params, below=below)
            for item in cell.iter_ranked():
                if item.weight in settled and isinstance(item, KoszulBlock):
                    assert item.d_out.nnz == 0 and item.d_out.rows == 0, (params, item.weight)
                    checked += 1
            assert not cell._handed                   # every handed map was used
    assert checked


def test_cap_lowered_after_grouping_refuses_a_settled_weight():
    params = Parameters(2, 0, 3, 3, 0)
    first = next(KoszulCell(params).iter_ranked())
    assert isinstance(first, SettledWeight) and first.full_mid_dim
    cell = KoszulCell(params)
    cell.weights()                      # grouped under the default cap
    cell.memory_cap = 0
    with pytest.raises(InfeasibleBlockError) as info:
        next(cell.iter_ranked())
    assert info.value.weight == first.weight
    assert (info.value.middle_dim, info.value.source_dim) == (first.full_mid_dim,
                                                              first.full_src_dim)


def test_handed_d_out_with_a_column_at_a_settled_weight_is_refused():
    params = Parameters(2, 0, 3, 3, 1)
    settled = [item.weight for item in KoszulCell(params).iter_ranked()
               if isinstance(item, SettledWeight)]
    below = KoszulCell(Parameters(2, 0, 3, 2, 2), keep=True)
    list(below.iter_blocks())           # keeps a d_in at every weight
    weight = next(w for w in settled if w in below._kept)
    d_in, ranks = below._kept[weight]
    assert d_in.cols == 0               # a settled weight's handed map is empty
    below._kept[weight] = SparseMatrix(d_in.rows, 1, ((),)), ranks
    with pytest.raises(InvariantError, match=re.escape(f"d_out at weight {weight} has 1 ")):
        list(KoszulCell(params, below=below).iter_ranked())
