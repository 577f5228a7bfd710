"""Weights settled from their counts change no answer.

KoszulCell.ranked settles each dominant weight whose quotient by the star
union has no middle element: its contribution is 0 in every field, and no
map of it is built or ranked.  The oracle, helpers.UnreducedCell, builds
the whole block there as the engine did before.  At every settled weight the whole block
must contribute 0 and agree across the primes, and, while the cell's level
is still exact, route its maps as the settled weight was routed.  block(w)
still builds the quotient there, with no middle.  Every table settles some
weights and builds others.  In the table pass, a weight settled in
(p - 1, q + 1) gives (p, q) no map, and (p, q) builds its own d_out there,
without entries; a cap lowered after grouping still refuses a settled
weight.
"""

import pytest

from syzlab import betti
from syzlab.koszul import InfeasibleBlockError, KoszulCell, Parameters

from helpers import UnreducedCell, iter_ranked
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
            at = list(iter_ranked(cell))[len(items)]
            kinds.add(("refused at", "settled" if at.d_in is None else "built"))
        exact = True        # the cell's level so far
        for (block, dim, block_exact, agree), (full, *ranked) in zip(items, whole):
            kinds.add("settled" if block.d_in is None else "built")
            if block.d_in is None:
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
        assert ("refused at", "settled") in kinds
    else:
        assert {"settled", "built"} <= kinds


def test_weight_settled_below_is_built_above_with_a_d_out_without_entries(monkeypatch):
    # in the table pass, where (p - 1, q + 1) settles a weight it gives
    # (p, q) no map there, and (p, q) builds its own d_out, with no rows
    steps = []
    original = KoszulCell.ranked

    def ranked(self, weight, given=None):
        item, gave = original(self, weight, given)
        if given and given[0] == self.params.p - 1:     # taken from (p - 1, q + 1)
            steps.append((given[1:], item))
        return item, gave

    monkeypatch.setattr(KoszulCell, "ranked", ranked)
    for nbd in TABLES:
        betti.betti_table(*nbd)
    checked = 0
    for given, item in steps:
        if given[2] is None:      # settled below
            assert given[3] is None
            if item.d_in is not None:
                assert item.d_out.nnz == 0 and item.d_out.rows == 0, item.weight
                checked += 1
    assert checked


def test_cap_lowered_after_grouping_refuses_a_settled_weight():
    params = Parameters(2, 0, 3, 3, 0)
    first = next(iter_ranked(KoszulCell(params)))
    assert first.d_in is None and first.full_mid_dim
    cell = KoszulCell(params)
    cell.weights()                      # grouped under the default cap
    cell.memory_cap = 0
    with pytest.raises(InfeasibleBlockError) as info:
        next(betti.weight_blocks(2, 0, 3, 3, 0, betti.make_config(), cell))
    assert info.value.weight == first.weight
    assert (info.value.middle_dim, info.value.source_dim) == (first.full_mid_dim,
                                                              first.full_src_dim)
