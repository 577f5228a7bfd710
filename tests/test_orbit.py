"""The orbit reduction changes no answer.

The engine builds and ranks only the dominant weight blocks of a cell and
counts each for its orbit under permutations of the variables.  The oracle
in helpers.py builds and ranks every weight block, as the engine did before
the reduction, and checks on the way that every block contributes as the
block at its dominant rearrangement; every field of the result must agree,
in every mode, and a memory cap must stop both at the same weight.
"""

import pytest

from syzlab import betti
from syzlab.arith import binom_safe
from syzlab.betti import default_q_lo, make_config
from syzlab.koszul import InfeasibleBlockError, KoszulCell

from helpers import AllWeightsCell, AllWeightsStarCell, all_weights_cell

# The oracle ranks every weight block, up to 24 times the engine's work.  On
# the two small tables it ranks whole blocks; on the three larger ones, where
# whole blocks take exact mode minutes, it ranks the star quotients.
TABLES = [(1, 1, 4), (2, 0, 3), (2, 1, 3), (3, 0, 2), (2, 1, 2)]
WHOLE_BLOCKS = {(1, 1, 4), (2, 1, 2)}
MODES = ["exact", "two-prime"]


def table_cells(n, b, d):
    v = binom_safe(d + n, n)
    return [(p, q) for q in range(default_q_lo(b, d), n + 2) for p in range(v)]


def engine_cell(n, b, d, p, q, config) -> dict:
    res = betti.cell_result(n, b, d, p, q, config)
    return {"dim": res.dim, "level": res.level, "agreement": res.agreement,
            "block_count": res.block_count, "max_block_dim": res.max_block_dim}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("nbd", TABLES)
def test_every_cell_matches_the_all_weights_loop(nbd, mode):
    config = make_config(mode)
    oracle = AllWeightsCell if nbd in WHOLE_BLOCKS else AllWeightsStarCell
    for p, q in table_cells(*nbd):
        assert engine_cell(*nbd, p, q, config) == \
            all_weights_cell(*nbd, p, q, config, oracle), (nbd, p, q, mode)


def outcome(compute):
    """The result, or the weight and message of the InfeasibleBlockError."""
    try:
        return compute()
    except InfeasibleBlockError as exc:
        return ("infeasible", exc.weight, str(exc))


def test_tiny_memory_cap_stops_both_at_the_cell():
    config = make_config(memory_cap=64)
    for n, b, d, p, q in [(2, 0, 3, 4, 1), (2, 1, 3, 3, 1), (3, 0, 2, 5, 1)]:
        new = outcome(lambda: engine_cell(n, b, d, p, q, config))
        old = outcome(lambda: all_weights_cell(n, b, d, p, q, config))
        assert new == old
        assert new[:2] == ("infeasible", None)


def capped_after_grouping(cell_class):
    """A cell class that passes the cell-level estimate and then holds every
    block to the configured cap, so the block-level estimate decides."""

    class Capped(cell_class):
        def __init__(self, params, memory_cap):
            super().__init__(params)
            self.memory_cap = memory_cap

    return Capped


def test_memory_cap_stops_both_at_the_same_block(monkeypatch):
    monkeypatch.setattr(betti, "KoszulCell", capped_after_grouping(KoszulCell))
    oracle_class = capped_after_grouping(AllWeightsCell)
    refused = set()
    for n, b, d, p, q in [(2, 0, 3, 4, 1), (2, 1, 3, 3, 1), (3, 0, 2, 5, 1)]:
        for cap in [1 << k for k in range(12, 22)]:
            config = make_config(memory_cap=cap)
            new = outcome(lambda: engine_cell(n, b, d, p, q, config))
            old = outcome(lambda: all_weights_cell(n, b, d, p, q, config, oracle_class))
            assert new == old, (n, b, d, p, q, cap)
            if isinstance(new, tuple):
                refused.add(new[1])
    assert len(refused) >= 3      # the sweep did stop at blocks, at several
