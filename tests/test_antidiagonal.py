"""betti_table's pass, one antidiagonal at a time, changes no answer.

The table pass computes each cell (p, q) right after (p - 1, q + 1) and
takes from it the middle groups, the d_out maps and their rank
certificates.  Every field of every cell must be what cell_result gives
for that cell alone, also where the store, a vanishing theorem or the
memory cap breaks the chain in the middle of an antidiagonal.
"""

import contextlib

import pytest

from syzlab import betti, linalg
from syzlab.betti import ResultStore, betti_table, cell_result, make_config
from syzlab.koszul import InfeasibleBlockError, KoszulCell, Parameters
from syzlab.linalg import InvariantError, SparseMatrix, rank_mod_p

TWO_PRIME = make_config()
EXACT = make_config("exact")

# (n, b, d, p_range, q_range, config)
WINDOWS = [
    ((2, 0, 3), (None, None), (None, None), TWO_PRIME),
    ((2, 1, 3), (None, None), (None, None), TWO_PRIME),
    ((1, 0, 8), (None, None), (None, None), TWO_PRIME),
    ((1, 6, 8), (None, None), (None, None), TWO_PRIME),
    ((1, 6, 8), (None, None), (None, None), EXACT),
    ((2, 0, 2), (None, None), (None, None), TWO_PRIME),
    ((2, 0, 2), (None, None), (None, None), EXACT),
    ((2, 0, 3), (2, 6), (1, 2), TWO_PRIME),
    ((1, 0, 8), (3, 5), (-1, 1), TWO_PRIME),
]


def fields(res):
    return (res.dim, res.level, res.agreement, res.block_count, res.max_block_dim,
            res.analytic)


def assert_cell_by_cell(table, config, ranked=None):
    """Every cell of the table is the cell computed alone; with `ranked`,
    what weight_blocks gave in the table pass, so is every block."""
    for computed_or_refused in (table.cells, table.failures):
        assert list(computed_or_refused) == [
            pq for pq in table.window_cells() if pq in computed_or_refused]
    alone_ranked = {}
    for (p, q), res in table.cells.items():
        with recording(alone_ranked):
            alone = cell_result(table.n, table.b, table.d, p, q, config)
        assert fields(res) == fields(alone), (table.n, table.b, table.d, p, q)
    if ranked is not None:
        assert ranked == alone_ranked


@contextlib.contextmanager
def recording(ranked):
    """Record, per cell, each block's (weight, contribution, exact, agreement)
    as weight_blocks gives them."""
    original = betti.weight_blocks

    def weight_blocks(n, b, d, p, q, config, cell=None):
        out = ranked.setdefault((p, q), [])
        for block, *rest in original(n, b, d, p, q, config, cell):
            out.append((block.weight, *rest))
            yield (block, *rest)

    betti.weight_blocks = weight_blocks
    try:
        yield
    finally:
        betti.weight_blocks = original


class Spy(KoszulCell):
    """Records, for each cell made, the cell below it and the maps handed over."""

    made = {}

    def __init__(self, params, memory_cap=betti.DEFAULT_MEMORY_CAP, below=None, keep=False):
        super().__init__(params, memory_cap, below=below, keep=keep)
        Spy.made[(params.p, params.q)] = (
            below and (below.params.p, below.params.q), len(self._handed), keep)
        self.handed_left = self._handed


@pytest.fixture
def spy(monkeypatch):
    Spy.made = {}
    monkeypatch.setattr(betti, "KoszulCell", Spy)
    return Spy.made


@pytest.mark.parametrize("nbd,p_range,q_range,config", WINDOWS,
                         ids=[f"{''.join(map(str, w[0]))}-{w[1]}-{w[2]}-{w[3].mode}"
                              for w in WINDOWS])
def test_table_pass_matches_cell_by_cell(nbd, p_range, q_range, config, spy):
    ranked = {}
    with recording(ranked):
        table = betti_table(*nbd, p_range, q_range, config)
    assert not table.failures and not table.missing_cells()
    assert sum(handed for _, handed, _ in spy.values()) > 0     # the chain is used
    for (p, q), (below, _, keep) in spy.items():
        assert below in (None, (p - 1, q + 1))
        assert keep == ((p + 1, q - 1) in table.cells
                        and not table.cells[(p + 1, q - 1)].analytic)
    assert_cell_by_cell(table, config, ranked)


def test_every_handed_map_is_used(monkeypatch):
    # a cell keeps a d_in only where the cell (p + 1, q - 1) has a block
    cells = []

    class Recording(Spy):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            cells.append(self)

    monkeypatch.setattr(betti, "KoszulCell", Recording)
    betti_table(2, 0, 3)
    assert cells and all(not cell.handed_left for cell in cells)


def test_store_hit_mid_antidiagonal_breaks_the_chain(tmp_path, spy):
    store = ResultStore(str(tmp_path))
    # antidiagonal 5 of (2, 0, 3) runs (2, 3), (3, 2), (4, 1), (5, 0)
    cell_result(2, 0, 3, 3, 2, TWO_PRIME, store)
    spy.clear()
    table = betti_table(2, 0, 3, config=TWO_PRIME, store=store)
    assert (3, 2) not in spy
    assert spy[(2, 3)][2] and spy[(4, 1)][:2] == (None, 0)
    assert spy[(5, 0)][0] == (4, 1)
    assert_cell_by_cell(table, TWO_PRIME)
    assert all(store.get(ResultStore.key_of(2, 0, 3, p, q, TWO_PRIME)) is not None
               for p, q in table.window_cells())


def test_memory_cap_refusal_mid_antidiagonal_breaks_the_chain(monkeypatch, spy):
    # the cell (4, 1) is refused at its second block, after the cell below
    # handed it maps; (5, 0) then builds its own d_out
    class RefuseOne(Spy):
        def _check_cap(self, weight, middle, source):
            if (self.params.p, self.params.q) == (4, 1) and weight != self.weights()[0]:
                raise InfeasibleBlockError(f"refused at {weight}", weight=weight)
            super()._check_cap(weight, middle, source)

    monkeypatch.setattr(betti, "KoszulCell", RefuseOne)
    table = betti_table(2, 0, 3)
    assert list(table.failures) == [(4, 1)]
    below, handed, _ = spy[(4, 1)]
    assert below == (3, 2) and handed > 0
    assert spy[(5, 0)][:2] == (None, 0)
    monkeypatch.setattr(betti, "KoszulCell", KoszulCell)
    assert_cell_by_cell(table, TWO_PRIME)


def test_table_pass_certifies_fewer_maps(monkeypatch):
    calls = []

    def counting(m, primes, exact):
        calls.append(exact)
        return linalg.certified_rank(m, primes, exact)

    monkeypatch.setattr(betti, "certified_rank", counting)
    table = betti_table(2, 0, 3)
    in_pass = len(calls)
    calls.clear()
    alone = {pq: cell_result(2, 0, 3, *pq) for pq in table.window_cells()}
    assert in_pass < len(calls)
    assert {pq: fields(res) for pq, res in table.cells.items()} == \
        {pq: fields(res) for pq, res in alone.items()}


def computed(params, **kwargs):
    cell = KoszulCell(params, **kwargs)
    return cell, list(cell.iter_blocks())


def test_handed_d_out_has_the_built_rank():
    # its rows are the whole kept middle of the cell below: more rows, the
    # same entries and the same rank
    below, _ = computed(Parameters(2, 0, 3, 2, 2), keep=True)
    handed = {w: m for w, (m, _) in below._kept.items()}
    _, blocks = computed(Parameters(2, 0, 3, 3, 1), below=below)
    assert below._middle is below._source is below._kept is None   # all handed over
    _, alone = computed(Parameters(2, 0, 3, 3, 1))
    assert len(handed) == len(blocks) > 0
    field = linalg._field(TWO_PRIME.primes[0])
    for block, own in zip(blocks, alone):
        assert block.d_out is handed[block.weight]
        assert block.d_out.cols == own.d_out.cols
        assert block.target_dim >= own.target_dim
        assert block.d_out.nnz == own.d_out.nnz
        assert rank_mod_p(block.d_out, field) == rank_mod_p(own.d_out, field)


@pytest.mark.parametrize("below", [(2, 0, 3, 2, 1), (2, 0, 3, 3, 2), (2, 1, 3, 2, 2),
                                   (1, 0, 3, 2, 2), (2, 0, 3, 1, 3)])
def test_below_must_be_the_cell_p_minus_1_q_plus_1(below):
    with pytest.raises(ValueError, match="p - 1, q \\+ 1"):
        KoszulCell(Parameters(2, 0, 3, 3, 1), below=KoszulCell(Parameters(*below)))


def test_handed_d_out_of_the_wrong_width_is_refused():
    below, _ = computed(Parameters(1, 0, 3, 1, 2), keep=True)
    weight, (d_in, ranks) = next(iter(below._kept.items()))
    below._kept[weight] = SparseMatrix(d_in.rows, d_in.cols + 1, d_in.columns + ((),)), ranks
    with pytest.raises(InvariantError, match="columns"):
        KoszulCell(Parameters(1, 0, 3, 2, 1), below=below).block(weight)


def test_single_cells_keep_nothing(spy):
    cell_result(2, 0, 3, 3, 1)
    assert spy == {(3, 1): (None, 0, False)}
    cell = KoszulCell(Parameters(2, 0, 3, 3, 1))
    list(cell.iter_blocks())
    assert cell._kept is None
