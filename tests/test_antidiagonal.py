"""The weight-first pass over each antidiagonal changes no answer.

betti computes the cells of one antidiagonal p + q = j in one pass: at each
dominant weight it ranks the cells with a middle there in ascending p, and
the d_in a cell builds, with its kept elements, is the d_out and kept middle
of the cell (p + 1, q - 1) at that weight, and the pass gives that d_out the
rank certificates of its d_in role.
Every field of every cell must be what cell_result gives for that cell
alone, and so must every weight's contribution, also where the store, a
vanishing theorem or the memory cap takes a cell out of the pass, and
where the cap refuses a cell at a later weight, after its maps at earlier
weights were used.
"""

import json

import pytest

from syzlab import betti, linalg
from syzlab.betti import ResultStore, betti_table, cell_result, make_config
from syzlab.koszul import KoszulCell, Parameters
from syzlab.linalg import rank_mod_p

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


@pytest.fixture
def ranked(monkeypatch):
    """{(p, q): [(weight, contribution, exact, agreement), ...]} as the pass
    gives them, for every pass run while the fixture is live."""
    seen = {}
    original = betti._pass

    def recording(cells, config):
        for i, item in original(cells, config):
            if not isinstance(item, Exception):
                par = cells[i].params
                seen.setdefault((par.p, par.q), []).append((item[0].weight, *item[1:]))
            yield i, item

    monkeypatch.setattr(betti, "_pass", recording)
    return seen


@pytest.fixture
def steps(monkeypatch):
    """Every ranked() step of the pass, as (cell (p, q), weight, what it
    took from the cell (p - 1, q + 1) there, or None, what it ranked).  What
    it took is (apexes, tops, kept middle or None, d_out or None)."""
    seen = []
    original = KoszulCell.ranked

    def ranked(self, weight, given=None):
        item, gave = original(self, weight, given)
        took = given[1:] if given and given[0] == self.params.p - 1 else None
        seen.append(((self.params.p, self.params.q), weight, took, item))
        return item, gave

    monkeypatch.setattr(KoszulCell, "ranked", ranked)
    return seen


def assert_cell_by_cell(table, config, ranked=None):
    """Every cell of the table is the cell computed alone; with `ranked`,
    what the pass gave over the table, so is every weight of every cell."""
    for computed_or_refused in (table.cells, table.failures):
        assert list(computed_or_refused) == [
            pq for pq in table.window_cells() if pq in computed_or_refused]
    in_table = dict(ranked or {})
    if ranked is not None:
        ranked.clear()
    for (p, q), res in table.cells.items():
        alone = cell_result(table.n, table.b, table.d, p, q, config)
        assert fields(res) == fields(alone), (table.n, table.b, table.d, p, q)
    if ranked is not None:
        assert in_table and all(ranked[pq] == items for pq, items in in_table.items()
                                if pq in table.cells)


@pytest.mark.parametrize("nbd,p_range,q_range,config", WINDOWS,
                         ids=[f"{''.join(map(str, w[0]))}-{w[1]}-{w[2]}-{w[3].mode}"
                              for w in WINDOWS])
def test_table_pass_matches_cell_by_cell(nbd, p_range, q_range, config, ranked, steps):
    table = betti_table(*nbd, p_range, q_range, config)
    assert not table.failures and not table.missing_cells()
    assert any(given and given[3] for *_, given, _ in steps)     # maps are handed over
    for (p, q), _, given, _ in steps:
        assert given is None or (p - 1, q + 1) in table.cells
    steps.clear()
    assert_cell_by_cell(table, config, ranked)
    assert not any(given for *_, given, _ in steps)     # a cell alone is given nothing


def test_every_handed_map_is_used(monkeypatch, steps):
    # a d_in handed over is the d_out of the block built there, the same
    # matrix, and has no columns where the cell settles.  The pass gives
    # that d_out the certificates of its d_in role, and a second certificate
    # is made only where the d_out role routes exact and the d_in role
    # modular
    calls = {}      # id(block) -> (in_ranks, out_ranks, routes of out_ranks before)
    block_ranks = betti._block_ranks

    def recording(block, config, in_ranks, out_ranks):
        before = set(out_ranks)
        ranks = block_ranks(block, config, in_ranks, out_ranks)
        calls[id(block)] = in_ranks, out_ranks, before
        return ranks

    monkeypatch.setattr(betti, "_block_ranks", recording)
    # (n, b, d): handed maps with a second certificate, handed maps built on
    for nbd, expected in [((2, 0, 3), (1, 43)), ((2, 1, 3), (0, 25)), ((1, 0, 8), (2, 31))]:
        steps.clear()
        calls.clear()
        betti_table(*nbd)
        # every block stays alive in `steps`, so no id is reused
        in_ranks_of = {id(item.d_in): calls[id(item)][0]
                       for *_, item in steps if item.d_in is not None}
        second = handed = settled = 0
        for _, _, given, item in steps:
            if given is None or given[3] is None:
                continue
            d_in = given[3]
            if item.d_in is None:
                assert d_in.cols == 0
                settled += 1
                continue
            assert item.d_out is d_in
            _, out_ranks, before = calls[id(item)]
            assert out_ranks is in_ranks_of[id(d_in)]
            assert len(before) == 1         # ranked in its d_in role first
            route = betti._route(item.full_sizes(betti.EXACT_THRESHOLD)[1])
            if route in before:
                assert set(out_ranks) == before
            else:
                assert (before, route, set(out_ranks)) == (
                    {"modular"}, "exact", {"modular", "exact"}), (nbd, item.weight)
                second += 1
            handed += 1
        assert (second, handed) == expected and settled, nbd


def test_handed_d_out_has_the_built_rank(steps):
    # its rows are the whole kept middle of the cell below: more rows, the
    # same entries and the same rank as the d_out the cell builds alone
    betti_table(2, 0, 3, (2, 3), (1, 2))      # (2, 2) hands (3, 1) its maps
    field = linalg._field(TWO_PRIME.primes[0])
    handed = [(pq, w, item) for pq, w, given, item in steps
              if pq == (3, 1) and given and given[3] and item.d_in is not None]
    assert handed
    alone = KoszulCell(Parameters(2, 0, 3, 3, 1))
    for _, weight, block in handed:
        own = alone.block(weight)
        assert block.d_out.cols == own.d_out.cols
        assert block.target_dim >= own.target_dim
        assert block.d_out.nnz == own.d_out.nnz
        assert rank_mod_p(block.d_out, field) == rank_mod_p(own.d_out, field)


def test_store_hit_mid_antidiagonal_breaks_the_chain(tmp_path, ranked, steps):
    store = ResultStore(str(tmp_path))
    # antidiagonal 5 of (2, 0, 3) runs (2, 3), (3, 2), (4, 1), (5, 0)
    cell_result(2, 0, 3, 3, 2, TWO_PRIME, store)
    steps.clear()
    table = betti_table(2, 0, 3, config=TWO_PRIME, store=store)
    assert not any(pq == (3, 2) for pq, *_ in steps)
    assert not any(given for pq, _, given, _ in steps if pq == (4, 1))
    assert any(given and given[3] for pq, _, given, _ in steps if pq == (5, 0))
    assert_cell_by_cell(table, TWO_PRIME, ranked)
    assert all(store.get(ResultStore.key_of(2, 0, 3, p, q, TWO_PRIME)) is not None
               for p, q in table.window_cells())


def test_analytic_zeros_and_a_refused_cell_leave_the_pass(tmp_path, ranked, steps):
    # on (1, 0, 8) with q in [-1, 3] every antidiagonal starts and ends with
    # an analytic zero; on (2, 0, 3) a cap of 500,000 bytes refuses (2, 2)
    # when it is made, between (1, 3) and (3, 1), which are computed
    store = ResultStore(str(tmp_path))
    table = betti_table(1, 0, 8, q_range=(-1, 3), store=store)
    assert {q for (_, q), res in table.cells.items() if res.analytic} == {-1, 3}
    assert not any(pq[1] in (-1, 3) for pq, *_ in steps)
    # the store holds the analytic zeros where their cells are, in ascending
    # antidiagonal and ascending p
    with open(store.path, encoding="utf-8") as fh:
        put = [(rec["p"], rec["q"]) for rec in (json.loads(line)["record"] for line in fh)]
    assert put == sorted(table.cells, key=lambda pq: (pq[0] + pq[1], pq[0]))
    assert_cell_by_cell(table, TWO_PRIME, ranked)

    capped = make_config(memory_cap=500_000)
    steps.clear()
    ranked.clear()
    table = betti_table(2, 0, 3, config=capped)
    assert (2, 2) in table.failures and table.failures[(2, 2)].startswith("cell ")
    assert {(1, 3), (3, 1), (4, 0)} <= set(table.cells)
    assert not any(pq == (2, 2) for pq, *_ in steps)
    assert not any(given for pq, _, given, _ in steps if pq == (3, 1))
    assert any(given and given[3] for pq, _, given, _ in steps if pq == (4, 0))
    assert_cell_by_cell(table, capped, ranked)


def test_memory_cap_refusal_mid_antidiagonal_breaks_the_chain(monkeypatch, ranked, steps):
    # the cell (3, 2) is refused at the weight after the first one where it
    # hands (4, 1) a d_in; (4, 1) builds its own d_out from there on
    below = KoszulCell(Parameters(2, 0, 3, 3, 2))
    above = set(KoszulCell(Parameters(2, 0, 3, 4, 1)).weights())
    weights = below.weights()
    handing = next(k for k, w in enumerate(weights)
                   if w in above and below.ranked(w)[0].d_in is not None)
    refused_at = weights[handing + 1]

    class RefuseLater(KoszulCell):
        def _check_cap(self, weight):
            if (self.params.p, self.params.q) == (3, 2) and weight == refused_at:
                raise betti.InfeasibleBlockError(f"refused at {weight}", weight=weight)
            return super()._check_cap(weight)

    monkeypatch.setattr(betti, "KoszulCell", RefuseLater)
    steps.clear()
    table = betti_table(2, 0, 3)
    assert table.failures == {(3, 2): f"refused at {refused_at}"}
    given_above = [(w, given) for pq, w, given, _ in steps if pq == (4, 1)]
    assert any(given and given[3] for w, given in given_above if w > refused_at)
    assert not any(given for w, given in given_above if w <= refused_at)
    monkeypatch.setattr(betti, "KoszulCell", KoszulCell)
    assert_cell_by_cell(table, TWO_PRIME, ranked)


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


def test_table_pass_counts(monkeypatch):
    # the tables of perfbench's surface-tables workload, and (1, 6, 8)
    certified, built = [], []
    certify, block = betti.certified_rank, KoszulCell.block

    def counting_block(self, *args, **kwargs):
        built.append(self.params)
        return block(self, *args, **kwargs)

    monkeypatch.setattr(betti, "certified_rank",
                        lambda *args: certified.append(args) or certify(*args))
    monkeypatch.setattr(KoszulCell, "block", counting_block)
    for nbd in [(2, 0, 3), (2, 1, 3), (1, 0, 8), (1, 6, 8)]:
        betti_table(*nbd)
    assert (len(certified), len(built)) == (399, 340)


def test_single_cells_keep_nothing(monkeypatch, steps):
    # a lone cell is the pass over that cell alone: nothing is handed to it
    passes = []
    original = betti._pass
    monkeypatch.setattr(betti, "_pass",
                        lambda cells, config: passes.append(len(cells)) or original(cells, config))
    cell_result(2, 0, 3, 3, 1)
    list(betti.weight_blocks(2, 0, 3, 4, 1, TWO_PRIME))
    assert passes == [1, 1]
    assert steps and not any(given for *_, given, _ in steps)
