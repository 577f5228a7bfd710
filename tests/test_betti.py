import json
import multiprocessing
import random

import pytest

from syzlab import betti, linalg
from syzlab.betti import (
    BettiTable,
    CellResult,
    CorruptRecordError,
    EngineConfig,
    IncompleteTableError,
    LEVEL_EXACT,
    LEVEL_TWO_PRIME,
    ResultStore,
    StoreConflictError,
    betti_table,
    cell_result,
    check_duality,
    default_q_lo,
    dual_b,
    dual_cell_coords,
    euler_check,
    hilbert_numerator_coeffs,
    kpq_dim,
    m2_text,
    make_config,
)

from helpers import append_records, brute_hilbert_numerator, brute_kpq, kpq_dim_unblocked

TWO_PRIME = make_config()
EXACT = make_config("exact")


# ---------------------------------------------------------------- single cells

def test_frozen_cell_values():
    assert kpq_dim(1, 0, 2, 1, 1) == 1
    assert kpq_dim(2, 0, 2, 1, 1) == 6
    assert kpq_dim(1, 0, 3, 2, 1) == 2
    assert kpq_dim(1, 0, 3, 1, 1) == 3
    assert kpq_dim(1, 0, 3, 0, 0) == 1


def test_cells_match_bruteforce_grid():
    for n in (1, 2):
        for b in (0, 1):
            for d in (1, 2):
                for p in range(0, 3):
                    for q in range(0, n + 2):
                        got = kpq_dim(n, b, d, p, q)
                        want = brute_kpq(n, b, d, p, q)
                        assert got == want, (n, b, d, p, q, got, want)


def test_unblocked_agrees_with_blocked():
    for (n, b, d, p, q) in [(1, 0, 2, 1, 1), (1, 1, 2, 2, 1), (2, 0, 2, 1, 1),
                            (1, 0, 3, 2, 1), (2, 1, 1, 1, 1), (1, 1, 3, 1, 0)]:
        assert kpq_dim_unblocked(n, b, d, p, q) == kpq_dim(n, b, d, p, q)


def test_all_modes_agree():
    for (n, b, d, p, q) in [(1, 0, 3, 2, 1), (2, 0, 2, 1, 1), (1, 1, 4, 2, 1)]:
        base = kpq_dim(n, b, d, p, q, EXACT)
        assert kpq_dim(n, b, d, p, q, TWO_PRIME) == base


def test_analytic_zeros():
    # q beyond n+1 and negative q with b < d are settled without matrices
    for (n, b, d, p, q) in [(1, 0, 2, 1, 3), (2, 1, 2, 4, 4), (1, 0, 2, 1, -1),
                            (2, 1, 3, 2, -2), (1, 0, 3, -1, 1)]:
        res = cell_result(n, b, d, p, q)
        assert res.dim == 0
        assert res.analytic is True
        assert res.level == LEVEL_EXACT


def test_negative_q_with_large_twist_is_not_assumed_zero():
    # b >= d allows nonzero K_{p,q} at q < 0: this one is honestly computed
    res = cell_result(1, 3, 2, 1, -1)
    assert res.analytic is False
    assert res.dim == 2
    assert res.dim == brute_kpq(1, 3, 2, 1, -1)


def test_cell_metadata():
    res = cell_result(1, 0, 3, 2, 1, TWO_PRIME)
    assert (res.n, res.b, res.d, res.p, res.q) == (1, 0, 3, 2, 1)
    assert res.dim == 2
    assert res.level in (LEVEL_EXACT, LEVEL_TWO_PRIME)
    assert res.agreement is True
    assert len(res.primes) == 2
    assert res.block_count > 0
    assert res.max_block_dim > 0
    assert res.wall_time_ms >= 0


def test_cell_record_round_trip():
    res = cell_result(1, 0, 2, 1, 1)
    assert CellResult.from_record(res.to_record()) == res


def test_cell_record_holds_every_field_and_the_engine_settings():
    rec = cell_result(1, 0, 3, 2, 1).to_record()
    assert rec.pop("wall_time_ms") >= 0
    assert rec == {
        "n": 1, "b": 0, "d": 3, "p": 2, "q": 1, "dim": 2, "level": "exact",
        "agreement": True, "primes": [1315212539, 1118872889],
        "exact_threshold": 256, "engine_version": "0.1.0",
        "block_count": 8, "max_block_dim": 5, "analytic": False,
    }


def test_record_without_analytic_loads_as_not_analytic():
    # stores written before the flag existed hold no "analytic" key
    res = cell_result(1, 0, 3, 2, 1)
    rec = res.to_record()
    del rec["analytic"]
    assert CellResult.from_record(rec) == res
    assert CellResult.from_record(rec).analytic is False


def test_config_validation():
    with pytest.raises(ValueError, match="unknown mode 'three-prime'"):
        make_config("three-prime")
    with pytest.raises(ValueError, match="unknown mode 'one-prime'"):
        make_config("one-prime")
    with pytest.raises(ValueError):
        EngineConfig(mode=LEVEL_TWO_PRIME, primes=(7,), memory_cap=1 << 20)
    # one prime given twice, or drawn by two seeds, is one field
    with pytest.raises(ValueError, match="two distinct primes"):
        EngineConfig(mode=LEVEL_TWO_PRIME, primes=(7, 7))
    with pytest.raises(ValueError, match="two distinct primes"):
        make_config(prime_seeds=(5, 5))
    assert EngineConfig(mode=LEVEL_EXACT, primes=(7, 7)).primes == (7, 7)
    for retired in ("backend", "threads", "prime_bits", "exact_threshold"):
        with pytest.raises(TypeError):
            make_config(**{retired: 1})


# --------------------------------------------------------------------- tables

def test_twisted_cubic_table():
    table = betti_table(1, 0, 3)
    assert table.r_d == 3
    nonzero = {pq: c.dim for pq, c in table.cells.items() if c.dim}
    assert nonzero == {(0, 0): 1, (1, 1): 3, (2, 1): 2}
    assert table.nonzero_p(1) == [1, 2]
    assert table.max_dim() == 3
    assert table.missing_cells() == []
    assert not table.failures


def test_rational_curve_closed_form():
    # dim K_{p,1}(P^1, 0; d) = p * binom(d, p+1)
    import math
    for d in (2, 3, 4, 5):
        table = betti_table(1, 0, d)
        for p in range(0, d):
            assert table.dim(p, 1) == p * math.comb(d, p + 1), (d, p)


def test_window_subset():
    table = betti_table(1, 0, 4, p_range=(1, 2), q_range=(1, 1))
    assert sorted(table.cells) == [(1, 1), (2, 1)]
    assert table.dim(1, 1) == 6
    with pytest.raises(KeyError):
        table.dim(0, 0)


def test_table_records_infeasible_cells():
    config = make_config(memory_cap=2000)
    table = betti_table(1, 0, 3, config=config)
    assert table.failures  # big cells refused under a 2 kB cap
    for pq, err in table.failures.items():
        assert pq not in table.cells
        assert "cap is 2000" in err


# ---------------------------------------------------------------------- euler

def test_hilbert_numerator_examples():
    assert hilbert_numerator_coeffs(1, 0, 2, 4) == [1, 0, -1, 0, 0]
    assert hilbert_numerator_coeffs(2, 0, 3, 6) == [1, 0, -27, 105, -189, 189, -105]


def test_hilbert_numerator_matches_bruteforce():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randrange(1, 4)
        b = rng.randrange(0, 3)
        d = rng.randrange(1, 4)
        jmax = rng.randrange(3, 9)
        assert hilbert_numerator_coeffs(n, b, d, jmax) == \
            brute_hilbert_numerator(n, b, d, jmax)


def test_euler_identity_holds():
    for (n, b, d) in [(1, 0, 2), (1, 0, 3), (1, 1, 3), (1, 0, 4), (1, 1, 4), (2, 0, 2)]:
        report = euler_check(betti_table(n, b, d))
        assert report.ok, (n, b, d, report.nonzero_residuals())


def test_euler_detects_a_perturbed_cell():
    table = betti_table(1, 0, 3)
    cells = dict(table.cells)
    victim = cells[(1, 1)]
    cells[(1, 1)] = victim.replace(dim=victim.dim + 1)
    tampered = BettiTable(table.n, table.b, table.d, table.p_range,
                          table.q_range, cells, {})
    report = euler_check(tampered)
    assert not report.ok
    assert report.nonzero_residuals() == {2: -1}


def test_euler_misses_a_wrong_interior_rank_that_duality_sees(monkeypatch):
    # a map's one certificate serves both cells it borders, so a rank one
    # too low raises both their dims by the size of its weight's orbit, and
    # the Euler sums telescope past it; the self-dual (2,0,3) table then
    # fails duality
    lowered = []

    def one_lower(m, primes, exact):
        cert = linalg.certified_rank(m, primes, exact)
        if cert.rank and not lowered:
            lowered.append(cert)
            return cert.replace(rank=cert.rank - 1)
        return cert

    truth = betti_table(2, 0, 3)
    monkeypatch.setattr(betti, "certified_rank", one_lower)
    table = betti_table(2, 0, 3)
    assert lowered
    moved = {pq: (res.dim, table.cells[pq].dim)
             for pq, res in truth.cells.items() if res.dim != table.cells[pq].dim}
    assert len(moved) == 2 and len({new - old for old, new in moved.values()}) == 1, moved
    assert all(new > old for old, new in moved.values())
    (p, q), neighbour = sorted(moved)
    assert neighbour == (p + 1, q - 1)
    assert euler_check(table).ok
    assert not check_duality(table).ok


def test_euler_rejects_partial_window():
    partial = betti_table(1, 0, 3, p_range=(0, 1))
    with pytest.raises(IncompleteTableError):
        euler_check(partial)


def test_euler_rejects_tables_with_failures():
    # refused cells are named as refused, not as missing from the window
    table = betti_table(1, 0, 3, config=make_config(memory_cap=2000))
    assert table.failures
    with pytest.raises(IncompleteTableError, match="infeasible cells") as info:
        euler_check(table)
    assert info.value.missing == sorted(table.failures)


# -------------------------------------------------------------------- duality

def test_dual_coordinates():
    assert dual_b(1, 0, 3) == 1
    assert dual_b(2, 0, 3) == 0
    assert dual_cell_coords(1, 0, 3, 1, 1) == (1, 0)
    assert dual_cell_coords(2, 0, 3, 7, 2) == (0, 0)


def test_duality_involution():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randrange(1, 4)
        b = rng.randrange(0, 3)
        d = rng.randrange(b + n + 1, b + n + 5)
        p = rng.randrange(0, 8)
        q = rng.randrange(0, n + 1)
        b2 = dual_b(n, b, d)
        assert b2 >= 0
        assert dual_b(n, b2, d) == b
        p2, q2 = dual_cell_coords(n, b, d, p, q)
        assert dual_cell_coords(n, b2, d, p2, q2) == (p, q)


def test_self_dual_table():
    report = check_duality(betti_table(1, 1, 4))
    assert report.ok
    assert report.b_dual == 1


def test_duality_with_companion():
    left = betti_table(1, 0, 3)
    right = betti_table(1, 1, 3)
    report = check_duality(left, right)
    assert report.ok
    assert report.b_dual == 1
    # and the mirrored direction
    assert check_duality(right, left).ok


def test_duality_mismatch_is_reported():
    left = betti_table(1, 0, 3)
    right = betti_table(1, 1, 3)
    cells = dict(right.cells)
    victim = cells[(1, 0)]
    cells[(1, 0)] = victim.replace(dim=victim.dim + 5)
    tampered = BettiTable(right.n, right.b, right.d, right.p_range,
                          right.q_range, cells, {})
    report = check_duality(left, tampered)
    assert not report.ok
    assert any(m[:2] == (1, 1) for m in report.mismatches)


def test_duality_precondition():
    with pytest.raises(ValueError):
        check_duality(betti_table(1, 1, 2))   # d < b + n + 1


def test_duality_needs_companion_when_twists_differ():
    with pytest.raises(ValueError):
        check_duality(betti_table(1, 0, 3))   # b' = 1 != 0


def test_duality_rejects_wrong_companion():
    with pytest.raises(ValueError):
        check_duality(betti_table(1, 0, 3), betti_table(1, 0, 4))


# ---------------------------------------------------------------------- store

def test_store_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "cache"))
    res = cell_result(1, 0, 2, 1, 1, TWO_PRIME, store)
    again = cell_result(1, 0, 2, 1, 1, TWO_PRIME, store)
    assert again == res  # including wall_time_ms: served from the store
    fresh = ResultStore(str(tmp_path / "cache"))
    key = ResultStore.key_of(1, 0, 2, 1, 1, TWO_PRIME)
    assert fresh.get(key) == res.to_record()


def test_store_write_once_semantics(tmp_path):
    store = ResultStore(str(tmp_path))
    key = ResultStore.key_of(1, 0, 2, 1, 1, TWO_PRIME)
    rec = cell_result(1, 0, 2, 1, 1, TWO_PRIME).to_record()
    store.put(key, rec)
    store.put(key, dict(rec, wall_time_ms=rec["wall_time_ms"] + 999))  # timing may differ
    with pytest.raises(StoreConflictError):
        store.put(key, dict(rec, dim=rec["dim"] + 1))


def test_store_detects_corruption(tmp_path):
    store = ResultStore(str(tmp_path))
    key = ResultStore.key_of(1, 0, 2, 1, 1, TWO_PRIME)
    store.put(key, cell_result(1, 0, 2, 1, 1, TWO_PRIME).to_record())
    lines = []
    with open(store.path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            row["record"]["dim"] = 42  # bit rot, CRC left alone
            lines.append(json.dumps(row))
    with open(store.path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    reloaded = ResultStore(str(tmp_path))
    with pytest.raises(CorruptRecordError):
        reloaded.get(key)


def key_under(mode=LEVEL_TWO_PRIME, primes=(7, 11)):
    return ResultStore.key_of(1, 0, 2, 1, 1, EngineConfig(mode, primes))


def test_store_key_depends_on_primes(tmp_path):
    a = key_under(primes=(7, 11))
    b = key_under(primes=(7, 13))
    assert a != b
    assert a == key_under(primes=(11, 7))  # order-free
    assert key_under(LEVEL_EXACT, ()) != key_under(LEVEL_EXACT, (7,))  # results print them


def test_store_key_covers_exact_threshold(monkeypatch):
    # the key holds the constant, so a store never serves a two-prime result
    # computed under another value of it
    base, exact = key_under(), key_under(LEVEL_EXACT, ())
    assert json.loads(base)["exact_threshold"] == betti.EXACT_THRESHOLD == 256
    monkeypatch.setattr(betti, "EXACT_THRESHOLD", 0)
    assert key_under() != base
    # the threshold changes no answer in exact mode
    assert key_under(LEVEL_EXACT, ()) == exact


def test_store_key_covers_the_mode():
    assert key_under(LEVEL_EXACT, (7, 11)) != key_under(LEVEL_TWO_PRIME, (7, 11))


def test_store_never_serves_another_configs_result(tmp_path, monkeypatch):
    store = ResultStore(str(tmp_path))
    computed = []
    compute = betti._compute_cell

    def counting(*args):
        computed.append(args)
        return compute(*args)

    monkeypatch.setattr(betti, "_compute_cell", counting)
    first = cell_result(1, 0, 3, 1, 1, TWO_PRIME, store)
    with monkeypatch.context() as patch:
        patch.setattr(betti, "EXACT_THRESHOLD", 0)
        second = cell_result(1, 0, 3, 1, 1, TWO_PRIME, store)
        assert len(computed) == 2                # the other threshold ran afresh
        assert second.dim == first.dim
        assert second.level != first.level      # its maps took the modular route
        assert cell_result(1, 0, 3, 1, 1, TWO_PRIME, store) == second   # now stored
    assert cell_result(1, 0, 3, 1, 1, TWO_PRIME, ResultStore(str(tmp_path))) == first
    assert len(computed) == 2


def test_processes_appending_to_one_store_leave_every_line_whole(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=append_records, args=(str(tmp_path), q, 100))
             for q in range(4)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
    for proc in procs:
        if proc.is_alive():
            proc.kill()
    assert [proc.exitcode for proc in procs] == [0] * 4
    with open(tmp_path / ResultStore.FILENAME, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 400
    store = ResultStore(str(tmp_path))
    assert store._torn_at is None
    records = [store.get(ResultStore.key_of(1, 0, 2, p, q, EXACT))
               for p in range(100) for q in range(4)]
    assert None not in records


def test_torn_line_is_cut_only_if_no_other_process_appended(tmp_path):
    first, second, third = (cell_result(1, 0, 3, p, 1, TWO_PRIME).to_record()
                            for p in (0, 1, 2))
    def key(rec):
        return ResultStore.key_of(1, 0, 3, rec["p"], 1, TWO_PRIME)

    ResultStore(str(tmp_path)).put(key(first), first)
    path = tmp_path / ResultStore.FILENAME
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "torn')                      # crash mid-append
    late, early = ResultStore(str(tmp_path)), ResultStore(str(tmp_path))
    early.put(key(second), second)   # cuts the torn line off, then appends
    late.put(key(third), third)      # must not cut again: that would drop `second`
    reloaded = ResultStore(str(tmp_path))
    assert reloaded._torn_at is None
    for rec in (first, second, third):
        assert reloaded.get(key(rec)) == rec


# ------------------------------------------------------------------- plumbing

def test_default_q_lo():
    assert default_q_lo(0, 2) == 0
    assert default_q_lo(1, 3) == 0
    assert default_q_lo(3, 2) == -1
    assert default_q_lo(4, 2) == -2


def test_m2_text_layout():
    text = m2_text(betti_table(1, 0, 3))
    lines = text.splitlines()
    assert lines[0].split() == ["q\\p", "0", "1", "2", "3"]
    grid = {row.split()[0]: row.split()[1:] for row in lines[1:]}
    assert grid["0"] == ["1", ".", ".", "."]
    assert grid["1"] == [".", "3", "2", "."]
    assert grid["2"] == [".", ".", ".", "."]
