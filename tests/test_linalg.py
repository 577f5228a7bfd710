import logging
import random
from itertools import product
from math import prod

import pytest

from syzlab import linalg
from syzlab.arith import PrimeField, binom_safe, random_prime
from syzlab.betti import cell_result, default_q_lo
from syzlab.koszul import KoszulCell, Parameters
from syzlab.linalg import (
    NonUnitPivot,
    RankCertificate,
    SparseMatrix,
    _modular_ranks,
    _rank_mod,
    certified_rank,
    rank_exact,
    rank_mod_p,
)

from helpers import (
    UnreducedCell,
    default_primes,
    fraction_rank,
    from_dense,
    iter_blocks,
    iter_ranked,
    to_dense,
)

FIELD = PrimeField(default_primes(1)[0])


def random_sparse(rng, rows, cols, fill=0.3, lo=-5, hi=5):
    columns = []
    for c in range(cols):
        column = []
        for r in range(rows):
            if rng.random() < fill:
                val = 0
                while val == 0:
                    val = rng.randrange(lo, hi + 1)
                column.append((r, val))
        columns.append(tuple(column))
    return SparseMatrix(rows, tuple(columns))


def test_dense_round_trip():
    dense = [[1, 0, -2], [0, 0, 3]]
    m = from_dense(dense)
    assert m.rows == 2 and m.cols == 3 and m.nnz == 3
    assert to_dense(m) == dense


def test_rank_basics():
    ident = from_dense([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert rank_mod_p(ident, FIELD) == 5
    zero = SparseMatrix(4, ((),) * 7)
    assert rank_mod_p(zero, FIELD) == 0
    assert rank_exact(zero) == 0
    dep = from_dense([[1, 2], [2, 4]])
    assert rank_mod_p(dep, FIELD) == 1
    assert rank_exact(dep) == 1
    empty = SparseMatrix(0, ())
    assert rank_mod_p(empty, FIELD) == 0


def test_rank_matches_fraction_oracle():
    rng = random.Random(101)
    for trial in range(60):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = random_sparse(rng, rows, cols, fill=rng.uniform(0.1, 0.7))
        expect = fraction_rank(to_dense(m))
        assert rank_mod_p(m, FIELD) == expect, (trial, to_dense(m))
        assert rank_exact(m) == expect, (trial, to_dense(m))


def test_rank_is_deterministic():
    rng = random.Random(103)
    m = random_sparse(rng, 10, 10, fill=0.4)
    assert rank_mod_p(m, FIELD) == rank_mod_p(m, FIELD)


def test_block_diagonal_rank_is_additive():
    rng = random.Random(104)
    a = random_sparse(rng, 5, 6, fill=0.5)
    b = random_sparse(rng, 4, 3, fill=0.5)
    shifted = tuple(tuple((r + 5, v) for r, v in column) for column in b.columns)
    big = SparseMatrix(9, a.columns + shifted)
    assert rank_mod_p(big, FIELD) == rank_mod_p(a, FIELD) + rank_mod_p(b, FIELD)


def test_certified_rank_exact_route():
    m = from_dense([[1, 2], [2, 4], [0, 1]])
    cert = certified_rank(m, default_primes(2), True)
    assert cert == RankCertificate(2, tuple(default_primes(2)), True, True)


def test_certified_rank_modular_route():
    rng = random.Random(105)
    m = random_sparse(rng, 12, 12, fill=0.3)
    cert = certified_rank(m, default_primes(2), False)
    assert cert.rank == fraction_rank(to_dense(m))
    assert cert.agreement is True
    assert cert.exact is False


def test_certified_rank_with_one_prime_never_agrees():
    primes = tuple(default_primes(1))
    m = from_dense([[1, 2], [2, 4], [0, 1]])
    assert certified_rank(m, primes, False) == RankCertificate(2, primes, False, False)
    assert certified_rank(m, primes, True) == RankCertificate(2, primes, True, True)
    zero = SparseMatrix(3, ((),) * 3)
    assert certified_rank(zero, primes, False) == RankCertificate(0, primes, False, False)
    assert certified_rank(zero, primes, True) == RankCertificate(0, primes, True, True)


def test_certified_rank_without_primes_is_rank_exact():
    rng = random.Random(111)
    for _ in range(20):
        m = random_sparse(rng, rng.randrange(0, 9), rng.randrange(0, 9))
        assert certified_rank(m, (), True) == \
            RankCertificate(rank_exact(m), (), True, True)


def test_certified_rank_zero_matrix_fast_path():
    # the route is the caller's: no shortcut reports a zero matrix exact, and
    # on the modular route two primes agree on it
    zero = SparseMatrix(5, ((),) * 5)
    cert = certified_rank(zero, default_primes(2), True)
    assert cert.rank == 0 and cert.exact is True
    cert = certified_rank(zero, default_primes(2), False)
    assert cert.rank == 0 and cert.exact is False and cert.agreement is True


def test_bad_prime_undercount_is_reported(caplog):
    # entries divisible by one prime: that prime sees rank 0, the other 1
    p1, p2 = default_primes(2)
    m = from_dense([[p1]])
    with caplog.at_level(logging.WARNING, logger="syzlab.linalg"):
        cert = certified_rank(m, (p1, p2), False)
    assert cert.rank == 1
    assert cert.agreement is False
    assert any("disagree" in r.message or "undercount" in r.message
               for r in caplog.records)


def test_bad_prime_vs_exact_route(caplog):
    p1, p2 = default_primes(2)
    m = from_dense([[p1]])
    with caplog.at_level(logging.WARNING, logger="syzlab.linalg"):
        cert = certified_rank(m, (p1, p2), True)
    # the rational path wins and flags the lying prime
    assert cert.rank == 1 and cert.exact is True
    assert any("undercount" in r.message for r in caplog.records)


def per_prime_ranks(m, primes):
    return [rank_mod_p(m, PrimeField(p)) for p in primes]


def test_fused_kernel_matches_per_prime_ranks_on_random_pm1_matrices():
    p1, p2 = default_primes(2)
    rng = random.Random(108)
    for trial in range(80):
        rows, cols = rng.randrange(1, 25), rng.randrange(1, 25)
        m = random_sparse(rng, rows, cols, fill=rng.uniform(0.05, 0.5), lo=-1, hi=1)
        assert per_prime_ranks(m, (p1, p2)) == [_rank_mod(m, p1 * p2)] * 2, trial


@pytest.mark.parametrize("nbd", [(2, 0, 3), (2, 1, 3), (3, 0, 2)])
def test_fused_kernel_matches_per_prime_ranks_on_table_blocks(nbd):
    n, b, d = nbd
    p1, p2 = default_primes(2)
    ranked = 0
    for q in range(default_q_lo(b, d), n + 2):
        for p, cell_class in product(range(binom_safe(d + n, n)),
                                     (KoszulCell, UnreducedCell)):
            # the quotient blocks the engine ranks, and the whole blocks
            for block in iter_blocks(cell_class(Parameters(n, b, d, p, q))):
                for m in (block.d_in, block.d_out):
                    if m.nnz:
                        assert [_rank_mod(m, p1 * p2)] * 2 == per_prime_ranks(m, (p1, p2))
                        ranked += 1
    assert ranked > 100


def test_non_unit_pivot_after_fill_in_falls_back_per_prime(caplog):
    # the first pivot is 1; eliminating it leaves p1 in the corner, which is
    # nonzero mod p1 * p2 but no unit: rank 1 mod p1, rank 2 mod p2
    p1, p2 = default_primes(2)
    m = from_dense([[1, 1], [1, 1 + p1]])
    with pytest.raises(NonUnitPivot):
        _rank_mod(m, p1 * p2)
    assert _modular_ranks(m, (p1, p2)) == [1, 2]
    with caplog.at_level(logging.WARNING, logger="syzlab.linalg"):
        cert = certified_rank(m, (p1, p2), False)
    assert cert == RankCertificate(2, (p1, p2), False, False)
    assert any("disagree" in r.message for r in caplog.records)
    with caplog.at_level(logging.WARNING, logger="syzlab.linalg"):
        cert = certified_rank(m, (p1, p2), True)
    assert cert == RankCertificate(2, (p1, p2), True, True)
    assert any("undercount" in r.message for r in caplog.records)


def test_duplicate_primes_give_the_per_prime_ranks():
    p1, p2 = default_primes(2)
    m = from_dense([[1, 1], [1, 1 + p1]])
    assert _modular_ranks(m, (p1, p1)) == [1, 1]
    assert _modular_ranks(m, (p1, p2, p1)) == [1, 2, 1]
    assert certified_rank(m, (p1, p1), False) == RankCertificate(1, (p1, p1), True, False)
    rng = random.Random(109)
    for trial in range(20):
        m = random_sparse(rng, 10, 12, fill=0.3, lo=-1, hi=1)
        for primes in ((p1, p1), (p2, p1, p2)):
            assert _modular_ranks(m, primes) == per_prime_ranks(m, primes)


def rank_mod_dense(dense, p) -> int:
    """Rank over F_p by Gauss-Jordan elimination on residues in [0, p), as
    fraction_rank does over Q."""
    rows = [[x % p for x in row] for row in dense]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def wide_sparse(rng, rows, cols, moduli, fill):
    """A random matrix whose entries include multiples of each modulus (zero
    mod it), values at and above it, and negatives of both."""
    values = [v for m in moduli for v in (m, 2 * m, m - 1, m + 1, 3 * m + 2)]
    values += [-v for v in values] + [1, -1, 2, -2, 3]
    columns = tuple(tuple((r, rng.choice(values)) for r in range(rows) if rng.random() < fill)
                    for _ in range(cols))
    return SparseMatrix(rows, columns)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kernel_matches_dense_elimination_mod_small_primes(p):
    # products of small residues leave (-p, p) at once, so the kernel
    # reduces on overflow at nearly every update
    rng = random.Random(200 + p)
    for trial in range(80):
        m = wide_sparse(rng, rng.randrange(1, 10), rng.randrange(1, 10), (p,),
                        rng.uniform(0.2, 0.8))
        dense = to_dense(m)
        assert _rank_mod(m, p) == rank_mod_dense(dense, p), (trial, dense)
        assert _rank_mod(m, p) <= fraction_rank(dense), (trial, dense)


@pytest.mark.parametrize("primes", [(3, 5), (5, 7), (3, 7), default_primes(2)],
                         ids=lambda primes: "x".join(map(str, primes)))
def test_kernel_mod_a_product_gives_each_primes_rank(primes):
    # a joint run over Z/(p1 p2) that finds a unit at every pivot counts the
    # rank in both fields at once, else it raises NonUnitPivot
    p1, p2 = primes
    rng = random.Random(p1 * p2)
    joint = non_unit = 0
    for trial in range(120):
        m = wide_sparse(rng, rng.randrange(1, 10), rng.randrange(1, 10), primes,
                        rng.uniform(0.2, 0.8))
        dense = to_dense(m)
        per_prime = [_rank_mod(m, p1), _rank_mod(m, p2)]
        assert per_prime == [rank_mod_dense(dense, p1), rank_mod_dense(dense, p2)], trial
        try:
            rank = _rank_mod(m, p1 * p2)
        except NonUnitPivot:
            non_unit += 1
        else:
            assert per_prime == [rank, rank], (trial, dense)
            joint += 1
        if p1.bit_length() >= 31:
            assert _modular_ranks(m, primes) == per_prime_ranks(m, primes) == per_prime
    assert joint > 10 and non_unit > 10, (joint, non_unit)


def test_certified_rank_checks_its_primes():
    m = from_dense([[1, 1], [1, 2]])
    p1 = default_primes(1)[0]
    with pytest.raises(ValueError, match="not prime"):
        certified_rank(m, (p1, p1 + 2), False)


ENTRYLESS = [SparseMatrix(0, ()), SparseMatrix(3, ()), SparseMatrix(0, ((),) * 3),
             SparseMatrix(4, ((),) * 5)]


def eliminated_certificate(m, primes, exact):
    """The certificate the elimination kernels give on m."""
    if exact:
        return RankCertificate(rank_exact(m), primes, True, True)
    ranks = _modular_ranks(m, primes)
    return RankCertificate(max(ranks), primes, len(set(ranks)) == 1 and len(ranks) > 1, False)


@pytest.mark.parametrize("m", ENTRYLESS, ids=lambda m: f"{m.rows}x{m.cols}")
def test_certified_rank_without_entries_eliminates_nothing(m, monkeypatch):
    p1, p2 = default_primes(2)
    routes = [(primes, exact) for primes in ((p1,), (p1, p2), (p1, p1))
              for exact in (True, False)] + [((), True)]
    want = [eliminated_certificate(m, primes, exact) for primes, exact in routes]

    def no_elimination(*args):
        raise AssertionError("a map without entries was eliminated")

    monkeypatch.setattr(linalg, "rank_exact", no_elimination)
    monkeypatch.setattr(linalg, "_rank_mod", no_elimination)
    assert [certified_rank(m, primes, exact) for primes, exact in routes] == want
    # each prime is still checked, on both routes
    for bad in (2, random_prime(20, 0)):
        for exact in (True, False):
            with pytest.raises(ValueError, match="31-62 bits"):
                certified_rank(m, (p1, bad), exact)


@pytest.mark.parametrize("m", ENTRYLESS + [from_dense([[1]]), from_dense([[1, 2], [2, 4]])],
                         ids=lambda m: f"{m.rows}x{m.cols}-nnz{m.nnz}")
def test_modular_route_refuses_no_primes(m):
    with pytest.raises(ValueError, match="needs at least one prime"):
        certified_rank(m, (), False)
    assert certified_rank(m, (), True) == RankCertificate(rank_exact(m), (), True, True)


def test_large_random_cross_backend_agreement():
    rng = random.Random(107)
    for trial in range(10):
        m = random_sparse(rng, 20, 20, fill=0.15)
        r1 = rank_mod_p(m, FIELD)
        r2 = rank_exact(m)
        r3 = fraction_rank(to_dense(m))
        assert r1 == r2 == r3


@pytest.mark.parametrize("columns", [(((0, 1), (2, 1)),), (((0, 1), (-1, 1)),),
                                     (((0, 1), (1, -1), (0, 1)),)],
                         ids=["row-past-the-end", "negative-row", "repeated-row"])
def test_kernel_refuses_a_malformed_map(columns):
    # SparseMatrix checks nothing: the kernel's own set-up must catch what
    # would corrupt its live counts, on every route
    m = SparseMatrix(2, columns)
    p1, p2 = default_primes(2)
    for modulus in (2, p1, p1 * p2):
        with pytest.raises(linalg.InvariantError):
            _rank_mod(m, modulus)
    for exact in (False, True):
        with pytest.raises(linalg.InvariantError):
            certified_rank(m, (p1, p2), exact)
    # a row repeated in another column is no fault
    assert _rank_mod(SparseMatrix(2, (((0, 1),), ((0, 1), (1, 1)))), p1) == 2


def test_a_repeat_after_an_entry_zero_mod_the_modulus_is_refused():
    # the 3 is no entry mod 3, but it is nonzero over Z: the map is refused
    # under every modulus, as rank_exact refuses it
    m = SparseMatrix(1, (((0, 3), (0, 1)),))
    for modulus in (3, 5, 15):
        with pytest.raises(linalg.InvariantError):
            _rank_mod(m, modulus)
    with pytest.raises(linalg.InvariantError):
        rank_exact(m)


@pytest.mark.parametrize("rows, zeros, plain", [
    # an explicit 0 alone in a column, and a 0 just before a repeat of its
    # row in the same column
    (3, (((0, 1), (1, 1)), ((1, -1), (2, 0), (2, 1)), ((1, 0),), ((0, 1), (2, 1))),
     (((0, 1), (1, 1)), ((1, -1), (2, 1)), (), ((0, 1), (2, 1)))),
    # the lone 0 is the map's only pair
    (1, (((0, 0),),), ((),)),
], ids=["among-entries", "only-pair"])
def test_zero_values_are_no_entries(rows, zeros, plain):
    zeros, plain = SparseMatrix(rows, zeros), SparseMatrix(rows, plain)
    p1, p2 = default_primes(2)
    for modulus in (2, p1, p1 * p2):
        assert _rank_mod(zeros, modulus) == _rank_mod(plain, modulus), modulus
    assert rank_exact(zeros) == rank_exact(plain) == fraction_rank(to_dense(plain))
    for exact in (True, False):
        assert certified_rank(zeros, (p1, p2), exact) == certified_rank(plain, (p1, p2), exact)


@pytest.fixture
def core_rows(monkeypatch):
    """The row count of each matrix that reaches the core elimination."""
    seen = []

    def spy(rows, modulus):
        seen.append(len(rows))
        return markowitz(rows, modulus)

    markowitz = linalg._markowitz
    monkeypatch.setattr(linalg, "_markowitz", spy)
    return seen


def cycle_boundary(vertices, offset=0):
    """The boundary of a hollow polygon: one column per edge (i, i + 1),
    -1 at i and +1 at i + 1, both rows shifted by `offset`."""
    return [((offset + i, -1), (offset + (i + 1) % vertices, 1)) for i in range(vertices)]


def path_boundary(vertices, offset=0):
    """The boundary of a path on `vertices` vertices, a tree: it peels whole."""
    return [((offset + i, -1), (offset + i + 1, 1)) for i in range(vertices - 1)]


def test_hollow_square_is_ranked_by_the_core_alone(core_rows):
    # every row and column has two entries, so nothing peels
    square = SparseMatrix(4, tuple(cycle_boundary(4)))
    p1, p2 = default_primes(2)
    for modulus in (2, 3, p1, p1 * p2):
        assert _rank_mod(square, modulus) == 3 == rank_mod_dense(to_dense(square), 3)
    assert core_rows == [4] * 4


def test_block_diagonal_mix_of_a_peelable_part_and_a_core(core_rows):
    # a path on 5 vertices peels whole, a hollow hexagon is left as the core
    m = SparseMatrix(11, tuple(path_boundary(5) + cycle_boundary(6, offset=5)))
    p1, p2 = default_primes(2)
    dense = to_dense(m)
    for modulus in (2, 5, p1 * p2):
        assert _rank_mod(m, modulus) == 4 + 5 == fraction_rank(dense)
    assert _rank_mod(SparseMatrix(5, tuple(path_boundary(5))), p1) == 4
    assert core_rows == [6] * 3


@pytest.mark.parametrize("dense, ranks", [(lambda p1: [[p1]], [0, 1]),
                                          (lambda p1: [[1, 1], [0, p1]], [1, 2])],
                         ids=["alone", "after-a-unit"])
def test_lone_non_unit_met_in_the_peel(dense, ranks, core_rows):
    # p1 is nonzero mod p1 * p2 but no unit: the peel refuses it as a pivot
    # (in the second map only after a unit pivot has emptied its row), and
    # the per-prime runs find the ranks
    p1, p2 = default_primes(2)
    m = from_dense(dense(p1))
    with pytest.raises(NonUnitPivot):
        _rank_mod(m, p1 * p2)
    assert core_rows == []
    assert _modular_ranks(m, (p1, p2)) == ranks == [rank_mod_dense(to_dense(m), p)
                                                    for p in (p1, p2)]


def one_or_two_per_column(rng, rows, cols, values):
    """Columns of two entries, one in ten of one, each value +-1 or, one
    time in four, one of `values`."""
    return SparseMatrix(rows, tuple(
        tuple(sorted((r, rng.choice(values) if rng.random() < 0.25 else rng.choice((1, -1)))
                     for r in rng.sample(range(rows), k)))
        for k in (1 if rows == 1 or rng.random() < 0.1 else 2 for _ in range(cols))))


@pytest.mark.parametrize("moduli", [(3,), (5,), (7,), default_primes(2)],
                         ids=lambda moduli: "x".join(map(str, moduli)))
def test_kernel_matches_dense_on_maps_with_one_or_two_entries_per_column(moduli, core_rows):
    # the Koszul maps' regime: mostly peeled, a cycle now and then left as a
    # core; values include multiples of each prime and non-units of the
    # product
    modulus = prod(moduli)
    values = [v for p in moduli for v in (p, 2 * p, p - 1, p + 1)] + [2, 3]
    values += [-v for v in values]
    rng = random.Random(modulus)
    joint = non_unit = 0
    for trial in range(150):
        rows = rng.randrange(1, 9)
        m = one_or_two_per_column(rng, rows, rng.randrange(1, 2 * rows + 2), values)
        dense = to_dense(m)
        want = [rank_mod_dense(dense, p) for p in moduli]
        try:
            rank = _rank_mod(m, modulus)
        except NonUnitPivot:
            non_unit += 1
            assert len(moduli) == 2, (trial, dense)
        else:
            joint += 1
            assert [rank] * len(moduli) == want, (trial, dense)
        if len(moduli) == 2:
            assert _modular_ranks(m, moduli) == want, (trial, dense)
    assert joint > 50 and len(core_rows) > 10, (joint, len(core_rows))
    assert len(moduli) == 1 or non_unit > 10, non_unit


@pytest.mark.parametrize("p, q, core", [(6, 1, []), (11, 2, []), (9, 2, [24, 26, 40])])
def test_core_elimination_on_the_quartic_cells(p, q, core, core_rows):
    # every map of K_{6,1} and K_{11,2} of (2, 0, 4) peels whole; K_{9,2}
    # leaves a core in 3 maps, so a real Koszul map keeps that path tested
    cell_result(2, 0, 4, p, q)
    assert core_rows == core


def whole_matrix_core_rank(m, modulus):
    """The core loop's rank on all of m, with no peel."""
    return linalg._markowitz({r: {c: v % modulus for c, v in column}
                              for r, column in enumerate(m.columns) if column}, modulus)


@pytest.mark.parametrize("nbd, cells", [
    ((2, 0, 3), None), ((2, 1, 3), None), ((1, 0, 8), None), ((1, 6, 8), None),
    ((2, 0, 4), ((6, 1), (11, 2), (9, 2))),
], ids=lambda x: ",".join(map(str, x)) if x and isinstance(x[0], int) else "")
def test_peel_and_core_match_the_core_loop_alone(nbd, cells):
    # the surface-tables tables, with (1, 0, 8)'s duality companion, and the
    # quartic cells: every built map, mod p1 * p2 and mod 2
    n, b, d = nbd
    modulus = prod(default_primes(2))
    cells = cells or [(p, q) for q in range(default_q_lo(b, d), n + 2)
                      for p in range(binom_safe(d + n, n))]
    ranked = 0
    for p, q in cells:
        for block in iter_ranked(KoszulCell(Parameters(n, b, d, p, q))):
            for m in (block.d_in, block.d_out) if block.d_in is not None else ():
                if m.nnz:
                    for mod in (modulus, 2):
                        assert _rank_mod(m, mod) == whole_matrix_core_rank(m, mod), (p, q)
                    ranked += 1
    assert ranked > 20, ranked
