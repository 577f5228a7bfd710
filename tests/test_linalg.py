import logging
import random
from itertools import product

import pytest

from syzlab.arith import PrimeField, binom_safe, default_primes
from syzlab.betti import default_q_lo
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

from helpers import UnreducedCell, fraction_rank

FIELD = PrimeField(default_primes(1)[0])


def random_sparse(rng, rows, cols, fill=0.3, lo=-5, hi=5):
    entries = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() < fill:
                val = 0
                while val == 0:
                    val = rng.randrange(lo, hi + 1)
                entries.append((r, c, val))
    return SparseMatrix(rows, cols, tuple(entries))


def test_sparse_matrix_validation():
    SparseMatrix(2, 2, ((0, 0, 1), (1, 1, -1)))  # fine
    with pytest.raises(AssertionError):
        SparseMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))   # duplicate position
    with pytest.raises(AssertionError):
        SparseMatrix(2, 2, ((0, 0, 0),))             # explicit zero
    with pytest.raises(AssertionError):
        SparseMatrix(2, 2, ((2, 0, 1),))             # row out of range
    with pytest.raises(AssertionError):
        SparseMatrix(2, 2, ((0, -1, 1),))            # col out of range


def test_dense_round_trip():
    dense = [[1, 0, -2], [0, 0, 3]]
    m = SparseMatrix.from_dense(dense)
    assert m.rows == 2 and m.cols == 3 and m.nnz == 3
    assert m.to_dense() == dense


def test_rank_basics():
    ident = SparseMatrix.from_dense([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert rank_mod_p(ident, FIELD) == 5
    zero = SparseMatrix(4, 7, ())
    assert rank_mod_p(zero, FIELD) == 0
    assert rank_exact(zero) == 0
    dep = SparseMatrix.from_dense([[1, 2], [2, 4]])
    assert rank_mod_p(dep, FIELD) == 1
    assert rank_exact(dep) == 1
    empty = SparseMatrix(0, 0, ())
    assert rank_mod_p(empty, FIELD) == 0


def test_rank_matches_fraction_oracle():
    rng = random.Random(101)
    for trial in range(60):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = random_sparse(rng, rows, cols, fill=rng.uniform(0.1, 0.7))
        expect = fraction_rank(m.to_dense())
        assert rank_mod_p(m, FIELD) == expect, (trial, m.to_dense())
        assert rank_exact(m) == expect, (trial, m.to_dense())


def test_rank_is_deterministic():
    rng = random.Random(103)
    m = random_sparse(rng, 10, 10, fill=0.4)
    assert rank_mod_p(m, FIELD) == rank_mod_p(m, FIELD)


def test_block_diagonal_rank_is_additive():
    rng = random.Random(104)
    a = random_sparse(rng, 5, 6, fill=0.5)
    b = random_sparse(rng, 4, 3, fill=0.5)
    entries = list(a.entries) + [(r + 5, c + 6, v) for r, c, v in b.entries]
    big = SparseMatrix(9, 9, tuple(entries))
    assert rank_mod_p(big, FIELD) == rank_mod_p(a, FIELD) + rank_mod_p(b, FIELD)


def test_certified_rank_exact_route():
    m = SparseMatrix.from_dense([[1, 2], [2, 4], [0, 1]])
    cert = certified_rank(m, default_primes(2), exact_threshold=100)
    assert cert == RankCertificate(2, tuple(default_primes(2)), True, True)


def test_certified_rank_modular_route():
    rng = random.Random(105)
    m = random_sparse(rng, 12, 12, fill=0.3)
    cert = certified_rank(m, default_primes(2), exact_threshold=0)
    assert cert.rank == fraction_rank(m.to_dense())
    assert cert.agreement is True
    assert cert.exact is False


def test_certified_rank_with_one_prime_never_agrees():
    primes = tuple(default_primes(1))
    m = SparseMatrix.from_dense([[1, 2], [2, 4], [0, 1]])
    assert certified_rank(m, primes) == RankCertificate(2, primes, False, False)
    assert certified_rank(m, primes, exact_threshold=100) == \
        RankCertificate(2, primes, True, True)
    assert certified_rank(SparseMatrix(3, 3, ()), primes) == \
        RankCertificate(0, primes, True, True)


def test_certified_rank_without_primes_is_rank_exact():
    rng = random.Random(111)
    for _ in range(20):
        m = random_sparse(rng, rng.randrange(0, 9), rng.randrange(0, 9))
        assert certified_rank(m, (), float("inf")) == \
            RankCertificate(rank_exact(m), (), True, True)


def test_certified_rank_zero_matrix_fast_path():
    cert = certified_rank(SparseMatrix(5, 5, ()), default_primes(2))
    assert cert.rank == 0 and cert.exact is True


def test_bad_prime_undercount_is_reported(caplog):
    # entries divisible by one prime: that prime sees rank 0, the other 1
    p1, p2 = default_primes(2)
    m = SparseMatrix.from_dense([[p1]])
    with caplog.at_level(logging.WARNING, logger="syzlab.linalg"):
        cert = certified_rank(m, (p1, p2), exact_threshold=0)
    assert cert.rank == 1
    assert cert.agreement is False
    assert any("disagree" in r.message or "undercount" in r.message
               for r in caplog.records)


def test_bad_prime_vs_exact_route(caplog):
    p1, p2 = default_primes(2)
    m = SparseMatrix.from_dense([[p1]])
    with caplog.at_level(logging.WARNING, logger="syzlab.linalg"):
        cert = certified_rank(m, (p1, p2), exact_threshold=10)
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
            for block in cell_class(Parameters(n, b, d, p, q)).iter_blocks():
                for m in (block.d_in, block.d_out):
                    if m.nnz:
                        assert [_rank_mod(m, p1 * p2)] * 2 == per_prime_ranks(m, (p1, p2))
                        ranked += 1
    assert ranked > 100


def test_non_unit_pivot_after_fill_in_falls_back_per_prime(caplog):
    # the first pivot is 1; eliminating it leaves p1 in the corner, which is
    # nonzero mod p1 * p2 but no unit: rank 1 mod p1, rank 2 mod p2
    p1, p2 = default_primes(2)
    m = SparseMatrix.from_dense([[1, 1], [1, 1 + p1]])
    with pytest.raises(NonUnitPivot):
        _rank_mod(m, p1 * p2)
    assert _modular_ranks(m, (p1, p2)) == [1, 2]
    with caplog.at_level(logging.WARNING, logger="syzlab.linalg"):
        cert = certified_rank(m, (p1, p2), exact_threshold=0)
    assert cert == RankCertificate(2, (p1, p2), False, False)
    assert any("disagree" in r.message for r in caplog.records)
    with caplog.at_level(logging.WARNING, logger="syzlab.linalg"):
        cert = certified_rank(m, (p1, p2), exact_threshold=10)
    assert cert == RankCertificate(2, (p1, p2), True, True)
    assert any("undercount" in r.message for r in caplog.records)


def test_duplicate_primes_give_the_per_prime_ranks():
    p1, p2 = default_primes(2)
    m = SparseMatrix.from_dense([[1, 1], [1, 1 + p1]])
    assert _modular_ranks(m, (p1, p1)) == [1, 1]
    assert _modular_ranks(m, (p1, p2, p1)) == [1, 2, 1]
    assert certified_rank(m, (p1, p1)) == RankCertificate(1, (p1, p1), True, False)
    rng = random.Random(109)
    for trial in range(20):
        m = random_sparse(rng, 10, 12, fill=0.3, lo=-1, hi=1)
        for primes in ((p1, p1), (p2, p1, p2)):
            assert _modular_ranks(m, primes) == per_prime_ranks(m, primes)


def test_certified_rank_checks_its_primes():
    m = SparseMatrix.from_dense([[1, 1], [1, 2]])
    p1 = default_primes(1)[0]
    with pytest.raises(ValueError, match="not prime"):
        certified_rank(m, (p1, p1 + 2))


def test_large_random_cross_backend_agreement():
    rng = random.Random(107)
    for trial in range(10):
        m = random_sparse(rng, 20, 20, fill=0.15)
        r1 = rank_mod_p(m, FIELD)
        r2 = rank_exact(m)
        r3 = fraction_rank(m.to_dense())
        assert r1 == r2 == r3
