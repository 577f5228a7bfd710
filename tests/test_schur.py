import math
import random

import pytest

from syzlab import betti
from syzlab.betti import kpq_dim, make_config
from syzlab.schur import (
    CertificationError,
    distinct_permutations_count,
    dominates,
    kostka,
    partitions_of,
    schur_multiplicities,
    weight_space_dims,
    weyl_dim,
)

from helpers import AllWeightsStarCell, all_weights_cell, brute_ssyt_count


def test_partitions_of():
    assert partitions_of(4, 2) == [(4,), (3, 1), (2, 2)]
    assert partitions_of(0, 3) == [()]
    assert partitions_of(3, 1) == [(3,)]
    assert len(partitions_of(5, 5)) == 7
    assert len(partitions_of(8, 8)) == 22


def test_partitions_are_descending_lex_and_bounded():
    parts = partitions_of(9, 3)
    assert parts == sorted(parts, reverse=True)
    for lam in parts:
        assert len(lam) <= 3
        assert sum(lam) == 9
        assert list(lam) == sorted(lam, reverse=True)
        assert all(x >= 1 for x in lam)


def test_dominance():
    assert dominates((2, 2), (2, 1, 1))
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((4,), (4,))
    assert not dominates((2, 2, 2), (5, 1))


def test_kostka_frozen_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((3, 1), (2, 2)) == 1
    assert kostka((2, 2), (3, 1)) == 0     # dominance fails
    assert kostka((4,), (1, 1, 1, 1)) == 1


def test_kostka_unitriangular():
    for lam in partitions_of(6, 6):
        assert kostka(lam, lam) == 1
        for mu in partitions_of(6, 6):
            if not dominates(lam, mu):
                assert kostka(lam, mu) == 0


def test_kostka_matches_tableau_enumeration():
    rng = random.Random(61)
    sizes = [p for k in range(3, 9) for p in partitions_of(k, k)]
    for _ in range(25):
        lam = rng.choice(sizes)
        mu = rng.choice([m for m in sizes if sum(m) == sum(lam)])
        assert kostka(lam, mu) == brute_ssyt_count(lam, mu), (lam, mu)


def test_weyl_dim_frozen_values():
    assert weyl_dim((2, 2), 3) == 6
    assert weyl_dim((4,), 3) == 15
    assert weyl_dim((1, 1), 3) == 3
    assert weyl_dim((2, 2, 2), 3) == 1     # a power of the determinant
    assert weyl_dim((1, 1, 1, 1), 3) == 0  # too many rows
    assert weyl_dim((), 5) == 1


def test_weyl_dim_symmetric_and_exterior_powers():
    for m in range(1, 6):
        for k in range(0, 5):
            assert weyl_dim((k,), m) == math.comb(m + k - 1, k)
            assert weyl_dim((1,) * k, m) == math.comb(m, k)


def test_weyl_dim_equals_weighted_kostka_sum():
    # dim S_lam(C^m) = sum over partitions mu of K_{lam,mu} * #perms(mu)
    rng = random.Random(62)
    for _ in range(15):
        total = rng.randrange(2, 8)
        lam = rng.choice(partitions_of(total, total))
        m = rng.randrange(max(1, len(lam)), 5)
        acc = 0
        for mu in partitions_of(total, m):
            padded = mu + (0,) * (m - len(mu))
            acc += kostka(lam, mu) * distinct_permutations_count(padded)
        assert weyl_dim(lam, m) == acc, (lam, m)


def test_distinct_permutations_count():
    assert distinct_permutations_count((2, 2, 0)) == 3
    assert distinct_permutations_count((4, 0, 0)) == 3
    assert distinct_permutations_count((2, 1, 1)) == 3
    assert distinct_permutations_count((1, 1, 1)) == 1
    assert distinct_permutations_count((3, 2, 1)) == 6


def test_weight_space_dims_example():
    dims = weight_space_dims(2, 0, 2, 1, 1)
    assert dims == {(4, 0, 0): 0, (3, 1, 0): 0, (2, 2, 0): 1, (2, 1, 1): 1}


def test_weight_space_refuses_uncertified_ranks(monkeypatch):
    # a block whose primes disagree has no certified dimension
    monkeypatch.setattr(betti, "_block_ranks",
                        lambda block, config, in_ranks, out_ranks: (0, 0, False, False))
    with pytest.raises(CertificationError, match="rank disagreement"):
        weight_space_dims(2, 0, 2, 1, 1)
    with pytest.raises(CertificationError):
        schur_multiplicities(2, 0, 2, 1, 1)


def test_weight_symmetry_spot_checks():
    # on two cells, every weight block contributes as its dominant
    # rearrangement's (the oracle asserts it) and the total is the engine's
    config = make_config()
    for cell in [(2, 0, 2, 1, 1), (1, 0, 3, 2, 1)]:
        assert all_weights_cell(*cell, config, AllWeightsStarCell)["dim"] == \
            kpq_dim(*cell, config), cell


def test_schur_decomposition_frozen_values():
    m = schur_multiplicities(2, 0, 2, 1, 1)
    assert dict(m.entries) == {(2, 2): 1}
    assert m.total_dim == 6
    assert m.multiplicity((2, 2)) == 1
    assert m.multiplicity((2, 2, 0)) == 1   # padding-insensitive accessor
    assert m.multiplicity((4,)) == 0

    assert dict(schur_multiplicities(1, 0, 3, 2, 1).entries) == {(5, 4): 1}
    assert dict(schur_multiplicities(2, 0, 3, 1, 1).entries) == {(4, 2): 1}
    assert dict(schur_multiplicities(1, 1, 4, 1, 0).entries) == {(4, 1): 1}


def test_schur_total_matches_betti_dimension():
    for (n, b, d, p, q) in [(2, 0, 2, 1, 1), (1, 0, 3, 2, 1), (2, 0, 3, 1, 1),
                            (1, 1, 4, 1, 0), (1, 1, 3, 1, 1)]:
        m = schur_multiplicities(n, b, d, p, q)
        assert m.total_dim == kpq_dim(n, b, d, p, q), (n, b, d, p, q)
        assert all(v > 0 for v in m.entries.values())
        recomposed = sum(v * weyl_dim(lam, n + 1) for lam, v in m.entries.items())
        assert recomposed == m.total_dim


def test_schur_to_dict_layout():
    d = schur_multiplicities(2, 0, 2, 1, 1).to_dict()
    assert d["total_dim"] == 6
    assert d["components"] == [
        {"partition": [2, 2], "multiplicity": 1, "weyl_dim": 6}
    ]


def test_stability_frozen_dims():
    # K_{2,1}(P^n, 0; 3) is nonzero for every n >= p = 2
    assert [kpq_dim(n, 0, 3, 2, 1) for n in (2, 3, 4)] == [105, 1200, 7645]


def test_stability_on_a_vanishing_cell():
    # K_{2,2} with b = 0, d = 3 vanishes for every ambient dimension
    assert [kpq_dim(n, 0, 3, 2, 2) for n in (2, 3)] == [0, 0]
