import random

import pytest

from syzlab.arith import binom_safe
from syzlab.koszul import KoszulCell, Parameters
from syzlab.monomials import (
    GradedPieceBasis,
    enumerate_basis,
    exponent_vectors,
    monomial_text,
    multiply,
)

from helpers import brute_monomials


def test_exponent_vectors_n1_e2_exact():
    assert exponent_vectors(1, 2) == [(2, 0), (1, 1), (0, 2)]


def test_exponent_vectors_n2_e1_exact():
    assert exponent_vectors(2, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_exponent_vectors_degree_zero_and_negative():
    assert exponent_vectors(3, 0) == [(0, 0, 0, 0)]
    assert exponent_vectors(2, -1) == []


def test_exponent_vectors_descending_lex():
    for n, e in [(1, 5), (2, 4), (3, 3)]:
        mons = exponent_vectors(n, e)
        assert mons == sorted(mons, reverse=True)
        assert len(set(mons)) == len(mons)


def test_exponent_vectors_sizes_sampled():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 5)
        e = rng.randrange(0, 31)
        assert len(exponent_vectors(n, e)) == binom_safe(e + n, n)


def test_exponent_vectors_same_set_as_bruteforce():
    for n, e in [(1, 4), (2, 3), (3, 2)]:
        assert sorted(exponent_vectors(n, e)) == brute_monomials(n, e)


def test_enumeration_is_deterministic():
    assert exponent_vectors(3, 4) == exponent_vectors(3, 4)


def test_multiply():
    assert multiply((2, 1, 0), (0, 1, 2)) == (2, 2, 2)
    assert sum(multiply((2, 1, 0), (0, 1, 2))) == 6
    with pytest.raises(ValueError):
        multiply((1, 0), (1, 0, 0))


def test_basis_index_round_trip():
    basis = enumerate_basis(2, 3)
    assert isinstance(basis, GradedPieceBasis)
    assert len(basis) == binom_safe(5, 2)
    for i, m in enumerate(basis.monomials):
        assert basis.index_of(m) == i


def test_cells_share_one_basis():
    # the degree-d basis is built once per (n, d), not once per cell
    one = KoszulCell(Parameters(2, 0, 3, 1, 1)).basis_d
    assert KoszulCell(Parameters(2, 1, 3, 4, 2)).basis_d is one
    assert enumerate_basis(2, 3) is one
    assert KoszulCell(Parameters(2, 0, 4, 1, 1)).basis_d is not one


def test_basis_rejects_unknown_monomial():
    basis = enumerate_basis(1, 2)
    with pytest.raises(ValueError):
        basis.index_of((3, 0))
    with pytest.raises(ValueError):
        basis.index_of((1, 1, 0))


def test_monomial_text():
    assert monomial_text((2, 1)) == "x^2*y"
    assert monomial_text((0, 0, 3)) == "z^3"
    assert monomial_text((0, 0)) == "1"
    assert monomial_text((1, 0, 0, 1)) == "x*w"
