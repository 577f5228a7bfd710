import random

import pytest

from syzlab.betti import kpq_dim
from syzlab.cycles import (
    DegenerateCycleError,
    KoszulChain,
    build_kp0_cycle,
    verify_nonzero_class,
)


def test_frozen_chain_p1():
    chain = build_kp0_cycle(1, 1, 3, 1)
    # f_0 = x, f_1 = y, s = x^2; wedge indices into the degree-3 basis
    assert chain.terms == {((1,), (1, 0)): 1, ((0,), (0, 1)): -1}
    assert chain.text() == "-(x^3) (x) y + (x^2*y) (x) x"
    assert chain.wedge_size == 1
    assert chain.tensor_degree == 1


def test_frozen_chain_p2_on_surface():
    chain = build_kp0_cycle(2, 1, 3, 2)
    # f = {x, y, z}, s = x^2: three wedge-pair terms with alternating signs
    assert len(chain.terms) == 3
    assert chain.wedge_size == 2
    assert chain.tensor_degree == 1
    idx = chain.basis.index_of
    x3, x2y, x2z = idx((3, 0, 0)), idx((2, 1, 0)), idx((2, 0, 1))
    assert chain.terms == {
        ((x2y, x2z), (1, 0, 0)): 1,
        ((x3, x2z), (0, 1, 0)): -1,
        ((x3, x2y), (0, 0, 1)): 1,
    }


def test_chain_is_a_cycle():
    for args in [(1, 1, 3, 1), (2, 1, 3, 2), (1, 1, 2, 1), (2, 2, 3, 3)]:
        assert build_kp0_cycle(*args).differential().is_zero(), args


def test_report_certifies():
    rep = verify_nonzero_class(build_kp0_cycle(2, 1, 3, 2))
    assert rep.p == 2
    assert rep.tensor_degree == 1
    assert rep.nonzero and rep.is_cycle and rep.boundary_space_trivial
    assert rep.certifies_nonvanishing


def test_certified_cells_are_really_nonzero():
    for (n, b, d, p) in [(1, 0, 2, 0), (1, 1, 3, 1), (2, 1, 2, 2), (2, 2, 3, 4)]:
        chain = build_kp0_cycle(n, b, d, p)
        assert verify_nonzero_class(chain).certifies_nonvanishing
        assert kpq_dim(n, b, d, p, 0) >= 1, (n, b, d, p)


def test_custom_f_and_s():
    chain = build_kp0_cycle(1, 1, 3, 1, f_monomials=[(0, 1), (1, 0)], s=(0, 2))
    assert chain.terms == {((2,), (0, 1)): 1, ((3,), (1, 0)): -1}
    assert chain.differential().is_zero()


def test_p0_single_term_chain():
    chain = build_kp0_cycle(1, 0, 4, 0)
    assert chain.terms == {((), (0, 0)): 1}
    rep = verify_nonzero_class(chain)
    assert rep.p == 0 and rep.certifies_nonvanishing


def test_degenerate_choices_are_refused():
    with pytest.raises(DegenerateCycleError):
        build_kp0_cycle(1, 1, 3, 1, f_monomials=[(1, 0), (1, 0)])


def test_input_validation():
    with pytest.raises(ValueError, match="need n >= 1"):
        build_kp0_cycle(0, 0, 1, 0)                      # n < 1
    with pytest.raises(ValueError):
        build_kp0_cycle(1, 2, 2, 0)                      # d < b + 1
    with pytest.raises(ValueError):
        build_kp0_cycle(1, 1, 3, 2)                      # p + 1 > binom(n+b, n)
    with pytest.raises(ValueError):
        build_kp0_cycle(1, 1, 3, 1, f_monomials=[(1, 0)])        # wrong count
    with pytest.raises(ValueError):
        build_kp0_cycle(1, 1, 3, 1, f_monomials=[(2, 0), (1, 0)])  # wrong degree
    with pytest.raises(ValueError):
        build_kp0_cycle(1, 1, 3, 1, s=(1, 0))            # wrong s degree


def test_add_term_canonicalization():
    chain = KoszulChain(1, 2)
    chain.add_term((2, 0), (0, 0), 1)       # unsorted: picks up a sign
    assert chain.terms == {((0, 2), (0, 0)): -1}
    chain.add_term((0, 2), (0, 0), 1)       # cancels
    assert chain.is_zero()
    chain.add_term((1, 1), (0, 0), 5)       # repeated factor: zero term
    assert chain.is_zero()
    chain.add_term((0, 1), (0, 0), 0)       # zero coefficient: no-op
    assert chain.is_zero()


def test_chain_equality_ignores_insertion_order():
    a = KoszulChain(1, 2)
    a.add_term((0,), (1, 1), 2)
    a.add_term((1,), (2, 0), 3)
    b = KoszulChain(1, 2)
    b.add_term((1,), (2, 0), 3)
    b.add_term((0,), (1, 1), 2)
    assert a == b


def test_empty_chain_properties():
    chain = KoszulChain(2, 2)
    assert chain.is_zero()
    assert chain.wedge_size == 0
    assert chain.tensor_degree is None
    assert chain.text() == "0"


def test_text_coefficient_formatting():
    chain = KoszulChain(1, 2)
    chain.add_term((0,), (1, 0), 2)
    assert chain.text() == "2*(x^2) (x) x"


def test_to_dict_spells_out_monomials():
    d = build_kp0_cycle(1, 1, 3, 1).to_dict()
    assert d["n"] == 1 and d["d"] == 3
    assert {"coeff": -1, "wedge": [[3, 0]], "tensor": [0, 1]} in d["terms"]
    assert {"coeff": 1, "wedge": [[2, 1]], "tensor": [1, 0]} in d["terms"]


def test_differential_squares_to_zero_on_random_chains():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randrange(1, 3)
        d = rng.randrange(1, 4)
        chain = KoszulChain(n, d)
        v = len(chain.basis)
        k = rng.randrange(1, min(3, v) + 1)
        for _ in range(rng.randrange(1, 5)):
            wedge = rng.sample(range(v), k)
            tensor = tuple(rng.randrange(0, 3) for _ in range(n + 1))
            chain.add_term(tuple(wedge), tensor, rng.choice([-2, -1, 1, 2]))
        assert chain.differential().differential().is_zero()
