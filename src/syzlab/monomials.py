"""Monomial bases of the graded pieces H^0(P^n, O(e)).

A monomial in n+1 variables is an exponent tuple (e_0, ..., e_n); the graded
piece of degree e has the binom(e+n, n) monomials with sum e_i = e.  The
canonical order everywhere in the engine is descending lexicographic on
exponent tuples, so for n = 1, e = 2 the basis reads x^2, xy, y^2.  Basis
positions under this order are the wedge indices used by the Koszul complex,
and torus weights are just exponent tuples again (of larger total degree).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .arith import binom_safe

Monomial = tuple  # exponent tuple of length n+1


def exponent_vectors(n: int, e: int) -> list:
    """All exponent tuples of length n+1 summing to e, descending lex."""
    if e < 0:
        return []
    heads = [((), e)]   # (the first exponents, the degree left), in order
    for _ in range(n):
        heads = [(head + (first,), left - first)
                 for head, left in heads for first in range(left, -1, -1)]
    return [head + (left,) for head, left in heads]


@lru_cache(maxsize=None)
def distinct_permutations_count(weight: tuple) -> int:
    """Number of distinct rearrangements of an exponent tuple: the size of
    its orbit under permutations of the variables."""
    counts = {}
    for x in weight:
        counts[x] = counts.get(x, 0) + 1
    out = factorial(len(weight))
    for c in counts.values():
        out //= factorial(c)
    return out


def multiply(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of monomials = componentwise exponent sum."""
    if len(m1) != len(m2):
        raise ValueError(f"mixed variable counts: {len(m1)} vs {len(m2)}")
    return tuple(a + b for a, b in zip(m1, m2))


class GradedPieceBasis:
    """Ordered monomial basis of H^0(O(e)) on P^n, with O(1) index lookup."""

    def __init__(self, n: int, e: int):
        assert n >= 1
        self.n = n
        self.e = e
        self.monomials = exponent_vectors(n, e)
        self._index = {m: i for i, m in enumerate(self.monomials)}
        assert len(self.monomials) == binom_safe(e + n, n)

    def __len__(self) -> int:
        return len(self.monomials)

    def __getitem__(self, i: int) -> Monomial:
        return self.monomials[i]

    def index_of(self, m: Monomial) -> int:
        """Position of m in canonical (descending lex) order."""
        try:
            return self._index[m]
        except KeyError:
            raise ValueError(f"{m} is not a degree-{self.e} monomial in {self.n + 1} variables") from None


@lru_cache(maxsize=None)
def enumerate_basis(n: int, e: int) -> GradedPieceBasis:
    """Basis of the degree-e piece; empty when e < 0.  Built once per
    (n, e) and shared: no caller mutates it."""
    return GradedPieceBasis(n, e)


def monomial_text(m: Monomial) -> str:
    """Human-readable form, e.g. (2, 1) -> 'x^2*y'.  Uses x,y,z,w for up to
    four variables, x0,x1,... beyond that."""
    k = len(m)
    names = ["x", "y", "z", "w"][:k] if k <= 4 else [f"x{i}" for i in range(k)]
    parts = []
    for name, exp in zip(names, m):
        if exp == 0:
            continue
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"
