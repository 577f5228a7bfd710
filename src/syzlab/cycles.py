"""Explicit syzygy witnesses in the weight-0 strand.

For b < d pick p+1 distinct degree-b monomials f_0, ..., f_p and a degree
d-b monomial s.  The chain

    alpha = sum_j (-1)^j (f_0 s ^ ... ^ f_{j-1} s ^ f_{j+1} s ^ ... ^ f_p s) (x) f_j

lies in Wedge^p V (x) H(b) and is killed by the Koszul differential: applying
delta, each pair (drop factor f_i s, then tensor f_j) appears twice with
opposite signs.  Because the strand has no incoming differential (the source
would need sections of degree b - d < 0), any nonzero cycle is a nonzero
cohomology class, so alpha certifies K_{p,0} != 0.
"""

from __future__ import annotations

from .arith import binom_safe
from .koszul import _delta_terms, check_nbd
from .monomials import enumerate_basis, monomial_text, multiply
from .records import Record


class DegenerateCycleError(ValueError):
    pass


class KoszulChain:
    """Integer combination of wedge-tensor elements Wedge^k(S^d) (x) S^e.

    Terms are keyed by (strictly increasing tuple of degree-d basis indices,
    tensor exponent tuple); construction sorts wedge factors with the sign
    of the permutation and drops alternating repeats, so equal chains have
    equal term dicts.
    """

    def __init__(self, n: int, d: int, terms=None):
        self.n = n
        self.d = d
        self.basis = enumerate_basis(n, d)
        self.terms = {}
        if terms:
            for (wedge, tensor), coeff in terms.items():
                self.add_term(wedge, tensor, coeff)

    def add_term(self, wedge, tensor, coeff: int) -> None:
        if coeff == 0:
            return
        wedge = tuple(wedge)
        tensor = tuple(tensor)
        assert len(tensor) == self.n + 1
        if len(set(wedge)) < len(wedge):
            return  # repeated wedge factor: the term is zero
        # Sort the wedge, tracking the sign of the permutation.
        order = sorted(range(len(wedge)), key=lambda i: wedge[i])
        sign = 1
        seen = list(order)
        for i in range(len(seen)):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        key = (tuple(sorted(wedge)), tensor)
        new = self.terms.get(key, 0) + sign * coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def wedge_size(self) -> int:
        sizes = {len(w) for w, _ in self.terms}
        assert len(sizes) <= 1, "mixed wedge sizes in one chain"
        return sizes.pop() if sizes else 0

    @property
    def tensor_degree(self):
        degs = {sum(t) for _, t in self.terms}
        assert len(degs) <= 1, "mixed tensor degrees in one chain"
        return degs.pop() if degs else None

    def differential(self) -> "KoszulChain":
        out = KoszulChain(self.n, self.d)
        for (wedge, tensor), coeff in self.terms.items():
            for (nw, nt), sign in _delta_terms(wedge, tensor, self.basis.monomials):
                out.add_term(nw, nt, sign * coeff)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KoszulChain)
            and (self.n, self.d) == (other.n, other.d)
            and self.terms == other.terms
        )

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (wedge, tensor), coeff in sorted(self.terms.items()):
            factors = " ^ ".join(monomial_text(self.basis[i]) for i in wedge)
            body = f"({factors}) (x) {monomial_text(tensor)}" if factors else monomial_text(tensor)
            if coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n, "d": self.d,
            "terms": [
                {"coeff": coeff,
                 "wedge": [list(self.basis[i]) for i in wedge],
                 "tensor": list(tensor)}
                for (wedge, tensor), coeff in sorted(self.terms.items())
            ],
        }


def build_kp0_cycle(n: int, b: int, d: int, p: int,
                    f_monomials=None, s=None) -> KoszulChain:
    """The explicit K_{p,0} witness for chosen f_0, ..., f_p and s.

    Defaults: the first p+1 degree-b monomials in canonical order and
    s = x^(d-b).  Requires d >= b + 1, p >= 0 and p + 1 <= binom(n+b, n)
    (otherwise no p+1 distinct degree-b monomials exist, matching the exact
    vanishing of the strand beyond that point).
    """
    check_nbd(n, b, d)
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    if d < b + 1:
        raise ValueError(f"need d >= b + 1, got b={b}, d={d}")
    count = binom_safe(n + b, n)
    if p + 1 > count:
        raise ValueError(
            f"p + 1 = {p + 1} distinct degree-{b} monomials requested, only "
            f"{count} exist (the strand vanishes there)"
        )
    basis_b = enumerate_basis(n, b)
    if f_monomials is None:
        fs = [basis_b[i] for i in range(p + 1)]
    else:
        fs = [tuple(f) for f in f_monomials]
        if len(fs) != p + 1:
            raise ValueError(f"need exactly p + 1 = {p + 1} monomials, got {len(fs)}")
        for f in fs:
            basis_b.index_of(f)  # degree validation
    if len(set(fs)) != len(fs):
        raise DegenerateCycleError(
            "repeated f_j: the wedge factors f_j*s collide and the chain "
            "degenerates; choose distinct degree-b monomials"
        )
    if s is None:
        s = (d - b,) + (0,) * n
    else:
        s = tuple(s)
        if sum(s) != d - b or any(e < 0 for e in s):
            raise ValueError(f"s must be a degree-{d - b} monomial, got {s}")

    basis_d = enumerate_basis(n, d)
    prods = [basis_d.index_of(multiply(f, s)) for f in fs]
    assert len(set(prods)) == len(prods)
    chain = KoszulChain(n, d)
    for j in range(p + 1):
        wedge = tuple(prods[:j] + prods[j + 1:])
        chain.add_term(wedge, fs[j], (-1) ** j)
    return chain


class CycleReport(Record):
    _fields = ("p", "tensor_degree", "nonzero", "is_cycle", "boundary_space_trivial")

    def __init__(self, p: int, tensor_degree: int, nonzero: bool, is_cycle: bool,
                 boundary_space_trivial: bool):
        self.p, self.tensor_degree, self.nonzero = p, tensor_degree, nonzero
        self.is_cycle, self.boundary_space_trivial = is_cycle, boundary_space_trivial

    @property
    def certifies_nonvanishing(self) -> bool:
        return self.nonzero and self.is_cycle and self.boundary_space_trivial


def verify_nonzero_class(chain: KoszulChain) -> CycleReport:
    """Check that a chain is a nonzero cycle defining a nonzero class.

    For tensor degree b < d the incoming differential comes from sections of
    negative degree, so the boundary space is zero and cycle + nonzero
    already implies a nonzero cohomology class.
    """
    b = chain.tensor_degree
    nonzero = not chain.is_zero()
    is_cycle = chain.differential().is_zero()
    trivial = b is not None and b < chain.d
    return CycleReport(
        p=chain.wedge_size, tensor_degree=b if b is not None else -1,
        nonzero=nonzero, is_cycle=is_cycle, boundary_space_trivial=trivial,
    )
