"""The three-term Koszul complex whose middle cohomology is K_{p,q}.

Let U be the n+1 dimensional space of linear forms, V = S^d U the degree-d
monomials (dim v = binom(d+n, n)), and write H(e) for the degree-e graded
piece.  The group K_{p,q}(P^n, b; d) is the middle cohomology of

    Wedge^{p+1} V (x) H((q-1)d + b)  --d_in-->
    Wedge^p V     (x) H(qd + b)      --d_out-->
    Wedge^{p-1} V (x) H((q+1)d + b)

with the differential

    delta(m_1 ^ ... ^ m_k (x) g) = sum_j (-1)^(j-1) (... m_j omitted ...) (x) m_j g.

Every map is equivariant for the torus scaling the variables, so the complex
splits into blocks indexed by the total exponent vector (the weight, summing
to (p+q)d + b), and dim K_{p,q} is the sum over weights of
mid_dim - rank(d_in) - rank(d_out).  Blocks are built as integer matrices
with entries +-1 and the composite d_out . d_in is checked to vanish over
the integers at build time.

Inside the block at weight w every basis element is m_F (x) x^(w - sum F),
so its wedge F alone identifies it, in each of the three spaces.  A block's
matrices are therefore built on wedges only: the j-th term of delta on F
is the face F minus its j-th factor with sign (-1)^(j-1), and its tensor
factor is never formed.

Permuting the variables permutes the degree-d monomials and commutes with
the differential, so it maps the block at weight w onto the block at the
permuted weight by a signed permutation of both bases: the two integer
complexes are isomorphic and have the same ranks over Q and over every F_p.
A cell therefore stores only its dominant weights (non-increasing tuples,
i.e. partitions padded to n+1 parts), one per orbit; each stands for
distinct_permutations_count(w) blocks.  A block at any other weight is
built by permuting the basis of its dominant rearrangement.

A block is built and ranked as its quotient by a vertex star.  Its basis
elements are the wedges F with sum F <= w (each with tensor factor
w - sum F), so in three consecutive degrees the block is the augmented chain
complex of the squarefree divisor complex Delta_w = {F : sum F <= w} on the
degree-d monomials (Bruns-Herzog, JPAA 1997).  Take as apex v0 the first
degree-d monomial, in basis order, that divides x^w.  Its closed star
st(v0) = {F : F u {v0} in Delta_w} is a subcomplex and a cone on v0, so its
augmented chain complex is exact over Z (adding v0 is a contracting
homotopy), and stays exact over every field.  An element (F, t) lies in the
star iff v0 is in F or v0 divides x^t.  The quotient complex keeps the other
elements, and its maps are the block's matrices with the star's rows and
columns deleted.  Over any field, every map of a bounded complex C with an
exact subcomplex S has rank(C) = rank(S) + rank(C/S): induct from the bottom
on dim C_k = r_k + r_(k+1) + h_k, which holds for C, S and C/S, with h
zero on S and equal on C and C/S by the long exact sequence.  And rank(S) is
fixed by the dimensions of S alone, so it is the same in every field.  So
mid - rank(d_in) - rank(d_out) is the same on the quotient as on the block,
over Q and over every F_p, and two primes agree on the quotient exactly when
they agree on the block.  If no degree-d monomial divides x^w the block is
its own quotient.  The unreduced block is never built: its d_out . d_in = 0
is checked from the source side, through the faces of the faces of each
source wedge, and the quotient's matrices are checked as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import add, ge, sub

from .arith import binom_safe
from .linalg import InvariantError, SparseMatrix
from .monomials import (
    GradedPieceBasis,
    distinct_permutations_count,
    enumerate_basis,
    exponent_vectors,
)

DEFAULT_MEMORY_CAP = 2 << 30

# Coarse per-object costs (bytes) for the feasibility estimate: a basis
# element is a couple of small tuples, a matrix entry a 3-tuple of ints.
_BYTES_PER_ELEMENT = 120
_BYTES_PER_ENTRY = 60


class InfeasibleBlockError(Exception):
    """A block (or a whole cell) would exceed the configured memory cap."""

    def __init__(self, message, *, weight=None, middle_dim=0, source_dim=0,
                 estimated_bytes=0, cap=0):
        super().__init__(message)
        self.weight = weight
        self.middle_dim = middle_dim
        self.source_dim = source_dim
        self.estimated_bytes = estimated_bytes
        self.cap = cap


@dataclass(frozen=True)
class Parameters:
    """Cell coordinates (n, b, d, p, q) with the derived sizes v and r_d.

    v = dim S^d U = binom(d+n, n) and r_d = v - 1 is the dimension of the
    ambient projective space of the embedding.
    """

    n: int
    b: int
    d: int
    p: int
    q: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.b < 0:
            raise ValueError(f"b must be >= 0, got {self.b}")
        if self.p < 0:
            raise ValueError(f"p must be >= 0, got {self.p}")

    @property
    def v(self) -> int:
        return binom_safe(self.d + self.n, self.n)

    @property
    def r_d(self) -> int:
        return self.v - 1

    @property
    def middle_degree(self) -> int:
        return self.q * self.d + self.b

    @property
    def source_degree(self) -> int:
        return (self.q - 1) * self.d + self.b

    @property
    def weight_total(self) -> int:
        return (self.p + self.q) * self.d + self.b


def _faces(wedge):
    """[(index dropped, face, sign), ...]: the j-th term of delta drops the
    j-th wedge factor, with sign (-1)^j counting j from 0."""
    return [(wedge[j], wedge[:j] + wedge[j + 1:], -1 if j & 1 else 1)
            for j in range(len(wedge))]


def _delta_terms(wedge, tensor, monomials):
    """Terms of delta on one wedge-tensor element; signs alternate from +1."""
    return [((face, tuple(map(add, tensor, monomials[i]))), sign)
            for i, face, sign in _faces(wedge)]


def differential(wedge, tensor, basis: GradedPieceBasis):
    """Koszul differential of (basis wedge indices, tensor exponent tuple).

    `wedge` must be strictly increasing indices into `basis` (the degree-d
    monomials in canonical order); `tensor` is an exponent tuple in the same
    variables.  Returns [((wedge', tensor'), sign), ...] with the j-th term
    dropping the j-th wedge factor into the tensor with sign (-1)^(j-1).
    """
    for a, c in zip(wedge, wedge[1:]):
        if a >= c:
            raise ValueError(f"wedge indices must be strictly increasing, got {wedge}")
    for i in wedge:
        if not 0 <= i < len(basis):
            raise ValueError(f"wedge index {i} out of range for {basis!r}")
    if len(tensor) != basis.n + 1:
        raise ValueError(f"tensor has {len(tensor)} variables, expected {basis.n + 1}")
    return _delta_terms(tuple(wedge), tuple(tensor), basis.monomials)


@dataclass(frozen=True)
class KoszulBlock:
    """One torus-weight block as it is ranked: its quotient by a vertex star.

    d_in has shape (mid_dim, src_dim), d_out (target_dim, mid_dim), and the
    block's contribution to dim K_{p,q} is mid_dim - rank(d_in) - rank(d_out).
    These are the quotient's (see the module notes); full_mid_dim and
    full_src_dim are the dimensions of the unreduced block, and
    full_sizes() the shapes of its maps.
    """

    weight: tuple
    mid_dim: int
    src_dim: int
    target_dim: int
    d_in: SparseMatrix
    d_out: SparseMatrix
    full_mid_dim: int
    full_src_dim: int
    full_middle: list = field(repr=False, compare=False)  # unreduced (wedge, t)

    def full_sizes(self, limit: int) -> tuple:
        """(size of d_in, size of d_out) of the unreduced block, a size being
        rows * cols, or 0 for a zero map, as far as a comparison with `limit`
        needs.  The rows of the unreduced d_out are counted only when its
        middle dimension is at most `limit`; otherwise that dimension, a
        lower bound already above `limit`, stands for its size."""
        size_in = self.full_mid_dim * self.full_src_dim
        if not self.full_middle or not self.full_middle[0][0]:
            return size_in, 0                  # no middle space, or p = 0
        if self.full_mid_dim > limit:
            return size_in, self.full_mid_dim
        rows = {face for wedge, _ in self.full_middle for _, face, _ in _faces(wedge)}
        return size_in, len(rows) * self.full_mid_dim


class KoszulCell:
    """The weight blocks of the complex at one (n, b, d, p, q).

    The middle and source spaces are enumerated once (wedges of basis indices
    times tensor monomials) and only the elements of dominant weight are
    kept, grouped by weight; blocks are then built lazily per weight, each
    as its star quotient.  Target rows are allocated on demand while
    applying the differential, so the target space is never enumerated.
    """

    def __init__(self, params: Parameters, memory_cap: int = DEFAULT_MEMORY_CAP):
        self.params = params
        self.memory_cap = memory_cap
        self.basis_d = enumerate_basis(params.n, params.d)
        assert len(self.basis_d) == params.v
        mid = self.expected_middle_dim()
        src = self.expected_source_dim()
        est = _BYTES_PER_ELEMENT * (mid + src) + _BYTES_PER_ENTRY * (
            src * (params.p + 1) + mid * params.p
        )
        if est > memory_cap:
            raise InfeasibleBlockError(
                f"cell {params} needs ~{est} bytes (middle {mid}, source {src}), "
                f"cap is {memory_cap}",
                middle_dim=mid, source_dim=src, estimated_bytes=est, cap=memory_cap,
            )
        self._middle = None
        self._source = None
        self._checked = set()    # source wedges whose d_out . d_in is zero

    def expected_middle_dim(self) -> int:
        p = self.params
        return binom_safe(p.v, p.p) * binom_safe(p.middle_degree + p.n, p.n)

    def expected_source_dim(self) -> int:
        p = self.params
        return binom_safe(p.v, p.p + 1) * binom_safe(p.source_degree + p.n, p.n)

    def _grouped(self, wedge_size: int, tensor_degree: int) -> dict:
        par = self.params
        groups = {}
        if wedge_size < 0 or wedge_size > par.v:
            return groups
        tensors = exponent_vectors(par.n, tensor_degree)
        if not tensors:
            return groups
        # s + t is dominant iff each gap t_i - t_(i+1) covers s_(i+1) - s_i
        gaps = [(t, tuple(map(sub, t, t[1:]))) for t in tensors]
        exps = self.basis_d.monomials
        zero = (0,) * (par.n + 1)
        for wedge in combinations(range(par.v), wedge_size):
            s = zero
            for i in wedge:
                s = tuple(map(add, s, exps[i]))
            need = tuple(map(sub, s[1:], s))
            for t, gap in gaps:
                if all(map(ge, gap, need)):
                    groups.setdefault(tuple(map(add, s, t)), []).append((wedge, t))
        return groups

    def _ensure_groups(self):
        if self._middle is None:
            par = self.params
            self._middle = self._grouped(par.p, par.middle_degree)
            self._source = self._grouped(par.p + 1, par.source_degree)
            assert _orbit_total(self._middle) == self.expected_middle_dim()
            assert _orbit_total(self._source) == self.expected_source_dim()

    def weights(self) -> list:
        """Dominant weights with nonzero middle space, descending lex.

        Descending lex puts each orbit's dominant weight first, so this is
        the order in which a loop over every weight would meet the orbits.
        """
        self._ensure_groups()
        ws = sorted(self._middle, reverse=True)
        total = self.params.weight_total
        assert all(sum(w) == total for w in ws)
        return ws

    def middle_dim(self, weight) -> int:
        """Dimension of the middle space at any weight."""
        self._ensure_groups()
        return len(self._middle.get(tuple(sorted(weight, reverse=True)), ()))

    def total_middle_dim(self) -> int:
        self._ensure_groups()
        return _orbit_total(self._middle)

    def block(self, weight) -> KoszulBlock:
        """The block at any weight, as ranked: its star quotient.  A
        non-dominant one is built on the permuted basis of its dominant
        rearrangement."""
        self._ensure_groups()
        weight = tuple(weight)
        dominant = tuple(sorted(weight, reverse=True))
        middle = self._middle.get(dominant, [])
        source = self._source.get(dominant, [])
        if weight != dominant:
            middle = self._permuted(middle, weight)
            source = self._permuted(source, weight)
        return self._build(weight, middle, source)

    def _permuted(self, group, weight) -> list:
        """The elements of `group` with their variables permuted so that
        their dominant weight becomes `weight`."""
        if not group:
            return []
        order = sorted(range(len(weight)), key=lambda j: -weight[j])
        src = [0] * len(weight)
        for k, j in enumerate(order):
            src[j] = k

        def perm(e):
            return tuple(e[k] for k in src)

        image = [self.basis_d.index_of(perm(m)) for m in self.basis_d.monomials]
        return [(tuple(sorted(image[i] for i in wedge)), perm(t)) for wedge, t in group]

    def _check_cap(self, weight, middle, source):
        """Refuse a block whose unreduced bases and maps would exceed the cap."""
        par = self.params
        est = _BYTES_PER_ELEMENT * (len(middle) + len(source)) + _BYTES_PER_ENTRY * (
            len(source) * (par.p + 1) + len(middle) * par.p
        )
        if est > self.memory_cap:
            raise InfeasibleBlockError(
                f"block at weight {weight} needs ~{est} bytes, cap is {self.memory_cap}",
                weight=weight, middle_dim=len(middle), source_dim=len(source),
                estimated_bytes=est, cap=self.memory_cap,
            )

    def _build(self, weight, middle, source) -> KoszulBlock:
        """Matrices of the block at `weight` on the quotient of the given
        bases by the star of the apex.  The memory-cap estimate and the
        d_out . d_in = 0 check of the unreduced block come first, the same
        check on the quotient's matrices last."""
        self._check_cap(weight, middle, source)
        self._check_unreduced_composition(source, weight)
        full_mid, full_src = middle, source
        exps = self.basis_d.monomials
        # (index, exponents) of the first degree-d monomial dividing x^weight
        apex = next(((i, m) for i, m in enumerate(exps) if all(map(ge, weight, m))), None)

        def kept(wedge, tensor):
            # outside the star: the apex is not in the wedge, nor divides the tensor
            return apex is None or not (apex[0] in wedge or all(map(ge, tensor, apex[1])))

        middle = [(wedge, t) for wedge, t in middle if kept(wedge, t)]
        source = [(wedge, t) for wedge, t in source if kept(wedge, t)]
        mid_index = {wedge: i for i, (wedge, _) in enumerate(middle)}

        target_index = {}
        out_entries = []
        for col, (wedge, t) in enumerate(middle):
            for i, face, sign in _faces(wedge):
                if kept(face, tuple(map(add, t, exps[i]))):
                    row = target_index.setdefault(face, len(target_index))
                    out_entries.append((row, col, sign))
        d_out = SparseMatrix(len(target_index), len(middle), tuple(out_entries))

        in_entries = []
        in_columns = []
        for col, (wedge, t) in enumerate(source):
            column = []
            for i, face, sign in _faces(wedge):
                if kept(face, tuple(map(add, t, exps[i]))):
                    row = mid_index[face]  # weight preservation: must land in this block
                    column.append((row, sign))
            in_columns.append(column)
            in_entries.extend((row, col, sign) for row, sign in column)
        d_in = SparseMatrix(len(middle), len(source), tuple(in_entries))

        self._check_composition_zero(d_out, in_columns, weight)
        return KoszulBlock(
            weight=weight, mid_dim=len(middle), src_dim=len(source),
            target_dim=len(target_index), d_in=d_in, d_out=d_out,
            full_mid_dim=len(full_mid), full_src_dim=len(full_src),
            full_middle=full_mid,
        )

    def _check_unreduced_composition(self, source, weight):
        """d_out . d_in = 0 on the unreduced block, from the source side: the
        faces of the faces of each source wedge cancel.  The column of the
        composite at a source element depends on its wedge alone, so each
        wedge is checked once per cell."""
        for wedge, _ in source:
            if wedge in self._checked:
                continue
            acc = {}
            for _, face, sign in _faces(wedge):
                for _, face2, sign2 in _faces(face):
                    acc[face2] = acc.get(face2, 0) + sign * sign2
            if any(acc.values()):
                raise InvariantError(f"d_out . d_in != 0 at weight {weight}")
            self._checked.add(wedge)

    @staticmethod
    def _check_composition_zero(d_out: SparseMatrix, in_columns, weight):
        out_cols = {}
        for r, c, v in d_out.entries:
            out_cols.setdefault(c, []).append((r, v))
        for column in in_columns:
            acc = {}
            for mid_row, sign_in in column:
                for tgt_row, sign_out in out_cols.get(mid_row, ()):
                    acc[tgt_row] = acc.get(tgt_row, 0) + sign_in * sign_out
            if any(acc.values()):
                raise InvariantError(f"d_out . d_in != 0 at weight {weight}")

    def iter_blocks(self):
        """The blocks at the dominant weights, in the order of weights()."""
        for w in self.weights():
            yield self.block(w)


def _orbit_total(groups: dict) -> int:
    """Size of the whole space the dominant groups stand for."""
    return sum(distinct_permutations_count(w) * len(g) for w, g in groups.items())


def enumerate_weights(params: Parameters, memory_cap: int = DEFAULT_MEMORY_CAP) -> list:
    return KoszulCell(params, memory_cap).weights()


def build_block(params: Parameters, weight, memory_cap: int = DEFAULT_MEMORY_CAP) -> KoszulBlock:
    """Standalone single-block build (a fresh cell; fine for one-off use)."""
    return KoszulCell(params, memory_cap).block(weight)
