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
with entries +-1, as lists of columns: delta of each basis element of the
source.  The composite d_out . d_in is checked to vanish over the integers
at build time.

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
distinct_permutations_count(w) blocks.  Only dominant blocks are built:
KoszulCell.block refuses any other weight.

A block is built and ranked as its quotient by a union of vertex stars.
Its basis elements are the wedges F with sum F <= w (each with tensor factor
w - sum F), so in three consecutive degrees the block is the augmented chain
complex of the squarefree divisor complex Delta_w = {F : sum F <= w} on the
degree-d monomials (Bruns-Herzog, JPAA 1997).  The apex set A(w) is taken
by walking the degree-d monomials in basis order: each one that divides
x^w and shares no variable with those already taken is taken, until their
supports cover every variable.  The first is the first monomial dividing
x^w.  The closed star st(v) = {F : F u {v} in Delta_w} of an apex v is a
subcomplex and a cone on v, so its augmented chain complex is exact over Z
(adding v is a contracting homotopy).  So is that of the union S of the
stars of A(w) = {v_1, ..., v_k}.  Two apexes v_j and v_k have disjoint
supports, so where F u {v_j} and F u {v_k} both lie in Delta_w, each
variable's exponent in sum F + v_j + v_k is its exponent in sum F + v_j or
in sum F + v_k, and F u {v_j, v_k} lies in Delta_w too.  So st(v_k) meets
st(v_1) u ... u st(v_(k-1)) in a union of subcomplexes each closed under
adding v_k: a cone on v_k, exact.  Adding one star at a time, the
Mayer-Vietoris sequence
0 -> C(U n st) -> C(U) + C(st) -> C(U u st) -> 0 has two exact terms, so the
third is exact: S is acyclic over Z.  Its chain groups are free, so it is
split exact, and stays exact over every field.  An element (F, t) lies in S
iff an apex is in F or divides x^t.  The quotient complex keeps the other
elements, and its maps are the block's matrices with the rows and columns of
S deleted.  Over any field, every map of a bounded complex C with an exact
subcomplex S has rank(C) = rank(S) + rank(C/S): induct from the bottom on
dim C_k = r_k + r_(k+1) + h_k, which holds for C, S and C/S, with h zero on
S and equal on C and C/S by the long exact sequence.  And rank(S) is fixed
by the dimensions of S alone, so it is the same in every field.  So
mid - rank(d_in) - rank(d_out) is the same on the quotient as on the block,
over Q and over every F_p, and two primes agree on the quotient exactly when
they agree on the block.  If no degree-d monomial divides x^w, A(w) and S
are empty, and the block is its own quotient.  The unreduced block is never
built.  Its d_out . d_in = 0 is checked once per cell, on the faces of the
faces of the wedge (0, ..., p): their signs come from positions, never from
values, and a source wedge has distinct entries, so relabelling carries its
sum onto that one.  Every source wedge cancels as it does.  The quotient's
matrices are checked per block.  On the curves only the per-cell check
catches a sign error: with every sign +1, no quotient block of a cell with
n = 1, d <= 6, b <= 3, p <= 8 fails its own check, as surface blocks such
as (2, 0, 3, 2, 1) at (3, 3, 3) do.

The dominant elements are grouped by their wedge sums (KoszulCell._grouped).
Every exponent vector is packed into one int, a bit field per variable, with
one field width per cell, so a wedge sum is a sum of packed monomials.  The
wedges with one sum s form one list, each wedge appended once, and it is
filed as a class (packed t, wedges) under every dominant weight s + t, with
the tensor t packed for the star tests.  The weight is packed too: a class
is filed under the int packed s + packed t, one add, and each weight is
unpacked to its tuple once, after the last wedge, in the order the weights
were first met.  Whether t makes s + t dominant is one subtraction and one
mask on packed gaps, the need read off packed s once per distinct sum.  The
star tests set a guard bit in each field.  Per block only the tops, the
apexes' packed monomials, are new.  Then t >= top componentwise iff packed
t less packed top keeps every guard bit, so one test per top drops a whole
class from the quotient, and the same tests on packed t plus a packed m_i
place the face that drops m_i, once per distinct face tensor.

Only a prefix of the tensors can serve a sum s.  The first part of a
dominant weight s + t is at least each part of s and at least the mean
part, so t_0 >= lo = max(ceil(total / (n + 1)), max s) - s_0.  The tensors
of degree e are the cached basis enumerate_basis(n, e), in descending lex
order, so t_0 is non-increasing, and those with t_0 >= lo are the first
binom(e - lo + n, n): all of them when lo <= 0, none when lo > e.  Each
space's per-weight element counts are summed once, when it is grouped, in
the same pass as its orbit total: unreduced sizes are read from them, never
recounted.

The field width is weight_total.bit_length() + 2, so the guard bit is above
2 * weight_total.  A packed dominance gap, offset by weight_total, less a
need with the same offset, stays within its field.  The need is packed s
shifted down one field, plus weight_total in each of the first n fields,
less packed s masked to those n fields: each field holds
s_(i+1) - s_i + weight_total, between 0 and 2 * weight_total, so nothing
borrows.  A packed weight, packed s plus packed t with its guard bits,
holds guard + s_i + t_i < 2 * guard in each field, since s + t sums to
weight_total, so nothing carries.  A packed monomial is
read only inside a wedge (in a wedge sum, or in the star test of a face),
where the space's tensor degree weight_total - (wedge size) * d >= 0, or as
a top, which divides x^w: so then d <= weight_total.  Where
d > weight_total, as at K_{0,0} of (1, 0, 8), the packed monomials
overflow their fields, no monomial divides x^w, and none is read.  Every
exponent a star test meets is at most weight_total: a tensor t is at most
the weight, so is t + m_i for m_i in the element's wedge, and so is every
top, since every top divides x^w.  So each field of packed t + guard - top,
and of packed t + m_i + guard - top, lies between
guard - weight_total > 0 and guard + weight_total < 2 * guard, and holds
the guard bit exactly when the difference is >= 0.

A weight whose quotient has no middle element (every middle element lies
in the star union) contributes 0 in every field.  KoszulCell.ranked, the
step betti's pass takes at each weight, settles it from its counts: after
the cap estimate on the unreduced counts, its kept middle, scanned from its
middle classes or given by the cell (p - 1, q + 1), is empty; a KoszulBlock
without maps is returned, and no source list, matrix, composition check or
rank follows.  A weight with a kept middle is built by block(w) from the
same kept middle.  block(w) itself still builds a weight it would settle,
as a quotient with no middle.  Every block, settled or built, reports the
unreduced block's counts, middle classes and full_sizes: betti alone reads
them (see its module notes).

The cells of one antidiagonal p + q = j are consecutive homology degrees of
the same complexes: at a weight w, the source space of (p - 1, q + 1),
Wedge^p V (x) H(qd + b), is the middle space of (p, q), and the d_in of
(p - 1, q + 1) is the d_out of (p, q), on the same quotient, since the
apex set A(w) depends on w and the basis alone, and the packing on the
antidiagonal.  The KoszulCells of one pass share their `spaces` dict, so
each space is grouped once.  At each weight, ranked() of (p - 1, q + 1)
gives the apexes, their tops, its kept source and its d_in, and ranked()
of (p, q) takes them as its apexes, tops, kept middle and d_out, the same
matrix object: no apex search, scan or build is made twice.  The
handed-over map's rows are the whole kept middle of (p - 1, q + 1), not
only the faces this block reaches: its target_dim counts those zero rows
too, its rank is unchanged.  The cap estimate still comes first in each
block, and the d_out . d_in = 0 check still runs, on the map handed over.
Where (p - 1, q + 1) settles, it gives its apexes and tops only: (p, q)
scans its own kept middle there and builds its d_out, with no rows, since
every kept face of its kept middle would be a kept middle element of
(p - 1, q + 1).  Where (p, q) settles, the d_in it was given has no
columns, and is dropped.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, count
from operator import add

from .arith import binom_safe
from .linalg import InvariantError, SparseMatrix
from .monomials import distinct_permutations_count, enumerate_basis
from .records import FrozenRecord, set_field

DEFAULT_MEMORY_CAP = 2 << 30

# Coarse per-object costs (bytes) for the feasibility estimate: a basis
# element is a couple of small tuples, a matrix entry a (row, value) pair.
_BYTES_PER_ELEMENT = 120
_BYTES_PER_ENTRY = 60


def _estimate_bytes(middle: int, source: int, p: int) -> int:
    """Feasibility estimate for `middle` basis elements of wedge size p and
    `source` of size p + 1, with one map entry per face of each."""
    return _BYTES_PER_ELEMENT * (middle + source) + _BYTES_PER_ENTRY * (
        source * (p + 1) + middle * p
    )


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


def check_nbd(n: int, b: int, d: int) -> None:
    """Refuse an (n, b, d) outside the range of every computation."""
    if n < 1 or d < 1 or b < 0:
        raise ValueError(f"need n >= 1, d >= 1, b >= 0; got n={n}, b={b}, d={d}")


class Parameters(FrozenRecord):
    """Cell coordinates (n, b, d, p, q) with the derived sizes v and r_d.

    v = dim S^d U = binom(d+n, n) and r_d = v - 1 is the dimension of the
    ambient projective space of the embedding.
    """

    _fields = ("n", "b", "d", "p", "q")

    def __init__(self, n: int, b: int, d: int, p: int, q: int):
        check_nbd(n, b, d)
        if p < 0:
            raise ValueError(f"p must be >= 0, got {p}")
        set_field(self, "n", n)
        set_field(self, "b", b)
        set_field(self, "d", d)
        set_field(self, "p", p)
        set_field(self, "q", q)

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


def _check_faces_of_faces(size: int) -> None:
    """d_out . d_in = 0 on every unreduced block with source wedges of `size`
    factors: the faces of the faces of (0, ..., size - 1) cancel."""
    acc = {}
    for _, face, sign in _faces(tuple(range(size))):
        for _, face2, sign2 in _faces(face):
            acc[face2] = acc.get(face2, 0) + sign * sign2
    if any(acc.values()):
        raise InvariantError(f"d_out . d_in != 0 on the wedges of size {size}")


def _delta_terms(wedge, tensor, monomials):
    """Terms of delta on one wedge-tensor element; signs alternate from +1."""
    return [((face, tuple(map(add, tensor, monomials[i]))), sign)
            for i, face, sign in _faces(wedge)]


def _pack(fields, width: int) -> int:
    """Nonnegative fields packed into one int, `width` bits each, the first
    field lowest."""
    packed = 0
    for f in reversed(fields):
        packed = packed << width | f
    return packed


class _Outside(dict):
    """{packed tensor: whether no top is at most it}, each tensor tested
    once, when first asked.  A tensor is packed with every field's guard bit
    set, and is at least a top iff their difference keeps every guard bit
    (see the module notes)."""

    __slots__ = ("tops", "guards")

    def __init__(self, tops, guards: int):
        self.tops, self.guards = tops, guards

    def __missing__(self, packed: int) -> bool:
        guards = self.guards
        out = self[packed] = not any([(packed - top) & guards == guards for top in self.tops])
        return out


class KoszulBlock:
    """One dominant weight as betti's pass takes it: the unreduced block's
    dimensions full_mid_dim and full_src_dim and middle classes
    full_middle, and the maps of its quotient by the union of the stars of
    its apexes (see the module notes).

    d_in has shape (mid_dim, src_dim), d_out (target_dim, mid_dim), and the
    block's contribution to dim K_{p,q} is mid_dim - rank(d_in) - rank(d_out).
    The three dimensions are read off the maps' shapes.  Both maps are None
    where the quotient has no middle element: the weight is settled, and
    contributes 0 in every field.  The target_dim of a d_out handed over by
    the cell (p - 1, q + 1) also counts zero rows (see the module notes).
    """

    __slots__ = ("weight", "full_mid_dim", "full_src_dim", "full_middle", "d_in", "d_out")

    def __init__(self, weight, full_mid_dim, full_src_dim, full_middle,
                 d_in: SparseMatrix = None, d_out: SparseMatrix = None):
        self.weight, self.full_mid_dim, self.full_src_dim = weight, full_mid_dim, full_src_dim
        self.full_middle, self.d_in, self.d_out = full_middle, d_in, d_out

    @property
    def mid_dim(self) -> int:
        return self.d_in.rows

    @property
    def src_dim(self) -> int:
        return self.d_in.cols

    @property
    def target_dim(self) -> int:
        return self.d_out.rows

    def full_sizes(self, limit: int) -> tuple:
        """(size of d_in, size of d_out) of the unreduced block, a size being
        rows * cols, or 0 for a zero map, as far as a comparison with `limit`
        needs.  The size of d_in is exact.  The rows of the unreduced d_out,
        its distinct faces, are counted only until they number more than
        limit // full_mid_dim: the size is exact whenever it is at most
        `limit`, and otherwise a lower bound already above it."""
        size_in = self.full_mid_dim * self.full_src_dim
        if not self.full_middle or not self.full_middle[0][1][0]:
            return size_in, 0                  # no middle space, or p = 0
        enough = limit // self.full_mid_dim
        faces = len(self.full_middle[0][1][0]) - 1
        rows = set()
        for wedge in chain.from_iterable(wedges for _, wedges in self.full_middle):
            rows.update(combinations(wedge, faces))
            if len(rows) > enough:
                break
        return size_in, len(rows) * self.full_mid_dim


class KoszulCell:
    """The weight blocks of the complex at one (n, b, d, p, q).

    The middle and source spaces are enumerated once (wedges of basis indices
    times tensor monomials) and only the elements of dominant weight are
    kept, grouped by weight in classes of one wedge sum, and counted once
    per weight.  block(w) builds the block at a dominant weight lazily, as
    its quotient by the star union of its apexes.  ranked(w), the step
    betti's pass takes, settles a weight whose quotient has no middle
    element instead, and takes what the cell (p - 1, q + 1) gave at the
    weight (see the module notes).  Target rows are allocated on demand
    while applying the differential, so the target space is never
    enumerated.

    `spaces` files each space the cell groups, once, under its wedge size
    and tensor degree.  betti's pass gives the cells of one antidiagonal of
    one (n, b, d) one dict, so the source groups of (p - 1, q + 1) are the
    middle groups of (p, q).
    """

    def __init__(self, params: Parameters, memory_cap: int = DEFAULT_MEMORY_CAP):
        self.params = params
        self.memory_cap = memory_cap
        self.basis_d = enumerate_basis(params.n, params.d)
        mid = self.expected_middle_dim()
        src = self.expected_source_dim()
        est = _estimate_bytes(mid, src, params.p)
        if est > memory_cap:
            raise InfeasibleBlockError(
                f"cell {params} needs ~{est} bytes (middle {mid}, source {src}), "
                f"cap is {memory_cap}",
                middle_dim=mid, source_dim=src, estimated_bytes=est, cap=memory_cap,
            )
        if src:     # no source element, no composite (and p + 1 may pass v)
            _check_faces_of_faces(params.p + 1)
        # one packing per cell, the same for every cell of its antidiagonal,
        # whose spaces all have wedge size times d plus tensor degree equal
        # to weight_total.  A packed dominance gap is at most twice
        # weight_total above the guard bit, and every exponent a star test
        # meets is at most weight_total (see the module notes)
        self._width = width = params.weight_total.bit_length() + 2
        self._guards = _pack([1 << (width - 1)] * (params.n + 1), width)
        self._packed = [_pack(m, width) for m in self.basis_d.monomials]
        # the sign of each face of a wedge, by the position of the factor it
        # drops: a middle wedge's p faces take the first p
        self._signs = [sign for _, _, sign in _faces(tuple(range(params.p + 1)))]
        self.spaces = {}    # (wedge size, tensor degree) -> (groups, counts)
        self._middle = self._source = None      # {dominant weight: classes}
        self._middle_counts = self._source_counts = None    # {weight: elements}

    def expected_middle_dim(self) -> int:
        p = self.params
        return binom_safe(p.v, p.p) * binom_safe(p.middle_degree + p.n, p.n)

    def expected_source_dim(self) -> int:
        p = self.params
        return binom_safe(p.v, p.p + 1) * binom_safe(p.source_degree + p.n, p.n)

    def _grouped(self, wedge_size: int, tensor_degree: int) -> dict:
        """{dominant weight: [(packed tensor, wedges), ...]} over the wedges
        of `wedge_size` basis indices times the tensors of `tensor_degree`.
        Each `wedges` lists, in combinations order, every wedge with one sum
        s, and is filed, one list object, under s + t for each tensor t (in
        basis order) that makes s + t dominant.  So each wedge is appended
        once.

        s + t is dominant iff each gap t_i - t_(i+1) covers the need
        s_(i+1) - s_i.  All wedge sums have the same total, so the need
        fixes s, and is read once per distinct sum off the packed sum.
        Each tensor's gaps are packed once, offset by weight_total, with
        each field's guard bit set; less a need packed with the same offset,
        a field keeps its guard bit iff the gap covers the need.  Only a
        prefix of the tensors is tested.  A class is filed under its packed
        weight, and each weight is unpacked once (see the module notes)."""
        par, width, guards = self.params, self._width, self._guards
        if wedge_size < 0 or wedge_size > par.v or not (
                tensors := enumerate_basis(par.n, tensor_degree).monomials):
            return {}
        bound, guard = par.weight_total, 1 << (width - 1)
        field, low = guard - 1, (1 << width * par.n) - 1     # below a guard; n fields
        shifts = range(0, width * (par.n + 1), width)  # one field per variable
        gap_guards, offsets = _pack([guard] * par.n, width), _pack([bound] * par.n, width)
        gaps = [(_pack([t[i] - t[i + 1] + bound + guard for i in range(par.n)], width),
                 _pack(t, width) + guards) for t in tensors]
        # the first part of a dominant weight is at least its mean part
        least = -(-(wedge_size * par.d + tensor_degree) // (par.n + 1))
        groups = defaultdict(list)      # packed weight -> its classes
        classes = {}    # packed wedge sum -> its wedges
        for wedge, key in zip(combinations(range(par.v), wedge_size),
                              map(sum, combinations(self._packed, wedge_size))):
            wedges = classes.get(key)
            if wedges is None:
                wedges = classes[key] = []
                need = (key >> width) + offsets - (key & low)   # s_(i+1) - s_i + bound
                # the least t_0 that can serve
                lo = max(least, *[key >> k & field for k in shifts]) - (key & field)
                for gap, packed in gaps[:binom_safe(tensor_degree - max(lo, 0) + par.n, par.n)]:
                    if (gap - need) & gap_guards == gap_guards:
                        groups[key + packed].append((packed, wedges))
            wedges.append(wedge)
        return {tuple([w >> k & field for k in shifts]): group for w, group in groups.items()}

    def _counted(self, wedge_size: int, tensor_degree: int, expected: int) -> tuple:
        """(groups, {weight: number of elements}) of one space, each weight's
        classes counted once; the orbit total, the size of the whole space
        the dominant groups stand for, must be `expected`.  A space is
        grouped once for all the cells that share `spaces`."""
        key = wedge_size, tensor_degree
        if key not in self.spaces:
            groups = self._grouped(wedge_size, tensor_degree)
            counts = {w: sum([len(wedges) for _, wedges in group])
                      for w, group in groups.items()}
            total = sum([distinct_permutations_count(w) * c for w, c in counts.items()])
            if total != expected:
                raise InvariantError(f"orbit total {total} of the dominant groups "
                                     f"of {self.params}, not {expected}")
            self.spaces[key] = groups, counts
        return self.spaces[key]

    def _ensure_groups(self):
        if self._source is None:
            par = self.params
            self._middle, self._middle_counts = self._counted(
                par.p, par.middle_degree, self.expected_middle_dim())
            self._source, self._source_counts = self._counted(
                par.p + 1, par.source_degree, self.expected_source_dim())

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

    def block(self, weight, kept=None, d_out=None) -> KoszulBlock:
        """The block at a dominant weight, as ranked: its quotient by the
        star union.  `kept` is the weight's (tops, kept middle, kept
        source), where ranked() has scanned them, and `d_out` the d_in of
        the cell (p - 1, q + 1) there, where that cell built one.

        Any other weight raises ValueError; its block is isomorphic to its
        dominant rearrangement's (see the module notes)."""
        weight = tuple(weight)
        if any(a < c for a, c in zip(weight, weight[1:])):
            raise ValueError(f"weight {weight} is not dominant")
        self._ensure_groups()
        return self._build(weight, self._scan(weight) if kept is None else kept, d_out)

    def ranked(self, weight, given=None) -> tuple:
        """(the block betti ranks at a dominant weight, what this cell gives
        there).  The block has no maps where the quotient by the star union
        has no middle element.  `given` is what the cell ranked before it
        at the weight gave, or None, and is taken only from the cell
        (p - 1, q + 1): its apexes and tops, its kept source, which is this
        cell's kept middle, and its d_in, this cell's d_out (see the module
        notes).  The cap check on the unreduced counts comes first."""
        self._check_cap(weight)
        p = self.params.p
        apexes, tops, middle, d_out = (given[1:] if given and given[0] == p - 1
                                       else (*self._apex(weight), None, None))
        if middle is None:
            middle = self._kept_elements(self._middle.get(weight, []), apexes, tops)
        if not middle:
            return KoszulBlock(weight, *self._unreduced(weight)), (p, apexes, tops, None, None)
        source = self._kept_elements(self._source.get(weight, []), apexes, tops)
        block = self.block(weight, (tops, middle, source), d_out)
        return block, (p, apexes, tops, source, block.d_in)

    def _unreduced(self, weight) -> tuple:
        """(full_mid_dim, full_src_dim, full_middle) of the unreduced block."""
        return (self._middle_counts.get(weight, 0), self._source_counts.get(weight, 0),
                self._middle.get(weight, []))

    def _check_cap(self, weight):
        """Refuse a block whose unreduced bases and maps would exceed the cap."""
        middle, source, _ = self._unreduced(weight)
        est = _estimate_bytes(middle, source, self.params.p)
        if est > self.memory_cap:
            raise InfeasibleBlockError(
                f"block at weight {weight} needs ~{est} bytes, cap is {self.memory_cap}",
                weight=weight, middle_dim=middle, source_dim=source,
                estimated_bytes=est, cap=self.memory_cap,
            )

    def _apex(self, weight) -> tuple:
        """(apexes, tops) at a weight: the apex set A(w), as a frozenset of
        basis indices, and its monomials' packed exponents.  Walking the
        degree-d monomials in basis order, each one that divides x^weight
        and shares no variable with those already taken is taken.  The
        basis is in descending lex order, so the first is the weight's first
        variables, in order, up to degree d: it ends at the variable k where
        their exponents first reach d, and uses every variable up to k
        that the weight does not leave at 0.  The next is read the same way
        from variable k + 1 on, and so on: one sweep of the weight.  With
        no apex both are empty, and so is the star union."""
        d, index_of = self.params.d, self.basis_d.index_of
        apexes, start, need = [], 0, d
        for k, e in enumerate(weight):
            need -= e
            if need <= 0:   # variable k completes degree d with e + need
                apexes.append(index_of((0,) * start + weight[start:k] + (e + need,)
                                       + (0,) * (len(weight) - k - 1)))
                start, need = k + 1, d
        return frozenset(apexes), tuple([self._packed[i] for i in apexes])

    def _scan(self, weight) -> tuple:
        """(tops, kept middle, kept source) at a weight, after the cap
        check: block(w) alone scans them."""
        self._check_cap(weight)
        apexes, tops = self._apex(weight)
        return (tops, self._kept_elements(self._middle.get(weight, []), apexes, tops),
                self._kept_elements(self._source.get(weight, []), apexes, tops))

    def _kept_elements(self, group, apexes, tops) -> list:
        """The elements of a group outside the star union: no top is at most
        a kept class's tensor, and no apex is in a kept wedge.  Each wedge
        is kept with its class's packed tensor."""
        guards = self._guards
        for top in tops:
            group = [(packed, wedges) for packed, wedges in group
                     if (packed - top) & guards != guards]
        return [(wedge, packed) for packed, wedges in group
                for wedge in wedges if apexes.isdisjoint(wedge)]

    def _build(self, weight, kept, d_out=None) -> KoszulBlock:
        """Matrices of the block at `weight` on its quotient by the star
        union of its apexes, whose tops and kept elements are `kept`, d_out
        taken from the cell (p - 1, q + 1) where it built one.  The
        d_out . d_in = 0 check of the quotient's matrices comes last (that
        of the unreduced block is made once per cell: see the module
        notes)."""
        tops, middle, source = kept
        outside, packed_monomials = _Outside(tops, self._guards), self._packed

        def columns(elements, row_of):
            # one column per element, one entry per kept face, in the order
            # of _faces and with its signs by position: a face of a kept
            # element has no apex either, so it is kept unless a top is at
            # most its tensor x^t m_i.  That test comes first, memoised per
            # face tensor in `outside`, and only a kept face is sliced
            signs = self._signs
            return tuple([tuple([(row_of[wedge[:j] + wedge[j + 1:]], signs[j])
                                 for j, i in enumerate(wedge)
                                 if outside[t + packed_monomials[i]]])
                          for wedge, t in elements])

        if d_out is None:
            # numbers the faces 0, 1, ... as met; the counter holds no
            # reference to the dict, so reference counting frees both
            target_index = defaultdict(count().__next__)
            out_columns = columns(middle, target_index)
            d_out = SparseMatrix(len(target_index), out_columns)
        # weight preservation: every kept face of a source element is a kept
        # middle element of this block
        mid_index = {wedge: i for i, (wedge, _) in enumerate(middle)}
        d_in = SparseMatrix(len(middle), columns(source, mid_index))
        self._check_composition_zero(d_out, d_in, weight)
        return KoszulBlock(weight, *self._unreduced(weight), d_in, d_out)

    @staticmethod
    def _check_composition_zero(d_out: SparseMatrix, d_in: SparseMatrix, weight):
        """d_out . d_in = 0, one column of d_in at a time."""
        for column in d_in.columns:
            acc = {}
            for mid_row, sign_in in column:
                for tgt_row, sign_out in d_out.columns[mid_row]:
                    acc[tgt_row] = acc.get(tgt_row, 0) + sign_in * sign_out
            if any(acc.values()):
                raise InvariantError(f"d_out . d_in != 0 at weight {weight}")
