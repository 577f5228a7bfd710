"""GL-equivariant decomposition of syzygy spaces.

K_{p,q}(P^n, b; d) is a representation of GL(n+1) and splits as a direct sum
of Schur functors S_lambda(U) over partitions lambda of (p+q)d + b with at
most n+1 parts.  The multiplicity M_lambda is recovered from torus-weight
space dimensions: if c_mu = dim of the weight-mu subspace (mu dominant),
then c_mu = sum_lambda M_lambda K_{lambda mu} with K the Kostka numbers.
Since K_{lambda lambda} = 1 and K_{lambda mu} = 0 unless lambda dominates
mu, solving in descending lexicographic order (which refines dominance)
is plain back-substitution:

    M_lambda = c_lambda - sum_{nu > lambda} M_nu K_{nu lambda}.

A negative M_lambda is mathematically impossible, so it is raised as a hard
error (it would mean a rank was wrong).  Weight-space dimensions, read off
the cell's own pass, demand exact or multi-prime-agreed ranks; single-prime
estimates are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .betti import LEVEL_ONE_PRIME, EngineConfig, _block_dim, make_config, weight_blocks
from .koszul import KoszulCell, Parameters
from .monomials import distinct_permutations_count


class CertificationError(Exception):
    """Raised when rank certification is too weak for equivariant output."""


class SchurSolveError(Exception):
    """Negative multiplicity: some weight-space dimension must be wrong."""


def partitions_of(total: int, max_parts: int) -> list:
    """Partitions of `total` into at most `max_parts` parts, descending lex."""
    assert total >= 0 and max_parts >= 0
    out = []

    def rec(prefix, remaining, cap, slots):
        if remaining == 0:
            out.append(prefix)
            return
        if slots == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(prefix + (part,), remaining - part, part, slots - 1)

    rec((), total, total, max_parts)
    out.sort(reverse=True)
    return out


def dominates(lam: tuple, mu: tuple) -> bool:
    """Dominance order: equal totals and prefix sums of lam >= those of mu."""
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def _strip(t: tuple) -> tuple:
    out = tuple(x for x in t if x)
    assert all(a >= b for a, b in zip(out, out[1:])), f"not a partition: {t}"
    return out


@lru_cache(maxsize=None)
def _kostka(lam: tuple, mu: tuple) -> int:
    """Count of semistandard tableaux of shape lam and content mu, both
    given as stripped partitions.  Recurses on removing the horizontal strip
    of the largest letter."""
    if not mu:
        return 1 if not lam else 0
    strip_size = mu[-1]
    rest = mu[:-1]
    total = 0
    rows = len(lam)

    # Choose nu with lam_{i+1} <= nu_i <= lam_i rowwise (a horizontal strip)
    # removing exactly strip_size boxes.
    def rec(i, removed, prefix):
        nonlocal total
        if i == rows:
            if removed == strip_size:
                total += _kostka(_strip(prefix), rest)
            return
        low = lam[i + 1] if i + 1 < rows else 0
        for nu_i in range(lam[i], low - 1, -1):
            take = lam[i] - nu_i
            if removed + take > strip_size:
                continue
            rec(i + 1, removed + take, prefix + (nu_i,))

    rec(0, 0, ())
    return total


def kostka(lam, mu) -> int:
    """Kostka number K_{lam, mu}: zero unless lam dominates mu, one on the
    diagonal."""
    lam_s, mu_s = _strip(tuple(lam)), _strip(tuple(mu))
    if sum(lam_s) != sum(mu_s):
        return 0
    if not dominates(lam_s, mu_s):
        return 0
    return _kostka(lam_s, mu_s)


def weyl_dim(lam, m: int) -> int:
    """dim S_lambda(C^m) = prod_{i<j} (lam_i - lam_j + j - i) / (j - i)."""
    lam_s = _strip(tuple(lam))
    if len(lam_s) > m:
        return 0
    padded = lam_s + (0,) * (m - len(lam_s))
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= padded[i] - padded[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def _certified(block, dim, exact, agree) -> int:
    if not (exact or agree):
        raise CertificationError(
            f"rank disagreement across primes at weight {block.weight}; "
            f"equivariant decomposition needs certified dimensions"
        )
    return dim


def weight_space_dims(n, b, d, p, q, config: EngineConfig = None) -> dict:
    """Dimensions c_mu of the dominant torus-weight spaces of K_{p,q}.

    Keys are all partitions of (p+q)d + b into at most n+1 parts, padded
    with zeros to n+1 entries; values can be 0.  The values are the
    contributions of the cell's own pass, so the ranks are the ones `kpq`
    takes.  Refuses single-prime configurations outright.
    """
    config = config or make_config()
    if config.mode == LEVEL_ONE_PRIME:
        raise CertificationError(
            "weight-space dimensions refuse one-prime estimates; "
            "use exact or two-prime mode"
        )
    blocks = weight_blocks(n, b, d, p, q, config)
    out = {lam + (0,) * (n + 1 - len(lam)): 0
           for lam in partitions_of((p + q) * d + b, n + 1)}
    for block, dim, exact, agree in blocks:
        out[block.weight] = _certified(block, dim, exact, agree)
    return out


def verify_weight_symmetry(n, b, d, p, q, samples: int = 3, seed: int = 0,
                           config: EngineConfig = None) -> bool:
    """Spot-check that permuting a weight leaves the block cohomology
    dimension unchanged (the symmetric group acts on the complex), the
    premise of counting each dominant block for its whole orbit.  The block
    at the permuted weight is built and ranked on its own."""
    import random

    config = config or make_config()
    params = Parameters(n=n, b=b, d=d, p=p, q=q)
    cell = KoszulCell(params, config.memory_cap)
    weights = [w for w in cell.weights() if len(set(w)) > 1]
    rng = random.Random(seed)
    for w in rng.sample(weights, min(samples, len(weights))):
        perm = list(w)
        while tuple(perm) == w:
            rng.shuffle(perm)
        block, twin = cell.block(w), cell.block(tuple(perm))
        base = _certified(block, *_block_dim(block, config))
        other = _certified(twin, *_block_dim(twin, config))
        if base != other:
            return False
    return True


@dataclass
class SchurMultiplicities:
    n: int
    b: int
    d: int
    p: int
    q: int
    entries: dict            # stripped partition -> positive multiplicity
    total_dim: int

    def multiplicity(self, lam) -> int:
        return self.entries.get(_strip(tuple(lam)), 0)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "b": self.b, "d": self.d, "p": self.p, "q": self.q,
            "total_dim": self.total_dim,
            "components": [
                {"partition": list(lam), "multiplicity": m,
                 "weyl_dim": weyl_dim(lam, self.n + 1)}
                for lam, m in sorted(self.entries.items(), reverse=True)
            ],
        }


def schur_multiplicities(n, b, d, p, q, config: EngineConfig = None) -> SchurMultiplicities:
    """Decompose K_{p,q} into irreducibles by unitriangular back-substitution
    against the Kostka matrix.  The result is checked against the total
    dimension (sum of all weight spaces, dominant ones weighted by their
    orbit sizes)."""
    config = config or make_config()
    c = weight_space_dims(n, b, d, p, q, config)
    order = sorted(c, reverse=True)  # descending lex refines dominance
    mult = {}
    for lam in order:
        val = c[lam]
        lam_s = _strip(lam)
        for nu, m_nu in mult.items():
            val -= m_nu * kostka(nu, lam_s)
        if val < 0:
            raise SchurSolveError(
                f"negative multiplicity {val} for partition {lam_s} at "
                f"(n={n}, b={b}, d={d}, p={p}, q={q})"
            )
        if val:
            mult[lam_s] = val
    total = sum(c[mu] * distinct_permutations_count(mu) for mu in c)
    recomposed = sum(m * weyl_dim(lam, n + 1) for lam, m in mult.items())
    if recomposed != total:
        raise SchurSolveError(
            f"irreducibles recompose to dimension {recomposed}, weight spaces "
            f"sum to {total} at (n={n}, b={b}, d={d}, p={p}, q={q})"
        )
    return SchurMultiplicities(n=n, b=b, d=d, p=p, q=q, entries=mult, total_dim=total)


@dataclass
class StabilityReport:
    b: int
    d: int
    p: int
    q: int
    dims: dict               # n -> dim K_{p,q}(P^n, b; d)
    stable_n: list           # the n >= p entries, where (non)vanishing agrees
    consistent: bool

    def to_dict(self) -> dict:
        return {
            "b": self.b, "d": self.d, "p": self.p, "q": self.q,
            "dims": {str(n): dim for n, dim in sorted(self.dims.items())},
            "stable_n": self.stable_n, "consistent": self.consistent,
        }


def stability_check(b, d, p, q, n_list, config: EngineConfig = None) -> StabilityReport:
    """Vanishing behaviour of K_{p,q} across ambient dimensions.

    Once n >= p the answer to 'is K_{p,q} zero' no longer depends on n, so
    the report flags any disagreement among those entries.
    """
    from .betti import kpq_dim

    config = config or make_config()
    dims = {n: kpq_dim(n, b, d, p, q, config) for n in n_list}
    stable = sorted(n for n in dims if n >= p)
    flags = {dims[n] > 0 for n in stable}
    return StabilityReport(
        b=b, d=d, p=p, q=q, dims=dims, stable_n=stable,
        consistent=len(flags) <= 1,
    )
