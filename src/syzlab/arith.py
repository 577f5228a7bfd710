"""Integer helpers, primality and reproducible primes.

Binomials follow the convention binom(m, k) = 0 outside 0 <= k <= m, which
lets dimension formulas for graded pieces be written without case splits.
Primality testing is deterministic Miller-Rabin (the 12-witness set proved
sufficient below 2^64), so prime generation from a seed is reproducible
across runs and machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

# Witnesses making Miller-Rabin deterministic for all n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def binom_safe(m: int, k: int) -> int:
    """binom(m, k), defined as 0 whenever k < 0 or k > m (including m < 0)."""
    if k < 0 or m < 0 or k > m:
        return 0
    return comb(m, k)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 2^64."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, seed: int) -> int:
    """Smallest-effort reproducible prime with exactly `bits` bits.

    The same (bits, seed) pair always yields the same prime; distinct seeds
    almost always yield distinct primes, which is what the two-prime rank
    certification relies on.
    """
    if not 2 <= bits <= 62:
        raise ValueError(f"bits must be in [2, 62], got {bits}")
    rng = random.Random(1_000_003 * seed + bits)
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


@dataclass(frozen=True)
class PrimeField:
    """A prime modulus of 31 to 62 bits, checked on construction."""

    modulus: int

    def __post_init__(self):
        if not 31 <= self.modulus.bit_length() <= 62:
            raise ValueError(f"modulus must have 31-62 bits, got {self.modulus}")
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")


def default_primes(count: int = 2, bits: int = 31) -> tuple[int, ...]:
    """The engine's standard certification primes, seeds 0, 1, ..."""
    return tuple(random_prime(bits, seed) for seed in range(count))
