import math
import random

import pytest

from syzlab.arith import PrimeField, binom_safe, default_primes, is_prime, random_prime


def test_binom_small_values():
    assert binom_safe(5, 2) == 10
    assert binom_safe(0, 0) == 1
    assert binom_safe(4, 0) == 1
    assert binom_safe(4, 4) == 1


def test_binom_out_of_range_is_zero():
    assert binom_safe(1, 3) == 0
    assert binom_safe(3, -1) == 0
    assert binom_safe(-1, 2) == 0
    assert binom_safe(-5, 0) == 0


def test_binom_matches_math_comb_on_valid_domain():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randrange(0, 60)
        k = rng.randrange(-3, 63)
        expect = math.comb(m, k) if 0 <= k <= m else 0
        assert binom_safe(m, k) == expect


def test_binom_pascal_identity():
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randrange(1, 80)
        k = rng.randrange(-2, 82)
        assert binom_safe(m, k) == binom_safe(m - 1, k - 1) + binom_safe(m - 1, k)


def test_is_prime_small_table():
    primes_below_100 = {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    }
    for m in range(-3, 100):
        assert is_prime(m) == (m in primes_below_100)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)        # Carmichael number
    assert not is_prime(29341)      # Carmichael number
    assert is_prime(2**31 - 1)      # Mersenne prime
    assert is_prime(2**61 - 1)      # Mersenne prime
    assert not is_prime(2**61 + 1)


def test_random_prime_is_deterministic_and_sized():
    for bits in (31, 40, 62):
        a = random_prime(bits, seed=0)
        b = random_prime(bits, seed=0)
        assert a == b
        assert a.bit_length() == bits
        assert is_prime(a)
    assert random_prime(31, seed=0) != random_prime(31, seed=1)


def test_random_prime_rejects_bad_bits():
    with pytest.raises(ValueError):
        random_prime(1, seed=0)
    with pytest.raises(ValueError):
        random_prime(63, seed=0)


def test_default_primes_distinct():
    ps = default_primes(4)
    assert len(set(ps)) == 4
    for p in ps:
        assert is_prime(p)
        assert p.bit_length() == 31


def test_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(10)          # composite
    with pytest.raises(ValueError):
        PrimeField(65537)       # prime but below the working range
