"""Arithmetic modulo random primes in [2^30, 2^31), shared by numeric and lines3d.

A residue is below p < 2^31, so the product of two residues, below 2^62, fits in
int64, and so does the difference of two such products. prime_residues is the one
place that draws primes for exact numbers (ints and Fractions): it walks
random_prime's stream, skips a prime that divides a denominator, and yields each
other prime with the numbers' int64 residues. An integer polynomial in the numbers,
evaluated on the residues and taken mod p, is then the residue of its rational value.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

import numpy as np

# Miller-Rabin with these witnesses is exact below 3.2e9, which covers every
# prime random_prime draws
_MR_WITNESSES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random) -> int:
    """A prime in [2^30, 2^31): the product of two residues fits in int64."""
    while True:
        candidate = rng.randrange(2 ** 30, 2 ** 31) | 1
        if _is_prime(candidate):
            return candidate


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a^-1 mod p of each unit in the int64 array a, as a^(p - 2) by repeated squaring
    (Fermat); every product of two residues fits in int64 when p < 2^31."""
    out, e = np.ones_like(a), p - 2
    while e:
        if e & 1:
            out = out * a % p
        a = a * a % p
        e >>= 1
    return out


def prime_residues(values: Sequence, stream: random.Random) -> Iterator[tuple[int, np.ndarray]]:
    """The primes p of random_prime's stream that divide no denominator of a sequence of
    ints and Fractions, each with their int64 residues mod p: a numerator times the
    inverse of its denominator mod p, or the numerator alone when every denominator is 1."""
    while True:
        p = random_prime(stream)
        den = np.array([x.denominator % p for x in values], dtype=np.int64)
        if den.all():
            num = np.array([x.numerator % p for x in values], dtype=np.int64)
            yield p, num if (den == 1).all() else num * inverse_mod(den, p) % p
