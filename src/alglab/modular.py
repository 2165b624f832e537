"""Modular-arithmetic helpers: primality, divisors, multiplicative orders."""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import InputError

MAX_PRIME = 2**31  # desk-scale moduli only; trial division stays fast below this


@lru_cache(maxsize=64)  # span/solve validate p on every call; trial division is O(sqrt p)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> int:
    """Validate a field characteristic; returns p."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InputError(f"p must be an integer, got {p!r}")
    if p >= MAX_PRIME:
        raise InputError(f"p must be < 2^31, got {p}")
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    return p


def divisors(n: int) -> list[int]:
    """All positive divisors of n, in increasing order."""
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def multiplicative_order(a: int, m: int) -> int | None:
    """Order of a in (Z/mZ)^*, or None if gcd(a, m) != 1.

    m = 1 is the trivial group: every a has order 1.  Otherwise the order
    divides phi(m), and order_from_multiple finds it with one pow per test.
    """
    if m < 1:
        raise InputError(f"modulus must be positive, got {m}")
    if m == 1:
        return 1
    a %= m
    if gcd(a, m) != 1:
        return None
    order = m
    for ell in _prime_factors(m):
        order = order // ell * (ell - 1)
    return order_from_multiple(order, lambda e: pow(a, e, m) == 1)


def order_from_multiple(multiple: int, is_one) -> int:
    """The order of an element g from a multiple of it, where is_one(e) tests
    g^e = 1: divide out each prime factor of the multiple while the power of
    g to the quotient is still one, one is_one per test."""
    for ell in _prime_factors(multiple):
        while multiple % ell == 0 and is_one(multiple // ell):
            multiple //= ell
    return multiple


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m >= 1, in increasing order (trial division)."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def element_of_order(p: int, n: int) -> int | None:
    """Smallest residue in F_p^* of multiplicative order exactly n, or None.

    Exists iff n divides p - 1.  F_p^* has phi(n) elements of order n, so an
    upward scan expects about (p-1)/phi(n) candidates, each tested with pow
    against the prime factors of n.  When that costs more than listing the n
    powers of h = g^((p-1)/n) for a generator g (the elements of order n are
    the h^k with k prime to n), the powers are listed and the smallest taken.
    """
    check_prime(p)
    if n < 1:
        raise InputError(f"order must be positive, got {n}")
    if (p - 1) % n != 0:
        return None
    if n == 1:
        return 1
    primes = _prime_factors(p - 1)
    of_n = [ell for ell in primes if n % ell == 0]
    phi = n
    for ell in of_n:
        phi = phi // ell * (ell - 1)
    if n * phi <= 32 * (p - 1):  # a pow costs some 32 multiplications
        g = next(g for g in range(2, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in primes))
        h = pow(g, (p - 1) // n, p)
        best, x = p, 1
        for k in range(1, n):
            x = x * h % p
            if x < best and gcd(k, n) == 1:
                best = x
        return best
    return next(
        w for w in range(2, p)
        if pow(w, n, p) == 1 and all(pow(w, n // ell, p) != 1 for ell in of_n)
    )
