"""Exact integer arithmetic: extended gcd, factorization, divisor functions.

Everything here works on unbounded Python integers; there is no floating
point anywhere and out-of-range inputs fail loudly instead of degrading
to probabilistic methods.
"""

from __future__ import annotations

import math

from .errors import DegenerateInput, OutOfRange

#: Trial division tries primes up to this bound, so integers up to its
#: square can be fully factored.
TRIAL_DIVISION_BOUND = 10**7


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with a*x + b*y = g = gcd(a, b) >= 1.

    Raises DegenerateInput when both arguments are zero.
    """
    if a == 0 and b == 0:
        raise DegenerateInput("xgcd(0, 0) is undefined")
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Deterministic trial-division factorization of n >= 1.

    Returns the pairs ((p1, e1), (p2, e2), ...) with p1 < p2 < ... and
    every e >= 1, so factorize(1) == ().

    Raises OutOfRange when n < 1 or n > TRIAL_DIVISION_BOUND**2 (a
    cofactor above that could be composite without a witness below the
    bound).
    """
    if n < 1:
        raise OutOfRange(f"cannot factor {n}: need n >= 1")
    limit = TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND
    if n > limit:
        raise OutOfRange(f"{n} exceeds the factorable range bound**2 = {limit}")
    pairs = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        # m has no divisor <= sqrt(m), hence prime
        pairs.append((m, 1))
    return tuple(pairs)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def sigma(n: int) -> int:
    """Sum of divisors of n; multiplicative with sigma(p^k) = (p^(k+1)-1)/(p-1)."""
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def is_square(n: int) -> tuple[bool, int | None]:
    """Whether n >= 1 is a perfect square, with its root when it is."""
    if n < 1:
        raise OutOfRange(f"is_square({n}): need n >= 1")
    r = math.isqrt(n)
    if r * r == n:
        return True, r
    return False, None


def sqrt_mod(a: int, p: int) -> int:
    """The least square root of a modulo the prime p, by Tonelli-Shanks.

    The quadratic non-residue comes from a scan upward from 2, so the
    result is deterministic.  Raises DegenerateInput when a is not a
    square mod p.  Primality of p is the caller's to check.
    """
    a %= p
    if a == 0 or p == 2:
        return a
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        raise DegenerateInput(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
    # invariants: r^2 = a*t, c has order 2^m, t has order dividing 2^(m-1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue mod m1*m2 congruent to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    g, x, _ = xgcd(m1, m2)
    if g != 1:
        raise DegenerateInput(f"moduli {m1}, {m2} are not coprime")
    # r1 + m1 * x * (r2 - r1) hits r2 mod m2 because m1*x = 1 mod m2
    return (r1 + m1 * x * (r2 - r1)) % (m1 * m2)
