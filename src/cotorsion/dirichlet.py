"""Truncated formal Dirichlet series with exact integer coefficients.

A series is the vector (a(1), ..., a(n_max)).  The zeta identities of
this package are checked as exact coefficientwise equalities of such
vectors: no floating point, no analytic evaluation.

Every counting series here is multiplicative, so it is built by one
smallest-prime-factor sieve from a local factor at each prime power
p^k: a closed form with the one signature f(p, k, q, chi, tables),
q = p^k.  Over O_K it depends only on p, k and the splitting type of p,
which the Kronecker symbol chi = (disc K / p) decides exactly; no ideal
is enumerated or factored.  Over Z it is the chi = 0 value: one prime
of norm p lies over p, as over a ramified prime of O_K.  The per-n
definitions (|PF^1| of each ideal of norm n, divisor sums) stay in the
tests as oracles.

The two identities of the module count, zeta_K(s) * zeta_K(s - 1) and
zeta_K(2s) * zeta_PF1(s), are Dirichlet products of multiplicative
series, hence Euler products with (f*g)(p^k) = sum_i f(p^i) g(p^(k-i)).
`zeta_identity_sides` builds both right sides in the same sieve pass
as the count and PF^1 series, from their values at the powers of each
prime, for comparison with the stratum sum of the classification.
The general `convolve`, `series_shift` and `series_square_support`
build the same right sides with no multiplicativity assumed; they stay
as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .errors import BadLength
from .quadring import QuadRing, kronecker

#: the CLI refuses to build series longer than this; an identity check
#: holds five series of n_max Python ints at once (the count and PF^1
#: series, both Euler-product right sides and the stratum sum).
SERIES_BOUND = 10**6


@dataclass(frozen=True)
class DirichletSeries:
    """Coefficients a(1..n_max) of a truncated formal Dirichlet series."""

    coeffs: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.coeffs)

    def a(self, n: int) -> int:
        return self.coeffs[n - 1]


def convolve(f: DirichletSeries, g: DirichletSeries) -> DirichletSeries:
    """(f*g)(n) = sum over d*e = n of f(d) * g(e)."""
    if f.n_max != g.n_max:
        raise BadLength(f"truncations differ: {f.n_max} != {g.n_max}")
    n = f.n_max
    fs, gs = f.coeffs, g.coeffs
    out = [0] * n
    r = math.isqrt(n)
    # the pairs with d <= r, one slice per d: out[d*e - 1] += f(d) * g(e)
    for d in range(1, r + 1):
        fd = fs[d - 1]
        if fd:
            out[d - 1 :: d] = [o + fd * ge for o, ge in zip(out[d - 1 :: d], gs)]
    # the pairs with d > r, hence e <= n // (r + 1), one slice per e
    for e in range(1, n // (r + 1) + 1):
        ge = gs[e - 1]
        if ge:
            lo = (r + 1) * e - 1
            out[lo::e] = [o + ge * fd for o, fd in zip(out[lo::e], islice(fs, r, None))]
    return DirichletSeries(tuple(out))


def _smallest_prime_factors(n_max: int) -> list[int]:
    """spf[n] = the least prime dividing n, for 2 <= n <= n_max."""
    spf = list(range(n_max + 1))
    # descending, so the least divisor k >= 2 of n with k*k <= n is
    # written last; that divisor is prime
    for k in range(math.isqrt(n_max), 1, -1):
        spf[k * k :: k] = [k] * len(range(k * k, n_max + 1, k))
    return spf


def _multiplicative(n_max: int, factors, K: QuadRing | None = None) -> list[DirichletSeries]:
    """One multiplicative series per local factor, in one sieve pass.

    At each prime p the pass evaluates chi = (disc K / p) once, or takes
    chi = 0 over Z (K None).  For q = p^k <= n_max in increasing k it sets
    tables[j][q] = factors[j](p, k, q, chi, tables) in order of j, so a
    factor may read earlier tables at q and every table at lower powers
    of p.  Every other n splits as q * m with q = p^k, p its least prime
    and p not dividing m, so tables[j][n] = tables[j][q] * tables[j][m]
    reads two entries already set.
    """
    if n_max < 1:
        return [DirichletSeries(())] * len(factors)
    spf = _smallest_prime_factors(n_max)
    tables = [[0, 1] + [0] * (n_max - 1) for _ in factors]
    pairs = list(zip(tables, factors))
    for n in range(2, n_max + 1):
        p = spf[n]
        if p == n:
            chi = 0 if K is None else kronecker(K, p)
            q, k = p, 1
            while q <= n_max:
                for a, f in pairs:
                    a[q] = f(p, k, q, chi, tables)
                q, k = q * p, k + 1
            continue
        m, q = n // p, p
        while m % p == 0:
            m //= p
            q *= p
        if m > 1:
            for a in tables:
                a[n] = a[q] * a[m]
    del spf
    series = []
    # each list is freed once its tuple is built
    for a in tables:
        del a[0]
        series.append(DirichletSeries(tuple(a)))
        a.clear()
    return series


def _psi(p: int, k: int) -> int:
    """|PF^1 over Z/p^k| = p^(k-1) * (p + 1), and 1 at k = 0."""
    return p ** (k - 1) * (p + 1) if k else 1


def _ideal_count(p: int, k: int, q: int, chi: int, tables) -> int:
    """Ideals of norm p^k: k + 1 if p splits, one if it ramifies, and one
    or none by the parity of k if it is inert."""
    if chi == 1:
        return k + 1
    if chi == -1:
        return 1 - k % 2
    return 1


def _pf1(p: int, k: int, q: int, chi: int, tables) -> int:
    """The sum of |PF^1 over O/I| over the ideals I of norm p^k.

    |PF^1 over O/P^a| = N(P)^(a-1) * (N(P) + 1), so: the sum over P^a *
    Q^b with a + b = k if p splits, (p^2)^(k/2 - 1) * (p^2 + 1) for even
    k if p is inert (none for odd k), and p^(k-1) * (p + 1) if it
    ramifies.
    """
    if chi == 1:
        return sum(_psi(p, a) * _psi(p, k - a) for a in range(k + 1))
    if chi == -1:
        return 0 if k % 2 else _psi(p * p, k // 2)
    return _psi(p, k)


def _sigma(p: int, k: int, q: int, chi: int, tables) -> int:
    """sigma(p^k) = 1 + p + ... + p^k."""
    return (q * p - 1) // (p - 1)


def _shifted_product(p: int, k: int, q: int, chi: int, tables) -> int:
    """(zeta(s - 1) * zeta(s))(p^k) = sum over i <= k of p^i c(p^i) c(p^(k-i)),
    with c = tables[0] the count table, set at q = p^k and below."""
    c = tables[0]
    s, pi = 0, 1
    for _ in range(k + 1):
        s += pi * c[pi] * c[q // pi]
        pi *= p
    return s


def _square_product(p: int, k: int, q: int, chi: int, tables) -> int:
    """(zeta(2s) * zeta_PF1(s))(p^k) = sum over 2i <= k of c(p^i) f(p^(k-2i)),
    with c = tables[0] the count and f = tables[1] the PF^1 table, set at
    q = p^k and below."""
    c, f = tables[0], tables[1]
    s, pi = 0, 1
    for _ in range(k // 2 + 1):
        s += c[pi] * f[q // (pi * pi)]
        pi *= p
    return s


def series_zeta(n_max: int) -> DirichletSeries:
    """a(n) = 1: the Riemann zeta coefficient vector."""
    return DirichletSeries((1,) * n_max)


def series_zeta_shift(n_max: int) -> DirichletSeries:
    """a(n) = n: the coefficients of zeta(s - 1)."""
    return DirichletSeries(tuple(range(1, n_max + 1)))


def series_zeta_double(n_max: int) -> DirichletSeries:
    """a(n) = 1 iff n is a square: the coefficients of zeta(2s)."""
    return series_square_support(series_zeta(n_max))


def series_pf1(n_max: int) -> DirichletSeries:
    """a(n) = number of points of the projective line over Z/n."""
    return _multiplicative(n_max, (_pf1,))[0]


def series_sigma(n_max: int) -> DirichletSeries:
    """a(n) = sigma(n), the count of index-n sublattices of Z^2."""
    return _multiplicative(n_max, (_sigma,))[0]


def stratum_sum(f: DirichletSeries, g: DirichletSeries) -> DirichletSeries:
    """b(n) = sum over l^2 * i = n of f(l) * g(i), one pass per l.

    The classification strata of a module count: l is the norm of the
    content ideal, f(l) the number of content ideals of that norm and
    g(i) the number of points over an ideal of norm i.
    """
    if f.n_max != g.n_max:
        raise BadLength(f"truncations differ: {f.n_max} != {g.n_max}")
    out = [0] * g.n_max
    for l in range(1, math.isqrt(g.n_max) + 1):
        fl = f.coeffs[l - 1]
        if fl:
            s = l * l
            out[s - 1 :: s] = [o + fl * gi for o, gi in zip(out[s - 1 :: s], g.coeffs)]
    return DirichletSeries(tuple(out))


def series_z2(n_max: int) -> DirichletSeries:
    """a(n) = number of index-n sublattices of Z^2, by the stratum sum.

    Sums |PF^1 over Z/d| over the d with n/d = l^2 a perfect square (the
    classification strata), not by enumerating lattices.
    """
    return stratum_sum(series_zeta(n_max), series_pf1(n_max))


def series_square_support(f: DirichletSeries) -> DirichletSeries:
    """b(n) = f(sqrt(n)) when n is a square else 0: coefficients of F(2s)."""
    out = [0] * f.n_max
    for r in range(1, math.isqrt(f.n_max) + 1):
        out[r * r - 1] = f.coeffs[r - 1]
    return DirichletSeries(tuple(out))


def series_shift(f: DirichletSeries) -> DirichletSeries:
    """b(n) = n * f(n): coefficients of F(s - 1)."""
    return DirichletSeries(tuple(n * c for n, c in enumerate(f.coeffs, start=1)))


def series_ideal_count(K: QuadRing, n_max: int) -> DirichletSeries:
    """a(n) = number of ideals of norm n: the Dedekind zeta coefficients."""
    return _multiplicative(n_max, (_ideal_count,), K)[0]


def series_ok_pf1(K: QuadRing, n_max: int) -> DirichletSeries:
    """a(n) = sum of |PF^1 over O/I| over the ideals I of norm n."""
    return _multiplicative(n_max, (_pf1,), K)[0]


def series_ok_module_count(K: QuadRing, n_max: int) -> DirichletSeries:
    """a(n) = number of co-torsion submodules of O^2 with quotient size n.

    Stratum sum over the classifying data: quotient size N(L)*N(K) =
    N(L)^2 * N(I) and |PF^1_I| modules per (L, I), so
    a(n) = sum over l^2 * i = n of (#ideals of norm l) * (pf1 sum at i).
    """
    return stratum_sum(*_multiplicative(n_max, (_ideal_count, _pf1), K))


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an exact coefficientwise comparison of two series."""

    n_max: int
    equal: bool
    first_mismatch: int | None = None
    lhs_value: int | None = None
    rhs_value: int | None = None

    def __str__(self) -> str:
        if self.equal:
            return f"equal up to {self.n_max}"
        return (
            f"mismatch at n={self.first_mismatch}: "
            f"{self.lhs_value} != {self.rhs_value}"
        )


def check_identity(lhs: DirichletSeries, rhs: DirichletSeries) -> IdentityReport:
    """Exact comparison; reports the first mismatching index if any."""
    if lhs.n_max != rhs.n_max:
        raise BadLength(f"truncations differ: {lhs.n_max} != {rhs.n_max}")
    if lhs.coeffs == rhs.coeffs:
        return IdentityReport(lhs.n_max, True)
    n = next(
        n for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs), start=1) if a != b
    )
    return IdentityReport(lhs.n_max, False, n, lhs.a(n), rhs.a(n))


def zeta_identity_sides(
    K: QuadRing | None, n_max: int
) -> tuple[DirichletSeries, DirichletSeries, DirichletSeries]:
    """The module count and both right sides of its zeta identities.

    Over O_K, or over Z when K is None.  The module count is the stratum
    sum of the classification; the right sides are the Euler products
    zeta(s - 1) * zeta(s) and zeta(2s) * zeta_PF1(s), built in the same
    sieve pass as the count and PF^1 series that the stratum sum reads.
    """
    counts, pf1, shifted, squared = _multiplicative(
        n_max, (_ideal_count, _pf1, _shifted_product, _square_product), K
    )
    return stratum_sum(counts, pf1), shifted, squared

