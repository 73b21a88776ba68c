"""Reference arithmetic and output checkers, independent of ``cotorsion``.

Nothing here imports the library: every expected value is recomputed from
first principles (trial division, the Kronecker symbol, 2x2 and 4x4
integer lattices written out by hand), so a checker can only pass when the
program's output agrees with an independent computation.  Every checker
raises CheckFailed on a mismatch; none relies on ``assert``, which
``python -O`` strips.

Elements of O = Z[w] are pairs (x, y) meaning x + y*w, with w^2 = t*w + u.
"""

from __future__ import annotations

import math


class CheckFailed(Exception):
    """A program output disagreed with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------ integers


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def sigma(n: int) -> int:
    """Sum of the divisors of n."""
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d if d * d == n else d + n // d
    return total


def psi(d: int) -> int:
    """|PF^1 over Z/d| = product over p^k || d of p^(k-1) * (p + 1)."""
    out = 1
    for p, k in factor(d):
        out *= p ** (k - 1) * (p + 1)
    return out


def sigma_sieve(n_max: int) -> list[int]:
    """[sigma(1), ..., sigma(n_max)] by summing each divisor into its multiples."""
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            out[m] += d
    return out[1:]


# ------------------------------------------------------------ quadratic rings


def ring_tu(d: int) -> tuple[int, int]:
    """(t, u) with w^2 = t*w + u for the maximal order of Q(sqrt(d))."""
    return (1, (d - 1) // 4) if d % 4 == 1 else (0, d)


def disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def qmul(tu, a, b):
    t, u = tu
    yy = a[1] * b[1]
    return (a[0] * b[0] + u * yy, a[0] * b[1] + a[1] * b[0] + t * yy)


def qsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def qnorm(tu, a) -> int:
    t, u = tu
    x, y = a
    return x * x + t * x * y - u * y * y


def kronecker(D: int, n: int) -> int:
    """The Kronecker symbol (D / n) for a fundamental discriminant D < 0."""
    out = 1
    for p, k in factor(n):
        if p == 2:
            chi = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
        else:
            r = pow(D % p, (p - 1) // 2, p)
            chi = 0 if r == 0 else (1 if r == 1 else -1)
        out *= chi**k
    return out


def ideal_counts(D: int, n_max: int) -> list[int]:
    """Number of ideals of norm n, n = 1..n_max: the sum over d | n of (D/d)."""
    chi = [0] + [kronecker(D, m) for m in range(1, n_max + 1)]
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        if chi[d]:
            for m in range(d, n_max + 1, d):
                out[m] += chi[d]
    return out[1:]


def module_counts(D: int, n_max: int) -> list[int]:
    """Coefficients of zeta_K(s - 1) * zeta_K(s): sum over d*e = n of d*a(d)*a(e)."""
    a = [0] + ideal_counts(D, n_max)
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        if a[d]:
            for e in range(1, n_max // d + 1):
                out[d * e] += d * a[d] * a[e]
    return out[1:]


# ------------------------------------------------------------ lattices


def hnf2(vectors) -> tuple[tuple[int, int], tuple[int, int]]:
    """Row HNF ((a, b), (0, c)) of a full-rank lattice in Z^2 spanned by vectors."""
    a = b = c = 0
    for x, y in vectors:
        if x == 0:
            c = math.gcd(c, y)
            continue
        # s*a + r*x = g; the combination (a/g)*(x, y) - (x/g)*(a, b) has first coordinate 0
        g, s, r = _xgcd(a, x)
        a, b, c = g, s * b + r * y, math.gcd(c, (a // g) * y - (x // g) * b)
    if not (a > 0 and c > 0):
        raise CheckFailed(f"vectors {list(vectors)} do not span a rank-2 lattice")
    return ((a, b % c), (0, c))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def ideal_hnf(tu, gens) -> tuple[tuple[int, int], tuple[int, int]]:
    """HNF of the ideal generated by the elements: the Z-span of g and w*g."""
    w = (0, 1)
    vecs = []
    for g in gens:
        if g != (0, 0):
            vecs += [g, qmul(tu, g, w)]
    return hnf2(vecs)


def ideal_norm(h) -> int:
    return h[0][0] * h[1][1]


def in_hnf(rows, v) -> bool:
    """Membership of v in the Z-span of an upper-triangular basis with positive pivots."""
    v = list(v)
    for row in rows:
        col = next(j for j, c in enumerate(row) if c)
        if v[col] % row[col]:
            return False
        q = v[col] // row[col]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def is_principal(tu, h) -> bool:
    """Whether the ideal with HNF h has an element of norm N(h), that is, a generator."""
    t, u = tu
    n = ideal_norm(h)
    # N(x + y*w) = (x + t*y/2)^2 + |D|*y^2/4 with |D| = -(t^2 + 4u) > 0
    r = math.isqrt(n) + 1
    y_max = math.isqrt(4 * n // -(t * t + 4 * u)) + 1
    return any(
        qnorm(tu, (x, y)) == n and in_hnf(h, (x, y))
        for y in range(-y_max, y_max + 1)
        for x in range(-r - abs(y), r + abs(y) + 1)
    )


def ideals_of_norm(tu, n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every ideal of norm n, as canonical HNF ((a, b), (0, c)) with a*c = n, 0 <= b < c."""
    out = []
    for c in range(1, n + 1):
        if n % c:
            continue
        a = n // c
        for b in range(c):
            rows = ((a, b), (0, c))
            if all(in_hnf(rows, qmul(tu, r, (0, 1))) for r in rows):
                out.append(rows)
    return out


def omega_stable(tu, hnf4) -> bool:
    """Whether a 4x4 lattice in coordinates (e1, w*e1, e2, w*e2) is stable under w."""
    for r in hnf4:
        a = qmul(tu, (r[0], r[1]), (0, 1))
        b = qmul(tu, (r[2], r[3]), (0, 1))
        if not in_hnf(hnf4, (a[0], a[1], b[0], b[1])):
            return False
    return True


def is_upper_hnf(rows) -> bool:
    """Square, upper triangular, positive pivots, entries above each pivot in [0, pivot)."""
    n = len(rows)
    for i in range(n):
        if len(rows[i]) != n or rows[i][i] <= 0 or any(rows[i][j] for j in range(i)):
            return False
        for k in range(i):
            if not 0 <= rows[k][i] < rows[i][i]:
                return False
    return True


def det_diag(rows) -> int:
    out = 1
    for i, r in enumerate(rows):
        out *= r[i]
    return out


def check_module(tu, hnf4, L, K) -> None:
    """M is an omega-stable HNF lattice with K*O^2 <= M <= L*O^2 and |O^2/M| = N(L)N(K)."""
    require(is_upper_hnf(hnf4), f"module basis {hnf4} is not a canonical HNF")
    require(omega_stable(tu, hnf4), f"module {hnf4} is not stable under w")
    size = det_diag(hnf4)
    require(size == ideal_norm(L) * ideal_norm(K), f"|O^2/M| = {size} != N(L)N(K) for L={L}, K={K}")
    for beta in K:
        require(in_hnf(hnf4, (beta[0], beta[1], 0, 0)), f"K*e1 not inside module {hnf4}")
        require(in_hnf(hnf4, (0, 0, beta[0], beta[1])), f"K*e2 not inside module {hnf4}")
    for r in hnf4:
        require(in_hnf(L, (r[0], r[1])) and in_hnf(L, (r[2], r[3])), f"module {hnf4} not inside L*O^2")


def ideal_product(tu, I, J):
    """HNF of I*J: the Z-span of the products of the two Z-bases."""
    return hnf2([qmul(tu, a, b) for a in I for b in J])


UNIT = ((1, 0), (0, 1))


def pf1_card_of_ideal(tu, I) -> int:
    """|PF^1 over O/I| by counting unimodular residue pairs and dividing by |(O/I)^x|."""
    (a, _), (_, c) = I
    res = [(x, y) for x in range(a) for y in range(c)]
    units = sum(1 for e in res if ideal_hnf(tu, [e, *I]) == UNIT)
    pairs = sum(1 for e in res for f in res if ideal_hnf(tu, [e, f, *I]) == UNIT)
    return pairs // units


# ------------------------------------------------------------ checkers per workload


def check_index_enumeration(n: int, entries) -> None:
    """entries: (hnf rows, (d1, d2, d), point (a, b), rebuilt rows) for every index-n lattice."""
    require(len(entries) == sigma(n), f"index {n}: {len(entries)} lattices, sigma = {sigma(n)}")
    require(len({e[0] for e in entries}) == len(entries), f"index {n}: repeated lattice")
    strata: dict[tuple[int, int, int], set] = {}
    for rows, stratum, point, rebuilt in entries:
        check_lattice(rows, n, stratum, point, rebuilt)
        pts = strata.setdefault(stratum, set())
        require(point not in pts, f"index {n}: point {point} repeated in stratum {stratum}")
        pts.add(point)
    for (d1, d2, d), pts in strata.items():
        require(len(pts) == psi(d), f"stratum {(d1, d2, d)}: {len(pts)} points, expected {psi(d)}")


def check_lattice(rows, index: int, stratum, point, rebuilt) -> None:
    (r11, r12), (r21, r22) = rows
    require(r21 == 0 and r11 * r22 == index, f"lattice {rows} does not have index {index}")
    d1, d2, d = stratum
    require(d1 == math.gcd(r11, r12, r22), f"lattice {rows}: d1 = {d1} != gcd of HNF entries")
    require(d1 * d2 == index and d1 * d == d2, f"lattice {rows}: bad Smith data {stratum}")
    a, b = point
    require(math.gcd(a, b, d) == 1 or d == 1, f"lattice {rows}: point {point} not unimodular mod {d}")
    require(tuple(map(tuple, rebuilt)) == tuple(map(tuple, rows)), f"lattice {rows} rebuilt as {rebuilt}")


def check_stratum_modules(tu, L, K, hnfs, classified, rebuilt) -> None:
    """One (L, K) stratum: distinct valid modules, each classified back to (L, K) and rebuilt."""
    require(len(set(hnfs)) == len(hnfs), f"stratum L={L} K={K}: repeated module")
    for hnf4, (cl, ck), back in zip(hnfs, classified, rebuilt):
        check_module(tu, hnf4, L, K)
        require((cl, ck) == (L, K), f"module {hnf4} classified as ({cl}, {ck}), expected ({L}, {K})")
        require(back == hnf4, f"module {hnf4} rebuilt as {back}")


def check_module_total(D: int, n: int, total: int) -> None:
    want = module_counts(D, n)[-1]
    require(total == want, f"D={D}: {total} modules of quotient size {n}, zeta_K(s-1)zeta_K(s) says {want}")


def check_exit(rc, valid: bool) -> None:
    if valid:
        require(rc == 0, f"valid input exited {rc}")
    else:
        require(rc in (1, 2), f"malformed input exited {rc}, expected 1 or 2")


def content_norm(tu, gens) -> int:
    """N(L) for L the ideal generated by every coordinate of the generators."""
    return ideal_norm(ideal_hnf(tu, [c for g in gens for c in g]))


def det_norm(tu, gens) -> int:
    (a, b), (c, d) = gens
    return qnorm(tu, qsub(qmul(tu, a, d), qmul(tu, b, c)))


def check_invariants_output(tu, gens, obj, rebuilt_hnf4) -> None:
    """okmod invariants on two generators: M is their O-span, sizes, nesting, and the printed data rebuilds M."""
    L = tuple(map(tuple, obj["L"]["hnf"]))
    K = tuple(map(tuple, obj["K"]["hnf"]))
    I = tuple(map(tuple, obj["I"]["hnf"]))
    hnf4 = tuple(map(tuple, obj["module"]["hnf4"]))
    size = det_norm(tu, gens)
    require(obj["quotient_size"] == size, f"quotient size {obj['quotient_size']} != N(det) = {size}")
    require(ideal_norm(L) == content_norm(tu, gens), f"N(L) = {ideal_norm(L)} != norm of the content ideal")
    require(ideal_norm(I) * ideal_norm(L) == ideal_norm(K), f"N(I) N(L) != N(K) for L={L} K={K} I={I}")
    require(all(in_hnf(L, r) for r in K), f"K={K} is not inside L={L}")
    check_module(tu, hnf4, L, K)
    # M contains the O-span of the generators and has its index, so it is that span
    for g in gens:
        for a, b in (g, [qmul(tu, c, (0, 1)) for c in g]):
            require(in_hnf(hnf4, (*a, *b)), f"generator {g} is not inside the printed module {hnf4}")
    require(det_diag(hnf4) == size, f"printed module {hnf4} has index {det_diag(hnf4)}, not {size}")
    require(rebuilt_hnf4 == hnf4, f"printed (L, K, point) rebuilds {rebuilt_hnf4}, not {hnf4}")


def check_series(name: str, got, want) -> None:
    require(len(got) == len(want), f"{name}: {len(got)} coefficients, expected {len(want)}")
    for n, (g, w) in enumerate(zip(got, want), start=1):
        require(g == w, f"{name}: coefficient {n} is {g}, expected {w}")


def check_identity_report(report) -> None:
    require(
        isinstance(report, list) and len(report) == 2 and all(r.get("equal") is True for r in report),
        f"identity report {report} is not two equal identities",
    )
