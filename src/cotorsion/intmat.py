"""Exact integer matrix algorithms: Hermite and Smith normal forms.

Every rank-2 lattice in Z^2 (a sublattice of Z^2, an ideal of O in the
basis (1, w)) is canonicalized by one kernel, hnf2, and tested for
membership by hnf2_contains; row_hnf serves the 4-column module work,
and in_lattice tests membership in its output.  The HNF of one stacked
basis, stacked_hnf, gives both lattice intersections and the split
1 = a + b over comaximal ideals, so no HNF needs a unimodular transform.
No classification path computes a Smith normal form; the library reads
invariants off HNF bases, and smith_normal_form stays as the tests' oracle.

Conventions used throughout the package:

* matrices are lists (or tuples) of rows of Python ints;
* a lattice is the Z-span of the rows of its basis matrix;
* the row Hermite normal form is the canonical basis: echelon shape,
  positive pivots, entries above a pivot reduced into [0, pivot).

Two lattices are equal iff their HNF bases are identical, which is what
makes set-level equality of lattices, ideals and modules decidable.
"""

from __future__ import annotations

from math import gcd

from .arith import xgcd

Matrix = list[list[int]]

#: canonical HNF ((a, b), (0, c)) of a rank-2 lattice in Z^2, a, c >= 1, 0 <= b < c
Hnf2 = tuple[tuple[int, int], tuple[int, int]]


def hnf2(rows) -> Hnf2 | None:
    """Canonical HNF of the lattice in Z^2 spanned by ``rows``; None below rank 2.

    Folds the rows into a basis (a, b), (0, c) one at a time.  The first
    row with x != 0 becomes (a, b) as it is; each later one is merged by
    one xgcd: s*a + r*x = g, and the combination (a/g)*(x, y) - (x/g)*(a, b)
    has first coordinate 0, so it only updates c by a gcd; a row with
    x = 0 does that directly.
    """
    a = b = c = 0
    for x, y in rows:
        if x == 0:
            c = gcd(c, y)
        elif a == 0:
            a, b = x, y
        else:
            g, s, r = xgcd(a, x)
            a, b, c = g, s * b + r * y, gcd(c, (a // g) * y - (x // g) * b)
    if a == 0 or c == 0:
        return None
    if a < 0:
        a, b = -a, -b
    return ((a, b % c), (0, c))


def hnf2_contains(h: Hnf2, x: int, y: int) -> bool:
    """Whether (x, y) lies in the lattice with canonical HNF h."""
    (a, b), (_, c) = h
    if x % a:
        return False
    return (y - (x // a) * b) % c == 0


def _eliminate(rows: Matrix, pr: int, i: int, col: int) -> None:
    """Unimodular row op zeroing rows[i][col] against the pivot row pr."""
    a, b = rows[pr][col], rows[i][col]
    if b == 0:
        return
    # a != 0: the caller swaps a nonzero pivot in, and each step leaves a or a gcd >= 1
    if b % a == 0:
        # plain subtraction keeps the pivot row untouched
        q = b // a
        rows[i] = [v - q * w for v, w in zip(rows[i], rows[pr])]
        return
    g, x, y = xgcd(a, b)
    ag, bg = a // g, b // g
    rp, ri = rows[pr], rows[i]
    rows[pr] = [x * p + y * q for p, q in zip(rp, ri)]
    rows[i] = [-bg * p + ag * q for p, q in zip(rp, ri)]


def _hnf_inplace(rows: Matrix) -> int:
    """Reduce rows to canonical HNF in place; returns the rank."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            _eliminate(rows, rank, i, col)
        if rows[rank][col] < 0:
            rows[rank] = [-v for v in rows[rank]]
        # reduce the entries above the new pivot
        p = rows[rank][col]
        for i in range(rank):
            q = rows[i][col] // p
            if q:
                rows[i] = [v - q * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def row_hnf(rows) -> Matrix:
    """Canonical row HNF of the lattice spanned by ``rows``; zero rows dropped."""
    work = [list(r) for r in rows]
    rank = _hnf_inplace(work)
    return work[:rank]


def in_lattice(hnf_rows, target) -> bool:
    """Whether target lies in the lattice with echelon basis ``hnf_rows`` (as row_hnf gives)."""
    v = list(target)
    for row in hnf_rows:
        col = next(j for j, w in enumerate(row) if w)
        q, r = divmod(v[col], row[col])
        if r:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def stacked_hnf(rows1, rows2) -> Matrix:
    """Row HNF of the stacked basis (rows1 | rows1 ; rows2 | 0).

    Its vectors are (x + y, x) for x in the lattice L1 of rows1 and y in
    L2 of rows2.  The rows with a zero left half span L1 meet L2 on the
    right; if L1 + L2 is all of Z^n, the i-th row is (e_i | a) with
    a in L1 and e_i - a in L2.
    """
    n = len(rows1[0])
    stacked = [list(r) + list(r) for r in rows1]
    stacked += [list(r) + [0] * n for r in rows2]
    return row_hnf(stacked)


def lattice_intersect(rows1, rows2) -> Matrix:
    """HNF basis of the intersection of the two row lattices (same ambient dim).

    The rows of stacked_hnf with a zero left half are its last rows, so
    their right halves are already echelon with positive pivots and
    reduced above each pivot: they are the canonical HNF as they stand.
    """
    n = len(rows1[0])
    return [row[n:] for row in stacked_hnf(rows1, rows2) if not any(row[:n])]


def smith_normal_form(rows) -> tuple[Matrix, Matrix, Matrix]:
    """(D, U, V) with U * rows * V = D diagonal, d1 | d2 | ..., U, V unimodular."""
    m = len(rows)
    n = len(rows[0])
    B = [list(r) for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, col):
        # zero B[j][col] against B[i][col]
        a, b = B[i][col], B[j][col]
        if b == 0:
            return
        # a != 0, as in _eliminate: the pivot is nonzero and stays a or a gcd >= 1
        if b % a == 0:
            q = b // a
            B[j] = [v - q * w for v, w in zip(B[j], B[i])]
            U[j] = [v - q * w for v, w in zip(U[j], U[i])]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        Bi, Bj = B[i], B[j]
        B[i] = [x * p + y * q for p, q in zip(Bi, Bj)]
        B[j] = [-bg * p + ag * q for p, q in zip(Bi, Bj)]
        Ui, Uj = U[i], U[j]
        U[i] = [x * p + y * q for p, q in zip(Ui, Uj)]
        U[j] = [-bg * p + ag * q for p, q in zip(Ui, Uj)]

    def col_op(i, j, rowidx):
        # zero B[rowidx][j] against B[rowidx][i]
        a, b = B[rowidx][i], B[rowidx][j]
        if b == 0:
            return
        # a != 0, as in row_op
        if b % a == 0:
            q = b // a
            for r in B:
                r[j] -= q * r[i]
            for r in V:
                r[j] -= q * r[i]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for r in B:
            p, q = r[i], r[j]
            r[i], r[j] = x * p + y * q, -bg * p + ag * q
        for r in V:
            p, q = r[i], r[j]
            r[i], r[j] = x * p + y * q, -bg * p + ag * q

    k = 0
    while k < min(m, n):
        pivot = next(
            ((i, j) for i in range(k, m) for j in range(k, n) if B[i][j]), None
        )
        if pivot is None:
            break
        i0, j0 = pivot
        B[k], B[i0] = B[i0], B[k]
        U[k], U[i0] = U[i0], U[k]
        if j0 != k:
            for r in B:
                r[k], r[j0] = r[j0], r[k]
            for r in V:
                r[k], r[j0] = r[j0], r[k]
        while True:
            for i in range(k + 1, m):
                row_op(k, i, k)
            for j in range(k + 1, n):
                col_op(k, j, k)
            if all(B[i][k] == 0 for i in range(k + 1, m)) and all(
                B[k][j] == 0 for j in range(k + 1, n)
            ):
                break
        k += 1

    for k in range(min(m, n)):
        if B[k][k] < 0:
            B[k] = [-v for v in B[k]]
            U[k] = [-v for v in U[k]]

    # enforce the divisibility chain: replace adjacent (a, b) by (gcd, lcm)
    # with ops touching only rows/columns k, k+1, so diagonality survives
    changed = True
    while changed:
        changed = False
        for k in range(min(m, n) - 1):
            a, b = B[k][k], B[k + 1][k + 1]
            if a == 0 or b == 0 or b % a == 0:
                continue
            changed = True
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            B[k] = [p + q for p, q in zip(B[k], B[k + 1])]
            U[k] = [p + q for p, q in zip(U[k], U[k + 1])]
            for rows_ in (B, V):
                for r in rows_:
                    p, q = r[k], r[k + 1]
                    r[k], r[k + 1] = x * p + y * q, -bg * p + ag * q
            f = (y * b) // g
            B[k + 1] = [p - f * q for p, q in zip(B[k + 1], B[k])]
            U[k + 1] = [p - f * q for p, q in zip(U[k + 1], U[k])]
    return B, U, V


def smith_invariants(rows) -> list[int]:
    """Nonzero diagonal invariants d1 | d2 | ... of the row lattice."""
    D, _, _ = smith_normal_form(rows)
    return [D[k][k] for k in range(min(len(D), len(D[0]))) if D[k][k]]


def mat_mul(A, B) -> Matrix:
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    A = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]
