"""Finite-index sublattices of Z^2 and their classifying invariants.

A sublattice is stored by its canonical row Hermite basis
((r11, r12), (0, r22)) with r11, r22 >= 1 and 0 <= r12 < r22, as built
and tested by the shared 2x2 kernel intmat.hnf2 / hnf2_contains, so two
lattices are equal as sets iff their matrices are equal.  The invariants
d1 | d2 of Z^2/M = Z/d1 + Z/d2 together with a projective-line point
mod d2/d1 classify the lattice completely; reconstruct inverts the
classification.  Both directions are closed forms in the HNF entries:
d1 = gcd(r11, r12, r22), and M/d1 has basis (a, b), (0, c) with
gcd(a, b, c) = 1, so the point is the line M/d1 spans mod d = a*c.
The Smith normal form with transforms (smith) is kept as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import intmat
from .errors import BadInvariants, InternalInconsistency, NotFullRank
from .projline import ProjPoint, class_of

#: proj_invariant_bruteforce scans the combinations i*r1 + j*r2 of the basis
#: rows with |i|, |j| <= this.
BRUTEFORCE_HEIGHT = 40


@dataclass(frozen=True, order=True)
class Lattice2:
    """A finite-index sublattice of Z^2 in canonical HNF basis form."""

    rows: intmat.Hnf2

    @property
    def index(self) -> int:
        """The index [Z^2 : M] = r11 * r22."""
        return self.rows[0][0] * self.rows[1][1]

    def to_json(self) -> dict:
        return {"rows": [list(self.rows[0]), list(self.rows[1])]}

    def __str__(self) -> str:
        (a, b), (_, c) = self.rows
        return f"rows ({a},{b}),(0,{c})"


@dataclass(frozen=True)
class SmithData:
    """Smith normal form data: left * basis * right = diag(d1, d2), d1 | d2."""

    d1: int
    d2: int
    left: tuple[tuple[int, int], tuple[int, int]]
    right: tuple[tuple[int, int], tuple[int, int]]


def from_rows(v1, v2) -> Lattice2:
    """Canonical HNF lattice spanned by the two rows; NotFullRank if dependent."""
    rows = intmat.hnf2((v1, v2))
    if rows is None:
        raise NotFullRank(f"rows {tuple(v1)}, {tuple(v2)} are linearly dependent")
    return Lattice2(rows)


def contains(lat: Lattice2, v) -> bool:
    """Membership of an integer vector, by back-substitution against the HNF."""
    x, y = v
    return intmat.hnf2_contains(lat.rows, x, y)


def intersect(m1: Lattice2, m2: Lattice2) -> Lattice2:
    """The intersection lattice, again in canonical form."""
    rows = intmat.lattice_intersect([list(r) for r in m1.rows], [list(r) for r in m2.rows])
    return from_rows(rows[0], rows[1])


def smith(lat: Lattice2) -> SmithData:
    """Test oracle: Smith normal form of the canonical basis, with both transforms."""
    D, U, V = intmat.smith_normal_form([list(r) for r in lat.rows])
    return SmithData(
        d1=D[0][0],
        d2=D[1][1],
        left=tuple(tuple(r) for r in U),
        right=tuple(tuple(r) for r in V),
    )


def invariants(lat: Lattice2) -> tuple[int, int, ProjPoint]:
    """The invariants (d1, d2) of Z^2/M and the point of M mod d = d2/d1.

    With d1 = gcd(r11, r12, r22) and (a, b, c) = (r11, r12, r22)/d1, the
    quotient Z^2/(M/d1) is cyclic of order d = a*c, so d*Z^2 lies in M/d1
    and M/d1 maps onto a line of (Z/d)^2.  That line contains every row
    (a, b + k*c), which is unimodular as soon as gcd(a, b + k*c) = 1.
    Such a k exists below a: for each prime p | a, gcd(a, b, c) = 1 rules
    out at most one residue of k mod p, and CRT avoids them all.
    """
    (r11, r12), (_, r22) = lat.rows
    d1 = math.gcd(r11, r12, r22)
    a, b, c = r11 // d1, r12 // d1, r22 // d1
    d = a * c
    for k in range(a):
        if math.gcd(a, b + k * c) == 1:
            return d1, d1 * d, class_of(a, b + k * c, d)
    raise InternalInconsistency(f"no unimodular row (a, b + k*c) for k < a in {lat}")


def proj_invariant(lat: Lattice2) -> ProjPoint:
    """The classifying projective point of the lattice, mod d = d2/d1.

    It is the line that M/d1 spans in (Z/d)^2, read off the HNF as the
    class of its first unimodular row (a, b + k*c); see invariants.  The
    class is the one the Smith route gives, [x:y] for a Smith basis
    {d1*(x, y), d2*(z, w)} of M with (x y; z w) unimodular.
    """
    return invariants(lat)[2]


def proj_invariant_bruteforce(lat: Lattice2) -> ProjPoint:
    """Test oracle: scan lattice elements d1*(x, y) with gcd(x, y) = 1.

    Collects every witness inside the coefficient box and checks they all
    land in one class before returning it.
    """
    sd = smith(lat)
    d = sd.d2 // sd.d1
    if d == 1:
        return ProjPoint(1, 0, 0)
    r1, r2 = lat.rows
    seen = set()
    for i in range(-BRUTEFORCE_HEIGHT, BRUTEFORCE_HEIGHT + 1):
        for j in range(-BRUTEFORCE_HEIGHT, BRUTEFORCE_HEIGHT + 1):
            vx = i * r1[0] + j * r2[0]
            vy = i * r1[1] + j * r2[1]
            if vx == 0 and vy == 0:
                continue
            if vx % sd.d1 or vy % sd.d1:
                continue
            x, y = vx // sd.d1, vy // sd.d1
            if math.gcd(x, y) != 1:
                continue
            seen.add(class_of(x, y, d))
    if len(seen) != 1:
        raise InternalInconsistency(f"witness classes not unique: {seen}")
    return seen.pop()


def reconstruct(d1: int, d2: int, p: ProjPoint) -> Lattice2:
    """The unique lattice with invariants (d1, d2) and point p mod d = d2/d1.

    The canonical representative (g, x) of p has g | d and gcd(g, x) = 1,
    so d1 times the span of (g, x) and (0, d/g) has index d1*d2 and point
    p; reducing x mod d/g puts that basis in canonical form.  The class
    [0:1] (and the single class mod 1) gives ((d2, 0), (0, d1)).
    """
    if d1 < 1 or d2 < 1 or d2 % d1 != 0:
        raise BadInvariants(f"need d1 | d2 with d1, d2 >= 1, got ({d1}, {d2})")
    d = d2 // d1
    if p.modulus != d:
        raise BadInvariants(f"point modulus {p.modulus} != d2/d1 = {d}")
    pt = class_of(p.a, p.b, d)
    g = pt.a
    if g == 0:
        return Lattice2(((d2, 0), (0, d1)))
    c = d // g
    return Lattice2(((d1 * g, d1 * (pt.b % c)), (0, d1 * c)))
