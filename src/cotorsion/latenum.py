"""Enumeration of index-n sublattices of Z^2.

Two independent routes: the classifying bijection (one projective point
per stratum of divisors d | n with n/d square) and a direct scan of all
Hermite bases with determinant n.  Both produce the same sorted list of
sigma(n) lattices.  classify reads the stratum and the point off the
HNF in closed form (lattice2.invariants).
"""

from __future__ import annotations

from .arith import divisors, is_square, sigma
from .errors import InternalInconsistency, OutOfRange
from .lattice2 import Lattice2, contains, invariants, reconstruct
from .projline import ProjPoint, enumerate_points

#: enumerate_index refuses to materialize more lattices than this.
ENUMERATION_BOUND = 10**6


def strata(n: int) -> list[tuple[int, int, int]]:
    """Triples (d1, d2, d) over divisors d of n with n/d a perfect square.

    d1 = sqrt(n/d) and d2 = sqrt(n*d) = d1*d, so d1*d2 = n and d = d2/d1.
    """
    out = []
    for d in divisors(n):
        sq, root = is_square(n // d)
        if sq:
            out.append((root, root * d, d))
    out.sort(key=lambda t: t[2])
    return out


def enumerate_index(n: int) -> list[Lattice2]:
    """All sigma(n) sublattices of index n, via the classifying bijection.

    Reconstructs one lattice per projective point per stratum and sorts
    by the canonical basis, so the output is diffable against hnf_oracle.
    """
    count = sigma(n)
    if count > ENUMERATION_BOUND:
        raise OutOfRange(f"sigma({n}) = {count} exceeds the enumeration bound {ENUMERATION_BOUND}")
    lattices = []
    for d1, d2, d in strata(n):
        for p in enumerate_points(d):
            lattices.append(reconstruct(d1, d2, p))
    lattices.sort()
    return lattices


def hnf_oracle(n: int) -> list[Lattice2]:
    """Independent oracle: every Hermite basis ((r11, r12), (0, r22)) of det n."""
    lattices = []
    for r22 in divisors(n):
        r11 = n // r22
        for r12 in range(r22):
            lattices.append(Lattice2(((r11, r12), (0, r22))))
    lattices.sort()
    return lattices


def classify(lat: Lattice2) -> tuple[tuple[int, int, int], ProjPoint]:
    """The stratum (d1, d2, d) and projective point of a lattice.

    For the cyclic-quotient stratum (d1 = 1) the classifying point's
    coprime representative is checked to actually lie in the lattice.
    """
    d1, d2, point = invariants(lat)
    d = d2 // d1
    if d1 == 1 and d > 1 and not contains(lat, (point.a, point.b)):
        raise InternalInconsistency(f"primitive vector {point} missing from {lat}")
    return (d1, d2, d), point
