"""The projective line over an ideal of an imaginary quadratic ring.

Points are classes of pairs (a, b) that are unimodular modulo the ideal
I (meaning <a> + <b> + I = O) under the relation a*d - b*c in I,
equivalently under scaling by units of O/I.  A point stores the canonical residues
of its representative: the pair whose reduced coordinates are
lexicographically least over the unit orbit.  The unimodular elements of
the line O*(a, b) + I*O^2 in (O/I)^2 are exactly that orbit, so line_point
finds the representative by scanning the N(I) elements of the line in
lexicographic order.  Enumeration reads PF^1(O/I) as the product of the
PF^1(O/P^k) over P^k || I (CRT) and joins local points [1:b] and [a:1],
a in P, with the CRT idempotents of the P^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

from . import intmat
from .arith import factorize
from .errors import (
    BadProduct,
    InternalInconsistency,
    NonComaximal,
    NotUnimodular,
    OutOfRange,
)
from .quadring import (
    QuadIdeal,
    QuadInt,
    QuadRing,
    _check_element,
    _mul,
    _reduce,
    crt_idempotents,
    factor_ideal,
    ideal_mul,
    ideal_pow,
    ideal_sum,
    primes_above,
)
#: ok_representatives refuses to materialize more points than this.
ENUMERATION_BOUND = 10**6


@dataclass(frozen=True, order=True)
class OkProjPoint:
    """A point of the projective line over O/modulus, in canonical form."""

    modulus: QuadIdeal
    a: tuple[int, int]
    b: tuple[int, int]

    @property
    def ring(self) -> QuadRing:
        return self.modulus.ring

    def rep(self) -> tuple[QuadInt, QuadInt]:
        K = self.ring
        return QuadInt(K, *self.a), QuadInt(K, *self.b)

    def to_json(self) -> dict:
        return {
            "D": self.ring.d,
            "I": [list(self.modulus.hnf[0]), list(self.modulus.hnf[1])],
            "a": list(self.a),
            "b": list(self.b),
        }

    def __str__(self) -> str:
        ax, ay = self.a
        bx, by = self.b
        return f"[{ax}{ay:+}*w:{bx}{by:+}*w] mod {self.modulus}"


def is_unimodular_pair(a: QuadInt, b: QuadInt, I: QuadIdeal) -> bool:
    """Whether <a> + <b> + I = O: the HNF of I, a, w*a, b and w*b is the identity."""
    K = I.ring
    _check_element(K, a)
    _check_element(K, b)
    t, u = K.t, K.u
    rows = I.hnf + (
        (a.x, a.y), _mul(t, u, 0, 1, a.x, a.y), (b.x, b.y), _mul(t, u, 0, 1, b.x, b.y)
    )
    return intmat.hnf2(rows) == ((1, 0), (0, 1))


def prime_divisors(I: QuadIdeal) -> list[QuadIdeal]:
    """The maximal ideals containing I, without their exponents."""
    K = I.ring
    return [
        pa.ideal
        for p, _ in factorize(I.norm)
        for pa in primes_above(K, p)
        if pa.ideal.contains_ideal(I)
    ]


def _box_points(H, sides, start: int, stop: int, v: tuple[int, ...]):
    """v plus combinations of rows start..stop-1 of the 4x4 HNF H, in lex order.

    Yields the combinations whose coordinates start..stop-1 lie in
    [0, sides[i]).  Needs H[i][i] | sides[i], which holds when the span
    contains I*O^2, whose HNF has diagonal sides.  Row i only moves
    coordinates >= i, so coordinate i is settled at depth i.
    """
    if start == stop:
        yield v
        return
    row = H[start]
    h = row[start]
    # shift coordinate start into [0, h), then step through the box by h
    c = -(v[start] // h)
    v = tuple(x + c * r for x, r in zip(v, row))
    for _ in range(sides[start] // h):
        yield from _box_points(H, sides, start + 1, stop, v)
        v = tuple(x + r for x, r in zip(v, row))


def line_point(I: QuadIdeal, rows) -> OkProjPoint:
    """The canonical point of a line of (O/I)^2.

    ``rows`` are coordinates (a.x, a.y, b.x, b.y) of pairs that, together
    with I*O^2, span a lattice of index N(I) in O^2 whose image mod I*O^2
    is the line O*v for some unimodular v.  The point is the lexicographically
    least unimodular element of the line in reduced coordinates, found
    by scanning the line's N(I) elements in that order; a pair is
    unimodular iff no prime dividing I contains both coordinates.
    """
    K = I.ring
    if I.is_unit_ideal():
        return OkProjPoint(I, (0, 0), (0, 0))
    (r11, r12), (_, r22) = I.hnf
    sides = (r11, r22, r11, r22)
    ideal_rows = [[r11, r12, 0, 0], [0, r22, 0, 0], [0, 0, r11, r12], [0, 0, 0, r22]]
    H = intmat.row_hnf([list(r) for r in rows] + ideal_rows)
    if H[0][0] * H[1][1] * H[2][2] * H[3][3] != I.norm:
        raise InternalInconsistency(f"rows {rows} do not span a line mod {I}")
    primes = prime_divisors(I)
    # mu*v is unimodular iff mu is a unit, so at a prime P not containing
    # the first coordinate of v, a first coordinate in P rules out every
    # element sharing it; the first coordinates span rows 0 and 1 of H
    heads = (QuadInt(K, H[0][0], H[0][1]), QuadInt(K, 0, H[1][1]))
    a_primes = [P for P in primes if not all(P.contains(g) for g in heads)]
    for head in _box_points(H, sides, 0, 2, (0, 0, 0, 0)):
        a = QuadInt(K, head[0], head[1])
        if any(P.contains(a) for P in a_primes):
            continue
        for ax, ay, bx, by in _box_points(H, sides, 2, 4, head):
            b = QuadInt(K, bx, by)
            if not any(P.contains(a) and P.contains(b) for P in primes):
                return OkProjPoint(I, (ax, ay), (bx, by))
    raise InternalInconsistency(f"line spanned by {rows} mod {I} has no unimodular element")


def ok_class_of(a: QuadInt, b: QuadInt, I: QuadIdeal) -> OkProjPoint:
    """Canonical representative of [a:b] over O/I.

    The representative minimizes the reduced coordinate 4-tuple
    (a.x, a.y, b.x, b.y) over the orbit under units of O/I, read off the
    line O*(a, b) + I*O^2 by line_point.
    """
    if not is_unimodular_pair(a, b, I):
        raise NotUnimodular(f"({a}, {b}) is not unimodular mod {I}")
    t, u = I.ring.t, I.ring.u
    w_row = [*_mul(t, u, 0, 1, a.x, a.y), *_mul(t, u, 0, 1, b.x, b.y)]
    return line_point(I, [[a.x, a.y, b.x, b.y], w_row])


def ok_equivalent(a: QuadInt, b: QuadInt, c: QuadInt, d: QuadInt, I: QuadIdeal) -> bool:
    """Whether [a:b] = [c:d] over O/I: the cross determinant lies in I."""
    if not is_unimodular_pair(a, b, I) or not is_unimodular_pair(c, d, I):
        raise NotUnimodular(f"pair not unimodular mod {I}")
    return I.contains(a * d - b * c)


def ok_cardinality(I: QuadIdeal) -> int:
    """|PF^1 over O/I| = product over P^k || I of N(P)^k + N(P)^(k-1)."""
    total = 1
    for P, k in factor_ideal(I):
        n = P.norm
        total *= n**k + n ** (k - 1)
    return total


def ok_representatives(I: QuadIdeal) -> list[tuple[QuadInt, QuadInt]]:
    """One unimodular pair (a, b), reduced mod I, per point of PF^1 over O/I.

    For each P^k || I the local pairs (1, b), b in O/P^k, and (a, 1), a in
    P/P^k, are one per point of PF^1(O/P^k), N(P)^k + N(P)^(k-1) in all.
    Each local list is scaled once by the CRT idempotent of P^k, and a
    pair per point of PF^1(O/I) is the coordinatewise sum of one scaled
    pair from each list.
    """
    card = ok_cardinality(I)
    if card > ENUMERATION_BOUND:
        raise OutOfRange(f"{card} points exceeds the enumeration bound {ENUMERATION_BOUND}")
    K = I.ring
    t, u = K.t, K.u
    factors = factor_ideal(I)
    powers = [ideal_pow(P, k) for P, k in factors]
    local = [[(0, 0, 0, 0)]]  # the zero pair keeps one pair, (0, 0), when I = O
    for (P, _), Q, e in zip(factors, powers, crt_idempotents(powers)):
        (r11, _), (_, r22) = Q.hnf
        ex, ey = e.x, e.y
        box = [(x, y) for x in range(r11) for y in range(r22)]
        scaled = [_mul(t, u, ex, ey, x, y) for x, y in box]
        local.append(
            [(ex, ey, sx, sy) for sx, sy in scaled]
            + [(sx, sy, ex, ey) for (sx, sy), (x, y) in zip(scaled, box)
               if intmat.hnf2_contains(P.hnf, x, y)]
        )
    out = []
    for combo in product(*local):
        ax, ay, bx, by = map(sum, zip(*combo))
        out.append((QuadInt(K, *_reduce(I.hnf, ax, ay)), QuadInt(K, *_reduce(I.hnf, bx, by))))
    return out


def ok_enumerate(I: QuadIdeal) -> list[OkProjPoint]:
    """All points of the projective line over O/I, sorted by representative.

    The CRT joins of local points from ok_representatives, each brought
    to canonical form by ok_class_of.
    """
    return sorted(ok_class_of(a, b, I) for a, b in ok_representatives(I))


def check_comaximal(ideals, what: str = "") -> None:
    """NonComaximal naming the first two of the ideals that share a prime."""
    for i, I in enumerate(ideals):
        for J in ideals[i + 1:]:
            if not ideal_sum(I, J).is_unit_ideal():
                raise NonComaximal(f"{what}{I} and {J} are not comaximal")


def _check_factors(I: QuadIdeal, factors) -> None:
    if not factors:
        raise BadProduct("empty factor list")
    prod = reduce(ideal_mul, factors)
    if prod != I:
        raise BadProduct(f"factors multiply to {prod}, expected {I}")
    check_comaximal(factors)


def ok_crt_split(p: OkProjPoint, factors) -> list[OkProjPoint]:
    """Components of p under the CRT bijection for comaximal ideal factors."""
    factors = list(factors)
    _check_factors(p.modulus, factors)
    a, b = p.rep()
    return [ok_class_of(a, b, J) for J in factors]


def ok_crt_join(points) -> OkProjPoint:
    """The unique point splitting to the given components (comaximal moduli)."""
    points = list(points)
    if not points:
        raise BadProduct("empty point list")
    moduli = [p.modulus for p in points]
    check_comaximal(moduli, "moduli ")
    a = b = points[0].ring.element(0)
    for e, p in zip(crt_idempotents(moduli), points):
        pa, pb = p.rep()
        a, b = a + e * pa, b + e * pb
    return ok_class_of(a, b, reduce(ideal_mul, moduli))

