"""The projective line over Z/m.

Points are classes of unimodular pairs (a, b), gcd(a, b, m) = 1, under
the relation (a, b) ~ (c, d) iff a*d - b*c = 0 mod m, equivalently under
scaling by units of Z/m.  The canonical representative of a class is the
lexicographically least pair in its unit orbit; m = 1 has the single
class (0, 0).  The zero modulus is rejected everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import crt_pair, divisors, factorize
from .errors import BadModuli, DegenerateInput, NotUnimodular, OutOfRange

#: enumerate_points refuses to materialize more classes than this.
ENUMERATION_BOUND = 10**6


@dataclass(frozen=True, order=True)
class ProjPoint:
    """A point of the projective line over Z/modulus, in canonical form.

    Instances are produced by class_of / enumerate_points / crt_join and
    are always canonical; compare them with ==.
    """

    modulus: int
    a: int
    b: int

    def __str__(self) -> str:
        return f"[{self.a}:{self.b}] mod {self.modulus}"

    def to_json(self) -> dict:
        return {"m": self.modulus, "a": self.a, "b": self.b}


def _check_modulus(m: int) -> None:
    if m < 1:
        raise DegenerateInput(f"modulus must be positive, got {m}")


def class_of(a: int, b: int, m: int) -> ProjPoint:
    """Canonical representative of [a:b] over Z/m.

    The representative is the lexicographic minimum of the orbit
    {(u*a, u*b) mod m : u a unit of Z/m}, computed in closed form: the
    first coordinate of the minimum is g = gcd(a, m), and the second is
    the least x = (a/g)^(-1) * b  (mod m/g)  with gcd(x, g) = 1.
    """
    _check_modulus(m)
    a %= m
    b %= m
    if m == 1:
        return ProjPoint(1, 0, 0)
    if math.gcd(a, b, m) != 1:
        raise NotUnimodular(f"({a}, {b}) is not unimodular mod {m}")
    if a == 0:
        return ProjPoint(m, 0, 1)
    g = math.gcd(a, m)
    mg = m // g
    x = (pow(a // g, -1, mg) * b) % mg
    while math.gcd(x, g) != 1:
        x += mg
    return ProjPoint(m, g, x)


def equivalent(a: int, b: int, c: int, d: int, m: int) -> bool:
    """Whether [a:b] = [c:d] over Z/m; both pairs must be unimodular."""
    _check_modulus(m)
    if math.gcd(a, b, m) != 1 or math.gcd(c, d, m) != 1:
        raise NotUnimodular(f"pair not unimodular mod {m}")
    return (a * d - b * c) % m == 0


def cardinality(m: int) -> int:
    """|PF^1 over Z/m| = product over p^k || m of p^(k-1) * (p + 1)."""
    _check_modulus(m)
    total = 1
    for p, k in factorize(m):
        total *= p ** (k - 1) * (p + 1)
    return total


def enumerate_points(m: int) -> list[ProjPoint]:
    """All points of the projective line over Z/m, sorted by representative.

    Classes are generated stratified by g = gcd(a, m): for each divisor
    g < m the classes with first coordinate g correspond to residues
    b0 mod m/g admitting a unimodular lift, and g = m gives the single
    class [0:1].
    """
    _check_modulus(m)
    card = cardinality(m)
    if card > ENUMERATION_BOUND:
        raise OutOfRange(f"{card} points exceeds the enumeration bound {ENUMERATION_BOUND}")
    if m == 1:
        return [ProjPoint(1, 0, 0)]
    points = []
    for g in divisors(m):
        if g == m:
            points.append(ProjPoint(m, 0, 1))
            continue
        mg = m // g
        shared = math.gcd(g, mg)
        for b0 in range(mg):
            if math.gcd(b0, shared) != 1:
                continue
            x = b0
            while math.gcd(x, g) != 1:
                x += mg
            points.append(ProjPoint(m, g, x))
    points.sort()
    return points


def _check_split_moduli(moduli, product: int) -> None:
    if not moduli:
        raise BadModuli("empty list of moduli")
    prod = 1
    for mi in moduli:
        if mi < 1:
            raise BadModuli(f"modulus {mi} is not positive")
        prod *= mi
    if prod != product:
        raise BadModuli(f"moduli multiply to {prod}, expected {product}")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[j]) != 1:
                raise BadModuli(f"moduli {moduli[i]}, {moduli[j]} are not coprime")


def crt_split(p: ProjPoint, moduli) -> list[ProjPoint]:
    """Components of p under the CRT bijection for pairwise coprime moduli."""
    moduli = list(moduli)
    _check_split_moduli(moduli, p.modulus)
    return [class_of(p.a, p.b, mi) for mi in moduli]


def crt_join(points) -> ProjPoint:
    """The unique point splitting to the given components (coprime moduli)."""
    points = list(points)
    if not points:
        raise BadModuli("empty list of points")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if math.gcd(points[i].modulus, points[j].modulus) != 1:
                raise BadModuli(
                    f"moduli {points[i].modulus}, {points[j].modulus} are not coprime"
                )
    a, b, m = points[0].a, points[0].b, points[0].modulus
    for q in points[1:]:
        a = crt_pair(a, m, q.a, q.modulus)
        b = crt_pair(b, m, q.b, q.modulus)
        m *= q.modulus
    return class_of(a, b, m)
