"""Maximal orders of imaginary quadratic fields and their nonzero ideals.

The ring for a squarefree D < 0 is Z[w] with w = sqrt(D) when D = 2, 3
(mod 4) and w = (1 + sqrt(D))/2 when D = 1 (mod 4); in both cases
w^2 = t*w + u for integers (t, u).  The norm form is positive definite,
so principality is a Lagrange-Gauss reduction of the Z-basis of an
ideal under it.

Ideals are stored by their canonical Z-basis in coordinates (1, w): a
row-HNF matrix ((r11, r12), (0, r22)) whose span is closed under
multiplication by w.  Ideal equality is matrix equality and the norm is
the determinant r11 * r22 = |O/I|.  Every constructor folds its Z-span
through the shared 2x2 kernel intmat.hnf2, and membership is
intmat.hnf2_contains.  Colon ideals and intersections are exact
divisions by J * conj(J) = N(J) * O.  express_one reads 1 = a + b off
the stacked HNF of (I | I ; J | 0) that lattice intersections use, and
every CRT join uses its crt_idempotents.

Ideal and module arithmetic works on integer coordinates: _mul and
_conj are the product and conjugation kernels of every library path,
and ideal_mul folds the four products of the bases r11 + r12*w and
r22*w through hnf2.  QuadInt objects are built only where a function
takes or returns elements (basis, reduce, is_principal, express_one).
QuadInt keeps its own product and conjugate, so the tests' QuadInt
routes stay independent oracles for the kernels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce

from . import intmat
from .arith import factorize, sqrt_mod
from .errors import (
    DegenerateInput,
    InternalInconsistency,
    NonComaximal,
    ZeroIdeal,
)

#: The number of (ring, p) results primes_above keeps; a miss costs one
#: modular square root and one 2x2 HNF.
PRIMES_ABOVE_CACHE_SIZE = 1024

#: The number of validated rings ring() keeps; a miss costs one
#: factorization of |D|.  An evicted ring stays compatible with live
#: elements, because rings compare by D (see _same_ring).
RING_CACHE_SIZE = 256


@dataclass(frozen=True, order=True)
class QuadRing:
    """The ring of integers of Q(sqrt(D)) for squarefree D < 0."""

    d: int

    @property
    def t(self) -> int:
        """Linear coefficient in w^2 = t*w + u."""
        return 1 if self.d % 4 == 1 else 0

    @property
    def u(self) -> int:
        """Constant coefficient in w^2 = t*w + u."""
        return (self.d - 1) // 4 if self.d % 4 == 1 else self.d

    @property
    def disc(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    def element(self, x: int, y: int = 0) -> "QuadInt":
        return QuadInt(self, x, y)

    @property
    def omega(self) -> "QuadInt":
        return QuadInt(self, 0, 1)

    @property
    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    def units(self) -> tuple["QuadInt", ...]:
        if self.d == -1:
            coords = ((1, 0), (-1, 0), (0, 1), (0, -1))
        elif self.d == -3:
            coords = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
        else:
            coords = ((1, 0), (-1, 0))
        return tuple(QuadInt(self, x, y) for x, y in coords)

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"


@lru_cache(maxsize=RING_CACHE_SIZE)
def ring(d: int) -> QuadRing:
    """Validated ring of integers for squarefree D < 0."""
    if d >= 0:
        raise DegenerateInput(f"D must be negative, got {d}")
    if any(e > 1 for _, e in factorize(-d)):
        raise DegenerateInput(f"D must be squarefree, got {d}")
    return QuadRing(d)


def _same_ring(a, b) -> QuadRing:
    """The common ring of two elements or ideals; DegenerateInput if they differ."""
    if a.ring is not b.ring and a.ring != b.ring:
        raise DegenerateInput(f"{a.ring} and {b.ring} are different rings")
    return a.ring


def _mul(t: int, u: int, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    """Coordinates of (x1 + y1*w)(x2 + y2*w), where w^2 = t*w + u."""
    yy = y1 * y2
    return x1 * x2 + u * yy, x1 * y2 + y1 * x2 + t * yy


def _conj(t: int, x: int, y: int) -> tuple[int, int]:
    """Coordinates of the conjugate of x + y*w, as the conjugate of w is t - w."""
    return x + t * y, -y


def _check_element(K: QuadRing, el: "QuadInt") -> None:
    """DegenerateInput unless el is an element of K."""
    if el.ring is not K and el.ring != K:
        raise DegenerateInput(f"{el.ring} and {K} are different rings")


_INT_RE = re.compile(r"^[+-]?\d+$")
_WITH_W_RE = re.compile(r"^(?:(?P<x>[+-]?\d+)(?=[+-]))?(?P<y>[+-]?\d*)\*?w$")


@dataclass(frozen=True, order=True)
class QuadInt:
    """The element x + y*w of its ring."""

    ring: QuadRing
    x: int
    y: int

    def __add__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(_same_ring(self, other), self.x + other.x, self.y + other.y)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(_same_ring(self, other), self.x - other.x, self.y - other.y)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.ring, self.x * other, self.y * other)
        K = _same_ring(self, other)
        t, u = K.t, K.u
        yy = self.y * other.y
        return QuadInt(
            K,
            self.x * other.x + u * yy,
            self.x * other.y + self.y * other.x + t * yy,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadInt":
        # the conjugate of w is t - w
        return QuadInt(self.ring, self.x + self.ring.t * self.y, -self.y)

    def norm(self) -> int:
        t, u = self.ring.t, self.ring.u
        return self.x * self.x + t * self.x * self.y - u * self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def coords(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        return f"{self.x}{self.y:+}*w"


def parse_element(K: QuadRing, text: str) -> QuadInt:
    """Parse "x+y*w" style input; accepts "3", "w", "-w", "2*w", "1-2*w"."""
    s = text.replace(" ", "")
    if _INT_RE.match(s):
        return QuadInt(K, int(s), 0)
    m = _WITH_W_RE.match(s)
    if not m:
        raise DegenerateInput(f"cannot parse element {text!r}")
    x = int(m.group("x")) if m.group("x") is not None else 0
    ys = m.group("y")
    y = 1 if ys in ("", "+") else -1 if ys == "-" else int(ys)
    return QuadInt(K, x, y)


@dataclass(frozen=True, order=True)
class QuadIdeal:
    """A nonzero ideal in canonical Z-basis HNF form.

    Instances produced by the factories below are always canonical;
    compare with ==.
    """

    ring: QuadRing
    hnf: intmat.Hnf2

    @property
    def norm(self) -> int:
        return self.hnf[0][0] * self.hnf[1][1]

    def basis(self) -> tuple[QuadInt, QuadInt]:
        return (
            QuadInt(self.ring, *self.hnf[0]),
            QuadInt(self.ring, *self.hnf[1]),
        )

    def contains(self, el: QuadInt) -> bool:
        return intmat.hnf2_contains(self.hnf, el.x, el.y)

    def contains_ideal(self, other: "QuadIdeal") -> bool:
        """Whether other is a subset of self."""
        (a, b), (_, c) = other.hnf
        return intmat.hnf2_contains(self.hnf, a, b) and intmat.hnf2_contains(self.hnf, 0, c)

    def is_unit_ideal(self) -> bool:
        return self.norm == 1

    def reduce(self, el: QuadInt) -> QuadInt:
        """Canonical residue of el modulo this ideal (coordinates in the HNF box)."""
        return QuadInt(self.ring, *_reduce(self.hnf, el.x, el.y))

    def to_json(self) -> dict:
        return {"D": self.ring.d, "hnf": [list(self.hnf[0]), list(self.hnf[1])]}

    def __str__(self) -> str:
        (a, b), (_, c) = self.hnf
        return f"ideal<({a},{b}),(0,{c})> of {self.ring}"


def _reduce(hnf: intmat.Hnf2, x: int, y: int) -> tuple[int, int]:
    """Coordinates of the canonical residue of x + y*w modulo the ideal with this HNF."""
    (r11, r12), (_, r22) = hnf
    q = x // r11
    return x - q * r11, (y - q * r12) % r22


def _is_omega_closed(K: QuadRing, hnf: intmat.Hnf2) -> bool:
    t, u = K.t, K.u
    return all(intmat.hnf2_contains(hnf, *_mul(t, u, 0, 1, x, y)) for x, y in hnf)


def ideal_from_hnf(K: QuadRing, rows) -> QuadIdeal:
    """Validated ideal from an explicit basis matrix (e.g. deserialization)."""
    hnf = intmat.hnf2(rows)
    if hnf is None:
        raise ZeroIdeal(f"rows {rows} do not span a rank-2 lattice")
    if not _is_omega_closed(K, hnf):
        raise DegenerateInput(f"lattice {rows} is not an ideal of {K}")
    return QuadIdeal(K, hnf)


def ideal_from_generators(K: QuadRing, gens) -> QuadIdeal:
    """The ideal generated by the given elements: HNF of the span of {g, w*g}."""
    t, u = K.t, K.u
    rows = []
    for g in gens:
        _check_element(K, g)
        rows.append((g.x, g.y))
        rows.append(_mul(t, u, 0, 1, g.x, g.y))
    hnf = intmat.hnf2(rows)
    if hnf is None:
        raise ZeroIdeal("all generators are zero")
    return QuadIdeal(K, hnf)


def unit_ideal(K: QuadRing) -> QuadIdeal:
    return QuadIdeal(K, ((1, 0), (0, 1)))


def ideal_mul(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """Product ideal: span of the pairwise products of the Z-bases."""
    K = _same_ring(I, J)
    t, u = K.t, K.u
    (a1, b1), (_, c1) = I.hnf
    (a2, b2), (_, c2) = J.hnf
    return QuadIdeal(K, intmat.hnf2((
        _mul(t, u, a1, b1, a2, b2), _mul(t, u, a1, b1, 0, c2),
        _mul(t, u, 0, c1, a2, b2), _mul(t, u, 0, c1, 0, c2),
    )))


def ideal_pow(I: QuadIdeal, k: int) -> QuadIdeal:
    out = unit_ideal(I.ring)
    for _ in range(k):
        out = ideal_mul(out, I)
    return out


def ideal_sum(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    return QuadIdeal(_same_ring(I, J), intmat.hnf2(I.hnf + J.hnf))


def ideal_intersect(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """I ∩ J = I*J / (I + J), since (I ∩ J)(I + J) = I*J in a Dedekind domain."""
    return _divide(ideal_mul(I, J), ideal_sum(I, J))


def ideal_conj(I: QuadIdeal) -> QuadIdeal:
    t = I.ring.t
    (a, b), (_, c) = I.hnf
    return QuadIdeal(I.ring, intmat.hnf2((_conj(t, a, b), _conj(t, 0, c))))


def _divide(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """I * J^-1 for I within J, as I * conj(J) / N(J).

    J * conj(J) = N(J) * O in any maximal quadratic order, so I within J
    puts I * conj(J) inside N(J) * O, and the division is exact.
    """
    n = J.norm
    (a, b), (_, c) = ideal_mul(I, ideal_conj(J)).hnf
    if a % n or b % n or c % n:
        raise InternalInconsistency(f"{I} * conj({J}) is not divisible by {n}")
    return QuadIdeal(I.ring, ((a // n, b // n), (0, c // n)))


def ideal_quotient(I: QuadIdeal, J: QuadIdeal) -> QuadIdeal:
    """The colon ideal (I : J) = {x in O : x*J within I}.

    x*J lies in I iff x*(I + J) does, so (I : J) = I * (I + J)^-1, an
    exact division since I lies in I + J.
    """
    return _divide(I, ideal_sum(I, J))


@dataclass(frozen=True)
class PrimeAbove:
    """A maximal ideal over a rational prime with its splitting data.

    e is the ramification index and f the residue degree, so the norm of
    the ideal is p^f and e*f*(number of primes) = 2.
    """

    ideal: QuadIdeal
    e: int
    f: int


def kronecker(K: QuadRing, p: int) -> int:
    """The Kronecker symbol (disc K / p) at a prime p: 1, -1 or 0.

    p splits in K when it is 1, stays inert when it is -1 and ramifies
    when it is 0.  Euler's criterion for odd p; for p = 2 the symbol
    reads disc mod 8.  The caller guarantees that p is prime.
    """
    D = K.disc
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 == 1 else -1
    return 1 if pow(D, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=PRIMES_ABOVE_CACHE_SIZE)
def primes_above(K: QuadRing, p: int) -> tuple[PrimeAbove, ...]:
    """The maximal ideals over the rational prime p: split, inert or ramified.

    The Kronecker symbol decides the splitting type.  A split or ramified
    prime is (p, w - r) for a root r of x^2 - t*x - u (the minimal
    polynomial of w) modulo p; for odd p the roots are (t ± s) / 2 with
    s^2 = t^2 + 4u = disc (mod p), s by Tonelli-Shanks.
    """
    if factorize(p) != ((p, 1),):
        raise DegenerateInput(f"{p} is not prime")
    pe = K.element(p)
    chi = kronecker(K, p)
    if chi == -1:
        return (PrimeAbove(ideal_from_generators(K, [pe]), 1, 2),)
    t, u = K.t, K.u
    if p == 2:
        roots = [r for r in range(2) if (r * r - t * r - u) % 2 == 0]
    else:
        s = sqrt_mod(K.disc, p)
        half = (p + 1) // 2  # the inverse of 2 mod p
        roots = {(t + s) * half % p, (t - s) * half % p}
    ideals = sorted(ideal_from_generators(K, [pe, K.omega - K.element(r)]) for r in roots)
    if chi == 1:
        return tuple(PrimeAbove(idl, 1, 1) for idl in ideals)
    return (PrimeAbove(ideals[0], 2, 1),)


def valuation(I: QuadIdeal, P: QuadIdeal) -> int:
    """Largest k with I contained in P^k."""
    k = 0
    power = P
    while power.contains_ideal(I):
        k += 1
        power = ideal_mul(power, P)
    return k


def factor_ideal(I: QuadIdeal) -> list[tuple[QuadIdeal, int]]:
    """The prime factorization of I into maximal ideals, verified by reassembly."""
    K = I.ring
    out = []
    for p, _ in factorize(I.norm):
        for pa in primes_above(K, p):
            e = valuation(I, pa.ideal)
            if e:
                out.append((pa.ideal, e))
    out.sort(key=lambda pe: (pe[0].norm, pe[0].hnf))
    check = unit_ideal(K)
    for P, e in out:
        check = ideal_mul(check, ideal_pow(P, e))
    if check != I:
        raise InternalInconsistency(f"reassembly failed for {I}")
    return out


def enumerate_ideals(K: QuadRing, norm: int) -> list[QuadIdeal]:
    """All ideals of the given norm, assembled multiplicatively over primes."""
    if norm < 1:
        raise DegenerateInput(f"norm must be positive, got {norm}")
    choices = [[unit_ideal(K)]]
    for p, a in factorize(norm):
        above = primes_above(K, p)
        local: list[QuadIdeal] = []
        if len(above) == 2:
            P, Q = above[0].ideal, above[1].ideal
            for i in range(a + 1):
                local.append(ideal_mul(ideal_pow(P, i), ideal_pow(Q, a - i)))
        elif above[0].f == 2:
            if a % 2 == 0:
                local.append(ideal_pow(above[0].ideal, a // 2))
        else:
            local.append(ideal_pow(above[0].ideal, a))
        if not local:
            return []
        choices.append(local)
    ideals = [unit_ideal(K)]
    for local in choices:
        ideals = [ideal_mul(I, J) for I in ideals for J in local]
    return sorted(set(ideals))


def is_principal(I: QuadIdeal) -> QuadInt | None:
    """A generator of I when one exists, else None.

    Every nonzero g in I has N(g) >= N(I), with equality iff (g) = I, so
    I is principal iff the shortest vector of its Z-basis under the
    positive definite norm form has norm N(I).  Lagrange-Gauss reduction
    finds that vector; the generator returned is its unit multiple that
    is least by (y, -x).
    """
    K = I.ring
    a, b = sorted(I.basis(), key=QuadInt.norm)
    while True:
        # b - q*a for q = round(<a, b> / N(a)), 2<a, b> = N(a + b) - N(a) - N(b)
        na = a.norm()
        b = b - a * (((a + b).norm() - b.norm()) // (2 * na))
        if b.norm() >= na:
            break
        a, b = b, a
    if a.norm() != I.norm:
        return None
    return min((u * a for u in K.units()), key=lambda g: (g.y, -g.x))


def express_one(I: QuadIdeal, J: QuadIdeal) -> tuple[QuadInt, QuadInt]:
    """(a, b) with a in I, b in J and a + b = 1; NonComaximal if I + J != O."""
    _same_ring(I, J)
    # the left halves of (I | I ; J | 0) span I + J, which contains 1 iff
    # they start with the identity; the first row is then (1, 0, a)
    hnf = intmat.stacked_hnf(I.hnf, J.hnf)
    if hnf[0][:2] != [1, 0] or hnf[1][:2] != [0, 1]:
        raise NonComaximal(f"{I} + {J} is not the unit ideal")
    x, y = hnf[0][2:]
    if not (intmat.hnf2_contains(I.hnf, x, y) and intmat.hnf2_contains(J.hnf, 1 - x, -y)):
        raise InternalInconsistency(f"a = ({x}, {y}) is not in {I} or 1 - a is not in {J}")
    return QuadInt(I.ring, x, y), QuadInt(I.ring, 1 - x, -y)


def crt_idempotents(ideals) -> list[QuadInt]:
    """e_i = 1 mod I_i and 0 mod every other I_j, for pairwise comaximal I_i.

    With P the product of the I_j, 1 = a + e_i for a in I_i and e_i in
    P / I_i; NonComaximal if two of the I_j share a prime.
    """
    ideals = list(ideals)
    if not ideals:
        return []
    prod = reduce(ideal_mul, ideals)
    return [express_one(I, _divide(prod, I))[1] for I in ideals]

