"""Co-torsion O-submodules of O^2 for imaginary quadratic O.

A module M with finite quotient O^2/M is stored as a rank-4 Z-lattice in
coordinates (e1, w*e1, e2, w*e2), canonicalized by its 4x4 row HNF and
closed under the action of w.  Its classifying data is a pair of
invariant factor ideals L >= K with O^2/M isomorphic to O/L + O/K,
together with a projective-line point mod I where K = L*I; reconstruct
inverts the classification and enumerate_cotorsion lists the |PF^1_I|
modules sharing (L, K).

Both directions are finite linear algebra.  For any pair v that is
unimodular mod I, M = L*v + K*O^2, and conversely the colon module
(M : L) = {x : L*x within M} equals O*v + I*O^2, so the point is the line
(M : L) / I*O^2 in (O/I)^2.  The witness search of the paper's proof
(witnesses) is kept as an independent oracle.

The rows of every module basis are built on integer coordinates with
quadring's product kernel; QuadInt pairs appear only where a function
takes or returns elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

from . import intmat
from .arith import divisors
from .errors import (
    BadInvariants,
    BadProduct,
    DegenerateInput,
    InternalInconsistency,
    NotFullRank,
    NotUnimodular,
    OutOfRange,
)
from .okproj import (
    OkProjPoint,
    check_comaximal,
    is_unimodular_pair,
    line_point,
    ok_cardinality,
    ok_crt_join,
    ok_representatives,
    prime_divisors,
)
from .quadring import (
    QuadIdeal,
    QuadInt,
    QuadRing,
    _check_element,
    _conj,
    _mul,
    crt_idempotents,
    ideal_from_generators,
    ideal_mul,
    ideal_quotient,
    is_principal,
    unit_ideal,
)
from .search import shells

Hnf4 = tuple[tuple[int, int, int, int], ...]
Pair = tuple[QuadInt, QuadInt]

#: enumerate_cotorsion refuses to materialize more modules than this.
ENUMERATION_BOUND = 10**5

#: coefficient box of the witness-search oracle
WITNESS_BOX = 25


def _scaled_row(t: int, u: int, cx: int, cy: int, x1: int, y1: int, x2: int, y2: int) -> list[int]:
    """Coordinates of (cx + cy*w) * (x1 + y1*w, x2 + y2*w), where w^2 = t*w + u."""
    return [*_mul(t, u, cx, cy, x1, y1), *_mul(t, u, cx, cy, x2, y2)]


@dataclass(frozen=True, order=True)
class CotorsionModule:
    """A finite-quotient O-submodule of O^2 as a canonical omega-stable Z-lattice."""

    ring: QuadRing
    hnf4: Hnf4

    @property
    def quotient_size(self) -> int:
        """|O^2/M| = determinant of the HNF basis."""
        n = 1
        for i in range(4):
            n *= self.hnf4[i][i]
        return n

    def contains(self, pair: Pair) -> bool:
        a, b = pair
        target = [a.x, a.y, b.x, b.y]
        return intmat.in_lattice(self.hnf4, target)

    def basis_pairs(self) -> list[Pair]:
        K = self.ring
        return [(QuadInt(K, x1, y1), QuadInt(K, x2, y2)) for x1, y1, x2, y2 in self.hnf4]

    def to_json(self) -> dict:
        return {"D": self.ring.d, "hnf4": [list(r) for r in self.hnf4]}

    def __str__(self) -> str:
        return f"module{self.hnf4} of {self.ring}"


def is_omega_stable(K: QuadRing, hnf_rows) -> bool:
    t, u = K.t, K.u
    return all(intmat.in_lattice(hnf_rows, _scaled_row(t, u, 0, 1, *row)) for row in hnf_rows)


def module_from_hnf(K: QuadRing, rows) -> CotorsionModule:
    """Validated module from an explicit 4x4 basis (e.g. deserialization)."""
    hnf = intmat.row_hnf([list(r) for r in rows])
    if len(hnf) != 4:
        raise NotFullRank("basis does not span a finite-index sublattice of O^2")
    if not is_omega_stable(K, hnf):
        raise BadInvariants("lattice is not stable under multiplication by w")
    return CotorsionModule(K, tuple(tuple(r) for r in hnf))


def module_from_generators(K: QuadRing, gens) -> CotorsionModule:
    """The O-span of the given O^2 elements, as a canonical module.

    Each generator contributes itself and its w-multiple, so the Z-span
    is omega-stable by construction.
    """
    t, u = K.t, K.u
    rows = []
    for a, b in gens:
        _check_element(K, a)
        _check_element(K, b)
        rows.append([a.x, a.y, b.x, b.y])
        rows.append(_scaled_row(t, u, 0, 1, a.x, a.y, b.x, b.y))
    hnf = intmat.row_hnf(rows)
    if len(hnf) != 4:
        raise NotFullRank("generators do not span a finite-index submodule of O^2")
    return CotorsionModule(K, tuple(tuple(r) for r in hnf))


def full_module(K: QuadRing) -> CotorsionModule:
    one = K.one
    zero = K.element(0)
    return module_from_generators(K, [(one, zero), (zero, one)])


def annihilator(M: CotorsionModule) -> QuadIdeal:
    """Test oracle: the ideal {x in O : x * O^2 within M}, which is K.

    {x : x*e_1 in M} is M meet O+0 projected onto its first two
    coordinates, {x : x*e_2 in M} is M meet 0+O projected onto its last
    two, and the annihilator is the intersection of the two; x*e_i in M
    for both i suffices since M is an O-module.  The library reads K off
    the content and minor ideals (invariant_ideals).
    """
    first = intmat.lattice_intersect(M.hnf4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    second = intmat.lattice_intersect(M.hnf4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    meet = intmat.lattice_intersect([r[:2] for r in first], [r[2:] for r in second])
    K = M.ring
    return ideal_from_generators(K, [QuadInt(K, *r) for r in meet])


def invariant_ideals(M: CotorsionModule) -> tuple[QuadIdeal, QuadIdeal]:
    """(L, K) with L >= K and O^2/M isomorphic to O/L + O/K.

    M = L*v + K*O^2 with v unimodular mod I = K/L, so the content ideal
    of M, the Z-span of the coordinates of its basis pairs (an ideal,
    since M is w-stable), is L*<v1, v2> + L*I = L.  The canonical HNF of
    M is [[A, T], [0, B]], where A is the first-coordinate ideal and B
    the ideal M ∩ (0 ⊕ O); A*B = L*K, and K is the colon ideal (L*K : L).
    """
    h = M.hnf4
    L = QuadIdeal(M.ring, intmat.hnf2([r[:2] for r in h] + [r[2:] for r in h]))
    A = QuadIdeal(M.ring, ((h[0][0], h[0][1]), (0, h[1][1])))
    B = QuadIdeal(M.ring, ((h[2][2], h[2][3]), (0, h[3][3])))
    Kann = ideal_quotient(ideal_mul(A, B), L)
    if not L.contains_ideal(Kann):
        raise InternalInconsistency(f"invariant ideals of {M} not nested: {L}, {Kann}")
    if L.norm * Kann.norm != M.quotient_size:
        raise InternalInconsistency(
            f"N(L)*N(K) = {L.norm * Kann.norm} differs from |O^2/M| = {M.quotient_size} for {M}"
        )
    return L, Kann


@dataclass(frozen=True)
class OkInvariantData:
    """Classifying data of a module: L >= K = L*I and a point mod I."""

    L: QuadIdeal
    K: QuadIdeal
    I: QuadIdeal
    point: OkProjPoint


def witnesses(M: CotorsionModule):
    """Yield witness data (t, a, b, I) with (t*a, t*b) in M.

    A witness is an element (u, v) of M whose content ideal <u> + <v> is
    principal with generator t lying in L but in no L*P for a prime P of
    K; then (a, b) = (u/t, v/t) is globally coprime and [a:b] is the
    classifying point mod I.  Scans M by increasing coefficient box
    against its HNF basis.  This is the paper's route to the point and
    serves as an oracle for proj_invariant_element; it can scan long
    when L is not principal.
    """
    L, Kann = invariant_ideals(M)
    I = ideal_quotient(Kann, L)
    traps = [ideal_mul(L, P) for P in prime_divisors(Kann)]
    rows = M.basis_pairs()
    for c in shells(4, WITNESS_BOX):
        u = rows[0][0] * c[0] + rows[1][0] * c[1] + rows[2][0] * c[2] + rows[3][0] * c[3]
        v = rows[0][1] * c[0] + rows[1][1] * c[1] + rows[2][1] * c[2] + rows[3][1] * c[3]
        if u.is_zero() and v.is_zero():
            continue
        content = ideal_from_generators(M.ring, [u, v])
        if not L.contains_ideal(content):
            continue
        if any(T.contains_ideal(content) for T in traps):
            continue
        t = is_principal(content)
        if t is None:
            continue
        a = _exact_divide(u, t)
        b = _exact_divide(v, t)
        yield t, a, b, I


def _exact_divide(u: QuadInt, t: QuadInt) -> QuadInt:
    """u / t in O; u must be a multiple of t."""
    n = t.norm()
    prod = u * t.conj()
    if prod.x % n or prod.y % n:
        raise InternalInconsistency(f"{u} is not a multiple of {t}")
    return QuadInt(u.ring, prod.x // n, prod.y // n)


def _colon_rows(M: CotorsionModule, L: QuadIdeal) -> list[list[int]]:
    """Z-generators of (M : L) = {x in O^2 : L*x within M}, where L is the first invariant ideal.

    M lies in L*O^2 and L*conj(L) = N(L)*O, so conj(L)*M lies in N(L)*O^2
    and (M : L) = conj(L)*M / N(L): the products of the conjugated
    Z-basis of L with the basis of M, divided exactly by N(L).
    """
    n = L.norm
    t, u = L.ring.t, L.ring.u
    (l1, l2), (_, l3) = L.hnf
    rows = []
    for cx, cy in (_conj(t, l1, l2), _conj(t, 0, l3)):
        for r in M.hnf4:
            row = _scaled_row(t, u, cx, cy, *r)
            if any(v % n for v in row):
                raise InternalInconsistency(f"{M} is not contained in {L} * O^2")
            rows.append([v // n for v in row])
    return rows


def proj_invariant_element(M: CotorsionModule) -> OkInvariantData:
    """The full classifying data (L, K, I, point) of a module.

    The point is the canonical point of the line (M : L) / I*O^2, which
    equals the class of every witness of the paper's construction.
    """
    L, Kann = invariant_ideals(M)
    I = ideal_quotient(Kann, L)
    if ideal_mul(L, I) != Kann:
        raise InternalInconsistency(f"K != L*I for L={L}, K={Kann}, I={I}")
    return OkInvariantData(L, Kann, I, line_point(I, _colon_rows(M, L)))


def reconstruct(L: QuadIdeal, Kid: QuadIdeal, p: OkProjPoint) -> CotorsionModule:
    """The unique module with invariant ideals (L, K) and point p mod I."""
    I = p.modulus
    if ideal_mul(L, I) != Kid:
        raise BadInvariants(f"K != L*I for L={L}, K={Kid}, I={I}")
    return _module_of(L, Kid, I, *p.rep())


def _module_of(
    L: QuadIdeal, Kid: QuadIdeal, I: QuadIdeal, a: QuadInt, b: QuadInt
) -> CotorsionModule:
    """M = L*(a, b) + K*O^2 for (a, b) unimodular mod I, where K = L*I.

    The HNF of the rows (l*a, l*b) for the Z-basis l of L, plus the
    Z-basis of K times each basis vector of O^2.
    """
    ring = L.ring
    if not is_unimodular_pair(a, b, I):
        raise NotUnimodular(f"({a}, {b}) is not unimodular mod {I}")
    t, u = ring.t, ring.u
    (l1, l2), (_, l3) = L.hnf
    (k1, k2), (_, k3) = Kid.hnf
    # the basis l1 + l2*w and l3*w of L times (a, b), then K*e1 and K*e2
    rows = [
        _scaled_row(t, u, l1, l2, a.x, a.y, b.x, b.y),
        _scaled_row(t, u, 0, l3, a.x, a.y, b.x, b.y),
        [k1, k2, 0, 0], [0, 0, k1, k2], [0, k3, 0, 0], [0, 0, 0, k3],
    ]
    hnf = intmat.row_hnf(rows)
    return CotorsionModule(ring, tuple(tuple(r) for r in hnf))


def enumerate_cotorsion(L: QuadIdeal, Kid: QuadIdeal) -> list[CotorsionModule]:
    """All modules with invariant ideals (L, K): one per point of PF^1_I.

    M = L*v + K*O^2 depends only on the point of v, so each module comes
    from a CRT-joined pair of ok_representatives, with no canonical point.
    """
    if not L.contains_ideal(Kid):
        raise BadInvariants(f"K = {Kid} is not contained in L = {L}")
    I = ideal_quotient(Kid, L)
    if ideal_mul(L, I) != Kid:
        raise BadInvariants(f"K != L*I for L={L}, K={Kid}")
    count = ok_cardinality(I)
    if count > ENUMERATION_BOUND:
        raise OutOfRange(f"|PF^1_I| = {count} exceeds the enumeration bound {ENUMERATION_BOUND}")
    return sorted(_module_of(L, Kid, I, a, b) for a, b in ok_representatives(I))


def intersect(M1: CotorsionModule, M2: CotorsionModule) -> CotorsionModule:
    """The intersection module (omega-stable automatically)."""
    if M1.ring != M2.ring:
        raise DegenerateInput(f"modules over {M1.ring} and {M2.ring} cannot be intersected")
    rows = intmat.lattice_intersect(
        [list(r) for r in M1.hnf4], [list(r) for r in M2.hnf4]
    )
    if len(rows) != 4:
        raise NotFullRank("intersection lost rank")
    return CotorsionModule(M1.ring, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class IntersectionReport:
    """Outcome of the invariant checks on an intersection of modules."""

    intersection: CotorsionModule
    invariants: OkInvariantData
    full_rank: bool
    ideals_multiply: bool
    point_joins: bool
    witnesses_found: bool

    @property
    def ok(self) -> bool:
        return (
            self.full_rank
            and self.ideals_multiply
            and self.point_joins
            and self.witnesses_found
        )


def verify_intersection_theorem(modules) -> IntersectionReport:
    """Check the intersection of modules with pairwise comaximal annihilators.

    Checks: invariant ideals of the intersection are the products of
    the component ideals; its point is the CRT join of the component
    points; and (t*a, t*b) lies in the intersection for (a, b) the
    representative of the joined point and three t in L avoiding L*P for
    every prime P of the product K.  The first t is the sum of e_P*l_P,
    with e_P = 1 mod P and 0 mod the other primes (CRT idempotents) and
    l_P a basis element of L outside L*P; the other two add one basis
    element each of L * (product of the P), which leaves t mod every L*P.
    No lift of (a, b) is needed: t*(v' - v) lies in L*I*O^2 = K*O^2 for
    any v' = v mod I.
    """
    modules = list(modules)
    if not modules:
        raise BadProduct("empty module list")
    ring = modules[0].ring
    data = [proj_invariant_element(M) for M in modules]
    check_comaximal([d.K for d in data], "annihilators ")
    cap = reduce(intersect, modules)
    full_rank = cap.quotient_size >= 1 and is_omega_stable(ring, cap.hnf4)

    prod_L = reduce(ideal_mul, (d.L for d in data))
    prod_K = reduce(ideal_mul, (d.K for d in data))
    cap_data = proj_invariant_element(cap)
    ideals_multiply = (cap_data.L, cap_data.K) == (prod_L, prod_K)

    joined = ok_crt_join([d.point for d in data])
    point_joins = cap_data.point == joined

    # witness check: any valid t must carry the joined class into the intersection
    a, b = joined.rep()
    primes = prime_divisors(prod_K)
    radical = reduce(ideal_mul, primes, unit_ideal(ring))
    traps = [ideal_mul(prod_L, P) for P in primes]
    b0, b1 = prod_L.basis()
    t = ring.element(0)
    for e_P, T in zip(crt_idempotents(primes), traps):
        l_P = b1 if T.contains(b0) else b0
        t = t + e_P * l_P
    samples = [t] + [t + c for c in ideal_mul(prod_L, radical).basis()]
    witnesses_ok = all(
        not any(T.contains(s) for T in traps) and cap.contains((s * a, s * b))
        for s in samples
    )
    return IntersectionReport(
        cap, cap_data, full_rank, ideals_multiply, point_joins, witnesses_ok
    )


def enumerate_cotorsion_bruteforce(K: QuadRing, n: int) -> list[CotorsionModule]:
    """Independent oracle: every omega-stable 4x4 HNF lattice of determinant n."""
    out = []
    for h1 in divisors(n):
        for h2 in divisors(n // h1):
            for h3 in divisors(n // (h1 * h2)):
                h4 = n // (h1 * h2 * h3)
                for a12, a13, a23, a14, a24, a34 in product(
                    range(h2), range(h3), range(h3), range(h4), range(h4), range(h4)
                ):
                    rows = (
                        (h1, a12, a13, a14),
                        (0, h2, a23, a24),
                        (0, 0, h3, a34),
                        (0, 0, 0, h4),
                    )
                    if is_omega_stable(K, rows):
                        out.append(CotorsionModule(K, rows))
    out.sort()
    return out
