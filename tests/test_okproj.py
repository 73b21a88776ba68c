from itertools import product

import pytest

from cotorsion.errors import (
    BadProduct,
    DegenerateInput,
    InternalInconsistency,
    NonComaximal,
    NotUnimodular,
    OutOfRange,
)
from cotorsion import intmat, okproj
from cotorsion.okproj import (
    OkProjPoint,
    is_unimodular_pair,
    line_point,
    ok_cardinality,
    ok_class_of,
    ok_crt_join,
    ok_crt_split,
    ok_enumerate,
    ok_equivalent,
    ok_representatives,
    prime_divisors,
)
from cotorsion.quadring import (
    QuadInt,
    crt_idempotents,
    enumerate_ideals,
    factor_ideal,
    ideal_from_generators,
    ideal_mul,
    ideal_pow,
    ideal_sum,
    primes_above,
    ring,
    unit_ideal,
)

KI = ring(-1)
K5 = ring(-5)
ONE_PLUS_I = ideal_from_generators(KI, [KI.element(1, 1)])
P2 = ideal_from_generators(K5, [K5.element(2), K5.element(1, 1)])


def small_ideals(K, max_norm):
    return [I for n in range(1, max_norm + 1) for I in enumerate_ideals(K, n)]


def unit_residues(I):
    """All residues mod I that are units of O/I, in scan order.

    A residue is a unit iff no prime dividing I contains it.
    """
    K = I.ring
    (r11, _), (_, r22) = I.hnf
    primes = prime_divisors(I)
    out = []
    for x in range(r11):
        for y in range(r22):
            el = QuadInt(K, x, y)
            if not any(P.contains(el) for P in primes):
                out.append(el)
    return tuple(out)


def enumerate_oracle(I):
    """Reference PF^1 over O/I: the sorted orbit minima of a residue-pair scan.

    Scans all N(I)^2 residue pairs, skipping pairs whose unit orbit was
    already marked, and keeps the least reduced coordinates of each orbit.
    """
    K = I.ring
    if I.is_unit_ideal():
        return [OkProjPoint(I, (0, 0), (0, 0))]
    (r11, _), (_, r22) = I.hnf
    units = unit_residues(I)
    seen = set()
    points = []
    for ax in range(r11):
        for ay in range(r22):
            a = QuadInt(K, ax, ay)
            for bx in range(r11):
                for by in range(r22):
                    if (ax, ay, bx, by) in seen:
                        continue
                    b = QuadInt(K, bx, by)
                    if not is_unimodular_pair(a, b, I):
                        continue
                    best = None
                    for lam in units:
                        ra = I.reduce(lam * a)
                        rb = I.reduce(lam * b)
                        key = (ra.x, ra.y, rb.x, rb.y)
                        seen.add(key)
                        if best is None or key < best:
                            best = key
                    points.append(
                        OkProjPoint(I, (best[0], best[1]), (best[2], best[3]))
                    )
    points.sort()
    return points


def unimodular_oracle(a, b, I):
    """Whether <a> + <b> + I = O, with w*a and w*b as QuadInt products."""
    w = I.ring.omega
    rows = I.hnf + (a.coords(), (a * w).coords(), b.coords(), (b * w).coords())
    return intmat.hnf2(rows) == ((1, 0), (0, 1))


def representatives_oracle(I):
    """ok_representatives on QuadInt products, sums and reductions."""
    K = I.ring
    zero = K.element(0)
    factors = factor_ideal(I)
    powers = [ideal_pow(P, k) for P, k in factors]
    local = [[(zero, zero)]]
    for (P, _), Q, e in zip(factors, powers, crt_idempotents(powers)):
        (r11, _), (_, r22) = Q.hnf
        box = [K.element(x, y) for x in range(r11) for y in range(r22)]
        local.append([(e, e * b) for b in box] + [(e * a, e) for a in box if P.contains(a)])
    return [
        tuple(I.reduce(sum(xs, zero)) for xs in zip(*combo)) for combo in product(*local)
    ]


def orbit_least(a, b, I):
    """Reference class: the least reduced coordinates over the unit orbit of (a, b)."""
    keys = []
    for lam in unit_residues(I):
        ra, rb = I.reduce(lam * a), I.reduce(lam * b)
        keys.append((ra.x, ra.y, rb.x, rb.y))
    return min(keys)


class TestClassOf:
    def test_trivial_modulus(self):
        p = ok_class_of(KI.one, KI.element(0), unit_ideal(KI))
        assert p == OkProjPoint(unit_ideal(KI), (0, 0), (0, 0))

    def test_field_of_two_elements(self):
        zero, one = KI.element(0), KI.one
        pts = {
            ok_class_of(one, zero, ONE_PLUS_I),
            ok_class_of(zero, one, ONE_PLUS_I),
            ok_class_of(one, one, ONE_PLUS_I),
        }
        assert len(pts) == 3
        assert pts == set(ok_enumerate(ONE_PLUS_I))

    def test_rejects_non_unimodular(self):
        g = KI.element(1, 1)
        with pytest.raises(NotUnimodular):
            ok_class_of(g, g, ONE_PLUS_I)
        with pytest.raises(NotUnimodular):
            ok_equivalent(KI.one, KI.element(0), g, g, ONE_PLUS_I)

    def test_pair_from_another_ring_rejected(self):
        with pytest.raises(DegenerateInput):
            is_unimodular_pair(KI.one, KI.element(0), P2)
        with pytest.raises(DegenerateInput):
            is_unimodular_pair(K5.one, KI.element(0), P2)

    def test_unit_scaling_invariance_exhaustive(self):
        # exhaust ideals of norm <= 12 in both fields
        for K in (KI, K5):
            for I in small_ideals(K, 12):
                if I.is_unit_ideal():
                    continue
                (r11, _), (_, r22) = I.hnf
                residues = [K.element(x, y) for x in range(r11) for y in range(r22)]
                units = unit_residues(I)
                assert units == tuple(
                    el for el in residues if is_unimodular_pair(el, K.element(0), I)
                )
                for p in ok_enumerate(I):
                    a, b = p.rep()
                    assert p.a + p.b == orbit_least(a, b, I)
                    for lam in units:
                        assert ok_class_of(lam * a, lam * b, I) == p

    def test_line_point_rejects_rows_that_span_no_line(self):
        # I = (5) = P * conj(P) over Z[i]: I*O^2 alone has index 625, not N(I) = 25
        I = ideal_from_generators(KI, [KI.element(5)])
        with pytest.raises(InternalInconsistency, match="do not span a line"):
            line_point(I, [])

    def test_line_point_rejects_a_line_with_no_unimodular_element(self):
        # P + P has index 25 = N(I) and contains I*O^2, but P holds both
        # coordinates of every element, so no element is unimodular
        I = ideal_from_generators(KI, [KI.element(5)])
        P = ideal_from_generators(KI, [KI.element(2, 1)])
        assert P.contains_ideal(I) and P.norm == 5
        (p11, p12), (_, p22) = P.hnf
        rows = [[p11, p12, 0, 0], [0, p22, 0, 0], [0, 0, p11, p12], [0, 0, 0, p22]]
        with pytest.raises(InternalInconsistency, match="has no unimodular element"):
            line_point(I, rows)

    def test_equivalent_matches_class_equality(self):
        for I in small_ideals(KI, 9):
            pts = ok_enumerate(I)
            for p in pts:
                for q in pts:
                    pa, pb = p.rep()
                    qa, qb = q.rep()
                    assert ok_equivalent(pa, pb, qa, qb, I) == (p == q)


class TestCardinality:
    def test_one_plus_i(self):
        assert ok_cardinality(ONE_PLUS_I) == 3

    def test_nonprincipal_modulus(self):
        assert ok_cardinality(P2) == 3

    def test_prime_square(self):
        I = ideal_mul(ONE_PLUS_I, ONE_PLUS_I)
        assert ok_cardinality(I) == 6
        assert len(ok_enumerate(I)) == 6

    def test_inert_prime(self):
        (pa,) = primes_above(KI, 3)
        # norm 9 prime: 9 + 1 points
        assert ok_cardinality(pa.ideal) == 10

    def test_matches_enumeration(self):
        for K in (KI, K5):
            for I in small_ideals(K, 16):
                pts = ok_enumerate(I)
                assert len(pts) == len(set(pts)) == ok_cardinality(I)
                assert pts == sorted(pts)

    def test_enumeration_bound(self, monkeypatch):
        three = ideal_from_generators(KI, [KI.element(3)])
        monkeypatch.setattr(okproj, "ENUMERATION_BOUND", 5)
        with pytest.raises(OutOfRange):
            ok_enumerate(three)
        monkeypatch.setattr(okproj, "ENUMERATION_BOUND", 9)
        with pytest.raises(OutOfRange):
            ok_representatives(three)
        monkeypatch.setattr(okproj, "ENUMERATION_BOUND", 10)
        assert len(ok_representatives(three)) == 10


class TestRepresentatives:
    @pytest.mark.parametrize("d", [-1, -2, -3, -5, -15, -23, -71])
    def test_enumerate_matches_orbit_scan(self, d):
        # every ideal of norm <= 30: split, inert and ramified primes and
        # their powers, joined by CRT against the residue-pair scan
        for I in small_ideals(ring(d), 30):
            assert ok_enumerate(I) == enumerate_oracle(I)

    def test_pairs_are_reduced_unimodular_and_one_per_point(self):
        for K in (KI, K5, ring(-23)):
            for I in small_ideals(K, 30):
                pairs = ok_representatives(I)
                assert len(pairs) == ok_cardinality(I)
                for a, b in pairs:
                    assert (I.reduce(a), I.reduce(b)) == (a, b)
                    assert is_unimodular_pair(a, b, I)
                assert len({ok_class_of(a, b, I) for a, b in pairs}) == len(pairs)

    def test_unit_modulus(self):
        K = ring(-71)
        assert ok_representatives(unit_ideal(K)) == [(K.element(0), K.element(0))]
        assert ok_enumerate(unit_ideal(K)) == enumerate_oracle(unit_ideal(K))


class TestCrt:
    def test_singleton(self):
        p = ok_class_of(KI.one, KI.element(2), ONE_PLUS_I)
        assert ok_crt_split(p, [ONE_PLUS_I]) == [p]
        assert ok_crt_join([p]) == p

    def test_join_coordinatewise(self):
        one5, zero5 = K5.one, K5.element(0)
        p3 = primes_above(K5, 3)[0].ideal
        joined = ok_crt_join(
            [ok_class_of(one5, zero5, P2), ok_class_of(one5, zero5, p3)]
        )
        assert joined == ok_class_of(one5, zero5, ideal_mul(P2, p3))

    def test_round_trip_exhaustive(self):
        three = ideal_from_generators(KI, [KI.element(3)])
        I = ideal_mul(ONE_PLUS_I, three)
        assert ok_cardinality(three) == 10
        assert ok_cardinality(I) == 30
        pts = ok_enumerate(I)
        assert len(pts) == 30
        for p in pts:
            parts = ok_crt_split(p, [ONE_PLUS_I, three])
            assert ok_crt_join(parts) == p
        for p1 in ok_enumerate(ONE_PLUS_I):
            for p2 in ok_enumerate(three):
                joined = ok_crt_join([p1, p2])
                assert ok_crt_split(joined, [ONE_PLUS_I, three]) == [p1, p2]

    def test_round_trip_nonprincipal(self):
        p3 = primes_above(K5, 3)[0].ideal
        I = ideal_mul(P2, p3)
        for p in ok_enumerate(I):
            parts = ok_crt_split(p, [P2, p3])
            assert ok_crt_join(parts) == p

    def test_round_trips_all_splittings(self):
        # every comaximal two-part splitting of every ideal of norm <= 30
        from cotorsion.quadring import factor_ideal, ideal_pow, unit_ideal

        for K in (KI, K5):
            for n in range(2, 31):
                for I in enumerate_ideals(K, n):
                    factors = [ideal_pow(P, e) for P, e in factor_ideal(I)]
                    if len(factors) < 2:
                        continue
                    for mask in range(1, 2 ** (len(factors) - 1)):
                        left = unit_ideal(K)
                        right = unit_ideal(K)
                        for i, F in enumerate(factors):
                            if (mask >> i) & 1:
                                left = ideal_mul(left, F)
                            else:
                                right = ideal_mul(right, F)
                        for p in ok_enumerate(I):
                            parts = ok_crt_split(p, [left, right])
                            assert ok_crt_join(parts) == p

    def test_rejects_bad_factors(self):
        p = ok_class_of(KI.one, KI.element(0), ONE_PLUS_I)
        with pytest.raises(BadProduct):
            ok_crt_split(p, [ideal_from_generators(KI, [KI.element(3)])])
        with pytest.raises(BadProduct):
            ok_crt_split(p, [])
        with pytest.raises(BadProduct):
            ok_crt_join([])
        two = ideal_from_generators(KI, [KI.element(2)])
        four = ideal_mul(two, two)
        q1 = ok_class_of(KI.one, KI.element(0), two)
        q2 = ok_class_of(KI.one, KI.element(0), four)
        with pytest.raises(NonComaximal):
            ok_crt_join([q1, q2])


class TestShiftByModulus:
    def test_class_depends_only_on_residues(self):
        # [a + i : b + j] = [a : b] for i, j in I: shift every point's
        # representative by each Z-basis element of I in either coordinate
        for K in (KI, K5):
            for I in small_ideals(K, 10):
                if I.is_unit_ideal():
                    continue
                shifts = (K.element(0),) + I.basis()
                for p in ok_enumerate(I):
                    a, b = p.rep()
                    for i in shifts:
                        for j in shifts:
                            assert ok_class_of(a + i, b + j, I) == p

    def test_residue_pair_not_globally_coprime(self):
        # (1 + w, 1 - w) mod (3): unimodular residues, but <1 + w> + <1 - w>
        # is a proper ideal, and shifts by 3 keep the class
        three = ideal_from_generators(K5, [K5.element(3)])
        a = K5.element(1, 1)
        b = K5.element(1, -1)
        assert is_unimodular_pair(a, b, three)
        assert not ideal_from_generators(K5, [a, b]).is_unit_ideal()
        p = ok_class_of(a, b, three)
        for i, j in ((3, 0), (0, 3), (3, 3), (-3, 6)):
            assert ok_class_of(a + K5.element(i), b + K5.element(j), three) == p
