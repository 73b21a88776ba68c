import math
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotorsion import projline
from cotorsion.arith import divisors
from cotorsion.errors import BadModuli, DegenerateInput, NotUnimodular, OutOfRange
from cotorsion.projline import (
    ProjPoint,
    cardinality,
    class_of,
    crt_join,
    crt_split,
    enumerate_points,
    equivalent,
)


def units(m):
    return [u for u in range(m) if math.gcd(u, m) == 1]


def orbit_minimum(a, b, m):
    """Reference canonicalization: scan the whole unit orbit."""
    return min(((u * a) % m, (u * b) % m) for u in units(m))


class TestClassOf:
    def test_already_minimal(self):
        assert class_of(1, 0, 5) == ProjPoint(5, 1, 0)

    def test_orbit_example(self):
        # orbit of (2,4) mod 5: (2,4),(4,3),(1,2),(3,1); minimum (1,2)
        assert class_of(2, 4, 5) == ProjPoint(5, 1, 2)

    def test_modulus_one_convention(self):
        assert class_of(7, 2, 1) == ProjPoint(1, 0, 0)

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            class_of(2, 4, 6)
        with pytest.raises(NotUnimodular):
            equivalent(2, 4, 1, 0, 6)

    def test_rejects_zero_modulus(self):
        with pytest.raises(DegenerateInput):
            class_of(1, 0, 0)

    def test_matches_orbit_scan(self):
        for m in range(2, 61):
            for a in range(m):
                for b in range(m):
                    if math.gcd(a, b, m) != 1:
                        continue
                    pt = class_of(a, b, m)
                    assert (pt.a, pt.b) == orbit_minimum(a, b, m)

    def test_matches_orbit_scan_sampled_large(self):
        rng = random.Random(4242)
        for _ in range(400):
            m = rng.randint(61, 400)
            a, b = rng.randrange(m), rng.randrange(m)
            if math.gcd(a, b, m) != 1:
                continue
            pt = class_of(a, b, m)
            assert (pt.a, pt.b) == orbit_minimum(a, b, m)

    def test_constant_on_unit_scalings(self):
        # every unimodular pair is a unit multiple of a canonical point
        for m in range(1, 101):
            for pt in enumerate_points(m):
                for u in units(m):
                    assert class_of(u * pt.a, u * pt.b, m) == pt

    @given(
        st.integers(2, 10**6),
        st.integers(-10**9, 10**9),
        st.integers(-10**9, 10**9),
        st.integers(-10**9, 10**9),
    )
    def test_scaling_property(self, m, a, b, lam):
        if math.gcd(a, b, m) != 1 or math.gcd(lam, m) != 1:
            return
        assert class_of(lam * a, lam * b, m) == class_of(a, b, m)
        assert equivalent(a, b, lam * a, lam * b, m)


class TestEquivalent:
    @pytest.mark.parametrize(
        "a,b,c,d,m,expected",
        [
            (1, 2, 3, 6, 4, True),
            (1, 0, 0, 1, 2, False),
            (1, 2, 3, 1, 5, True),
        ],
    )
    def test_examples(self, a, b, c, d, m, expected):
        assert equivalent(a, b, c, d, m) is expected

    def test_is_equivalence_relation(self):
        rng = random.Random(99)
        for m in range(2, 101):
            pairs = [
                (a, b)
                for a in range(m)
                for b in range(m)
                if math.gcd(a, b, m) == 1
            ]
            sample = rng.sample(pairs, min(len(pairs), 8))
            for p in sample:
                assert equivalent(*p, *p, m)
            for p, q in combinations(sample, 2):
                assert equivalent(*p, *q, m) == equivalent(*q, *p, m)
            for p, q, r in combinations(sample, 3):
                if equivalent(*p, *q, m) and equivalent(*q, *r, m):
                    assert equivalent(*p, *r, m)

    def test_agrees_with_class_of(self):
        for m in (2, 5, 12):
            pairs = [
                (a, b) for a in range(m) for b in range(m) if math.gcd(a, b, m) == 1
            ]
            for p in pairs:
                for q in pairs:
                    assert equivalent(*p, *q, m) == (class_of(*p, m) == class_of(*q, m))


class TestEnumerate:
    def test_modulus_one(self):
        assert enumerate_points(1) == [ProjPoint(1, 0, 0)]

    def test_modulus_two(self):
        reps = {(p.a, p.b) for p in enumerate_points(2)}
        assert reps == {(0, 1), (1, 0), (1, 1)}

    def test_prime_power_count(self):
        # p^(k-1) * (p+1) with p = 2, k = 2
        assert len(enumerate_points(4)) == 6

    def test_counts_match_formula(self):
        for m in range(1, 121):
            pts = enumerate_points(m)
            assert len(pts) == cardinality(m)
            assert len(set(pts)) == len(pts)
            assert pts == sorted(pts)

    def test_points_are_canonical(self):
        for m in range(1, 61):
            for pt in enumerate_points(m):
                assert class_of(pt.a, pt.b, m) == pt

    def test_bound(self, monkeypatch):
        monkeypatch.setattr(projline, "ENUMERATION_BOUND", 100)
        with pytest.raises(OutOfRange):
            enumerate_points(720)


class TestCardinality:
    @pytest.mark.parametrize("m,expected", [(1, 1), (9, 12), (12, 24)])
    def test_examples(self, m, expected):
        assert cardinality(m) == expected

    def test_multiplicative(self):
        for m1 in range(1, 23):
            for m2 in range(1, 23):
                if math.gcd(m1, m2) == 1:
                    assert cardinality(m1 * m2) == cardinality(m1) * cardinality(m2)


class TestCrt:
    def test_split_example(self):
        p = class_of(1, 2, 6)
        assert crt_split(p, [2, 3]) == [class_of(1, 0, 2), class_of(1, 2, 3)]

    def test_singleton_split(self):
        p = class_of(3, 5, 14)
        assert crt_split(p, [14]) == [p]

    def test_split_one_zero(self):
        p = class_of(1, 0, 15)
        assert crt_split(p, [3, 5]) == [class_of(1, 0, 3), class_of(1, 0, 5)]

    def test_join_example(self):
        joined = crt_join([class_of(1, 0, 2), class_of(1, 2, 3)])
        assert joined == class_of(1, 2, 6)

    def test_join_coordinatewise(self):
        assert crt_join([class_of(0, 1, 4), class_of(0, 1, 9)]) == class_of(0, 1, 36)

    def test_round_trips_small(self):
        for m1 in range(2, 16):
            for m2 in range(2, 16):
                if math.gcd(m1, m2) != 1:
                    continue
                m = m1 * m2
                for p in enumerate_points(m):
                    parts = crt_split(p, [m1, m2])
                    assert crt_join(parts) == p
                for p1 in enumerate_points(m1):
                    for p2 in enumerate_points(m2):
                        joined = crt_join([p1, p2])
                        assert crt_split(joined, [m1, m2]) == [p1, p2]

    def test_bad_moduli(self):
        p = class_of(1, 1, 12)
        with pytest.raises(BadModuli):
            crt_split(p, [2, 6])
        with pytest.raises(BadModuli):
            crt_split(p, [3, 5])
        with pytest.raises(BadModuli):
            crt_join([class_of(1, 0, 2), class_of(1, 1, 4)])
        with pytest.raises(BadModuli):
            crt_split(p, [])
        with pytest.raises(BadModuli):
            crt_join([])
