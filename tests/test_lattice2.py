import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cotorsion import intmat, lattice2
from cotorsion.arith import xgcd
from cotorsion.errors import BadInvariants, InternalInconsistency, NotFullRank
from cotorsion.lattice2 import (
    Lattice2,
    contains,
    from_rows,
    intersect,
    invariants,
    proj_invariant,
    proj_invariant_bruteforce,
    reconstruct,
    smith,
)
from cotorsion.latenum import classify, hnf_oracle
from cotorsion.projline import ProjPoint, class_of, enumerate_points


class TestFromRows:
    def test_identity(self):
        assert from_rows((1, 0), (0, 1)).rows == ((1, 0), (0, 1))

    def test_already_hnf(self):
        assert from_rows((2, 0), (0, 4)).rows == ((2, 0), (0, 4))

    def test_reduction(self):
        lat = from_rows((1, 2), (3, 4))
        assert lat.index == 2
        assert lat.rows == ((1, 0), (0, 2))

    def test_basis_independent(self):
        rng = random.Random(31)
        for _ in range(100):
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            if a * d - b * c == 0:
                continue
            lat = from_rows((a, b), (c, d))
            # unimodular re-expression of the same lattice
            assert from_rows(
                (a + c, b + d), (c, d)
            ) == lat == from_rows((c, d), (a, b))

    def test_rejects_dependent_rows(self):
        with pytest.raises(NotFullRank):
            from_rows((2, 4), (1, 2))
        with pytest.raises(NotFullRank):
            from_rows((0, 0), (1, 2))


class TestSmith:
    @pytest.mark.parametrize(
        "rows,d1,d2",
        [
            (((1, 0), (0, 1)), 1, 1),
            (((2, 0), (0, 4)), 2, 4),
            (((1, 2), (0, 4)), 1, 4),
        ],
    )
    def test_examples(self, rows, d1, d2):
        sd = smith(Lattice2(rows))
        assert (sd.d1, sd.d2) == (d1, d2)

    def test_transform_identity(self):
        rng = random.Random(32)
        for _ in range(100):
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            if a * d - b * c == 0:
                continue
            lat = from_rows((a, b), (c, d))
            sd = smith(lat)
            (l00, l01), (l10, l11) = sd.left
            (r00, r01), (r10, r11) = sd.right
            A = lat.rows
            prod = [
                [
                    sum(sd.left[i][k] * A[k][j] for k in range(2))
                    for j in range(2)
                ]
                for i in range(2)
            ]
            prod = [
                [sum(prod[i][k] * sd.right[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]
            assert prod == [[sd.d1, 0], [0, sd.d2]]
            assert sd.d2 % sd.d1 == 0
            assert sd.d1 * sd.d2 == lat.index
            assert abs(l00 * l11 - l01 * l10) == 1
            assert abs(r00 * r11 - r01 * r10) == 1

    def test_stability_under_reexpression(self):
        rng = random.Random(33)
        for _ in range(50):
            lat = from_rows(
                (rng.randint(1, 8), rng.randint(0, 8)), (0, rng.randint(1, 8))
            )
            sd = smith(lat)
            for _ in range(5):
                # mix rows by a random unimodular matrix
                p = rng.randint(-4, 4)
                r1, r2 = lat.rows
                mixed = from_rows(
                    (r1[0] + p * r2[0], r1[1] + p * r2[1]), (r2[0], r2[1])
                )
                sd2 = smith(mixed)
                assert (sd2.d1, sd2.d2) == (sd.d1, sd.d2)


class TestProjInvariant:
    def test_scalar_lattice(self):
        assert proj_invariant(Lattice2(((2, 0), (0, 2)))) == ProjPoint(1, 0, 0)

    def test_cyclic_example(self):
        assert proj_invariant(Lattice2(((1, 2), (0, 4)))) == class_of(1, 2, 4)

    def test_noncyclic_example(self):
        assert proj_invariant(Lattice2(((2, 0), (0, 4)))) == class_of(1, 0, 2)

    def test_agrees_with_bruteforce(self):
        for n in range(1, 41):
            for lat in hnf_oracle(n):
                assert proj_invariant(lat) == proj_invariant_bruteforce(lat)

    def test_bruteforce_refuses_disagreeing_witnesses(self, monkeypatch):
        # the first witness is put in a wrong class, the rest in the right one
        lat = Lattice2(((1, 2), (0, 4)))
        right = proj_invariant(lat)
        wrong = next(p for p in enumerate_points(4) if p != right)
        calls = []

        def first_wrong(x, y, d):
            calls.append((x, y))
            return wrong if len(calls) == 1 else class_of(x, y, d)

        monkeypatch.setattr(lattice2, "class_of", first_wrong)
        with pytest.raises(InternalInconsistency):
            proj_invariant_bruteforce(lat)
        assert len(calls) > 1


class TestReconstruct:
    def test_diagonal_case(self):
        assert reconstruct(3, 6, class_of(1, 0, 2)).rows == ((3, 0), (0, 6))

    def test_cyclic_example(self):
        lat = reconstruct(1, 4, class_of(1, 2, 4))
        assert lat.rows == ((1, 2), (0, 4))

    def test_scalar_case(self):
        assert reconstruct(2, 2, ProjPoint(1, 0, 0)).rows == ((2, 0), (0, 2))

    def test_bad_invariants(self):
        with pytest.raises(BadInvariants):
            reconstruct(4, 6, class_of(1, 0, 2))
        with pytest.raises(BadInvariants):
            reconstruct(1, 4, class_of(1, 0, 2))

    def test_completion_choice_irrelevant(self):
        # any determinant-one completion yields the same lattice
        for d1, d2 in ((1, 12), (2, 8), (3, 9)):
            d = d2 // d1
            for p in enumerate_points(d):
                lat = reconstruct(d1, d2, p)
                a, b = p.a, p.b
                _, x1, y1 = xgcd(a, b)
                for k in range(-3, 4):
                    # shift the Bezout row by k*(a, b): determinant unchanged
                    alt = from_rows(
                        (d1 * a, d1 * b),
                        (d2 * (-y1 + k * a), d2 * (x1 + k * b)),
                    )
                    assert alt == lat

    def test_round_trip_a(self):
        # lattice -> invariants -> lattice, over every index <= 200
        for n in range(1, 201):
            for lat in hnf_oracle(n):
                sd = smith(lat)
                p = proj_invariant(lat)
                assert reconstruct(sd.d1, sd.d2, p) == lat

    def test_round_trip_b_and_injectivity(self):
        # invariants -> lattice -> invariants, d1*d2 <= 120
        for d1 in range(1, 12):
            for d in range(1, 120 // (d1 * d1) + 1):
                d2 = d1 * d
                seen = {}
                for p in enumerate_points(d):
                    lat = reconstruct(d1, d2, p)
                    sd = smith(lat)
                    assert (sd.d1, sd.d2) == (d1, d2)
                    assert proj_invariant(lat) == p
                    assert lat not in seen, "distinct points gave equal lattices"
                    seen[lat] = p


class TestContainsIntersect:
    def test_contains_examples(self):
        lat = Lattice2(((1, 2), (0, 4)))
        assert contains(lat, (1, 2))
        assert not contains(lat, (1, 3))
        assert contains(lat, (0, 0))

    def test_intersect_identity(self):
        lat = Lattice2(((3, 1), (0, 5)))
        assert intersect(lat, Lattice2(((1, 0), (0, 1)))) == lat

    def test_intersect_coprime_scalings(self):
        two = Lattice2(((2, 0), (0, 2)))
        three = Lattice2(((3, 0), (0, 3)))
        assert intersect(two, three) == Lattice2(((6, 0), (0, 6)))

    def test_intersect_membership_oracle(self):
        m1 = Lattice2(((1, 2), (0, 4)))
        m2 = Lattice2(((1, 0), (0, 4)))
        cap = intersect(m1, m2)
        # index = ind(m1)*ind(m2)/ind(m1+m2) = 4*4/2
        assert cap.index == 8
        for x in range(-8, 9):
            for y in range(-8, 9):
                both = contains(m1, (x, y)) and contains(m2, (x, y))
                assert contains(cap, (x, y)) == both


def snf_route(lat):
    """The Smith route the closed forms replaced: (d1, d2) from the SNF
    diagonal, the point as the class of the first row of right^-1 mod d."""
    D, _, V = intmat.smith_normal_form([list(r) for r in lat.rows])
    d1, d2 = D[0][0], D[1][1]
    d = d2 // d1
    if d == 1:
        return d1, d2, ProjPoint(1, 0, 0)
    (v00, v01), (v10, v11) = V
    detv = v00 * v11 - v01 * v10
    return d1, d2, class_of(detv * v11, -detv * v01, d)


def check_closed_form(lat):
    d1, d2, point = invariants(lat)
    assert (d1, d2, point) == snf_route(lat)
    assert proj_invariant(lat) == point
    (s_d1, s_d2, s_d), s_point = classify(lat)
    assert (s_d1, s_d2, s_d, s_point) == (d1, d2, d2 // d1, point)
    assert reconstruct(s_d1, s_d2, s_point) == lat


class TestClosedForm:
    def test_matches_smith_route_exhaustive(self):
        # every lattice of index <= 150: invariants, point and round trip
        for n in range(1, 151):
            for lat in hnf_oracle(n):
                check_closed_form(lat)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.integers(-200, 200), min_size=4, max_size=4))
    @example([-200, 199, 197, -200])
    @example([0, 7, 12, 0])
    @example([6, 4, 0, 18])
    def test_matches_smith_route_random_rows(self, entries):
        a, b, c, d = entries
        assume(a * d - b * c != 0)
        check_closed_form(from_rows((a, b), (c, d)))

    def test_reconstruct_reduces_second_entry(self):
        # [3:2] mod 6 has x = 2 >= d/g = 2, so the basis row is reduced
        assert class_of(3, 2, 6) == ProjPoint(6, 3, 2)
        assert reconstruct(1, 6, ProjPoint(6, 3, 2)).rows == ((3, 0), (0, 2))

    def test_point_search_is_bounded(self):
        # r11 = 0 is no canonical basis: the k-scan below a = 0 finds
        # nothing and raises instead of looping
        with pytest.raises(InternalInconsistency):
            invariants(Lattice2(((0, 1), (0, 1))))
