import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotorsion.arith import divisors, is_square, sigma
from cotorsion.dirichlet import (
    DirichletSeries,
    check_identity,
    convolve,
    series_ideal_count,
    series_ok_module_count,
    series_ok_pf1,
    series_pf1,
    series_shift,
    series_sigma,
    series_square_support,
    series_z2,
    series_zeta,
    series_zeta_double,
    series_zeta_shift,
    stratum_sum,
    zeta_identity_sides,
)
from cotorsion.errors import BadLength
from cotorsion.okproj import ok_cardinality
from cotorsion.projline import cardinality
from cotorsion.quadring import enumerate_ideals, kronecker, ring

KI = ring(-1)
K5 = ring(-5)
# class numbers 1, 1, 1, 2, 3, 7; extra units at -1 and -3; 2 ramified at
# -1, -2 and -5, split at -23 and -71, inert at -3
DISCS = (-1, -2, -3, -5, -23, -71)
# these cover every splitting type of 2 and of 3
EULER_DISCS = (-1, -2, -3, -5, -7, -15, -23, -71)


class TestConvolve:
    def test_divisor_count(self):
        assert convolve(series_zeta(6), series_zeta(6)).a(6) == 4

    def test_divisor_sum(self):
        assert convolve(series_zeta_shift(12), series_zeta(12)).a(12) == 28

    def test_square_stratum_sum(self):
        # divisors d of 12 with 12/d square: d = 12 and d = 3
        f = convolve(series_zeta_double(12), series_pf1(12))
        assert f.a(12) == cardinality(12) + cardinality(3) == 24 + 4

    def test_length_mismatch(self):
        with pytest.raises(BadLength):
            convolve(series_zeta(5), series_zeta(6))

    def test_commutative_associative(self):
        rng = random.Random(70)
        n = 200
        for _ in range(5):
            f = DirichletSeries(tuple(rng.randint(-9, 9) for _ in range(n)))
            g = DirichletSeries(tuple(rng.randint(-9, 9) for _ in range(n)))
            h = DirichletSeries(tuple(rng.randint(-9, 9) for _ in range(n)))
            assert convolve(f, g) == convolve(g, f)
            assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))

    @given(st.data())
    def test_matches_definition(self, data):
        # lengths around squares and r*(r+1) move the split between the
        # two passes; zeros exercise the skipped terms
        n = data.draw(st.integers(0, 60))
        coeff = st.integers(-3, 3)
        f = DirichletSeries(tuple(data.draw(coeff) for _ in range(n)))
        g = DirichletSeries(tuple(data.draw(coeff) for _ in range(n)))
        want = tuple(
            sum(f.a(d) * g.a(m // d) for d in range(1, m + 1) if m % d == 0)
            for m in range(1, n + 1)
        )
        assert convolve(f, g).coeffs == want

    @given(st.data())
    def test_ring_axioms_property(self, data):
        n = data.draw(st.integers(1, 40))
        coeff = st.integers(-100, 100)
        draw_series = lambda: DirichletSeries(
            tuple(data.draw(coeff) for _ in range(n))
        )
        f, g, h = draw_series(), draw_series(), draw_series()
        assert convolve(f, g) == convolve(g, f)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
        summed = DirichletSeries(tuple(a + b for a, b in zip(g.coeffs, h.coeffs)))
        lhs = convolve(f, summed)
        rhs = DirichletSeries(
            tuple(
                a + b
                for a, b in zip(convolve(f, g).coeffs, convolve(f, h).coeffs)
            )
        )
        assert lhs == rhs


class TestBasicSeries:
    def test_zeta_double(self):
        assert series_zeta_double(6).coeffs == (1, 0, 0, 1, 0, 0)

    def test_pf1(self):
        assert series_pf1(6).coeffs == (1, 3, 4, 6, 6, 12)

    def test_zeta_shift(self):
        assert series_zeta_shift(5).a(5) == 5

    def test_z2_examples(self):
        s = series_z2(12)
        assert s.a(1) == 1
        assert s.a(4) == 7
        assert s.a(12) == 28

    def test_z2_equals_sigma(self):
        N = 500
        assert series_z2(N) == series_sigma(N)

    def test_sieves_match_definitions(self):
        # the per-n definitions the sieve replaced, up to 3,000
        N = 3000
        assert series_pf1(N).coeffs == tuple(cardinality(n) for n in range(1, N + 1))
        assert series_sigma(N).coeffs == tuple(sigma(n) for n in range(1, N + 1))
        divisor_strata = tuple(
            sum(cardinality(d) for d in divisors(n) if is_square(n // d)[0])
            for n in range(1, N + 1)
        )
        assert series_z2(N).coeffs == divisor_strata

    def test_empty_truncations(self):
        for n in (-3, 0):
            assert series_pf1(n).coeffs == series_z2(n).coeffs == ()
            assert series_ok_module_count(K5, n).coeffs == ()

    def test_stratum_sum_length_mismatch(self):
        with pytest.raises(BadLength):
            stratum_sum(series_zeta(5), series_zeta(6))

    def test_z2_counts_lattices(self):
        from cotorsion.latenum import enumerate_index

        s = series_z2(30)
        for n in range(1, 31):
            assert s.a(n) == len(enumerate_index(n)) == sigma(n)


class TestZIdentities:
    def test_cor_identities_midscale(self):
        n = 2000
        z2 = series_z2(n)
        assert check_identity(z2, convolve(series_zeta_shift(n), series_zeta(n))).equal
        assert check_identity(z2, convolve(series_zeta_double(n), series_pf1(n))).equal

    def test_cor_identities_large_scale(self):
        # ten times the AC4 scale
        n = 10**5
        z2 = series_z2(n)
        assert check_identity(z2, convolve(series_zeta_shift(n), series_zeta(n))).equal
        assert check_identity(z2, convolve(series_zeta_double(n), series_pf1(n))).equal

    def test_euler_route_matches_convolution(self):
        # the CLI's route against the general convolution, coefficient by coefficient
        n = 10**4
        counts, pf1 = series_zeta(n), series_pf1(n)
        lhs, shifted, squared = zeta_identity_sides(None, n)
        assert lhs == series_z2(n)
        assert shifted.coeffs == convolve(series_shift(counts), counts).coeffs
        assert squared.coeffs == convolve(series_square_support(counts), pf1).coeffs
        assert lhs == shifted == squared

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_euler_route_empty_and_unit_truncations(self, n):
        want = (1,) * max(n, 0)
        for K in (None, KI, K5):
            assert [s.coeffs for s in zeta_identity_sides(K, n)] == [want] * 3

    def test_mismatch_reported(self):
        report = check_identity(series_zeta(2), series_zeta_shift(2))
        assert not report.equal
        assert report.first_mismatch == 2
        assert (report.lhs_value, report.rhs_value) == (1, 2)

    def test_late_mismatch_reported(self):
        f = series_zeta_shift(50)
        g = DirichletSeries(f.coeffs[:40] + (0,) + f.coeffs[41:])
        report = check_identity(f, g)
        assert (report.first_mismatch, report.lhs_value, report.rhs_value) == (41, 41, 0)
        assert str(report) == "mismatch at n=41: 41 != 0"

    def test_length_mismatch(self):
        with pytest.raises(BadLength):
            check_identity(series_zeta(5), series_zeta(6))


class TestDedekindSeries:
    def test_qi_ideal_counts(self):
        assert series_ideal_count(KI, 5).coeffs == (1, 1, 0, 1, 2)

    def test_qi_pf1_at_two(self):
        assert series_ok_pf1(KI, 2).a(2) == 3

    def test_k5_ramified_count(self):
        assert series_ideal_count(K5, 2).a(2) == 1

    def test_counts_match_enumeration(self):
        for K in map(ring, DISCS):
            s = series_ideal_count(K, 50)
            for n in range(1, 51):
                assert s.a(n) == len(enumerate_ideals(K, n))

    def test_pf1_matches_enumeration(self):
        for K in map(ring, DISCS):
            s = series_ok_pf1(K, 30)
            for n in range(1, 31):
                assert s.a(n) == sum(ok_cardinality(I) for I in enumerate_ideals(K, n))

    def test_multiplicativity(self):
        for K in (KI, K5):
            counts = series_ideal_count(K, 300)
            pf1 = series_ok_pf1(K, 300)
            for m in range(2, 300):
                for n in range(2, 300 // m + 1):
                    if math.gcd(m, n) == 1:
                        assert counts.a(m * n) == counts.a(m) * counts.a(n)
                        assert pf1.a(m * n) == pf1.a(m) * pf1.a(n)


class TestDedekindIdentities:
    @pytest.mark.parametrize("d", [-1, -5])
    def test_module_count_identities(self, d):
        K = ring(d)
        n = 120
        mc = series_ok_module_count(K, n)
        counts = series_ideal_count(K, n)
        assert check_identity(mc, convolve(series_shift(counts), counts)).equal
        assert check_identity(
            mc, convolve(series_square_support(counts), series_ok_pf1(K, n))
        ).equal

    @pytest.mark.parametrize("d", [-23, -71])
    def test_module_count_identities_large_scale(self, d):
        # class numbers 3 and 7, above the AC5 scale of 300
        K = ring(d)
        n = 10**4
        mc = series_ok_module_count(K, n)
        counts = series_ideal_count(K, n)
        assert check_identity(mc, convolve(series_shift(counts), counts)).equal
        assert check_identity(
            mc, convolve(series_square_support(counts), series_ok_pf1(K, n))
        ).equal

    def test_module_count_matches_bruteforce(self):
        from cotorsion.okmodules import enumerate_cotorsion_bruteforce

        for K in (KI, K5):
            s = series_ok_module_count(K, 10)
            for n in range(1, 11):
                assert s.a(n) == len(enumerate_cotorsion_bruteforce(K, n))

    def test_fields_cover_every_splitting_type(self):
        for p in (2, 3):
            assert {kronecker(ring(d), p) for d in EULER_DISCS} == {-1, 0, 1}

    @pytest.mark.parametrize("d", EULER_DISCS)
    def test_identities_other_discriminants(self, d):
        # the CLI's Euler route against the general convolution, coefficient
        # by coefficient
        K = ring(d)
        n = 2000
        counts, pf1 = series_ideal_count(K, n), series_ok_pf1(K, n)
        lhs, shifted, squared = zeta_identity_sides(K, n)
        assert lhs == series_ok_module_count(K, n) == stratum_sum(counts, pf1)
        assert shifted.coeffs == convolve(series_shift(counts), counts).coeffs
        assert squared.coeffs == convolve(series_square_support(counts), pf1).coeffs
        assert lhs == shifted == squared
