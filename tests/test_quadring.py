import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cotorsion
from cotorsion import intmat
from cotorsion.errors import (
    DegenerateInput,
    InternalInconsistency,
    NonComaximal,
    ZeroIdeal,
)
from cotorsion.quadring import (
    RING_CACHE_SIZE,
    PrimeAbove,
    QuadIdeal,
    _divide,
    crt_idempotents,
    enumerate_ideals,
    express_one,
    factor_ideal,
    ideal_conj,
    ideal_from_generators,
    ideal_from_hnf,
    ideal_intersect,
    ideal_mul,
    ideal_pow,
    ideal_quotient,
    ideal_sum,
    is_principal,
    kronecker,
    parse_element,
    primes_above,
    ring,
    unit_ideal,
)

KI = ring(-1)
K5 = ring(-5)
P2 = ideal_from_generators(K5, [K5.element(2), K5.element(1, 1)])


def random_element(rng, K, lo=-5, hi=5):
    return K.element(rng.randint(lo, hi), rng.randint(lo, hi))


def _ideal_of_rows(K, rows):
    return QuadIdeal(K, (tuple(rows[0]), tuple(rows[1])))


def intersect_oracle(I, J):
    """I ∩ J by the 4-column lattice intersection of the two Z-bases."""
    return _ideal_of_rows(I.ring, intmat.lattice_intersect(I.hnf, J.hnf))


def quotient_oracle(I, J):
    """(I : J) = (I * conj(J) ∩ N(J)*O) / N(J) by lattice intersection."""
    n = J.norm
    prod = ideal_mul(I, ideal_conj(J))
    meet = intmat.lattice_intersect(prod.hnf, [[n, 0], [0, n]])
    assert all(v % n == 0 for row in meet for v in row)
    return _ideal_of_rows(I.ring, [[v // n for v in row] for row in meet])


def principal_oracle(I):
    """The first element of norm N(I) in I, scanning y upward and x downward."""
    K = I.ring
    n = I.norm
    if K.t == 0:
        ymax = math.isqrt(n // -K.d)
        coords = [(sx * x, y) for y in range(-ymax, ymax + 1)
                  for x in [math.isqrt(n + K.d * y * y)] for sx in (1, -1)]
    else:
        ymax = math.isqrt(4 * n // -K.d)
        coords = [((-y + sign * math.isqrt(4 * n + K.d * y * y)) // 2, y)
                  for y in range(-ymax, ymax + 1) for sign in (1, -1)]
    for x, y in coords:
        g = K.element(x, y)
        if g.norm() == n and I.contains(g):
            return g
    return None


ORACLE_DISCS = (-1, -2, -3, -5, -7, -15, -23, -71)


class TestRing:
    def test_omega_conventions(self):
        assert (KI.t, KI.u, KI.disc) == (0, -1, -4)
        assert (K5.t, K5.u, K5.disc) == (0, -5, -20)
        K3 = ring(-3)
        assert (K3.t, K3.u, K3.disc) == (1, -1, -3)

    def test_rejects_bad_discriminants(self):
        with pytest.raises(DegenerateInput):
            ring(5)
        with pytest.raises(DegenerateInput):
            ring(-4)
        with pytest.raises(DegenerateInput):
            ring(-12)

    def test_cache_is_bounded_and_eviction_is_harmless(self):
        assert ring.cache_info().maxsize == RING_CACHE_SIZE
        before = ring(-1)
        a = before.element(1, 1)
        I = ideal_from_generators(before, [a])
        built, d = 0, -2
        while built <= RING_CACHE_SIZE:
            try:
                ring(d)
                built += 1
            except DegenerateInput:
                pass
            d -= 1
        assert ring.cache_info().currsize <= RING_CACHE_SIZE
        after = ring(-1)
        assert after is not before and after == before
        b = after.element(2, -1)
        assert a * b == b * a == before.element(3, 1)
        assert (a + b).ring == after
        J = ideal_from_generators(after, [b])
        assert ideal_mul(I, J).norm == I.norm * J.norm == 10
        assert primes_above(after, 5) == primes_above(before, 5)

    def test_units(self):
        assert len(KI.units()) == 4
        assert len(ring(-3).units()) == 6
        assert len(K5.units()) == 2
        for K in (KI, ring(-3), K5, ring(-7)):
            assert all(u.norm() == 1 for u in K.units())

    def test_omega_minimal_polynomial(self):
        for d in (-1, -2, -3, -5, -7, -11, -15):
            K = ring(d)
            w = K.omega
            assert w * w == K.element(K.u, K.t)


class TestQuadInt:
    def test_norm_positive_definite(self):
        rng = random.Random(41)
        for d in (-1, -3, -5, -7):
            K = ring(d)
            for _ in range(100):
                g = random_element(rng, K)
                assert g.norm() >= 0
                assert (g.norm() == 0) == g.is_zero()

    def test_norm_multiplicative(self):
        rng = random.Random(42)
        for d in (-1, -3, -5):
            K = ring(d)
            for _ in range(100):
                g, h = random_element(rng, K), random_element(rng, K)
                assert (g * h).norm() == g.norm() * h.norm()

    def test_conj_gives_norm(self):
        rng = random.Random(43)
        for d in (-1, -3, -5):
            K = ring(d)
            for _ in range(50):
                g = random_element(rng, K)
                assert g * g.conj() == K.element(g.norm())

    def test_parse_and_str(self):
        assert parse_element(KI, "3+2*w") == KI.element(3, 2)
        assert parse_element(KI, "w") == KI.element(0, 1)
        assert parse_element(KI, "-w") == KI.element(0, -1)
        assert parse_element(KI, "2*w") == KI.element(0, 2)
        assert parse_element(KI, "1-2*w") == KI.element(1, -2)
        assert parse_element(KI, "-7") == KI.element(-7)
        for el in (KI.element(3, -2), KI.element(0, 5), KI.element(4)):
            assert parse_element(KI, str(el)) == el
        with pytest.raises(DegenerateInput):
            parse_element(KI, "2w+1")
        with pytest.raises(DegenerateInput):
            parse_element(KI, "")


class TestIdealConstruction:
    def test_one_plus_i(self):
        I = ideal_from_generators(KI, [KI.element(1, 1)])
        assert I.hnf == ((1, 1), (0, 2))
        assert I.norm == 2

    def test_unit_ideal_from_one(self):
        assert ideal_from_generators(KI, [KI.one]) == unit_ideal(KI)

    def test_norm_two_ideal_in_k5(self):
        assert P2.norm == 2

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdeal):
            ideal_from_generators(KI, [KI.element(0)])

    def test_from_hnf_validates(self):
        assert ideal_from_hnf(K5, ((1, 1), (0, 2))) == P2
        with pytest.raises(DegenerateInput):
            # not closed under multiplication by w
            ideal_from_hnf(K5, ((1, 0), (0, 2)))

    def test_principal_ideal_norm(self):
        rng = random.Random(44)
        for d in (-1, -5, -7):
            K = ring(d)
            for _ in range(30):
                g = random_element(rng, K)
                if g.is_zero():
                    continue
                assert ideal_from_generators(K, [g]).norm == g.norm()


class TestRingMismatch:
    def test_elements_of_different_rings(self):
        a, b = KI.element(1, 1), K5.element(1, 1)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(DegenerateInput):
                op()

    def test_ideals_of_different_rings(self):
        I, J = unit_ideal(KI), unit_ideal(K5)
        for op in (ideal_mul, ideal_sum, ideal_intersect, ideal_quotient, express_one):
            with pytest.raises(DegenerateInput):
                op(I, J)


class TestIdealArithmetic:
    def test_mul_unit_identity(self):
        assert ideal_mul(P2, unit_ideal(K5)) == P2

    def test_ramified_square(self):
        assert ideal_mul(P2, P2) == ideal_from_generators(K5, [K5.element(2)])

    def test_sum_idempotent(self):
        assert ideal_sum(P2, P2) == P2

    def test_norm_multiplicative(self):
        for K in (KI, K5):
            ideals = [I for n in range(1, 31) for I in enumerate_ideals(K, n)]
            for I in ideals:
                for J in ideals:
                    assert ideal_mul(I, J).norm == I.norm * J.norm

    def test_intersect_and_sum_against_membership(self):
        rng = random.Random(45)
        for K in (KI, K5):
            for _ in range(20):
                g1, g2 = random_element(rng, K), random_element(rng, K)
                if g1.is_zero() or g2.is_zero():
                    continue
                I, J = ideal_from_generators(K, [g1]), ideal_from_generators(K, [g2])
                meet = ideal_intersect(I, J)
                for x in range(-4, 5):
                    for y in range(-4, 5):
                        el = K.element(x, y)
                        assert meet.contains(el) == (I.contains(el) and J.contains(el))

    def test_quotient_round_trip(self):
        rng = random.Random(46)
        done = 0
        while done < 20:
            K = (KI, K5)[done % 2]
            gi, gj = random_element(rng, K, -4, 4), random_element(rng, K, -4, 4)
            if gi.is_zero() or gj.is_zero():
                continue
            I = ideal_from_generators(K, [gi, random_element(rng, K, -3, 3)])
            J = ideal_from_generators(K, [gj])
            assert ideal_quotient(ideal_mul(I, J), J) == I
            done += 1

    def test_quotient_by_unit(self):
        assert ideal_quotient(P2, unit_ideal(K5)) == P2

    def test_quotient_membership_characterization(self):
        # x in (I : J) iff x*b in I for both basis elements b of J
        rng = random.Random(49)
        done = 0
        while done < 15:
            K = (KI, K5)[done % 2]
            gi, gj = random_element(rng, K, -3, 3), random_element(rng, K, -3, 3)
            if gi.is_zero() or gj.is_zero():
                continue
            I = ideal_from_generators(K, [gi])
            J = ideal_from_generators(K, [gj])
            Q = ideal_quotient(I, J)
            b0, b1 = J.basis()
            for x in range(-5, 6):
                for y in range(-5, 6):
                    el = K.element(x, y)
                    member = I.contains(el * b0) and I.contains(el * b1)
                    assert Q.contains(el) == member
            done += 1

    def test_divide_refuses_a_dividend_outside_the_divisor(self):
        three = ideal_from_generators(K5, [K5.element(3)])
        assert _divide(ideal_mul(P2, three), P2) == three
        with pytest.raises(InternalInconsistency):
            _divide(three, P2)

    def test_quotient_ramified(self):
        two = ideal_from_generators(K5, [K5.element(2)])
        assert ideal_quotient(two, P2) == P2


class TestAgainstIntersectionOracles:
    @settings(deadline=None, max_examples=300)
    @given(
        st.sampled_from(ORACLE_DISCS),
        st.lists(st.integers(-15, 15), min_size=4, max_size=4),
        st.lists(st.integers(-15, 15), min_size=4, max_size=4),
        st.booleans(),
    )
    def test_quotient_and_intersect(self, d, c1, c2, nested):
        K = ring(d)
        gens1 = [K.element(c1[0], c1[1]), K.element(c1[2], c1[3])]
        gens2 = [K.element(c2[0], c2[1]), K.element(c2[2], c2[3])]
        if all(g.is_zero() for g in gens1) or all(g.is_zero() for g in gens2):
            return
        I = ideal_from_generators(K, gens1)
        J = ideal_from_generators(K, gens2)
        if nested:
            I = ideal_mul(I, J)  # I within J, the case of every library call
        for A, B in ((I, J), (J, I)):
            assert ideal_quotient(A, B) == quotient_oracle(A, B)
            assert ideal_intersect(A, B) == intersect_oracle(A, B)

    @pytest.mark.parametrize("d", ORACLE_DISCS)
    def test_every_small_ideal(self, d):
        K = ring(d)
        ideals = [I for n in range(1, 101) for I in enumerate_ideals(K, n)]
        for I in ideals:
            assert is_principal(I) == principal_oracle(I)
        small = [I for I in ideals if I.norm <= 20]
        for I in small:
            for J in small:
                assert ideal_quotient(I, J) == quotient_oracle(I, J)
                assert ideal_intersect(I, J) == intersect_oracle(I, J)


class TestPrimesAbove:
    def test_five_splits_in_qi(self):
        above = primes_above(KI, 5)
        assert len(above) == 2
        assert all(pa.ideal.norm == 5 and (pa.e, pa.f) == (1, 1) for pa in above)

    def test_three_inert_in_qi(self):
        (pa,) = primes_above(KI, 3)
        assert pa.ideal.norm == 9 and (pa.e, pa.f) == (1, 2)
        assert pa.ideal == ideal_from_generators(KI, [KI.element(3)])

    def test_two_ramified_in_k5(self):
        (pa,) = primes_above(K5, 2)
        assert pa.ideal.norm == 2 and (pa.e, pa.f) == (2, 1)
        assert ideal_mul(pa.ideal, pa.ideal) == ideal_from_generators(K5, [K5.element(2)])

    @pytest.mark.parametrize("d", [-1, -2, -3, -5, -23, -71])
    def test_matches_root_scan(self, d):
        # the O(p) root scan that Tonelli-Shanks replaced, as the oracle
        K = ring(d)
        t, u = K.t, K.u
        for p in range(2, 3000):
            if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
                continue
            roots = [r for r in range(p) if (r * r - t * r - u) % p == 0]
            gens = [[K.element(p), K.omega - K.element(r)] for r in roots] or [[K.element(p)]]
            ideals = sorted(ideal_from_generators(K, g) for g in gens)
            ef = {2: (1, 1), 1: (2, 1), 0: (1, 2)}[len(roots)]
            assert primes_above(K, p) == tuple(PrimeAbove(I, *ef) for I in ideals)
            assert kronecker(K, p) == {2: 1, 1: 0, 0: -1}[len(roots)]

    def test_splitting_matches_kronecker(self):
        # for odd p coprime to disc: split iff disc is a QR mod p
        for K in (KI, K5, ring(-3), ring(-7)):
            for p in (3, 5, 7, 11, 13, 17, 19, 23):
                if K.disc % p == 0:
                    continue
                qr = pow(K.disc % p, (p - 1) // 2, p) == 1
                assert (len(primes_above(K, p)) == 2) == qr

    def test_rejects_composite(self):
        with pytest.raises(DegenerateInput):
            primes_above(KI, 6)

    def test_cache_is_bounded(self):
        assert primes_above.cache_info().maxsize is not None


class TestFactorIdeal:
    def test_unit_ideal(self):
        assert factor_ideal(unit_ideal(KI)) == []

    def test_power_of_one_plus_i(self):
        I = ideal_pow(ideal_from_generators(KI, [KI.element(1, 1)]), 3)
        factors = factor_ideal(I)
        assert len(factors) == 1
        assert factors[0][1] == 3
        assert factors[0][0].norm == 2

    def test_six_in_k5(self):
        I = ideal_from_generators(K5, [K5.element(6)])
        norms = sorted((P.norm, e) for P, e in factor_ideal(I))
        assert norms == [(2, 2), (3, 1), (3, 1)]

    def test_reassembly_all_small_norms(self):
        for K in (KI, K5):
            for n in range(1, 51):
                for I in enumerate_ideals(K, n):
                    prod = unit_ideal(K)
                    for P, e in factor_ideal(I):
                        prod = ideal_mul(prod, ideal_pow(P, e))
                    assert prod == I

    def test_comaximal_iff_disjoint_support(self):
        for K in (KI, K5):
            ideals = [I for n in range(2, 51) for I in enumerate_ideals(K, n)]
            supports = {I: {P for P, _ in factor_ideal(I)} for I in ideals}
            for I in ideals:
                for J in ideals:
                    expected = not supports[I] & supports[J]
                    assert ideal_sum(I, J).is_unit_ideal() == expected


class TestEnumerateIdeals:
    def test_norm_one(self):
        assert enumerate_ideals(KI, 1) == [unit_ideal(KI)]

    def test_split_norm(self):
        assert len(enumerate_ideals(KI, 5)) == 2

    def test_three_splits_in_k5(self):
        assert len(enumerate_ideals(K5, 3)) == 2

    def test_counts_match_valuations(self):
        # every returned ideal has the right norm and they are distinct
        for K in (KI, K5):
            for n in range(1, 40):
                ideals = enumerate_ideals(K, n)
                assert len(set(ideals)) == len(ideals)
                assert all(I.norm == n for I in ideals)


class TestPrincipality:
    def test_rational_integer(self):
        I = ideal_from_generators(KI, [KI.element(5)])
        g = is_principal(I)
        assert g is not None and ideal_from_generators(KI, [g]) == I

    def test_nonprincipal_p2(self):
        assert is_principal(P2) is None

    def test_norm_five_ideal(self):
        I = ideal_from_generators(KI, [KI.element(2, 1)])
        g = is_principal(I)
        assert g is not None and g.norm() == 5
        assert ideal_from_generators(KI, [g]) == I

    def test_class_number_two_structure(self):
        # all norm-2 and norm-3 primes of Q(sqrt(-5)) are non-principal,
        # but every pairwise product of them is principal
        p3a, p3b = (pa.ideal for pa in primes_above(K5, 3))
        assert is_principal(p3a) is None and is_principal(p3b) is None
        prods = [
            ideal_mul(P2, p3a),
            ideal_mul(P2, p3b),
            ideal_mul(P2, P2),
            ideal_mul(p3a, p3b),
            ideal_mul(p3a, p3a),
            ideal_mul(p3b, p3b),
        ]
        for I in prods:
            g = is_principal(I)
            assert g is not None and ideal_from_generators(K5, [g]) == I
        target = K5.element(1, 1)  # 1 + sqrt(-5), norm 6
        assert any(I.contains(target) and I == ideal_from_generators(K5, [target])
                   for I in prods[:2])

    @pytest.mark.parametrize("d", [-1, -2, -3, -5, -23])
    def test_matches_scan_on_random_principal_ideals(self, d):
        rng = random.Random(50 - d)
        K = ring(d)
        for _ in range(100):
            g = random_element(rng, K, -300, 300)
            if g.is_zero():
                continue
            I = ideal_from_generators(K, [g, g * random_element(rng, K)])
            assert is_principal(I) == principal_oracle(I)

    def test_large_norm_is_not_a_scan(self):
        # (10^12) has norm 10^24: the element scan of norm N(I) ran over
        # about 7 * 10^11 values of y, lattice reduction takes one step
        src = str(Path(cotorsion.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "cotorsion", "ideal", "principal",
             "--disc", "-2", "--gens", "1000000000000"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert '"generator": {"x": 1000000000000, "y": 0}' in done.stdout

    def test_generator_recovers_ideal(self):
        rng = random.Random(47)
        for K in (KI, K5, ring(-3)):
            for _ in range(25):
                g = random_element(rng, K)
                if g.is_zero():
                    continue
                I = ideal_from_generators(K, [g])
                found = is_principal(I)
                assert found is not None
                assert ideal_from_generators(K, [found]) == I


class TestCrtAndAvoiding:
    def test_single_residue(self):
        I = ideal_from_generators(KI, [KI.element(1, 1)])
        (x,) = crt_idempotents([I])
        assert I.contains(x - KI.one)
        assert crt_idempotents([]) == []

    def test_two_comaximal(self):
        I = ideal_from_generators(KI, [KI.element(1, 1)])
        J = ideal_from_generators(KI, [KI.element(3)])
        x, y = crt_idempotents([I, J])
        assert I.contains(x - KI.one) and J.contains(x)
        assert J.contains(y - KI.one) and I.contains(y)

    def test_idempotents_of_comaximal_families(self):
        # 1-3 pairwise comaximal prime powers, split, inert and ramified
        rng = random.Random(49)
        for K in (KI, K5, ring(-3), ring(-23), ring(-71)):
            powers = [
                ideal_pow(pa.ideal, k)
                for p in (2, 3, 5, 7)
                for pa in primes_above(K, p)
                for k in (1, 2)
            ]
            for _ in range(30):
                size = rng.randint(1, 3)
                family = rng.sample(powers, size)
                if any(
                    not ideal_sum(I, J).is_unit_ideal()
                    for i, I in enumerate(family)
                    for J in family[i + 1:]
                ):
                    with pytest.raises(NonComaximal):
                        crt_idempotents(family)
                    continue
                es = crt_idempotents(family)
                assert len(es) == size
                for i, e in enumerate(es):
                    for j, J in enumerate(family):
                        assert J.contains(e - K.one if i == j else e)

    def test_noncomaximal_rejected(self):
        I = ideal_from_generators(KI, [KI.element(2)])
        J = ideal_from_generators(KI, [KI.element(1, 1)])
        with pytest.raises(NonComaximal):
            express_one(I, J)
        with pytest.raises(NonComaximal):
            crt_idempotents([I, J])

    def test_express_one(self):
        rng = random.Random(48)
        for K in (KI, K5):
            primes = [pa.ideal for p in (2, 3, 5, 7) for pa in primes_above(K, p)]
            for _ in range(20):
                I, J = rng.sample(primes, 2)
                if not ideal_sum(I, J).is_unit_ideal():
                    continue
                a, b = express_one(I, J)
                assert I.contains(a) and J.contains(b)
                assert a + b == K.one
