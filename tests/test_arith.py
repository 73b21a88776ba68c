import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotorsion import arith
from cotorsion.arith import (
    crt_pair,
    divisors,
    factorize,
    is_square,
    sigma,
    sqrt_mod,
    xgcd,
)
from cotorsion.errors import DegenerateInput, OutOfRange


class TestSqrtMod:
    def test_matches_scan(self):
        for p in (2, 3, 5, 7, 13, 17, 41, 97, 193, 257, 641, 673):
            squares = {x * x % p: min(x, p - x) for x in range(p)}
            for a in range(p):
                if a in squares:
                    assert sqrt_mod(a, p) == squares[a]
                else:
                    with pytest.raises(DegenerateInput):
                        sqrt_mod(a, p)

    def test_large_two_adic_order(self):
        # p - 1 = 2^16: the Tonelli-Shanks loop runs up to 16 rounds
        p = 65537
        for x in (2, 3, 256, 12345, 40000, p - 1):
            assert sqrt_mod(x * x, p) == min(x, p - x)

    def test_reduces_argument(self):
        assert sqrt_mod(-1, 5) == sqrt_mod(4, 5) == 2


class TestXgcd:
    def test_identity_case(self):
        assert xgcd(1, 0) == (1, 1, 0)

    def test_small_pair(self):
        g, x, y = xgcd(6, 4)
        assert g == 2
        assert 6 * x + 4 * y == 2

    def test_coprime_pair(self):
        g, x, y = xgcd(35, 12)
        assert g == 1
        assert 35 * x + 12 * y == 1

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            xgcd(0, 0)

    def test_bezout_random_pairs(self):
        rng = random.Random(20240)
        for _ in range(10**4):
            a = rng.randint(-10**9, 10**9)
            b = rng.randint(-10**9, 10**9)
            if a == 0 and b == 0:
                continue
            g, x, y = xgcd(a, b)
            assert g == math.gcd(a, b) >= 1
            assert a * x + b * y == g

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
    def test_bezout_property(self, a, b):
        if a == 0 and b == 0:
            return
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestFactorize:
    def test_one(self):
        assert factorize(1) == ()

    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_prime(self):
        # 9973 is prime: no divisor up to isqrt survives trial division
        assert factorize(9973) == ((9973, 1),)

    def test_product_roundtrip(self):
        for n in range(1, 10**4 + 1):
            f = factorize(n)
            assert type(f) is tuple
            assert math.prod(p**e for p, e in f) == n
            ps = [p for p, _ in f]
            assert all(ps[i] < ps[i + 1] for i in range(len(ps) - 1))
            assert all(e >= 1 for _, e in f)

    def test_out_of_range(self, monkeypatch):
        with pytest.raises(OutOfRange):
            factorize(0)
        monkeypatch.setattr(arith, "TRIAL_DIVISION_BOUND", 10)
        with pytest.raises(OutOfRange):
            factorize(101 * 103)

    def test_large_prime_within_bound(self, monkeypatch):
        monkeypatch.setattr(arith, "TRIAL_DIVISION_BOUND", 10**4)
        assert factorize(99_999_989) == ((99_999_989, 1),)


class TestSigma:
    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 12), (12, 28)])
    def test_values(self, n, expected):
        assert sigma(n) == expected

    def test_matches_divisor_sum(self):
        for n in range(1, 2000):
            assert sigma(n) == sum(divisors(n))

    def test_multiplicative_on_coprime_pairs(self):
        for m in range(1, 101):
            for n in range(1, 10**4 // m + 1):
                if math.gcd(m, n) == 1:
                    assert sigma(m * n) == sigma(m) * sigma(n)


class TestDivisors:
    def test_one(self):
        assert divisors(1) == [1]

    def test_twelve(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_brute_force(self):
        for n in (36, 97, 360):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


class TestIsSquare:
    @pytest.mark.parametrize(
        "n,expected", [(1, (True, 1)), (4, (True, 2)), (12, (False, None))]
    )
    def test_values(self, n, expected):
        assert is_square(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(OutOfRange):
            is_square(0)


class TestCrtPair:
    def test_basic(self):
        x = crt_pair(1, 4, 2, 9)
        assert x % 4 == 1 and x % 9 == 2

    def test_noncoprime_rejected(self):
        with pytest.raises(DegenerateInput):
            crt_pair(0, 4, 1, 6)
