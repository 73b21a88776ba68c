import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cotorsion import intmat


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def spans_equal(rows1, rows2):
    h1, h2 = intmat.row_hnf(rows1), intmat.row_hnf(rows2)
    return h1 == h2


class TestRowHnf:
    def test_canonical_shape(self):
        rng = random.Random(7)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            H = intmat.row_hnf(A)
            # echelon with positive pivots and reduced columns above pivots
            last = -1
            for row in H:
                col = next(j for j, v in enumerate(row) if v)
                assert col > last
                last = col
                assert row[col] > 0
            for i, row in enumerate(H):
                col = next(j for j, v in enumerate(row) if v)
                for k in range(i):
                    assert 0 <= H[k][col] < row[col]

    def test_idempotent_and_span_preserving(self):
        rng = random.Random(8)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 4), 3)
            H = intmat.row_hnf(A)
            assert intmat.row_hnf(H) == H
            assert all(intmat.in_lattice(H, r) for r in A)
            assert all(
                intmat.in_lattice(intmat.row_hnf(A + [[0, 0, 0]]), r) for r in H
            )


_ROWS2 = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=8
)


class TestHnf2:
    @settings(deadline=None, max_examples=500)
    @given(_ROWS2)
    def test_matches_row_hnf(self, rows):
        H = intmat.row_hnf(rows)
        h = intmat.hnf2(rows)
        if len(H) < 2:
            assert h is None
        else:
            assert h == (tuple(H[0]), tuple(H[1]))

    @settings(deadline=None, max_examples=500)
    @given(_ROWS2, st.integers(-120, 120), st.integers(-120, 120))
    def test_contains_matches_in_lattice(self, rows, x, y):
        h = intmat.hnf2(rows)
        if h is not None:
            assert intmat.hnf2_contains(h, x, y) == intmat.in_lattice(h, (x, y))

    def test_rank_deficient_inputs(self):
        assert intmat.hnf2([]) is None
        assert intmat.hnf2([(0, 0), (0, 5)]) is None
        assert intmat.hnf2([(2, 4), (-3, -6), (0, 0)]) is None
        assert intmat.hnf2([(-2, 4), (0, -6)]) == ((2, 2), (0, 6))


class TestIntersect:
    def test_membership_characterization(self):
        rng = random.Random(11)
        for _ in range(50):
            B1 = random_matrix(rng, 2, 2, -5, 5)
            B2 = random_matrix(rng, 2, 2, -5, 5)
            if intmat.det(B1) == 0 or intmat.det(B2) == 0:
                continue
            H = intmat.lattice_intersect(B1, B2)
            h1, h2 = intmat.row_hnf(B1), intmat.row_hnf(B2)
            for x in range(-6, 7):
                for y in range(-6, 7):
                    both = intmat.in_lattice(h1, [x, y]) and intmat.in_lattice(h2, [x, y])
                    assert intmat.in_lattice(H, [x, y]) == both


class TestSmith:
    def test_transforms_and_divisibility(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randint(1, 4)
            A = random_matrix(rng, n, n)
            D, U, V = intmat.smith_normal_form(A)
            assert intmat.mat_mul(intmat.mat_mul(U, A), V) == D
            assert intmat.det(U) in (1, -1) and intmat.det(V) in (1, -1)
            diag = [D[i][i] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert D[i][j] == 0
            for a, b in zip(diag, diag[1:]):
                if a and b:
                    assert b % a == 0
                if a == 0:
                    assert b == 0

    def test_invariants_basis_independent(self):
        rng = random.Random(13)
        A = [[2, 0, 0], [0, 6, 0], [0, 0, 12]]
        base = intmat.smith_invariants(A)
        for _ in range(20):
            # random unimodular row mix
            B = [row[:] for row in A]
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                c = rng.randint(-3, 3)
                B[i] = [a + c * b for a, b in zip(B[i], B[j])]
            assert intmat.smith_invariants(B) == base == [2, 6, 12]
