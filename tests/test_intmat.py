import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cotorsion import intmat


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def degenerate_matrix(rng, m, n):
    """Random m x n matrix that often has a zero column, a repeated row or a
    row that is a combination of two others, so it is often rank-deficient."""
    A = random_matrix(rng, m, n, -6, 6)
    if rng.random() < 0.3:
        c = rng.randrange(n)
        for row in A:
            row[c] = 0
    if m > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        A[j] = list(A[i])
    if m > 2 and rng.random() < 0.3:
        i, j, k = rng.sample(range(m), 3)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        A[k] = [a * x + b * y for x, y in zip(A[i], A[j])]
    return A


def spans_equal(rows1, rows2):
    h1, h2 = intmat.row_hnf(rows1), intmat.row_hnf(rows2)
    return h1 == h2


def assert_canonical(H):
    """Echelon with positive pivots and entries reduced above each pivot."""
    last = -1
    for i, row in enumerate(H):
        col = next(j for j, v in enumerate(row) if v)
        assert col > last
        last = col
        assert row[col] > 0
        for k in range(i):
            assert 0 <= H[k][col] < row[col]


class TestRowHnf:
    def test_canonical_shape(self):
        rng = random.Random(7)
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert_canonical(intmat.row_hnf(A))

    def test_eliminate_never_sees_a_zero_pivot(self, monkeypatch):
        # _eliminate has no branch for a zero pivot: _hnf_inplace swaps a
        # nonzero entry in, and each step leaves that entry or a gcd >= 1
        eliminate = intmat._eliminate
        pivots = []

        def checked(rows, pr, i, col):
            pivots.append(rows[pr][col])
            eliminate(rows, pr, i, col)

        monkeypatch.setattr(intmat, "_eliminate", checked)
        rng = random.Random(17)
        deficient = zero_column = repeated = 0
        for _ in range(600):
            m, n = rng.randint(1, 6), rng.randint(2, 5)
            A = degenerate_matrix(rng, m, n)
            H = intmat.row_hnf(A)
            assert_canonical(H)
            assert all(intmat.in_lattice(H, r) for r in A)
            deficient += len(H) < min(m, n)
            zero_column += any(not any(col) for col in zip(*A))
            repeated += len({tuple(r) for r in A}) < m
        assert 0 not in pivots
        assert len(pivots) > 1000
        assert min(deficient, zero_column, repeated) > 50

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
        # lattice_intersect returns stacked_hnf's zero-left rows without a
        # second HNF, so they must already be the canonical basis
        rng = random.Random(19)
        deficient = 0
        for _ in range(150):
            n = rng.randint(2, 4)
            B1 = degenerate_matrix(rng, rng.randint(1, 5), n)
            B2 = degenerate_matrix(rng, rng.randint(1, 5), n)
            H = intmat.lattice_intersect(B1, B2)
            assert intmat.row_hnf(H) == H
            h1, h2 = intmat.row_hnf(B1), intmat.row_hnf(B2)
            deficient += len(h1) < n or len(h2) < n
            for v in itertools.product(range(-2, 3), repeat=n):
                both = intmat.in_lattice(h1, v) and intmat.in_lattice(h2, v)
                assert intmat.in_lattice(H, v) == both
        assert deficient > 20


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
