import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cotorsion
from cotorsion import intmat, okmodules
from cotorsion.errors import (
    BadInvariants,
    BadProduct,
    DegenerateInput,
    InternalInconsistency,
    NonComaximal,
    NotFullRank,
    NotUnimodular,
    OutOfRange,
)
from cotorsion.okmodules import (
    CotorsionModule,
    _colon_rows,
    _module_of,
    annihilator,
    enumerate_cotorsion,
    enumerate_cotorsion_bruteforce,
    full_module,
    intersect,
    invariant_ideals,
    is_omega_stable,
    module_from_generators,
    module_from_hnf,
    proj_invariant_element,
    reconstruct,
    verify_intersection_theorem,
    witnesses,
)
from cotorsion.okproj import (
    OkProjPoint,
    is_unimodular_pair,
    ok_cardinality,
    ok_class_of,
    ok_crt_join,
    ok_enumerate,
    ok_representatives,
)
from cotorsion.quadring import (
    QuadInt,
    enumerate_ideals,
    ideal_from_generators,
    ideal_from_hnf,
    ideal_mul,
    ideal_quotient,
    ideal_sum,
    is_principal,
    primes_above,
    ring,
    unit_ideal,
)
from test_okproj import orbit_least, representatives_oracle, unimodular_oracle

KI = ring(-1)
K5 = ring(-5)
ONE_PLUS_I = ideal_from_generators(KI, [KI.element(1, 1)])
P2 = ideal_from_generators(K5, [K5.element(2), K5.element(1, 1)])


def invariant_pairs(K, n):
    """All (L, K) with N(L)*N(K) = n and K within L."""
    out = []
    for ln in range(1, n + 1):
        if n % ln:
            continue
        for L in enumerate_ideals(K, ln):
            for Kid in enumerate_ideals(K, n // ln):
                if L.contains_ideal(Kid):
                    out.append((L, Kid))
    return out


def module_of_oracle(L, Kid, a, b):
    """L*(a, b) + K*O^2 with the rows as QuadInt products."""
    zero = L.ring.element(0)
    rows = [[*(l * a).coords(), *(l * b).coords()] for l in L.basis()]
    for k in Kid.basis():
        rows += [[*k.coords(), *zero.coords()], [*zero.coords(), *k.coords()]]
    return CotorsionModule(L.ring, tuple(tuple(r) for r in intmat.row_hnf(rows)))


def colon_rows_oracle(M, L):
    """conj(l)*M / N(L) for the Z-basis l of L, with QuadInt products."""
    n = L.norm
    rows = []
    for c in L.basis():
        for a, b in M.basis_pairs():
            row = [*(c.conj() * a).coords(), *(c.conj() * b).coords()]
            assert all(v % n == 0 for v in row)
            rows.append([v // n for v in row])
    return rows


def omega_stable_oracle(K, hnf_rows):
    """Whether w times each basis pair, as QuadInt products, lies in the lattice."""
    w = K.omega
    rows = [list(r) for r in hnf_rows]
    images = [[*(QuadInt(K, x1, y1) * w).coords(), *(QuadInt(K, x2, y2) * w).coords()]
              for x1, y1, x2, y2 in rows]
    return all(intmat.in_lattice(rows, img) for img in images)


def generated_module_oracle(K, gens):
    """The O-span of gens as the row HNF of each pair and its QuadInt w-multiple."""
    w = K.omega
    rows = []
    for a, b in gens:
        rows += [[*a.coords(), *b.coords()], [*(a * w).coords(), *(b * w).coords()]]
    return CotorsionModule(K, tuple(tuple(r) for r in intmat.row_hnf(rows)))


class TestConstruction:
    def test_full_module(self):
        F = full_module(KI)
        assert F.quotient_size == 1
        assert F.hnf4 == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))

    def test_scaled_by_one_plus_i(self):
        g = KI.element(1, 1)
        zero = KI.element(0)
        M = module_from_generators(KI, [(g, zero), (KI.one, zero), (zero, g)])
        # first coordinate spans O, second spans (1+i): index 2
        assert M.quotient_size == 2

    def test_p2_summand(self):
        zero = K5.element(0)
        M = module_from_generators(
            K5, [(K5.element(2), zero), (K5.element(1, 1), zero), (zero, K5.one)]
        )
        assert M.quotient_size == 2
        assert annihilator(M) == P2

    def test_rejects_rank_deficient(self):
        zero = KI.element(0)
        with pytest.raises(NotFullRank):
            module_from_generators(KI, [(KI.one, zero)])
        with pytest.raises(NotFullRank):
            module_from_hnf(KI, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))

    def test_from_hnf_requires_omega_stability(self):
        with pytest.raises(BadInvariants):
            module_from_hnf(
                KI, ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
            )

    @pytest.mark.parametrize("d", [-1, -5, -23])
    def test_from_hnf_rebuilds_every_small_module(self, d):
        # any basis of a module, canonical or mixed by a unimodular matrix,
        # gives that module back
        K = ring(d)
        rng = random.Random(61)
        modules = [
            M for n in range(1, 13) for L, Kid in invariant_pairs(K, n)
            for M in enumerate_cotorsion(L, Kid)
        ]
        assert len(modules) > 30
        for M in modules:
            assert module_from_hnf(K, M.hnf4) == M
            U = [[int(i == j) for j in range(4)] for i in range(4)]
            for _ in range(12):
                i, j = rng.sample(range(4), 2)
                q = rng.randint(-3, 3)
                U[i] = [v + q * w for v, w in zip(U[i], U[j])]
            rng.shuffle(U)
            mixed = intmat.mat_mul(U, [list(r) for r in M.hnf4])
            assert abs(intmat.det(U)) == 1 and mixed != [list(r) for r in M.hnf4]
            assert module_from_hnf(K, mixed) == M

    def test_omega_stable_by_construction(self):
        rng = random.Random(60)
        for K in (KI, K5):
            for _ in range(20):
                gens = []
                for _ in range(3):
                    gens.append(
                        (
                            K.element(rng.randint(-3, 3), rng.randint(-3, 3)),
                            K.element(rng.randint(-3, 3), rng.randint(-3, 3)),
                        )
                    )
                try:
                    M = module_from_generators(K, gens)
                except NotFullRank:
                    continue
                assert is_omega_stable(K, M.hnf4)


class TestAnnihilator:
    def test_full_module(self):
        assert annihilator(full_module(KI)) == unit_ideal(KI)

    def test_scalar_module(self):
        g = KI.element(1, 1)
        zero = KI.element(0)
        M = module_from_generators(KI, [(g, zero), (zero, g)])
        assert annihilator(M) == ONE_PLUS_I

    def test_matches_definition(self):
        # x in ann(M) iff x*e1 and x*e2 lie in M; scan a small box
        rng = random.Random(61)
        for K in (KI, K5):
            for _ in range(10):
                gens = [
                    (
                        K.element(rng.randint(-2, 2), rng.randint(-2, 2)),
                        K.element(rng.randint(-2, 2), rng.randint(-2, 2)),
                    )
                    for _ in range(3)
                ]
                try:
                    M = module_from_generators(K, gens)
                except NotFullRank:
                    continue
                ann = annihilator(M)
                zero = K.element(0)
                for x in range(-4, 5):
                    for y in range(-4, 5):
                        el = K.element(x, y)
                        in_ann = M.contains((el, zero)) and M.contains((zero, el))
                        assert ann.contains(el) == in_ann


class TestInvariantIdeals:
    def test_full_module(self):
        L, Kid = invariant_ideals(full_module(KI))
        assert L == unit_ideal(KI) and Kid == unit_ideal(KI)

    def test_cyclic_quotient(self):
        zero = KI.element(0)
        M = module_from_generators(KI, [(KI.one, KI.one), (zero, KI.element(1, 1))])
        L, Kid = invariant_ideals(M)
        assert L == unit_ideal(KI)
        assert Kid == ONE_PLUS_I
        # quotient is cyclic of order 2
        assert intmat.smith_invariants([list(r) for r in M.hnf4]) == [1, 1, 1, 2]

    def test_p2_twice(self):
        zero = K5.element(0)
        gens = [
            (K5.element(2), zero),
            (K5.element(1, 1), zero),
            (zero, K5.element(2)),
            (zero, K5.element(1, 1)),
        ]
        M = module_from_generators(K5, gens)
        L, Kid = invariant_ideals(M)
        assert L == P2 and Kid == P2
        assert ideal_quotient(Kid, L).is_unit_ideal()

    def test_entry_ideal_oracle(self):
        # the ideal generated by all basis entries is an independent route to L
        for K in (KI, K5):
            for n in range(2, 13):
                for L, Kid in invariant_pairs(K, n):
                    for M in enumerate_cotorsion(L, Kid)[:3]:
                        entries = [
                            el
                            for pair in M.basis_pairs()
                            for el in pair
                            if not el.is_zero()
                        ]
                        assert ideal_from_generators(M.ring, entries) == L

    def test_quotient_shape_matches_ideals(self):
        # Z-Smith invariants of O^2/M equal those of O/L + O/K
        for K in (KI, K5):
            for n in range(1, 13):
                for L, Kid in invariant_pairs(K, n):
                    for M in enumerate_cotorsion(L, Kid)[:4]:
                        # the kernel route to K is the oracle for the block route
                        assert invariant_ideals(M) == (L, Kid)
                        assert annihilator(M) == Kid
                        # the HNF blocks A (first coordinates) and B (M ∩ 0 + O)
                        # multiply to the ideal of 2x2 minors, which is L*K
                        h = M.hnf4
                        A = ideal_from_hnf(K, ((h[0][0], h[0][1]), (0, h[1][1])))
                        B = ideal_from_hnf(K, ((h[2][2], h[2][3]), (0, h[3][3])))
                        pairs = M.basis_pairs()
                        minors = [
                            pairs[i][0] * pairs[j][1] - pairs[j][0] * pairs[i][1]
                            for i in range(4)
                            for j in range(i + 1, 4)
                        ]
                        assert ideal_mul(A, B) == ideal_from_generators(K, minors)
                        assert ideal_mul(A, B) == ideal_mul(L, Kid)
                        got = intmat.smith_invariants([list(r) for r in M.hnf4])
                        expected = sorted(
                            intmat.smith_invariants([list(r) for r in L.hnf])
                            + intmat.smith_invariants([list(r) for r in Kid.hnf])
                        )
                        assert sorted(got) == expected


class TestProjInvariantElement:
    def test_full_module_trivial_point(self):
        data = proj_invariant_element(full_module(KI))
        assert data.I.is_unit_ideal()
        assert data.point.modulus.is_unit_ideal()

    def test_cyclic_example(self):
        zero = KI.element(0)
        M = module_from_generators(KI, [(KI.one, KI.one), (zero, KI.element(1, 1))])
        data = proj_invariant_element(M)
        assert data.point == ok_class_of(KI.one, KI.one, ONE_PLUS_I)

    def test_witness_triples_are_witnesses(self):
        zero = K5.element(0)
        M = module_from_generators(
            K5, [(K5.one, K5.one), (zero, K5.element(2)), (zero, K5.element(1, 1))]
        )
        L, Kid = invariant_ideals(M)
        count = 0
        for t, a, b, I in witnesses(M):
            assert M.contains((t * a, t * b))
            assert L.contains(t)
            count += 1
            if count == 5:
                break
        assert count == 5

    def test_witness_independence(self):
        # distinct witnesses always canonicalize to the same point
        rng = random.Random(62)
        checked = 0
        pool = []
        for K in (KI, K5):
            for n in range(2, 41):
                pool.extend(
                    (K, L, Kid) for L, Kid in invariant_pairs(K, n)
                )
        rng.shuffle(pool)
        for K, L, Kid in pool:
            if checked >= 100:
                break
            I = ideal_quotient(Kid, L)
            if I.is_unit_ideal():
                continue
            pts = ok_enumerate(I)
            M = reconstruct(L, Kid, pts[rng.randrange(len(pts))])
            classes = set()
            for i, (t, a, b, Iw) in enumerate(witnesses(M)):
                classes.add(ok_class_of(a, b, Iw))
                if i == 4:
                    break
            # the paper's witness construction is the oracle for the linear-algebra point
            assert classes == {proj_invariant_element(M).point}
            checked += 1
        assert checked == 100

    def test_nonprincipal_content_ideal(self):
        # L is not principal, which kept the witness search scanning for ~20 s
        K = ring(-71)
        M = module_from_generators(
            K,
            [
                (K.element(0, -3), K.element(0, -2)),
                (K.element(-3, 0), K.element(0, -2)),
            ],
        )
        data = proj_invariant_element(M)
        assert is_principal(data.L) is None
        assert (data.L.norm, data.I.norm) == (3, 1296)
        assert reconstruct(data.L, data.K, data.point) == M

    @settings(deadline=None)
    @given(
        st.sampled_from([-1, -5, -23, -71]),
        st.lists(st.integers(-2, 2), min_size=8, max_size=8),
    )
    @example(-5, [2, 0, 1, 1, 0, 0, 1, 1])  # L = (2, 1+w), not principal
    def test_round_trip_random_generators(self, d, c):
        K = ring(d)
        gens = [
            (K.element(c[0], c[1]), K.element(c[2], c[3])),
            (K.element(c[4], c[5]), K.element(c[6], c[7])),
        ]
        try:
            M = module_from_generators(K, gens)
        except NotFullRank:
            assume(False)
        data = proj_invariant_element(M)
        # L is the ideal of all generator coordinates (entry-ideal oracle)
        assert data.L == ideal_from_generators(K, [e for g in gens for e in g])
        assert data.point.modulus == data.I
        # the point is the least reduced pair over its unit orbit
        a, b = data.point.rep()
        assert orbit_least(a, b, data.I) == data.point.a + data.point.b
        assert reconstruct(data.L, data.K, data.point) == M


class TestInternalChecks:
    def test_check_survives_optimize_flag(self):
        # each check must raise even when python -O strips asserts: a wrong
        # colon ideal breaks the index check of invariant_ideals (its module
        # has L = (1+i) != O, so returning L*K for K is wrong), a wrong
        # ideal power breaks the reassembly in factor_ideal, a missing
        # primitive vector breaks latenum.classify, and rings must match
        script = textwrap.dedent(
            """
            import sys
            from cotorsion import latenum, lattice2, okmodules, quadring
            from cotorsion.errors import DegenerateInput, InternalInconsistency
            if not sys.flags.optimize:
                sys.exit("not run under -O")
            K = quadring.ring(-1)

            def expect(error, call, *args):
                try:
                    call(*args)
                except error:
                    print("raised")

            g = K.element(1, 1)
            M = okmodules.module_from_generators(K, [(g, g), (K.element(0), g * g)])
            okmodules.ideal_quotient = lambda I, J: I
            expect(InternalInconsistency, okmodules.invariant_ideals, M)
            I = quadring.ideal_from_generators(K, [K.element(6)])
            quadring.ideal_pow = lambda P, e: quadring.unit_ideal(K)
            expect(InternalInconsistency, quadring.factor_ideal, I)
            latenum.contains = lambda lat, v: False
            expect(InternalInconsistency, latenum.classify, lattice2.Lattice2(((1, 2), (0, 4))))
            K5 = quadring.ring(-5)
            expect(DegenerateInput, quadring.ideal_mul, I, quadring.unit_ideal(K5))
            """
        )
        src = str(Path(cotorsion.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["raised"] * 4


class TestIntegerRowBuilders:
    """The integer row builders against the QuadInt products they replace."""

    @pytest.mark.parametrize("d", [-1, -5, -23, -71])
    def test_every_stratum_up_to_norm_30(self, d):
        K = ring(d)
        box = [K.element(x, y) for x in range(3) for y in range(3)]
        outcomes = {"unimodular": set(), "omega_stable": set()}
        strata = [s for n in range(1, 31) for s in invariant_pairs(K, n)]
        for L, Kid in strata:
            I = ideal_quotient(Kid, L)
            reps = ok_representatives(I)
            assert reps == representatives_oracle(I)
            for a, b in [(a, b) for a in box for b in box] + reps:
                found = is_unimodular_pair(a, b, I)
                assert found == unimodular_oracle(a, b, I)
                outcomes["unimodular"].add(found)
            for a, b in reps:
                M = _module_of(L, Kid, I, a, b)
                assert M == module_of_oracle(L, Kid, a, b)
                assert _colon_rows(M, L) == colon_rows_oracle(M, L)
                assert module_from_generators(K, M.basis_pairs()) == generated_module_oracle(
                    K, M.basis_pairs()) == M
                # the module and a lattice one entry off it, which may not be w-stable
                nudged = [list(r) for r in M.hnf4]
                nudged[0][1] += 1
                for rows in (M.hnf4, nudged):
                    found = is_omega_stable(K, rows)
                    assert found == omega_stable_oracle(K, rows)
                    outcomes["omega_stable"].add(found)
        assert outcomes == {"unimodular": {True, False}, "omega_stable": {True, False}}

    def test_colon_rows_refuse_a_module_outside_l(self):
        # (M : L) = conj(L)*M / N(L) is exact only when M lies in L*O^2
        M = module_from_generators(K5, [(P2.basis()[0], K5.element(0)), (K5.element(0), K5.one)])
        assert len(_colon_rows(M, unit_ideal(K5))) == 8
        with pytest.raises(InternalInconsistency):
            _colon_rows(M, P2)

    def test_generators_from_another_ring_rejected(self):
        with pytest.raises(DegenerateInput):
            module_from_generators(K5, [(KI.one, K5.one), (K5.element(0), K5.one)])

    def test_no_quadint_products_when_classifying(self, monkeypatch):
        # enumerating, classifying and rebuilding work on integer rows: after
        # one warm-up pass they multiply no QuadInt
        products = []
        mul = QuadInt.__mul__

        def counting_mul(self, other):
            products.append((self, other))
            return mul(self, other)

        strata = [s for d in (-1, -5, -23, -71) for n in (6, 9, 12)
                  for s in invariant_pairs(ring(d), n)]

        def classify_and_rebuild(strata):
            for L, Kid in strata:
                for M in enumerate_cotorsion(L, Kid):
                    data = proj_invariant_element(M)
                    assert reconstruct(data.L, data.K, data.point) == M

        classify_and_rebuild(strata[:1])
        monkeypatch.setattr(QuadInt, "__mul__", counting_mul)
        monkeypatch.setattr(QuadInt, "__rmul__", counting_mul)
        classify_and_rebuild(strata)
        assert products == []
        KI.one * 2
        assert len(products) == 1


class TestReconstruct:
    def test_unit_invariants_give_full_module(self):
        O = unit_ideal(KI)
        p = proj_invariant_element(full_module(KI)).point
        assert reconstruct(O, O, p) == full_module(KI)

    def test_matches_generator_construction(self):
        zero = KI.element(0)
        p = ok_class_of(KI.one, KI.one, ONE_PLUS_I)
        M = reconstruct(unit_ideal(KI), ONE_PLUS_I, p)
        expected = module_from_generators(
            KI, [(KI.one, KI.one), (zero, KI.element(1, 1))]
        )
        assert M == expected

    def test_enumeration_bound(self, monkeypatch):
        # K = (3) over Z[i]: I = (3) is inert, so |PF^1_I| = 9 + 1
        three = ideal_from_generators(KI, [KI.element(3)])
        monkeypatch.setattr(okmodules, "ENUMERATION_BOUND", 9)
        with pytest.raises(OutOfRange):
            enumerate_cotorsion(unit_ideal(KI), three)
        monkeypatch.setattr(okmodules, "ENUMERATION_BOUND", 10)
        assert len(enumerate_cotorsion(unit_ideal(KI), three)) == 10

    def test_three_points_three_modules(self):
        mods = enumerate_cotorsion(unit_ideal(K5), P2)
        assert len(mods) == len(set(mods)) == 3
        assert all(M.quotient_size == 2 for M in mods)

    def test_bad_invariants(self):
        p = ok_class_of(K5.one, K5.element(0), P2)
        with pytest.raises(BadInvariants):
            reconstruct(P2, P2, p)  # K != L*I for point modulus P2

    def test_rejects_non_unimodular_point(self):
        # (1+i, 1+i) lies in the prime (1+i): no module has it as its point
        p = OkProjPoint(ONE_PLUS_I, (1, 1), (1, 1))
        with pytest.raises(NotUnimodular):
            reconstruct(unit_ideal(KI), ONE_PLUS_I, p)

    def test_round_trip_small(self):
        for K in (KI, K5):
            for n in range(1, 17):
                for L, Kid in invariant_pairs(K, n):
                    mods = enumerate_cotorsion(L, Kid)
                    I = ideal_quotient(Kid, L)
                    assert len(mods) == len(set(mods)) == ok_cardinality(I)
                    for M in mods:
                        data = proj_invariant_element(M)
                        assert (data.L, data.K) == (L, Kid)
                        assert reconstruct(data.L, data.K, data.point) == M

    def test_injectivity_in_point(self):
        for K in (KI, K5):
            for L, Kid in invariant_pairs(K, 12):
                I = ideal_quotient(Kid, L)
                seen = {}
                for p in ok_enumerate(I):
                    M = reconstruct(L, Kid, p)
                    assert M not in seen
                    seen[M] = p


class TestBruteForceCompleteness:
    def test_all_modules_appear_once(self):
        for K in (KI, K5):
            for n in range(1, 9):
                brute = enumerate_cotorsion_bruteforce(K, n)
                assert all(M.quotient_size == n for M in brute)
                assembled = []
                for L, Kid in invariant_pairs(K, n):
                    assembled.extend(enumerate_cotorsion(L, Kid))
                assert len(assembled) == len(set(assembled))
                assert set(brute) == set(assembled)

    def test_counts_match_zeta_coefficient(self):
        from cotorsion.dirichlet import convolve, series_ideal_count, series_shift

        for K in (KI, K5):
            N = 50
            counts = series_ideal_count(K, N)
            rhs = convolve(series_shift(counts), counts)
            for n in range(1, 13):
                assert len(enumerate_cotorsion_bruteforce(K, n)) == rhs.a(n)

    @pytest.mark.parametrize("d", [-23, -71])
    def test_enumeration_matches_zeta_coefficient_at_scale(self, d):
        # class numbers 3 and 7: the projective lines enumerate every
        # module, stratum by stratum, up to quotient size 100
        from cotorsion.dirichlet import series_ok_module_count

        K = ring(d)
        N = 100
        series = series_ok_module_count(K, N)
        for n in range(1, N + 1):
            total = 0
            for L, Kid in invariant_pairs(K, n):
                mods = enumerate_cotorsion(L, Kid)
                assert len(set(mods)) == len(mods)
                total += len(mods)
            assert total == series.a(n), n


class TestOtherDiscriminants:
    # D = 1 mod 4 rings use the other omega convention; -15 has class number 2
    @pytest.mark.parametrize("d", [-3, -7, -15])
    def test_round_trip_and_completeness(self, d):
        K = ring(d)
        for n in range(1, 9):
            brute = set(enumerate_cotorsion_bruteforce(K, n))
            assembled = set()
            for L, Kid in invariant_pairs(K, n):
                for M in enumerate_cotorsion(L, Kid):
                    data = proj_invariant_element(M)
                    assert (data.L, data.K) == (L, Kid)
                    assert reconstruct(data.L, data.K, data.point) == M
                    assert M not in assembled
                    assembled.add(M)
            assert brute == assembled


class TestIntersect:
    def test_intersect_with_full_module(self):
        zero = KI.element(0)
        M = module_from_generators(KI, [(KI.one, KI.one), (zero, KI.element(3))])
        assert intersect(M, full_module(KI)) == M

    def test_example_qi(self):
        zero = KI.element(0)
        three = ideal_from_generators(KI, [KI.element(3)])
        M1 = reconstruct(
            unit_ideal(KI), ONE_PLUS_I, ok_class_of(KI.one, KI.one, ONE_PLUS_I)
        )
        M2 = reconstruct(
            unit_ideal(KI), three, ok_class_of(KI.one, KI.element(2), three)
        )
        report = verify_intersection_theorem([M1, M2])
        assert report.ok
        data = proj_invariant_element(report.intersection)
        assert data.K == ideal_mul(ONE_PLUS_I, three)
        assert data.L == unit_ideal(KI)

    def test_example_k5_nonprincipal(self):
        p3 = primes_above(K5, 3)[0].ideal
        M1 = reconstruct(unit_ideal(K5), P2, ok_enumerate(P2)[2])
        M2 = reconstruct(unit_ideal(K5), p3, ok_enumerate(p3)[1])
        report = verify_intersection_theorem([M1, M2])
        assert report.ok
        data = proj_invariant_element(report.intersection)
        assert data.K == ideal_mul(P2, p3)
        assert data.point == ok_crt_join(
            [
                proj_invariant_element(M1).point,
                proj_invariant_element(M2).point,
            ]
        )

    def test_noncomaximal_rejected(self):
        M1 = reconstruct(
            unit_ideal(KI), ONE_PLUS_I, ok_class_of(KI.one, KI.one, ONE_PLUS_I)
        )
        two = ideal_mul(ONE_PLUS_I, ONE_PLUS_I)
        M2 = reconstruct(
            unit_ideal(KI), two, ok_class_of(KI.one, KI.element(0), two)
        )
        with pytest.raises(NonComaximal):
            verify_intersection_theorem([M1, M2])

    def test_empty_list_rejected(self):
        with pytest.raises(BadProduct):
            verify_intersection_theorem([])

    def test_modules_over_different_rings_rejected(self):
        with pytest.raises(DegenerateInput):
            intersect(full_module(KI), full_module(K5))

    def test_triple_intersection(self):
        three = ideal_from_generators(KI, [KI.element(3)])
        five = primes_above(KI, 5)[0].ideal
        M1 = reconstruct(
            unit_ideal(KI), ONE_PLUS_I, ok_class_of(KI.one, KI.one, ONE_PLUS_I)
        )
        M2 = reconstruct(unit_ideal(KI), three, ok_class_of(KI.one, KI.element(2), three))
        M3 = reconstruct(unit_ideal(KI), five, ok_class_of(KI.element(0), KI.one, five))
        report = verify_intersection_theorem([M1, M2, M3])
        assert report.ok
        assert report.invariants == proj_invariant_element(report.intersection)

    def test_nonprincipal_l_witnesses(self):
        # L = P2 (not principal) on one side: t is built from the CRT
        # idempotents of the primes of K = P2 * p3 * p7, not searched
        p3 = primes_above(K5, 3)[0].ideal
        seven = primes_above(K5, 7)[0].ideal
        M1 = reconstruct(P2, ideal_mul(P2, p3), ok_enumerate(p3)[1])
        M2 = reconstruct(unit_ideal(K5), seven, ok_enumerate(seven)[3])
        report = verify_intersection_theorem([M1, M2])
        assert report.ok
        assert report.invariants.L == P2
        assert report.invariants.K == ideal_mul(ideal_mul(P2, p3), seven)
