import json
import math
from pathlib import Path

import pytest

from cotorsion import cli, intmat, latenum, okmodules, quadring
from cotorsion.arith import sigma
from cotorsion.errors import OutOfRange
from cotorsion.latenum import classify, enumerate_index, hnf_oracle, strata
from cotorsion.lattice2 import Lattice2, reconstruct, smith
from cotorsion.okproj import ok_enumerate
from cotorsion.projline import class_of

GOLDEN_DIR = Path(__file__).parent


class TestStrata:
    def test_one(self):
        assert strata(1) == [(1, 1, 1)]

    def test_four(self):
        assert strata(4) == [(2, 2, 1), (1, 4, 4)]

    def test_twelve(self):
        assert strata(12) == [(2, 6, 3), (1, 12, 12)]

    def test_shape(self):
        for n in range(1, 200):
            for d1, d2, d in strata(n):
                assert d1 * d2 == n and d2 % d1 == 0 and d2 // d1 == d


class TestEnumerate:
    def test_index_one(self):
        assert enumerate_index(1) == [Lattice2(((1, 0), (0, 1)))]

    def test_index_two(self):
        rows = [lat.rows for lat in enumerate_index(2)]
        assert rows == [((1, 0), (0, 2)), ((1, 1), (0, 2)), ((2, 0), (0, 1))]

    def test_index_four_count(self):
        assert len(enumerate_index(4)) == 7 == sigma(4)

    def test_oracle_counts(self):
        assert len(hnf_oracle(1)) == 1
        assert len(hnf_oracle(2)) == 3
        assert len(hnf_oracle(6)) == 12 == sigma(6)

    def test_matches_oracle(self):
        for n in range(1, 121):
            assert enumerate_index(n) == hnf_oracle(n)

    def test_bound(self, monkeypatch):
        monkeypatch.setattr(latenum, "ENUMERATION_BOUND", 100)
        with pytest.raises(OutOfRange):
            enumerate_index(360)


class TestClassify:
    def test_examples(self):
        stratum, point = classify(Lattice2(((1, 2), (0, 4))))
        assert stratum == (1, 4, 4) and point == class_of(1, 2, 4)
        stratum, point = classify(Lattice2(((2, 0), (0, 2))))
        assert stratum == (2, 2, 1)
        stratum, point = classify(Lattice2(((1, 0), (0, 6))))
        assert stratum == (1, 6, 6) and point == class_of(1, 0, 6)

    def test_quotient_shape(self):
        # Smith invariants match the stratum (sqrt(n/d), sqrt(n*d))
        for n in range(1, 101):
            by_d = {d: (d1, d2) for d1, d2, d in strata(n)}
            for lat in enumerate_index(n):
                (d1, d2, d), _ = classify(lat)
                assert by_d[d] == (d1, d2)
                sd = smith(lat)
                assert (sd.d1, sd.d2) == (d1, d2)

    def test_cyclic_quotient_criterion(self):
        # d = n stratum <=> the lattice contains a coprime-coordinate vector
        for n in range(1, 61):
            for lat in hnf_oracle(n):
                (d1, _, d), _ = classify(lat)
                (r11, r12), (_, r22) = lat.rows
                has_primitive = any(
                    math.gcd(i * r11, i * r12 + j * r22) == 1
                    for i in range(-n, n + 1)
                    for j in range(-n, n + 1)
                    if (i, j) != (0, 0)
                )
                assert has_primitive == (d == n) == (d1 == 1)

    def test_cyclic_criterion_via_entry_gcd(self):
        # gcd of the basis entries is an independent route to d1
        for n in range(1, 101):
            for lat in hnf_oracle(n):
                (d1, _, d), _ = classify(lat)
                (r11, r12), (_, r22) = lat.rows
                assert (math.gcd(r11, r12, r22) == 1) == (d1 == 1) == (d == n)


class TestNoSmithOnLibraryPath:
    def test_classify_and_rebuild_without_snf(self, monkeypatch, capsys):
        # the closed forms replace the SNF: make any call to it fail
        def refuse(rows):
            raise AssertionError("smith_normal_form called on a library path")

        monkeypatch.setattr(intmat, "smith_normal_form", refuse)
        for n in (1, 12, 36, 60):
            for lat in enumerate_index(n):
                (d1, d2, _), point = classify(lat)
                assert reconstruct(d1, d2, point) == lat
        for argv in (
            ["lattice", "invariants", "--rows", "4,2;0,6"],
            ["lattice", "reconstruct", "--d1", "2", "--d2", "12", "--point", "2:1"],
            ["lattice", "enumerate", "--index", "36"],
        ):
            assert cli.main(argv) == 0
        capsys.readouterr()


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called on a library path")

    return refuse


def _run_golden(capsys, filename, keep=lambda argv: True):
    for case in json.loads((GOLDEN_DIR / filename).read_text()):
        if keep(case["argv"]):
            assert cli.main(case["argv"]) == case["exit"]
            assert capsys.readouterr().out == case["stdout"]


class TestNoSearchOnOkPath:
    def test_intersection_check_without_lift_or_shells(self, monkeypatch, capsys):
        # the witnesses t come from CRT idempotents and the joined point
        # needs no coprime lift
        monkeypatch.setattr(okmodules, "shells", _refuse("shells"))
        for d in (-1, -5, -23):
            K = quadring.ring(d)
            comps = []
            for p, pick in ((2, 0), (3, 1), (5, -1)):
                P = quadring.primes_above(K, p)[0].ideal
                L = quadring.primes_above(K, 7)[-1].ideal if p == 3 else quadring.unit_ideal(K)
                pts = ok_enumerate(P)
                comps.append(okmodules.reconstruct(L, quadring.ideal_mul(L, P), pts[pick]))
            for mods in (comps[:2], comps[1:], comps):
                report = okmodules.verify_intersection_theorem(mods)
                assert report.ok
        _run_golden(capsys, "golden_okmod.json", lambda argv: "intersect" in argv)

    def test_ok_classification_and_ideal_cli_without_lattice_intersect(
        self, monkeypatch, capsys
    ):
        # colon ideals and intersections of ideals are exact divisions;
        # okmodules.intersect still intersects lattices and is not run here
        monkeypatch.setattr(intmat, "lattice_intersect", _refuse("lattice_intersect"))
        for d in (-1, -5, -23):
            K = quadring.ring(d)
            for n in range(1, 13):
                for ln in (m for m in range(1, n + 1) if n % m == 0):
                    for L in quadring.enumerate_ideals(K, ln):
                        for Kid in quadring.enumerate_ideals(K, n // ln):
                            if not L.contains_ideal(Kid):
                                continue
                            for M in okmodules.enumerate_cotorsion(L, Kid):
                                data = okmodules.proj_invariant_element(M)
                                assert (data.L, data.K) == (L, Kid)
                                assert okmodules.reconstruct(L, Kid, data.point) == M
        _run_golden(capsys, "golden_ideal.json")
