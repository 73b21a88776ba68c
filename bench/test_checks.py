"""Each checker accepts today's correct output and rejects a corrupted copy of it.

    python3 -m unittest discover -s bench -p 'test_*.py'

The correct results come from the library itself; the corruptions are
the kinds of fault an optimisation could introduce: an off-by-one
coefficient, a dropped or repeated lattice, a swapped point, a wrong
exit code.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ref  # noqa: E402
from ref import CheckFailed  # noqa: E402
from workloads import run_cli  # noqa: E402

from cotorsion import cli, dirichlet, latenum, lattice2, okmodules, quadring  # noqa: E402


def index_entries(n):
    out = []
    for lat in latenum.enumerate_index(n):
        stratum, point = latenum.classify(lat)
        rebuilt = lattice2.reconstruct(stratum[0], stratum[1], point)
        out.append((lat.rows, stratum, (point.a, point.b), rebuilt.rows))
    return out


class TestZLatticeChecks(unittest.TestCase):
    def setUp(self):
        self.n = 12
        self.entries = index_entries(self.n)

    def test_accepts_correct(self):
        ref.check_index_enumeration(self.n, self.entries)

    def test_rejects_missing_lattice(self):
        with self.assertRaises(CheckFailed):
            ref.check_index_enumeration(self.n, self.entries[:-1])

    def test_rejects_swapped_point(self):
        entries = list(self.entries)
        same = [i for i, e in enumerate(entries) if e[1] == entries[-1][1]]
        i, j = same[0], same[1]
        rows, stratum, _, rebuilt = entries[i]
        entries[i] = (rows, stratum, entries[j][2], rebuilt)
        with self.assertRaises(CheckFailed):
            ref.check_index_enumeration(self.n, entries)

    def test_rejects_wrong_d1(self):
        entries = list(self.entries)
        rows, (d1, d2, d), point, rebuilt = entries[0]
        entries[0] = (rows, (d1 + 1, d2, d), point, rebuilt)
        with self.assertRaises(CheckFailed):
            ref.check_index_enumeration(self.n, entries)

    def test_rejects_bad_rebuild(self):
        rows, stratum, point, _ = self.entries[3]
        wrong = ((rows[0][0], (rows[0][1] + 1) % rows[1][1]), rows[1])
        if wrong == rows:
            wrong = ((rows[0][0] * 2, rows[0][1]), rows[1])
        with self.assertRaises(CheckFailed):
            ref.check_lattice(rows, self.n, stratum, point, wrong)

    def test_hnf2_matches_library(self):
        for v1, v2 in (((2, 3), (4, -1)), ((0, 5), (3, 7)), ((-6, 4), (9, 12))):
            self.assertEqual(ref.hnf2([v1, v2]), lattice2.from_rows(v1, v2).rows)


class TestOkStrataChecks(unittest.TestCase):
    def setUp(self):
        self.d = -5
        self.tu = ref.ring_tu(self.d)
        ring = quadring.ring(self.d)
        self.L = ((1, 0), (0, 1))
        self.K = ref.ideals_of_norm(self.tu, 6)[0]
        mods = okmodules.enumerate_cotorsion(
            quadring.ideal_from_hnf(ring, self.L), quadring.ideal_from_hnf(ring, self.K)
        )
        self.hnfs = [M.hnf4 for M in mods]
        self.classified = []
        self.rebuilt = []
        for M in mods:
            data = okmodules.proj_invariant_element(M)
            self.classified.append((data.L.hnf, data.K.hnf))
            self.rebuilt.append(okmodules.reconstruct(data.L, data.K, data.point).hnf4)

    def test_accepts_correct(self):
        ref.check_stratum_modules(self.tu, self.L, self.K, self.hnfs, self.classified, self.rebuilt)

    def test_rejects_swapped_rebuild(self):
        rebuilt = [self.rebuilt[1], self.rebuilt[0]] + self.rebuilt[2:]
        with self.assertRaises(CheckFailed):
            ref.check_stratum_modules(self.tu, self.L, self.K, self.hnfs, self.classified, rebuilt)

    def test_rejects_wrong_invariants(self):
        classified = [(self.K, self.L)] + self.classified[1:]
        with self.assertRaises(CheckFailed):
            ref.check_stratum_modules(self.tu, self.L, self.K, self.hnfs, classified, self.rebuilt)

    def test_rejects_unstable_module(self):
        # move one entry above a pivot > 1 until the lattice is no longer w-stable
        good = self.hnfs[0]
        bad = None
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            for step in range(1, good[j][j]):
                rows = [list(r) for r in good]
                rows[i][j] = (rows[i][j] + step) % good[j][j]
                if not ref.omega_stable(self.tu, rows):
                    bad = [tuple(r) for r in rows]
                    break
            if bad:
                break
        self.assertIsNotNone(bad)
        hnfs = [tuple(bad)] + self.hnfs[1:]
        with self.assertRaises(CheckFailed):
            ref.check_stratum_modules(self.tu, self.L, self.K, hnfs, self.classified, [tuple(bad)] + self.rebuilt[1:])

    def test_module_total_off_by_one(self):
        D = ref.disc(self.d)
        want = dirichlet.series_ok_module_count(quadring.ring(self.d), 12).coeffs[-1]
        ref.check_module_total(D, 12, want)
        with self.assertRaises(CheckFailed):
            ref.check_module_total(D, 12, want + 1)


class TestOkCliChecks(unittest.TestCase):
    GENS = [[(1, 1), (2, -1)], [(0, 3), (1, 2)]]

    def setUp(self):
        self.d = -23
        self.tu = ref.ring_tu(self.d)
        text = "; ".join(",".join(f"{x}{y:+d}*w" for x, y in g) for g in self.GENS)
        rc, out = run_cli(cli, ["okmod", "invariants", "--disc", str(self.d), "--gens", text])
        self.assertEqual(rc, 0)
        self.obj = json.loads(out)
        ring = quadring.ring(self.d)
        data = okmodules.proj_invariant_element(okmodules.module_from_hnf(ring, self.obj["module"]["hnf4"]))
        self.rebuilt = okmodules.reconstruct(data.L, data.K, data.point).hnf4

    def test_accepts_correct(self):
        ref.check_invariants_output(self.tu, self.GENS, self.obj, self.rebuilt)

    def test_rejects_off_by_one_size(self):
        obj = dict(self.obj, quotient_size=self.obj["quotient_size"] + 1)
        with self.assertRaises(CheckFailed):
            ref.check_invariants_output(self.tu, self.GENS, obj, self.rebuilt)

    def test_rejects_swapped_ideals(self):
        obj = dict(self.obj, L=self.obj["K"], K=self.obj["L"])
        if obj["L"] == obj["K"]:
            self.skipTest("L = K")
        with self.assertRaises(CheckFailed):
            ref.check_invariants_output(self.tu, self.GENS, obj, self.rebuilt)

    def test_rejects_other_module(self):
        other = list(self.rebuilt)
        other[0] = (other[0][0] + other[0][0], *other[0][1:])
        with self.assertRaises(CheckFailed):
            ref.check_invariants_output(self.tu, self.GENS, self.obj, tuple(other))

    def test_rejects_other_module_of_same_stratum(self):
        # a valid module with the printed (L, K), rebuilt consistently, but not the span of GENS
        ring = quadring.ring(self.d)
        L, K = (quadring.ideal_from_hnf(ring, self.obj[k]["hnf"]) for k in ("L", "K"))
        printed = tuple(map(tuple, self.obj["module"]["hnf4"]))
        others = [M.hnf4 for M in okmodules.enumerate_cotorsion(L, K) if M.hnf4 != printed]
        self.assertTrue(others)
        obj = dict(self.obj, module=dict(self.obj["module"], hnf4=[list(r) for r in others[0]]))
        with self.assertRaises(CheckFailed):
            ref.check_invariants_output(self.tu, self.GENS, obj, others[0])

    def test_exit_codes(self):
        ref.check_exit(0, valid=True)
        ref.check_exit(1, valid=False)
        ref.check_exit(2, valid=False)
        for rc, valid in ((1, True), (2, True), (0, False), (None, False)):
            with self.assertRaises(CheckFailed):
                ref.check_exit(rc, valid=valid)

    def test_usage_error_exit_code(self):
        rc, _ = run_cli(cli, ["okmod", "invariants", "--disc", "-1"])
        ref.check_exit(rc, valid=False)

    def test_is_principal_matches_library(self):
        for d in (-5, -71):
            tu, ring = ref.ring_tu(d), quadring.ring(d)
            for n in range(1, 25):
                for h in ref.ideals_of_norm(tu, n):
                    want = quadring.is_principal(quadring.ideal_from_hnf(ring, h)) is not None
                    self.assertEqual(ref.is_principal(tu, h), want)

    def test_pf1_card_of_ideal(self):
        from cotorsion import okproj

        ring = quadring.ring(self.d)
        for h in ref.ideals_of_norm(self.tu, 12)[:3] + ref.ideals_of_norm(self.tu, 9):
            want = okproj.ok_cardinality(quadring.ideal_from_hnf(ring, h))
            self.assertEqual(ref.pf1_card_of_ideal(self.tu, h), want)


class TestKnownFaultAccounting(unittest.TestCase):
    """Only the known ValueError of a marked malformed call counts as failed."""

    def run_known_fault(self, exc_type):
        from types import SimpleNamespace

        from run import Meter
        from workloads import MALFORMED, OkCli

        def main(argv):
            raise exc_type("injected")

        wl = OkCli(None, 1)
        wl.lib = SimpleNamespace(cli=SimpleNamespace(main=main))
        wl.first = [("malformed", None, MALFORMED[0][0], MALFORMED[0][1])]
        meter = Meter()
        wl.run_round(0, meter)
        return meter

    def test_value_error_counts_as_failed(self):
        self.assertEqual(self.run_known_fault(ValueError).failed, 1)

    def test_other_exception_fails_the_run(self):
        with self.assertRaises(TypeError):
            self.run_known_fault(TypeError)


class TestZetaChecks(unittest.TestCase):
    def test_z_series(self):
        got = list(dirichlet.series_z2(300).coeffs)
        ref.check_series("z2", got, ref.sigma_sieve(300))
        got[150] += 1
        with self.assertRaises(CheckFailed):
            ref.check_series("z2", got, ref.sigma_sieve(300))

    def test_ok_series(self):
        for d in (-1, -5, -23):
            ring = quadring.ring(d)
            got = list(dirichlet.series_ok_module_count(ring, 120).coeffs)
            ref.check_series("ok", got, ref.module_counts(ref.disc(d), 120))
            got[-1] -= 1
            with self.assertRaises(CheckFailed):
                ref.check_series("ok", got, ref.module_counts(ref.disc(d), 120))
            self.assertEqual(list(dirichlet.series_ideal_count(ring, 120).coeffs),
                             ref.ideal_counts(ref.disc(d), 120))

    def test_identity_report(self):
        rc, out = run_cli(cli, ["zeta", "--series", "ok-z2", "--disc", "-5", "--nmax", "60", "--check-identity"])
        self.assertEqual(rc, 0)
        report = json.loads(out)
        ref.check_identity_report(report)
        report[1]["equal"] = False
        with self.assertRaises(CheckFailed):
            ref.check_identity_report(report)
        with self.assertRaises(CheckFailed):
            ref.check_identity_report(report[:1])


if __name__ == "__main__":
    unittest.main()
