"""The four workloads: their inputs, their timed calls, and their checks.

A workload is built from a second, untraced copy of the library used only
by the checks (``oracle``) and the seed.  ``prepare`` makes the inputs of
round 0 with the benchmark's own code; later rounds make theirs between
timed calls.  ``load(lib)`` hands the workload the library under test and
builds the library objects the inputs need: that, with the import, is
the program's set-up.  ``run_round(i, meter)`` times every call of round i through
``meter`` and then checks the results outside the timed region.  Every
round of a workload makes the same number of calls of the same kinds, so
the share of failed calls is the same in every run.

Round inputs come from ``random.Random(f"{workload}:{seed}:{round}")``,
so a seed fixes the inputs and the program sees only those inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics

import ref
from ref import require

def element_text(e) -> str:
    return f"{e[0]}{e[1]:+d}*w"


def ideal_text(h) -> str:
    """Generators of an ideal: the two rows of its HNF as elements."""
    return ",".join(element_text(r) for r in h)


class Workload:
    name = ""
    # percentile reported as op_tail_ms
    tail_pct = 99
    # a fixed amount of work: the rounds a --trace 1 run times untraced and
    # then traced, the least rounds of a --trace 0 run, and the point at
    # which its peak_rss_mib is read, so that memory is compared at equal work
    base_rounds = 1

    def __init__(self, oracle, seed: int) -> None:
        self.lib = None
        self.oracle = oracle
        self.seed = seed
        self.first = None

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def prepare(self) -> None:
        self.first = self.make_round(0)

    def load(self, lib) -> None:
        self.lib = lib

    def inputs(self, i: int):
        return self.first if i == 0 else self.make_round(i)

    def make_round(self, i: int):
        raise NotImplementedError

    def run_round(self, i: int, meter) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run (none by default)."""

    def extra(self, meter) -> dict:
        """Workload-specific figures printed beside the metrics."""
        return {}


# ---------------------------------------------------------------- z-lattice


class ZLattice(Workload):
    """Index-n enumeration plus random 2x2 matrices, each lattice classified and rebuilt."""

    name = "z-lattice"
    tail_pct = 95
    base_rounds = 40
    INDEX_MAX = 400
    INDICES_PER_ROUND = 4
    MATRICES_PER_ROUND = 200
    ENTRY_MAX = 60

    def make_round(self, i):
        rng = self.rng(i)
        ns = [rng.randint(1, self.INDEX_MAX) for _ in range(self.INDICES_PER_ROUND)]
        mats = []
        while len(mats) < self.MATRICES_PER_ROUND:
            e = self.ENTRY_MAX
            v1 = (rng.randint(-e, e), rng.randint(-e, e))
            v2 = (rng.randint(-e, e), rng.randint(-e, e))
            if v1[0] * v2[1] - v1[1] * v2[0]:
                mats.append((v1, v2))
        return ns, mats

    def _classify_rebuild(self, lat):
        stratum, point = self.lib.latenum.classify(lat)
        return stratum, point, self.lib.lattice2.reconstruct(stratum[0], stratum[1], point)

    def _from_rows(self, v1, v2):
        lat = self.lib.lattice2.from_rows(v1, v2)
        return (lat,) + self._classify_rebuild(lat)

    def run_round(self, i, meter):
        ns, mats = self.inputs(i)
        for n in ns:
            lats = meter.run("enumerate", self.lib.latenum.enumerate_index, n, work=0, sample=False)
            entries = []
            for lat in lats:
                stratum, point, rebuilt = meter.run("lattice", self._classify_rebuild, lat)
                entries.append((lat.rows, stratum, (point.a, point.b), rebuilt.rows))
            ref.check_index_enumeration(n, entries)
        for v1, v2 in mats:
            lat, stratum, point, rebuilt = meter.run("matrix", self._from_rows, v1, v2)
            index = abs(v1[0] * v2[1] - v1[1] * v2[0])
            require(lat.rows == ref.hnf2([v1, v2]), f"rows {v1}, {v2} gave HNF {lat.rows}")
            require(stratum[0] == math.gcd(*v1, *v2), f"rows {v1}, {v2}: d1 is not the gcd of the entries")
            ref.check_lattice(lat.rows, index, stratum, (point.a, point.b), rebuilt.rows)

    def extra(self, meter):
        return {"lattices_per_s": (meter.rate(), "1/s")}


# ---------------------------------------------------------------- ok-strata


class OkStrata(Workload):
    """Every invariant pair (L, K) with N(L)N(K) <= NORM_MAX, for three class numbers."""

    name = "ok-strata"
    tail_pct = 95
    base_rounds = 2
    DISCS = (-1, -5, -23)
    NORM_MAX = 20

    def prepare(self):
        # the strata are the same for every seed; a round visits all of them
        # in the order its seed gives
        self.strata = []
        for d in self.DISCS:
            tu = ref.ring_tu(d)
            for n in range(1, self.NORM_MAX + 1):
                for l in range(1, math.isqrt(n) + 1):
                    if n % (l * l):
                        continue
                    for L in ref.ideals_of_norm(tu, l):
                        for I in ref.ideals_of_norm(tu, n // (l * l)):
                            self.strata.append((d, n, L, ref.ideal_product(tu, L, I)))
        super().prepare()

    def load(self, lib):
        super().load(lib)
        q = lib.quadring
        self.ideals = [(q.ideal_from_hnf(q.ring(d), L), q.ideal_from_hnf(q.ring(d), K))
                       for d, _, L, K in self.strata]

    def make_round(self, i):
        order = list(range(len(self.strata)))
        self.rng(i).shuffle(order)
        return order

    def _classify_rebuild(self, M):
        data = self.lib.okmodules.proj_invariant_element(M)
        return data, self.lib.okmodules.reconstruct(data.L, data.K, data.point)

    def run_round(self, i, meter):
        totals: dict[tuple[int, int], int] = {}
        for s in self.inputs(i):
            d, n, L, K = self.strata[s]
            Lq, Kq = self.ideals[s]
            mods = meter.run("enumerate", self.lib.okmodules.enumerate_cotorsion, Lq, Kq, work=0, sample=False)
            classified, rebuilt = [], []
            for M in mods:
                data, back = meter.run("module", self._classify_rebuild, M)
                classified.append((data.L.hnf, data.K.hnf))
                rebuilt.append(back.hnf4)
            ref.check_stratum_modules(ref.ring_tu(d), L, K, [M.hnf4 for M in mods], classified, rebuilt)
            totals[(d, n)] = totals.get((d, n), 0) + len(mods)
        for d in self.DISCS:
            for n in range(1, self.NORM_MAX + 1):
                ref.check_module_total(ref.disc(d), n, totals.get((d, n), 0))

    def extra(self, meter):
        return {"modules_per_s": (meter.rate(), "1/s")}


# ---------------------------------------------------------------- ok-cli


def run_cli(cli, argv):
    """One in-process CLI call: (exit code, stdout).  Exceptions other than exit propagate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


# Malformed calls, the same in every round.  The two marked True raise an
# uncaught ValueError inside cli.main (an unpack in _parse_module and in
# cmd_okmod_reconstruct) instead of exiting 1 or 2; they count as failed
# until that fault is mended, and then as passed.
MALFORMED = (
    (("okmod", "invariants", "--disc", "-1", "--gens", "1,2,3"), True),
    (("okmod", "reconstruct", "--disc", "-1", "--L", "1", "--K", "2", "--point", "1"), True),
    (("okmod", "invariants", "--disc", "-4", "--gens", "1,0; 0,1"), False),
    (("okmod", "invariants", "--disc", "-1", "--gens", "1,w; 2,2*w"), False),
    (("okmod", "invariants", "--disc", "-1", "--gens", "1,x; 0,1"), False),
    (("okmod", "enumerate", "--disc", "-5", "--L", "2", "--K", "1"), False),
    (("okmod", "invariants", "--disc", "-1"), False),
)


def random_gens(rng, coeffs):
    """Two generators of O^2, each a pair of elements with coordinates drawn from coeffs."""
    c = rng.choices(coeffs, k=8)
    return [[(c[0], c[1]), (c[2], c[3])], [(c[4], c[5]), (c[6], c[7])]]


# The law of the invariants calls' generators: all eight coordinates of the
# two generators uniform in [-GEN_R, GEN_R], drawn again while the pair is
# singular or its content ideal L is not principal.  For a non-principal L
# the witness search of okmod invariants can scan millions of candidates
# (20 s for one D = -71 pair), so such a call cannot be timed within a run.
GEN_R = 3
GEN_COEFFS = range(-GEN_R, GEN_R + 1)
# N(I) at the 5th, 15th, ..., 95th percentiles of that law, per D: the
# midpoints of its ten deciles, from law_quantiles(d) (regenerate with
# ``python3 bench/workloads.py``).
LAW = {
    -1: (5, 18, 34, 50, 72, 97, 130, 170, 234, 369),
    -5: (45, 141, 261, 414, 581, 824, 1109, 1524, 2209, 3726),
    -23: (52, 184, 324, 514, 754, 1062, 1476, 2076, 3042, 5268),
    -71: (216, 900, 1764, 2988, 4356, 6270, 10872, 14148, 24300, 42041),
}


def law_draw(rng, tu):
    """Generators drawn from the law, with N(I) = N(det) / N(L)^2 of their module."""
    while True:
        gens = random_gens(rng, GEN_COEFFS)
        size = ref.det_norm(tu, gens)
        if size:
            L = ref.ideal_hnf(tu, [c for g in gens for c in g])
            if ref.is_principal(tu, L):
                return gens, size // ref.ideal_norm(L) ** 2


def law_quantiles(d: int, draws: int = 20000) -> tuple[int, ...]:
    """N(I) at the midpoints of the law's ten deciles, over a fixed sample of draws."""
    rng = random.Random(f"law:{d}:0")
    tu = ref.ring_tu(d)
    sizes = [law_draw(rng, tu)[1] for _ in range(draws)]
    return tuple(round(q) for q in statistics.quantiles(sizes, n=20, method="inclusive")[::2])


class OkCli(Workload):
    """A closed loop of okmod CLI calls: mostly invariants of random generator pairs."""

    name = "ok-cli"
    tail_pct = 95
    base_rounds = 4
    DISCS = (-1, -5, -23, -71)
    # draws tried per invariants call before the round is given up
    MAX_DRAWS = 100000

    def _gens_near(self, rng, tu, target):
        """Generators from the law whose N(I) is within 5% (at least 3) of target."""
        lo, hi = min(target * 0.95, target - 3), max(target * 1.05, target + 3)
        for _ in range(self.MAX_DRAWS):
            gens, size = law_draw(rng, tu)
            if lo <= size <= hi:
                return gens
        raise RuntimeError(f"no generators with N(I) near {target} in {self.MAX_DRAWS} draws")

    def _small_ideal(self, rng, tu, lo, hi):
        while True:
            ideals = ref.ideals_of_norm(tu, rng.randint(lo, hi))
            if ideals:
                return rng.choice(ideals)

    def make_round(self, i):
        rng = self.rng(i)
        calls = []
        for d in self.DISCS:
            tu = ref.ring_tu(d)
            for target in LAW[d]:
                gens = self._gens_near(rng, tu, target)
                text = "; ".join(",".join(element_text(e) for e in g) for g in gens)
                calls.append(("invariants", d, ("okmod", "invariants", "--disc", str(d), "--gens", text), gens))
        for _ in range(2):
            d = rng.choice(self.DISCS)
            tu = ref.ring_tu(d)
            L = self._small_ideal(rng, tu, 1, 6)
            K = ref.ideal_product(tu, L, self._small_ideal(rng, tu, 2, 60))
            b = (rng.randint(-9, 9), rng.randint(-9, 9))
            argv = ("okmod", "reconstruct", "--disc", str(d), "--L", ideal_text(L),
                    "--K", ideal_text(K), "--point", f"1:{element_text(b)}")
            calls.append(("reconstruct", d, argv, (L, K)))
        d = rng.choice(self.DISCS)
        tu = ref.ring_tu(d)
        L = self._small_ideal(rng, tu, 1, 4)
        I = self._small_ideal(rng, tu, 2, 12)
        K = ref.ideal_product(tu, L, I)
        argv = ("okmod", "enumerate", "--disc", str(d), "--L", ideal_text(L), "--K", ideal_text(K))
        calls.append(("enumerate", d, argv, (L, K, I)))
        d = rng.choice(self.DISCS)
        tu = ref.ring_tu(d)
        while True:
            pair = [random_gens(rng, range(-2, 3)) for _ in range(2)]
            sizes = [ref.det_norm(tu, g) for g in pair]
            if min(sizes) >= 2 and max(sizes) <= 60 and math.gcd(*sizes) == 1:
                break
        text = " | ".join("; ".join(",".join(element_text(e) for e in g) for g in gens) for gens in pair)
        argv = ("okmod", "intersect", "--disc", str(d), "--modules", text, "--verify")
        calls.append(("intersect", d, argv, sizes))
        for argv, known in MALFORMED:
            calls.append(("malformed", None, argv, known))
        return calls

    def run_round(self, i, meter):
        for kind, d, argv, data in self.inputs(i):
            if kind == "malformed":
                try:
                    rc, _ = meter.run("cli", run_cli, self.lib.cli, list(argv))
                except ValueError:
                    if not data:
                        raise
                    meter.failed += 1
                    continue
                ref.check_exit(rc, valid=False)
                continue
            rc, out = meter.run("cli", run_cli, self.lib.cli, list(argv))
            ref.check_exit(rc, valid=True)
            self.check(kind, d, data, json.loads(out))

    def check(self, kind, d, data, obj):
        tu = ref.ring_tu(d)
        if kind == "invariants":
            o = self.oracle
            ring = o.quadring.ring(d)
            L = o.quadring.ideal_from_hnf(ring, obj["L"]["hnf"])
            K = o.quadring.ideal_from_hnf(ring, obj["K"]["hnf"])
            I = o.quadring.ideal_from_hnf(ring, obj["I"]["hnf"])
            p = obj["point"]
            point = o.okproj.OkProjPoint(I, tuple(p["a"]), tuple(p["b"]))
            rebuilt = o.okmodules.reconstruct(L, K, point).hnf4
            ref.check_invariants_output(tu, data, obj, rebuilt)
        elif kind == "reconstruct":
            L, K = data
            ref.check_module(tu, tuple(map(tuple, obj["hnf4"])), L, K)
        elif kind == "enumerate":
            L, K, I = data
            mods = [tuple(map(tuple, m["hnf4"])) for m in obj["modules"]]
            want = ref.pf1_card_of_ideal(tu, I)
            require(obj["count"] == len(mods) == want, f"enumerate L={L} K={K}: {obj['count']} modules, expected {want}")
            require(len(set(mods)) == len(mods), f"enumerate L={L} K={K}: repeated module")
            for m in mods:
                ref.check_module(tu, m, L, K)
        elif kind == "intersect":
            require(all(obj["checks"].values()), f"intersection checks failed: {obj['checks']}")
            cap = tuple(map(tuple, obj["intersection"]["hnf4"]))
            L = tuple(map(tuple, obj["L"]["hnf"]))
            K = tuple(map(tuple, obj["K"]["hnf"]))
            require(ref.det_diag(cap) == data[0] * data[1], f"intersection has size {ref.det_diag(cap)}, "
                    f"expected {data[0]} * {data[1]}")
            ref.check_module(tu, cap, L, K)

    def extra(self, meter):
        return {"calls_per_s": (meter.rate(), "1/s")}


# ---------------------------------------------------------------- zeta


class Zeta(Workload):
    """Both zeta identities through the CLI, over Z and over O_K for three fields."""

    name = "zeta"
    tail_pct = 75
    base_rounds = 4
    # (series, D, n_max): sized so each call costs about the same; the seed
    # moves each n_max by up to 5%
    CALLS = (("z2", None, 16000), ("ok-z2", -1, 480), ("ok-z2", -5, 280), ("ok-z2", -23, 180))

    def prepare(self):
        self.largest: dict[tuple, int] = {}
        super().prepare()

    def make_round(self, i):
        rng = self.rng(i)
        return [(s, d, rng.randint(n - n // 20, n + n // 20)) for s, d, n in self.CALLS]

    def run_round(self, i, meter):
        for series, d, n in self.inputs(i):
            argv = ["zeta", "--series", series, "--nmax", str(n), "--check-identity"]
            if d is not None:
                argv += ["--disc", str(d)]
            kind = "zeta-z" if d is None else "zeta-ok"
            rc, out = meter.run(kind, run_cli, self.lib.cli, argv, tally=n)
            ref.check_exit(rc, valid=True)
            ref.check_identity_report(json.loads(out))
            key = (series, d)
            self.largest[key] = max(self.largest.get(key, 0), n)

    def finish(self):
        """The series behind the identities, at the largest n_max each kind reached."""
        dirichlet = self.oracle.dirichlet
        for (series, d), n in sorted(self.largest.items(), key=str):
            if d is None:
                ref.check_series("z2", dirichlet.series_z2(n).coeffs, ref.sigma_sieve(n))
                continue
            ring = self.oracle.quadring.ring(d)
            D = ref.disc(d)
            ref.check_series(f"dedekind D={d}", dirichlet.series_ideal_count(ring, n).coeffs,
                             ref.ideal_counts(D, n))
            ref.check_series(f"ok-z2 D={d}", dirichlet.series_ok_module_count(ring, n).coeffs,
                             ref.module_counts(D, n))

    def extra(self, meter):
        z_n, z_s = meter.tallies.get("zeta-z", (0, 0.0))
        ok_n, ok_s = meter.tallies.get("zeta-ok", (0, 0.0))
        # both identities are checked on every coefficient
        return {
            "z_coeffs_per_s": (2 * z_n / z_s if z_s else 0.0, "1/s"),
            "ok_coeffs_per_s": (2 * ok_n / ok_s if ok_s else 0.0, "1/s"),
        }


WORKLOADS = {w.name: w for w in (ZLattice, OkStrata, OkCli, Zeta)}


if __name__ == "__main__":
    # the LAW table of the ok-cli workload
    for d in OkCli.DISCS:
        print(f"    {d}: {law_quantiles(d)},")
