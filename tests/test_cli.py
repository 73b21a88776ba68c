import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cotorsion
from cotorsion import dirichlet, latenum, projline, quadring
from cotorsion.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _python_env():
    """The environment for a fresh interpreter that imports this checkout's cotorsion."""
    return dict(os.environ, PYTHONPATH=str(Path(cotorsion.__file__).resolve().parents[1]))


def _buffered_env():
    """As _python_env, with stdout block-buffered as it is by default on a pipe."""
    env = _python_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestPf1:
    def test_card(self, capsys):
        code, out = run(capsys, "pf1", "card", "--mod", "12")
        assert code == 0
        assert json.loads(out) == {"m": 12, "cardinality": 24}

    def test_list(self, capsys):
        code, out = run(capsys, "pf1", "list", "--mod", "2")
        assert code == 0
        assert json.loads(out) == [
            {"m": 2, "a": 0, "b": 1},
            {"m": 2, "a": 1, "b": 0},
            {"m": 2, "a": 1, "b": 1},
        ]

    def test_crt(self, capsys):
        code, out = run(capsys, "pf1", "crt", "--mod", "6", "--split", "2,3")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12
        assert all(len(r["components"]) == 2 for r in rows)

    def test_crt_bad_moduli(self, capsys):
        code, out = run(capsys, "pf1", "crt", "--mod", "6", "--split", "2,4")
        assert code == 1
        assert json.loads(out)["error"] == "BadModuli"

    def test_text_format(self, capsys):
        code, out = run(capsys, "--format", "text", "pf1", "card", "--mod", "12")
        assert code == 0 and out.strip() == "24"

    def test_crt_round_trip_failure(self, capsys, monkeypatch):
        # a join that always gives the first point fails on the second
        points = projline.enumerate_points(6)
        monkeypatch.setattr(projline, "crt_join", lambda parts: points[0])
        code, out = run(capsys, "pf1", "crt", "--mod", "6", "--split", "2,3")
        assert code == 1
        assert out.splitlines() == [
            json.dumps({"error": "RoundTripFailure", "point": points[1].to_json()})
        ]


class TestLattice:
    def test_invariants(self, capsys):
        code, out = run(capsys, "lattice", "invariants", "--rows", "1,2;3,4")
        assert code == 0
        obj = json.loads(out)
        assert obj["index"] == 2 and (obj["d1"], obj["d2"]) == (1, 2)

    def test_reconstruct(self, capsys):
        code, out = run(
            capsys, "lattice", "reconstruct", "--d1", "1", "--d2", "4", "--point", "1:2"
        )
        assert code == 0
        assert json.loads(out) == {"rows": [[1, 2], [0, 4]]}

    def test_enumerate_count(self, capsys):
        code, out = run(capsys, "lattice", "enumerate", "--index", "4")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 7
        assert all({"lattice", "stratum", "point"} <= set(r) for r in rows)

    def test_enumerate_oracle_mode(self, capsys):
        code, _ = run(capsys, "lattice", "enumerate", "--index", "12", "--oracle")
        assert code == 0

    def test_enumerate_oracle_mismatch(self, capsys, monkeypatch):
        oracle = latenum.hnf_oracle
        monkeypatch.setattr(latenum, "hnf_oracle", lambda n: oracle(n)[1:])
        code, out = run(capsys, "lattice", "enumerate", "--index", "12", "--oracle")
        assert code == 1
        assert out.splitlines() == [json.dumps({"error": "OracleMismatch", "index": 12})]

    def test_domain_error_exit_code(self, capsys):
        code, out = run(capsys, "lattice", "invariants", "--rows", "1,2;2,4")
        assert code == 1
        assert json.loads(out)["error"] == "NotFullRank"


class TestZeta:
    def test_z2_identity(self, capsys):
        code, out = run(
            capsys, "zeta", "--series", "z2", "--nmax", "100", "--check-identity"
        )
        assert code == 0
        assert all(r["equal"] for r in json.loads(out))

    def test_z2_identity_text(self, capsys):
        code, out = run(
            capsys, "--format", "text",
            "zeta", "--series", "z2", "--nmax", "100", "--check-identity",
        )
        assert code == 0
        assert out.splitlines() == ["equal up to 100", "equal up to 100"]

    def test_ok_z2_identity(self, capsys):
        code, out = run(
            capsys, "zeta", "--series", "ok-z2", "--disc", "-5",
            "--nmax", "60", "--check-identity",
        )
        assert code == 0
        assert all(r["equal"] for r in json.loads(out))

    # (local factor, p, k, identity it breaks): each factor made one too
    # large at p^k.  Both sides of the second identity read the count and
    # PF^1 tables, so only its own Euler factor can break it; the first
    # identity's right side reads the count table alone, so it sees a
    # wrong count or PF^1 factor too.
    BROKEN_FACTORS = [
        ("_ideal_count", 3, 2, 0),
        ("_pf1", 2, 3, 0),
        ("_shifted_product", 5, 2, 0),
        ("_square_product", 7, 1, 1),
    ]
    IDENTITY_SERIES = [("z2",), ("ok-z2", "--disc", "-5")]

    @staticmethod
    def expected_reports(p, k, broken):
        reports = [{"equal": True, "n_max": 60, "first_mismatch": None}] * 2
        reports[broken] = {"equal": False, "n_max": 60, "first_mismatch": p**k}
        return reports

    @pytest.mark.parametrize("series", IDENTITY_SERIES, ids=lambda s: s[0])
    @pytest.mark.parametrize("name,p,k,broken", BROKEN_FACTORS)
    def test_identity_check_detects_a_broken_factor(
        self, capsys, monkeypatch, series, name, p, k, broken
    ):
        factor = getattr(dirichlet, name)
        monkeypatch.setattr(dirichlet, name, lambda *a: factor(*a) + (a[:2] == (p, k)))
        code, out = run(capsys, "zeta", "--series", *series, "--nmax", "60", "--check-identity")
        assert code == 1
        assert json.loads(out) == self.expected_reports(p, k, broken)

    def test_broken_factor_detected_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            from cotorsion import dirichlet
            from cotorsion.cli import main
            if not sys.flags.optimize:
                sys.exit("not run under -O")
            for name, p, k, _ in %r:
                factor = getattr(dirichlet, name)
                broken = lambda *a, f=factor, at=(p, k): f(*a) + (a[:2] == at)
                setattr(dirichlet, name, broken)
                for series in %r:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(["zeta", "--series", *series, "--nmax", "60", "--check-identity"])
                    print(code, out.getvalue().strip())
                setattr(dirichlet, name, factor)
            """
            % (self.BROKEN_FACTORS, self.IDENTITY_SERIES)
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=_python_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        want = [
            f"1 {json.dumps(self.expected_reports(p, k, broken))}"
            for _, p, k, broken in self.BROKEN_FACTORS
            for _ in self.IDENTITY_SERIES
        ]
        assert done.stdout.splitlines() == want

    @pytest.mark.parametrize("series", IDENTITY_SERIES, ids=lambda s: s[0])
    def test_identity_check_calls_no_convolution(self, capsys, monkeypatch, series):
        # convolve and its helpers are the tests' oracle, not the CLI's route
        for name in ("convolve", "series_shift", "series_square_support"):
            monkeypatch.setattr(dirichlet, name, lambda *a, name=name: pytest.fail(name))
        code, out = run(capsys, "zeta", "--series", *series, "--nmax", "300", "--check-identity")
        assert code == 0
        assert all(r["equal"] for r in json.loads(out))

    def test_kronecker_once_per_prime(self, capsys, monkeypatch):
        calls = []
        kronecker = quadring.kronecker

        def counting(K, p):
            calls.append(p)
            return kronecker(K, p)

        monkeypatch.setattr(quadring, "kronecker", counting)
        monkeypatch.setattr(dirichlet, "kronecker", counting)
        code, _ = run(
            capsys, "zeta", "--series", "ok-z2", "--disc", "-5", "--nmax", "480", "--check-identity"
        )
        assert code == 0
        primes = [p for p in range(2, 481) if all(p % d for d in range(2, p))]
        assert len(primes) == 92
        assert calls == primes

    def test_series_dump(self, capsys):
        code, out = run(capsys, "zeta", "--series", "pf1", "--nmax", "6")
        assert code == 0
        assert json.loads(out)["coefficients"] == [1, 3, 4, 6, 6, 12]

    def test_csv_export(self, capsys):
        code, out = run(capsys, "--format", "csv", "zeta", "--series", "sigma", "--nmax", "4")
        assert code == 0
        assert out.splitlines() == ["1,1", "2,3", "3,4", "4,7"]

    def test_dedekind_requires_disc(self, capsys):
        with pytest.raises(SystemExit):
            main(["zeta", "--series", "dedekind", "--nmax", "5"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta", "--series", "pf1", "--nmax", "1000001"),
            ("--format", "csv", "zeta", "--series", "sigma", "--nmax", "1000001"),
            ("--format", "text", "zeta", "--series", "z2", "--nmax", "1000001",
             "--check-identity"),
            ("zeta", "--series", "ok-z2", "--disc", "-5", "--nmax", "1000001",
             "--check-identity"),
        ],
    )
    def test_nmax_above_series_bound(self, capsys, argv):
        # refused before any series is built: one error line, no coefficients
        assert dirichlet.SERIES_BOUND == 10**6
        code, out = run(capsys, *argv)
        assert code == 1
        assert out.splitlines() == [json.dumps({
            "error": "OutOfRange",
            "message": "n_max = 1000001 exceeds the series bound 1000000",
        })]


class TestIdeal:
    def test_factor(self, capsys):
        code, out = run(capsys, "ideal", "factor", "--disc", "-5", "--gens", "6")
        assert code == 0
        obj = json.loads(out)
        assert sorted((f["norm"], f["exponent"]) for f in obj["factors"]) == [
            (2, 2),
            (3, 1),
            (3, 1),
        ]

    def test_mul(self, capsys):
        code, out = run(
            capsys, "ideal", "mul", "--disc", "-5",
            "--lhs", "2,1+w", "--rhs", "2,1+w",
        )
        assert code == 0
        assert json.loads(out)["hnf"] == [[2, 0], [0, 2]]

    def test_quotient(self, capsys):
        code, out = run(
            capsys, "ideal", "quotient", "--disc", "-5", "--lhs", "2", "--rhs", "2,1+w"
        )
        assert code == 0
        assert json.loads(out)["hnf"] == [[1, 1], [0, 2]]

    def test_principal(self, capsys):
        code, out = run(capsys, "ideal", "principal", "--disc", "-5", "--gens", "2,1+w")
        assert code == 0
        assert json.loads(out)["principal"] is False

    def test_primes_above(self, capsys):
        code, out = run(capsys, "ideal", "primes-above", "--disc", "-1", "-p", "5")
        assert code == 0
        obj = json.loads(out)
        assert len(obj) == 2 and all(pa["norm"] == 5 for pa in obj)

    def test_sum(self, capsys):
        code, out = run(
            capsys, "ideal", "sum", "--disc", "-1", "--lhs", "2", "--rhs", "3"
        )
        assert code == 0
        assert json.loads(out)["hnf"] == [[1, 0], [0, 1]]


class TestOkmod:
    def test_invariants(self, capsys):
        code, out = run(
            capsys, "okmod", "invariants", "--disc", "-1", "--gens", "1,1; 0,1+w"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["quotient_size"] == 2
        assert obj["K"]["hnf"] == [[1, 1], [0, 2]]
        assert obj["L"]["hnf"] == [[1, 0], [0, 1]]

    def test_reconstruct_round_trip(self, capsys):
        code, out = run(
            capsys, "okmod", "reconstruct", "--disc", "-1",
            "--L", "1", "--K", "1+w", "--point", "1:1",
        )
        assert code == 0
        reconstructed = json.loads(out)
        code, out = run(
            capsys, "okmod", "invariants", "--disc", "-1", "--gens", "1,1; 0,1+w"
        )
        assert json.loads(out)["module"] == reconstructed

    def test_enumerate(self, capsys):
        code, out = run(
            capsys, "okmod", "enumerate", "--disc", "-5", "--L", "1", "--K", "2,1+w"
        )
        assert code == 0
        assert json.loads(out)["count"] == 3

    def test_intersect_verify(self, capsys):
        code, out = run(
            capsys, "okmod", "intersect", "--disc", "-1",
            "--modules", "1,1; 0,1+w | 1,2; 0,3", "--verify",
        )
        assert code == 0
        obj = json.loads(out)
        assert all(obj["checks"].values())
        assert obj["K"]["hnf"] == [[3, 3], [0, 6]]

    # annihilators (1+i), (3) and (2+i): pairwise comaximal
    @pytest.mark.parametrize(
        "modules", ["1,1; 0,1+w | 1,2; 0,3", "1,1; 0,1+w | 1,2; 0,3 | 1,1; 0,2+w"]
    )
    def test_intersect_matches_verify(self, capsys, modules):
        argv = ("okmod", "intersect", "--disc", "-1", "--modules", modules)
        code, out = run(capsys, *argv)
        assert code == 0
        code, verified = run(capsys, *argv, "--verify")
        assert code == 0
        verified = json.loads(verified)
        assert all(verified.pop("checks").values())
        assert json.loads(out) == verified

    def test_enumerate_rejects_k_outside_l(self, capsys):
        code, out = run(capsys, "okmod", "enumerate", "--disc", "-1", "--L", "2", "--K", "3")
        assert code == 1
        assert json.loads(out)["error"] == "BadInvariants"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pf1", "list", "--mod", "36"),
            ("lattice", "enumerate", "--index", "12"),
            ("zeta", "--series", "ok-pf1", "--disc", "-5", "--nmax", "40"),
            ("okmod", "enumerate", "--disc", "-1", "--L", "1", "--K", "3"),
            ("ideal", "factor", "--disc", "-5", "--gens", "30"),
        ],
    )
    def test_byte_identical_runs(self, capsys, argv):
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_python_dash_m_matches_main(self, capsys):
        argv = ["lattice", "invariants", "--rows", "1,2;3,4"]
        done = subprocess.run(
            [sys.executable, "-m", "cotorsion", *argv],
            capture_output=True, text=True, env=_python_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == run(capsys, *argv)[1]

    def test_large_enumeration_finishes(self):
        # I = (31) over Z[i]: 962 modules, built from the local points of
        # the inert prime 31 rather than from the 961^2 residue pairs
        done = subprocess.run(
            [sys.executable, "-m", "cotorsion", "okmod", "enumerate",
             "--disc", "-1", "--L", "1", "--K", "31"],
            capture_output=True, text=True, env=_python_env(), timeout=5,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["count"] == 962

    def test_closed_pipe_exits_one_quietly(self):
        # the 78 kB of JSON are more than a 64 KiB pipe holds, so the write
        # still blocks when the reader closes its end after 100 bytes
        proc = subprocess.Popen(
            [sys.executable, "-m", "cotorsion", "okmod", "enumerate",
             "--disc", "-1", "--L", "1", "--K", "31"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env(), bufsize=0,
        )
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            _, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
        assert head.startswith(b'{"count": 962')
        assert proc.returncode == 1
        assert err == b""

    def test_pipe_without_reader_exits_one_quietly(self):
        # a short output waits in stdout's buffer, so the write that meets
        # the closed pipe is the flush, and what is left must not fail again
        # at interpreter exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "cotorsion", "pf1", "card", "--mod", "12"],
                stdout=write_end, stderr=subprocess.PIPE, env=_buffered_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""

    def test_parser_built_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        calls = [
            ("pf1", "card", "--mod", "12"),
            ("--format", "text", "pf1", "list", "--mod", "6"),
            ("lattice", "invariants", "--rows", "1,2;3,4"),
            ("lattice", "reconstruct", "--d1", "1", "--d2", "4", "--point", "1:2"),
            ("zeta", "--series", "z2", "--nmax", "30", "--check-identity"),
            ("--format", "csv", "zeta", "--series", "dedekind", "--disc", "-1", "--nmax", "20"),
            ("ideal", "factor", "--disc", "-5", "--gens", "6"),
            ("ideal", "primes-above", "--disc", "-1", "-p", "5"),
            ("okmod", "invariants", "--disc", "-1", "--gens", "1,1; 0,1+w"),
            ("okmod", "enumerate", "--disc", "-5", "--L", "1", "--K", "2,1+w"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(calls[0])) == 0
            monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
            codes = [main(list(argv)) for _ in range(5) for argv in calls]
        assert codes == [0] * 50
        assert built == []

    def test_import_builds_no_parser(self):
        # bench/run.py times a fresh import as set-up, so the parser waits
        # for the first call
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import cotorsion.cli\n"
            "print(len(built))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=_python_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"

    def test_usage_error_exits_two(self):
        for argv in (["lattice", "enumerate"], ["lattice", "invariants", "--rows", "1,2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("okmod", "invariants", "--disc", "-1", "--gens", "1,2,3"),
            ("okmod", "reconstruct", "--disc", "-1", "--L", "1", "--K", "2", "--point", "1"),
            # options the call would ignore
            ("--format", "csv", "pf1", "card", "--mod", "4"),
            ("--format", "csv", "zeta", "--series", "z2", "--nmax", "4", "--check-identity"),
            ("zeta", "--series", "z2", "--disc", "7", "--nmax", "4"),
        ],
    )
    def test_malformed_input_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err


_INT = st.integers(-50, 50).map(str)
_MALFORMED = st.sampled_from(
    ["", " ", "a", "1.5", "--", ";", ",", ":", "1:", ":2", "1:2:3", "1;2", "x:y",
     "1,2;3", "1,2;3,4;", "1,,2", ";1,2;3,4", "1,2;3,4;5,6", "1,2,3;4,5"]
)
_ROWS = st.one_of(
    st.tuples(_INT, _INT, _INT, _INT).map(lambda t: f"{t[0]},{t[1]};{t[2]},{t[3]}"),
    _MALFORMED,
)
_POINT = st.one_of(st.tuples(_INT, _INT).map(":".join), _MALFORMED)
_MODULI = st.one_of(st.lists(_INT, min_size=1, max_size=3).map(",".join), _MALFORMED)
_VALUE = st.one_of(_INT, _MALFORMED)
_SERIES = st.one_of(
    st.sampled_from(["z2", "sigma", "pf1", "dedekind", "ok-pf1", "ok-z2"]), _MALFORMED
)
# n_max in [-50, 50] plus values above the series bound, which must be
# refused before anything is allocated
_NMAX = st.one_of(
    st.one_of(st.integers(-50, 50), st.sampled_from([10**6 + 1, 10**12])).map(str), _MALFORMED
)
_DISC = st.one_of(st.integers(-30, 5).map(str), _MALFORMED)
# O_K input: elements "x+y*w", generator lists, points "a:b" and modules
# "a,b; c,d" joined by '|', each with malformed tokens mixed in
_ELEMENT = st.one_of(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda t: f"{t[0]}{t[1]:+}*w"),
    st.integers(-12, 12).map(str),
    st.sampled_from(["w", "-w", "2*w", "1-w", "w+1", "2w", "1+", "*w", "x", ""]),
)
_GENS = st.one_of(st.lists(_ELEMENT, min_size=1, max_size=3).map(",".join), _MALFORMED)
_OK_POINT = st.one_of(st.tuples(_ELEMENT, _ELEMENT).map(":".join), _MALFORMED)
_OK_MODULE = st.lists(
    st.tuples(_ELEMENT, _ELEMENT).map(",".join), min_size=1, max_size=3
).map("; ".join)
_OK_MODULES = st.one_of(
    st.lists(_OK_MODULE, min_size=1, max_size=3).map(" | ".join), _MALFORMED
)
_OK_DISC = st.one_of(st.sampled_from([-1, -2, -3, -5, -23, -71]).map(str), _DISC)


def _opt(flag, value):
    """A flag and its value, as two tokens or attached with '='."""
    return st.one_of(
        st.tuples(st.just(flag), value).map(list),
        value.map(lambda v: [f"{flag}={v}"]),
    )


def _command(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


_FUZZ_ARGV = st.tuples(
    st.one_of(st.just([]), st.sampled_from(["json", "text", "csv"]).map(lambda f: ["--format", f])),
    st.one_of(
        _command(st.just(["pf1", "list"]), _opt("--mod", _VALUE)),
        _command(st.just(["pf1", "card"]), _opt("--mod", _VALUE)),
        _command(st.just(["pf1", "crt"]), _opt("--mod", _VALUE), _opt("--split", _MODULI)),
        _command(st.just(["lattice", "invariants"]), _opt("--rows", _ROWS)),
        _command(
            st.just(["lattice", "reconstruct"]),
            _opt("--d1", _VALUE), _opt("--d2", _VALUE), _opt("--point", _POINT),
        ),
        _command(
            st.just(["lattice", "enumerate"]), _opt("--index", _VALUE),
            st.sampled_from([[], ["--oracle"]]),
        ),
        _command(
            st.just(["zeta"]), _opt("--series", _SERIES), _opt("--nmax", _NMAX),
            st.one_of(st.just([]), _opt("--disc", _DISC)),
            st.sampled_from([[], ["--check-identity"]]),
        ),
        _command(
            st.just(["ideal"]), st.sampled_from([["factor"], ["principal"]]),
            _opt("--disc", _OK_DISC), _opt("--gens", _GENS),
        ),
        _command(
            st.just(["ideal"]), st.sampled_from([["mul"], ["sum"], ["quotient"]]),
            _opt("--disc", _OK_DISC), _opt("--lhs", _GENS), _opt("--rhs", _GENS),
        ),
        _command(st.just(["ideal", "primes-above"]), _opt("--disc", _OK_DISC), _opt("-p", _VALUE)),
        _command(st.just(["okmod", "invariants"]), _opt("--disc", _OK_DISC),
                 _opt("--gens", _OK_MODULES)),
        _command(
            st.just(["okmod", "reconstruct"]), _opt("--disc", _OK_DISC),
            _opt("--L", _GENS), _opt("--K", _GENS), _opt("--point", _OK_POINT),
        ),
        _command(
            st.just(["okmod", "enumerate"]), _opt("--disc", _OK_DISC),
            _opt("--L", _GENS), _opt("--K", _GENS),
        ),
        _command(
            st.just(["okmod", "intersect"]), _opt("--disc", _OK_DISC),
            _opt("--modules", _OK_MODULES), st.sampled_from([[], ["--verify"]]),
        ),
        st.lists(
            st.one_of(
                st.sampled_from(["pf1", "lattice", "zeta", "ideal", "okmod", "list", "card",
                                 "crt", "invariants", "reconstruct", "enumerate", "factor",
                                 "mul", "sum", "quotient", "principal", "primes-above",
                                 "intersect", "--mod", "--split", "--rows", "--d1", "--d2",
                                 "--point", "--index", "--oracle", "--series", "--nmax",
                                 "--disc", "--check-identity", "--gens", "--lhs", "--rhs",
                                 "-p", "--L", "--K", "--modules", "--verify"]),
                _VALUE, _ROWS, _POINT,
            ),
            max_size=8,
        ),
    ),
).map(lambda t: t[0] + t[1])


@settings(deadline=None, max_examples=400)
@given(_FUZZ_ARGV)
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "error" in json.loads(out.getvalue().splitlines()[-1])


# stdout of okmod calls recorded before classification and reconstruction
# moved from witness and lift searches to linear algebra; the D = -71 call
# has a non-principal L and took 20 s on the search path.  The enumerate
# calls after the first three (N(I) up to 60, split, inert and ramified
# primes, non-principal L) were recorded while PF^1(O/I) was still found
# by scanning every residue pair
GOLDEN = json.loads((Path(__file__).parent / "golden_okmod.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"][-6:]))
def test_okmod_golden_output(capsys, case):
    code, out = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


# stdout of zeta calls in every format, recorded while the series were
# still built per n from divisors, factorizations and enumerated ideals
GOLDEN_ZETA = json.loads((Path(__file__).parent / "golden_zeta.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_ZETA, ids=lambda c: " ".join(c["argv"]))
def test_zeta_golden_output(capsys, case):
    code, out = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


# stdout of ideal calls in json and text, recorded while colon ideals and
# intersections still went through 4-column lattice intersections and
# principality scanned the elements of norm N(I)
GOLDEN_IDEAL = json.loads((Path(__file__).parent / "golden_ideal.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_IDEAL, ids=lambda c: " ".join(c["argv"]))
def test_ideal_golden_output(capsys, case):
    code, out = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


# stdout of lattice calls in json and text, recorded while classification
# still went through the Smith normal form with transforms
GOLDEN_LATTICE = json.loads((Path(__file__).parent / "golden_lattice.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_LATTICE, ids=lambda c: " ".join(c["argv"]))
def test_lattice_golden_output(capsys, case):
    code, out = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


def test_calls_in_one_process_match_goldens(capsys):
    """No state carries from one call of main() to the next.

    A text call, a json call, a usage error, a domain error and a valid
    call, then every golden call in reverse order, all in this process.
    """
    cases = GOLDEN + GOLDEN_ZETA + GOLDEN_IDEAL + GOLDEN_LATTICE
    text = next(c for c in GOLDEN if c["argv"][:2] == ["--format", "text"])
    plain = next(c for c in GOLDEN if c["argv"][0] != "--format")
    for case in (text, plain):
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"])
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "enumerate"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    error = next(c for c in cases if c["exit"] == 1 and '"error"' in c["stdout"])
    for case in [error, GOLDEN_ZETA[0]] + cases[::-1]:
        assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"]), case["argv"]
