"""Command-line frontend: machine-readable JSON by default, text on request.

Exit codes: 0 success, 1 domain error (the error name comes from the
library's exception types) or a reader that closed stdout early, 2 usage
error.  Output for identical inputs is byte-identical across runs, and
across calls of ``main`` in one process: the parser is built once, on the
first call, and each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dirichlet, latenum, lattice2, okmodules, okproj, projline, quadring
from .errors import BadInvariants, CotorsionError, OutOfRange


def _out(args, obj, text: str) -> None:
    if args.format == "text":
        print(text)
    else:
        print(json.dumps(obj))


# ---------------------------------------------------------------- pf1


def cmd_pf1_list(args) -> int:
    pts = projline.enumerate_points(args.mod)
    _out(args, [p.to_json() for p in pts], "\n".join(str(p) for p in pts))
    return 0


def cmd_pf1_card(args) -> int:
    c = projline.cardinality(args.mod)
    _out(args, {"m": args.mod, "cardinality": c}, str(c))
    return 0


def cmd_pf1_crt(args) -> int:
    moduli = args.split
    rows = []
    lines = []
    for p in projline.enumerate_points(args.mod):
        parts = projline.crt_split(p, moduli)
        if projline.crt_join(parts) != p:
            print(json.dumps({"error": "RoundTripFailure", "point": p.to_json()}))
            return 1
        rows.append({"point": p.to_json(), "components": [q.to_json() for q in parts]})
        lines.append(f"{p} -> " + ", ".join(str(q) for q in parts))
    _out(args, rows, "\n".join(lines))
    return 0


# ---------------------------------------------------------------- lattice


def _rows_arg(text: str):
    try:
        rows = [tuple(int(v) for v in part.split(",")) for part in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a,b;c,d', got {text!r}")
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise argparse.ArgumentTypeError(f"expected 'a,b;c,d', got {text!r}")
    return rows


def _zpoint_arg(text: str):
    try:
        a, b = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a:b', got {text!r}")
    return a, b


def _moduli_arg(text: str):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'm1,m2,...', got {text!r}")


def cmd_lattice_invariants(args) -> int:
    lat = lattice2.from_rows(*args.rows)
    d1, d2, point = lattice2.invariants(lat)
    obj = {
        "lattice": lat.to_json(),
        "index": lat.index,
        "d1": d1,
        "d2": d2,
        "d": d2 // d1,
        "point": point.to_json(),
    }
    _out(args, obj, f"{lat}: d1={d1}, d2={d2}, point {point}")
    return 0


def cmd_lattice_reconstruct(args) -> int:
    if args.d1 < 1 or args.d2 < 1 or args.d2 % args.d1 != 0:
        raise BadInvariants(f"need d1 | d2, got ({args.d1}, {args.d2})")
    a, b = args.point
    p = projline.class_of(a, b, args.d2 // args.d1)
    lat = lattice2.reconstruct(args.d1, args.d2, p)
    _out(args, lat.to_json(), str(lat))
    return 0


def cmd_lattice_enumerate(args) -> int:
    lats = latenum.enumerate_index(args.index)
    if args.oracle:
        oracle = latenum.hnf_oracle(args.index)
        if lats != oracle:
            print(json.dumps({"error": "OracleMismatch", "index": args.index}))
            return 1
    rows = []
    lines = []
    for lat in lats:
        stratum, point = latenum.classify(lat)
        rows.append(
            {
                "lattice": lat.to_json(),
                "stratum": {"d1": stratum[0], "d2": stratum[1], "d": stratum[2]},
                "point": point.to_json(),
            }
        )
        lines.append(f"{lat}  stratum {stratum}  point {point}")
    _out(args, rows, "\n".join(lines + [f"count {len(lats)}"]))
    return 0


# ---------------------------------------------------------------- zeta


def _usage_error(message: str) -> SystemExit:
    print(message, file=sys.stderr)
    return SystemExit(2)


# --series name -> (over O_K, has the zeta identities, builder of a(1..n));
# a builder looks its function up when called, so a wrapped one is seen
_SERIES = {
    "z2": (False, True, lambda K, n: dirichlet.series_z2(n)),
    "sigma": (False, False, lambda K, n: dirichlet.series_sigma(n)),
    "pf1": (False, False, lambda K, n: dirichlet.series_pf1(n)),
    "dedekind": (True, False, lambda K, n: dirichlet.series_ideal_count(K, n)),
    "ok-pf1": (True, False, lambda K, n: dirichlet.series_ok_pf1(K, n)),
    "ok-z2": (True, True, lambda K, n: dirichlet.series_ok_module_count(K, n)),
}


def cmd_zeta(args) -> int:
    over_ok, has_identities, build = _SERIES[args.series]
    if over_ok and args.disc is None:
        raise _usage_error(f"--series {args.series} requires --disc")
    if not over_ok and args.disc is not None:
        raise _usage_error(f"--series {args.series} takes no --disc")
    if args.check_identity and not has_identities:
        names = " or ".join(name for name, (_, ids, _) in _SERIES.items() if ids)
        raise _usage_error(f"--check-identity applies to --series {names}")
    K = quadring.ring(args.disc) if over_ok else None
    if args.nmax > dirichlet.SERIES_BOUND:
        raise OutOfRange(f"n_max = {args.nmax} exceeds the series bound {dirichlet.SERIES_BOUND}")
    if args.check_identity:
        # the module count and both right sides of its zeta identities
        lhs, *rhs = dirichlet.zeta_identity_sides(K, args.nmax)
        reports = [dirichlet.check_identity(lhs, r) for r in rhs]
        obj = [
            {
                "equal": r.equal,
                "n_max": r.n_max,
                "first_mismatch": r.first_mismatch,
            }
            for r in reports
        ]
        _out(args, obj, "\n".join(str(r) for r in reports))
        return 0 if all(r.equal for r in reports) else 1
    series = build(K, args.nmax)
    if args.format == "csv":
        for n, a in enumerate(series.coeffs, start=1):
            print(f"{n},{a}")
        return 0
    _out(
        args,
        {"series": args.series, "n_max": series.n_max, "coefficients": list(series.coeffs)},
        "\n".join(f"{n} {a}" for n, a in enumerate(series.coeffs, start=1)),
    )
    return 0


# ---------------------------------------------------------------- ideal


def _parse_gens(K, text: str):
    return [quadring.parse_element(K, part) for part in text.split(",")]


def _ideal_of(K, text: str):
    return quadring.ideal_from_generators(K, _parse_gens(K, text))


def _ideal_out(args, I) -> int:
    _out(args, I.to_json(), str(I))
    return 0


def cmd_ideal_factor(args) -> int:
    K = quadring.ring(args.disc)
    I = _ideal_of(K, args.gens)
    factors = quadring.factor_ideal(I)
    obj = {
        "ideal": I.to_json(),
        "factors": [{"prime": P.to_json(), "norm": P.norm, "exponent": e} for P, e in factors],
    }
    _out(args, obj, " * ".join(f"({P})^{e}" for P, e in factors) or "unit ideal")
    return 0


def cmd_ideal_binary(args) -> int:
    """ideal mul, sum and quotient: args.op applied to --lhs and --rhs."""
    K = quadring.ring(args.disc)
    return _ideal_out(args, args.op(_ideal_of(K, args.lhs), _ideal_of(K, args.rhs)))


def cmd_ideal_principal(args) -> int:
    K = quadring.ring(args.disc)
    I = _ideal_of(K, args.gens)
    g = quadring.is_principal(I)
    obj = {"ideal": I.to_json(), "principal": g is not None}
    if g is not None:
        obj["generator"] = {"x": g.x, "y": g.y}
    _out(args, obj, str(g) if g is not None else "not principal")
    return 0


def cmd_ideal_primes_above(args) -> int:
    K = quadring.ring(args.disc)
    above = quadring.primes_above(K, args.p)
    obj = [
        {"prime": pa.ideal.to_json(), "norm": pa.ideal.norm, "e": pa.e, "f": pa.f}
        for pa in above
    ]
    _out(args, obj, "\n".join(f"{pa.ideal} e={pa.e} f={pa.f}" for pa in above))
    return 0


# ---------------------------------------------------------------- okmod


def _parse_module(K, text: str):
    gens = []
    for part in text.split(";"):
        coords = part.split(",")
        if len(coords) != 2:
            raise _usage_error(f"expected generator pairs 'a,b; c,d', got {text!r}")
        gens.append(tuple(quadring.parse_element(K, s) for s in coords))
    return okmodules.module_from_generators(K, gens)


def _invariant_obj(data: okmodules.OkInvariantData) -> dict:
    return {
        "L": data.L.to_json(),
        "K": data.K.to_json(),
        "I": data.I.to_json(),
        "point": data.point.to_json(),
    }


def cmd_okmod_invariants(args) -> int:
    K = quadring.ring(args.disc)
    M = _parse_module(K, args.gens)
    data = okmodules.proj_invariant_element(M)
    obj = {"module": M.to_json(), "quotient_size": M.quotient_size}
    obj.update(_invariant_obj(data))
    _out(
        args,
        obj,
        f"L={data.L} K={data.K} I={data.I} point {data.point}",
    )
    return 0


def cmd_okmod_reconstruct(args) -> int:
    K = quadring.ring(args.disc)
    L = _ideal_of(K, args.invariant_l)
    Kid = _ideal_of(K, args.invariant_k)
    I = quadring.ideal_quotient(Kid, L)
    parts = args.point.split(":")
    if len(parts) != 2:
        raise _usage_error(f"expected a point 'a:b', got {args.point!r}")
    a_text, b_text = parts
    a = quadring.parse_element(K, a_text)
    b = quadring.parse_element(K, b_text)
    p = okproj.ok_class_of(a, b, I)
    M = okmodules.reconstruct(L, Kid, p)
    _out(args, M.to_json(), str(M))
    return 0


def cmd_okmod_enumerate(args) -> int:
    K = quadring.ring(args.disc)
    L = _ideal_of(K, args.invariant_l)
    Kid = _ideal_of(K, args.invariant_k)
    mods = okmodules.enumerate_cotorsion(L, Kid)
    _out(
        args,
        {"count": len(mods), "modules": [M.to_json() for M in mods]},
        "\n".join(str(M) for M in mods) + f"\ncount {len(mods)}",
    )
    return 0


def cmd_okmod_intersect(args) -> int:
    K = quadring.ring(args.disc)
    mods = [_parse_module(K, part) for part in args.modules.split("|")]
    if args.verify:
        report = okmodules.verify_intersection_theorem(mods)
        cap = report.intersection
        data = report.invariants
        obj = {
            "intersection": cap.to_json(),
            "checks": {
                "full_rank": report.full_rank,
                "ideals_multiply": report.ideals_multiply,
                "point_joins": report.point_joins,
                "witnesses_found": report.witnesses_found,
            },
        }
        obj.update(_invariant_obj(data))
        _out(args, obj, f"{cap}\nok={report.ok}")
        return 0 if report.ok else 1
    cap = mods[0]
    for M in mods[1:]:
        cap = okmodules.intersect(cap, M)
    data = okmodules.proj_invariant_element(cap)
    obj = {"intersection": cap.to_json()}
    obj.update(_invariant_obj(data))
    _out(args, obj, str(cap))
    return 0


# ---------------------------------------------------------------- parser


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotorsion",
        description="Classify sublattices of Z^2 and co-torsion modules over "
        "imaginary quadratic rings by projective-line invariants.",
    )
    parser.add_argument(
        "--format", choices=("json", "text", "csv"), default="json",
        help="output format (csv applies to zeta series dumps)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pf1 = sub.add_parser("pf1", help="projective line over Z/m")
    pf1_sub = pf1.add_subparsers(dest="subcommand", required=True)
    p = pf1_sub.add_parser("list")
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=cmd_pf1_list)
    p = pf1_sub.add_parser("card")
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=cmd_pf1_card)
    p = pf1_sub.add_parser("crt")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--split", type=_moduli_arg, required=True,
                   help="comma-separated coprime moduli")
    p.set_defaults(func=cmd_pf1_crt)

    lat = sub.add_parser("lattice", help="finite-index sublattices of Z^2")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    p = lat_sub.add_parser("invariants")
    p.add_argument("--rows", type=_rows_arg, required=True, help="basis rows 'a,b;c,d'")
    p.set_defaults(func=cmd_lattice_invariants)
    p = lat_sub.add_parser("reconstruct")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--point", type=_zpoint_arg, required=True,
                   help="projective point 'a:b'")
    p.set_defaults(func=cmd_lattice_reconstruct)
    p = lat_sub.add_parser("enumerate")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the HNF scan; exit 1 on mismatch")
    p.set_defaults(func=cmd_lattice_enumerate)

    z = sub.add_parser("zeta", help="truncated Dirichlet series")
    z.add_argument("--series", required=True, choices=_SERIES)
    z.add_argument("--nmax", type=int, required=True)
    z.add_argument("--disc", type=int, help="squarefree negative D for O_K series")
    z.add_argument("--check-identity", action="store_true",
                   help="verify the zeta identities; exit 1 on mismatch")
    z.set_defaults(func=cmd_zeta)

    idl = sub.add_parser("ideal", help="ideal arithmetic in O_K")
    idl_sub = idl.add_subparsers(dest="subcommand", required=True)
    for name, func, op in (
        ("factor", cmd_ideal_factor, None),
        ("mul", cmd_ideal_binary, quadring.ideal_mul),
        ("sum", cmd_ideal_binary, quadring.ideal_sum),
        ("quotient", cmd_ideal_binary, quadring.ideal_quotient),
        ("principal", cmd_ideal_principal, None),
    ):
        p = idl_sub.add_parser(name)
        p.add_argument("--disc", type=int, required=True)
        if op:
            p.add_argument("--lhs", required=True, help="generators 'x+y*w,...'")
            p.add_argument("--rhs", required=True, help="generators 'x+y*w,...'")
        else:
            p.add_argument("--gens", required=True, help="generators 'x+y*w,...'")
        p.set_defaults(func=func, op=op)
    p = idl_sub.add_parser("primes-above")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("-p", type=int, required=True, dest="p")
    p.set_defaults(func=cmd_ideal_primes_above)

    ok = sub.add_parser("okmod", help="co-torsion submodules of O_K^2")
    ok_sub = ok.add_subparsers(dest="subcommand", required=True)
    p = ok_sub.add_parser("invariants")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--gens", required=True,
                   help="module generators 'a0+a1*w,b0+b1*w; ...'")
    p.set_defaults(func=cmd_okmod_invariants)
    p = ok_sub.add_parser("reconstruct")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--L", required=True, dest="invariant_l", help="generators of L")
    p.add_argument("--K", required=True, dest="invariant_k", help="generators of K")
    p.add_argument("--point", required=True, help="point 'a:b' with quad elements")
    p.set_defaults(func=cmd_okmod_reconstruct)
    p = ok_sub.add_parser("enumerate")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--L", required=True, dest="invariant_l")
    p.add_argument("--K", required=True, dest="invariant_k")
    p.set_defaults(func=cmd_okmod_enumerate)
    p = ok_sub.add_parser("intersect")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--modules", required=True,
                   help="modules separated by '|', each 'a,b; c,d' generator pairs")
    p.add_argument("--verify", action="store_true",
                   help="check the intersection invariants; exit 1 on failure")
    p.set_defaults(func=cmd_okmod_intersect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops an attached value of '--' (as in --mod=--) and stores
    # [] without calling the option's type; no option has an empty value
    if any(value == [] for value in vars(args).values()):
        parser.error("an option value of '--' is not accepted")
    if args.format == "csv" and (args.command != "zeta" or args.check_identity):
        parser.error("--format csv applies to zeta series dumps only")
    try:
        try:
            code = args.func(args)
        except CotorsionError as exc:
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot fail again (Python's SIGPIPE note)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
