"""Command-line surface: `polar <subcommand>`.

Inputs are validated and parsed before any Groebner work starts.  Exit
codes: 0 success, 1 verification mismatch, 2 input error, 3 resource
budget exceeded, 4 internal error (a failed invariant of the package).
The POLAR_PRIME environment variable overrides the default modulus; every
flag that draws randomness is seeded explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .experiment import MODE_DELTA, MODE_FULL, run_grid, summarize_grid
from .families import (FamilyDrawError, build_family_31, degree_domination_check,
                        example2_chain, verify_singular_witness)
from .field import DEFAULT_PRIME, PrimeField
from .groebner import (DEFAULT_LIMITS, BudgetExceededError, GBLimits,
                       IdealPresentation, InternalError, degree, dimension,
                       reduced_groebner_basis)
from .matrices import ConstMatrix
from .parsing import ParseError, parse_system
from .polar import (CLASSIC, DUAL, PolarSpec, PolarSpecError,
                    PointClassificationError, delta_ideal, incidence_fiber_dim,
                    polar_ideal, singular_locus_dim, thom_boardman_class)
from .poly import Polynomial

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def _field(args) -> PrimeField:
    prime = getattr(args, "prime", None)
    if prime is None:
        env = os.environ.get("POLAR_PRIME")
        try:
            prime = int(env) if env else DEFAULT_PRIME
        except ValueError:
            raise InputError(f"POLAR_PRIME must be an integer, not {env!r}") from None
    try:
        return PrimeField(prime)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _limits(args) -> GBLimits:
    return GBLimits(max_pairs=args.max_pairs, max_basis=args.max_basis,
                    max_degree=args.max_degree)


def _is_int_array(value) -> bool:
    """A JSON array of integers.  JSON true and false load as bool, a
    subclass of int, and do not count."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def _load_system(path: str, field: PrimeField) -> tuple[list[Polynomial], int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read system file {path}: {exc}") from None
    return parse_system(text, field)


def _load_matrix(path: str, field: PrimeField) -> tuple[ConstMatrix, list[int] | None]:
    """Matrix JSON: either a plain array of rows or an object with `rows`
    and optional `col0`.  Returns (a, column0 or None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"matrix file {path} is not valid JSON: {exc}") from None
    col0 = None
    if isinstance(data, dict):
        rows = data.get("rows")
        col0 = data.get("col0")
    else:
        rows = data
    if not isinstance(rows, list) or not rows or not all(map(_is_int_array, rows)):
        raise InputError(f"matrix file {path} must hold an array of integer rows")
    if col0 is not None and not _is_int_array(col0):
        raise InputError("col0 must be an array of integers")
    return ConstMatrix(field, rows), col0


def _classic_matrix(path: str, field: PrimeField) -> ConstMatrix:
    """The matrix of a classic projection: `tb` and `fiber` read the rows
    alone, so a nonzero col0 is rejected as `construct` rejects it."""
    a, col0 = _load_matrix(path, field)
    if col0 is not None and any(c % field.q for c in col0):
        raise InputError("the classic flavor forbids a nonzero column 0")
    return a


def _parse_point(text: str, field: PrimeField, n: int) -> tuple[int, ...]:
    try:
        coords = [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"point {text!r} is not a comma-separated integer list") \
            from None
    if len(coords) != n:
        raise InputError(f"point has {len(coords)} coordinates, system needs {n}")
    return tuple(v % field.q for v in coords)


def _polar_spec(args, field: PrimeField, F: list[Polynomial], n: int) -> PolarSpec:
    a, col0 = _load_matrix(args.matrix, field)
    return PolarSpec(n, len(F), args.i, args.flavor, F, a, col0)


def _emit(args, human: str, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        print(human)


# ------------------------------------------------------------------- commands


def cmd_parse(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    _emit(args, "\n".join(str(f) for f in F),
          {"n": n, "polynomials": [str(f) for f in F]})
    return EXIT_OK


def cmd_gb(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    G = reduced_groebner_basis(IdealPresentation(field, n, F), _limits(args))
    _emit(args, "\n".join(str(g) for g in G.basis),
          {"n": n, "basis": [str(g) for g in G.basis]})
    return EXIT_OK


def cmd_dim(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    G = reduced_groebner_basis(IdealPresentation(field, n, F), _limits(args))
    d = dimension(G)
    _emit(args, str(d), {"n": n, "dimension": d})
    return EXIT_OK


def cmd_deg(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    G = reduced_groebner_basis(IdealPresentation(field, n, F), _limits(args))
    d = degree(G)
    _emit(args, str(d), {"n": n, "degree": d})
    return EXIT_OK


def _construct_payload(result) -> dict:
    return {"dim": result.dim, "codim_in_S": result.codim_in_S,
            "degree": result.degree,
            "generators": [str(g) for g in result.ideal.generators]}


def cmd_construct(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    spec = _polar_spec(args, field, F, n)
    result = polar_ideal(spec, _limits(args))
    payload = _construct_payload(result)
    payload.update({"n": n, "p": len(F), "i": args.i, "flavor": args.flavor})
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    _emit(args, f"dim {result.dim}  codim_in_S {result.codim_in_S}  "
                f"degree {result.degree}", payload)
    return EXIT_OK


def cmd_delta(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    spec = _polar_spec(args, field, F, n)
    result = delta_ideal(spec, _limits(args))
    payload = _construct_payload(result)
    payload.update({"n": n, "p": len(F), "i": args.i, "flavor": args.flavor})
    _emit(args, f"dim {result.dim}  degree {result.degree}", payload)
    return EXIT_OK


def cmd_singular(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    spec = _polar_spec(args, field, F, n)
    limits = _limits(args)
    result = polar_ideal(spec, limits)
    dim_sing, route = singular_locus_dim(result, limits)
    note = " (polar variety empty)" if route == "empty" else ""
    _emit(args, f"{dim_sing}{note}",
          {"dim_W": result.dim, "dim_sing": dim_sing, "mode": MODE_FULL})
    return EXIT_OK


def cmd_tb(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    a = _classic_matrix(args.matrix, field)
    x = _parse_point(args.point, field, n)
    j = thom_boardman_class(F, a, x)
    _emit(args, str(j), {"class": j})
    return EXIT_OK


def cmd_fiber(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    a = _classic_matrix(args.matrix, field)
    x = _parse_point(args.point, field, n)
    d = incidence_fiber_dim(F, a, x, args.i)
    _emit(args, str(d), {"fiber_dim": d})
    return EXIT_OK


def cmd_family31(args) -> int:
    field = _field(args)
    inst = build_family_31(args.n, args.seed, field, limits=_limits(args))
    report = verify_singular_witness(inst)
    payload = {
        "n": inst.n, "seed": args.seed,
        "xi": list(inst.xi),
        "c1": inst.c1, "c2": inst.c2,
        "det_vanishes_at_xi": report.det_vanishes_at_xi,
        "gradient_vanishes_at_xi": report.gradient_vanishes_at_xi,
        "derivative_identity_ok": report.derivative_identity_ok,
        "jacobian_rank_is_two": report.jacobian_rank_is_two,
        "singular_generators_vanish": report.singular_generators_vanish,
        "ok": report.ok,
    }
    human = ["singular-witness checks at xi:"]
    for key in ("det_vanishes_at_xi", "gradient_vanishes_at_xi",
                "derivative_identity_ok", "jacobian_rank_is_two",
                "singular_generators_vanish"):
        human.append(f"  {key}: {'pass' if payload[key] else 'FAIL'}")
    _emit(args, "\n".join(human), payload)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_chain2(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    if args.gamma:
        try:
            with open(args.gamma, "r", encoding="utf-8") as fh:
                gamma = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read gamma file: {exc}") from None
        if not _is_int_array(gamma):
            raise InputError("gamma file must hold an integer array")
    else:
        import random
        rng = random.Random(args.seed)
        gamma = [rng.randrange(1, field.q) for _ in range(n)]
    report = example2_chain(F, gamma, _limits(args))
    payload = {
        "gamma": [v % field.q for v in gamma],
        "levels": [{"i": lv.i, "dim": lv.dim, "degree": lv.degree,
                    "smooth": lv.smooth, "contains_next": lv.contains_next}
                   for lv in report.levels],
        "dims_descend": report.dims_descend,
        "all_smooth": report.all_smooth,
        "inclusions_ok": report.inclusions_ok,
        "ok": report.ok,
    }
    human = [f"level {lv.i}: dim {lv.dim} degree {lv.degree} "
             f"smooth {'yes' if lv.smooth else 'NO'}" for lv in report.levels]
    human.append(f"chain ok: {report.ok}")
    _emit(args, "\n".join(human), payload)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_degcmp(args) -> int:
    field = _field(args)
    F, n = _load_system(args.system, field)
    report = degree_domination_check(F, args.i, args.trials, args.seed,
                                     flavor=args.flavor, limits=_limits(args))
    d = max(f.total_degree() for f in F)
    payload = {
        "n": n, "p": len(F), "i": args.i, "flavor": args.flavor,
        "random_degrees": list(report.random_degrees),
        "structured_degrees": {k: list(v)
                               for k, v in report.structured_degrees.items()},
        "random_degrees_agree": report.random_degrees_agree,
        "dominated": report.dominated,
        "bezout_bound": report.bezout_bound(d),
        "within_bezout": report.within_bezout(d),
    }
    ok = (report.random_degrees_agree and report.dominated
          and report.within_bezout(d))
    human = (f"random degrees {list(report.random_degrees)}  structured "
             f"{payload['structured_degrees']}  dominated {report.dominated}")
    _emit(args, human, payload)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_experiment(args) -> int:
    field = _field(args)
    results = run_grid(args.nmax, seeds=args.seeds, mode=args.mode,
                       flavor=args.flavor, prime=field.q,
                       master_seed=args.master_seed, limits=_limits(args),
                       p_max=args.p_max)
    lines = [json.dumps(r.to_record(with_timing=args.timings)) for r in results]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    if args.json:
        for line in lines:
            print(line)
    else:
        print(summarize_grid(results))
    mismatched = [r for r in results if r.status == "ok" and not r.match]
    return EXIT_MISMATCH if mismatched else EXIT_OK


# --------------------------------------------------------------------- parser


def _add_common(sp, system=True, matrix=False, polar=False, budget=True):
    sp.add_argument("--prime", type=int, default=None,
                    help="field modulus (default: POLAR_PRIME or 10000000019)")
    sp.add_argument("--json", action="store_true", help="JSON output")
    if budget:  # only for the commands that build a Groebner basis
        sp.add_argument("--max-pairs", type=int, default=DEFAULT_LIMITS.max_pairs,
                        help="Buchberger pair budget")
        sp.add_argument("--max-basis", type=int, default=DEFAULT_LIMITS.max_basis,
                        help="Buchberger basis-size budget")
        sp.add_argument("--max-degree", type=int, default=DEFAULT_LIMITS.max_degree,
                        help="Buchberger element-degree budget")
    if system:
        sp.add_argument("--system", required=True,
                        help="file with one polynomial per line")
    if matrix:
        sp.add_argument("--matrix", required=True,
                        help="JSON file with the constant matrix")
    if polar:
        sp.add_argument("--flavor", choices=[CLASSIC, DUAL], default=CLASSIC)
        sp.add_argument("--i", type=int, required=True,
                        help="polar index, 1 <= i <= n-p")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polar",
        description="Exact polar-variety constructions over a prime field")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="validate and canonicalize a system file")
    _add_common(sp, budget=False)
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("gb", help="reduced Groebner basis of a system")
    _add_common(sp)
    sp.set_defaults(func=cmd_gb)

    sp = sub.add_parser("dim", help="dimension of the variety of a system")
    _add_common(sp)
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("deg", help="degree of the variety of a system")
    _add_common(sp)
    sp.set_defaults(func=cmd_deg)

    sp = sub.add_parser("construct", help="build a polar ideal and report "
                                          "dimension and degree")
    _add_common(sp, matrix=True, polar=True)
    sp.add_argument("--report", help="write the JSON report to this path")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("delta", help="rank-degeneracy locus of a polar stack")
    _add_common(sp, matrix=True, polar=True)
    sp.set_defaults(func=cmd_delta)

    sp = sub.add_parser("singular", help="singular locus of a polar variety")
    _add_common(sp, matrix=True, polar=True)
    sp.set_defaults(func=cmd_singular)

    sp = sub.add_parser("tb", help="projection kernel dimension at a point")
    _add_common(sp, matrix=True, budget=False)
    sp.add_argument("--point", required=True, help='e.g. "1,0,0"')
    sp.set_defaults(func=cmd_tb)

    sp = sub.add_parser("fiber", help="multiplier-fiber dimension at a point")
    _add_common(sp, matrix=True, budget=False)
    sp.add_argument("--point", required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.set_defaults(func=cmd_fiber)

    sp = sub.add_parser("family31", help="singular generic polar witness family")
    _add_common(sp, system=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_family31)

    sp = sub.add_parser("chain2", help="localized dual chain of polar varieties")
    _add_common(sp)
    sp.add_argument("--gamma", help="JSON file with the gamma row")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_chain2)

    sp = sub.add_parser("degcmp", help="structured versus random polar degrees")
    _add_common(sp)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--trials", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--flavor", choices=[CLASSIC, DUAL], default=CLASSIC)
    sp.set_defaults(func=cmd_degcmp)

    sp = sub.add_parser("experiment", help="replicate the singular-locus grid")
    _add_common(sp, system=False)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--seeds", type=int, default=1)
    sp.add_argument("--mode", choices=[MODE_FULL, MODE_DELTA], default=MODE_FULL)
    sp.add_argument("--flavor", choices=[CLASSIC, DUAL], default=CLASSIC)
    sp.add_argument("--master-seed", type=int, default=0)
    sp.add_argument("--p-max", type=int, default=None,
                    help="skip cells with p above this bound")
    sp.add_argument("--out", help="write JSON-lines records to this path")
    sp.add_argument("--timings", action="store_true",
                    help="include measured elapsed_ms (breaks byte-level "
                         "determinism across runs)")
    sp.set_defaults(func=cmd_experiment)

    return ap


def dispatch(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, ParseError, PolarSpecError, PointClassificationError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FamilyDrawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv: Sequence[str] | None = None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
