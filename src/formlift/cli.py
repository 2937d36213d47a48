"""Command line front end.

Exit status: 0 when the command succeeds (and any checks pass), 1 when a
verification or membership check fails, 2 for usage or input errors, which
are reported as a single diagnostic line on stderr.  All numeric input and
output is exact rational text.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import formula as fm
from . import instances, lpsolve, measures, verify
from . import polytope as pt


class InputError(Exception):
    """Bad file content or unusable parameter combination; exits 2."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_formula(path: str, n=None) -> fm.Formula:
    try:
        return fm.parse(_read(path), n)
    except fm.ParseError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_ef(path: str, n=None, mismatch=None):
    """A formulation file; one over m != n variables is refused with the
    line mismatch(m) as soon as its header is read."""
    def check(m):
        if n is not None and m != n:
            raise InputError(mismatch(m))

    try:
        return pt.from_text(_read(path), check)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_polytope(source, n: int):
    """The base relaxation: the cube (source None or 'cube') or a formulation file."""
    if source in (None, "cube"):
        return pt.cube(n)
    return _load_ef(source, n, lambda m: f"{source} is over {m} variables, the formula over {n}")


def _refuse_unused(args, command, **used):
    """An InputError for the first flag given that `command` does not use."""
    for flag, use in used.items():
        if getattr(args, flag) is not None and not use:
            raise InputError(f"{command} takes no --{flag.replace('_', '-')}")


def _parse_vector(text: str, what: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise InputError(f"empty entry in {what}")
        out.append(pt._parse_frac(tok, what))
    return tuple(out)


# an optional Fraction coefficient (no blank, '*' or 'x'), then a variable
_TERM = re.compile(r"^(?:([^\s*x]+)\s*\*?\s*)?x(\d+)$")


def _parse_ineq(text: str, n: int):
    """Parse `c1*x1 + c2 x2 - x3 >= rhs` into dense coefficients and bound."""
    if ">=" not in text:
        raise InputError("inequality must use >=")
    lhs, _, rhs = text.partition(">=")
    bound = pt._parse_frac(rhs.strip(), "right-hand side")
    coeffs = [Fraction(0)] * n
    # term, sign, term, ...; only the first term, before a leading sign, may be empty
    parts = re.split(r"([+-])", lhs)
    parts = parts[1:] if len(parts) > 1 and not parts[0].strip() else ["+"] + parts
    for sign, term in zip(parts[::2], parts[1::2]):
        term = term.strip()
        if not term:
            raise InputError(f"missing term in {lhs.strip()!r}")
        m = _TERM.match(term)
        if not m:
            raise InputError(f"cannot read term {term!r}")
        c = pt._parse_frac(m.group(1), f"term {term!r}") if m.group(1) else Fraction(1)
        var = int(m.group(2))
        if not 1 <= var <= n:
            raise InputError(f"variable x{var} outside 1..{n}")
        coeffs[var - 1] += -c if sign == "-" else c
    return tuple(coeffs), bound


def _printable(what: str, render, *args) -> str:
    """render(*args), text of exact numbers, or an InputError naming `what`
    when a number has more digits than the interpreter turns into text."""
    try:
        return render(*args)
    except ValueError as exc:
        raise InputError(f"{what} has more than {sys.get_int_max_str_digits()} digits, "
                         "too long to print") from exc


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_parse(args):
    phi = _load_formula(args.formula, args.n)
    print(phi.to_text())
    if args.verbose:
        print(f"n={phi.n} size={phi.size} reduced={phi.is_reduced()}", file=sys.stderr)
    return 0


def _cmd_reduce(args):
    phi = fm.reduce(_load_formula(args.formula, args.n))
    _emit(phi.to_text() + "\n", args.out)
    return 0


def _cmd_lift(args):
    phi = fm.reduce(_load_formula(args.formula))
    Q = _load_polytope(args.polytope, phi.n)
    ef, reports = pt.iterate_lift(phi, Q, args.rounds)
    _emit(_printable("a number of the lifted formulation", pt.to_text, ef), args.out)
    for i, rep in enumerate(reports, start=1):
        print(f"round {i}: {rep.summary_line()}", file=sys.stderr)
    return 0


def _cmd_optimize(args):
    c = _parse_vector(args.obj, "--obj")
    Q = _load_ef(args.ef, len(c), lambda m: f"objective has {len(c)} entries, the formulation {m}")
    out = None if Q.empty_marker else lpsolve.optimize(Q, c, "max" if args.max else "min")
    if out is None or out.status == "infeasible":
        raise InputError(f"{args.ef}: the formulation is empty; nothing to optimize")
    # both texts are made before either is printed, so a failure prints nothing
    value = _printable("the optimal value", str, out.value)
    at = _printable("the optimal point", " ".join, map(str, out.x)) if args.verbose else None
    print(value)
    if at is not None:
        print("at " + at, file=sys.stderr)
    return 0


def _cmd_member(args):
    x = _parse_vector(args.point, "--point")
    Q = _load_ef(args.ef, len(x), lambda m: f"point has {len(x)} entries, the formulation {m}")
    inside = lpsolve.contains_point(Q, x)
    print("inside" if inside else "outside")
    return 0 if inside else 1


def _cmd_measure(args):
    if args.n < 1:
        raise InputError(f"--n must be at least 1, not {args.n}")
    coeffs, rhs = _parse_ineq(args.ineq, args.n)
    q = measures.to_standard_form(coeffs, rhs)
    if q is None:
        print("pitch=0 notch=0")
        return 0
    print(f"pitch={measures.pitch_of(q)} notch={measures.notch_of(q)}")
    return 0


def _int_lines(path: str, item: str, items: str):
    """The integer rows of a file, one per line; `#` starts a comment."""
    rows = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(tuple(int(t) for t in line.split()))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: not {item}") from exc
    if not rows:
        raise InputError(f"{path}: no {items}")
    return rows


def _points_from_file(path: str, n=None):
    pts = _int_lines(path, "a 0/1 point", "points")
    dim = n if n is not None else len(pts[0])
    try:
        return fm.point_set(dim, pts)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _cmd_notchset(args):
    if args.points:
        S = _points_from_file(args.points, args.n)
    else:
        phi = _load_formula(args.formula, args.n)
        measures._check_faces(phi.n)
        S = fm.enumerate_set(phi)
    print(f"notch={measures.notch_of_set(S)}")
    return 0


def _cmd_closure(args):
    phi = fm.reduce(_load_formula(args.formula))
    measures._check_search(args.mode, phi.n)
    S = fm.enumerate_set(phi)
    if args.ef:
        _refuse_unused(args, "closure --ef", polytope=False, rounds=False)
        R = _load_ef(args.ef, phi.n,
                     lambda m: f"{args.ef} is over {m} variables, the formula over {phi.n}")
    else:
        rounds = args.rounds if args.rounds is not None else args.level
        R, _ = pt.iterate_lift(phi, _load_polytope(args.polytope, phi.n), rounds)
    rep = measures.verify_closure(measures.ClosureQuery(args.mode, args.level, S, R))
    print(rep.line())
    return 0 if rep.closed else 1


def _cmd_gen(args):
    _refuse_unused(args, f"gen {args.family}", n=args.family == "bz",
                   matrix=args.family in ("covering", "bounded"), b=args.family == "bounded")
    if args.family == "bz" and args.n is None:
        raise InputError("gen bz needs --n")
    if args.family in ("covering", "bounded") and not args.matrix:
        raise InputError(f"gen {args.family} needs --matrix")
    if args.family == "bounded" and not args.b:
        raise InputError("gen bounded needs --b")
    if args.family == "bz":
        inst = instances.gen_bz(args.n)
    elif args.family == "matching-k4":
        inst = instances.gen_matching_k4()
    else:
        b = None
        if args.family == "bounded":
            b = _parse_vector(args.b, "--b")
            if any(v.denominator != 1 for v in b):
                raise InputError(f"--b thresholds must be integers, got {args.b!r}")
            b = tuple(int(v) for v in b)
        A = _int_lines(args.matrix, "an integer row", "rows")
        try:
            inst = (instances.gen_covering(A) if b is None else
                    instances.gen_bounded_covering(A, b))
        except ValueError as exc:
            raise InputError(f"{args.matrix}: {exc}") from exc
    paths = instances.save_bundle(inst, args.out or ".")
    print(f"instance {inst.name} n={inst.n}")
    if args.verbose:
        for p in paths:
            print(f"wrote {p}", file=sys.stderr)
    return 0


# each `verify` kind's checker, looked up on `verify` by name when it runs, and
# whether it lifts over --polytope (else it takes --rounds)
_CHECKS = {"sandwich": ("check_sandwich", True), "complete": ("check_completeness", False),
           "integral": ("check_integrality", True), "pitch": ("check_pitch_progression", False),
           "notch": ("check_notch_progression", False), "size": ("check_size_accounting", True)}


def _one_check(args, path):
    phi = _load_formula(path)
    (check, lifts), name = _CHECKS[args.kind], Path(path).stem
    if not lifts:
        return getattr(verify, check)(phi, args.rounds, instance=name)
    size = {"covering_m": args.covering_m} if args.kind == "size" else {}
    Q = _load_polytope(args.polytope, phi.n)
    return getattr(verify, check)(phi, Q, instance=name, **size)


def _cmd_verify(args):
    lifts = _CHECKS[args.kind][1]
    _refuse_unused(args, f"verify {args.kind}", polytope=lifts, rounds=not lifts,
                   covering_m=args.kind == "size")
    args.rounds = 1 if args.rounds is None else args.rounds
    if args.rounds < 1:
        raise InputError("this check needs --rounds at least 1")
    reports = [_one_check(args, path) for path in args.formula]
    for rep in reports:
        print(rep.line())
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# argument grammar


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument grammar, built on first use and shared by every dispatch."""
    top = argparse.ArgumentParser(
        prog="formlift",
        description="Strengthen 0/1 relaxations with Boolean formulas, exactly.")
    top.add_argument("-v", "--verbose", action="count", default=0)
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(run=_cmd_parse)

    p = sub.add_parser("reduce", help="push negations to the literals")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("lift", help="apply a formula to a relaxation")
    p.add_argument("--formula", required=True)
    p.add_argument("--polytope", help="'cube' or a formulation file (default cube)")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_lift)

    p = sub.add_parser("optimize", help="exact LP over a formulation file")
    p.add_argument("--ef", required=True)
    sense = p.add_mutually_exclusive_group(required=True)
    sense.add_argument("--min", action="store_true")
    sense.add_argument("--max", action="store_true")
    p.add_argument("--obj", required=True, help="comma-separated rationals")
    p.set_defaults(run=_cmd_optimize)

    p = sub.add_parser("member", help="membership of a point in a formulation")
    p.add_argument("--ef", required=True)
    p.add_argument("--point", required=True, help="comma-separated rationals")
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("measure", help="pitch and notch of one inequality")
    p.add_argument("--ineq", required=True, help='e.g. "x1 + x5 >= 1"')
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_measure)

    p = sub.add_parser("notchset", help="notch of a 0/1 point set")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="file with one 0/1 point per line")
    src.add_argument("--formula", help="formula file; the set is enumerated")
    p.add_argument("--n", type=int)
    p.set_defaults(run=_cmd_notchset)

    p = sub.add_parser("closure", help="search for a violated low-measure inequality")
    p.add_argument("--mode", choices=("pitch", "notch"), required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--polytope", help="'cube' or a formulation file (default cube)")
    p.add_argument("--ef", help="check this formulation instead of lifting")
    p.add_argument("--rounds", type=int, help="lift rounds (default: the level)")
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser("gen", help="write a named instance bundle")
    p.add_argument("family", choices=("bz", "covering", "bounded", "matching-k4"))
    p.add_argument("--n", type=int, help="dimension (bz)")
    p.add_argument("--matrix", help="matrix file (covering, bounded)")
    p.add_argument("--b", help="comma-separated thresholds (bounded)")
    p.add_argument("--out", help="bundle directory (default .)")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("verify", help="run a checker over formula files")
    p.add_argument("kind", choices=tuple(_CHECKS))
    p.add_argument("--formula", required=True, nargs="+")
    p.add_argument("--polytope", help="'cube' or a formulation file (default cube)")
    p.add_argument("--rounds", type=int,
                   help="k_max / v_max for complete, pitch, notch (default 1)")
    p.add_argument("--covering-m", type=int, dest="covering_m",
                   help="report the covering yardstick ratio (size)")
    p.set_defaults(run=_cmd_verify)

    return top


def _vectors_joined(argv) -> list:
    """argv with each `--obj v` and `--point v` written as `--obj=v`, so that
    argparse takes a vector that starts with `-`, such as -1,1, as the value."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--obj", "--point"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def dispatch(argv) -> int:
    args = _parser().parse_args(_vectors_joined(argv))
    try:
        if (getattr(args, "rounds", None) or 0) < 0:
            raise InputError("rounds must be nonnegative")
        if getattr(args, "level", 1) < 1:
            raise InputError("level must be at least 1")
        return args.run(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"formlift: {exc}", file=sys.stderr)
        return 2
    except lpsolve.UnboundedError:
        print("formlift: an objective is unbounded over this formulation; "
              "a lifted relaxation of a 0/1 set is bounded", file=sys.stderr)
        return 2
    except RecursionError:
        print("formlift: formula nests too deeply or has too long a chain", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
