"""Command-line interface.

Subcommands: invariants, minimise, level, construct, convert, oracle.
Model files are JSON documents {"kind": ..., "coeffs": [...]} with decimal
string coefficients in the documented index order: integers or rationals for
quartics and ternary cubics, integers for (2,2)-forms, cubes and hypercubes.
A coefficient is any string fractions.Fraction accepts ("-12", "1_000",
"1.5", "3/4", "1e3"; not "0x10"); integer strings are read by int().  The
argument parser is built once per process, so repeated in-process main()
calls pay only for parsing their argv.

The library checks every model and prime it is given; the command line
refuses only what it alone handles (files, JSON, model documents, options).
Exit codes follow the type of the exception: 0 success; 2 RefusedInputError
(an unreadable or unwritable file, a bad model document or option, a missing
or composite --prime, a prime outside the oracle's or --critical's range, a
non-integral model where integers are needed); 3 UnsupportedModelError (an
operation not defined for the model's kind, or a conversion whose point
condition fails); 4 SingularModelError; 5 FactorizationError (--global cannot
split a composite part of gcd(c4, c6) above 2^80); 6 any other ValueError,
AssertionError or ArithmeticError, a check inside the library that failed on
accepted input, reported as "internal error: ...".  argparse's own errors
exit 2 as well.  A report whose reader closes the pipe early exits 1, with
no traceback.  Reports go to stdout, diagnostics to stderr.  Primes and the
integers in model files and reports may have any number of digits.
"""

import argparse
import contextlib
import functools
import json
import sys

from .construct import (
    construct_22, construct_cube, convert_2to3, convert_3to2, critical_model,
    enumerate_minimal_weights, oracle_minimality_22, symmetric_minimal_weights,
)
from .exactnum import RefusedInputError
from .invariants import (
    cube_invariants, cubic_invariants, discriminant, form22_invariants,
    hypercube_invariants, quartic_invariants,
)
from .minimise import FactorizationError, minimise, minimise_global
from .models import (
    SingularModelError, UnsupportedModelError, group_element_to_dict, is_integral,
    model_from_dict, model_to_dict,
)
from .weierstrass import level

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_KIND = 3
EXIT_SINGULAR = 4
EXIT_FACTOR = 5
EXIT_INTERNAL = 6

_EXIT_CODES = {
    RefusedInputError: EXIT_PARSE,
    UnsupportedModelError: EXIT_KIND,
    SingularModelError: EXIT_SINGULAR,
    FactorizationError: EXIT_FACTOR,
}

def _load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise RefusedInputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise RefusedInputError(f"invalid JSON in {path}: {e}")
    try:
        m = model_from_dict(doc)
    except (ValueError, TypeError, ArithmeticError) as e:
        raise RefusedInputError(f"bad model file {path}: {e}")
    return m


def _refuse_rational(m):
    """m, unless a rational (2,2)-form, cube or hypercube: model files give
    these as integers, and only `invariants` and `convert` would take one."""
    if m.kind in ("form22", "cube", "hypercube") and not is_integral(m):
        raise RefusedInputError("model must be integral")
    return m


def _emit(doc, args, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _write_model(m, args, meta=None):
    doc = model_to_dict(m, meta)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(json.dumps(doc, indent=2) + "\n")
        except OSError as e:
            raise RefusedInputError(f"cannot write {out}: {e}")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(json.dumps(doc, indent=2))


class _MissingPrime:
    """The context of an absent --prime: the library reads its prime only
    after checking the model, so a refused model keeps its exit code."""
    @property
    def p(self):
        raise RefusedInputError("--prime is required")


def _prime(args):
    return _MissingPrime() if args.prime is None else args.prime


def cmd_invariants(args):
    m = _refuse_rational(_load_model(args.model))
    doc = {"kind": m.kind}
    lines = [f"kind: {m.kind}"]
    if m.kind == "quartic":
        i_inv, j_inv, disc = quartic_invariants(m)
        doc.update(I=str(i_inv), J=str(j_inv), Delta=str(disc))
        lines += [f"I = {i_inv}", f"J = {j_inv}", f"Delta = {disc}"]
    elif m.kind == "cubic":
        c4, c6, disc = cubic_invariants(m)
        doc.update(c4=str(c4), c6=str(c6), Delta=str(disc))
        lines += [f"c4 = {c4}", f"c6 = {c6}", f"Delta = {disc}"]
    elif m.kind in ("form22", "cube"):
        inv = form22_invariants(m) if m.kind == "form22" else cube_invariants(m)
        doc.update(
            c4=str(inv.c4), c6=str(inv.c6), Delta=str(inv.disc),
            a_invariants=[str(a) for a in inv.a_invariants],
            xi=str(inv.xi), eta=str(inv.eta), u=str(inv.u), v=str(inv.v),
        )
        a1, a2, a3, a4, a6 = inv.a_invariants
        lines += [
            f"c4 = {inv.c4}", f"c6 = {inv.c6}", f"Delta = {inv.disc}",
            f"curve: y^2 + {a1} xy + {a3} y = x^3 + {a2} x^2 + {a4} x + {a6}",
            f"point: ({inv.xi}, {inv.eta})",
            f"u = {inv.u}", f"v = {inv.v}",
        ]
    else:  # hypercube
        hi = hypercube_invariants(m)
        doc.update(c4=str(hi.c4), c6=str(hi.c6), Delta=str(hi.disc))
        doc["points"] = [[str(x), str(y)] for x, y in hi.points_on_common_model]
        lines += [f"c4 = {hi.c4}", f"c6 = {hi.c6}", f"Delta = {hi.disc}"]
        for n, (x, y) in enumerate(hi.points_on_common_model, 1):
            lines.append(f"P{n} = ({x}, {y}) on y^2 = x^3 - 27 c4 x - 54 c6")
    _emit(doc, args, lines)
    return EXIT_OK


def _step_doc(step):
    return {
        "label": step.label,
        "vDeltaBefore": step.v_disc_before,
        "vDeltaAfter": step.v_disc_after,
        "detail": [str(x) for x in step.detail],
    }


def cmd_minimise(args):
    m = _load_model(args.model)
    if args.global_:
        rep = minimise_global(m)
        doc = {
            "mode": "global",
            "primes": list(rep.primes),
            "model": model_to_dict(rep.model),
            "transformation": group_element_to_dict(rep.transformation),
            "steps": {str(p): [_step_doc(s) for s in r.steps] for p, r in rep.local_reports},
        }
        lines = [f"reduced at primes: {', '.join(map(str, rep.primes)) or '(none)'}"]
        for p, r in rep.local_reports:
            lines.append(f"p = {p}: v(Delta) {r.v_disc_initial} -> {r.v_disc_final}"
                         f" in {len(r.steps)} steps")
        if not args.json:  # the text report alone shows Delta
            lines.append(f"final Delta = {discriminant(rep.model)}")
    else:
        rep = minimise(m, _prime(args))
        doc = {
            "mode": "local",
            "prime": rep.prime,
            "vDeltaInitial": rep.v_disc_initial,
            "vDeltaFinal": rep.v_disc_final,
            "alreadyMinimal": rep.input_was_minimal,
            "verdict": rep.verdict.value,
            "model": model_to_dict(rep.model),
            "transformation": group_element_to_dict(rep.transformation),
            "steps": [_step_doc(s) for s in rep.steps],
        }
        if rep.input_was_minimal:
            lines = [f"already minimal at p = {rep.prime} (v(Delta) = {rep.v_disc_initial})"]
        else:
            lines = [
                f"v(Delta): {rep.v_disc_initial} -> {rep.v_disc_final} at p = {rep.prime}",
                "steps: " + ", ".join(s.label for s in rep.steps),
            ]
        lines.append(f"verdict: {rep.verdict.value}")
    _emit(doc, args, lines)
    if args.out:
        _write_model(rep.model, args)
    return EXIT_OK


def cmd_level(args):
    rep = level(_load_model(args.model), args.prime)
    doc = {"vDelta": rep.v_disc, "vDeltaMin": rep.v_disc_min,
           "kappa": rep.kappa, "level": rep.level}
    _emit(doc, args, [
        f"v(Delta) = {rep.v_disc}",
        f"v(Delta_min of Jacobian) = {rep.v_disc_min}",
        f"kappa = {rep.kappa}",
        f"level = {rep.level}",
    ])
    return EXIT_OK


def cmd_construct(args):
    if args.critical:
        m = critical_model(args.critical, _prime(args), args.seed)
        _write_model(m, args, meta={"critical": args.critical, "prime": args.prime,
                                    "seed": args.seed})
        return EXIT_OK
    if not args.curve:
        raise RefusedInputError("either --curve or --critical is required")
    try:
        a1, a2, a3, a4 = (int(x) for x in args.curve.split(","))
    except ValueError:
        raise RefusedInputError("--curve expects four comma-separated integers")
    m = construct_22(a1, a2, a3, a4) if args.type == "22" else construct_cube(a1, a2, a3, a4)
    _write_model(m, args, meta={"curve": [a1, a2, a3, a4, 0]})
    return EXIT_OK


def cmd_convert(args):
    m = _refuse_rational(_load_model(args.model))
    _write_model(convert_2to3(m) if args.direction == "2to3" else convert_3to2(m), args)
    return EXIT_OK


def cmd_oracle(args):
    if args.what == "weights":
        weights = enumerate_minimal_weights()
        symmetric = symmetric_minimal_weights()
        if args.count_only:
            print(f"{len(weights)} minimal, {len(symmetric)} after symmetry")
            return EXIT_OK
        doc = {
            "minimal": [{"entries": list(w.entries), "s": w.s} for w in weights],
            "symmetric": [{"entries": list(w.entries), "s": w.s} for w in symmetric],
        }
        lines = [f"{len(weights)} minimal weight classes (s <= 10); "
                 f"{len(symmetric)} after the symmetry filter:"]
        for w in symmetric:
            e = w.entries
            lines.append(f"  ({e[0]},{e[1]}; {e[2]},{e[3]}; {e[4]},{e[5]})  s = {w.s}")
        _emit(doc, args, lines)
        return EXIT_OK
    # min22
    verdict = oracle_minimality_22(_load_model(args.model), args.prime)
    _emit({"minimal": verdict, "prime": args.prime}, args,
          [f"{'minimal' if verdict else 'not minimal'} at p = {args.prime} (exhaustive search)"])
    return EXIT_OK


@functools.cache
def build_parser():
    """The argparse tree, built once per process; parse_args returns a fresh
    Namespace on each call."""
    ap = argparse.ArgumentParser(
        prog="g1min",
        description="Exact minimisation of genus-one models ((2,2)-forms, cubes, hypercubes).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariants of a model file")
    p_inv.add_argument("model")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(fn=cmd_invariants)

    p_min = sub.add_parser("minimise", help="minimise at a prime or globally")
    p_min.add_argument("model")
    where = p_min.add_mutually_exclusive_group()
    where.add_argument("--prime", type=int)
    where.add_argument("--global", dest="global_", action="store_true")
    p_min.add_argument("--json", action="store_true")
    p_min.add_argument("--out", help="write the minimal model to this file")
    p_min.set_defaults(fn=cmd_minimise)

    p_lvl = sub.add_parser("level", help="level decomposition at a prime")
    p_lvl.add_argument("model")
    p_lvl.add_argument("--prime", type=int, required=True)
    p_lvl.add_argument("--json", action="store_true")
    p_lvl.set_defaults(fn=cmd_level)

    p_con = sub.add_parser("construct",
                           help="level-zero model from a marked curve, or a critical model")
    p_con.add_argument("--curve", help="a1,a2,a3,a4 of y^2+a1xy+a3y=x^3+a2x^2+a4x")
    p_con.add_argument("--type", choices=("22", "cube"), default="22")
    p_con.add_argument("--critical", choices=("form22", "cube", "hypercube"),
                       help="sample a minimal positive-level model instead")
    p_con.add_argument("--prime", type=int, help="prime for --critical (>= 5)")
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--out")
    p_con.set_defaults(fn=cmd_construct)

    p_cv = sub.add_parser("convert", help="degree conversions preserving the discriminant")
    p_cv.add_argument("direction", choices=("2to3", "3to2"))
    p_cv.add_argument("model")
    p_cv.add_argument("--out")
    p_cv.set_defaults(fn=cmd_convert)

    p_or = sub.add_parser("oracle", help="independent combinatorial/brute-force checks")
    orsub = p_or.add_subparsers(dest="what", required=True)
    p_w = orsub.add_parser("weights", help="census of minimal admissible weights")
    p_w.add_argument("--count-only", action="store_true")
    p_w.add_argument("--json", action="store_true")
    p_w.set_defaults(fn=cmd_oracle)
    p_m22 = orsub.add_parser("min22", help="exhaustive (2,2) minimality check")
    p_m22.add_argument("model")
    p_m22.add_argument("--prime", type=int, required=True)
    p_m22.add_argument("--json", action="store_true")
    p_m22.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None):
    # primes, exact coefficients and invariants may pass CPython's 4300-digit
    # limit on int <-> str conversion, on the command line, in model files
    # and in reports; the limit (and its setter) exists from CPython 3.10.7
    # and 3.11 on
    digits_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed the pipe raises here, not at exit
        return code
    except BrokenPipeError:  # drop what stdout buffers, or the flush at exit raises again
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return 1
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(e, cls))
    except (ValueError, AssertionError, ArithmeticError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if digits_limit is not None:
            sys.set_int_max_str_digits(digits_limit)


if __name__ == "__main__":
    sys.exit(main())
