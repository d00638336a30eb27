"""Byte-for-byte comparison of the command-line answers of two g1min checkouts.

    python3 tools/output_digest.py PARENT CHANGE [--bases 3]
        [--primes 2,3,5,7,11,101,65537,2305843009213693951]

Writes one fixed-seed set of model files with PARENT's library, in a fresh
interpreter: for every minimisable kind (binary quartics, (2,2)-forms, cubes
and hypercubes) and every prime p, BASES random integral nonsingular models
with coefficients in [-5, 5] and BASES with coefficients in {0, 1, -1, p, -p,
p^2} (deep valuations reach the rarer moves), each also inflated by 1, 2 and
3 level-raising moves at p (`g1min.inflate`); at p >= 5 also BASES critical
models of each kind that has them (`g1min.critical_model`).  Then, in one
fresh interpreter per checkout, runs these calls on every file through
`g1min.cli.main`, in process:

    minimise FILE --prime P --json
    minimise FILE --global --json
    level FILE --prime P --json
    invariants FILE --json

and, on every (2,2)-form file at p <= 5 (the exhaustive oracle's range),

    oracle min22 FILE --prime P --json

Per prime it also writes BASES nonsingular (2,2)-forms with a11 = 0 and
BASES nonsingular cubes with s[2][2][.] = 0, coefficients in [-5, 5], from
a generator of their own (so the files above do not change), and runs

    convert 2to3 FILE        (on each such (2,2)-form)
    convert 3to2 FILE        (on each such cube)

and at p >= 5, for every kind with critical patterns and N < BASES,

    construct --critical KIND --prime P --seed N

then, once, the admissible-weight census listing

    oracle weights
    oracle weights --json
    oracle weights --count-only

and keeps each call's exit code, stdout and stderr.  Prints the number of
calls, the sha256 of all answers and "identical" when both checkouts gave the
same bytes on every call (exit 0); otherwise the first call whose answers
differ, with both answers (exit 1).  A change that must not alter any answer,
such as a refactor, is checked this way.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
KINDS = ("quartic", "form22", "cube", "hypercube")
CRITICAL_KINDS = ("form22", "cube", "hypercube")
INFLATIONS = (1, 2, 3)
SEED = 0
# kind, the flat positions its conversion needs to vanish, the direction
CONVERSIONS = (("form22", (0,), "2to3"), ("cube", (24, 25, 26), "3to2"))


def parse_primes(text):
    return [int(p) for p in text.split(",")]


def _random_model(kind, pool, rng, zero=()):
    """A random nonsingular model of the kind, coefficients drawn from pool,
    those at the flat positions `zero` set to 0."""
    from g1min import discriminant, model_from_dict
    from g1min.models import SPECS

    while True:
        coeffs = [rng.choice(pool) for _ in range(SPECS[kind].size)]
        for n in zero:
            coeffs[n] = 0
        m = model_from_dict({"kind": kind, "coeffs": [str(c) for c in coeffs]})
        if discriminant(m) != 0:
            return m


def write_files(out, primes, bases):
    """Write the model files into `out` and the argv of every call, one JSON
    list, into out/calls.json."""
    from g1min import critical_model, inflate, model_to_dict
    from g1min.construct import ORACLE_PRIME_BOUND

    rng = random.Random(SEED)
    corner_rng = random.Random(SEED + 1)
    calls = []
    for p in primes:
        models = []
        for kind in KINDS:
            for pool in (range(-5, 6), (0, 1, -1, p, -p, p * p)):
                for _ in range(bases):
                    m = _random_model(kind, pool, rng)
                    models += [m] + [inflate(m, p, rng, moves=k)[0] for k in INFLATIONS]
        if p >= 5:
            models += [critical_model(kind, p, rng) for kind in CRITICAL_KINDS
                       for _ in range(bases)]
        for n, m in enumerate(models):
            path = out / f"p{p}-{n:03d}-{m.kind}.json"
            path.write_text(json.dumps(model_to_dict(m)))
            calls += [["minimise", str(path), "--prime", str(p), "--json"],
                      ["minimise", str(path), "--global", "--json"],
                      ["level", str(path), "--prime", str(p), "--json"],
                      ["invariants", str(path), "--json"]]
            if m.kind == "form22" and p <= ORACLE_PRIME_BOUND:
                calls.append(["oracle", "min22", str(path), "--prime", str(p), "--json"])
        for kind, zero, direction in CONVERSIONS:
            for n in range(bases):
                m = _random_model(kind, range(-5, 6), corner_rng, zero)
                path = out / f"p{p}-{direction}-{n:03d}.json"
                path.write_text(json.dumps(model_to_dict(m)))
                calls.append(["convert", direction, str(path)])
        if p >= 5:
            calls += [["construct", "--critical", kind, "--prime", str(p), "--seed", str(n)]
                      for kind in CRITICAL_KINDS for n in range(bases)]
    calls += [["oracle", "weights"], ["oracle", "weights", "--json"],
              ["oracle", "weights", "--count-only"]]
    (out / "calls.json").write_text(json.dumps(calls))


def answer_calls(calls_path, answers_path):
    """Run every call of calls_path through the CLI in this interpreter and
    write [exit code, stdout, stderr] per call, one JSON list."""
    import contextlib
    import io

    from g1min.cli import main

    answers = []
    for argv in json.loads(Path(calls_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        answers.append([code, out.getvalue(), err.getvalue()])
    Path(answers_path).write_text(json.dumps(answers))


def _in_checkout(checkout, call):
    """Run `call`, a Python expression on this module, in a fresh interpreter
    that imports g1min from the checkout's src (checked) and compiles into an
    empty bytecode cache."""
    src = (Path(checkout) / "src").resolve()
    code = (f"import sys; sys.path.append({str(TOOLS)!r}); import g1min, output_digest\n"
            f"assert g1min.__file__.startswith({str(src)!r}), g1min.__file__\n"
            f"output_digest.{call}")
    with tempfile.TemporaryDirectory(prefix="output-digest-pycache-") as cache:
        proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src),
                                                  PYTHONPYCACHEPREFIX=cache))
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {call} exited {proc.returncode}:\n{proc.stderr.strip()}")


def digest(answers):
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def first_difference(parent, change):
    """The index of the first call answered differently, or None."""
    return next((i for i, (a, b) in enumerate(zip(parent, change)) if a != b), None)


def _show(answer, limit=2000):
    code, out, err = answer
    return f"  exit {code}\n  stdout: {out[:limit]!r}\n  stderr: {err[:limit]!r}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--primes", type=parse_primes, default=[2, 3, 5, 7, 11, 101, 65537, (1 << 61) - 1])
    ap.add_argument("--bases", type=int, default=3,
                    help="random models per kind and prime; critical ones per kind at p >= 5")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        tmp = Path(tmp)
        _in_checkout(args.parent, f"write_files(__import__('pathlib').Path({str(tmp)!r}), "
                                  f"{args.primes!r}, {args.bases!r})")
        answers = []
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            path = tmp / f"answers-{side}.json"
            _in_checkout(checkout, f"answer_calls({str(tmp / 'calls.json')!r}, {str(path)!r})")
            answers.append(json.loads(path.read_text()))
        calls = json.loads((tmp / "calls.json").read_text())
    i = first_difference(*answers)
    if i is None:
        print(f"{len(calls)} calls, sha256 {digest(answers[0])}: identical")
        return 0
    print(f"{len(calls)} calls; call {i} differs: g1min {' '.join(calls[i])}")
    print(f"parent:\n{_show(answers[0][i])}\nchange:\n{_show(answers[1][i])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
