"""The lines of the g1min library that the tier-1 tests never run.

    python3 tools/reach.py [CHECKOUT] [--json]

Runs the tier-1 command of CHECKOUT (default: this repository),

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

in a fresh interpreter under a `sys.settrace` tracer that records every
line run in `src/g1min`.  The tracer wraps `sys.settrace` and
`sys.gettrace`, so a test that installs a tracer of its own runs under
both.  A line is executable when the compiled module has an instruction on
it.  Each executable line that never ran is listed with its text, in one of
three groups, by the innermost statement that holds it:

  raise       a `raise` statement;
  subprocess  `__main__.py`, or the body of `if __name__ == "__main__"`,
              which only a child process runs and the tracer does not follow;
  branch      anything else: a test gap or dead code.

Output is text, or JSON with --json.  This is a report, not a gate: the
exit code is that of the test command, whatever lines it left unrun.  The
trace slows the tests about fivefold.
"""

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "g1min"
TIER1 = ["pytest", "-q", "--continue-on-collection-errors"]  # after python -m
GROUPS = ("branch", "raise", "subprocess")
# run in the child: load this file by path, trace, write the lines that ran
_CHILD = ("import importlib.util, sys\n"
          "spec = importlib.util.spec_from_file_location('reach', {tool!r})\n"
          "reach = importlib.util.module_from_spec(spec)\n"
          "spec.loader.exec_module(reach)\n"
          "sys.exit(reach.record({package!r}, {out!r}, {argv!r}))\n")


class _Both:
    """A local trace function that calls two, until both have let go."""

    def __init__(self, *fns):
        self.fns = fns

    def __call__(self, frame, event, arg):
        self.fns = tuple(fn and fn(frame, event, arg) for fn in self.fns)
        return self if any(self.fns) else None


def record(package, out, argv):
    """Run `python -m argv` in this interpreter under the tracer; write
    {file: [lines run]} for the files under package to out as JSON, and
    return the command's exit code."""
    package = str(Path(package).resolve()) + os.sep
    ran, local = {}, {}
    theirs = [None]  # the tracer a test installed, if any

    def mine(frame, event, arg):
        name = frame.f_code.co_filename
        fn = local.get(name)
        if fn is None and name.startswith(package):
            lines = ran[name] = set()

            def fn(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return fn
            local[name] = fn
        return fn

    def both(frame, event, arg):
        fns = (mine(frame, event, arg), theirs[0] and theirs[0](frame, event, arg))
        return _Both(*fns) if all(fns) else fns[0] or fns[1]

    settrace = sys.settrace
    sys.settrace = lambda fn: theirs.__setitem__(0, fn)
    sys.gettrace = lambda: theirs[0]
    settrace(both)
    sys.argv = list(argv)
    try:
        runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else int(e.code is not None)
    finally:
        settrace(None)
    Path(out).write_text(json.dumps({name: sorted(lines) for name, lines in ran.items()}))
    return code


def executable_lines(code):
    """The line numbers that carry an instruction, in code and its nested code
    (CPython numbers a few compiler-made instructions None or 0)."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def _groups(source, is_main_file):
    """{line: group} for the lines of a module's statements, by the innermost
    statement that holds each line."""
    group = {}

    def visit(node, kind):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                own = "raise" if isinstance(child, ast.Raise) and kind == "branch" else kind
                group.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), own))
                if isinstance(child, ast.If) and _is_main_guard(child.test):
                    own = "subprocess"
                visit(child, own)
            else:
                visit(child, kind)

    visit(ast.parse(source), "subprocess" if is_main_file else "branch")
    return group


def _is_main_guard(test):
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__" and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def unreached(package_dir, ran):
    """(executable line count, {group: [(path, line, text)]}) of the package's
    files, given {file: lines run}."""
    count, out = 0, {g: [] for g in GROUPS}
    for path in sorted(Path(package_dir).resolve().rglob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        count += len(lines)
        group = _groups(source, path.name == "__main__.py")
        text = source.splitlines()
        seen = set(ran.get(str(path), ()))
        for n in sorted(lines - seen):
            out[group.get(n, "branch")].append((path, n, text[n - 1].strip()))
    return count, out


def trace_tier1(checkout):
    """(exit code, {file: lines run}) of the checkout's tier-1 command."""
    checkout = Path(checkout).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "ran.json"
        child = _CHILD.format(tool=str(Path(__file__).resolve()),
                              package=str(checkout / PACKAGE), out=str(out), argv=TIER1)
        code = subprocess.run([sys.executable, "-c", child], cwd=checkout, env=env,
                              stdout=subprocess.DEVNULL).returncode
        ran = json.loads(out.read_text()) if out.exists() else {}
    return code, ran


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=str(ROOT))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    code, ran = trace_tier1(checkout)
    count, groups = unreached(checkout / PACKAGE, ran)
    rel = {g: [{"file": str(path.relative_to(checkout)), "line": n, "text": text}
               for path, n, text in rows] for g, rows in groups.items()}
    if args.json:
        print(json.dumps({"tests_exit": code, "executable": count, "unreached": rel},
                         indent=2))
    else:
        total = sum(map(len, rel.values()))
        print(f"{PACKAGE}: {count} executable lines, {total} unreached "
              f"(tests exit {code})")
        for g in GROUPS:
            print(f"{g} ({len(rel[g])})")
            for row in rel[g]:
                print(f"  {row['file']}:{row['line']}  {row['text']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
