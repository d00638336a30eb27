"""Checks on the library source itself."""

import ast
from pathlib import Path
import sys

import g1min


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so correctness checks must raise
    found = []
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_library_imports_only_the_standard_library():
    # g1min has no third-party dependency: every import is relative or names
    # a standard-library module
    found = []
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert found == []


def test_library_uses_every_name_it_imports():
    # an unused import is a leftover of code that moved or went; the package
    # __init__ imports to re-export, so it is exempt
    found = []
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} imports {name} unused"
                          for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                          if name not in used]
    assert found == []


# functions allowed to import: InvariantSet.curve, which breaks the cycle
# invariants -> weierstrass -> invariants
LOCAL_IMPORTS = {("invariants.py", "curve")}


def test_imports_sit_at_module_level():
    found = []
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or (path.name, func.name) in LOCAL_IMPORTS):
                continue
            found += [f"{path.name}:{node.lineno} imports inside {func.name}"
                      for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


# functions allowed to scan P^2(F_p): none, since cubic singular points come from
# binary forms too
P2_SCANS = set()


def _mentions_p(node):
    return any((isinstance(n, ast.Name) and n.id == "p") or
               (isinstance(n, ast.Attribute) and n.attr == "p") for n in ast.walk(node))


def test_no_residue_scan_over_the_prime():
    # residue roots come from F_p polynomial algebra: no loop of p or p^2
    # steps, and no enumeration of P^1(F_p) or P^2(F_p)
    found = []
    for name in ("residue.py", "weierstrass.py"):
        path = Path(g1min.__file__).parent / name
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, ast.FunctionDef) or func.name in P2_SCANS:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                    continue
                if node.func.id == "range" and any(_mentions_p(a) for a in node.args):
                    found.append(f"{name}:{node.lineno} range over p in {func.name}")
                elif node.func.id == "projective_line_points":
                    found.append(f"{name}:{node.lineno} P^1 scan in {func.name}")
                elif node.func.id == "projective_plane_points":
                    found.append(f"{name}:{node.lineno} P^2 scan in {func.name}")
    assert found == []


def test_library_reads_no_environment():
    # the library's answers depend on its arguments alone: no os import and
    # no environment lookup
    found = []
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]  # os.environ, os.getenv
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "os"]
    assert found == []


def test_one_minimisation_loop():
    # the kinds supply steps to one driver loop: only _Driver.run divides
    # out content or compares the driver's v(Delta) with 12
    path = Path(g1min.__file__).parent / "minimise.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    run = [func for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "_Driver"
           for func in cls.body if isinstance(func, ast.FunctionDef) and func.name == "run"]
    inside_run = {id(node) for func in run for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside_run:
            continue
        if isinstance(node, ast.Call) and "content_valuation" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(f"minimise.py:{node.lineno} calls content_valuation")
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(n, ast.Constant) and n.value == 12 for n in sides)
                    and any(isinstance(n, ast.Attribute) and n.attr == "v" for n in sides)):
                found.append(f"minimise.py:{node.lineno} compares v with 12")
    assert found == []
    assert run, "_Driver.run is missing"
