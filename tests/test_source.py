"""Checks on the library source itself."""

import ast
import os
from pathlib import Path
import subprocess
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


def _library_imports():
    """(file name, line, module) of every absolute import in the library."""
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                yield from ((path.name, node.lineno, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield path.name, node.lineno, node.module


def test_library_imports_only_the_standard_library():
    # g1min has no third-party dependency: every import is relative or names
    # a standard-library module
    found = [f"{name}:{line} imports {module}" for name, line, module in _library_imports()
             if module.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


# what `import g1min` must not load: dataclasses brings inspect, ast, dis and
# tokenize with it, and with typing they would cost every one-shot command
# more time to import than the rest of the package; records are namedtuple
# subclasses instead
RECORD_MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_library_imports_neither_dataclasses_nor_typing():
    found = [f"{name}:{line} imports {module}" for name, line, module in _library_imports()
             if module.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_a_cold_import_loads_no_record_machinery():
    # -S: no site module, which may import typing itself; -B: no bytecode written
    probe = f"import sys, g1min; print(sorted(set(sys.modules) & set({RECORD_MACHINERY!r})))"
    src = Path(g1min.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-B", "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                          timeout=60)
    assert done.stdout.strip() == "[]"


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


# definitions that no library code calls, each with the reason it stays
UNCALLED_DEFINITIONS = {
    "minimise.is_minimal": "public entry point: minimality without a certificate",
    "models.TernaryCubic.from_dict": "public entry point: a cubic from its monomials",
    "models.group_element_from_dict": "public entry point: reads a certificate back",
    "models.GroupElement.chi": "reference for the fast path chi_valuation",
    "minimise.minimise_hypercube": "bound by perfbench until ROADMAP item 1",
    "minimise.is_minimal_22": "bound by perfbench until ROADMAP item 1",
    "construct.inflate": "bound by perfbench until ROADMAP item 1",
    "weierstrass.minimal_discriminant_valuation": "bound by perfbench until ROADMAP item 1",
    "weierstrass.kappa": "bound by perfbench until ROADMAP item 1",
}


def _definitions_and_module_names():
    """{"module.Qual.name": (keys, names its body uses)} for every function,
    method and class of the library, a nested one included, and the names its
    module-level code uses.  An ast.Name or an import alias gives a name as
    itself, an ast.Attribute as ".name".  A module-level
    function or class has the key name, so `rep.kappa` does not name the
    function `kappa`; a method, property or nested function has name and
    ".name" both.  A dunder method, which Python calls, counts as part of its
    class's body; a nested definition's body is not its encloser's."""
    defs, module_names = {}, set()

    def body_names(node, qual):
        module_level = isinstance(node, ast.Module)
        names, stack = set(), list(ast.iter_child_nodes(node))
        while stack:
            n = stack.pop()
            if (isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (n.name.startswith("__") and n.name.endswith("__"))):
                keys = {n.name} if module_level else {n.name, "." + n.name}
                defs[f"{qual}.{n.name}"] = (keys, body_names(n, f"{qual}.{n.name}"))
                continue
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.alias):
                names.add(n.name)
            elif isinstance(n, ast.Attribute):
                names.add("." + n.attr)
            stack.extend(ast.iter_child_nodes(n))
        return names

    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":  # re-exports are not calls
            module_names |= body_names(ast.parse(path.read_text(), filename=str(path)),
                                       path.stem)
    return defs, module_names


def test_every_library_definition_has_a_library_caller():
    # code that only tests, tools or demos call is scaffolding, not engine: a
    # definition counts as called when module-level code or the body of a
    # called definition names it, the allow-listed ones standing as called
    defs, module_names = _definitions_and_module_names()
    named, called = set(module_names), set()
    while new := {q for q, (keys, _) in defs.items()
                  if q not in called and (keys & named or q in UNCALLED_DEFINITIONS)}:
        called |= new
        for q in new:
            named |= defs[q][1]
    assert sorted(set(defs) - called) == []
    # every allow-listed definition exists, and none has gained a caller
    assert sorted(set(UNCALLED_DEFINITIONS) - set(defs)) == []
    assert sorted(q for q in UNCALLED_DEFINITIONS if defs[q][0] & module_names or any(
        defs[q][0] & defs[c][1] for c in called if c != q)) == []


# functions allowed to import inside their body: none
LOCAL_IMPORTS = set()


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


# the one function allowed to compile source: the generator of straight-line
# functions, whose source holds only the ints of the library's own tables
CODE_GENERATORS = {("models.py", "_straight_line")}


def test_only_the_generator_compiles_source():
    found, generators = [], set()
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in CODE_GENERATORS:
                generators.add((path.name, func.name))
                allowed |= {id(node) for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno} calls {node.func.id}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("exec", "eval", "compile") and id(node) not in allowed]
    assert found == []
    assert generators == CODE_GENERATORS


# the one function allowed to build a GroupElement past its checked
# constructor: the builder of products and scalings, whose parts hold by
# construction
UNCHECKED_BUILDERS = {("models.py", "_trusted_element")}


def _names_group_element(node):
    return any((isinstance(n, ast.Name) and n.id == "GroupElement")
               or (isinstance(n, ast.Attribute) and n.attr == "GroupElement")
               for n in ast.walk(node))


def test_group_elements_are_built_through_the_checked_constructor():
    # GroupElement(...) is the one checked public constructor.  Only
    # models._trusted_element calls __new__ on it, only models names that
    # builder, and outside models no code writes past a frozen record
    # (object.__setattr__, vars() or __dict__), which could give an element
    # fields its constructor never checked
    found, builders = [], set()
    for path in sorted(Path(g1min.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in UNCHECKED_BUILDERS:
                builders.add((path.name, func.name))
                allowed |= {id(node) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__" and _names_group_element(node)
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno} calls __new__ on GroupElement")
            if path.name == "models.py":
                continue
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("_trusted_element", "__setattr__", "__dict__", "vars"):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} uses {name}")
    assert found == []
    assert builders == UNCHECKED_BUILDERS


def test_every_tool_is_run_by_a_test():
    # a tool no test runs drifts from the library unseen: some test module
    # imports each tools/<name>.py or names its file
    root = Path(__file__).resolve().parents[1]
    named = set()
    for path in root.glob("tests/test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                named |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and str(node.value).endswith(".py"):
                named.add(Path(node.value).stem)
    tools = {path.stem for path in root.glob("tools/*.py")}
    assert tools and sorted(tools - named) == []
