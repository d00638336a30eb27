"""tools/reach.py on a tiny fake package and its tests."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

PACKAGE = {
    "__init__.py": '''\
def sign(x):
    if x > 0:
        return "positive"
    return "not positive"


def checked(x):
    if x is None:
        raise ValueError(
            f"no {x}")
    return x


if __name__ == "__main__":
    print(sign(1))
''',
    "__main__.py": '''\
from . import sign
print(sign(-1))
''',
}

TESTS = '''\
import sys

import g1min


def test_sign():
    assert g1min.sign(1) == "positive"


def test_checked_under_a_tracer_of_its_own():
    seen = []

    def trace(frame, event, arg):
        if frame.f_code.co_name == "checked":
            seen.append(event)

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        assert g1min.checked(2) == 2
    finally:
        sys.settrace(previous)
    assert seen == ["call"] and sys.gettrace() is previous
'''


def _fake_checkout(root):
    package = root / "src" / "g1min"
    package.mkdir(parents=True)
    for name, text in PACKAGE.items():
        (package / name).write_text(text)
    (root / "tests").mkdir()
    (root / "tests" / "test_fake.py").write_text(TESTS)


def test_each_unreached_line_in_its_group(tmp_path, capsys):
    _fake_checkout(tmp_path)
    assert reach.main([str(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tests_exit"] == 0
    found = {g: [(row["file"], row["line"], row["text"]) for row in rows]
             for g, rows in doc["unreached"].items()}
    init, main = "src/g1min/__init__.py", "src/g1min/__main__.py"
    # both lines of the two-line raise belong to it; the test's own tracer
    # saw its call, and `checked` still counts as run
    assert found == {
        "branch": [(init, 4, 'return "not positive"')],
        "raise": [(init, 9, "raise ValueError("), (init, 10, 'f"no {x}")')],
        "subprocess": [(init, 15, "print(sign(1))"), (main, 1, "from . import sign"),
                       (main, 2, "print(sign(-1))")],
    }
    assert doc["executable"] > sum(map(len, found.values()))


def test_the_text_report_keeps_the_exit_code_of_the_tests(tmp_path, monkeypatch, capsys):
    # a run that failed and ran nothing: every executable line is listed
    _fake_checkout(tmp_path)
    monkeypatch.setattr(reach, "trace_tier1", lambda checkout: (1, {}))
    assert reach.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src/g1min: 13 executable lines, 13 unreached (tests exit 1)"
    assert out[1:3] == ["branch (8)", "  src/g1min/__init__.py:1  def sign(x):"]
    assert [line for line in out if not line.startswith("  ")] == [
        out[0], "branch (8)", "raise (2)", "subprocess (3)"]
    assert out[-1] == "  src/g1min/__main__.py:2  print(sign(-1))"
