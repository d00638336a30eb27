"""tools/output_digest.py on a handful of model files."""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("output_digest",
                                               _ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)

# at p = 5: 4 kinds x 2 coefficient pools x (a base and 3 inflations), and 3
# critical models, each file answering 4 calls; the 2 x 4 + 1 (2,2)-form
# files answer the oracle as well; one (2,2)-form and one cube file answer
# their conversion, each of the 3 critical kinds one construct call, and the
# weight census its 3 `oracle weights` calls once
ARGS = ["--primes", "5", "--bases", "1"]
CALLS = (4 * 2 * 4 + 3) * 4 + 2 * 4 + 1 + 2 + 3 + 3
# the digest of these answers: a change to any answer, certificate or refusal
# message fails here until the pin is updated and the change is recorded
PINNED = "4792a6ba85dc9f6bc439bd68c506b7f4f9cb0b952040a1cc205caee4fd10a697"


def test_the_repo_answers_like_itself(capsys):
    # writes the files and answers them in fresh interpreters, as for two checkouts
    assert output_digest.main([str(_ROOT), str(_ROOT)] + ARGS) == 0
    out = capsys.readouterr().out
    assert out.rstrip() == f"{CALLS} calls, sha256 {PINNED}: identical"


def test_the_first_differing_call_is_shown(monkeypatch, tmp_path, capsys):
    # answered in this interpreter; the change answers one call differently
    change = tmp_path / "change"
    differing = 9

    def altered_answers(calls_path, answers_path):
        output_digest.answer_calls(calls_path, answers_path)
        answers = json.loads(Path(answers_path).read_text())
        answers[differing][1] += "!"
        Path(answers_path).write_text(json.dumps(answers))

    def in_process(checkout, call):
        namespace = dict(vars(output_digest))
        if checkout == change:
            namespace["answer_calls"] = altered_answers
        eval(call, namespace)

    monkeypatch.setattr(output_digest, "_in_checkout", in_process)
    assert output_digest.main([str(_ROOT), str(change)] + ARGS) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{CALLS} calls; call {differing} differs: g1min minimise ")
    assert "--global --json" in out.splitlines()[0]
    assert "!'" in out.split("change:")[1]

