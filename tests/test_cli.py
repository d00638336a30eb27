import argparse
import contextlib
import io
import json
import math
from pathlib import Path
import subprocess
import sys

import pytest

from g1min import (
    FactorizationError, RefusedInputError, SingularModelError, TernaryCubic, TwoTwoForm,
    UnsupportedModelError, construct_22, construct_cube, cubic_invariants, discriminant,
    critical_model, model_from_dict, model_to_dict, scalar_multiply,
)
from g1min.cli import main
from g1min.exactnum import is_prime
from g1min.minimise import InternalBoundError

SRC = Path(__file__).resolve().parents[1] / "src"


def write_model(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def quartic_file(tmp_path, coeffs, name="q.json"):
    return write_model(tmp_path, name, {"kind": "quartic", "coeffs": [str(c) for c in coeffs]})


def form22_file(tmp_path, F, name="f.json"):
    return write_model(tmp_path, name, model_to_dict(F))


def test_invariants_quartic(tmp_path, capsys):
    path = quartic_file(tmp_path, (1, 0, 0, 0, 1))
    assert main(["invariants", path]) == 0
    out = capsys.readouterr().out
    assert "I = 12" in out and "J = 0" in out and "Delta = 256" in out


def test_invariants_form22_json(tmp_path, capsys):
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["invariants", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["Delta"] == "-64"
    assert doc["a_invariants"] == ["0", "0", "0", "1", "0"]
    assert doc["xi"] == "0" and doc["eta"] == "0"


def test_invariants_cubic(tmp_path, capsys):
    F = TernaryCubic.from_dict({(3, 0, 0): 1, (0, 3, 0): -2, (0, 0, 3): 5, (1, 1, 1): 3,
                                (2, 1, 0): -1, (0, 1, 2): 4})
    c4, c6, disc = cubic_invariants(F)
    assert disc != 0
    path = write_model(tmp_path, "cubic.json", model_to_dict(F))
    assert main(["invariants", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "cubic", "c4": str(c4), "c6": str(c6), "Delta": str(disc)}
    assert main(["invariants", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kind: cubic", f"c4 = {c4}", f"c6 = {c6}", f"Delta = {disc}"]


def test_invariants_zero_model(tmp_path, capsys):
    path = quartic_file(tmp_path, (0, 0, 0, 0, 0))
    assert main(["invariants", path]) == 0
    assert "Delta = 0" in capsys.readouterr().out


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["invariants", str(bad)]) == 2
    path = write_model(tmp_path, "short.json", {"kind": "quartic", "coeffs": ["1"]})
    assert main(["invariants", path]) == 2


NON_INTEGRAL_22 = {"kind": "form22", "coeffs": ["1/2", "0", "1", "0", "1", "0", "1", "0", "3"]}


def _assert_rejected_as_non_integral(argv, capsys):
    assert main(argv) == 2
    assert "model must be integral" in capsys.readouterr().err


def test_invariants_rejects_non_integral_form22(tmp_path, capsys):
    path = write_model(tmp_path, "r.json", NON_INTEGRAL_22)
    _assert_rejected_as_non_integral(["invariants", path], capsys)


def test_minimise_rejects_non_integral_form22(tmp_path, capsys):
    path = write_model(tmp_path, "r.json", NON_INTEGRAL_22)
    _assert_rejected_as_non_integral(["minimise", path, "--prime", "5"], capsys)


def test_level_rejects_non_integral_form22(tmp_path, capsys):
    path = write_model(tmp_path, "r.json", NON_INTEGRAL_22)
    _assert_rejected_as_non_integral(["level", path, "--prime", "5"], capsys)


def test_level_command(tmp_path, capsys):
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["level", path, "--prime", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"vDelta": 6, "vDeltaMin": 6, "kappa": 0, "level": 0}


def test_level_scaled_model(tmp_path, capsys):
    path = form22_file(tmp_path, scalar_multiply(construct_22(0, 0, 0, 1), 2))
    assert main(["level", path, "--prime", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["level"] == 1


def test_level_kind_mismatch_exit_3(tmp_path, capsys):
    path = quartic_file(tmp_path, (1, 0, 0, 0, 1))
    assert main(["level", path, "--prime", "2"]) == 3


def _cubic_file(tmp_path):
    # x^3 + y^3 + z^3, nonsingular: the refusal is by kind alone
    return write_model(tmp_path, "c.json", {"kind": "cubic", "coeffs": list("1000001001")})


def test_minimise_cubic_exit_3(tmp_path, capsys):
    path = _cubic_file(tmp_path)
    for mode in (["--prime", "2"], ["--global"]):
        assert main(["minimise", path, *mode]) == 3
        assert "ternary cubics are carried along, not minimised directly" in capsys.readouterr().err


def test_level_cubic_exit_3(tmp_path, capsys):
    assert main(["level", _cubic_file(tmp_path), "--prime", "2"]) == 3
    assert "level is not defined for kind cubic" in capsys.readouterr().err


def test_level_singular_exit_4(tmp_path, capsys):
    path = write_model(tmp_path, "s.json", {"kind": "form22", "coeffs": ["0"] * 9})
    assert main(["level", path, "--prime", "2"]) == 4


def test_minimise_local_and_round_trip(tmp_path, capsys):
    F = scalar_multiply(construct_22(0, 0, 0, 1), 2)
    path = form22_file(tmp_path, F)
    out_path = str(tmp_path / "min.json")
    assert main(["minimise", path, "--prime", "2", "--json", "--out", out_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vDeltaInitial"] == 18 and doc["vDeltaFinal"] == 6
    assert doc["transformation"]["kind"] == "form22"
    # re-ingesting the output reports "already minimal" with the same Delta
    assert main(["minimise", out_path, "--prime", "2", "--json"]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["alreadyMinimal"] is True
    assert doc2["vDeltaInitial"] == 6
    assert model_from_dict(doc2["model"]) == model_from_dict(doc["model"])


def test_minimise_json_reports_the_verdict(tmp_path, capsys):
    # the first case drops v(Delta) from 18 to 6, the critical ones are
    # minimal: the text report ends with the verdict in both branches
    cases = ((scalar_multiply(construct_22(0, 0, 0, 1), 2), "below-12"),
             (critical_model("form22", 5, 0), "no-integral-landing"),
             (critical_model("cube", 5, 0), "neutral-chain-bound"),
             (critical_model("hypercube", 5, 0), "one-form-minimal"))
    for m, verdict in cases:
        path = form22_file(tmp_path, m)
        argv = ["minimise", path, "--prime", "5" if verdict != "below-12" else "2"]
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"verdict: {verdict}"
        assert lines[0].startswith("v(Delta): 18 -> 6" if verdict == "below-12"
                                   else "already minimal at p = 5")


def test_minimise_singular_exit_4(tmp_path, capsys):
    path = write_model(tmp_path, "s.json", {"kind": "form22", "coeffs": ["0"] * 9})
    assert main(["minimise", path, "--prime", "2"]) == 4


def test_internal_value_error_is_not_a_singular_model(tmp_path, capsys, monkeypatch):
    # exit 4 follows the type SingularModelError, not the word "singular"
    import g1min.cli

    def broken(m, ctx):
        raise ValueError("singular matrix in group element")

    monkeypatch.setattr(g1min.cli, "minimise", broken)
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["minimise", path, "--prime", "5"]) == 6
    assert "singular matrix in group element" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [
    AssertionError("transformation certificate failed to reproduce the model"),
    InternalBoundError("hypercube singular-point procedure ran thrice"),
    ZeroDivisionError("inverse of 0 mod 5"),
])
def test_internal_faults_exit_6(tmp_path, capsys, monkeypatch, fault):
    import g1min.cli

    def broken(*args):
        raise fault

    monkeypatch.setattr(g1min.cli, "minimise_global", broken)
    monkeypatch.setattr(g1min.cli, "level", broken)
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    for argv in (["minimise", path, "--global"], ["level", path, "--prime", "5"]):
        assert main(argv) == 6
        assert capsys.readouterr().err == f"internal error: {fault}\n"


def test_hypercube_chain_overrun_exits_6(tmp_path, capsys, monkeypatch):
    from g1min import Hypercube
    from g1min.minimise import _STEPS

    from conftest import HYPERCUBE_CHAIN_2

    monkeypatch.setitem(_STEPS, "hypercube", (_STEPS["hypercube"][0], 1))
    path = form22_file(tmp_path, Hypercube.from_coeffs(HYPERCUBE_CHAIN_2))
    assert main(["minimise", path, "--prime", "2"]) == 6
    assert capsys.readouterr().err == (
        "internal error: hypercube singular-point procedure ran thrice\n")


RATIONAL_QUARTIC = {"kind": "quartic", "coeffs": ["1/2", "0", "0", "0", "3"]}
# a cube whose residue at 5 needs the singular point of a determinantal cubic
SCANNED_CUBE = {"kind": "cube", "coeffs": [str(c) for c in (
    0, 0, 0, 2, 5, -1, 2, -5, 0, 5, 0, 0, 1, 10, 5, -1, 0, 5, 2, 0, -5, 5, 0, 5, 1, 2, 10)]}


def test_rejected_inputs_keep_their_exit_codes(tmp_path, capsys, monkeypatch):
    rational = write_model(tmp_path, "r.json", RATIONAL_QUARTIC)
    for argv in (["minimise", rational, "--prime", "3"], ["minimise", rational, "--global"]):
        _assert_rejected_as_non_integral(argv, capsys)
    form = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["oracle", "min22", form, "--prime", "7"]) == 2
    assert "oracle limited to p <= 5" in capsys.readouterr().err
    zero = write_model(tmp_path, "z.json", {"kind": "form22", "coeffs": ["0"] * 9})
    assert main(["oracle", "min22", zero, "--prime", "5"]) == 4
    assert "singular" in capsys.readouterr().err
    # the singular-point search has no prime bound, and no variable sets one
    cube = write_model(tmp_path, "c.json", SCANNED_CUBE)
    assert main(["minimise", cube, "--prime", "5"]) == 0
    plain = capsys.readouterr()
    monkeypatch.setenv("G1MIN_PRIME_BOUND", "3")
    assert main(["minimise", cube, "--prime", "5"]) == 0
    assert capsys.readouterr() == plain


def test_minimise_global(tmp_path, capsys):
    F = scalar_multiply(construct_22(0, 0, 0, 1), 6)
    path = form22_file(tmp_path, F)
    assert main(["minimise", path, "--global", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["primes"] == [2, 3]


# A (2,2)-form built as the global benchmark builds its hardest inputs: a
# marked curve with |a_i| <= 10^4, inflated at 19 and then at 103.  After
# every prime below 2^20 is removed from Delta, a composite cofactor of 21
# digits is left, so factoring Delta fails; gcd(c4, c6) = 3 * 19^4 * 103^4.
FORM22_COMPOSITE_DELTA = ((674709, -735718, -6), (49676488, -69389349, -515),
                          (769799649, -1622243408, -10609))


def test_minimise_global_factors_gcd_of_c4_c6(tmp_path, capsys):
    from g1min import TwoTwoForm, act, c4_c6, group_element_from_dict, minimise_global
    from g1min.minimise import trial_division_factor

    F = TwoTwoForm(FORM22_COMPOSITE_DELTA)
    path = form22_file(tmp_path, F)
    assert main(["minimise", path, "--global", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    out = model_from_dict(doc["model"])
    assert act(group_element_from_dict(doc["transformation"]), F) == out
    assert doc["primes"] == [19, 103]
    assert discriminant(F) == discriminant(out) * (19 * 103) ** 12

    seen = []

    def spy(n):
        seen.append(n)
        return trial_division_factor(n)

    assert minimise_global(F, factor=spy).primes == (19, 103)
    c4, c6 = c4_c6(F)
    assert seen == [math.gcd(c4, c6)] == [3 * 19 ** 4 * 103 ** 4]


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _semiprime_quartic(tmp_path, bits):
    """x^4 + p q y^4 with p < q the first primes above 2^bits: I = 12 p q and
    J = 0, so gcd(I, J) leaves p q after trial division to 2^20."""
    p = _next_prime(1 << bits)
    return quartic_file(tmp_path, (1, 0, 0, 0, p * _next_prime(p + 1)))


def test_minimise_global_factorisation_failure_exit_5(tmp_path, capsys):
    # p q > 2^80 could hide the fourth power of a prime above 2^20
    assert main(["minimise", _semiprime_quartic(tmp_path, 40), "--global"]) == 5
    assert "is composite" in capsys.readouterr().err


def test_minimise_global_drops_a_cofactor_that_hides_no_candidate(tmp_path, capsys):
    # p q < 2^80 is left unsplit: no prime above 2^20 divides it to the 4th power
    from g1min import act, group_element_from_dict

    path = _semiprime_quartic(tmp_path, 20)
    assert main(["minimise", path, "--global", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    m = model_from_dict(json.loads(Path(path).read_text()))
    g = group_element_from_dict(doc["transformation"])
    assert act(g, m) == model_from_dict(doc["model"]) == m
    assert doc["primes"] == []


def test_composite_prime_exit_2(tmp_path, capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every
    # prime base up to 37
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["minimise", path, "--prime", "318665857834031151167461"]) == 2
    assert "is not prime" in capsys.readouterr().err


def test_construct_and_invariants_round_trip(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    assert main(["construct", "--curve", "0,0,0,1", "--type", "22", "--out", out]) == 0
    capsys.readouterr()
    assert main(["invariants", out, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["Delta"] == "-64"


def test_construct_singular_exit_4(capsys):
    assert main(["construct", "--curve", "0,0,0,0", "--type", "22"]) == 4


def test_convert_requires_corner_zero_exit_3(tmp_path, capsys):
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["convert", "2to3", path]) == 3
    err = capsys.readouterr().err
    assert "a11" in err


def test_convert_2to3_works(tmp_path, capsys):
    from g1min import GroupElement, act

    swap_y = GroupElement("form22", 1, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    F = act(swap_y, construct_22(0, 0, 0, 1))
    path = form22_file(tmp_path, F)
    assert main(["convert", "2to3", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "cube"
    capsys.readouterr()
    cube_path = write_model(tmp_path, "cube.json", doc)
    assert main(["invariants", cube_path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["Delta"] == "-64"


def test_convert_wrong_kind_exit_3(tmp_path):
    path = quartic_file(tmp_path, (1, 0, 0, 0, 1))
    assert main(["convert", "2to3", path]) == 3
    assert main(["convert", "3to2", path]) == 3


def test_convert_3to2_requires_vanishing_forms_exit_3(tmp_path, capsys):
    from g1min import construct_cube

    path = write_model(tmp_path, "c.json", model_to_dict(construct_cube(0, 0, 0, 1)))
    assert main(["convert", "3to2", path]) == 3
    assert "do not vanish at ((0:0:1),(0:0:1))" in capsys.readouterr().err


def test_convert_internal_value_error_exits_6(tmp_path, capsys, monkeypatch):
    # the library refuses a11 != 0 with a typed error, so a plain ValueError
    # from the conversion is a fault
    import g1min.cli

    def broken(F):
        raise ValueError("lost a row")

    monkeypatch.setattr(g1min.cli, "convert_2to3", broken)
    path = form22_file(tmp_path, TwoTwoForm(((0, 1, 0), (1, 0, 0), (0, 0, 1))))
    assert main(["convert", "2to3", path]) == 6
    assert capsys.readouterr().err == "internal error: lost a row\n"


def test_construct_critical_needs_p_at_least_5(capsys):
    assert main(["construct", "--critical", "cube", "--prime", "3"]) == 2
    assert "p >= 5" in capsys.readouterr().err


def test_construct_critical_internal_value_error_exits_6(capsys, monkeypatch):
    import g1min.cli

    def broken(kind, ctx, seed):
        raise ValueError("no pattern")

    monkeypatch.setattr(g1min.cli, "critical_model", broken)
    assert main(["construct", "--critical", "cube", "--prime", "5"]) == 6
    assert capsys.readouterr().err == "internal error: no pattern\n"


def test_oracle_weights_count(capsys):
    assert main(["oracle", "weights", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "81 minimal, 8 after symmetry"


def test_oracle_weights_listing(capsys):
    assert main(["oracle", "weights", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["minimal"]) == 81 and len(doc["symmetric"]) == 8


def test_oracle_min22(tmp_path, capsys):
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["oracle", "min22", path, "--prime", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["minimal"] is True
    path = form22_file(tmp_path, scalar_multiply(construct_22(0, 0, 0, 1), 2), "g.json")
    assert main(["oracle", "min22", path, "--prime", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["minimal"] is False


def test_invariants_hypercube(tmp_path, capsys):
    coeffs = ["0"] * 16
    # identity pattern: entries (i,j,k,l) with i=j and k=l
    for idx in (0, 3, 12, 15):
        coeffs[idx] = "1"
    path = write_model(tmp_path, "h.json", {"kind": "hypercube", "coeffs": coeffs})
    assert main(["invariants", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["Delta"] == "0"


def test_construct_critical_then_minimise(tmp_path, capsys):
    out = str(tmp_path / "crit.json")
    assert main(["construct", "--critical", "form22", "--prime", "5",
                 "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    assert main(["minimise", out, "--prime", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alreadyMinimal"] is True and doc["steps"] == []
    assert main(["level", out, "--prime", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["level"] >= 1


def test_construct_requires_curve_or_critical(capsys):
    assert main(["construct", "--type", "22"]) == 2


@contextlib.contextmanager
def _no_digit_limit():
    """Let this test write and read integers past CPython's 4300 digits
    (before 3.10.7 there is no limit to lift)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _huge_form22_file(tmp_path):
    F = construct_22(1, 0, 0, 10 ** 5000 + 7)  # one 5001-digit coefficient
    with _no_digit_limit():
        return F, form22_file(tmp_path, F)


def test_invariants_past_the_digit_limit(tmp_path, capsys):
    F, path = _huge_form22_file(tmp_path)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["invariants", path, "--json"]) == 0
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored after the command
    with _no_digit_limit():
        doc = json.loads(capsys.readouterr().out)
        assert int(doc["Delta"]) == discriminant(F)
        assert len(doc["Delta"]) > 15000


def test_minimise_json_past_the_digit_limit(tmp_path, capsys):
    F, path = _huge_form22_file(tmp_path)
    assert main(["minimise", path, "--prime", "5", "--json"]) == 0
    with _no_digit_limit():
        doc = json.loads(capsys.readouterr().out)
        assert model_from_dict(doc["model"]) == F
    assert doc["alreadyMinimal"] is True


class _GoneReader(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback(tmp_path):
    # the report, about 185 KB, overfills the pipe, so a write after the
    # reader has gone fails in the child
    F = scalar_multiply(construct_22(1, 2, 3, 4), 10 ** 5000)
    with _no_digit_limit():
        path = form22_file(tmp_path, F)
    with subprocess.Popen([sys.executable, "-m", "g1min", "invariants", path, "--json"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={"PYTHONPATH": str(SRC)}) as child:
        assert child.stdout.read(10) == b'{\n  "Delta'
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
    assert err == b""
    # in process as well, with a stdout whose reader is gone
    gone = _GoneReader()
    with contextlib.redirect_stdout(gone):
        assert main(["invariants", path, "--json"]) == 1
    assert gone.closed


def test_prime_past_the_digit_limit_reaches_the_context(tmp_path, capsys):
    # argparse reads --prime with int(), so the limit is lifted before parsing
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["level", path, "--prime", "2" + "0" * 4400]) == 2
    err = capsys.readouterr().err
    assert "is not prime" in err and "invalid int value" not in err
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_cli_runs_without_a_digit_limit_api(tmp_path, capsys, monkeypatch):
    # CPython before 3.10.7 has neither the limit nor its getter and setter
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["invariants", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["Delta"] == "-64"


def test_repeated_calls_give_identical_output(tmp_path, capsys):
    # the parser is built once per process; no call's options leak into the next
    F = scalar_multiply(construct_22(0, 0, 0, 1), 6)
    path = form22_file(tmp_path, F)
    for argv in (["invariants", path], ["invariants", path, "--json"],
                 ["minimise", path, "--global"], ["minimise", path, "--prime", "2", "--json"],
                 ["level", path, "--prime", "3", "--json"]):
        first = (main(argv), capsys.readouterr())
        assert first[0] == 0
        assert (main(argv), capsys.readouterr()) == first


def test_out_does_not_outlive_its_call(tmp_path, capsys):
    path = form22_file(tmp_path, scalar_multiply(construct_22(0, 0, 0, 1), 2))
    out_path = tmp_path / "min.json"
    assert main(["minimise", path, "--prime", "2", "--out", str(out_path)]) == 0
    assert capsys.readouterr().err == f"wrote {out_path}\n"
    out_path.unlink()
    assert main(["minimise", path, "--prime", "2"]) == 0
    assert capsys.readouterr().err == ""
    assert not out_path.exists()


def test_minimise_refuses_an_unwritable_out(tmp_path, capsys):
    path = form22_file(tmp_path, scalar_multiply(construct_22(0, 0, 0, 1), 2))
    out_path = tmp_path / "missing" / "min.json"
    assert main(["minimise", path, "--prime", "5", "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {out_path}: [Errno 2] No such file"
                                       f" or directory: '{out_path}'\n")
    assert not out_path.parent.exists()


def test_usage_error_then_good_call(tmp_path, capsys):
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    with pytest.raises(SystemExit) as exc:
        main(["minimise", path, "--prime", "five"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["minimise", path, "--prime", "5"]) == 0


def test_second_call_builds_no_parser(tmp_path, capsys, monkeypatch):
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    assert main(["invariants", path]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["invariants", path]) == 0
    assert main(["level", path, "--prime", "5"]) == 0
    assert built == []


def test_global_json_skips_the_text_only_discriminant(tmp_path, capsys, monkeypatch):
    # the library checks the input's Delta, so the CLI computes none of its
    # own; only the text report needs the output's Delta
    import g1min.cli

    seen = []
    monkeypatch.setattr(g1min.cli, "discriminant", lambda m: seen.append(m) or discriminant(m))
    F = scalar_multiply(construct_22(0, 0, 0, 1), 6)
    path = form22_file(tmp_path, F)
    assert main(["minimise", path, "--global", "--json"]) == 0
    assert seen == []
    assert main(["minimise", path, "--global"]) == 0
    assert seen == [construct_22(0, 0, 0, 1)]
    assert capsys.readouterr().out.endswith("final Delta = -64\n")


# ---------------------------------------------------------------------------
# every refusal of every subcommand, with its exit code and exact stderr


# two primes above 2^40, so their product exceeds 2^80 and cannot be dropped
_P = _next_prime(1 << 40)
_PQ = _P * _next_prime(_P + 1)

_REFUSAL_FILES = {
    "bad.json": "{not json",
    "unknown.json": {"kind": "sextic", "coeffs": []},
    "short.json": {"kind": "quartic", "coeffs": ["1"]},
    "hex.json": {"kind": "quartic", "coeffs": ["0x10", "0", "0", "0", "1"]},
    "list.json": [1, 2],
    "rational22.json": NON_INTEGRAL_22,
    "rational22-0.json": {"kind": "form22", "coeffs": ["1/2"] + ["0"] * 8},
    "quartic.json": {"kind": "quartic", "coeffs": ["1", "0", "0", "0", "1"]},
    "rational.json": RATIONAL_QUARTIC,
    "rational0.json": {"kind": "quartic", "coeffs": ["1/2", "0", "0", "0", "0"]},
    "semiprime.json": {"kind": "quartic", "coeffs": ["1", "0", "0", "0", str(_PQ)]},
    "cubic.json": {"kind": "cubic", "coeffs": list("1000001001")},
    "cubic0.json": {"kind": "cubic", "coeffs": ["0"] * 10},
    "zero22.json": {"kind": "form22", "coeffs": ["0"] * 9},
    "form22.json": model_to_dict(construct_22(0, 0, 0, 1)),
    "cube.json": model_to_dict(construct_cube(0, 0, 0, 1)),
}

_NOT_INTEGRAL = "model must be integral"
_CUBIC = "ternary cubics are carried along, not minimised directly"
_NO_FILE = "cannot read @missing.json: [Errno 2] No such file or directory: '@missing.json'"

# id: (argv, exit code, stderr after "error: "); "@" stands for the file
# directory.  An id naming two faults pins which check comes first.
REFUSALS = {
    "invariants/unreadable": (["invariants", "@missing.json"], 2, _NO_FILE),
    "invariants/bad-json": (["invariants", "@bad.json"], 2,
                            "invalid JSON in @bad.json: Expecting property name enclosed in"
                            " double quotes: line 1 column 2 (char 1)"),
    "invariants/unknown-kind": (["invariants", "@unknown.json"], 2,
                                "bad model file @unknown.json: unknown model kind: 'sextic'"),
    "invariants/coefficient-count": (["invariants", "@short.json"], 2,
                                     "bad model file @short.json: kind quartic expects 5"
                                     " coefficients"),
    "invariants/bad-coefficient": (["invariants", "@hex.json"], 2,
                                   "bad model file @hex.json: Invalid literal for Fraction:"
                                   " '0x10'"),
    "invariants/not-an-object": (["invariants", "@list.json"], 2,
                                 "bad model file @list.json: model document must be a JSON"
                                 " object"),
    "invariants/non-integral-form22": (["invariants", "@rational22.json"], 2, _NOT_INTEGRAL),
    "invariants/singular-non-integral-form22": (["invariants", "@rational22-0.json"], 2,
                                                _NOT_INTEGRAL),

    "minimise/unreadable": (["minimise", "@missing.json", "--prime", "5"], 2, _NO_FILE),
    "minimise/non-integral-form22": (["minimise", "@rational22.json", "--prime", "5"], 2,
                                     _NOT_INTEGRAL),
    "minimise/cubic": (["minimise", "@cubic.json", "--prime", "2"], 3, _CUBIC),
    "minimise/singular-cubic": (["minimise", "@cubic0.json", "--prime", "2"], 3, _CUBIC),
    "minimise/cubic-composite-prime": (["minimise", "@cubic.json", "--prime", "6"], 3, _CUBIC),
    "minimise/singular": (["minimise", "@zero22.json", "--prime", "2"], 4, "singular model"),
    "minimise/singular-composite-prime": (["minimise", "@zero22.json", "--prime", "6"], 4,
                                          "singular model"),
    "minimise/non-integral": (["minimise", "@rational.json", "--prime", "3"], 2,
                              _NOT_INTEGRAL),
    "minimise/singular-non-integral": (["minimise", "@rational0.json", "--prime", "3"], 4,
                                       "singular model"),
    "minimise/non-integral-composite-prime": (["minimise", "@rational.json", "--prime", "6"],
                                              2, _NOT_INTEGRAL),
    "minimise/composite-prime": (["minimise", "@form22.json", "--prime", "6"], 2,
                                 "6 is not prime"),
    "minimise/no-prime": (["minimise", "@form22.json"], 2, "--prime is required"),
    "minimise/cubic-no-prime": (["minimise", "@cubic.json"], 3, _CUBIC),
    "minimise/singular-no-prime": (["minimise", "@zero22.json"], 4, "singular model"),
    "minimise/non-integral-no-prime": (["minimise", "@rational.json"], 2, _NOT_INTEGRAL),
    "minimise/singular-non-integral-form22": (["minimise", "@rational22-0.json", "--prime",
                                               "5"], 4, "singular model"),

    "global/cubic": (["minimise", "@cubic.json", "--global"], 3, _CUBIC),
    "global/singular-cubic": (["minimise", "@cubic0.json", "--global"], 3, _CUBIC),
    "global/singular": (["minimise", "@zero22.json", "--global"], 4, "singular model"),
    "global/non-integral": (["minimise", "@rational.json", "--global"], 2, _NOT_INTEGRAL),
    "global/singular-non-integral": (["minimise", "@rational0.json", "--global"], 4,
                                     "singular model"),
    "global/singular-non-integral-form22": (["minimise", "@rational22-0.json", "--global"], 4,
                                            "singular model"),
    "global/unfactored": (["minimise", "@semiprime.json", "--global", "--json"], 5,
                          f"leftover cofactor {_PQ} is composite"),
    "global/with-prime": (["minimise", "@form22.json", "--global", "--prime", "6"], 2,
                          "argument --prime: not allowed with argument --global"),

    "level/non-integral-form22": (["level", "@rational22.json", "--prime", "5"], 2,
                                  _NOT_INTEGRAL),
    "level/quartic": (["level", "@quartic.json", "--prime", "2"], 3,
                      "level is not defined for kind quartic"),
    "level/cubic": (["level", "@cubic.json", "--prime", "2"], 3,
                    "level is not defined for kind cubic"),
    "level/quartic-composite-prime": (["level", "@quartic.json", "--prime", "6"], 3,
                                      "level is not defined for kind quartic"),
    "level/composite-prime": (["level", "@form22.json", "--prime", "6"], 2, "6 is not prime"),
    "level/singular": (["level", "@zero22.json", "--prime", "2"], 4, "singular model"),
    "level/singular-composite-prime": (["level", "@zero22.json", "--prime", "6"], 2,
                                       "6 is not prime"),
    "level/singular-non-integral-form22": (["level", "@rational22-0.json", "--prime", "5"], 4,
                                           "singular model"),
    "level/non-integral-form22-composite-prime": (["level", "@rational22.json", "--prime",
                                                   "6"], 2, "6 is not prime"),

    "construct/nothing": (["construct", "--type", "22"], 2,
                          "either --curve or --critical is required"),
    "construct/bad-curve": (["construct", "--curve", "1,2"], 2,
                            "--curve expects four comma-separated integers"),
    "construct/singular-22": (["construct", "--curve", "0,0,0,0", "--type", "22"], 4,
                              "the marked curve is singular"),
    "construct/singular-cube": (["construct", "--curve", "0,0,0,0", "--type", "cube"], 4,
                                "the marked curve is singular"),
    "construct/unwritable-out": (["construct", "--curve", "0,0,0,1", "--out", "@missing/x.json"],
                                 2, "cannot write @missing/x.json: [Errno 2] No such file or"
                                 " directory: '@missing/x.json'"),
    "construct/critical-no-prime": (["construct", "--critical", "cube"], 2,
                                    "--prime is required"),
    "construct/critical-composite-prime": (["construct", "--critical", "cube", "--prime", "4"],
                                           2, "4 is not prime"),
    "construct/critical-small-prime": (["construct", "--critical", "form22", "--prime", "3"],
                                       2, "critical patterns are stated for p >= 5"),

    "convert/non-integral-form22": (["convert", "2to3", "@rational22.json"], 2,
                                    _NOT_INTEGRAL),
    "convert/singular-non-integral-form22": (["convert", "2to3", "@rational22-0.json"], 2,
                                             _NOT_INTEGRAL),
    "convert/2to3-quartic": (["convert", "2to3", "@quartic.json"], 3,
                             "2to3 needs a form22 model, got quartic"),
    "convert/2to3-cube": (["convert", "2to3", "@cube.json"], 3,
                          "2to3 needs a form22 model, got cube"),
    "convert/2to3-corner": (["convert", "2to3", "@form22.json"], 3,
                            "((1:0),(1:0)) is not on the curve: a11 != 0"),
    "convert/3to2-form22": (["convert", "3to2", "@form22.json"], 3,
                            "3to2 needs a cube model, got form22"),
    "convert/3to2-cubic": (["convert", "3to2", "@cubic.json"], 3,
                           "3to2 needs a cube model, got cubic"),
    "convert/3to2-corner": (["convert", "3to2", "@cube.json"], 3,
                            "the bilinear forms do not vanish at ((0:0:1),(0:0:1))"),

    "oracle/non-integral-form22": (["oracle", "min22", "@rational22.json", "--prime", "2"], 2,
                                   _NOT_INTEGRAL),
    "oracle/cube": (["oracle", "min22", "@cube.json", "--prime", "2"], 3,
                    "the minimality oracle works on form22 models, got cube"),
    "oracle/cube-composite-prime": (["oracle", "min22", "@cube.json", "--prime", "6"], 3,
                                    "the minimality oracle works on form22 models, got cube"),
    "oracle/composite-prime": (["oracle", "min22", "@form22.json", "--prime", "6"], 2,
                               "6 is not prime"),
    "oracle/prime-bound": (["oracle", "min22", "@form22.json", "--prime", "7"], 2,
                           "oracle limited to p <= 5"),
    "oracle/singular-prime-bound": (["oracle", "min22", "@zero22.json", "--prime", "7"], 2,
                                    "oracle limited to p <= 5"),
    "oracle/singular": (["oracle", "min22", "@zero22.json", "--prime", "5"], 4,
                        "singular model"),
    "oracle/singular-non-integral-form22": (["oracle", "min22", "@rational22-0.json",
                                             "--prime", "5"], 4, "singular model"),
}


@pytest.mark.parametrize("argv, code, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_refusal_keeps_its_exit_code_and_message(tmp_path, capsys, argv, code, message):
    for name, doc in _REFUSAL_FILES.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))

    def at(s):
        return s.replace("@", f"{tmp_path}/")

    try:
        assert main([at(a) for a in argv]) == code
    except SystemExit as exc:  # argparse's own refusal: its usage, then "PROG: error: ..."
        assert exc.code == code
        out, err = capsys.readouterr()
        prog = f"g1min {argv[0]}"
        assert out == "" and err.startswith(f"usage: {prog} ")
        assert err.endswith(f"\n{prog}: error: {at(message)}\n")
    else:
        assert capsys.readouterr() == ("", f"error: {at(message)}\n")


@pytest.mark.parametrize("error, code", [
    (RefusedInputError("refused"), 2),
    (UnsupportedModelError("unsupported"), 3),
    (SingularModelError("singular model"), 4),
    (FactorizationError("unsplit"), 5),
    (ValueError("plain"), 6),
])
def test_the_exit_code_follows_the_refusal_type(tmp_path, capsys, monkeypatch, error, code):
    import g1min.cli

    def refuse(*args):
        raise error

    for name in ("minimise", "minimise_global", "level", "critical_model", "construct_22",
                 "convert_2to3", "oracle_minimality_22"):
        monkeypatch.setattr(g1min.cli, name, refuse)
    path = form22_file(tmp_path, construct_22(0, 0, 0, 1))
    prefix = "internal error" if code == 6 else "error"
    for argv in (["minimise", path, "--prime", "5"], ["minimise", path, "--global"],
                 ["level", path, "--prime", "5"],
                 ["construct", "--critical", "cube", "--prime", "5"],
                 ["construct", "--curve", "0,0,0,1"], ["convert", "2to3", path],
                 ["oracle", "min22", path, "--prime", "5"]):
        assert main(argv) == code
        assert capsys.readouterr() == ("", f"{prefix}: {error}\n")
