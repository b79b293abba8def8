import json
import os
import pathlib
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flagvec
from flagvec import (
    FaceLattice,
    InvalidParams,
    build_crosspolytope,
    build_cube,
    build_cyclic,
    build_polygon,
    build_simplex,
)
from flagvec.cli import FAMILIES, main
from flagvec.lattice import MAX_FACES_ENV
from flagvec.rational import rat_to_str

# verify-paper --no-meta --seed 7 as JSON, and the outputs that
# test_outputs_match_the_goldens names
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_csv(capsys):
    code, out, _ = run(capsys, "generate", "cyclic", "-d", "5", "-n", "8",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["f0,f1,f2,f3,f4", "8,28,52,50,20"]


def test_generate_p7n_and_simplex(capsys):
    code, out, _ = run(capsys, "generate", "p7n", "-n", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "15,56,112,140,112,56,15"
    code, out, _ = run(capsys, "generate", "simplex", "-d", "6", "--format", "csv")
    assert out.splitlines()[1] == "7,21,35,35,21,7"


def test_generate_json_meta_toggle(capsys):
    code, out, _ = run(capsys, "generate", "simplex", "-d", "3")
    doc = json.loads(out)
    assert doc["f"] == ["4", "6", "4"] and "meta" in doc
    code, out, _ = run(capsys, "generate", "simplex", "-d", "3", "--no-meta")
    assert "meta" not in json.loads(out)


def test_generate_invalid_params(capsys):
    code, _, err = run(capsys, "generate", "cyclic", "-d", "5", "-n", "4")
    assert code == 2 and "error" in err
    # an option the family does not take is refused, not dropped
    for argv in (("generate", "p7n", "-n", "9", "-d", "3"),
                 ("flags", "polygon", "-n", "4", "-d", "7")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {argv[1]} takes no -d\n"
    # -d and -n are counts: ASCII decimal digits, at most 4300 of them
    for option, value, argv in (
            ("-d", "\u0663", ("generate", "simplex", "-d", "\u0663", "--format", "csv")),
            ("-d", "-3", ("flags", "cube", "-d", "-3")),
            ("-n", "1_0", ("generate", "p7n", "-n", "1_0")),
            ("-n", "+9", ("cdindex", "cyclic", "-d", "4", "-n", "+9")),
            ("-n", " 9", ("generate", "polygon", "-n", " 9"))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {option} {value!r} is not a string of decimal digits\n"
    code, out, err = run(capsys, "generate", "p7n", "-n", "9" * 5000)
    assert code == 2 and out == ""
    assert err == "error: -n '99999999999999999999'... has more than 4300 digits\n"


def test_check_reports_verdicts(capsys):
    code, out, _ = run(capsys, "check", "8,28,52,50,20", "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["properties"]["C"] == {"holds": False, "witness": 1}
    assert doc["properties"]["L"]["holds"] is True
    assert doc["properties"]["U"]["holds"] is True
    assert doc["properties"]["B"]["holds"] is True


def test_check_non_unimodal_candidate_member(capsys):
    code, out, _ = run(capsys, "check", "30,135,126,67,69,23", "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["properties"]["U"] == {"holds": False, "witness": 3}


def test_check_rejects_degenerate_vectors(capsys):
    code, _, err = run(capsys, "check", "1,1")
    assert code == 2 and "error" in err
    # each count is ASCII decimal digits, as in an @file, and is named
    for count in ("x", "1_0", "+10", "\u0661\u0660", "-4"):
        code, out, err = run(capsys, "check", f"4,{count},4")
        assert code == 2 and out == ""
        assert err == f"error: face count {count!r} is not a string of decimal digits\n"
    # past the 4300 digits int() converts, the count is still named
    code, out, err = run(capsys, "check", "4," + "9" * 5000 + ",4")
    assert code == 2 and out == ""
    assert err == ("error: face count '99999999999999999999'... has more than"
                   " 4300 digits\n")
    code, out, err = run(capsys, "check", "4,6,4", "-d", "3.0")
    assert code == 2 and out == ""
    assert err == "error: -d '3.0' is not a string of decimal digits\n"


def test_check_reads_files(tmp_path, capsys):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"d": 3, "f": ["4", "6", "4"]}))
    code, out, _ = run(capsys, "check", f"@{path}", "--no-meta")
    assert code == 0
    assert json.loads(out)["euler"] is True


@pytest.mark.parametrize("doc", ['{"f": 5}', '{"f": [1.5, 2]}',
                                 '{"f": [true, 6, 4]}', '{"f": ["4.0", 6, 4]}',
                                 '{"g": [4, 6, 4]}'])
def test_check_refuses_a_malformed_file(tmp_path, capsys, doc):
    path = tmp_path / "vec.json"
    path.write_text(doc)
    code, out, err = run(capsys, "check", f"@{path}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_flags_output_round_trips(capsys):
    from flagvec import FlagVector, build_simplex

    code, out, _ = run(capsys, "flags", "simplex", "-d", "3", "--no-meta")
    doc = json.loads(out)
    assert doc["entries"][""] == "1"
    assert doc["entries"]["012"] == "24"
    assert FlagVector.from_json(out) == build_simplex(3).flag_vector()
    code, out, _ = run(capsys, "flags", "polygon", "-n", "4", "--format", "csv")
    assert "01,8" in out.splitlines()


def test_cdindex_command(capsys):
    code, out, _ = run(capsys, "cdindex", "polygon", "-n", "5", "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["cd"] == "c^2 + 3d"
    assert doc["coeffs"] == {"cc": "1", "d": "3"}
    code, out, _ = run(capsys, "cdindex", "simplex", "-d", "3", "--no-meta")
    assert json.loads(out)["cd"] == "c^3 + 2dc + 2cd"


def test_cdindex_coefficient_degree_is_read_from_the_exponents(capsys):
    # spelling the word out first took seconds and printed it back whole
    code, out, err = run(capsys, "cdindex", "simplex", "-d", "3",
                         "--coeff", "c^10000000")
    assert code == 2 and out == ""
    assert err == "error: 'c^10000000' has degree 10000000, need 3\n"
    for word in ("c0", ""):
        code, out, err = run(capsys, "cdindex", "simplex", "-d", "3", "--coeff", word)
        assert code == 2 and err == f"error: empty cd-word {word!r}\n"
    # an exponent too long for int() is refused by the word, cut short
    code, out, err = run(capsys, "cdindex", "simplex", "-d", "3",
                         "--coeff", "c^" + "1" * 5000)
    assert code == 2 and out == ""
    assert err == ("error: cd-word 'c^111111111111111111'... has an exponent"
                   " too long to read\n")
    # a word longer than 20 characters is named by its first 20
    code, out, err = run(capsys, "cdindex", "simplex", "-d", "3", "--coeff", "c" * 30)
    assert code == 2 and err == "error: 'cccccccccccccccccccc'... has degree 30, need 3\n"
    # each exponent fits int(), but the degree has too many digits to print
    code, out, err = run(capsys, "cdindex", "simplex", "-d", "3",
                         "--coeff", "c^" + "9" * 4300 + "d^" + "9" * 4300)
    assert code == 2 and out == ""
    assert err == ("error: 'c^999999999999999999'... has a degree far above"
                   " the 3 needed\n")


def test_cdindex_single_coefficient(capsys):
    code, out, _ = run(capsys, "cdindex", "cyclic", "-d", "6", "-n", "10",
                       "--coeff", "c2dc2", "--no-meta")
    assert code == 0
    assert json.loads(out)["value"] == "83"
    code, out, _ = run(capsys, "cdindex", "cyclic", "-d", "6", "-n", "10",
                       "--coeff", "c2dc2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["word,value", "c2dc2,83"]


def test_convolve_command(capsys):
    code, out, _ = run(capsys, "convolve", "g0@1", "g1@2", "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"d": 4, "coeffs": {"1": "-3", "12": "1"}}
    # feeding the result back in is accepted
    code, out2, _ = run(capsys, "convolve", json.dumps(doc), "g0@0", "--no-meta")
    assert json.loads(out2) == {"d": 5, "coeffs": {"14": "-3", "124": "1"}}


@pytest.mark.parametrize("value", ['"1/0"', "0.1", "true"])
def test_convolve_refuses_inexact_coefficients(capsys, value):
    form = '{"d":1,"coeffs":{"0":%s}}' % value
    code, out, err = run(capsys, "convolve", form, "g0@0")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("form", ['{"d":true,"coeffs":{"0":1}}',
                                  '{"d":1.5,"coeffs":{}}',
                                  '{"d":1,"coeffs":[1]}',
                                  # the D of g0@D and g1@D is read as a count
                                  "g0@x", "g1@1_0", "g1@+2", "g0@\u0663", "g0@"])
def test_convolve_refuses_a_malformed_form(capsys, form):
    code, out, err = run(capsys, "convolve", form, "g0@0")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_options_a_command_would_ignore_are_refused():
    for argv in (["check", "8,28,52,50,20", "--seed", "1"],
                 ["convolve", "g0@1", "g1@2", "--cache-dir", "x"],
                 ["flags", "simplex", "-d", "2", "--cache-dir", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_candidates_command(capsys):
    code, out, _ = run(capsys, "candidates", "6", "--ell", "0", "--no-meta")
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == ["22", "111", "110", "35", "21", "7"]
    assert doc["battery_ok"] and doc["euler_ok"] and doc["gds_ok"]
    assert doc["properties"]["U"]["holds"] is True
    code, out, _ = run(capsys, "candidates", "7", "--no-meta")
    doc = json.loads(out)
    assert doc["f"][6] == "134"
    assert doc["properties"]["B"] == {"holds": False, "witness": 3}


def test_scan_logconv(capsys):
    code, out, _ = run(capsys, "scan", "logconv7", "--n", "8..20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,r1,r2,r3")
    assert len(lines) == 14  # header plus 13 rows
    assert lines[1].split(",")[3] == "25/16"


def test_scan_convexity(capsys):
    code, out, _ = run(capsys, "scan", "convexity5", "--n", "6..12")
    lines = out.splitlines()
    gaps = [line.split(",")[6] for line in lines[1:]]
    # the convexity gap turns negative exactly at n = 8
    assert gaps[0] == "2" and gaps[1] == "1/2" and gaps[2] == "-2"


def test_scan_range_errors(capsys):
    code, _, err = run(capsys, "scan", "logconv7", "--n", "5..7")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "scan", "logconv7", "--n", "oops")
    assert code == 2
    # one value more than a scan may take is refused before any row is built
    code, out, err = run(capsys, "scan", "logconv7", "--n", "8..100008")
    assert code == 2 and out == ""
    assert err == ("error: range 8..100008 holds 100001 values,"
                   " more than the 100000 a scan may take\n")
    # each bound is a count: ASCII decimal digits, at most 4300 of them
    for bounds, bad in (("1_0..1_1", "1_0"), ("8..+9", "+9"), ("\u0668..9", "\u0668"),
                        ("8..", "")):
        code, out, err = run(capsys, "scan", "logconv7", "--n", bounds)
        assert code == 2 and out == ""
        assert err == f"error: --n bound {bad!r} is not a string of decimal digits\n"
    code, out, err = run(capsys, "scan", "convexity5", "--n", "6.." + "9" * 5000)
    assert code == 2 and out == ""
    assert err == ("error: --n bound '99999999999999999999'... has more than"
                   " 4300 digits\n")


@pytest.mark.parametrize("argv, message", [
    (("candidates", "6", "--ell", "-1"), "--ell '-1' is not a string of decimal digits"),
    (("candidates", "6", "--ell", "1_0"), "--ell '1_0' is not a string of decimal digits"),
    (("candidates", "\u0666"), "dimension '\u0666' is not a string of decimal digits"),
    (("candidates", "5"), "candidates have dimension 6 or 7, got '5'"),
    (("verify-paper", "--seed", "0x7"), "--seed '0x7' is not a string of decimal digits"),
])
def test_counts_are_read_by_one_rule(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _convolve(coeffs: dict):
    return ("convolve", json.dumps({"d": 1, "coeffs": coeffs}), "g0@0", "--no-meta")


# a count is 1 to 4300 ASCII decimal digits, and an exact number is a count,
# with or without a leading "-", optionally followed by "/" and a nonzero
# count: exactly what rat_to_str writes
@pytest.mark.parametrize("argv, expected", [
    (_convolve({"0": "1_0"}), "entry '0': number '1_0' is not a string of decimal digits"),
    (_convolve({"0": "\u0661\u0660"}),
     "entry '0': number '\u0661\u0660' is not a string of decimal digits"),
    (_convolve({"0": " +7 "}), "entry '0': number ' +7 ' is not a string of decimal digits"),
    (_convolve({"0": "+7"}), "entry '0': number '+7' is not a string of decimal digits"),
    (_convolve({"0": "-3/-4"}),
     "entry '0': denominator '-4' is not a string of decimal digits"),
    (_convolve({"0": "3/+4"}), "entry '0': denominator '+4' is not a string of decimal digits"),
    (_convolve({"0": "9" * 4301}),
     "entry '0': number '99999999999999999999'... has more than 4300 digits"),
    (_convolve({"x": 1}), "index-set key 'x' is not a string of decimal digits"),
    (_convolve({"\u0660": 1}), "index-set key '\u0660' is not a string of decimal digits"),
    (("cdindex", "simplex", "-d", "4", "--coeff", "c\u0662d"),
     "cannot parse cd-word 'c\u0662d'"),
    (_convolve({"0": "-3/4"}), {"01": "-3/4"}),
    (_convolve({"0": "007"}), {"01": "7"}),
    (_convolve({"0": "4/2"}), {"01": "2"}),
    *((_convolve({"0": rat_to_str(x)}), {"01": rat_to_str(x)} if x else {})
      for x in (-7, 7, Fraction(-7, 3), 0)),
    (("cdindex", "simplex", "-d", "3", "--coeff", "c\u3000d"),
     "cannot parse cd-word 'c\\u3000d'"),
])
def test_every_number_in_text_is_read_by_one_rule(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    if isinstance(expected, str):
        assert (code, out, err) == (2, "", f"error: {expected}\n")
    else:
        assert code == 0 and json.loads(out)["coeffs"] == expected


@pytest.mark.parametrize("argv", [("convolve", "g0@1", "g1@2"), ("candidates", "6")])
def test_json_only_commands_take_no_format(capsys, argv):
    # both always print JSON, so --format would be an option that does nothing
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, *argv, "--no-meta")
    assert code == 0 and "meta" not in json.loads(out)


def test_verify_paper_json_passes(capsys):
    code, out, _ = run(capsys, "verify-paper", "--format", "json", "--no-meta",
                       "--seed", "7")
    assert code == 0
    assert out == (GOLDEN / "verify_paper_seed7.json").read_text(encoding="utf-8")
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"kalai-form-reduction", "candidate-7d-f6",
            "oracle-gds-residuals"} <= names
    assert all(c["passed"] for c in doc["checks"])
    assert len(doc["table"]) == 18


@pytest.mark.parametrize("golden, argv", [
    ("candidates_6_ell9.json", ("candidates", "6", "--ell", "9")),
    ("candidates_7.json", ("candidates", "7")),
    ("cdindex_simplex_8.json", ("cdindex", "simplex", "-d", "8")),
    ("verify_paper_seed7.txt", ("verify-paper", "--seed", "7")),
    ("generate_cyclic_5_8.csv", ("generate", "cyclic", "-d", "5", "-n", "8",
                                 "--format", "csv")),
    ("generate_cyclic_5_8.json", ("generate", "cyclic", "-d", "5", "-n", "8")),
    ("generate_p7n_10.csv", ("generate", "p7n", "-n", "10", "--format", "csv")),
    ("generate_p7n_10.json", ("generate", "p7n", "-n", "10")),
    ("check_cyclic_5_8.csv", ("check", "8,28,52,50,20", "--format", "csv")),
    ("flags_cyclic_4_7.csv", ("flags", "cyclic", "-d", "4", "-n", "7",
                              "--format", "csv")),
    ("cdindex_cube_5.csv", ("cdindex", "cube", "-d", "5", "--format", "csv")),
    ("cdindex_cyclic_6_10_c2dc2.csv", ("cdindex", "cyclic", "-d", "6", "-n", "10",
                                       "--coeff", "c2dc2", "--format", "csv")),
    ("scan_logconv7_8_20.json", ("scan", "logconv7", "--n", "8..20", "--format", "json")),
    ("scan_convexity5_6_16.json", ("scan", "convexity5", "--n", "6..16",
                                   "--format", "json")),
    ("generate_p7n_60.csv", ("generate", "p7n", "-n", "60", "--format", "csv")),
    ("scan_logconv7_8_60.json", ("scan", "logconv7", "--n", "8..60", "--format", "json")),
])
def test_outputs_match_the_goldens(capsys, golden, argv):
    code, out, _ = run(capsys, *argv, "--no-meta")
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_a_json_key_cannot_spell_an_element_above_9(capsys):
    # g0@9 * g1@9 holds the set {9, 10}, whose key "910" would read back as
    # the sequence 9, 1, 0
    code, out, err = run(capsys, "convolve", "g0@9", "g1@9")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "(9, 10)" in err


def test_a_json_integer_too_long_to_read_is_named(capsys, tmp_path):
    # int() refuses such a literal with a message that names no entry
    nines = "9" * 5000
    too_long = ": an integer of 5000 digits, more than the 4300 that are read\n"
    path = tmp_path / "big.json"
    path.write_text('{"f": [4, %s, 4]}' % nines, encoding="utf-8")
    code, out, err = run(capsys, "check", f"@{path}")
    assert code == 2 and out == ""
    assert err == 'error: JSON entry ["f"][1]' + too_long
    code, out, err = run(capsys, "convolve", '{"d":1,"coeffs":{"0":%s}}' % nines,
                         "g0@0")
    assert code == 2 and out == ""
    assert err == 'error: JSON entry ["coeffs"]["0"]' + too_long


def test_importing_the_cli_loads_no_class_generation_module():
    # dataclasses alone pulls inspect, ast, dis and tokenize into every
    # process's start-up; typing is as costly and as unneeded
    src = str(pathlib.Path(flagvec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def loaded(*statements):
        code = "; ".join([*statements, "import sys; print(*sorted(sys.modules))"])
        return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout.split())

    added = loaded("import flagvec.cli") - loaded()
    assert "flagvec.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def test_the_public_names_change_only_by_a_reviewed_diff():
    names = sorted(name for name in dir(flagvec) if not name.startswith("_")
                   and not isinstance(getattr(flagvec, name), types.ModuleType))
    assert names == [
        "AbPolynomial", "CdPolynomial", "DegreeMismatch", "DeskScaleExceeded",
        "DimensionMismatch", "FVector", "FaceLattice", "FaceNotInLattice", "FlagForm",
        "FlagVecError", "FlagVector", "IncompleteBasis", "InvalidParams",
        "MissingEntry", "NotEulerian", "PropertyReport", "UnsupportedDimension", "VerificationReport", "ab_index",
        "ab_to_cd", "battery", "build_crosspolytope", "build_cube", "build_cyclic",
        "build_polygon", "build_simplex", "candidate_6d", "candidate_7d",
        "cd_coefficient", "cd_index", "cd_word_to_flag_form", "cd_words",
        "check_candidate", "complete_from_sparse", "connected_sum_f", "convolve",
        "cyclic_f", "cyclic_sum_f", "dual_form", "euler_check",
        "evaluate_by_face_sum", "g_forms", "gds_pairs", "gds_relation",
        "gds_residuals", "kalai_5d_form", "kalai_5d_summands", "logconv_scan",
        "neighborly_gap", "properties", "reduce_index", "run_verification",
        "sample_feasible_5d", "sparse_basis", "stanley_nonneg_check", "toric_g",
        "toric_h"]


def test_outputs_are_deterministic(capsys):
    _, first, _ = run(capsys, "scan", "logconv7", "--n", "8..12")
    _, second, _ = run(capsys, "scan", "logconv7", "--n", "8..12")
    assert first == second
    _, a, _ = run(capsys, "candidates", "6", "--ell", "3")
    _, b, _ = run(capsys, "candidates", "6", "--ell", "3")
    assert a == b


@pytest.mark.parametrize("value", [
    "abc", "0", "-3", "1.5", "",
    # past the 4300 digits that int() converts by default
    pytest.param("9" * 5000, id="5000-digits"),
])
def test_a_malformed_face_budget_is_refused_by_name(monkeypatch, capsys, value):
    monkeypatch.setenv("FLAGVEC_MAX_FACES", value)
    code, out, err = run(capsys, "generate", "cube", "-d", "3")
    assert code == 2 and out == ""
    assert err == f"error: FLAGVEC_MAX_FACES must be a decimal integer >= 1, got {value!r}\n"


# ----------------------------------------------------------------------
# refusals under fuzzing, of argv and of JSON objects.  Most inputs are near
# a valid one, so the checks behind the shape checks are reached too.

NUMBERS = st.integers(-9, 400) | st.sampled_from(
    ["1/2", "-3/4", "1/0", "0/5", "007", "1e3", " 1", "\u0663", "9" * 30])
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
SET_KEYS = (st.lists(st.integers(0, 9), max_size=4, unique=True).map(
    lambda S: "".join(map(str, sorted(S))))
    | st.text("0123456789", max_size=4) | st.text(max_size=3))
# the budget refuses the last seed lattice, cross(4) with 82 faces
FACE_BUDGET = "50"
SEED_LATTICES = [json.loads(L.to_json()) for L in (
    build_simplex(0), build_simplex(1), build_simplex(3), build_polygon(5),
    build_cube(3), build_crosspolytope(3), build_cyclic(3, 6),
    build_crosspolytope(4))]
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _mostly(valid, noise=JSON_SCALARS):
    """valid three times in four, else noise (a | b would weigh every
    alternative of a flattened one_of alike)."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else noise)


def _objects(near_valid):
    return _mostly(near_valid, st.dictionaries(
        st.sampled_from(["d", "f", "coeffs", "faces", "x"]), JSON_VALUES, max_size=3))


FACE_FIELDS = {"rank": _mostly(st.integers(-2, 5)),
               "vertices": st.lists(_mostly(st.integers(-1, 9)), max_size=5)}


@st.composite
def _lattice_documents(draw):
    """A seed lattice's document with up to three faults put in."""
    doc = dict(draw(st.sampled_from(SEED_LATTICES)))
    faces = doc["faces"] = list(doc["faces"])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(faces) - 1))
        fault = draw(st.sampled_from(["drop", "copy", "rank", "vertices", "face", "d"]))
        if fault == "drop":
            del faces[i]
        elif fault == "copy":
            faces.append(faces[i])
        elif fault in FACE_FIELDS and isinstance(faces[i], dict):
            faces[i] = {**faces[i], fault: draw(FACE_FIELDS[fault])}
        elif fault == "face":
            faces[i] = draw(JSON_VALUES)
        elif fault == "d":
            doc["d"] = draw(_mostly(st.integers(-1, 9)))
        if not faces:
            break
    return doc


def _exit_0_or_one_error_line(capsys, *argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(MAX_FACES_ENV, FACE_BUDGET)
        code, out, err = run(capsys, *argv)
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and out == "", (code, err)
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@FUZZ
@given(doc=_objects(st.fixed_dictionaries({
           "d": _mostly(st.integers(-1, 7)),
           "coeffs": st.dictionaries(SET_KEYS, _mostly(NUMBERS), max_size=4)})),
       right=st.sampled_from(["g0@0", "g1@2"]))
def test_convolve_exits_0_or_refuses_in_one_line(capsys, doc, right):
    _exit_0_or_one_error_line(capsys, "convolve", json.dumps(doc), right)


@FUZZ
@given(doc=_objects(st.fixed_dictionaries({
    "f": _mostly(st.lists(st.integers(-2, 400) | st.integers(0, 400).map(str),
                          max_size=8), JSON_VALUES)})))
def test_check_file_exits_0_or_refuses_in_one_line(capsys, tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "check-fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _exit_0_or_one_error_line(capsys, "check", f"@{path}")


# texts that int() or a count check might take wrongly
BAD_NUMBERS = st.sampled_from(["x", "", "1_0", "+3", "\u0663", "1.5", "9" * 30, "9" * 5000])


def _int_texts(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), BAD_NUMBERS)


@st.composite
def _counts(draw):
    """A face-count vector as check reads it, with up to two faults put in."""
    counts = draw(st.sampled_from([
        ["8", "28", "52", "50", "20"], ["4", "6", "4"], ["3", "3"],
        ["30", "135", "126", "67", "69", "23"]]))
    for _ in range(draw(st.integers(0, 2))):
        counts[draw(st.integers(0, len(counts) - 1))] = draw(_int_texts(-4, 60))
    return ",".join(counts)


FORMS = (st.sampled_from(["g0@", "g1@"]).flatmap(
    lambda g: _int_texts(-1, 5).map(lambda D: g + D))
    | st.sampled_from(['{"d":1,"coeffs":{"0":1}}', "g2@1", "oops"]))
SCAN_RANGES = _mostly(st.tuples(st.integers(0, 24), st.integers(-3, 30)).map(
    lambda t: f"{t[0]}..{t[0] + t[1]}"),
    st.sampled_from(["oops", "8..", "..9", "x..9", "1_0..20", "8..100008"]))


@st.composite
def _argvs(draw):
    """A subcommand other than verify-paper, with arguments near valid ones."""
    command = draw(st.sampled_from(
        ["generate", "flags", "cdindex", "check", "convolve", "candidates", "scan"]))
    argv = [command]
    if command in ("generate", "flags", "cdindex"):
        family = draw(st.sampled_from(list(FAMILIES)))
        argv.append(family)
        # mostly the options the family takes, else any of -d and -n
        for option in draw(_mostly(st.just(FAMILIES[family][1]), st.sampled_from(
                [(), ("d",), ("n",), ("d", "n"), ("n", "d")]))):
            argv += [f"-{option}", draw(_int_texts(0, 8))]
        if command == "cdindex" and draw(st.booleans()):
            argv += ["--coeff", draw(_mostly(
                st.sampled_from(["c", "d", "cc", "cd", "dc", "c2dc2", "c^3", "d^2", "ccd"]),
                st.text("cd^0123x", max_size=6)))]
    elif command == "check":
        argv.append(draw(_counts()))
        if draw(st.booleans()):
            argv += ["-d", draw(_int_texts(0, 7))]
    elif command == "convolve":
        argv += [draw(FORMS), draw(FORMS)]
    elif command == "candidates":
        argv.append(draw(_mostly(st.sampled_from(["6", "7"]), BAD_NUMBERS)))
        if draw(st.booleans()):
            argv += ["--ell", draw(_int_texts(-2, 20))]
    else:
        argv += [draw(_mostly(st.sampled_from(["logconv7", "convexity5"]),
                              st.just("bogus"))),
                 "--n", draw(SCAN_RANGES)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "text"]))]
    if draw(st.booleans()):
        argv.append("--no-meta")
    return argv


@FUZZ
@given(argv=_argvs())
def test_argv_exits_0_or_refuses_in_one_line(capsys, argv):
    try:
        _exit_0_or_one_error_line(capsys, *argv)
    except SystemExit as exc:  # argparse's own refusal
        assert exc.code == 2
        assert capsys.readouterr().out == ""


@FUZZ
@given(doc=_objects(_lattice_documents()))
def test_lattice_documents_are_read_or_refused_in_one_line(doc):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(MAX_FACES_ENV, FACE_BUDGET)
        try:
            L = FaceLattice.from_json(json.dumps(doc))
        except InvalidParams as exc:
            assert len(str(exc).splitlines()) == 1, exc
            return
    L.flag_vector()
    L.is_eulerian()
