import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedalg.builders
import gradedalg.cli
import gradedalg.identities
from gradedalg.algebra import algebra_on_subspace
from gradedalg.builders import (builtin, free_group_truncation, heisenberg3, sl2,
                                two_dim_nonabelian_lie, upper_triangular)
from gradedalg.cli import main
from gradedalg.errors import InternalCheckError, ResourceCapError, SchemaError
from gradedalg.exactlin import unit_vector
from gradedalg.radical import graded_radical_report, jacobson_radical
from gradedalg.schema import (algebra_to_description, canonical_json,
                              description_to_algebra, digest, load_json,
                              parse_rational, poly_from_description,
                              render_rational)
from tests.corpus import rescaled
from tests.test_radical import _first_kernel_returns

F = Fraction

BUILTIN_NAMES = ["m2_z2", "ut2", "sl2", "gl2_z2", "heis3", "aff1", "fz2",
                 "free_trunc_2_3", "free_trunc_1_4"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_round_trip_builtins(name):
    A = builtin(name)
    desc = algebra_to_description(A)
    B = description_to_algebra(json.loads(json.dumps(desc)))
    assert B.kind == A.kind
    assert B.dim == A.dim
    assert B.group == A.group
    assert B.degrees == A.degrees
    assert B.structure == A.structure
    assert B.unit == A.unit
    assert algebra_to_description(B) == desc


def test_rationals_serialized_in_lowest_terms():
    desc = algebra_to_description(builtin("sl2"))
    for entry in desc["structure"]:
        assert isinstance(entry[3], str)
        F(entry[3])     # parses back


def test_schema_errors_carry_positions():
    desc = algebra_to_description(builtin("fz2"))
    bad = json.loads(json.dumps(desc))
    bad["structure"][0] = [0, 0, 99, "1"]
    with pytest.raises(SchemaError, match=r"structure\[0\]"):
        description_to_algebra(bad)
    bad = json.loads(json.dumps(desc))
    bad["structure"][2] = [0, 0, 0, "1/0"]
    with pytest.raises(SchemaError, match=r"structure\[2\]"):
        description_to_algebra(bad)
    bad = json.loads(json.dumps(desc))
    bad["degrees"] = ["x", 0]
    with pytest.raises(SchemaError, match=r"degrees\[0\]"):
        description_to_algebra(bad)
    bad = json.loads(json.dumps(desc))
    bad["structure"].append(bad["structure"][0])
    with pytest.raises(SchemaError, match="duplicate"):
        description_to_algebra(bad)
    with pytest.raises(SchemaError, match="missing"):
        description_to_algebra({"kind": "associative"})


def _set_group(group):
    def mutate(desc):
        desc["group"] = group
    return mutate


def _set_coeff(coeff):
    def mutate(desc):
        desc["structure"][0][3] = coeff
    return mutate


def _set_grading(group, degrees):
    def mutate(desc):
        desc["group"], desc["degrees"] = group, degrees
    return mutate


def _set_dim(desc):
    desc["dim"] = True


def _set_name(name):
    def mutate(desc):
        desc["name"] = name
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set_group({"type": "cyclic"}), r"group: n: missing"),
    (_set_group({"type": "cyclic", "n": "x"}), r"group: n: expected an integer"),
    (_set_group({"type": "free"}), r"group: rank: missing"),
    (_set_group({"type": "product", "factors": {"type": "cyclic", "n": 2}}),
     r"group: factors: expected a list"),
    (_set_group({"type": "product", "factors": [{"type": "cyclic", "n": 2},
                                                {"type": "cyclic"}]}),
     r"group: factors\[1\]: n: missing"),
    (_set_group({"type": "table"}), r"group: table: missing"),
    (_set_group({"type": "table", "table": [0, 1]}), r"group: table\[0\]: expected a list"),
    (_set_dim, r"dim: expected a nonnegative integer"),
    (_set_coeff("2/4"), r"structure\[0\]: bad rational '2/4'"),
    (_set_coeff("1.5"), r"structure\[0\]: bad rational '1.5'"),
    (_set_coeff("1e3"), r"structure\[0\]: bad rational '1e3'"),
    (_set_name(5), r"name: expected a string"),
    # JSON true and false are ints to Python; as group elements they are errors
    (_set_grading({"type": "cyclic", "n": 2}, [False, True]),
     r"degrees\[0\]: cyclic element must be an integer, got False"),
    (_set_grading({"type": "product", "factors": [{"type": "cyclic", "n": 2}]}, [[0], [True]]),
     r"degrees\[1\]: cyclic element must be an integer, got True"),
    (_set_grading({"type": "table", "table": [[0, 1], [1, 0]]}, [0, True]),
     r"degrees\[1\]: table element must be an integer index, got True"),
    (_set_grading({"type": "trivial"}, [False, 0]), r"degrees\[0\]: bad trivial-group element False"),
    (_set_group({"type": "table", "table": [[False, True], [True, False]]}),
     r"group: table entry \(0,0\) = False"),
    (_set_coeff("3" * 5000), r"structure\[0\]: rational has a numerator or denominator longer"),
    (_set_coeff("-1/" + "3" * 5000), r"structure\[0\]: rational has a numerator or denominator longer"),
])
def test_malformed_descriptions_exit_2_with_position(mutate, message, tmp_path, capsys):
    desc = algebra_to_description(builtin("fz2"))
    mutate(desc)
    with pytest.raises(SchemaError, match=message):
        description_to_algebra(desc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    assert main(["radical", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    (b'{"kind": "associative", "name": "\xff"}', r"not UTF-8 at byte 33: invalid start byte"),
    (b"[" + b"0," * 60000 + b'"\xfe"]', r"not UTF-8 at byte 120002: invalid start byte"),
    (b"[" * 100000, r"JSON nested too deeply to parse"),
    (b'{"n": ' + b"7" * 5000 + b', "terms": []}',
     r"integer literal longer than Python's \d+-digit limit for integers"),
], ids=["bad-byte", "bad-byte-far", "deep-nesting", "long-integer"])
@pytest.mark.parametrize("argv", [["radical", "--input", "{path}"],
                                  ["check-identity", "--builtin", "m2_z2", "--poly", "{path}"]],
                         ids=["input", "poly"])
def test_unreadable_files_exit_2(content, message, argv, tmp_path, capsys):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match=message):
        load_json(str(path))
    assert main([a.format(path=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and re.search(message, err)
    assert "Traceback" not in err


def test_rendered_rationals_parse_back():
    for x in (F(0), F(5), F(-7), F(2, 3), F(-22, 7), F(10**30 + 1, 3**40)):
        assert parse_rational(render_rational(x), "x") == x


_LOWEST = "(not in lowest terms with q >= 1)"
_LONG = "rational has a numerator or denominator longer than Python's 4300-digit limit for integers"


@pytest.mark.parametrize("obj, expected", [
    ("-17/3", F(-17, 3)), ("1", F(1)), ("-0", F(0)), ("0/1", F(0)), ("007/3", F(7, 3)),
    ("7/009", F(7, 9)), (7, F(7)), (-3, F(-3)),
    ("2/4", f"bad rational '2/4' {_LOWEST}"), ("-2/4", f"bad rational '-2/4' {_LOWEST}"),
    ("0/5", f"bad rational '0/5' {_LOWEST}"), ("1/0", f"bad rational '1/0' {_LOWEST}"),
    ("6/009", f"bad rational '6/009' {_LOWEST}"),
    ("9" * 5000 + "/0", f"bad rational '{'9' * 5000}/0' {_LOWEST}"),
    ("9" * 4301, _LONG), ("-" + "9" * 4301, _LONG), ("1/" + "0" * 4301, _LONG),
    ("+1", "bad rational '+1' (expected 'p' or 'p/q')"),
    ("1/-3", "bad rational '1/-3' (expected 'p' or 'p/q')"),
    (" 1", "bad rational ' 1' (expected 'p' or 'p/q')"),
    ("1.5", "bad rational '1.5' (expected 'p' or 'p/q')"),
    ("\u0661", "bad rational '\u0661' (expected 'p' or 'p/q')"),
    ("1/\u00b2", "bad rational '1/\u00b2' (expected 'p' or 'p/q')"),
    ("1_0", "bad rational '1_0' (expected 'p' or 'p/q')"),
    ("1\n", "bad rational '1\\n' (expected 'p' or 'p/q')"),
    *((text, f"bad rational {text!r} (expected 'p' or 'p/q')")
      for text in ("", "-", "/", "1/", "/2", "--1", "-/2", "1/2/3")),
    (True, "rational must be an integer or 'p/q' string, got True"),
    (1.5, "rational must be an integer or 'p/q' string, got 1.5"),
    (None, "rational must be an integer or 'p/q' string, got None"),
], ids=lambda x: repr(x)[:12])
def test_parse_rational_table(obj, expected):
    if isinstance(expected, F):
        assert parse_rational(obj, "w") == expected
        # an int for an integral value, else a Fraction
        assert type(parse_rational(obj, "w")) is (int if expected.denominator == 1 else F)
    else:
        with pytest.raises(SchemaError) as exc:
            parse_rational(obj, "w")
        assert str(exc.value) == f"w: {expected}"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.text(alphabet="0123456789-/+ _.\u0661\u00b2", max_size=6))
def test_parse_rational_reads_the_syntax_of_its_pattern(text):
    # the syntax is -?[0-9]+(/[0-9]+)? with ASCII digits, as a regular
    # expression reads it; a string that fits gets past the syntax check
    try:
        parse_rational(text, "w")
        refused = None
    except SchemaError as exc:
        refused = str(exc)
    fits = re.fullmatch(r"-?[0-9]+(?:/[0-9]+)?", text) is not None
    assert fits == (refused != f"w: bad rational {text!r} (expected 'p' or 'p/q')")


def test_internal_check_failure_exits_3(monkeypatch, capsys):
    def fail(A):
        raise InternalCheckError("radical candidate is not graded")
    monkeypatch.setattr(gradedalg.cli, "graded_radical_report", fail)
    assert main(["radical", "--builtin", "ut2"]) == 3
    err = capsys.readouterr().err
    assert err == "internal check failed: radical candidate is not graded\n"


def test_poly_description():
    A = builtin("m2_z2")
    obj = {"n": 2,
           "terms": [{"coef": "1", "perm": [1, 2], "labels": [0, 0]},
                     {"coef": "-1", "perm": [2, 1], "labels": [0, 0]}]}
    poly = poly_from_description(obj, A)
    from gradedalg.identities import is_graded_identity
    assert is_graded_identity(poly, A)
    with pytest.raises(SchemaError, match=r"terms\[0\].perm"):
        poly_from_description({"n": 2, "terms": [
            {"coef": "1", "perm": [1, 1], "labels": [0, 0]}]}, A)


def _term(perm):
    return {"coef": "1", "perm": perm, "labels": [0, 0]}


@pytest.mark.parametrize("poly, message", [
    ({"n": 2, "terms": 5}, r"terms: expected a list"),
    ({"n": 2, "terms": [_term([1.0, 2.0])]}, r"terms\[0\]\.perm: "),
    ({"n": 2, "terms": [_term(["a", 2])]}, r"terms\[0\]\.perm: "),
    ({"n": 2, "terms": [_term([True, 2])]}, r"terms\[0\]\.perm: "),
    ({"n": 2, "terms": [{"coef": "1", "perm": [1, 2], "labels": [True, False]}]},
     r"terms\[0\]\.labels: cyclic element must be an integer, got True"),
])
def test_malformed_polynomials_exit_2_with_position(poly, message, tmp_path, capsys):
    with pytest.raises(SchemaError, match=message):
        poly_from_description(poly, builtin("m2_z2"))
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly))
    assert main(["check-identity", "--builtin", "m2_z2", "--poly", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


# one basis vector, the unit of the trivially graded field
_POINT = {"kind": "associative", "dim": 1, "group": {"type": "trivial"}, "degrees": [0],
          "structure": [[0, 0, 0, "1"]], "unit": ["1"]}


def _point(**fields):
    return dict(_POINT, **fields)


def _grouped(group):
    return _point(group=group)


_VERIFY = ["verify", "--input", "{path}"]
_CHECK = ["check-identity", "--builtin", "m2_z2", "--poly", "{path}"]


@pytest.mark.parametrize("argv, content, code, line", [
    (_VERIFY, [1, 2], 2, "parse error: algebra description must be a JSON object"),
    (_VERIFY, _point(kind="jordan"), 2,
     "parse error: kind: expected 'associative' or 'lie', got 'jordan'"),
    (_VERIFY, _point(degrees=[0, 0]), 2, "parse error: degrees: expected a list of 1 entries"),
    (_VERIFY, _point(structure={"0": 1}), 2,
     "parse error: structure: expected a list of [i, j, k, coeff] entries"),
    (_VERIFY, _point(structure=[[0, 0, 0]]), 2,
     "parse error: structure[0]: expected [i, j, k, coeff]"),
    (_VERIFY, _point(unit=["1", "0"]), 2, "parse error: unit: expected a list of 1 coordinates"),
    (_VERIFY, _grouped({"n": 2}), 2,
     "parse error: group: group description must be an object with a 'type', got {'n': 2}"),
    (_VERIFY, _grouped({"type": "dihedral"}), 2,
     "parse error: group: unknown group type 'dihedral'"),
    (_VERIFY, _grouped({"type": "cyclic", "n": 0}), 2,
     "parse error: group: cyclic group order must be >= 1"),
    (_VERIFY, _grouped({"type": "table", "table": []}), 2,
     "parse error: group: empty multiplication table"),
    (_VERIFY, _grouped({"type": "table", "table": [[0, 1], [1]]}), 2,
     "parse error: group: table row 1 has length 1, expected 2"),
    (_VERIFY, _grouped({"type": "table", "table": [[0, 1, 2], [1, 0, 0], [2, 1, 0]]}), 2,
     "parse error: group: table is not associative at (1,1,2)"),
    (_VERIFY, _grouped({"type": "free", "rank": 0}), 2,
     "parse error: group: free group rank must be >= 1"),
    (_VERIFY, _grouped({"type": "product", "factors": []}), 2,
     "parse error: group: product group needs at least one factor"),
    (_VERIFY, None, 2, "parse error: {path}: [Errno 21] Is a directory: '{path}'"),
    (_VERIFY, _point(kind="lie", structure=[]), 3,
     "invariant violation: ValidationError: Lie algebras carry no unit"),
    (_CHECK, [1], 2, "parse error: polynomial description needs 'n' and 'terms'"),
    (_CHECK, {"n": 0, "terms": []}, 2, "parse error: n: expected a positive integer, got 0"),
    (_CHECK, {"n": 1, "terms": [5]}, 2, "parse error: terms[0]: expected an object"),
    (_CHECK, {"n": 1, "terms": [{"coef": "1", "labels": [0]}]}, 2,
     "parse error: terms[0]: missing 'perm'"),
    (_CHECK, {"n": 2, "terms": [{"coef": "1", "perm": [1, 2], "labels": [0]}]}, 2,
     "parse error: terms[0].labels: expected 2 degree labels"),
], ids=["non-object", "kind", "degrees", "structure", "structure-entry", "unit",
        "group-no-type", "group-unknown", "group-cyclic-0", "group-empty-table",
        "group-ragged-table", "group-non-associative-table", "group-free-rank-0",
        "group-no-factors", "directory", "lie-unit", "poly-non-object", "poly-n",
        "poly-term", "poly-perm", "poly-labels"])
def test_malformed_input_exit_codes_and_messages(argv, content, code, line, tmp_path, capsys):
    # the whole stderr is one line, and nothing reaches stdout; content None
    # points the file argument at a directory
    path = tmp_path / "dir" if content is None else tmp_path / "file.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(content))
    assert main([a.replace("{path}", str(path)) for a in argv]) == code
    assert capsys.readouterr() == ("", line.replace("{path}", str(path)) + "\n")


def test_cli_codim_golden(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["codim", "--builtin", "m2_z2", "--n-max", "2",
                 "--json-out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "2" in printed and "7" in printed
    rep = json.loads(out.read_text())
    assert rep["results"]["gr"]["values"] == [2, 7]


def test_cli_radical_report_basis_is_the_dense_rref(tmp_path, capsys):
    # the JSON basis is rendered from the sparse rows: it must read as the
    # dense RREF basis, entry by entry, "0" included; the rescaled gl2_z2
    # has a radical row with a non-integral entry
    scales = (F(2, 3), F(-5, 2), F(7, 4), F(-3, 5))
    algebras = [builtin(name) for name in ("ut2", "free_trunc_2_3", "heis3", "m2_z2")]
    algebras += [rescaled(builtin("gl2_z2"), scales, shear) for shear in (0, F(1, 2))]
    rendered = []
    for A in algebras:
        path, out = tmp_path / "alg.json", tmp_path / "report.json"
        path.write_text(json.dumps(algebra_to_description(A)))
        assert main(["radical", "--input", str(path), "--json-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert main(["radical", "--input", str(path)]) == 0
        assert capsys.readouterr().out == printed
        reports = graded_radical_report(A)
        got = [r["basis"] for r in json.loads(out.read_text())["results"]]
        assert got == [[[render_rational(c) for c in row] for row in r.radical.basis_vectors()]
                       for r in reports]
        rendered += [x for basis in got for row in basis for x in row]
    assert {"0", "1", "-10/9", "-5/18"} <= set(rendered)


def test_cli_codim_both_modes(tmp_path):
    out = tmp_path / "r.json"
    code = main(["codim", "--builtin", "fz2", "--n-max", "3", "--mode", "both",
                 "--json-out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["gr"]["values"] == rep["results"]["h"]["values"]


# sha256 of stdout and of --json-out of `codim --mode both --predicted-d 2`,
# recorded while mode h still had its own block route; at n_max < 3 a predicted
# exponent is refused, and the hashes are those of the run without it, which
# printed and wrote no verdict either
@pytest.mark.parametrize("name, n_max, stdout_sha, json_sha", [
    ("m2_z2", 4, "de17c8a175492b0201d726df444b749b28c6ecfd0cb24185fb26ee5f663f1367",
     "43736d2df47912e837d50fff10ab98bde44894b25350e60448e8aa4808e2eafd"),
    ("ut2", 4, "fe3174eb9c9d16008e2b331b1ec473fe6a28a8db1f93a15f1faecdd6bfba21ce",
     "bec7700dd14de4df358d604a3ddd849f058f69fcd4f5bfeed5a7a8990425bd42"),
    ("fz2", 4, "fa757456d69d40dbb5fb8fc4607a491f11706b86c009687f63354f7627f43ab1",
     "bea23907aa5fb4f23bdc007745945e4bb2f8d291a25178b867d1476b2c52e6fb"),
    ("free_trunc_2_3", 4, "f855fec9f1b2a6e3e344deb31fb46174ab430b9edd81fe8ee9199529caec96df",
     "868a717fef003e74f0af8c6bfede0ceb4e06005922d2edfd5df38e6cdd9661d8"),
    ("free_trunc_2_5", 2, "8f8109e20923f81605efa1f319f67585e979cbc27d9f5ab06bf31b8378bea4d1",
     "96b323e123274ae31d52ce9fc175d702edcafb3815961e9e5f3fd9ada7fa5b69"),
])
def test_cli_codim_both_modes_golden(name, n_max, stdout_sha, json_sha, capsys, tmp_path):
    out = tmp_path / "r.json"
    predicted = ["--predicted-d", "2"] if n_max >= 3 else []
    assert main(["codim", "--builtin", name, "--n-max", str(n_max), "--mode", "both",
                 *predicted, "--json-out", str(out)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha


def test_cli_codim_both_modes_nilpotent_golden(capsys, tmp_path):
    # sha256 of stdout and --json-out recorded while codimension_report still
    # took a mode; n = 3..6 are settled by the nilpotency index, and their
    # per_n rows keep "nonzero_blocks": 0 in mode h as well
    A = builtin("free_trunc_2_3")
    J = algebra_on_subspace(A, jacobson_radical(A), name="J(free_trunc_2_3)").algebra
    desc, out = tmp_path / "nil.json", tmp_path / "r.json"
    desc.write_text(json.dumps(algebra_to_description(J)))
    assert main(["codim", "--input", str(desc), "--mode", "both", "--n-max", "6",
                 "--json-out", str(out)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "291240800728b4689eca473810b0c78d18f08d3e4f5e1b28ebcdf7c221742d94"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "8bbba4c28a806d56761dc4cf88290b6d9d98e1e20e2123af1bfd453a43a84c7d"


def test_cli_codim_both_modes_computes_each_block_once(monkeypatch):
    calls = []
    codim_block = gradedalg.identities.codim_block

    def counting(A, labels, *rest):
        calls.append(labels)
        return codim_block(A, labels, *rest)

    monkeypatch.setattr(gradedalg.identities, "codim_block", counting)
    counts = {}
    for mode in ("gr", "both"):
        calls.clear()
        assert main(["codim", "--builtin", "m2_z2", "--n-max", "4", "--mode", mode]) == 0
        counts[mode] = len(calls)
    assert counts["gr"] > 0 and counts["both"] == counts["gr"]


def test_cli_verify_free_trunc(capsys, tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "--builtin", "free_trunc_2_3", "--json-out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["passed"] is True
    (entry,) = rep["results"]["reports"]
    assert entry["dim"] == 6 and entry["graded"] is True and entry["nilpotency_index"] == 3


def test_cli_radical_sl2(capsys):
    code = main(["radical", "--builtin", "sl2"])
    assert code == 0
    outp = capsys.readouterr().out
    assert "solvable: dim 0" in outp
    assert "nilpotent: dim 0" in outp


def test_cli_decompose(capsys):
    assert main(["decompose", "--builtin", "m2_z2"]) == 0
    outp = capsys.readouterr().out
    assert "dims [4]" in outp
    assert main(["decompose", "--builtin", "ut2"]) == 0
    outp = capsys.readouterr().out
    assert "complement dim 2" in outp
    assert main(["decompose", "--builtin", "gl2_z2"]) == 0
    outp = capsys.readouterr().out
    assert "Levi subalgebra dim 3" in outp


def test_cli_decompose_refuses_a_split_that_needs_factoring(tmp_path, capsys):
    # trivially graded Q[Z5] = Q + Q(z5): the degree-4 field is not certified
    from gradedalg.builders import group_algebra
    from gradedalg.groups import CyclicGroup
    from tests.corpus import trivially_graded
    path = tmp_path / "qz5.json"
    path.write_text(json.dumps(algebra_to_description(
        trivially_graded(group_algebra(CyclicGroup(5))))))
    assert main(["decompose", "--input", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""        # not even the "semisimple: dim 5" line
    assert "graded-simple split needs factoring over Q" in err
    assert err.startswith("invariant violation: ValidationError: ") and "Traceback" not in err


_BENT_UT2 = {"kind": "associative", "dim": 3, "group": {"type": "cyclic", "n": 2},
             "degrees": [0, 1, 0], "unit": ["1", "0", "1"], "name": "ut2_bent",
             "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 1, "1/2"], [2, 2, 2, "1"]]}
_NOT_LIE = {"kind": "lie", "dim": 4, "group": {"type": "trivial"}, "degrees": [0, 0, 0, 0],
            "name": "not_lie",
            "structure": [[1, 2, 1, "1"], [2, 1, 1, "-1"], [2, 3, 2, "1"], [3, 2, 2, "-1"],
                          [1, 3, 3, "1/3"], [3, 1, 3, "-1/3"]]}


@pytest.mark.parametrize("desc, message", [
    # e12 e22 = e12/2: (e12 e22) e22 = e12/4 but e12 (e22 e22) = e12/2; every
    # triple before (1,2,2) holds
    (_BENT_UT2, "associativity fails on basis triple (1,2,2)"),
    # antisymmetric, e0 central; the cyclic sum on (1,2,3) is -e1 + e2/3 + e3/3
    (_NOT_LIE, "Jacobi identity fails on (1,2,3)"),
], ids=["associativity", "jacobi"])
@pytest.mark.parametrize("command", ["radical", "verify", "decompose"])
def test_cli_structure_check_failure_exits_3(desc, message, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    assert main([command, "--input", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invariant violation: ValidationError: {message}\n"


@pytest.mark.parametrize("name, radical", [("ut2", "jacobson_radical"),
                                            ("gl2_z2", "solvable_radical")])
def test_cli_decompose_computes_the_radical_once(name, radical, monkeypatch):
    # decompose computes its radical once, unverified, and certifies it by
    # the decomposition, each fact once: no `_post_check`, one ideal test and
    # one gradedness test (`quotient_algebra`), one derived series
    # (nilpotent, resp. solvable), and one radical of the complement, which
    # is isomorphic to the quotient (semisimple)
    import gradedalg.algebra
    import gradedalg.radical
    import gradedalg.structure
    calls = []
    compute = getattr(gradedalg.radical, radical)

    def counting(A, verify=True):
        calls.append((A.name, verify))
        return compute(A, verify=verify)

    for module in (gradedalg.cli, gradedalg.radical, gradedalg.structure):
        monkeypatch.setattr(module, radical, counting)

    def no_post_check(*args):
        raise AssertionError("decompose reached _post_check")

    monkeypatch.setattr(gradedalg.radical, "_post_check", no_post_check)
    tested = {"is_ideal": [], "graded_check": [], "derived_series": []}

    def spy(owner, fname, arg):         # record the subspace, argument `arg`
        f = getattr(owner, fname)
        monkeypatch.setattr(owner, fname,
                            lambda *args: tested[fname].append(args[arg]) or f(*args))

    spy(gradedalg.algebra.GradedAlgebra, "is_ideal", 1)
    spy(gradedalg.algebra, "graded_check", 0)
    spy(gradedalg.structure, "graded_check", 0)
    spy(gradedalg.structure, "derived_series", 1)
    assert main(["decompose", "--builtin", name]) == 0
    complement = "complement" if radical == "jacobson_radical" else "levi"
    assert calls == [(name, False), (complement, False)]
    I = compute(builtin(name), verify=False)
    assert {k: v.count(I) for k, v in tested.items()} == \
        {"is_ideal": 1, "graded_check": 1, "derived_series": 1}


@pytest.mark.parametrize("name", ["ut2", "free_trunc_2_5", "gl2_z2"])
def test_cli_decompose_tests_its_complement_for_gradedness_once(name, monkeypatch):
    # `graded_complement` certifies B graded; the algebra on B is built
    # without testing it again
    import gradedalg.algebra
    import gradedalg.structure
    from gradedalg.radical import solvable_radical
    from gradedalg.structure import graded_complement
    A = builtin(name)
    radical = jacobson_radical if A.kind == "associative" else solvable_radical
    B = graded_complement(A, radical(A, verify=False))
    tested = []
    for module in (gradedalg.algebra, gradedalg.structure):
        check = module.graded_check
        monkeypatch.setattr(module, "graded_check",
                            lambda w, A, check=check: tested.append(w) or check(w, A))
    assert main(["decompose", "--builtin", name]) == 0
    assert tested.count(B) == 1


@pytest.mark.parametrize("name, kernel", [("aff1", 1), ("sl2", 0), ("sl2+sl2", 0)])
def test_cli_decompose_certifies_a_zero_solvable_radical(name, kernel, monkeypatch,
                                                        tmp_path, capsys):
    # an R = 0 handed to decompose is certified by Cartan's criterion: the
    # Killing form of aff1 has a kernel, those of sl2 and sl2+sl2 have none
    from gradedalg.builders import direct_sum
    from gradedalg.exactlin import Subspace, null_space
    from gradedalg.radical import killing_form
    A = direct_sum(sl2(), sl2(), name=name) if name == "sl2+sl2" else builtin(name)
    assert null_space(A.dim, killing_form(A)).dim == kernel
    path = tmp_path / "a.json"
    path.write_text(json.dumps(algebra_to_description(A)))
    monkeypatch.setattr(gradedalg.cli, "solvable_radical",
                        lambda L, verify=True: Subspace.zero(L.dim))
    code = main(["decompose", "--input", str(path)])
    if kernel:
        assert (code, *capsys.readouterr()) == (
            3, "", "internal check failed: quotient by the solvable radical is not semisimple\n")
    else:
        assert (code, *capsys.readouterr()) == (
            0, f"solvable radical dim 0; graded Levi subalgebra dim {A.dim}\n", "")


# ut3 basis: e11, e12, e13, e22, e23, e33; free_trunc_2_3: 1, a, b, aa, ab,
# ba, bb; sl2: e, h, f; heis3: x, y, z with deg x != deg y; aff1: [x, y] = x
_E = unit_vector
WRONG_RADICALS = [
    (lambda: upper_triangular(3), [_E(6, i) for i in range(6)],
     "internal check failed: ideal is not solvable: I_k . I_k = I_k != 0"),
    (lambda: upper_triangular(3), [_E(6, 1)],
     "invariant violation: NotAnIdealError: subspace is not a two-sided ideal"),
    (lambda: free_group_truncation(2, 3), [(0, 1, 1, 0, 0, 0, 0)] + [_E(7, i) for i in range(3, 7)],
     "invariant violation: NotGradedError: ideal is not graded: a basis row mixes degrees; "
     "witness " + str(_E(7, 1))),
    # too small: ut3 / (e12, e13) keeps the radical (e23), which the complement
    # (Wedderburn-Artin's guard) shows; over ut3 / (e13) no complement lifts
    (lambda: upper_triangular(3), [_E(6, 1), _E(6, 2)],
     "invariant violation: NotSemisimpleError: algebra has a nonzero radical"),
    (lambda: upper_triangular(3), [_E(6, 2)],
     "internal check failed: quotient by the ideal is not semisimple: "
     "the section lifting system is infeasible"),
    (sl2, [_E(3, i) for i in range(3)],
     "internal check failed: ideal is not solvable: I_k . I_k = I_k != 0"),
    (sl2, [_E(3, 1)], "invariant violation: NotAnIdealError: subspace is not a two-sided ideal"),
    (heisenberg3, [(1, 1, 0), (0, 0, 1)],
     "invariant violation: NotGradedError: ideal is not graded: a basis row mixes degrees; "
     "witness " + str(_E(3, 0))),
    (two_dim_nonabelian_lie, [(1, 0)],
     "internal check failed: quotient by the solvable radical is not semisimple"),
]


@pytest.mark.parametrize("build, rows, message", WRONG_RADICALS, ids=[
    "J-not-nilpotent", "J-not-ideal", "J-not-graded", "J-too-small", "J-too-small-no-lift",
    "R-not-solvable", "R-not-ideal", "R-not-graded", "R-too-small"])
def test_cli_decompose_refuses_a_wrong_radical(build, rows, message, monkeypatch,
                                               tmp_path, capsys):
    # the first `null_space` of the radical module hands decompose a wrong
    # candidate; the decomposition refuses it before anything is printed
    A = build()
    path, report = tmp_path / "a.json", tmp_path / "r.json"
    path.write_text(json.dumps(algebra_to_description(A)))
    _first_kernel_returns(monkeypatch, rows, A.dim)
    assert main(["decompose", "--input", str(path), "--json-out", str(report)]) == 3
    assert capsys.readouterr() == ("", message + "\n")
    assert not report.exists()


def test_cli_builtin_emits_parseable_json(capsys):
    assert main(["builtin", "m2_z2"]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert description_to_algebra(desc).dim == 4


def _cli_process(argv: list, stdout) -> subprocess.Popen:
    """`python -m gradedalg` with stdout block-buffered, as it is by default
    on a pipe."""
    src = str(Path(gradedalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "gradedalg", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_python_m_gradedalg_runs_the_cli():
    with _cli_process(["builtin", "fz2"], subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert description_to_algebra(json.loads(out)).dim == 2


_CLOSED_STDOUT = "error: stdout was closed before the output was written\n"


def test_cli_stdout_closed_after_one_line_exits_1_without_a_traceback():
    # as `| head -1` does: the reader keeps one line of a report larger than
    # a pipe's buffer and closes the pipe, so a write inside `print` fails
    proc = _cli_process(["builtin", "free_trunc_2_9"], subprocess.PIPE)
    with proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert err == _CLOSED_STDOUT


@pytest.mark.parametrize("argv", [["builtin", "m2_z2"], ["radical", "--builtin", "ut2"]])
def test_cli_stdout_closed_before_the_first_write_exits_1_without_a_traceback(argv):
    # a short report waits in the buffer and fails at the flush; the flush
    # at exit must then find nothing left to fail on
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(argv, write_end)
    finally:
        os.close(write_end)
    with proc:
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert err == _CLOSED_STDOUT


@pytest.mark.parametrize("argv", [["codim", "--builtin", "ut2"], ["radical", "--builtin", "ut2"],
                                  ["builtin", "fz2"]])
def test_cli_unwritable_json_out_exits_1(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert main([*argv, "--json-out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write --json-out {target}: No such file or directory\n"
    assert not target.exists()


def test_cli_check_identity(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "n": 2,
        "terms": [{"coef": "1", "perm": [1, 2], "labels": [0, 0]},
                  {"coef": "-1", "perm": [2, 1], "labels": [0, 0]}]}))
    assert main(["check-identity", "--builtin", "m2_z2", "--poly", str(poly)]) == 0
    assert "identity" in capsys.readouterr().out


def test_cli_check_identity_splits_mixed_labellings(tmp_path, capsys):
    # (s1 s2 - t1 t2) t3 u for x_i = s_i 1 under label 0 and t_i u under label 1
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "n": 3,
        "terms": [{"coef": "-1", "perm": [2, 1, 3], "labels": [1, 1, 1]},
                  {"coef": "1", "perm": [1, 3, 2], "labels": [0, 0, 1]}]}))
    assert main(["check-identity", "--builtin", "fz2", "--poly", str(poly)]) == 0
    assert capsys.readouterr().out == "not an identity\n"


def test_cli_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["codim", "--builtin", "ut2", "--n-max", "3", "--json-out", str(a)])
    main(["codim", "--builtin", "ut2", "--n-max", "3", "--json-out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    # usage
    assert main(["codim"]) == 1
    assert main(["no-such-command"]) == 1
    # parse: malformed json
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["radical", "--input", str(bad)]) == 2
    # parse: schema violation with position
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"kind": "associative", "dim": 1, "group": {"type": "trivial"},
                                "degrees": [0], "structure": [[0, 0, 5, "1"]]}))
    assert main(["radical", "--input", str(bad2)]) == 2
    # invariant violation: structure constant incompatible with the grading
    desc = algebra_to_description(builtin("fz2"))
    desc["structure"] = [[0, 0, 1, "1"]]
    desc.pop("unit")
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps(desc))
    assert main(["radical", "--input", str(bad3)]) == 3
    # unknown builtin name
    assert main(["radical", "--builtin", "nope"]) == 3
    # resource cap on n
    assert main(["codim", "--builtin", "fz2", "--n-max", "3", "--max-n", "2"]) == 4
    capsys.readouterr()
    # codimensions start at n = 1: a usage error
    for n_max in ("0", "-1"):
        for mode in ("gr", "h", "both"):
            assert main(["codim", "--builtin", "fz2", "--n-max", n_max, "--mode", mode]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage: gradedalg codim ")
            assert err.endswith("\nerror: codimensions start at n = 1\n")
    # codimensions of a Lie algebra are refused in every mode
    for mode in ("gr", "h", "both"):
        assert main(["codim", "--builtin", "sl2", "--mode", mode]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "codimensions are computed for associative algebras" in err
    # a predicted exponent below 1 is a usage error at every n_max, nilpotent or not
    from gradedalg.algebra import algebra_on_subspace
    from gradedalg.radical import jacobson_radical
    A = builtin("free_trunc_2_3")
    nil = tmp_path / "nil.json"
    nil.write_text(json.dumps(algebra_to_description(
        algebra_on_subspace(A, jacobson_radical(A)).algebra)))
    for src in (["--builtin", "ut2"], ["--input", str(nil)]):
        for n_max in ("1", "2", "3", "4"):
            for d in ("0", "-3"):
                assert main(["codim", *src, "--n-max", n_max, "--predicted-d", d]) == 1
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("usage: gradedalg codim ")
                assert err.endswith("\nerror: predicted exponent must be a positive integer\n")
    # a usage error is found before the input is read
    assert main(["codim", "--input", str(bad), "--n-max", "0"]) == 1
    capsys.readouterr()


PARSER_ARGV = [
    [], ["--help"], ["codim", "--help"], ["builtin", "-h"], ["bogus", "--builtin", "ut2"],
    ["radical"], ["verify", "--builtin", "ut2", "--input", "x.json"],
    ["codim", "--builtin", "ut2", "--mode", "xx"], ["codim", "--builtin", "ut2", "extra"],
    ["check-identity", "--builtin", "ut2"], ["codim", "--builtin", "ut2", "--n-max", "2"],
]


@pytest.mark.parametrize("argv", PARSER_ARGV)
def test_cli_kept_parser_reads_as_a_fresh_tree(argv, monkeypatch, capsys):
    # the parser kept across calls, after other commands have parsed with it,
    # gives the usage, help, errors, output and exit code of a new tree
    for before in (["radical", "--builtin", "ut2"], ["codim", "--builtin", "fz2", "--mode", "h"],
                   ["verify", "--builtin", "ut2", "--n-max", "2"], ["builtin", "ut2"]):
        main(before)
    capsys.readouterr()
    got = (main(argv), *capsys.readouterr())
    fresh = gradedalg.cli.build_parser.__wrapped__()
    assert fresh is not gradedalg.cli.build_parser()
    monkeypatch.setattr(gradedalg.cli, "build_parser", lambda: fresh)
    assert got == (main(argv), *capsys.readouterr())


def test_cli_parser_is_built_once(capsys):
    # built at the first `main` call and kept for every later one
    build = gradedalg.cli.build_parser
    build.cache_clear()
    for argv in PARSER_ARGV:
        main(argv)
        assert (build.cache_info().misses, build.cache_info().currsize) == (1, 1)
    assert build.cache_info().hits == len(PARSER_ARGV) - 1
    capsys.readouterr()


def test_cli_parser_is_not_built_at_import():
    src = str(Path(gradedalg.__file__).resolve().parents[1])
    code = "import gradedalg.cli as c; print(c.build_parser.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr


@pytest.mark.parametrize("name, argv", [
    ("verify", ["verify", "--builtin", "ut2"]),
    ("check_identity", ["check-identity", "--builtin", "ut2", "--poly", "p.json"])])
def test_cli_runs_the_command_bound_when_it_runs(name, argv, monkeypatch, capsys):
    # a wrapper set on cmd_<name> after the parser is built sees the next call
    main(["verify", "--builtin", "ut2"])
    seen = []
    monkeypatch.setattr(gradedalg.cli, f"cmd_{name}", lambda args: seen.append(args) or 7)
    assert main(argv) == 7
    assert [(a.cmd, a.builtin) for a in seen] == [(argv[0], "ut2")]
    capsys.readouterr()


def test_cli_predicted_exponent_needs_three_values(capsys):
    # the verdict compares at least three codimensions, so a prediction that
    # could not be checked is refused as a usage error instead of silently
    # dropped
    for n_max in ("1", "2"):
        assert main(["codim", "--builtin", "ut2", "--n-max", n_max, "--predicted-d", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "\nerror: a predicted exponent needs n_max >= 3" in err
        assert "Traceback" not in err
    assert main(["codim", "--builtin", "ut2", "--n-max", "3", "--predicted-d", "2"]) == 0
    assert "verdict: consistent with exponent 2" in capsys.readouterr().out


def test_cli_max_blocks_flag():
    assert main(["codim", "--builtin", "fz2", "--n-max", "3", "--max-blocks", "4"]) == 4


@pytest.mark.parametrize("argv, code, message", [
    (["radical", "--builtin", "free_trunc_" + "9" * 5000 + "_2"], 3, "unknown builtin"),
    (["codim", "--builtin", "free_trunc_99999_99999", "--n-max", "1"], 4,
     "resource cap: free_trunc_99999_99999 has dimension above the cap of 1024"),
])
def test_cli_huge_free_truncation_names_exit_at_once(argv, code, message, capsys):
    # a name's digits are bounded, and its dimension is checked before
    # anything is built
    start = time.perf_counter()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 0.5
    assert out == "" and message in err and err.count("\n") == 1


def test_free_group_truncation_caps_the_dimension(monkeypatch):
    for rank, cutoff in ((2, 11), (1, 10 ** 20), (10 ** 19, 2)):
        with pytest.raises(ResourceCapError, match="above the cap of 1024"):
            free_group_truncation(rank, cutoff)
    # the cap is inclusive: dim 15 = 1 + 2 + 4 + 8 builds under a cap of 15
    monkeypatch.setattr(gradedalg.builders, "MAX_FREE_TRUNC_DIM", 15)
    assert free_group_truncation(2, 4).dim == 15
    with pytest.raises(ResourceCapError):
        free_group_truncation(2, 5)


def test_digest_stability():
    d1 = digest(algebra_to_description(builtin("m2_z2")))
    d2 = digest(algebra_to_description(builtin("m2_z2")))
    assert d1 == d2 and len(d1) == 64
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
