"""End-to-end CLI behavior through run(): documents, exit codes, errors."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jamestree.cli import run


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def out_doc(capsys):
    captured = capsys.readouterr()
    assert captured.err == ""
    return json.loads(captured.out)


def err_doc(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err)


def assert_one_error_line(capsys):
    """Asserts one {"error": ...} line and nothing else; returns the message."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}
    return json.loads(lines[0])["error"]


NON_FINITE = ['{"": NaN, "0": 1}', '{"": Infinity}', '{"0": -Infinity}', '{"": 1e400}']
OVERFLOW = '{"": 1e308, "0": 1e308}'


# ---------------------------------------------------------------------------
# norm and witness


def test_norm_document(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"": 1, "0": 1}')
    assert run(["norm", vector]) == 0
    doc = out_doc(capsys)
    assert doc == {
        "value_squared": "4",
        "value": 2.0,
        "method": "dp",
        "backend": "exact",
    }


def test_norm_witness_flag_matches_subcommand(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"": 1, "0": "-5/2", "01": 3}')
    assert run(["norm", vector, "--witness"]) == 0
    flagged = out_doc(capsys)
    assert run(["witness", vector]) == 0
    subcommand = out_doc(capsys)
    assert flagged == subcommand
    assert flagged["value_squared"] == "65/4"
    assert flagged["witness"] == ["..", "0..0", "01..01"]


def test_norm_methods_agree(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"": 1, "0": "-5/2", "01": 3}')
    assert run(["norm", vector, "--method", "oracle", "--witness"]) == 0
    oracle = out_doc(capsys)
    assert run(["norm", vector, "--method", "dp", "--witness"]) == 0
    dp = out_doc(capsys)
    assert oracle["value_squared"] == dp["value_squared"]
    assert oracle["witness"] == dp["witness"]
    assert oracle["method"] == "oracle"


def test_norm_float_backend(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"": 0.5, "0": 0.5}')
    assert run(["norm", vector, "--backend", "float"]) == 0
    doc = out_doc(capsys)
    assert doc["value_squared"] == pytest.approx(1.0)
    assert isinstance(doc["value_squared"], float)
    assert doc["value"] == pytest.approx(1.0)
    assert doc["backend"] == "float"


def test_norm_rejects_rational_string_on_float_backend(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"0": "1/2"}')
    assert run(["norm", vector, "--backend", "float"]) == 2
    assert "error" in err_doc(capsys)


def test_norm_missing_file(tmp_path, capsys):
    assert run(["norm", str(tmp_path / "absent.json")]) == 2
    assert "error" in err_doc(capsys)


def test_norm_malformed_json(tmp_path, capsys):
    vector = write(tmp_path, "x.json", "{not json")
    assert run(["norm", vector]) == 2
    assert "error" in err_doc(capsys)


def test_norm_oracle_refuses_large_instance(tmp_path, capsys):
    entries = {"0" * k: 1 for k in range(8)}
    vector = write(tmp_path, "x.json", json.dumps(entries))
    assert run(["norm", vector, "--method", "oracle"]) == 2
    assert "candidate" in err_doc(capsys)["error"]
    assert run(["norm", vector, "--method", "oracle", "--max-candidates", "64"]) == 0
    assert out_doc(capsys)["value_squared"] == "64"


@pytest.mark.parametrize("text", NON_FINITE)
def test_norm_rejects_non_finite_float_input(tmp_path, capsys, text):
    vector = write(tmp_path, "x.json", text)
    assert run(["norm", vector, "--backend", "float"]) == 2
    assert_one_error_line(capsys)


def test_norm_overflow_exits_2(tmp_path, capsys):
    # finite entries whose squared norm overflows binary64
    vector = write(tmp_path, "x.json", OVERFLOW)
    assert run(["witness", vector, "--backend", "float"]) == 2
    assert_one_error_line(capsys)


def test_norm_exact_square_beyond_binary64(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"": 1e200}')
    assert run(["norm", vector]) == 0
    doc = out_doc(capsys)
    assert doc["value"] == 1e200
    assert doc["value_squared"] == str(10**400)


def test_norm_exact_root_beyond_binary64_exits_2(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"": 1e400}')
    assert run(["norm", vector]) == 2
    assert "binary64" in assert_one_error_line(capsys)


def test_norm_exact_root_below_binary64_square(tmp_path, capsys):
    # value_squared 1e-400 underflows binary64, its root 1e-200 does not
    vector = write(tmp_path, "x.json", '{"": 1e-200}')
    assert run(["norm", vector]) == 0
    doc = out_doc(capsys)
    assert doc["value"] == 1e-200
    assert doc["value_squared"] == f"1/{10**400}"


@pytest.mark.parametrize(
    "literal",
    [
        "1e800000",
        "1e-800000",
        "1e2200",
        "1e-2200",
        "12345e2148",
        "-12345e-2148",
        pytest.param("7" * 3000, id="3000-digit-int"),
        pytest.param("0." + "3" * 3000, id="3000-digit-fraction"),
        pytest.param("1" * 2000 + "e151", id="2000-digits-e151"),
    ],
)
def test_norm_rejects_huge_decimal_exponent(tmp_path, capsys, literal):
    # refused while parsing: the squared norm would exceed the digit limit
    vector = write(tmp_path, "x.json", f'{{"": {literal}}}')
    assert run(["norm", vector]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert literal in json.loads(captured.err)["error"]


def test_norm_renders_an_exponent_below_the_bound(tmp_path, capsys):
    # 1e-2100 squares to 4,201 digits, within the 4,300-digit limit
    vector = write(tmp_path, "x.json", '{"": 1e-2100}')
    assert run(["norm", vector]) == 0
    assert out_doc(capsys)["value_squared"] == f"1/{10**4200}"
    # 1e2100 parses and its square renders; only its root exceeds binary64
    vector = write(tmp_path, "x.json", '{"": 1e2100}')
    assert run(["norm", vector]) == 2
    assert "binary64" in assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "value, named",
    [
        pytest.param("1e30000000", "1e30000000", id="exponent"),
        pytest.param("7" * 3000 + "/3", "7" * 3000, id="3000-digit-numerator"),
        pytest.param("3/" + "7" * 3000, "7" * 3000, id="3000-digit-denominator"),
    ],
)
def test_norm_bounds_string_values_like_literals(tmp_path, capsys, value, named):
    # refused while parsing, before 10^30000000 is built or a square rendered
    vector = write(tmp_path, "x.json", json.dumps({"": value}))
    assert run(["norm", vector]) == 2
    error = assert_one_error_line(capsys)
    assert named in error and "digit limit" in error


@pytest.mark.parametrize(
    "text", ['{"": "1e30000000"}', '{"": 1e30000000}'], ids=["string", "number"]
)
def test_literals_are_bounded_without_a_digit_limit(tmp_path, text):
    # with the int-to-text limit off, the default limit bounds a literal
    vector = write(tmp_path, "x.json", text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "jamestree.cli", "norm", vector],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "1e30000000" in json.loads(proc.stderr)["error"]


def test_norm_float_backend_bounds_int_literals(tmp_path, capsys):
    literal = "1" + "0" * 4999
    vector = write(tmp_path, "x.json", f'{{"": {literal}}}')
    assert run(["norm", vector, "--backend", "float"]) == 2
    assert literal in assert_one_error_line(capsys)
    # within the bound, the value itself is refused as beyond binary64
    vector = write(tmp_path, "x.json", f'{{"": 1{"0" * 400}}}')
    assert run(["norm", vector, "--backend", "float"]) == 2
    assert "binary64" in assert_one_error_line(capsys)


def test_norm_names_a_value_squared_too_long_to_print(tmp_path, capsys):
    # 40 short literals; the lcm of their denominators passes the digit limit
    doc = {bin(i + 1)[3:]: f"1/{10**120 + 2 * i + 1}" for i in range(40)}
    vector = write(tmp_path, "x.json", json.dumps(doc))
    assert run(["norm", vector]) == 2
    error = assert_one_error_line(capsys)
    assert "value_squared" in error and str(sys.get_int_max_str_digits()) in error


def test_norm_value_is_the_correctly_rounded_root(tmp_path, capsys):
    # sqrt(2/49) = 0.2020305089104421498...; the root of the rounded 2/49
    # is the farther neighbour 0.20203050891044214
    vector = write(tmp_path, "x.json", '{"0": "1/7", "1": "1/7"}')
    assert run(["norm", vector]) == 0
    doc = out_doc(capsys)
    assert doc["value_squared"] == "2/49"
    assert doc["value"] == 0.20203050891044216


def test_norm_rejects_duplicate_keys(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"0": 1, "1": 3, "0": 2}')
    assert run(["norm", vector]) == 2
    assert "'0'" in assert_one_error_line(capsys)


# ---------------------------------------------------------------------------
# eval


def test_eval_document(tmp_path, capsys):
    functional = write(
        tmp_path, "k.json", '{"terms": [{"alpha": 1, "interval": "..0"}]}'
    )
    vector = write(tmp_path, "x.json", '{"": 1, "0": 1}')
    assert run(["eval", functional, vector]) == 0
    doc = out_doc(capsys)
    assert doc == {"value": "2", "value_decimal": 2.0}


def test_eval_scaled_value_is_decimal(tmp_path, capsys):
    functional = write(
        tmp_path,
        "k.json",
        '{"terms": [{"alpha": 1, "interval": "0..0"},'
        ' {"alpha": 1, "interval": "1..1"}], "scale_squared": 2}',
    )
    vector = write(tmp_path, "x.json", '{"0": 1, "1": 1}')
    assert run(["eval", functional, vector]) == 0
    doc = out_doc(capsys)
    assert doc["value"] == pytest.approx(math.sqrt(2.0))
    assert isinstance(doc["value"], float)


@pytest.mark.parametrize(
    "scale, expected", [(4, 0.5000000000000001), (3, 0.5773502691896258)]
)
def test_eval_float_rounds_once(tmp_path, capsys, scale, expected):
    # summed in binary64 term by term, these print 0.5 and 0.5773502691896257
    terms = [{"alpha": 1, "interval": iv} for iv in ("..", "0..0", "1..1")]
    functional = write(
        tmp_path, "k.json", json.dumps({"terms": terms, "scale_squared": scale})
    )
    vector = write(tmp_path, "x.json", '{"": 1.0, "0": 1e-16, "1": 1e-16}')
    assert run(["eval", functional, vector, "--backend", "float"]) == 0
    assert out_doc(capsys) == {"value": expected, "value_decimal": expected}


def test_eval_rejects_invalid_functional(tmp_path, capsys):
    functional = write(
        tmp_path,
        "k.json",
        '{"terms": [{"alpha": 1, "interval": "0..0"},'
        ' {"alpha": 1, "interval": "1..1"}]}',
    )
    vector = write(tmp_path, "x.json", '{"0": 1}')
    assert run(["eval", functional, vector]) == 2
    assert "l2" in err_doc(capsys)["error"]


@pytest.mark.parametrize("text", NON_FINITE)
def test_eval_rejects_non_finite_float_input(tmp_path, capsys, text):
    functional = write(tmp_path, "k.json", '{"terms": [{"alpha": 1, "interval": "..0"}]}')
    vector = write(tmp_path, "x.json", text)
    assert run(["eval", functional, vector, "--backend", "float"]) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "text",
    [
        '{"terms": [{"alpha": NaN, "interval": "..0"}]}',
        '{"terms": [{"alpha": 1, "interval": "..0"}], "scale_squared": Infinity}',
    ],
)
def test_eval_rejects_non_finite_functional(tmp_path, capsys, text):
    functional = write(tmp_path, "k.json", text)
    vector = write(tmp_path, "x.json", '{"": 1}')
    assert run(["eval", functional, vector, "--backend", "float"]) == 2
    assert_one_error_line(capsys)


def test_eval_overflow_exits_2(tmp_path, capsys):
    functional = write(tmp_path, "k.json", '{"terms": [{"alpha": 1, "interval": "..0"}]}')
    vector = write(tmp_path, "x.json", OVERFLOW)
    assert run(["eval", functional, vector, "--backend", "float"]) == 2
    assert_one_error_line(capsys)


def test_eval_exact_beyond_binary64_exits_2(tmp_path, capsys):
    functional = write(tmp_path, "k.json", '{"terms": [{"alpha": 1, "interval": ".."}]}')
    vector = write(tmp_path, "x.json", '{"": 1e400}')
    assert run(["eval", functional, vector]) == 2
    assert "binary64" in assert_one_error_line(capsys)


def test_eval_scaled_beyond_binary64_exits_2(tmp_path, capsys):
    functional = write(
        tmp_path, "k.json", '{"terms": [{"alpha": 1, "interval": ".."}], "scale_squared": 2}'
    )
    vector = write(tmp_path, "x.json", '{"": 1e400}')
    assert run(["eval", functional, vector]) == 2
    assert "binary64" in assert_one_error_line(capsys)


def test_eval_rejects_duplicate_keys_in_the_functional(tmp_path, capsys):
    functional = write(
        tmp_path, "k.json", '{"terms": [{"alpha": 1, "interval": "..", "alpha": 2}]}'
    )
    vector = write(tmp_path, "x.json", '{"": 1}')
    assert run(["eval", functional, vector, "--backend", "float"]) == 2
    assert "'alpha'" in assert_one_error_line(capsys)


def test_eval_does_not_need_the_norm(tmp_path, capsys):
    # the squared norm overflows, but the evaluation itself is finite
    functional = write(tmp_path, "k.json", '{"terms": [{"alpha": 1, "interval": "..0"}]}')
    vector = write(tmp_path, "x.json", '{"": 1e308, "0": -1e308, "00": 1e308}')
    assert run(["eval", functional, vector, "--backend", "float"]) == 0
    assert out_doc(capsys) == {"value": 0.0, "value_decimal": 0.0}


# ---------------------------------------------------------------------------
# enumerate, check, experiment


def test_enumerate_first_nodes(capsys):
    assert run(["enumerate", "--n", "4"]) == 0
    assert out_doc(capsys) == ["", "0", "1", "00"]


def test_enumerate_zero(capsys):
    assert run(["enumerate", "--n", "0"]) == 0
    assert out_doc(capsys) == []


def test_check_passes_and_is_deterministic(capsys):
    assert run(["check", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["verdict"] == "pass"
    assert len(doc["checks"]) == 5
    assert all(c["verdict"] == "pass" for c in doc["checks"])
    assert run(["check", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_experiment_stdout_report(capsys):
    assert run(["experiment", "--name", "oracle-vs-dp", "--seed", "2", "--trials", "5"]) == 0
    doc = out_doc(capsys)
    assert doc["name"] == "oracle-vs-dp"
    assert doc["verdict"] == "pass"
    assert len(doc["records"]) == 5


def test_experiment_report_file(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = run(
        ["experiment", "--name", "lemma-estimates", "--seed", "1", "--trials", "6", "--out", out]
    )
    assert code == 0
    summary = out_doc(capsys)
    assert summary == {"name": "lemma-estimates", "out": out, "verdict": "pass"}
    with open(out, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["verdict"] == "pass"
    assert len(report["records"]) == 6


def test_experiment_unknown_name(capsys):
    with pytest.raises(SystemExit) as info:
        run(["experiment", "--name", "no-such-thing"])
    assert info.value.code == 2
    assert "error" in err_doc(capsys)


# ---------------------------------------------------------------------------
# argument errors


def test_unknown_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run(["norm", "x.json", "--frobnicate"])
    assert info.value.code == 2
    assert "error" in err_doc(capsys)


def test_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2
    assert "error" in err_doc(capsys)


def test_bad_method_choice(tmp_path, capsys):
    vector = write(tmp_path, "x.json", '{"": 1}')
    with pytest.raises(SystemExit) as info:
        run(["norm", vector, "--method", "magic"])
    assert info.value.code == 2
    assert "error" in err_doc(capsys)
