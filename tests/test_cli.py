import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from recurquot.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(*argv):
    out = io.StringIO()
    code = main([str(a) for a in argv], out=out)
    return code, out.getvalue()


def check_golden(name, *argv):
    code, text = run(*argv)
    assert text == (GOLDEN / name).read_text()
    return code


@pytest.mark.parametrize("name, argv, code", [
    ("eval_mersenne.json",
     ["eval", DATA / "mersenne2.json", "--from", 0, "--to", 5, "--json"], 0),
    ("eval_mersenne.txt",
     ["eval", DATA / "mersenne2.json", "--from", 0, "--to", 5], 0),
    ("quotient_hadamard.json",
     ["quotient", DATA / "mersenne4.json", DATA / "mersenne2.json", "--json"], 0),
    ("quotient_clearance.json",
     ["quotient", DATA / "power5.json", DATA / "poly_nn.json",
      "--mode", "clearance", "--json"], 0),
    ("quotient_clearance.txt",
     ["quotient", DATA / "power5.json", DATA / "poly_nn.json",
      "--mode", "clearance"], 0),
    ("quotient_cross.json",
     ["quotient", DATA / "power3m.json", DATA / "linear2.json",
      "--mode", "cross", "--json"], 0),
    ("quotient_refusal.json",
     ["quotient", DATA / "power3m.json", DATA / "mersenne2.json",
      "--mode", "clearance", "--json"], 1),
    ("quotient_decimated.json",
     ["quotient", DATA / "torsion.json", DATA / "mersenne2.json",
      "--decimate", "--json"], 1),
    ("zeros_torsion.json",
     ["zeros", DATA / "torsion.json", "--bound", 40, "--json"], 0),
    ("search_fixed.json",
     ["search", DATA / "mersenne3m.json", DATA / "mersenne2.json",
      "--m-max", 8, "--n-max", 4, "--d-policy", "fixed:1", "--json"], 0),
    ("obstruct_certified.json",
     ["obstruct", DATA / "power3m.json", DATA / "mersenne2.json",
      "--progression", "3,0", "--prime", 7, "--json"], 0),
    ("basis.json",
     ["basis", DATA / "mersenne4.json", DATA / "mersenne2.json", "--json"], 0),
    ("heights_scalar.json", ["heights", "3/2", "--json"], 0),
    ("decay_check.json",
     ["decay-check", DATA / "mersenne2.json", "--place", 3,
      "--from", 100, "--to", 120, "--json"], 0),
    ("decimate_even.json",
     ["decimate", DATA / "torsion.json", "-q", 2, "-r", 0, "--json"], 0),
    ("quotient_refusal_rank3.json",
     ["quotient", DATA / "power3m.json", DATA / "refusal_rank3.json",
      "--mode", "clearance", "--json"], 1),
])
def test_golden_outputs(name, argv, code):
    assert check_golden(name, *argv) == code


def test_json_documents_are_valid_and_versioned():
    for name in GOLDEN.glob("*.json"):
        doc = json.loads(name.read_text())
        assert doc["version"] == "recurquot/1"
        assert "command" in doc


def test_eval_relation_spec():
    code, text = run("eval", DATA / "relation_mersenne.json", "--from", 0, "--to", 4)
    assert code == 0
    assert text.splitlines()[1:] == ["  0: 0", "  1: 1", "  2: 3", "  3: 7", "  4: 15"]


def test_eval_negative_indices():
    # 2^n - 1 at n = -2, -1 is -3/4, -1/2.
    code, text = run("eval", DATA / "mersenne2.json", "--from", -2, "--to", 1)
    assert code == 0
    assert text.splitlines()[1:] == ["  -2: -3/4", "  -1: -1/2", "  0: 0", "  1: 1"]
    code, text = run("eval", DATA / "mersenne2.json", "--from", -2, "--to", 1, "--json")
    assert code == 0
    assert [(v["n"], v["value"]) for v in json.loads(text)["values"]] == [
        (-2, "-3/4"), (-1, "-1/2"), (0, "0"), (1, "1")
    ]


def test_eval_zero_sequence():
    code, text = run("eval", DATA / "zero.json", "--from", 0, "--to", 2)
    assert code == 0
    assert "0" in text


def test_eval_rejects_bad_range():
    code, text = run("eval", DATA / "mersenne2.json", "--from", 5, "--to", 1)
    assert code == 2
    assert "error" in text


def test_quotient_not_a_recurrence_exit():
    code, text = run("quotient", DATA / "power3m.json", DATA / "mersenne2.json")
    assert code == 1
    assert "not-a-recurrence" in text


def test_quotient_torsion_without_decimate():
    code, text = run("quotient", DATA / "torsion.json", DATA / "mersenne2.json")
    assert code == 2
    assert "-1" in text


def test_quotient_cross_refusal():
    code, text = run(
        "quotient", DATA / "power3m.json", DATA / "mersenne2.json", "--mode", "cross"
    )
    assert code == 1
    # The refusal claims no finiteness, which would be false for other
    # pairs: (2^m - 1)/(2^n - 1) is an integer whenever n divides m.
    assert "finitely" not in text
    assert "no polynomial P(n) makes both" in text


def test_missing_file():
    code, text = run("eval", DATA / "does_not_exist.json")
    assert code == 2
    assert "cannot read" in text


def test_bad_json_and_bad_expression():
    code, text = run("eval", DATA / "bad_syntax.json")
    assert code == 2
    assert "invalid JSON" in text
    code, text = run("eval", DATA / "bad_expr.json")
    assert code == 2
    assert "error" in text


def test_search_s_primes_and_poly_policy():
    code, text = run(
        "search", DATA / "power5.json", DATA / "poly_nn.json",
        "--m-max", 3, "--n-max", 3, "--d-policy", "poly:2",
        "--s-primes", "5", "--json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["s_primes"] == [5]
    assert all(hit["d"] <= hit["n"] ** 2 for hit in doc["hits"])


@pytest.mark.parametrize("numerator, divisor, m_max, least", [
    ("mersenne3m.json", "mersenne2.json", 3000, 3000),
    # 3 divides every 4^n - 1 and no 5^m.
    ("power5.json", "mersenne4.json", 20, 0),
])
def test_search_json_is_json_dumps_byte_for_byte(numerator, divisor, m_max, least):
    argv = ["search", DATA / numerator, DATA / divisor, "--m-max", m_max, "--n-max", 30,
            "--d-policy", "fixed:1"]
    code, text = run(*argv, "--json")
    assert code == 0
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # The text report lists the same hits.
    _, listing = run(*argv)
    hits = [f"  m={h['m']} n={h['n']} d={h['d']}" for h in doc["hits"]]
    assert listing.splitlines()[1:] == hits
    assert len(hits) >= least and (least or not hits)


def test_search_bad_policy():
    code, text = run(
        "search", DATA / "power5.json", DATA / "poly_nn.json", "--d-policy", "weird"
    )
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["heights", "1/0"],
    ["heights", "abc"],
    ["search", DATA / "power5.json", DATA / "poly_nn.json", "--s-primes", "x"],
    ["search", DATA / "power5.json", DATA / "poly_nn.json", "--s-primes", "2,,3"],
    ["search", DATA / "power5.json", DATA / "poly_nn.json", "--s-primes", "4"],
], ids=["zero-denominator", "not-a-number", "prime-not-a-number", "empty-prime", "composite"])
def test_invalid_values_are_input_errors(argv):
    code, text = run(*argv)
    assert code == 2
    assert text.startswith("error: ")


def test_obstruct_not_certified():
    code, text = run(
        "obstruct", DATA / "power3m.json", DATA / "mersenne2.json",
        "--progression", "3,1", "--prime", 7,
    )
    assert code == 1
    assert "not-an-obstruction" in text


def test_obstruct_bad_progression():
    code, text = run(
        "obstruct", DATA / "power3m.json", DATA / "mersenne2.json",
        "--progression", "3;1", "--prime", 7,
    )
    assert code == 2


def test_factor_limit_flag():
    # heights factors its argument; the quotient solvers and basis factor nothing.
    big = str(2**61 - 1)
    code, text = run("--factor-limit", 1000, "heights", big)
    assert code == 3
    assert "resource limit" in text
    code, _ = run("heights", big)
    assert code == 0


def test_factor_limit_env(monkeypatch):
    big = str(2**61 - 1)
    monkeypatch.setenv("RECURQUOT_FACTOR_LIMIT", "1000")
    code, text = run("heights", big)
    assert code == 3
    # the explicit flag wins over the environment
    code, _ = run("--factor-limit", str(2**62), "heights", big)
    assert code == 0


M61 = 2**61 - 1
FACTORING_PATHS = {
    # spec -> root M61, factored when the relation is solved
    "relation": {"relation": {"coeffs": [str(M61)], "initial": ["1"]}},
    # the archimedean decay ratio is log M61 / n
    "inverse": {"closed_form": [{"root": "1", "coeff": f"1/{M61}"}]},
    # each section's coefficient has the rational root about M61 / 2
    "late_zero": {"closed_form": [{"root": "2", "coeff": f"X - {M61}"}]},
}


@pytest.mark.parametrize("argv", [
    ["eval", "relation"],
    ["decimate", "relation", "-q", 2, "-r", 0],
    ["decay-check", "inverse", "--place", "inf", "--from", 1, "--to", 5],
    ["zeros", "late_zero"],
    # the order of 2 mod M61 factors M61 - 1, whose largest prime is 1321
    ["obstruct", DATA / "power3m.json", DATA / "mersenne2.json",
     "--progression", "1,0", "--prime", M61],
], ids=["eval", "decimate", "decay-check", "zeros", "obstruct"])
def test_factor_limit_reaches_every_factoring_path(tmp_path, argv):
    for name, doc in FACTORING_PATHS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [tmp_path / a if a in FACTORING_PATHS else a for a in argv]
    code, text = run(*argv)
    assert code in (0, 1), text
    code, text = run("--factor-limit", 1000, *argv)
    assert code == 3, text
    assert text.startswith("resource limit")


@pytest.mark.parametrize("cap", [-5, 0, 1])
def test_factor_limit_below_two_is_an_input_error(monkeypatch, cap):
    # (2^31 - 1)(2^61 - 1) reaches the rho splitter, which a negative cap
    # used to crash with a ValueError from math.isqrt.
    n = (2**31 - 1) * M61
    code, text = run("--factor-limit", cap, "heights", n)
    assert code == 2
    assert text.startswith("error: the factoring cap")
    monkeypatch.setenv("RECURQUOT_FACTOR_LIMIT", str(cap))
    code, text = run("heights", n)
    assert code == 2
    assert text.startswith("error: the factoring cap")


def test_bad_env_value(monkeypatch):
    monkeypatch.setenv("RECURQUOT_FACTOR_LIMIT", "soon")
    code, text = run("heights", "2")
    assert code == 2
    assert "RECURQUOT_FACTOR_LIMIT" in text


def test_heights_vector_mode():
    code, text = run("heights", "--vector", "2", "1")
    assert code == 0
    assert "log 2" in text


def test_decay_check_hypothesis_violation():
    small = DATA / "small_root.json"
    small.write_text(json.dumps({
        "closed_form": [{"root": "1/2", "coeff": "1"}]
    }))
    try:
        code, text = run(
            "decay-check", small, "--place", "inf", "--from", 1, "--to", 5
        )
        assert code == 2
    finally:
        small.unlink()


def test_entry_point_matches_module():
    # the console script and python -m dispatch through the same main
    import recurquot.__main__  # noqa: F401
    from recurquot import cli
    assert cli.main is main


def test_run_via_subprocess():
    import subprocess
    import sys
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, "-m", "recurquot", "heights", "3/2"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "log 3" in result.stdout


def test_closed_stdout_exits_5_without_a_traceback():
    import subprocess
    import sys
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # About 1 MB of JSON, more than a pipe holds, so the write meets the
    # closed pipe while the command is still printing.
    child = subprocess.Popen(
        [sys.executable, "-m", "recurquot", "search", str(DATA / "mersenne3m.json"),
         str(DATA / "mersenne2.json"), "--m-max", "20000", "--n-max", "1", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert child.stdout.read(10) == b'{\n  "comma'
    child.stdout.close()
    stderr = child.stderr.read().decode()
    assert child.wait(timeout=60) == 5
    assert stderr == ""


def test_internal_check_failure_exits_4(monkeypatch):
    from recurquot.recurrences import LinearRecurrence

    real_walk = LinearRecurrence.walk

    def wrong_walk(self, start, step=1, modulus=None):
        # Every residue reads 0, so the search's hit re-check must fail.
        for value in real_walk(self, start, step, modulus):
            yield value if modulus is None else 0

    monkeypatch.setattr(LinearRecurrence, "walk", wrong_walk)
    code, text = run(
        "search", DATA / "mersenne3m.json", DATA / "mersenne2.json",
        "--m-max", 8, "--n-max", 4, "--d-policy", "fixed:1",
    )
    assert code == 4
    assert text.startswith("internal check failed")
    assert "re-verification" in text
    assert "Traceback" not in text


def test_missing_torsion_witness_exits_4(monkeypatch):
    import recurquot.multiplicative as mult

    monkeypatch.setattr(mult, "_torsion_witness", lambda vectors: None)
    code, text = run("quotient", DATA / "torsion.json", DATA / "mersenne2.json")
    assert code == 4
    assert text.startswith("internal check failed")
    assert "no kernel witness" in text


# sha256 of the outputs recorded before the search handler built one format
# only; both formats must stay byte for byte what they were.
@pytest.mark.parametrize("argv, digest", [
    (["mersenne3m.json", "mersenne2.json", "--m-max", 300, "--n-max", 12,
      "--d-policy", "fixed:1"],
     "cdf07770bbe48d3e6d5a21a496ed1cb0d4bb4f513bf30a8c1059e4ccc5bf5ef4"),
    (["mersenne3m.json", "mersenne2.json", "--m-max", 300, "--n-max", 12,
      "--d-policy", "fixed:1", "--json"],
     "1cbc2f6f858cb401e586d2ab14c0c0ca7da9e7e148065f78cbdc4b9f43145a34"),
    (["power5.json", "poly_nn.json", "--m-max", 20, "--n-max", 6,
      "--d-policy", "poly:2", "--s-primes", 5],
     "a99f61ed59149492eac655b8267d17ff4f16a0284ccc0538b8817ffe4d74db5a"),
    (["power5.json", "poly_nn.json", "--m-max", 20, "--n-max", 6,
      "--d-policy", "poly:2", "--s-primes", 5, "--json"],
     "97cfcef9c9b2ef2556f3974c2639e2a9a4bd32898d260e95985b031c38b6d0d6"),
], ids=["fixed-text", "fixed-json", "poly-text", "poly-json"])
def test_search_output_bytes_are_unchanged(argv, digest):
    code, text = run("search", DATA / argv[0], DATA / argv[1], *argv[2:])
    assert code == 0
    assert text.count("m=") + text.count('"m":') > 30
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter writes integers of any length")
@pytest.mark.parametrize("argv", [
    # 3^100000 - 1 has 47,713 digits.
    ["eval", DATA / "mersenne3m.json", "--from", 100000, "--to", 100000],
    ["eval", DATA / "mersenne3m.json", "--from", 100000, "--to", 100000, "--json"],
    ["decimate", DATA / "mersenne3m.json", "-q", 100000, "-r", 0],
], ids=["eval", "eval-json", "decimate"])
def test_integer_past_the_digit_limit_exits_3(argv):
    code, text = run(*argv)
    assert code == 3
    assert text.startswith("resource limit: a value has more than")
    assert text.count("\n") == 1 and "Traceback" not in text


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter writes integers of any length")
@pytest.mark.parametrize("u_terms, v_terms, argv", [
    # 10^3000 * 3^n over 10^-3000: the quotient 10^6000 * 3^n has 6,001 digits.
    ([("3", "1" + "0" * 3000)], [("1", "1/1" + "0" * 3000)], ["quotient"]),
    # The JSON report holds U's scale, the lcm of its coprime denominators
    # 10^3000 + 1 and 10^3000: 6,001 digits.
    ([("3", "1/1" + "0" * 2999 + "1"), ("1", "1/1" + "0" * 3000)], [("2", "1"), ("1", "-1")],
     ["obstruct", "--progression", "3,0", "--prime", 7, "--json"]),
], ids=["quotient", "obstruct-json"])
def test_outputs_past_the_digit_limit_exit_3(tmp_path, u_terms, v_terms, argv):
    for name, terms in (("u.json", u_terms), ("v.json", v_terms)):
        closed_form = [{"root": root, "coeff": coeff} for root, coeff in terms]
        (tmp_path / name).write_text(json.dumps({"closed_form": closed_form}))
    code, text = run(argv[0], tmp_path / "u.json", tmp_path / "v.json", *argv[1:])
    assert code == 3
    assert text.startswith("resource limit: a value has more than")
    assert text.count("\n") == 1


_BIG = "1" + "0" * 4999


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter reads integers of any length")
@pytest.mark.parametrize("spec", [
    json.dumps({"closed_form": [{"root": _BIG, "coeff": "1"}]}),
    json.dumps({"closed_form": [{"root": "2", "coeff": _BIG}]}),
    json.dumps({"closed_form": [{"root": "2", "coeff": "1/" + _BIG}]}),
    '{"relation": {"coeffs": [%s], "initial": [1]}}' % _BIG,
], ids=["root", "coefficient", "denominator", "json-number"])
def test_literal_past_the_digit_limit_exits_3(tmp_path, spec):
    (tmp_path / "big.json").write_text(spec)
    code, text = run("eval", tmp_path / "big.json", "--to", 1)
    assert code == 3
    assert text.startswith("resource limit: the integer literal 100000000000... has 5000 digits")
    assert text.count("\n") == 1 and "Traceback" not in text


def test_memory_error_in_a_handler_exits_3(monkeypatch):
    import recurquot.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_eval", exhausted)
    code, text = run("eval", DATA / "mersenne2.json")
    assert code == 3
    assert text == "resource limit: out of memory\n"
