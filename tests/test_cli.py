import io
import json
import sys
from importlib.resources import files

import jsonschema
import pytest

from highwater.cli import main

from conftest import bounded

SCHEMA = json.loads(
    files("highwater.schemas").joinpath("cli_output.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_mul_text(capsys):
    code, out, _ = run(capsys, "mul", "--char", "0", "a(0)", "a(1)")
    assert code == 0
    assert out.strip() == "1/2*a(0) + 1/2*a(1) + s(1)"


def test_mul_json(capsys):
    code, payload = run_json(capsys, "mul", "--char", "0", "a(0)", "a(1)")
    assert code == 0
    assert payload["text"] == "1/2*a(0) + 1/2*a(1) + s(1)"


def test_weight(capsys):
    code, payload = run_json(capsys, "weight", "--char", "5",
                             "3*a(2) + a(7) + s(1)")
    assert code == 0
    assert payload["weight"] == "4"


def test_eigen(capsys):
    code, payload = run_json(capsys, "eigen", "--char", "0", "a(1)",
                             "--axis", "0")
    assert code == 0
    assert payload["total"]
    assert payload["components"]


def test_ideal_classify(capsys):
    code, payload = run_json(capsys, "ideal", "classify", "--char", "0",
                             "--gen", "a(0) - a(4)")
    assert code == 0
    assert payload["kind"] == "pattern"
    assert payload["quotient_dim"] == 6


def test_ideal_member(capsys):
    code, payload = run_json(capsys, "ideal", "member", "--char", "0",
                             "--gen", "a(0) - a(2)", "--elt", "a(1) - a(3)")
    assert code == 0
    assert payload["member"] is True
    code, payload = run_json(capsys, "ideal", "member", "--char", "0",
                             "--gen", "a(0) - a(2)", "--elt", "a(0)")
    assert payload["member"] is False
    assert payload["residue"]["terms"]


def test_ideal_member_far_subscript(capsys):
    # t^20 - 1 divides t^(10^9) - 1; the read crosses 10^9 levels by powers
    # of t, so a return to a walk over the levels fails the time bound
    with bounded(10, 2 ** 20):
        code, payload = run_json(capsys, "ideal", "member", "--char", "7",
                                 "--gen", "a(0) - a(20)",
                                 "--elt", "a(1000000000) - a(0)")
    assert code == 0
    assert payload["member"] is True


def test_quotient_table(capsys, tmp_path):
    out = tmp_path / "table.json"
    code = main(["quotient", "--char", "0", "--gen", "a(0) - a(2)",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["dim"] == 3
    assert payload["basis_labels"] == ["a(0)", "a(1)", "s(1)"]
    # a(0) * a(1) = 1/2 a(0) + 1/2 a(1) + s(1) in the quotient
    assert payload["structure_constants"][1][0] == ["1/2", "1/2", "1"]


def test_families_table(capsys):
    code, payload = run_json(capsys, "families", "--char", "0",
                             "--max-n", "6")
    assert code == 0
    for row in payload["rows"]:
        n = row["n"]
        assert row["H"] == n + n // 2
        assert row["L"] == 3 * n - 1


@pytest.mark.parametrize("suite", ["fusion", "products", "twisted",
                                   "quotients", "miyamoto"])
def test_verify_suites(capsys, suite):
    code, payload = run_json(capsys, "verify", suite, "--char", "0",
                             "--imax", "4")
    assert code == 0
    assert payload["ok"]


@pytest.mark.parametrize("char", ["0", "5"])
def test_verify_fusion_imax_24(capsys, char):
    # 89 vectors: a(0), u, v, w for i = 1..24 and z, wt for i = 3, 6, ..., 24
    with bounded(10, None):
        code, payload = run_json(capsys, "verify", "fusion", "--char", char,
                                 "--imax", "24")
    assert code == 0 and payload["ok"]
    assert payload["detail"]["checked"] == 89 * 90 // 2 == 4005


def test_usage_errors(capsys):
    assert run(capsys, "mul", "--char", "4", "a(0)", "a(1)")[0] == 2
    assert run(capsys, "mul", "--char", "0", "a(", "a(1)")[0] == 2
    with pytest.raises(SystemExit) as e:
        main(["mul", "a(0)", "a(1)"])  # missing --char
    assert e.value.code == 2


def test_degenerate_index_warning(capsys):
    code, out, err = run(capsys, "mul", "--char", "0", "p(1,4)", "a(0)")
    assert code == 0
    assert out.strip() == "0"
    assert "warning" in err


def _one_line_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("char", [str(2**64 + 13),
                                  str((10**9 + 7) * (10**9 + 9))])
def test_large_characteristic_rejected(capsys, char):
    _one_line_usage_error(*run(capsys, "weight", "--char", char, "a(0)"))


def test_large_prime_characteristic(capsys):
    code, payload = run_json(capsys, "weight", "--char",
                             "1000000000000000003", "a(0) + 2*a(1)")
    assert code == 0
    assert payload["weight"] == "3"


def test_coefficient_undefined_in_characteristic(capsys):
    _one_line_usage_error(
        *run(capsys, "mul", "--char", "5", "1/5*a(0)", "a(1)"))


def test_out_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    _one_line_usage_error(*run(capsys, "mul", "--char", "0", "a(0)", "a(1)",
                               "--out", str(target)))
    assert not target.exists()


@pytest.mark.parametrize("imax", ["-3", "0"])
def test_verify_rejects_imax_below_one(capsys, imax):
    _one_line_usage_error(*run(capsys, "verify", "fusion", "--char", "0",
                               "--imax", imax))


@pytest.mark.parametrize("argv", [
    ["--char", "7", "--gen", "p(1,3)"],
    ["--char", "0", "--gen", "a(0)-a(3)", "--j-relative"],
    ["--char", "7", "--gen", "a(0)", "--j-relative"]])
def test_quotient_j_relative_mismatch_names_the_flag(capsys, argv):
    code, out, err = run(capsys, "quotient", *argv)
    _one_line_usage_error(code, out, err)
    assert "--j-relative" in err and "j_relative" not in err


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of parsing argv."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import argparse

    import highwater.cli as cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser()
    one_build = len(built)
    built.clear()
    cli._parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "weight", "--char", "5", "a(0)")[:2] == (0, "1\n")
    assert len(built) == one_build and built.count("highwater") == 1
    # usage errors and help read as from a fresh parser
    fresh = cli.build_parser().parse_args
    for argv in (["--help"], ["quotient", "--help"], ["mul"], [],
                 ["weight", "--char", "x", "a(0)"],
                 ["verify", "nope", "--char", "5"]):
        for _ in range(2):
            assert (_parse_outcome(capsys, main, argv)
                    == _parse_outcome(capsys, fresh, argv))


@pytest.mark.parametrize("argv", [
    ["quotient", "--char", "0", "--gen", "0"],
    ["ideal", "classify", "--char", "0", "--gen", ";"]])
def test_empty_or_zero_generators_rejected(capsys, argv):
    _one_line_usage_error(*run(capsys, *argv))


def test_families_rejects_max_n_below_one(capsys):
    _one_line_usage_error(*run(capsys, "families", "--char", "0",
                               "--max-n", "0"))


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone, as under ``| head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_quietly_with_sigpipe_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["ideal", "member", "--char", "0", "--gen",
                 "3*s(3) - 7/3*s(4)", "--elt", "a(60) - s(41)"])
    assert code == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    (["mul", "--char", "4", "a(0)", "a(1)"],
     "characteristic must be 0 or prime, got 4"),
    (["families", "--char", "9", "--max-n", "0"],
     "characteristic must be 0 or prime, got 9"),
    (["verify", "fusion", "--char", "0", "--imax", "0"],
     "--imax must be at least 1"),
    (["verify", "products", "--char", "0", "--imax", "65"],
     "--imax must be at most 64"),
    (["quotient", "--char", "0", "--gen", "0"],
     "quotient by the zero ideal is not finite"),
    (["ideal", "classify", "--char", "0", "--gen", ";"],
     "need at least one element"),
], ids=["characteristic", "characteristic_first", "usage", "imax_limit",
        "quotient", "ideal"])
def test_engine_errors_exit_2_with_their_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
