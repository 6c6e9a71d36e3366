"""Golden corpus of CLI JSON outputs, compared byte for byte.

Each case runs one ``--format json`` invocation in process, compares its
standard output with ``tests/data/cli_corpus/<name>.json`` and validates it
against the CLI output schema.  To rewrite the corpus after an intended
change of output, run this file as a script::

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import io
import json
import pathlib
from contextlib import redirect_stdout
from importlib.resources import files

import jsonschema
import pytest

from highwater.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_corpus"
SCHEMA = json.loads(
    files("highwater.schemas").joinpath("cli_output.json").read_text())

_J_MIXED_CHAR0 = (
    "27/8*p(1,3) - 3/8*p(2,3) - 15/8*p(1,6) - 3/4*p(2,6) + 9/8*p(1,9)"
    " - 3/8*p(1,12) - 3/8*p(2,12) + 3/8*p(2,15); -15/8*p(1,3) - 2*p(2,3)"
    " + 3/2*p(1,6) + p(2,6) - 9/4*p(1,9) - p(2,9) + 3/4*p(1,12)"
    " - 3/8*p(1,15) + 3/8*p(1,18)")
_J_MIXED_CHAR7 = (
    "6*p(1,3) + 4*p(2,3) + 6*p(1,6) + p(2,6) + 2*p(1,9) + 4*p(1,12)"
    " + 4*p(2,12) + 3*p(2,15); 6*p(1,3) + 5*p(2,3) + 5*p(1,6) + p(2,6)"
    " + 3*p(1,9) + 6*p(2,9) + 6*p(1,12) + 4*p(1,15) + 3*p(1,18)")

CASES = {
    "mul_char7": ["mul", "--char", "7", "2*a(-1) + s(2)", "a(3) - p(1,3)"],
    "mul_far_char7": ["mul", "--char", "7", "a(100001) + 1/2*s(2)",
                      "a(100004) - p(2,3)"],
    "mul_far_char0": ["mul", "--char", "0",
                      "a(-299999) - 2/3*a(-299997) + s(4) + p(2,6)",
                      "a(-299998) + 3*p(1,6) - 1/4*s(1)"],
    "mul_far_mixed_char0": ["mul", "--char", "0",
                            "a(1000000) + a(1000001) + a(1000002)",
                            "a(-999999) - p(1,3) + 5*p(2,9)"],
    "weight_char5": ["weight", "--char", "5", "3*a(2) + a(7) + s(1)"],
    "weight_char0": ["weight", "--char", "0", "1/2*a(0) - 2/3*a(5) + s(1)"],
    "eigen_axis2_char0": ["eigen", "--char", "0", "a(1) + s(1)",
                          "--axis", "2"],
    "eigen_p_terms_char7": ["eigen", "--char", "7",
                            "a(-2) + 2*s(3) - p(1,3) + 3*p(2,6)",
                            "--axis", "1"],
    "eigen_p_terms_char0": ["eigen", "--char", "0",
                            "1/2*a(4) - 2/3*s(3) + p(2,3) - 1/5*p(1,6)",
                            "--axis", "-1"],
    "ideal_classify_char0": ["ideal", "classify", "--char", "0",
                             "--gen", "a(0) - a(4)"],
    "ideal_member_char0": ["ideal", "member", "--char", "0",
                           "--gen", "a(0) - a(2)", "--elt", "a(0) + s(2)"],
    "quotient_collapse_j_char0": ["quotient", "--char", "0",
                                  "--gen", "a(0) - a(3)", "--collapse-j"],
    "ideal_classify_extension_char0": ["ideal", "classify", "--char", "0",
                                       "--gen", "a(0) - a(6) + p(1,3)"],
    "quotient_extension_char5": ["quotient", "--char", "5", "--gen",
                                 "a(0) - a(1) + a(3) - a(4) + p(2,3)"],
    "ideal_member_extension_char7": ["ideal", "member", "--char", "7",
                                     "--gen", "a(0) - a(6) + p(1,3)",
                                     "--elt", "a(9) + s(7) + p(2,6)"],
    "ideal_member_far_extension_char0": [
        "ideal", "member", "--char", "0", "--gen", "a(0) - a(6) + p(1,3)",
        "--elt", "a(1500) - 1/2*a(-1497) + s(1499) - 3*p(2,1500)"],
    "quotient_extension_char0": ["quotient", "--char", "0",
                                 "--gen", "a(0) - a(6) + p(1,3)"],
    "families_char0": ["families", "--char", "0", "--max-n", "6"],
    "families_large_char7": ["families", "--char", "7", "--max-n", "30"],
    "verify_quotients_char0": ["verify", "quotients", "--char", "0"],
    "verify_quotients_char5": ["verify", "quotients", "--char", "5"],
    "verify_quotients_char7": ["verify", "quotients", "--char", "7"],
    "verify_twisted_char5": ["verify", "twisted", "--char", "5",
                             "--imax", "6"],
    "eigen_merged_char5": ["eigen", "--char", "5",
                           "a(1) + s(3) + p(1,3) - 2*p(2,6)"],
    "verify_fusion_char7": ["verify", "fusion", "--char", "7",
                            "--imax", "6"],
    "verify_miyamoto_char11": ["verify", "miyamoto", "--char", "11",
                               "--imax", "6"],
    "quotient_j_relative_char7": ["quotient", "--char", "7",
                                  "--gen", "p(1,12)", "--j-relative"],
    "quotient_pattern_char5": ["quotient", "--char", "5",
                               "--gen", "2*a(0) - a(-6) - a(6)"],
    "quotient_nonintegral_char0": ["quotient", "--char", "0",
                                   "--gen", "3*s(3) - 7/3*s(4)"],
    "ideal_member_nonintegral_char0": [
        "ideal", "member", "--char", "0", "--gen", "3*s(3) - 7/3*s(4)",
        "--elt", "a(60) - s(41)"],
    # s(3)*g + tau0(s(6)*g); tau0(g) - s(9)*g for g = 2p(1,3) - p(1,6) + p(1,9)
    "ideal_classify_j_mixed_char0": [
        "ideal", "classify", "--char", "0", "--gen", _J_MIXED_CHAR0],
    "ideal_classify_j_mixed_char7": [
        "ideal", "classify", "--char", "7", "--gen", _J_MIXED_CHAR7],
    "quotient_j_mixed_char0": ["quotient", "--char", "0",
                               "--gen", _J_MIXED_CHAR0, "--j-relative"],
    "quotient_j_mixed_char7": ["quotient", "--char", "7",
                               "--gen", _J_MIXED_CHAR7, "--j-relative"],
}


def run_case(name: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(CASES[name] + ["--format", "json"])
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_corpus(name):
    code, out = run_case(name)
    assert code == 0
    assert out == (CORPUS / f"{name}.json").read_text()
    jsonschema.validate(json.loads(out), SCHEMA)


def test_corpus_has_no_stray_files():
    assert {p.stem for p in CORPUS.glob("*.json")} == set(CASES)


if __name__ == "__main__":
    CORPUS.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        code, out = run_case(name)
        assert code == 0, name
        (CORPUS / f"{name}.json").write_text(out)
        print(f"wrote {name}.json")
