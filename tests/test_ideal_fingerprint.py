"""Golden fingerprint of a fixed sweep of ideals, compared exactly.

The sweep covers Q and GF(5/7/11/13): the family generators a(0) - a(n)
and 2a(0) - a(-n) - a(n) for n <= 14, each with and without p(1,3), and
seeded random sets of one to three generators, half of them corrected to
weight 0.  For each ideal the fingerprint records ``summary()``, the
extension pivots and a digest of the extension rows and of the
``FiniteAlgebra.structure`` table.  To rewrite it after an intended change
of output, run this file as a script::

    PYTHONPATH=src python tests/test_ideal_fingerprint.py
"""

import functools
import hashlib
import json
import pathlib
import random
from fractions import Fraction

import highwater.elements as el
from highwater import GF, QQ, ideals as ideals_module
from highwater.ideals import ideal_of
from highwater.quotients import FiniteAlgebra

from oracle import pure_a_by_miyamoto

GOLDEN = pathlib.Path(__file__).parent / "data" / "ideal_fingerprint.json"
FIELDS = (QQ, GF(5), GF(7), GF(11), GF(13))
FAMILY_MAX_N = 14
RANDOM_SETS = 60


def _family_gens(F, family, n, with_p):
    a = lambda i: el.axis(F, i)
    g = (a(0) - a(n) if family == "H"
         else a(0).scale(F.scalar(2)) - a(-n) - a(n))
    return [g + el.pi(F, 1, 3) if with_p else g]


def _random_terms(rng):
    terms = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice("aaassp")
        if kind == "a":
            key = ("a", rng.randint(-6, 6))
        elif kind == "s":
            key = ("s", rng.randint(1, 6))
        else:
            key = ("p", rng.randint(1, 2), 3 * rng.randint(1, 2))
        terms.append((key, Fraction(rng.randint(-9, 9),
                                    rng.choice([1, 1, 2, 3]))))
    return terms


def _random_gens(F, rng, corrected):
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = el.from_terms(F, _random_terms(rng))
        if corrected:
            g = g - el.axis(F, 7).scale(g.weight())
        gens.append(g)
    return gens


def sweep():
    """``(name, generators)`` for every ideal of the sweep, in order."""
    out = []
    for F in FIELDS:
        char = F.characteristic
        for family in ("H", "L"):
            for n in range(1, FAMILY_MAX_N + 1):
                for with_p in (False, True):
                    name = f"char{char}_{family}{n}{'_p13' if with_p else ''}"
                    out.append((name, _family_gens(F, family, n, with_p)))
        rng = random.Random(1000 + char)
        for i in range(RANDOM_SETS):
            corrected = i % 2 == 0
            out.append((f"char{char}_random{i}{'_w0' if corrected else ''}",
                        _random_gens(F, rng, corrected)))
    return out


@functools.cache
def ideals():
    """``{name: IdealData}`` over the sweep, built once per test session."""
    return {name: ideal_of(gens) for name, gens in sweep()}


def dense(vec: dict, n: int, field) -> list:
    """The length-n list of a sparse ``{position: value}`` vector."""
    out = [field.zero.value] * n
    for i, c in vec.items():
        out[i] = c
    return out


def fingerprint(ideal) -> dict:
    rec = {"summary": ideal.summary()}
    if ideal.kind == "zero":
        return rec
    q = FiniteAlgebra(ideal, j_relative=ideal.kind == "in_j")
    rows = pivots = []
    if ideal.kind == "pattern":
        pat = ideal.pattern
        pivots = sorted(pat.extension.rows)
        rows = [dense(pat.extension.rows[piv], len(pat.survivor_keys),
                      ideal.field) for piv in pivots]
    rec["pivots"] = pivots
    text = repr(([[str(c) for c in row] for row in rows],
                 sorted((k, [str(c) for c in dense(v, q.dim, ideal.field)])
                        for k, v in q.structure.items())))
    rec["digest"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return rec


def test_sweep_size():
    names = [name for name, _ in sweep()]
    assert len(names) == len(set(names)) == 580


def test_ideals_match_fingerprint():
    golden = json.loads(GOLDEN.read_text())
    got = {name: fingerprint(ideal) for name, ideal in ideals().items()}
    assert set(got) == set(golden)
    assert [n for n in golden if got[n] != golden[n]] == []


def test_pattern_extensions_are_closed():
    # every extension row times every survivor key reduces into the span
    checked = 0
    for ideal in ideals().values():
        if ideal.kind != "pattern":
            continue
        pat = ideal.pattern
        field = pat.field
        keys = [el.Element._of(field, {k: field.one.value})
                for k in pat.survivor_keys]
        for row in pat.extension.rows.values():
            x = pat.from_vector(row)
            for b in keys:
                w = pat.to_vector(pat.reduce_core(dict((x * b).terms)))
                assert not pat.extension.residue(w)
                checked += 1
    assert checked


def test_pattern_quotient_keys_reduce_to_themselves():
    # a basis key of a pattern quotient is its own canonical
    # representative, so its coordinates form a unit vector
    checked = 0
    for ideal in ideals().values():
        if ideal.kind != "pattern":
            continue
        pat = ideal.pattern
        one = pat.field.one.value
        for i, key in enumerate(pat.survivor_keys):
            if i not in pat.extension.rows:
                x = el.Element._of(pat.field, {key: one})
                assert pat.reduce(x).terms == {key: one}
                checked += 1
    assert checked


def test_ideals_match_miyamoto_extraction(monkeypatch):
    # pure_a_extract applies theta(3), outside the Miyamoto group; taking
    # theta(6) = tau(6) tau(0) instead gives the same ideals
    engine, calls = ideals(), []

    def extract(g):
        calls.append(g.is_pure_a())
        return pure_a_by_miyamoto(g)

    monkeypatch.setattr(ideals_module, "pure_a_extract", extract)
    for name, gens in sweep():
        got, want = ideal_of(gens), engine[name]
        assert got.summary() == want.summary(), name
        if want.kind == "pattern":
            assert (got.pattern.extension_rows
                    == want.pattern.extension_rows), name
    assert not all(calls)  # the translation ran


def test_contains_j_iff_p23_reduces_to_zero():
    # ideal_of reduces p(1,3) only: tau(0) sends it to -p(2,3)
    seen = set()
    for ideal in ideals().values():
        if ideal.kind == "pattern":
            p23 = el.pi(ideal.field, 2, 3)
            seen.add(ideal.pattern.contains_j)
            assert ideal.reduce(p23).is_zero() == ideal.pattern.contains_j
    assert seen == {False, True}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    data = {name: fingerprint(ideal) for name, ideal in ideals().items()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
        for name, rec in sorted(data.items())) + "\n}\n")
    print(f"wrote {len(data)} fingerprints to {GOLDEN.name}")
