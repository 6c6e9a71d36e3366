"""The acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (bypassing capture) so the run
log shows the verdict per criterion.
"""

import random
from functools import lru_cache

import pytest

import highwater.elements as el
from highwater import GF, QQ
from highwater.eigen import (fusion_check, miyamoto_consistency,
                             product_identity_suite, twisted_identity_suite)
from highwater.ideals import (JIdeal, aut_invariance_check, ideal_of,
                              j_canonicalize, membership,
                              minimal_ideal_basis)
from highwater.quotients import (axis_orbit, family_Hn, family_Ln,
                                 small_quotient_suite)

from conftest import random_element, random_scalar

FIELDS = [QQ, GF(5), GF(7), GF(11)]


def _verdict(capsys, number, name, ok):
    with capsys.disabled():
        print(f"criterion {number:02d} [{name}]: "
              f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_fusion_law(capsys):
    ok = all(fusion_check(F, 12)["ok"] for F in FIELDS)
    _verdict(capsys, 1, "fusion law, i <= 12, chars 0/5/7/11", ok)


def test_criterion_02_closed_form_products(capsys):
    ok = True
    for F in (QQ, GF(7)):
        ok = ok and all(e["ok"] for e in product_identity_suite(F, 8))
    _verdict(capsys, 2, "closed-form product identities, i,j <= 8", ok)


def test_criterion_03_twisted_identities(capsys):
    ok = all(e["ok"] for e in twisted_identity_suite(QQ, 9))
    ok = ok and all(e["ok"] for e in twisted_identity_suite(GF(5), 9))
    _verdict(capsys, 3, "reflection-twisted identities, i <= 9", ok)


def test_criterion_04_baric_frobenius(capsys):
    ok = True
    per_field = 500 // len(FIELDS) + 1
    for F in FIELDS:
        rng = random.Random(426 + F.characteristic)
        for _ in range(per_field):
            x = random_element(F, rng, support=15, index_bound=15)
            y = random_element(F, rng, support=15, index_bound=15)
            z = random_element(F, rng, support=15, index_bound=15)
            ok = ok and (x * y).weight() == x.weight() * y.weight()
            ok = ok and el.frobenius(x * y, z) == el.frobenius(x, y * z)
    _verdict(capsys, 4, "weight homomorphism and Frobenius associativity", ok)


def test_criterion_05_p_span_ideals(capsys):
    ok = True
    for F in FIELDS:
        rng = random.Random(77 + F.characteristic)
        for k in range(1, 6):
            for _ in range(4):
                coeffs = tuple(random_scalar(F, rng)
                               for _ in range(k - 1)) + (F.one,)
                ideal = JIdeal(F, coeffs)
                ok = ok and j_canonicalize(ideal.generator()).coeffs == coeffs
                ok = ok and ideal.codim_in_j == 2 * (k - 1)
        # the single p-symbol generates the whole p-span
        gen_ideal = j_canonicalize(el.pi(F, 1, 3))
        whole = JIdeal(F, (F.one,))
        ok = ok and whole.contains(gen_ideal.generator())
        for lvl in range(3, 13, 3):
            for r in (1, 2):
                ok = ok and gen_ideal.contains(el.pi(F, r, lvl))
    _verdict(capsys, 5, "p-span ideal classification round-trip", ok)


def test_criterion_06_family_dimensions(capsys):
    ok = True
    for n in range(1, 13):
        ok = ok and family_Hn(n, QQ, collapse_j=True).dim == n + n // 2
    for n in range(1, 9):
        ok = ok and family_Ln(n, QQ, collapse_j=True).dim == 3 * n - 1
    for n in (3, 6, 9, 12):
        ok = ok and family_Hn(n, GF(5)).dim == n + n // 2 + 2 * (n // 6)
    for n in (3, 6):
        ok = ok and family_Ln(n, GF(5)).dim == 3 * n - 1 + 2 * ((n - 1) // 3)
    _verdict(capsys, 6, "quotient family dimensions", ok)


@lru_cache(maxsize=1)
def _random_classified_ideals():
    """100 random single-generator ideals over char 0 and char 5."""
    out = []
    for F in (QQ, GF(5)):
        rng = random.Random(808 + F.characteristic)
        for i in range(50):
            g = random_element(F, rng, support=10, index_bound=5)
            if i % 2 == 0 and not g.is_zero():
                # half the sample is weight-corrected to hit proper ideals
                g = g - el.axis(F, 7).scale(g.weight())
            out.append((g, ideal_of([g])))
    return out


def test_criterion_07_ideal_engine_soundness(capsys):
    ok = True
    for g, ideal in _random_classified_ideals():
        ok = ok and ideal.contains(g)
        if ideal.kind == "pattern":
            pat = ideal.pattern
            for b in minimal_ideal_basis(ideal.field, pat.alpha, up_to=12):
                ok = ok and ideal.contains(b)
            for row in pat.extension_rows:
                ok = ok and ideal.contains(pat.from_vector(row))
        elif ideal.kind == "in_j":
            for b in ideal.j_ideal.basis(up_to=18):
                ok = ok and ideal.contains(b)
        ok = ok and aut_invariance_check(ideal, sample_bound=6)["ok"]
    _verdict(capsys, 7, "ideal engine soundness on 100 random generators", ok)


def test_criterion_08_axis_exclusion(capsys):
    ok = True
    proper = 0
    for _, ideal in _random_classified_ideals():
        if ideal.is_proper():
            proper += 1
            ok = ok and not membership(el.axis(ideal.field, 0), ideal)
    ok = ok and proper > 0
    _verdict(capsys, 8, "no proper ideal contains an axis", ok)


def test_criterion_09_exceptional_quotients(capsys):
    ok = True
    for F in (QQ, GF(5), GF(7)):
        ok = ok and all(e["ok"] for e in small_quotient_suite(F))
    _verdict(capsys, 9, "exceptional small-quotient suite", ok)


def test_criterion_10_axis_orbits(capsys):
    ok = True
    for n in range(1, 9):
        o = axis_orbit(family_Hn(n, QQ, collapse_j=True), cutoff=30)
        ok = ok and o.closed and len(o.axes) == n
    o5 = axis_orbit(family_Ln(1, GF(5), collapse_j=True), cutoff=30)
    ok = ok and o5.closed and len(o5.axes) == 5
    o0 = axis_orbit(family_Ln(1, QQ, collapse_j=True), cutoff=50)
    ok = ok and not o0.closed
    _verdict(capsys, 10, "axis orbit counts", ok)


def test_criterion_11_miyamoto_consistency(capsys):
    ok = True
    for F in (QQ, GF(5)):
        for axis_index in range(-3, 4):
            rep = miyamoto_consistency(F, axis_index, support_bound=15)
            ok = ok and rep["ok"]
    _verdict(capsys, 11, "eigenspace vs index route Miyamoto maps", ok)
