import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import highwater.elements as el
from highwater import GF, QQ, FieldMismatchError
from highwater.ideals import (IdealArgumentError, JIdeal, PatternIdeal,
                              aut_invariance_check, fold, ideal_of,
                              j_canonicalize, j_ideal_of, laurent_gcd,
                              membership, minimal_ideal_basis,
                              pure_a_extract)
from highwater.linalg import Rref
from highwater.quotients import FiniteAlgebra
from highwater.textio import parse_element

from conftest import bounded, random_element, random_scalar
from oracle import j_tuple_by_refinement, reduce_core_by_walk


def A(F, i):
    return el.axis(F, i)


def S(F, j):
    return el.sigma(F, j)


def P(F, r, k):
    return el.pi(F, r, k)


# -- ideals inside the p-span -------------------------------------------------------

def _random_monic_tuple(F, k, rng):
    coeffs = [random_scalar(F, rng) for _ in range(k - 1)]
    return tuple(coeffs) + (F.one,)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_j_ideal_round_trip(field, k):
    rng = random.Random(100 + k)
    for _ in range(5):
        coeffs = _random_monic_tuple(field, k, rng)
        ideal = JIdeal(field, coeffs)
        back = j_canonicalize(ideal.generator())
        assert back.coeffs == coeffs
        assert ideal.codim_in_j == 2 * (k - 1)


def test_j_ideal_basis_members(field):
    rng = random.Random(55)
    ideal = JIdeal(field, _random_monic_tuple(field, 3, rng))
    for b in ideal.basis(up_to=24):
        assert ideal.reduce(b).is_zero()


def test_p13_generates_whole_p_span(field):
    ideal = j_canonicalize(P(field, 1, 3))
    assert ideal.coeffs == (field.one,)
    whole = JIdeal(field, (field.one,))
    for k in range(3, 13, 3):
        for r in (1, 2):
            assert ideal.contains(P(field, r, k))
    assert whole.contains(ideal.generator())


def test_j_ideal_equality_and_repr(field):
    two = field.scalar(2)
    ideal = JIdeal(field, (two, field.one))
    # the tuple is made monic, so a multiple names the same ideal
    assert ideal == JIdeal(field, (field.scalar(4), two))
    assert ideal == j_canonicalize(ideal.generator())
    assert ideal != JIdeal(field, (field.one, field.one))
    assert ideal != ideal.generator()
    assert repr(ideal) == "JIdeal(2, 1)"
    assert repr(JIdeal(field, (field.one,))) == "JIdeal(1,)"
    other = GF(13) if field is QQ else QQ
    assert JIdeal(field, (field.one,)) != JIdeal(other, (other.one,))


def test_j_ideal_of_multiple_generators(field):
    g1 = P(field, 1, 6) - P(field, 1, 9)
    g2 = P(field, 2, 9) - P(field, 2, 12)
    ideal = j_ideal_of([g1, g2])
    assert ideal.contains(g1) and ideal.contains(g2)


def test_mixed_residue_generator_collapses():
    ideal = j_canonicalize(P(QQ, 1, 3) + P(QQ, 2, 6))
    assert ideal.coeffs == (QQ.one,)


def test_j_ideal_members_are_pattern_folds(field):
    # with beta(u) = u^k sum_i b_i (u^i + u^-i - 2), s(3j) times the
    # residue-r copy of the generator is 3/4 of it minus 3/8 of the p-fold
    # of beta(t^3) about 3(k - j)
    rng = random.Random(61)
    for k in range(1, 5):
        ideal = JIdeal(field, _random_monic_tuple(field, k, rng))
        b = ideal.coeffs
        alpha = [field.zero] * (6 * k + 1)
        alpha[::3] = b[::-1] + (sum(b, field.zero) * field.scalar(-2),) + b
        pat = PatternIdeal(field, alpha)
        assert pat.epsilon == 1 and not pat.contains_j
        for r in (1, 2):
            g = el.Element(field, {("p", r, 3 * i): c
                                   for i, c in enumerate(b, 1)})
            for j in range(1, 2 * k + 2):
                assert S(field, 3 * j) * g == \
                    g.scale(field.scalar(3, 4)) \
                    - pat.p_family(3 * (k - j), r).scale(field.scalar(3, 8))


def _random_j_generator(F, rng, g):
    """A random element of J: free p-terms, or a sum of multiples of g by
    basis keys and of its images by reflections and translations."""
    if g is None:
        return el.from_terms(F, [
            (("p", rng.randint(1, 2), 3 * rng.randint(1, 5)),
             Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])))
            for _ in range(rng.randint(1, 4))])
    out = el.zero(F)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice("aspt")
        if kind == "a":
            h = A(F, rng.randint(-4, 4)) * g
        elif kind == "s":
            h = S(F, rng.randint(1, 9)) * g
        elif kind == "p":
            h = P(F, rng.randint(1, 2), 3 * rng.randint(1, 3)) * g
        else:
            aut = rng.choice((el.tau(rng.randint(-3, 3)),
                              el.theta(rng.randint(-3, 3))))
            h = el.apply(aut, g)
        out = out + h.scale(random_scalar(F, rng))
    return out


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7), GF(11), GF(13)], ids=str)
def test_j_ideal_of_matches_refinement_oracle(F):
    # 110 sets of one to three generators per field: free ones, and
    # multiples of the generator of a random tuple of length 1 to 4
    rng = random.Random(1500 + F.characteristic)
    sets = 0
    while sets < 110:
        g = None if sets % 2 else JIdeal(
            F, _random_monic_tuple(F, rng.randint(1, 4), rng)).generator()
        gens = [x for x in (_random_j_generator(F, rng, g)
                            for _ in range(rng.randint(1, 3))) if x]
        if gens:
            assert j_ideal_of(gens).coeffs == j_tuple_by_refinement(gens)
            sets += 1


# -- folding and extraction ---------------------------------------------------------

def test_fold_matches_multiplication_route(field):
    rng = random.Random(8)
    for _ in range(10):
        terms = {("a", i): random_scalar(field, rng) for i in range(-3, 4)}
        x = el.Element(field, {k: c for k, c in terms.items() if c})
        x = x - A(field, 5).scale(x.weight())  # make the weight zero
        k = rng.randint(-2, 2)
        s_part, p_part = fold(x, k)
        route = (A(field, k) * x - x.scale(field.scalar(1, 2)))
        # summing over the three residue rotations keeps only the s-part
        folded = route + el.apply(el.theta(1), route) \
            + el.apply(el.theta(2), route)
        assert folded.part("s") == s_part
        # the antisymmetric rotation difference recovers the p-part
        assert el.apply(el.theta(-1), route) - el.apply(el.theta(1), route) \
            == p_part


def test_pure_a_extract(field):
    rng = random.Random(12)
    for _ in range(10):
        g = random_element(field, rng, support=6)
        if g.is_zero() or g.in_p_span():
            continue
        x = pure_a_extract(g)
        assert x.is_pure_a()
        if not x.is_zero():
            assert membership(x, ideal_of([g]))


# -- tracked polynomial gcd ----------------------------------------------------------

def test_laurent_gcd_bezout(field):
    rng = random.Random(17)
    for _ in range(10):
        pats = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 5)
            pat = [random_scalar(field, rng) for _ in range(deg)] + [field.one]
            if not pat[0]:
                pat[0] = field.one
            pats.append(pat)
        g, combo = laurent_gcd(field, pats)
        assert g[0] and g[-1] == field.one
        # the Bezout combination reproduces the gcd as a Laurent combination
        width = max(len(p) for p in pats) + max(k for _, k, _ in combo) + 8
        off = 4
        acc = [field.zero] * width
        for idx, shift, c in combo:
            for i, a in enumerate(pats[idx]):
                acc[off + i + shift] = acc[off + i + shift] + c * a
        lead = min(i for i, a in enumerate(acc) if a)
        recovered = [a for a in acc[lead:] if True]
        while recovered and not recovered[-1]:
            recovered.pop()
        assert recovered == list(g)


def _poly_mul(F, u, v):
    out = [F.zero] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return out


def _random_poly(F, rng, deg):
    """Coefficients, low order first, with nonzero ends."""
    ends = [F.zero]
    while not all(ends):
        ends = [random_scalar(F, rng) for _ in range(2)]
    mid = [random_scalar(F, rng) for _ in range(deg - 1)]
    return [ends[0]] + mid + [ends[1]] if deg else ends[:1]


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7)], ids=str)
def test_laurent_gcd_carries_over_a_split(F):
    # ideal_of restarts a gcd round from the previous gcd instead of the
    # whole pool: gcd(pool + new) == gcd([gcd(pool)] + new)
    rng = random.Random(61 + F.characteristic)
    for _ in range(25):
        common = _random_poly(F, rng, rng.randint(0, 3))
        pats = [_poly_mul(F, common, _random_poly(F, rng, rng.randint(0, 3)))
                for _ in range(rng.randint(2, 5))]
        k = rng.randint(1, len(pats) - 1)
        want = laurent_gcd(F, pats)[0]
        head = laurent_gcd(F, pats[:k])[0]
        assert laurent_gcd(F, [list(head)] + pats[k:])[0] == want


def test_laurent_gcd_rejects_scalars_of_another_field():
    # GF(7)'s 1/2 has value 4, which must not be read as a GF(5) value
    with pytest.raises(FieldMismatchError):
        laurent_gcd(GF(5), [[GF(7).scalar(1, 2), GF(7).one]])
    with pytest.raises(FieldMismatchError):
        laurent_gcd(QQ, [[1, 1], [GF(5).one, QQ.one]])


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7), GF(11), GF(13)], ids=str)
def test_untracked_gcd_matches_laurent_gcd(F):
    # ideal_of runs the gcd without the Bezout combination, on raw values;
    # it must give the tracked gcd, also when carried over a split
    import highwater.ideals as ideals
    p = F.characteristic
    rng = random.Random(83 + p)

    def untracked(pats):
        raw = [tuple(c.value for c in pat) for pat in pats]
        poly, comb = ideals._gcd(p, [ideals._primitive(pat, p) for pat in raw])
        assert comb is None
        return tuple(F.from_fraction(c) for c in poly)

    for _ in range(25):
        common = _random_poly(F, rng, rng.randint(0, 3))
        pats = [_poly_mul(F, common, _random_poly(F, rng, rng.randint(0, 3)))
                for _ in range(rng.randint(1, 5))]
        want = laurent_gcd(F, pats)[0]
        assert untracked(pats) == want
        k = rng.randint(0, len(pats) - 1)
        head = untracked(pats[:k + 1])
        assert untracked([list(head)] + pats[k + 1:]) == want


def _q(*coeffs):
    return [Fraction(c) for c in coeffs]


# (patterns over Q, their monic Laurent gcd), on what the draws above miss
_GCD_EDGES = [
    # non-integral: (t - 1)(t/2 + 1/3) and (t - 1)(2t/5 - 3/4)
    ([_q("-1/3", "-1/6", "1/2"), _q("3/4", "-23/20", "2/5")], _q(-1, 1)),
    # scalar multiples of one pattern, one of them negative and non-integral
    ([_q(2, -1, 0, 1), _q(-6, 3, 0, -3), _q("10/7", "-5/7", 0, "5/7")],
     _q(2, -1, 0, 1)),
    # negative leads: -(t + 1)(t - 2) and (t + 1)(1 - 3t); -(1 + t^3)
    ([_q(2, 1, -1), _q(1, -2, -3)], _q(1, 1)),
    ([_q(-1, 0, 0, -1)], _q(1, 0, 0, 1)),
    # low-order zeros, which are units: t^2 (t - 1) and -t (t - 1)(t + 1)
    ([_q(0, 0, -1, 1), _q(0, 1, 0, -1)], _q(-1, 1)),
    ([_q(0, 3, 6)], _q("1/2", 1)),
    # coprime: a negative constant and integral patterns with large content
    ([_q(-4, 0, 8), _q(6, 9)], _q(1)),
]


@pytest.mark.parametrize("pats, want", _GCD_EDGES)
def test_integer_euclid_on_edge_patterns(pats, want):
    import highwater.ideals as ideals
    poly, comb = ideals._gcd(0, [ideals._primitive(pat, 0) for pat in pats])
    assert comb is None and list(poly) == want
    assert all(type(c) is Fraction for c in poly)
    g, combo = laurent_gcd(QQ, pats)
    assert [c.value for c in g] == want
    # the tracked combination reproduces the gcd as a Laurent combination
    acc = {}
    for idx, shift, c in combo:
        for i, a in enumerate(pats[idx]):
            acc[i + shift] = acc.get(i + shift, 0) + c.value * a
    low = min(i for i, a in acc.items() if a)
    assert [acc.get(i, 0) for i in range(low, low + len(want))] == want
    assert not any(a for i, a in acc.items() if i >= low + len(want))


def test_scalar_multiples_reach_gcd_once(monkeypatch):
    import highwater.ideals as ideals
    rounds = []
    gcd_ = ideals._gcd

    def spy(p, items):
        rounds.append([pat for pat, _ in items])
        return gcd_(p, items)

    monkeypatch.setattr(ideals, "_gcd", spy)
    g = A(QQ, 0) - A(QQ, 1).scale(QQ.scalar(3, 2)) + A(QQ, 3) \
        - A(QQ, 4).scale(QQ.scalar(1, 2)) + S(QQ, 2)
    want = ideal_of([g]).summary()
    single = list(rounds)
    assert single
    rounds.clear()
    multiples = [g, g.scale(QQ.scalar(-3)), g.scale(QQ.scalar(5, 7))]
    assert ideal_of(multiples).summary() == want
    assert rounds == single
    # a(0) - a(4) has pattern t^4 - 1, whose reversal is its negative; the
    # generator is its own pure-a member, so one round finds the pattern
    start = len(rounds)
    ideal_of([A(QQ, 0) - A(QQ, 4)])
    assert rounds[start:] == [[(-1, 0, 0, 0, 1)]]
    # each pattern is integral, of content 1, with a positive lead
    for pat in (pat for pats in rounds for pat in pats):
        _assert_primitive(0, pat)


def _assert_primitive(p, pat):
    """pat is in ``_primitive`` form: an int tuple at exponent 0, monic
    over F_p, of content 1 with a positive lead over Q."""
    assert type(pat) is tuple and all(type(c) is int for c in pat)
    assert pat[0] and (pat[-1] == 1 if p else pat[-1] > 0 and gcd(*pat) == 1)


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
def test_gcd_inputs_are_primitive(monkeypatch, F):
    # laurent_gcd and j_ideal_of hand _gcd canonical patterns, as ideal_of
    # does (test_ideal_of_passes_each_pattern_once)
    import highwater.ideals as ideals
    pats = []
    gcd_ = ideals._gcd

    def spy(p, items):
        pats.extend(pat for pat, _ in items)
        return gcd_(p, items)

    monkeypatch.setattr(ideals, "_gcd", spy)
    j_ideal_of([P(F, 1, 6).scale(F.scalar(3)) - P(F, 2, 9), P(F, 1, 12)])
    laurent_gcd(F, [[0, F.scalar(3), F.scalar(-3)], [2, 1, -1, -2]])
    assert len(pats) == 5
    for pat in pats:
        _assert_primitive(F.characteristic, pat)


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
def test_pure_a_family_generator_closes_once(monkeypatch, F):
    # a pure-a generator is its own pure-a member: the first gcd round
    # already has its pattern, and its closure finds no finer one
    import highwater.ideals as ideals
    from highwater.quotients import family_Hn, family_Ln
    calls = []
    closure = ideals._closure

    def spy(ideal, seeds):
        calls.append(ideal.degree)
        return closure(ideal, seeds)

    monkeypatch.setattr(ideals, "_closure", spy)
    for family in (family_Hn, family_Ln):
        for n in range(1, 15):
            for collapse_j in (False, True):
                calls.clear()
                family(n, F, collapse_j=collapse_j)
                assert len(calls) == 1, (family.__name__, n, collapse_j)


# -- pattern ideals -----------------------------------------------------------------

def test_minimal_ideal_basis_members(field):
    # pattern of the difference-of-axes ideal with period 4
    ideal = ideal_of([A(field, 0) - A(field, 4)])
    pat = ideal.pattern
    for b in minimal_ideal_basis(field, pat.alpha, up_to=12):
        assert ideal.contains(b)


def test_reduce_is_projection(field):
    rng = random.Random(31)
    ideal = ideal_of([A(field, 0) - A(field, 5)])
    for _ in range(10):
        x = random_element(field, rng, support=8, index_bound=12)
        r = ideal.reduce(x)
        assert ideal.reduce(r) == r
        assert ideal.contains(x - r)


def _level_scan_fold(pat, k, step):
    """The folds by the dense level scan: alpha(k - i) + alpha(k + i) at
    every level i = step, 2 step, ... up to max(|k|, D - k)."""
    def at(i):
        return pat.alpha[i] if 0 <= i <= pat.degree else pat.field.zero
    return {i: at(k - i) + at(k + i)
            for i in range(step, max(abs(k), pat.degree - k) + 1, step)
            if at(k - i) + at(k + i)}


def _random_palindrome(F, rng):
    """A random monic pattern with alpha_i = eps * alpha_(D - i) and
    coefficient sum 0, as the pattern of every proper ideal has."""
    d = rng.randint(2, 9)
    eps = rng.choice((1, -1))
    alpha = [F.zero] * (d + 1)
    alpha[0], alpha[d] = F.scalar(eps), F.one
    for i in range(1, d // 2 + 1):
        c = random_scalar(F, rng) if 2 * i < d or eps == 1 else F.zero
        alpha[i], alpha[d - i] = c * F.scalar(eps), c
    if eps == 1:  # the middle term, or middle pair, takes up the sum
        m = d // 2
        alpha[m] = alpha[d - m] = (alpha[m] - sum(alpha, F.zero)
                                   * F.scalar(1, 1 + d % 2))
    return alpha, eps


def _fold_patterns(F):
    one, two = F.one, F.scalar(2)
    for n in range(1, 13):
        # H_n: a(0) - a(n); L_n: 2a(0) - a(-n) - a(n), shifted by n
        yield [-one] + [F.zero] * (n - 1) + [one], -1
        yield [one] + [F.zero] * (n - 1) + [-two] + [F.zero] * (n - 1) \
            + [one], 1
    rng = random.Random(71 + F.characteristic)
    for _ in range(20):
        yield _random_palindrome(F, rng)


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7)], ids=str)
def test_sparse_folds_match_level_scan(F):
    for alpha, eps in _fold_patterns(F):
        pat = PatternIdeal(F, alpha)
        assert pat.epsilon == eps
        d = pat.degree
        for k in range(-3 * d, d // 2 + 1):
            y = _level_scan_fold(pat, k, 1)
            assert pat.y_family(k) == el.Element(
                F, {("s", i): c for i, c in y.items()})
            p = _level_scan_fold(pat, k, 3)
            for r in (1, 2):
                assert pat.p_family(k, r) == el.Element(
                    F, {("p", r, i): c for i, c in p.items()})


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
def test_far_reduction(F):
    # the fold families have at most D + 1 terms, so reducing an s- or
    # p-subscript n steps from the window takes time linear in n
    n = 10 ** 4
    ideal = ideal_of([A(F, 0) - A(F, 4)])
    assert ideal.reduce(A(F, n)) == ideal.reduce(A(F, n % 4))
    x = A(F, n) + A(F, -n) + S(F, n) + P(F, 1, 3 * n)
    r = ideal.reduce(x)
    assert ideal.reduce(r) == r
    assert set(r.terms) <= set(ideal.pattern.survivor_keys)
    assert ideal.contains(x - r)


def _power_mod(alpha, n):
    """Coefficients of t^n mod alpha(t), low order first, by long division
    of Fraction polynomials; alpha is monic, low order first."""
    d = len(alpha) - 1
    r = [Fraction(0)] * n + [Fraction(1)]
    for m in range(n, d - 1, -1):
        if c := r[m]:
            for j, a in enumerate(alpha):
                r[m - d + j] -= c * a
    return (r + [Fraction(0)] * d)[:d]


# t^4 - 1; a non-integral palindrome; (1 - t^5)^2, whose fold at level
# D/2 = 5 has top 2
_ORACLE_PATTERNS = {
    "t4-1": ((-1, 0, 0, 0, 1), -1),
    "nonintegral": ((1, Fraction(-9, 7), 0, 0, Fraction(4, 7), 0, 0,
                     Fraction(-9, 7), 1), 1),
    "square": ((1, 0, 0, 0, 0, -2, 0, 0, 0, 0, 1), 1),
}


def _oracle_cases():
    for name, (alpha, eps) in _ORACLE_PATTERNS.items():
        # 7 divides the denominators of the non-integral pattern
        for F in (QQ, GF(7)) if name != "nonintegral" else (QQ,):
            d = len(alpha) - 1
            for n in (d, 3 * d + 1, 200):
                yield pytest.param(F, alpha, eps, n,
                                   id=f"{name}-{F}-{n}")


@pytest.mark.parametrize("F, alpha, eps, n", _oracle_cases())
def test_reduce_core_matches_division_oracle(F, alpha, eps, n):
    alpha = [Fraction(c) for c in alpha]
    scalars = [F.from_fraction(c) for c in alpha]
    pat = PatternIdeal(F, scalars)
    assert pat.epsilon == eps
    d, one = pat.degree, F.one.value
    half = F._value(Fraction(1, 2))
    # a(n) and a(n)/2 reduce to t^n mod alpha and half of it
    expect = {("a", i): F._value(c)
              for i, c in enumerate(_power_mod(alpha, n)) if F._value(c)}
    assert pat.reduce_core({("a", n): one}) == expect
    assert pat.reduce_core({("a", n): half}) == {
        k: c * half % F.characteristic if F.characteristic else c * half
        for k, c in expect.items()}
    # a(-n) reduces to r with t^n r(t) = 1 mod alpha
    r = pat.reduce_core({("a", -n): one})
    back = [Fraction(0)] * d
    for (_, i), c in r.items():
        for t, b in enumerate(_power_mod(alpha, n + i)):
            back[t] += Fraction(c) * b
    assert [F._value(c) for c in back] == [one] + [F.zero.value] * (d - 1)
    # s-, p- and a-inputs on both sides of the window, with denominators
    # over Q, so that one call reduces a-levels above and below the window
    # and runs all three fold walks; s(D/2) alone has an odd numerator at
    # the top 2L of its fold when epsilon = 1
    m = 3 * (n // 3 + 1)
    members = minimal_ideal_basis(F, pat.alpha, m) \
        if n <= 3 * d + 1 else None
    for x in (el.from_terms(F, [(("s", n), Fraction(1, 3)),
                                (("s", n - 1), -2), (("p", 1, m), 1),
                                (("p", 2, m), Fraction(5, 2)),
                                (("a", n), Fraction(2, 9)),
                                (("a", -n), Fraction(-3, 4))]),
              el.sigma(F, d // 2)):
        r = el.Element._of(F, pat.reduce_core(dict(x.terms)))
        assert pat.reduce_core(dict(r.terms)) == r.terms
        assert set(r.terms) <= set(pat.survivor_keys)
        assert pat.reduce(x - r).is_zero()
        if members is not None:
            # x - r lies in the span of the explicit spanning families
            span, keys = Rref(F.characteristic), {}
            for y in members + [x - r]:
                for k in y.terms:
                    keys.setdefault(k, len(keys))
            for y in members:
                span.insert(_coords(y, keys))
            assert not span.insert(_coords(x - r, keys))


# -- reduce_core against the level walk ------------------------------------------

# patterns by name, as Fractions low order first, with the fields to run
# them over: t - 1, t^4 - 1, (1 - t^5)^2, two non-integral palindromes
# (L = 7 and L = 3) and a dense palindrome of degree 12.  Over Q the last
# three have roots off the unit circle, so their remainders grow with the
# subscript and the walk is drawn nearer the window.
_GF = (GF(5), GF(7), GF(11), GF(13))
_WALK_PATTERNS = {
    "t-1": ((-1, 1), (QQ,) + _GF),
    "t4-1": (_ORACLE_PATTERNS["t4-1"][0], (QQ,) + _GF),
    "square": (_ORACLE_PATTERNS["square"][0], (QQ,) + _GF),
    "nonintegral": (_ORACLE_PATTERNS["nonintegral"][0], (QQ,)),
    "thirds": ((1, Fraction(-4, 3), Fraction(2, 3), Fraction(-4, 3), 1),
               (QQ,)),
    "dense": ((1, 2, 3, 4, 5, 6, -42, 6, 5, 4, 3, 2, 1), (QQ,) + _GF),
}
_WALK_CASES = [(name, F) for name, (_, fields) in _WALK_PATTERNS.items()
               for F in fields]
_NEAR = {("nonintegral", QQ), ("thirds", QQ), ("dense", QQ)}


def _pattern_ideal(name, F):
    return PatternIdeal(F, [F.from_fraction(Fraction(c))
                            for c in _WALK_PATTERNS[name][0]])


def _same_up_to_scale(a, b):
    """Integral results: the same keys, and values in one positive ratio."""
    k0 = next(iter(a), None)
    return set(a) == set(b) and all(a[k] * b[k0] == b[k] * a[k0] for k in a)\
        and (k0 is None or a[k0] * b[k0] > 0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduce_core_matches_walk(data):
    # a-levels in clusters on both sides of the window, with gaps on both
    # sides of the crossover from sweeping to powers of t, and s- and
    # p-terms above the cutoff
    name, F = data.draw(st.sampled_from(_WALK_CASES))
    pat = _pattern_ideal(name, F)
    mags = (3, 30, 300) if (name, F) in _NEAR else (3, 30, 300, 3000, 10 ** 4)
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3)))
    raw = []
    for _ in range(data.draw(st.integers(1, 3))):
        mag = data.draw(st.sampled_from(mags))
        centre = data.draw(st.integers(-mag, mag))
        raw += [(("a", centre + off), data.draw(coeff))
                for off in data.draw(st.lists(st.integers(-6, 6), min_size=1,
                                              max_size=4, unique=True))]
    raw += [(("s", j), data.draw(coeff)) for j in data.draw(
        st.lists(st.integers(1, 40), max_size=3, unique=True))]
    raw += [(("p", r, 3 * k), data.draw(coeff)) for r, k in data.draw(
        st.lists(st.tuples(st.integers(1, 2), st.integers(1, 13)),
                 max_size=3, unique=True))]
    terms = el.from_terms(F, raw).terms
    assert pat.reduce_core(dict(terms)) == reduce_core_by_walk(pat, terms)
    got = pat.reduce_core(dict(terms), integral=True)
    assert all(type(c) is int for c in got.values())
    assert _same_up_to_scale(got, reduce_core_by_walk(pat, terms, True))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_j_reduce_matches_walk(data):
    F = data.draw(st.sampled_from((QQ,) + _GF))
    k = data.draw(st.integers(1, 3))
    coeffs = [F.from_fraction(Fraction(data.draw(st.integers(-9, 9)),
                                       data.draw(st.sampled_from((1, 2)))))
              for _ in range(k - 1)] + [F.one]
    J = JIdeal(F, coeffs)
    levels = st.integers(1, 100 if F is QQ else 1000)
    raw = [(("p", data.draw(st.integers(1, 2)), 3 * data.draw(levels)), 1)
           for _ in range(data.draw(st.integers(1, 4)))]
    raw += [(("a", data.draw(st.integers(-50, 50))), 2), (("s", 7), -1)]
    x = el.from_terms(F, raw)
    walk = reduce_core_by_walk(J._folds, {key: c for key, c in x.terms.items()
                                          if key[0] == "p"})
    walk.update((key, c) for key, c in x.terms.items() if key[0] != "p")
    assert J.reduce(x).terms == walk


@pytest.mark.parametrize("name, F", _WALK_CASES, ids=str)
@pytest.mark.parametrize("m", [1, 2, 7, 60, 400])
def test_mirror_identity(name, F, m):
    # alpha is palindromic up to sign, so a(-m) reduces to the reversal of
    # what a(m + D - 1) reduces to, within the window [0, D - 1]
    pat = _pattern_ideal(name, F)
    d, one = pat.degree, F.one.value
    below = pat.reduce_core({("a", -m): one})
    above = pat.reduce_core({("a", m + d - 1): one})
    assert below == {("a", d - 1 - i): c for (_, i), c in above.items()}


def _mulmod(u, v, alpha, p):
    """u v mod alpha over F_p, for int lists low order first and alpha
    monic, by schoolbook product and long division."""
    d = len(alpha) - 1
    r = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            r[i + j] += a * b
    for m in range(len(r) - 1, d - 1, -1):
        if c := r[m] % p:
            for j, a in enumerate(alpha):
                r[m - d + j] -= c * a
    return [c % p for c in (r + [0] * d)[:d]]


@pytest.mark.parametrize("alpha", [
    [1, -1] + [0] * 9 + [-1, 1],  # 1 - t - t^11 + t^12
    [1, 2, 3, 4, 5, 6, -42, 6, 5, 4, 3, 2, 1]], ids=["sparse", "dense"])
def test_far_reads_by_powers(alpha):
    # a(10^9) over GF(7) against a degree-12 pattern: a return to a walk
    # over the levels fails the time bound instead of hanging
    F, n = GF(7), 10 ** 9
    pat = PatternIdeal(F, [F.scalar(c) for c in alpha])
    alpha, d = [c % 7 for c in alpha], pat.degree

    def read(m):
        r = pat.reduce_core({("a", m): 1})
        return [r.get(("a", i), 0) for i in range(d)]

    with bounded(10, 2 ** 20):
        r, r2, r_inv = read(n), read(2 * n), read(-n)
    assert r2 == _mulmod(r, r, alpha, 7)
    assert _mulmod(r, r_inv, alpha, 7) == [1] + [0] * (d - 1)


def _coords(y, keys):
    """``{column: value}`` of y, with a column per key in ``keys``."""
    return {keys[k]: c for k, c in y.terms.items()}


def test_reduce_rejects_another_field():
    F7, F5 = GF(7), GF(5)
    ideal = ideal_of([A(F7, 0) - A(F7, 4)])
    in_j = ideal_of([P(F7, 1, 6) - P(F7, 1, 9)])
    for reduce in (ideal.reduce, ideal.contains, ideal.pattern.reduce,
                   in_j.reduce, in_j.j_ideal.reduce,
                   ideal_of([el.zero(F7)]).reduce,
                   ideal_of([A(F7, 0)]).reduce):
        for x in (A(F5, 9), P(F5, 1, 3), A(QQ, 1)):
            with pytest.raises(FieldMismatchError):
                reduce(x)


# -- classification of generated ideals ----------------------------------------------

@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("n", [6, 16, 30])
def test_family_classification_inserts_stay_few(monkeypatch, F, n):
    # a gcd round's closure stops at its first pure-a member, so a round
    # that only shrinks the pattern inserts a few rows, however large n
    calls = []
    insert = Rref.insert

    def counting(self, v):
        calls.append(v)
        return insert(self, v)

    monkeypatch.setattr(Rref, "insert", counting)
    for g in (A(F, 0) - A(F, n),
              A(F, 0).scale(F.scalar(2)) - A(F, -n) - A(F, n)):
        calls.clear()
        assert ideal_of([g]).kind == "pattern"
        assert len(calls) <= 16


def test_ideal_of_passes_each_pattern_once(monkeypatch):
    import highwater.ideals as ideals
    from test_ideal_fingerprint import sweep
    rounds = []
    gcd = ideals._gcd

    def spy(p, items):
        for pat, _ in items:
            _assert_primitive(p, pat)
        rounds.append([pat for pat, _ in items])
        return gcd(p, items)

    # ideal_of runs the untracked gcd, not laurent_gcd
    monkeypatch.setattr(ideals, "_gcd", spy)
    for _, gens in sweep():
        ideal_of(gens)
    assert rounds
    assert all(len(set(pats)) == len(pats) for pats in rounds)


def test_zero_and_full(field):
    assert ideal_of([el.zero(field)]).kind == "zero"
    full = ideal_of([A(field, 0)])
    assert full.kind == "full"
    assert full.contains(A(field, 7))


def test_nonzero_weight_is_full(field):
    rng = random.Random(19)
    for _ in range(5):
        g = random_element(field, rng)
        if g.weight():
            assert ideal_of([g]).kind == "full"


def test_difference_ideal_summaries(field):
    p = field.characteristic
    for n in range(1, 9):
        ideal = ideal_of([A(field, 0) - A(field, n)])
        s = ideal.summary()
        assert s["kind"] == "pattern"
        assert s["extension_dim"] == 0
        want = n + n // 2 + (2 * (n // 6) if n % 3 == 0 else 0)
        assert s["quotient_dim"] == want
        # the period-3 ideal swallows the whole p-span even though its
        # residue sums vanish; for larger multiples of 3 the p-span survives
        assert s["contains_j"] == (n % 3 != 0 or n == 3)


def test_in_j_classification(field):
    ideal = ideal_of([P(field, 1, 6) - P(field, 1, 9)])
    assert ideal.kind == "in_j"
    assert not ideal.contains(A(field, 0))


def test_extension_example(field):
    # the degree-3 generator with a one-dimensional extension
    v1 = el.v_elem(field, 1)
    ideal = ideal_of([v1])
    s = ideal.summary()
    assert s["quotient_dim"] == 3 and s["extension_dim"] == 1
    assert membership(v1, ideal)
    # it contains the plain difference-pattern ideal of the same degree
    gen = A(field, 0) - A(field, 1).scale(field.scalar(3)) \
        + A(field, 2).scale(field.scalar(3)) - A(field, 3)
    assert membership(gen, ideal)
    assert not membership(v1, ideal_of([gen]))


def test_pattern_divisible_by_t3_minus_1_is_closed():
    # g's pattern has every residue sum zero, so t^3 - 1 divides it; the
    # span of its families is not closed: g * a(1) leaves -p(1,3) - 2p(2,3)
    # behind unless the closure is seeded with the other residue classes
    g = el.from_terms(QQ, [(("a", i), c) for i, c in
                           ((0, -1), (1, 1), (2, 1), (4, -1), (5, -1), (6, 1))])
    ideal = ideal_of([g])
    assert ideal.contains(g * A(QQ, 1))
    assert ideal.summary() == ideal_of([g, g * A(QQ, 1)]).summary()


# two extension shapes that the golden files do not hold: a proper
# extension of a degree-3 pattern ideal that contains J, and a degree-14
# pattern whose extension is p(1,6) and p(2,6) while J is not inside
EXTENSION_SHAPES = [
    (5, ["a(-2) + a(1) + 3*a(2) + 2*s(6)"],
     {"pattern": ["4", "3", "2", "1"], "epsilon": -1, "contains_j": True,
      "extension_dim": 1, "quotient_dim": 3},
     [{0: 1, 1: 3, 2: 1, 3: 2}]),
    (7, ["6*p(2,6)", "2*s(5) + 5*s(7) + 3*p(2,6)"],
     {"pattern": ["1", "0", "6"] + ["0"] * 9 + ["6", "0", "1"], "epsilon": 1,
      "contains_j": False, "extension_dim": 2, "quotient_dim": 22},
     [{22: 1}, {23: 1}]),
]


@pytest.mark.parametrize("p, gens, want, rows", EXTENSION_SHAPES,
                         ids=["GF5", "GF7"])
def test_extension_shapes(p, gens, want, rows):
    F = GF(p)
    gens = [parse_element(F, g) for g in gens]
    ideal = ideal_of(gens)
    assert ideal.summary() == dict(kind="pattern", characteristic=p, **want)
    assert ideal.pattern.extension_rows == rows
    assert FiniteAlgebra(ideal).dim == want["quotient_dim"]
    # the ideal is tau(1)-invariant: the images add nothing
    more = ideal_of(gens + [el.apply(el.tau(1), g) for g in gens])
    assert more.summary() == ideal.summary()
    assert more.pattern.extension_rows == rows
    assert aut_invariance_check(ideal, 6)["ok"]


def test_closure_is_seeded_with_the_generators(monkeypatch):
    # the pool comes from the generators alone: no product, no tau(1); the
    # closure starts from them, plus p-folds when t^3 - 1 divides a pattern
    import highwater.ideals as ideals
    applied, seeded, products = [], [], []
    apply_, closure_, mul_ = el.apply, ideals._closure, el.Element.__mul__
    monkeypatch.setattr(el, "apply",
                        lambda aut, x: applied.append(aut) or apply_(aut, x))
    monkeypatch.setattr(ideals, "_closure", lambda ideal, seeds: (
        seeded.append(list(seeds)) or closure_(ideal, seeds)))
    monkeypatch.setattr(el.Element, "__mul__",
                        lambda x, y: products.append(y) or mul_(x, y))
    for F in (QQ, GF(7)):
        gens = [A(F, 0) - A(F, 2) + S(F, 1), A(F, 1) - A(F, 7) + P(F, 1, 3),
                P(F, 2, 6)]
        seeded.clear()
        assert ideal_of(gens).kind == "pattern"
        assert seeded and all(seeds[:3] == gens for seeds in seeded)
        assert all(x.in_p_span() for seeds in seeded for x in seeds[3:])
    assert el.tau(1) not in applied and not products


def _zero_sum_palindromes(p, max_degree):
    """Every monic pattern over F_p of degree <= max_degree that is
    palindromic up to sign and has sum 0."""
    for d in range(1, max_degree + 1):
        for eps in (1, -1):
            free = list(range(1, (d + 1) // 2))
            if d % 2 == 0 and eps == 1:
                free.append(d // 2)  # the middle; 0 when eps is -1
            for vals in product(range(p), repeat=len(free)):
                a = [eps % p] + [0] * (d - 1) + [1]
                for i, v in zip(free, vals):
                    a[i], a[d - i] = v, eps * v % p
                if not sum(a) % p:
                    yield a


@pytest.mark.parametrize("p, max_degree, count", [(5, 8, 499), (7, 6, 179)])
def test_zero_sum_pattern_sweep(p, max_degree, count):
    # every pattern ideal (g) of this class contains g * a(j), and adding
    # g * a(1) as a generator changes nothing
    F, seen = GF(p), 0
    for a in _zero_sum_palindromes(p, max_degree):
        g = el.from_terms(F, [(("a", i), c) for i, c in enumerate(a) if c])
        ideal = ideal_of([g])
        assert ideal.kind == "pattern"
        for j in range(-3, len(a) + 3):
            assert ideal.contains(g * A(F, j)), (a, j)
        assert ideal.summary() == ideal_of([g, g * A(F, 1)]).summary(), a
        seen += 1
    assert seen == count


def test_membership_of_generators_and_products(field):
    rng = random.Random(23)
    for _ in range(10):
        g = random_element(field, rng, support=5)
        ideal = ideal_of([g])
        assert ideal.contains(g)
        y = random_element(field, rng, support=4)
        assert ideal.contains(g * y)


def test_axis_never_in_proper_ideal(field):
    rng = random.Random(29)
    for _ in range(15):
        g = random_element(field, rng, support=5)
        g = g - A(field, 6).scale(g.weight())
        ideal = ideal_of([g])
        if ideal.is_proper():
            assert not membership(A(field, 0), ideal)


def test_aut_invariance(field):
    rng = random.Random(41)
    for _ in range(5):
        g = random_element(field, rng, support=4)
        rep = aut_invariance_check(ideal_of([g]), sample_bound=6)
        assert rep["ok"], rep


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("alpha", [(2, 0, 1), (1, 3, -3, 1), (1, 0, 1)])
def test_pattern_must_be_a_monic_palindrome(F, alpha):
    # alpha_0 = 2 is no sign; (1, 3, -3, 1) is (t - 1)^3, palindromic up
    # to -1, with alpha_0 flipped to +1; (1, 0, 1) sums to 2, and the
    # ideal of a(0) + a(2) is the whole algebra
    with pytest.raises(IdealArgumentError):
        PatternIdeal(F, [F.from_fraction(c) for c in alpha])
    with pytest.raises(IdealArgumentError):
        minimal_ideal_basis(F, alpha, 6)


def test_pattern_ideal_rejects_scalars_of_another_field():
    # GF(7)'s -1 has value 6 and Q's is a Fraction: neither is a GF(5) value
    for minus_one in (GF(7).scalar(-1), QQ.scalar(-1)):
        with pytest.raises(FieldMismatchError):
            PatternIdeal(GF(5), [minus_one, GF(5).one])
    with pytest.raises(TypeError):
        PatternIdeal(GF(5), [4, GF(5).one])


def test_ideal_of_reads_generators_once():
    # any iterable of Elements will do; anything else is a TypeError
    assert ideal_of(iter([el.zero(QQ)])).kind == "zero"
    assert ideal_of(A(QQ, i) for i in (0, 4)).kind == "full"
    with pytest.raises(IdealArgumentError):
        ideal_of(iter([]))
    for gens in ([A(QQ, 0), 3], [3, A(QQ, 0)], [el.zero(QQ), "a(0)"]):
        with pytest.raises(TypeError):
            ideal_of(gens)


def test_bad_arguments():
    with pytest.raises(IdealArgumentError):
        JIdeal(QQ, (QQ.one, QQ.zero))  # not monic
    with pytest.raises(IdealArgumentError):
        j_canonicalize(A(QQ, 0))  # not inside the p-span
    with pytest.raises(IdealArgumentError):
        PatternIdeal(QQ, (QQ.one,))


@pytest.mark.parametrize("make, error", [
    (lambda: fold(S(QQ, 1), 0), IdealArgumentError),  # not pure-a
    (lambda: fold(A(QQ, 0), 0), IdealArgumentError),  # weight 1
    (lambda: pure_a_extract(P(QQ, 1, 3)), IdealArgumentError),
    (lambda: laurent_gcd(QQ, [[0, 0], []]), IdealArgumentError),
    (lambda: j_ideal_of([el.zero(QQ)]), IdealArgumentError),
    (lambda: j_ideal_of([P(QQ, 1, 3), A(QQ, 0)]), IdealArgumentError),
    (lambda: JIdeal(QQ, (1, 2)), TypeError),
    (lambda: JIdeal(QQ, (QQ.one, GF(5).one)), FieldMismatchError),
], ids=["fold_not_pure_a", "fold_weight", "extract_in_j", "gcd_all_zero",
        "j_no_generator", "j_outside", "j_int", "j_other_field"])
def test_bad_input_raises(make, error):
    with pytest.raises(error):
        make()
