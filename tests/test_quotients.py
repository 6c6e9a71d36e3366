import random
from fractions import Fraction

import pytest

import highwater.elements as el
import highwater.linalg as linalg
import highwater.quotients as quotients
from highwater import GF, QQ, FieldMismatchError
from highwater.eigen import EigenDecomposition, fusion_law
from highwater.ideals import IdealArgumentError, IdealData, ideal_of
from highwater.quotients import (AxisOrbit, FiniteAlgebra, QuotientError,
                                 axis_orbit, eigenspace_split, family_Hn,
                                 family_Ln, small_quotient_suite)

from conftest import random_element
from oracle import (adjoint, brute_force_group, eigenspace_split_dense,
                    mat_mul, mat_vec, miyamoto_matrix, vec_scale)
from test_ideal_fingerprint import ideals as sweep_ideals


def A(F, i):
    return el.axis(F, i)


# -- construction and errors --------------------------------------------------------

def test_quotient_rejects_infinite_codimension(field):
    with pytest.raises(QuotientError):
        FiniteAlgebra(ideal_of([el.zero(field)]))
    in_j = ideal_of([el.pi(field, 1, 6) - el.pi(field, 1, 9)])
    with pytest.raises(QuotientError):
        FiniteAlgebra(in_j)
    # the radical-relative quotient is fine
    q = FiniteAlgebra(in_j, j_relative=True)
    assert q.dim == in_j.j_ideal.codim_in_j


def test_j_relative_quotient_rejects_ideals_outside_j(field):
    # a pattern ideal and the full ideal have no quotient inside J
    for gens in ([A(field, 0) - A(field, 3)], [A(field, 0)]):
        with pytest.raises(QuotientError, match="j_relative"):
            FiniteAlgebra(ideal_of(gens), j_relative=True)


def test_j_relative_quotient_rejects_keys_outside_j(field):
    q = FiniteAlgebra(ideal_of([el.pi(field, 1, 12)]), j_relative=True)
    memo = dict(q._images)
    for call in (lambda: q.to_vector(A(field, 0)), lambda: axis_orbit(q, 5)):
        with pytest.raises(QuotientError, match="outside the quotient basis"):
            call()
    assert q._images == memo  # no partial image was kept


def test_full_ideal_gives_zero_algebra(field):
    q = FiniteAlgebra(ideal_of([A(field, 0)]))
    assert q.dim == 0


def test_to_vector_rejects_another_field():
    q = FiniteAlgebra(ideal_of([A(GF(7), 0) - A(GF(7), 4)]))
    for x in (A(GF(5), 3), A(QQ, 3)):
        with pytest.raises(FieldMismatchError):
            q.to_vector(x)


def test_coordinate_vectors_of_wrong_length_raise(field):
    q = family_Hn(2, field)
    one, zero = field.one.value, field.zero.value
    good = [one, zero, zero]
    for bad in ([one], [one, zero], good + [one]):
        for call in (lambda: q.mult(bad, good), lambda: q.mult(good, bad),
                     lambda: q.weight(bad)):
            with pytest.raises(QuotientError):
                call()
    assert q.mult(good, good) == good


def test_from_vector_reduces_entries_into_the_field():
    F = GF(5)
    q = family_Hn(2, F)
    assert q.from_vector([-1, 0, 0]) == q.from_vector([4, 0, 0])
    assert q.from_vector([5, 0, 0]).is_zero()
    assert q.from_vector([Fraction(1, 2), 0, 0]) == q.from_vector([3, 0, 0])
    x = q.from_vector([-1, 7, 0])
    assert all(type(c) is int and 0 < c < 5 for c in x.terms.values())
    assert x * x == q.from_vector([4, 2, 0]) * q.from_vector([4, 2, 0])
    assert q.weight([-1, 0, 0]) == q.weight([4, 0, 0]) == F.scalar(4)
    for bad in ([F.one, F.zero, F.zero], [0.5, 0, 0]):
        with pytest.raises(TypeError, match="int or Fraction"):
            q.from_vector(bad)
    x = family_Hn(2, QQ).from_vector([2, Fraction(-1, 2), 0])
    assert x.terms == {("a", 0): 2, ("a", 1): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in x.terms.values())


def test_small_quotient_basis():
    q = FiniteAlgebra(ideal_of([A(QQ, 0) - A(QQ, 2)]))
    assert q.dim == 3
    assert set(q.basis_keys) == {("a", 0), ("a", 1), ("s", 1)}


def test_family_dimensions(field):
    for n in range(1, 7):
        assert family_Hn(n, field, collapse_j=True).dim == n + n // 2
        assert family_Ln(n, field, collapse_j=True).dim == 3 * n - 1


def test_family_dimensions_with_p_span():
    assert family_Hn(6, QQ).dim == 11
    assert family_Ln(6, QQ).dim == 19
    assert family_Hn(6, GF(5)).dim == 11
    # the n = 3 double-axis ideal swallows the p-span in every characteristic
    assert family_Ln(3, GF(5)).dim == 8
    assert family_Ln(6, GF(5)).dim == 19


def _in_j_generators(F):
    P = lambda r, k: el.pi(F, r, k)
    return [[P(1, 12)], [P(1, 6) - P(1, 9)],
            [P(1, 3).scale(F.scalar(2)) + P(2, 9) - P(1, 15)],
            [P(1, 9) - P(2, 12), P(2, 18)]]


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7), GF(11), GF(13)], ids=str)
def test_structure_matches_product_images(F):
    # the table, built from once-reduced key images, agrees entry by entry
    # with reducing each product of basis labels
    sources = [ideal for ideal in sweep_ideals().values()
               if ideal.field is F and ideal.kind != "zero"]
    sources += [ideal_of(gens) for gens in _in_j_generators(F)]
    seen = set()
    for ideal in sources:
        q = FiniteAlgebra(ideal, j_relative=ideal.kind == "in_j")
        labels = q.basis_labels
        for i in range(q.dim):
            for j in range(i, q.dim):
                img = q.to_vector(labels[i] * labels[j])
                assert q.structure[(i, j)] == {
                    t: c for t, c in enumerate(img) if c}
        seen.add("extension" if ideal.kind == "pattern"
                 and ideal.pattern.extension_rows else ideal.kind)
    assert seen == {"extension", "pattern", "full", "in_j"}


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("n", [16, 30])
def test_table_reduces_few_keys(monkeypatch, F, n):
    # construction reduces no key; the first table read reduces each
    # distinct key of the products once, not each product
    calls = []
    reduce = IdealData.reduce

    def counting(self, x):
        calls.append(x)
        return reduce(self, x)

    for g in (A(F, 0) - A(F, n),
              A(F, 0).scale(F.scalar(2)) - A(F, -n) - A(F, n)):
        ideal = ideal_of([g])
        monkeypatch.setattr(IdealData, "reduce", counting)
        calls.clear()
        q = FiniteAlgebra(ideal)
        assert q.dim > 1 and not calls
        assert len(q.structure) == q.dim * (q.dim + 1) // 2
        assert len(calls) <= 2 * q.dim + 2
        # the orbit that follows reduces only axes the table did not image
        imaged = set(q._images)
        calls.clear()
        axis_orbit(q, cutoff=30)
        monkeypatch.undo()
        keys = [k for x in calls for k in x.terms]
        assert len(keys) == len(calls) == len(set(keys))
        assert all(k[0] == "a" and k not in imaged for k in keys)


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
def test_structure_is_built_on_first_read(F):
    # dimension, coordinates and axis images leave the table unbuilt
    q = family_Ln(30, F)
    assert q.dim > 1
    q.to_vector(A(F, 0) * A(F, 7))
    axis_orbit(q, cutoff=40)
    assert "structure" not in vars(q)
    # one product builds the whole table, once
    e0 = q.to_vector(A(F, 0))
    assert q.mult(e0, e0) == e0
    table = vars(q)["structure"]
    assert len(table) == q.dim * (q.dim + 1) // 2
    adjoint(q, e0)
    assert q.structure is table


def _far_element(F, rng, p_only):
    terms = []
    for _ in range(rng.randint(2, 6)):
        far = rng.randint(200, 1000)
        kind = "p" if p_only else rng.choice("aasp")
        if kind == "a":
            key = ("a", rng.choice((-1, 1)) * far)
        elif kind == "s":
            key = ("s", far)
        else:
            key = ("p", rng.randint(1, 2), 3 * (far // 3))
        terms.append((key, Fraction(rng.randint(-9, 9),
                                    rng.choice([1, 2, 3]))))
    return el.from_terms(F, terms)


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7), GF(11), GF(13)], ids=str)
def test_to_vector_through_key_memo_matches_reduce(F):
    # to_vector sums memoised key images; reduction is linear, so it agrees
    # with reducing the whole element, also for keys first seen after the
    # table was built
    rng = random.Random(97 + F.characteristic)
    P = lambda r, k: el.pi(F, r, k)
    sources = [(ideal_of([A(F, 0) - A(F, 6) + P(1, 3)]), False),
               (ideal_of([A(F, 0).scale(F.scalar(2)) - A(F, -5) - A(F, 5)]),
                False),
               (ideal_of([P(1, 9) - P(2, 12), P(2, 18)]), True)]
    for ideal, j_relative in sources:
        q = FiniteAlgebra(ideal, j_relative=j_relative)
        zero, fresh = F.zero.value, 0
        for _ in range(6):
            x = _far_element(F, rng, p_only=j_relative)
            fresh += any(k not in q._images for k in x.terms)
            want = [ideal.reduce(x).terms.get(k, zero) for k in q.basis_keys]
            assert q.to_vector(x) == want
            assert q.to_vector(x) == want  # now every key from the memo
        assert fresh


# -- the homomorphism property -------------------------------------------------------

def test_quotient_map_is_homomorphism(field):
    rng = random.Random(61)
    ideals = [ideal_of([A(field, 0) - A(field, 4)]),
              ideal_of([el.v_elem(field, 1)])]
    for ideal in ideals:
        q = FiniteAlgebra(ideal)
        for _ in range(8):
            x = random_element(field, rng, support=6, index_bound=9)
            y = random_element(field, rng, support=6, index_bound=9)
            assert q.to_vector(x * y) == q.mult(q.to_vector(x),
                                                q.to_vector(y))
            # reduction before multiplying gives the same class
            assert ideal.reduce(x * y) == ideal.reduce(
                ideal.reduce(x) * ideal.reduce(y))


def test_weight_descends(field):
    q = family_Hn(4, field)
    rng = random.Random(67)
    for _ in range(8):
        x = random_element(field, rng, support=6)
        assert q.weight(q.to_vector(x)) == x.weight()
    assert q.weight(q.to_vector(A(field, 9))) == field.one


def test_axis_images_are_idempotent(field):
    q = family_Ln(2, field)
    for i in (0, 1, 5):
        v = q.to_vector(A(field, i))
        assert q.mult(v, v) == v


# -- induced automorphisms and fusion -----------------------------------------------

def test_generator_swap_induces_automorphism(field):
    for q in (family_Hn(3, field), family_Ln(2, field),
              FiniteAlgebra(ideal_of([el.v_elem(field, 1)]))):
        m = q.induced_map(el.tau(1))
        assert m is not None


def test_axis_eigenvalues_lie_in_fusion_set(field):
    values = {field.one, field.scalar(5, 2), field.zero, field.scalar(2),
              field.scalar(1, 2)}
    for q in (family_Hn(4, field), family_Ln(2, field)):
        for i in (0, 1):
            spaces = eigenspace_split(q, i)
            assert spaces is not None
            assert set(spaces) <= values
            # primitivity: the 1-eigenspace is the span of the axis image
            assert len(spaces[field.one]) == 1


def test_induced_map_is_none_when_not_multiplicative(field):
    # a table entry that no longer matches the product breaks the check
    q = family_Hn(3, field)
    assert q.induced_map(el.tau(0)) is not None
    assert q.basis_keys[:2] == [("a", 0), ("a", 1)]
    vars(q)["structure"][(0, 0)] = {1: field.one.value}  # a(0)^2 = a(1)
    assert q.induced_map(el.tau(0)) is None
    assert q.induced_map(el.tau(1)) is None


# -- eigenspaces as images of the cover's --------------------------------------------

SPLIT_FIELDS = [QQ, GF(5), GF(7), GF(11), GF(13)]


def _span(F, vecs):
    rr = linalg.Rref(F.characteristic)
    for v in vecs:
        rr.insert({t: c for t, c in enumerate(v) if c})
    return rr.rows


def _assert_split_matches_dense(q, i):
    F = q.field
    spaces = eigenspace_split(q, i)
    dense = eigenspace_split_dense(q, q.to_vector(A(F, i)))
    assert spaces is not None and dense is not None
    assert list(spaces) == list(dense)
    for lam, basis in spaces.items():
        assert len(_span(F, basis)) == len(basis)
        assert _span(F, basis) == _span(F, dense[lam])


@pytest.mark.parametrize("F", SPLIT_FIELDS, ids=str)
def test_eigenspace_split_matches_dense_on_families(F):
    cases = 0
    for family in (family_Hn, family_Ln):
        for n in range(1, 10):
            for collapse_j in (False, True):
                q = family(n, F, collapse_j=collapse_j)
                for i in (0, 1, 2):
                    _assert_split_matches_dense(q, i)
                    cases += 1
    assert cases == 108


def test_eigenspace_split_matches_dense_on_sweep_quotients():
    cases = 0
    for ideal in sweep_ideals().values():
        if ideal.kind == "pattern" and ideal.summary()["quotient_dim"] <= 30:
            q = FiniteAlgebra(ideal)
            for i in (0, 1):
                _assert_split_matches_dense(q, i)
                cases += 1
    assert cases == 802


def test_eigenspace_split_reads_no_table(field):
    q = family_Ln(9, field)
    assert eigenspace_split(q, 1) is not None
    assert "structure" not in vars(q)


def test_eigenspace_split_none_when_spans_overlap(monkeypatch, field):
    # one component copied into a second eigenvalue lies in two spans
    real, values = quotients.eigendecompose, fusion_law(field).values

    def doubled(x, i):
        dec = real(x, i)
        comps = dict(dec.components)
        free = [v for v in values if v not in comps]
        if free:
            comps[free[0]] = next(iter(comps.values()))
        return EigenDecomposition(dec.axis_index, comps, dec.residual)

    q = family_Hn(4, field)
    assert eigenspace_split(q, 0) is not None
    monkeypatch.setattr(quotients, "eigendecompose", doubled)
    assert eigenspace_split(q, 0) is None


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7)], ids=str)
def test_eigenspace_split_of_j_relative_quotient(F):
    # a(i) is outside J, so it has no coordinates here, but ad a(i) acts
    P = lambda r, k: el.pi(F, r, k)
    q = FiniteAlgebra(ideal_of([P(1, 3) - P(1, 9)]), j_relative=True)
    with pytest.raises(QuotientError):
        q.to_vector(A(F, 0))
    for i in (0, 1, 2):
        spaces = eigenspace_split(q, i)
        assert list(spaces) == [F.scalar(5, 2), F.scalar(1, 2)]
        assert [len(b) for b in spaces.values()] == [2, 2] and q.dim == 4
        for lam, basis in spaces.items():
            for b in basis:
                x = q.from_vector(b)
                assert q.to_vector(A(F, i) * x) == q.to_vector(x.scale(lam))


def test_miyamoto_matrix_is_involution(field):
    q = family_Hn(5, field)
    v = q.to_vector(A(field, 0))
    m = miyamoto_matrix(q, v)
    assert m is not None
    n = q.dim
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    assert mat_mul(m, m, field) == ident


# -- axis orbits ---------------------------------------------------------------------

def test_orbit_periodic_family():
    o = axis_orbit(family_Hn(3, QQ, collapse_j=True), 20)
    assert o.closed and len(o.axes) == 3


def test_orbit_double_axis_char5():
    o = axis_orbit(family_Ln(1, GF(5), collapse_j=True), 20)
    assert o.closed and len(o.axes) == 5
    assert o.miyamoto_group_order == 10


def test_orbit_double_axis_char0_open():
    o = axis_orbit(family_Ln(1, QQ, collapse_j=True), 50)
    assert not o.closed
    assert o.miyamoto_group_order == "unbounded at cutoff"


def test_orbit_axes_are_idempotent(field):
    q = family_Hn(4, field, collapse_j=True)
    o = axis_orbit(q, 20)
    assert o.closed
    for v in o.axes:
        assert q.mult(v, v) == v


# (family, n, field, (closed, axis count, Miyamoto group order)); H_n
# collapses the p-span, L_n does not
ORBITS = [
    ("H", 2, GF(5), (True, 2, 1)),
    ("H", 3, GF(5), (True, 3, 6)),
    ("H", 4, GF(7), (True, 4, 4)),
    ("L", 1, GF(7), (True, 7, 14)),
    ("L", 2, GF(5), (True, 10, 10)),
]
ORBIT_IDS = [f"{f}{n}@{F.characteristic}" for f, n, F, _ in ORBITS]


def _orbit_quotient(family, n, F):
    if family == "H":
        return family_Hn(n, F, collapse_j=True)
    return family_Ln(n, F)


@pytest.mark.parametrize("family,n,F,want", ORBITS, ids=ORBIT_IDS)
def test_orbit_size_and_group_order(family, n, F, want):
    o = axis_orbit(_orbit_quotient(family, n, F), 30)
    assert (o.closed, len(o.axes), o.miyamoto_group_order) == want


@pytest.mark.parametrize("family,n,F,want", ORBITS, ids=ORBIT_IDS)
def test_every_orbit_axis_permutes_the_orbit(family, n, F, want):
    q = _orbit_quotient(family, n, F)
    o = axis_orbit(q, 30)
    assert o.closed
    orbit = {tuple(v) for v in o.axes}
    for v in o.axes:
        m = miyamoto_matrix(q, v)
        assert m is not None
        assert {tuple(mat_vec(m, w, F)) for w in o.axes} == orbit


@pytest.mark.parametrize("family,n,F,want", ORBITS, ids=ORBIT_IDS)
def test_orbit_builds_no_matrix(monkeypatch, family, n, F, want):
    q = _orbit_quotient(family, n, F)

    def boom(*args, **kwargs):
        raise AssertionError("matrix or eigen work on the orbit path")

    monkeypatch.setattr(FiniteAlgebra, "induced_map", boom)
    monkeypatch.setattr(quotients, "eigendecompose", boom)
    monkeypatch.setattr(linalg.Rref, "insert", boom)
    o = axis_orbit(q, 30)
    assert (o.closed, len(o.axes), o.miyamoto_group_order) == want


def _brute_force_quotients(F):
    # H_n collapses the p-span; Hhat_n and Lhat_n keep it.  Over Q the
    # Lhat_n groups are infinite and the brute force climbs to its cap
    # through ever larger fractions (0.8 s for Lhat_3, 3.4 s for Lhat_5),
    # so Q stops at 2
    top_l = 9 if F.characteristic else 2
    return ([family_Hn(n, F, collapse_j=True) for n in range(1, 7)]
            + [family_Hn(n, F) for n in range(1, 10)]
            + [family_Ln(n, F, collapse_j=True) for n in (1, 2)]
            + [family_Ln(n, F) for n in range(1, top_l + 1)])


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7), GF(11)],
                         ids=["char0", "char5", "char7", "char11"])
def test_orbit_matches_brute_force_group(F):
    for q in _brute_force_quotients(F):
        o = axis_orbit(q, 30)
        group = brute_force_group(q, 200)
        if group is None:
            assert not o.closed
            assert o.miyamoto_group_order == "unbounded at cutoff"
            continue
        gens = [q.to_vector(A(F, i)) for i in (0, 1)]
        orbit = {tuple(mat_vec(g, v, F)) for g in group for v in gens}
        assert o.closed == (len(orbit) <= 30)
        if o.closed:
            assert len(o.axes) == len(orbit)
            assert {tuple(v) for v in o.axes} == orbit
            assert o.miyamoto_group_order == len(group)


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7), GF(11)],
                         ids=["char0", "char5", "char7", "char11"])
def test_orbit_lists_axes_in_subscript_order(F):
    # a closed orbit of n axes is the images of a(0), ..., a(n - 1), an
    # open one those of a(0), ..., a(cutoff); either way pairwise distinct
    seen = set()
    for q in _brute_force_quotients(F):
        for cutoff in (0, 2, 5, 30):
            o = axis_orbit(q, cutoff)
            n = len(o.axes)
            assert o.axes == [q.to_vector(A(F, i)) for i in range(n)]
            assert len({tuple(v) for v in o.axes}) == n
            if o.closed:
                assert n <= cutoff
                assert q.to_vector(A(F, n)) == o.axes[0]
            else:
                assert n == cutoff + 1
            seen.add(o.closed)
    assert seen == {True, False}


def test_miyamoto_matrix_negates_exactly_the_half_space(field):
    half = field.scalar(1, 2)
    for q in (family_Hn(4, field), family_Ln(2, field),
              family_Hn(5, field, collapse_j=True)):
        for i in (0, 1, 2):
            v = q.to_vector(A(field, i))
            m = miyamoto_matrix(q, v)
            spaces = eigenspace_split(q, i)
            assert m is not None and spaces is not None
            for lam, basis in spaces.items():
                sign = -1 if lam == half else 1
                for b in basis:
                    assert mat_vec(m, b, field) == \
                        vec_scale(b, sign, field.characteristic)


@pytest.mark.parametrize("F", [QQ, GF(5)], ids=["char0", "char5"])
def test_miyamoto_matrix_none_without_total_decomposition(F):
    q = family_Hn(3, F, collapse_j=True)
    assert miyamoto_matrix(q, q.to_vector(A(F, 0).scale(F.scalar(2)))) is None


# -- the exceptional-quotient suite ---------------------------------------------------

def test_small_quotient_suite_passes(field):
    entries = small_quotient_suite(field)
    bad = [e for e in entries if not e["ok"]]
    assert not bad, bad
    names = {e["case"] for e in entries}
    assert len(entries) == 8
    p = field.characteristic
    for e in entries:
        if e["case"] == "char7_even_product":
            assert ("skipped" in e) == (p != 7)
        if e["case"] == "char5_mixed_generator":
            assert ("skipped" in e) == (p != 5)


@pytest.mark.parametrize("family", [family_Hn, family_Ln], ids=["H", "L"])
@pytest.mark.parametrize("n", [0, -2])
def test_family_index_below_one_raises(family, n):
    with pytest.raises(IdealArgumentError):
        family(n, QQ)
