"""Brute-force references, kept out of the engine.

``axis_orbit`` reads the orbit and the group order off the axis images
and builds no matrix.  The tests check it against the matrices here: the
Miyamoto involution of an axis image from its adjoint, and the group
that the involutions of a(0) and a(1) generate.

``j_ideal_of`` reads the tuple of an ideal inside J off one polynomial
gcd.  The tests check it against ``j_tuple_by_refinement``, which works
on elements alone: it symmetrises a generator by reflections into a
pure-residue-1 member, and refines by the remainders of the generators
against the multiples s(j) * g and their tau(0) images.

``pure_a_extract`` takes the pure-a member h - theta(3) h, and theta(3) is
the one map outside the Miyamoto group that ``ideal_of`` applies.  The
tests check it against ``pure_a_by_miyamoto``, which takes h - theta(6) h
for theta(6) = tau(6) tau(0): a composite of two Miyamoto involutions,
which keep every ideal.

``PatternIdeal.reduce_core`` takes the a-part as its remainder mod the
pattern, by synthetic division over near levels and powers of t across
far gaps, and maps levels below the window onto levels above it by the
palindromy of the pattern.  The tests check it against
``reduce_core_by_walk``, which cancels one level at a time, on both sides
of the window, by shifts of the pattern element.

``eigendecompose`` expands each component on integers from one slot shape
per family, read off the family's constructor once.  The tests check it
against ``eigendecompose_by_families``, which accumulates the eigenvector
elements that the constructors of ``FAMILIES`` build at every slice.

``fusion_check`` splits each product of eigenvectors on integers, as a
nonzero multiple of the product that never becomes an ``Element``.  The
tests check it against ``fusion_check_by_elements``, which multiplies the
eigenvector elements and decomposes each product with ``eigendecompose``.
"""

from fractions import Fraction
from math import gcd, lcm

import highwater.elements as el
from highwater import linalg
from highwater.ideals import _fold
from highwater.eigen import (FAMILIES, EigenDecomposition, eigendecompose,
                             fusion_law)
from highwater.fields import Scalar
from highwater.quotients import _identity, _shift


def mat_mul(a, b, field):
    cols = list(zip(*b)) if b else []
    return [linalg.mat_vec(cols, row, field) for row in a]


def miyamoto_matrix(q, axis_vec):
    """The involution negating the half-eigenspace of an axis image.

    It is I - 2E, where E, the projection onto the 1/2-eigenspace, is the
    Lagrange product of (ad - mu*I)/(1/2 - mu) over the other values mu
    of the fusion law.  None when ad has no total eigendecomposition,
    that is when the product of (ad - mu*I) over all values is not zero.
    """
    field = q.field
    p = field.characteristic
    ad = q.adjoint(axis_vec)
    half = field.scalar(1, 2)
    proj = _identity(field, q.dim)
    for mu in fusion_law(field).values:
        if mu != half:
            c = (half - mu).inverse().value
            proj = [linalg.vec_scale(row, c, p) for row in
                    mat_mul(proj, _shift(ad, mu), field)]
    if any(map(any, mat_mul(proj, _shift(ad, half), field))):
        return None
    # -2E - (-1)I
    return _shift([linalg.vec_scale(row, -2, p) for row in proj], -field.one)


def brute_force_group(q, cap):
    """The group generated by tau0 and tau1 as matrices, or None when it
    has more than ``cap`` elements."""
    F = q.field
    taus = [miyamoto_matrix(q, q.to_vector(el.axis(F, i))) for i in (0, 1)]
    assert None not in taus
    ident = _identity(F, q.dim)
    group = {tuple(map(tuple, ident))}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for t in taus:
            h = mat_mul(g, t, F)
            key = tuple(map(tuple, h))
            if key not in group:
                if len(group) == cap:
                    return None
                group.add(key)
                frontier.append(h)
    return group


_TAU0 = el.tau(0)
_TAU1 = el.tau(2)    # reflection about 1
_TAU32 = el.tau(3)   # reflection about 3/2


def _p_tail(x):
    """(level, coeff at residue 1, coeff at residue 2) of the p-part."""
    lev = max(k[2] for k in x.terms)
    return lev, x.coeff(("p", 1, lev)), x.coeff(("p", 2, lev))


def _symmetrize(x):
    """A monic pure-residue-1 element generating a subideal of (x)."""
    while True:
        lev, b1, b2 = _p_tail(x)
        if b2:
            if not b1:
                x = el.apply(_TAU0, x)
            else:
                y = (x + el.apply(_TAU1, x)).scale(b2.inverse())
                x = y + el.apply(_TAU32, y) * 2
            continue
        folded = x + el.apply(_TAU1, x)
        if folded.is_zero():
            return x.scale(b1.inverse())
        x = folded


def _reduce(g, x):
    """x with its p-support pushed below the level of the monic g by the
    multiples s(level - top) * g and their tau(0) images."""
    top = _p_tail(g)[0]
    while True:
        lev = max((k[2] for k in x.terms if k[0] == "p"), default=0)
        if lev < top:
            return x
        for r in (1, 2):
            c = x.coeff(("p", r, lev))
            if c:
                b = el.sigma(x.field, lev - top) * g if lev > top else g
                if r == 2:
                    b = el.apply(_TAU0, b)
                x = x - b.scale(c / b.coeff(("p", r, lev)))


def j_tuple_by_refinement(generators):
    """The monic tuple of the ideal inside J generated by nonzero elements
    of J: symmetrise one element, then refine by remainders until every
    generator, and every generator replaced on the way, reduces to 0."""
    items = list(generators)
    g = _symmetrize(items[0])
    while True:
        rem = next((r for r in (_reduce(g, x) for x in items) if r), None)
        if rem is None:
            return tuple(g.coeff(("p", 1, lev))
                         for lev in range(3, _p_tail(g)[0] + 1, 3))
        items.append(g)
        g = _symmetrize(rem)


def pure_a_by_miyamoto(g):
    """A nonzero pure-a member of the ideal generated by g, for g outside
    J: g itself when g is pure-a, else h - tau(6) tau(0) h for h = g, or
    h = a(0) g when g has no a-part.  The translation by 6 fixes every s-
    and p-key, so the difference is pure-a."""
    if g.is_pure_a():
        return g
    h = g if not g.part("a").is_zero() else el.axis(g.field, 0) * g
    return h - el.apply(el.miyamoto(3), el.apply(el.miyamoto(0), h))


def reduce_core_by_walk(ideal, rem, integral=False):
    """``ideal.reduce_core(rem, integral)`` by cancelling the top level of
    rem, one level at a time: a-levels above the window top first by the
    shifted pattern element, a-levels below it bottom first, then the s-,
    p(1, .)- and p(2, .)-levels down to the cutoff by folds."""
    p, d = ideal.p, ideal.degree
    values = [c.value for c in ideal.alpha]
    L = lcm(*(c.denominator for c in values))
    support = [(j, c.numerator * (L // c.denominator))
               for j, c in enumerate(values) if c]
    tops = (L, support[0][1], 2 * L)
    top, bottom, top2 = [pow(t, -1, p) for t in tops] if p else tops
    den, rem = el._integral(dict(rem), p)

    def cancel(c, t, family):
        nonlocal den
        if not p and c % t:
            s = abs(t) // gcd(c, t)
            for k in rem:
                rem[k] *= s
            den, c = den * s, c * s
        el._add_scaled(rem, -(c * t % p if p else c // t), family, p)

    if ideal.contains_j:
        rem = {k: c for k, c in rem.items() if k[0] != "p"}
    hi = {}
    for k in rem:
        hi[k[:-1]] = max(k[-1], hi.get(k[:-1], k[-1]))
    lo = min((k[1] for k in rem if k[0] == "a"), default=0)
    for m in range(hi.get(("a",), 0), d - 1, -1):
        if c := rem.get(("a", m)):
            cancel(c, top, [(("a", j + m - d), a) for j, a in support])
    for m in range(lo, 0):
        if c := rem.get(("a", m)):
            cancel(c, bottom, [(("a", j + m), a) for j, a in support])
    for head, step in ((("s",), 1), (("p", 1), 3), (("p", 2), 3)):
        for n in range(hi.get(head, 0), ideal._cutoff - 1, -step):
            if c := rem.get(head + (n,)):
                cancel(c, top2 if 2 * n == d else top,
                       _fold(support, d - n, step, head, p))
    return rem if p or integral else {
        k: Fraction(c, den) for k, c in rem.items()}


def eigendecompose_by_families(x, axis_index=0):
    """``eigendecompose(x, axis_index)`` by raw field arithmetic on the
    elements ``make(field, i)`` of every family at every slice i."""
    field = x.field
    if axis_index:
        inner = eigendecompose_by_families(
            el.apply(el.theta(-axis_index), x))
        back = el.theta(axis_index)
        return EigenDecomposition(
            axis_index, {lam: el.apply(back, comp)
                         for lam, comp in inner.components.items()},
            el.apply(back, inner.residual))
    p = field.characteristic
    half, sixteenth = (field._value(Fraction(1, n)) for n in (2, 16))
    (_, make0, lam0), *families = [(name, make, field._value(q))
                                  for name, make, q in FAMILIES]
    comp = {}

    def put(lam, make, i, c):
        if p:
            c %= p
        if c:
            el._add_scaled(comp.setdefault(lam, {}), c,
                           make(field, i).terms.items(), p)

    get = x.terms.get
    used = 0  # the share of a(0) held by the u and v components
    for i in sorted({abs(k[1]) if k[0] == "a" else k[1] if k[0] == "s"
                     else k[2] for k in x.terms} - {0}):
        am, ap = get(("a", -i), 0), get(("a", i), 0)
        s = get(("s", i), 0)
        p1, p2 = get(("p", 1, i), 0), get(("p", 2, i), 0)
        cu = (s - 2 * (am + ap)) * sixteenth    # s/16 - (am + ap)/8
        cv = (-3 * s - 2 * (am + ap)) * sixteenth    # cu - s/4
        coeffs = {"z": (p1 - p2 - 2 * s) * half, "u": cu, "v": cv,
                  "w": (am - ap) * half, "wt": (p1 + p2) * half}
        for name, make, lam in families:
            put(lam, make, i, coeffs[name])
        used += 6 * cu + 2 * cv
    put(lam0, make0, 0, get(("a", 0), 0) - used)

    residual = dict(x.terms)
    for terms in comp.values():
        el._add_scaled(residual, -1, terms.items(), p)
    return EigenDecomposition(
        0, {Scalar(field, lam): el.Element._of(field, terms)
            for lam, terms in comp.items() if terms},
        el.Element._of(field, residual))


def fusion_check_by_elements(field, i_max):
    """``fusion_check(field, i_max)`` by ``Element`` products, each
    decomposed by ``eigendecompose`` into ``Scalar``-keyed components."""
    law = fusion_law(field)
    (name0, make0, lam0), *families = [(name, make, field.from_fraction(q))
                                       for name, make, q in FAMILIES]
    vectors = [(lam0, f"{name0}(0)", make0(field, 0))]
    for i in range(1, i_max + 1):
        for name, make, lam in families:
            v = make(field, i)
            if v:
                vectors.append((lam, f"{name}({i})", v))

    checked = 0
    violations = []
    for idx, (lam, name1, xv) in enumerate(vectors):
        for mu, name2, yv in vectors[idx:]:
            allowed = law.allowed(lam, mu)
            dec = eigendecompose(xv * yv)
            checked += 1
            if not dec.is_total:
                violations.append({"pair": (name1, name2),
                                   "reason": "decomposition not total"})
                continue
            violations += [{"pair": (name1, name2), "eigenvalue": str(ev),
                            "reason": "component outside fusion law"}
                           for ev in dec.components if ev not in allowed]
    return {"characteristic": field.characteristic, "i_max": i_max,
            "checked": checked, "violations": violations,
            "ok": not violations}
