"""Finite quotient algebras, the standard families, and the verification suite.

A classified ideal of finite codimension yields a quotient with an explicit
basis of canonical representatives and an exact structure-constant table.
On top of that sit the two parametric families (axis-difference and
double-axis generators, with or without the extra radical collapse), the
Miyamoto orbit machinery, and a battery of hand-checked small quotients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import elements as el
from . import linalg
from .eigen import fusion_law
from .fields import Field, Scalar
from .ideals import (IdealArgumentError, IdealData, _check_field, ideal_of,
                     membership)


class QuotientError(ValueError):
    pass


class FiniteAlgebra:
    """A finite-dimensional quotient with basis labels and structure constants.

    ``basis_keys`` are single basis keys of the big algebra whose images
    form a basis of the quotient; ``structure``, built whole on its first
    read, maps (i, j) with i <= j to the coordinates of the product, a
    sparse ``{position: value}`` dict without zero values.  An entry sums
    n * image(key) over the kernel's product (n/8 times each key) of its
    basis keys, scaled by 1/8 once; over Q it sums integer numerators over
    the images' common denominator and makes one ``Fraction`` per nonzero
    coordinate.  Key images are memoised per instance: ``to_vector`` sums
    the images of an element's keys, and each key is reduced at most once.

    Coordinate vectors, the ``structure`` entries and the matrices of
    ``adjoint`` and ``induced_map`` hold raw field values (ints in
    ``range(p)``, or ``Fraction``s over Q); only ``weight`` returns a
    ``Scalar``.  Coordinate vectors and matrices are dense lists.
    """

    def __init__(self, source_ideal: IdealData, j_relative: bool = False):
        field = source_ideal.field
        self.field = field
        self.source_ideal = source_ideal
        self.j_relative = j_relative
        if source_ideal.kind == "zero":
            raise QuotientError("quotient by the zero ideal is not finite")
        if source_ideal.kind == "in_j" and not j_relative:
            raise QuotientError(
                "an ideal inside the radical has infinite codimension; "
                "pass j_relative=True for the quotient inside the radical")
        if source_ideal.kind in ("pattern", "full") and j_relative:
            raise QuotientError("j_relative only applies to radical ideals")

        if source_ideal.kind == "full":
            self.basis_keys = []
        elif source_ideal.kind == "in_j":
            self.basis_keys = source_ideal.j_ideal.survivor_keys
        else:
            pat = source_ideal.pattern
            self.basis_keys = [key for i, key in enumerate(pat.survivor_keys)
                               if i not in pat.extension.rows]
        self._key_pos = {k: i for i, k in enumerate(self.basis_keys)}
        one = field.one.value
        self.basis_labels = [el.Element._of(field, {k: one})
                             for k in self.basis_keys]
        self._images = {k: {t: one} for t, k in enumerate(self.basis_keys)}

    @cached_property
    def structure(self) -> dict[tuple[int, int], dict]:
        """The whole table, built on first read and kept."""
        # reduction is linear: the image of an entry is the sum of images
        p, inv8 = self.field.characteristic, self.field.scalar(1, 8).value
        den, ints = 1, {}  # integer key images over one denominator
        structure = {}
        singles = [{k: 1} for k in self.basis_keys]
        for i, left in enumerate(singles):
            prods = [el._products(left, right, 0) for right in singles[i:]]
            keys = {k: None for prod in prods for k in prod}
            for key in [k for k in keys if k not in ints]:
                d, img = el._integral(self._key_image(key), p)
                if den % d:  # a new denominator: rescale the images so far
                    m, den = lcm(den, d) // den, lcm(den, d)
                    ints = {k: [(t, v * m) for t, v in im]
                            for k, im in ints.items()}
                ints[key] = [(t, v * (den // d)) for t, v in img.items()]
            for j, prod in enumerate(prods, i):
                acc = {}
                for key, c in prod.items():
                    for t, v in ints[key]:
                        acc[t] = acc.get(t, 0) + c * v
                structure[(i, j)] = {
                    t: s * inv8 % p if p else Fraction(s, 8 * den)
                    for t, s in acc.items() if (s % p if p else s)}
        return structure

    @property
    def dim(self) -> int:
        return len(self.basis_keys)

    def _key_image(self, key) -> dict:
        """``{position: value}`` of the image of a basis key, memoised."""
        if key not in self._images:
            x = el.Element._of(self.field, {key: self.field.one.value})
            terms = self.source_ideal.reduce(x).terms
            try:  # a pattern reduction leaves only basis keys
                self._images[key] = {self._key_pos[k]: c
                                     for k, c in terms.items()}
            except KeyError as e:  # in a J-relative quotient: a non-p key
                raise QuotientError(
                    f"key {e.args[0]} outside the quotient basis") from None
        return self._images[key]

    def _dense(self, vec: dict) -> list:
        """The coordinate list of a ``{position: value}`` dict."""
        out = [self.field.zero.value] * self.dim
        for t, c in vec.items():
            out[t] = c
        return out

    def to_vector(self, x: el.Element) -> list:
        """Coordinates of the image of ``x``: the sum of its keys' images."""
        _check_field(self.field, x)
        vec = {}
        for key, c in x.terms.items():
            el._add_scaled(vec, c, self._key_image(key).items(),
                           self.field.characteristic)
        return self._dense(vec)

    def _check(self, *vecs) -> None:
        if any(len(v) != self.dim for v in vecs):
            raise QuotientError(f"coordinate vectors need length {self.dim}")

    def from_vector(self, vec) -> el.Element:
        """The canonical representative with the given coordinates."""
        self._check(vec)  # ints and Fractions, reduced into the field
        return el.Element._of(self.field, {k: v for k, c in zip(
            self.basis_keys, vec) if (v := self.field._value(c))})

    def mult(self, u, v) -> list:
        """Product of two coordinate vectors via the structure constants."""
        self._check(u, v)
        p = self.field.characteristic
        out = [self.field.zero.value] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                c = a * b
                row = self.structure[(i, j) if i <= j else (j, i)]
                for t, s in row.items():
                    out[t] += c * s
        return [x % p for x in out] if p else out

    def adjoint(self, u) -> list[list]:
        """Matrix of left multiplication by the coordinate vector ``u``."""
        self._check(u)
        cols = [self.mult(u, e) for e in _identity(self.field, self.dim)]
        return [list(row) for row in zip(*cols)]

    def weight(self, u) -> Scalar:
        """The induced weight map (sum of axis-image coefficients)."""
        return self.from_vector(u).weight()

    def induced_map(self, aut: el.Automorphism) -> list[list] | None:
        """Matrix of the map induced by an automorphism, or None if the
        ideal is not invariant under it (checked on the basis images)."""
        cols = [self.to_vector(el.apply(aut, b)) for b in self.basis_labels]
        # invariance: the induced map must be multiplicative
        m = [list(row) for row in zip(*cols)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                lhs = linalg.mat_vec(m, self._dense(self.structure[(i, j)]),
                                     self.field)
                rhs = self.mult(cols[i], cols[j])
                if lhs != rhs:
                    return None
        return m


# -- Miyamoto machinery inside a quotient ---------------------------------------


def eigenspace_split(q: FiniteAlgebra, axis_vec):
    """Split the quotient into adjoint eigenspaces of an idempotent.

    Returns a dict eigenvalue -> list of basis vectors, or None when the
    eigenspaces do not exhaust the quotient.
    """
    ad = q.adjoint(axis_vec)
    spaces = {v: linalg.kernel_basis(_shift(ad, v), q.field)
              for v in fusion_law(q.field).values}
    spaces = {v: basis for v, basis in spaces.items() if basis}
    return spaces if sum(map(len, spaces.values())) == q.dim else None


def _shift(m, c: Scalar):
    """The matrix m - c*I."""
    p, c = c.field.characteristic, c.value
    out = [list(row) for row in m]
    for i, row in enumerate(out):
        row[i] = (row[i] - c) % p if p else row[i] - c
    return out


def _identity(field: Field, n: int):
    one, zero = field.one.value, field.zero.value
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


class AxisOrbit:
    """The axis images of an orbit, whether it closed within the cutoff,
    and its Miyamoto group order.

    A closed orbit of n axes lists the images of a(0), ..., a(n - 1) in
    that order; an open one lists those of a(0), ..., a(cutoff).
    """

    def __init__(self, axes, closed: bool, miyamoto_group_order):
        self.axes = axes
        self.closed = closed
        self.miyamoto_group_order = miyamoto_group_order


def axis_orbit(q: FiniteAlgebra, cutoff: int) -> AxisOrbit:
    """Orbit of the images of a(0) and a(1) under their Miyamoto maps.

    The Miyamoto map of a(i) is the reflection of subscripts about i, and
    every ideal is invariant under it, so tau0 sends the image of a(i) to
    that of a(-i) and tau1 sends it to that of a(2 - i).  The pure-a part
    of an ideal is a principal Laurent ideal, invariant under translation,
    so the images of a(i) and a(j) agree exactly when the orbit size n
    divides i - j.  The quotient is generated by the two axis images, so
    its Miyamoto group acts faithfully on the subscripts mod n: it is
    trivial when n <= 2 (tau0 = I exactly when tau1 = I), and otherwise
    dihedral of order 2n / gcd(n, 2), since tau0*tau1 translates by 2.

    So n is the first i >= 1 whose image equals that of a(0), found by
    scanning i = 1, ..., ``cutoff``; the orbit is the images of a(0), ...,
    a(n - 1).  With no such i it is open: it lists the cutoff + 1 images
    of a(0), ..., a(cutoff), and the group order is "unbounded at cutoff".
    """
    first = q.to_vector(el.axis(q.field, 0))
    axes = [first]
    for n in range(1, cutoff + 1):
        image = q.to_vector(el.axis(q.field, n))
        if image == first:
            return AxisOrbit(axes, True, 1 if n <= 2 else 2 * n // gcd(n, 2))
        axes.append(image)
    return AxisOrbit(axes, False, "unbounded at cutoff")


# -- the standard families -------------------------------------------------------


def _family(field: Field, n: int, terms, collapse_j: bool) -> FiniteAlgebra:
    """The quotient by the element of ``terms``, and by p(1,3) if asked."""
    if n < 1:
        raise IdealArgumentError("n must be >= 1")
    gens = [el.from_terms(field, terms)] + [el.pi(field, 1, 3)] * collapse_j
    return FiniteAlgebra(ideal_of(gens))


def family_Hn(n: int, field: Field, collapse_j: bool = False) -> FiniteAlgebra:
    """Quotient by (a_0 - a_n), optionally also collapsing the p-span."""
    return _family(field, n, [(("a", 0), 1), (("a", n), -1)], collapse_j)


def family_Ln(n: int, field: Field, collapse_j: bool = False) -> FiniteAlgebra:
    """Quotient by (2a_0 - a_{-n} - a_n), optionally collapsing the p-span."""
    return _family(field, n, [(("a", 0), 2), (("a", -n), -1), (("a", n), -1)],
                   collapse_j)


# -- the exceptional-quotient verification suite ----------------------------------


def _case(name: str, ok: bool, **details) -> dict:
    return {"case": name, "ok": bool(ok), **details}


def small_quotient_suite(field: Field) -> list[dict]:
    """Re-verify the small exceptional quotients by direct computation.

    Returns one report entry per case; characteristic-specific cases run
    only in their characteristic and are marked skipped elsewhere.
    """
    p = field.characteristic
    a = lambda i: el.axis(field, i)
    s = lambda j: el.sigma(field, j)
    report = []

    # (a) quotient by (a_0 - a_2): 3-dimensional, trivial half-eigenspace
    q2 = family_Hn(2, field)
    half = field.scalar(1, 2)
    spaces = eigenspace_split(q2, q2.to_vector(a(0)))
    ok = (q2.dim == 3
          and set(q2.basis_keys) == {("a", 0), ("a", 1), ("s", 1)}
          and spaces is not None and half not in spaces)
    report.append(_case("two_generator_collapse", ok, dim=q2.dim))

    # (b) quotient by (2a_0 - a_{-1} - a_1): 2-dimensional, the reflection
    # through 0 acts nontrivially
    q1 = family_Ln(1, field)
    m = q1.induced_map(el.tau(0))
    report.append(_case("double_axis_line", q1.dim == 2 and m is not None
                        and m != _identity(field, q1.dim), dim=q1.dim))

    # (c) one-parameter deformations: q-bar acts as the scalar (3/4)(d+3)
    deltas_ok = []
    for d in (-3, -1, 0, 1, 2):
        dd = field.scalar(d)
        gen = a(0) + a(1).scale(dd) - a(2).scale(dd) - a(3)
        qd = FiniteAlgebra(ideal_of([gen]))
        qelt = (a(0).scale(dd + field.one) + a(-1) + a(1)).scale(
            field.scalar(3, 4)) - s(1)
        qv = qd.to_vector(qelt)
        lam = field.scalar(3, 4) * (dd + field.scalar(3))
        deltas_ok.append(qd.dim == 4 and all(
            qd.mult(qv, e) == linalg.vec_scale(e, lam.value, p)
            for e in _identity(field, qd.dim)))
    report.append(_case("deformation_scalar_action", all(deltas_ok),
                        deltas=[-3, -1, 0, 1, 2]))

    # (d) the negated-eigenvector ideal: 3-dimensional quotient which
    # factors through the delta = -3 deformation
    v1 = el.v_elem(field, 1)
    iv = ideal_of([v1])
    qv1 = FiniteAlgebra(iv)
    gen_m3 = a(0) - a(1) * 3 + a(2) * 3 - a(3)
    report.append(_case("negated_eigenvector_ideal",
                        qv1.dim == 3 and membership(gen_m3, iv),
                        dim=qv1.dim))

    # (e) the degree-four generator: 6-dimensional quotient plus the
    # displayed antisymmetrisation identity
    y1 = a(-2) - a(-1) * 4 + a(0) * 6 - a(1) * 4 + a(2) - s(1) * 16 + s(2) * 4
    qy = FiniteAlgebra(ideal_of([y1]))
    x = y1 - el.apply(el.tau(1), y1)
    target = a(-2) - a(-1) * 5 + a(0) * 10 - a(1) * 10 + a(2) * 5 - a(3)
    report.append(_case("degree_four_generator",
                        qy.dim == 6 and x == target, dim=qy.dim))

    # (f) characteristic 7 only: the ideal generated by the product of the
    # two even axes in the period-4 quotient is everything
    if p == 7:
        full = ideal_of([a(0) - a(4), a(0) * a(2)])
        q4 = family_Hn(4, field)
        v0 = q4.to_vector(a(0))
        v2 = q4.to_vector(a(2))
        prod = q4.mult(v0, v2)
        recon = [(2 * x - y) % p for x, y in zip(prod, q4.mult(v0, prod))]
        report.append(_case("char7_even_product",
                            full.kind == "full" and recon == v0))
    else:
        report.append(_case("char7_even_product", True, skipped=True))

    # (g) characteristic 5 only: the mixed generator inside the period-6
    # quotient cuts out a 3-dimensional ideal (8-dimensional quotient)
    if p == 5:
        x5 = a(0) - a(1) + a(3) - a(4) + el.pi(field, 2, 3)
        q6 = family_Hn(6, field)
        ix = ideal_of([x5])
        qx = FiniteAlgebra(ix)
        identity = (x5 - el.apply(el.tau(6), x5)
                    + el.apply(el.theta(1), x5)) == a(0) - a(6)
        same = ideal_of([a(0) - a(6), x5])
        agree = (same.summary() == ix.summary()
                 and membership(a(0) - a(6), ix))
        report.append(_case("char5_mixed_generator",
                            q6.dim == 11 and qx.dim == 8
                            and identity and agree,
                            ambient_dim=q6.dim, dim=qx.dim))
    else:
        report.append(_case("char5_mixed_generator", True, skipped=True))

    # (h) the remaining small quotients and the displayed product
    w1 = el.w_elem(field, 1)
    r = a(-2) - a(-1) * 2 + a(1) * 2 - a(2)
    prod_ok = w1 * v1 == r.scale(field.scalar(-3, 2))
    dims = [(FiniteAlgebra(ideal_of([gen])).dim, want) for gen, want in (
        (a(-1) - a(0) - a(1) + a(2) + s(2) * 2, 5),
        (gen_m3, 4),
        ((a(-1) - a(0) - a(1) + a(2)) * 3 - s(2) * 2, 5))]
    report.append(_case("remaining_small_quotients",
                        prod_ok and all(got == want for got, want in dims),
                        dims=[got for got, _ in dims]))
    return report
