"""Classification of and computation with ideals.

Every proper nonzero ideal I falls into one of two families:

* I is contained in J, the span of the p-symbols.  Such ideals are in
  bijection with monic coefficient tuples (b_1, ..., b_k): the ideal
  generated by sum b_j * p(1,3j), or by the polynomial beta(u) with
  b_i = beta[k + i] (see the section on ideals inside J).

* Otherwise I contains pure-a elements.  Identifying sum c_i a(i) with
  the polynomial sum c_i t^i, the pure-a elements of I form a
  principal polynomial ideal; its monic generator, normalised to start
  at exponent 0, is the *pattern* of I.  Patterns of proper ideals
  have zero coefficient sum and are palindromic up to a sign epsilon.
  The smallest ideal with a given pattern is spanned by three explicit
  families (shifts of the generator, folded s-elements, folded
  p-elements); a general ideal is that minimal one plus a finite
  extension subspace living in the survivor coordinates of the
  quotient.

Both families find their generator by the same Euclid (``_gcd``) and
reduce by the same fold sweep (``PatternIdeal.reduce_core``).  Reduction
against an ideal produces a canonical representative of the coset with
a-support inside [0, D-1], s- and p-support below the survivor cutoff,
and extension coordinates eliminated; membership is reduction to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import elements as el
from .fields import Field, FieldMismatchError, Scalar
from .linalg import Rref


class IdealArgumentError(ValueError):
    """Raised for arguments outside an operation's domain."""


def _check_field(field: Field, x: el.Element) -> None:
    if x.field is not field:
        raise FieldMismatchError(f"cannot reduce an element over {x.field} "
                                 f"by an ideal over {field}")


# -- folding pure-a elements ---------------------------------------------------

def _fold(support, k: int, step: int, head: tuple, p: int) -> list:
    """Terms ``(head + (level,), sum of c_j)`` of sum_j c_j at level
    |k - j| over the ``(j, c_j)`` of ``support``, for levels that are
    positive multiples of ``step``; zero sums are dropped.

    Over the ``PatternIdeal`` support (j, L * alpha_j), step 1 gives the
    s-family member y_k and step 3 the p-family member p_k; both have top
    level D - k when k <= D/2.
    """
    out = {}
    for j, c in support:
        i = abs(k - j)
        if i and not i % step:
            c += out.get(i, 0)
            out[i] = c % p if p else c
    return [(head + (i,), c) for i, c in out.items() if c]


def fold(x: el.Element, k: int) -> tuple[el.Element, el.Element]:
    """Fold a pure-a zero-weight element about position k.

    Returns the pair of ideal members

        3 * sum_i (c(k-i) + c(k+i)) s(i)
        3 * sum_i (c(k-i) + c(k+i)) p(k mod 3, i)

    both of which lie in the ideal generated by x.
    """
    if not x.is_pure_a() or x.is_zero():
        raise IdealArgumentError("fold needs a nonzero pure-a element")
    if x.weight():
        raise IdealArgumentError("fold needs zero coefficient sum")
    support = [(key[1], c) for key, c in x.terms.items()]
    p = x.field.characteristic
    # from_terms reduces 3c into the field and rewrites residue-0 p keys
    return tuple(el.from_terms(x.field, [(key, 3 * c) for key, c in
                                         _fold(support, k, step, head, p)])
                 for step, head in ((1, ("s",)), (3, ("p", k % 3))))


def pure_a_extract(g: el.Element) -> el.Element:
    """A nonzero pure-a element of the ideal generated by g (g not in J)."""
    if g.is_zero() or g.in_p_span():
        raise IdealArgumentError("pure_a_extract needs a generator outside J")
    field = g.field
    if not g.part("a").is_zero():
        return g - el.apply(el.theta(3), g)
    # no a-part: average the p-part away, then multiply into the a-part
    s_triple = g + el.apply(el.theta(1), g) + el.apply(el.theta(2), g)
    y = el.axis(field, 0) * s_triple
    return y - el.apply(el.theta(3), y)


# -- polynomial gcd with optional shift-combination tracking -------------------

def _poly_trim(poly: list) -> list:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _euclid(a: tuple, b: tuple, p: int) -> tuple:
    """gcd of ``(poly, comb)`` pairs: raw values, low order first, and the
    expression ``{(input_index, shift): raw value}`` over the shifted
    inputs, or None when the combination is not tracked."""
    while b[0]:
        # divide a by b, keeping only the remainder
        r, (bpoly, bcomb) = list(a[0]), b
        rcomb = None if a[1] is None else dict(a[1])
        db = len(bpoly) - 1
        lead_inv = pow(bpoly[-1], -1, p) if p else 1 / bpoly[-1]
        while _poly_trim(r) and len(r) - 1 >= db:
            c = r[-1] * lead_inv
            k = len(r) - 1 - db
            for i, bc in enumerate(bpoly):
                v = r[k + i] - c * bc
                r[k + i] = v % p if p else v
            if rcomb is not None:  # rcomb -= c * t^k * bcomb
                el._add_scaled(rcomb, -c, [((idx, sh + k), v) for (idx, sh), v
                                           in bcomb.items()], p)
            _poly_trim(r)
        a, b = b, (_poly_trim(r), rcomb)
    return a


def _normalize(poly: list, comb, p: int) -> tuple:
    """The pair shifted to exponent 0 and scaled to be monic."""
    low = next(i for i, c in enumerate(poly) if c)
    poly = poly[low:]
    inv = pow(poly[-1], -1, p) if p else 1 / poly[-1]
    poly = [c * inv % p if p else c * inv for c in poly]
    if comb is not None:
        comb = {(idx, sh - low): v * inv % p if p else v * inv
                for (idx, sh), v in comb.items()}
    return poly, comb


def _gcd(p: int, items: list) -> tuple:
    """The monic gcd ``(poly, comb)`` of nonzero ``(poly, comb)`` pairs."""
    acc = _normalize(*items[0], p)
    for item in items[1:]:
        acc = _normalize(*_euclid(acc, item, p), p)
    return acc


def laurent_gcd(field: Field, patterns):
    """Monic gcd of shift-equivalence classes of coefficient patterns.

    Each input is a sequence of coefficients (rationals or scalars)
    read as a polynomial with lowest exponent 0.  Returns
    ``(gcd_coeffs, combination)`` where combination is a list of
    ``(input_index, shift, coeff)`` triples expressing the gcd as a sum
    of shifted scalar multiples of the inputs; the coefficients are
    ``Scalar``s, the working polynomials raw values.  ``ideal_of``, which
    needs only the gcd, runs the same Euclid untracked on raw values.
    """
    items = []
    for idx, pat in enumerate(patterns):
        # a Scalar must be of this field: _check raises, or returns None
        poly = _poly_trim([field.zero._check(c) or c.value
                           if isinstance(c, Scalar) else field._value(c)
                           for c in pat])
        if poly:
            items.append((poly, {(idx, 0): field.one.value}))
    if not items:
        raise IdealArgumentError("all patterns are zero")
    poly, comb = _gcd(field.characteristic, items)
    coeffs = tuple(Scalar(field, c) for c in poly)
    combo = sorted((idx, sh, Scalar(field, c))
                   for (idx, sh), c in comb.items())
    return coeffs, combo


# -- pattern ideals ------------------------------------------------------------

class PatternIdeal:
    """The data of an ideal not contained in J.

    ``alpha`` is the monic pattern of degree D, of coefficient sum 0 and
    palindromic up to the sign ``epsilon``, which is alpha[0].
    ``contains_j`` starts as whether a residue sum of alpha is nonzero;
    ``ideal_of`` sets it when the extension absorbs J.  ``extension`` is
    an ``Rref`` of canonical-representative vectors over ``survivor_keys``
    spanning the part of the ideal beyond the minimal one; it starts
    empty and ``ideal_of`` fills it.  Its pivots are the positions of the
    survivor keys that the extension eliminates.  A ``JIdeal`` reduces its
    p-part with the ``reduce_core`` of the pattern ideal of its polynomial.

    Like every container of coefficients, the reduction path holds raw
    field values (ints in ``range(p)``, or ``Fraction``s over Q), and it
    holds them sparse, without zero values: ``reduce_core`` takes and
    returns a ``{key: value}`` dict, and ``to_vector``, ``from_vector``
    and the ``extension`` rows use ``{position: value}`` dicts over
    ``survivor_keys``.  Only ``alpha``, a tuple of single coefficients
    passed in, holds ``Scalar``s.  Inside, ``reduce_core`` sweeps integer
    numerators over one denominator (1 over F_p) against the families
    times L, the lcm of alpha's denominators, and makes one ``Fraction``
    per term out.
    """

    def __init__(self, field: Field, alpha):
        alpha = tuple(alpha)
        # Element checks that alpha holds Scalars of the field
        x0 = el.Element(field, {("a", j): c for j, c in enumerate(alpha)})
        a = [c.value for c in alpha]
        neg = [field._value(-c) for c in a]
        if (len(a) < 2 or a[-1] != 1 or a != (a if a[0] == 1 else neg)[::-1]
                or field._value(sum(a))):
            raise IdealArgumentError("pattern must be monic of degree >= 1, "
                                     "palindromic up to sign, of sum 0")
        self.field = field
        self.p = field.characteristic
        self.alpha = alpha
        self.epsilon = 1 if a[0] == 1 else -1
        self.contains_j = any(field._value(sum(a[r::3])) for r in (1, 2))
        # the lowest s- and p-level that the families reduce
        d = self.degree
        self._cutoff = cut = (d // 2 if d % 2 == 0 and self.epsilon == 1
                              else d // 2 + 1)
        # the survivors: the a-window, then the s- and p-levels below it
        self.survivor_keys = [("a", i) for i in range(d)]
        self.survivor_keys += [("s", n) for n in range(1, cut)]
        if not self.contains_j:
            self.survivor_keys += [("p", r, n) for n in range(3, cut, 3)
                                   for r in (1, 2)]
        self._key_pos = {k: i for i, k in enumerate(self.survivor_keys)}
        self.extension = Rref(self.p)
        # (j, L * alpha_j) for the nonzero alpha_j, which Element unwraps,
        # and the family tops L, L * alpha_0 and 2L, inverted over F_p
        self._scale = L = lcm(*(c.denominator for c in x0.terms.values()))
        self._support = sorted((k[1], int(c * L)) for k, c in x0.terms.items())
        tops = (L, self._support[0][1], 2 * L)
        self._tops = [pow(t, -1, self.p) for t in tops] if self.p else tops

    @property
    def degree(self) -> int:
        return len(self.alpha) - 1

    @property
    def extension_rows(self) -> list[dict]:
        """The ``extension`` rows in the order of their pivots."""
        return [row for _, row in sorted(self.extension.rows.items())]

    # -- the three spanning families ------------------------------------

    def _family(self, terms: list) -> el.Element:
        """The element of scaled integer ``terms``, divided by L."""
        return el.Element._of(self.field, dict(terms) if self.p else {
            k: Fraction(c, self._scale) for k, c in terms})

    def x_family(self, k: int) -> el.Element:
        """Shifted pattern element: sum_i alpha[i] a(i + k)."""
        return self._family([(("a", j + k), c) for j, c in self._support])

    def y_family(self, k: int) -> el.Element:
        """Folded s-element y_k = sum_j alpha_j s(|k - j|)."""
        return self._family(_fold(self._support, k, 1, ("s",), self.p))

    def p_family(self, k: int, residue: int) -> el.Element:
        """Folded p-element sum_j alpha_j p(residue, |k - j|), 3 | k - j."""
        return self._family(_fold(self._support, k, 3, ("p", residue),
                                  self.p))

    # -- reduction -------------------------------------------------------

    def reduce_core(self, rem: dict) -> dict:
        """Reduce raw terms ``{key: value}`` against the minimal-ideal
        families only; may consume ``rem``, and returns the result."""
        d, p, support = self.degree, self.p, self._support
        top, bottom, top2 = self._tops
        den, rem = el._integral(rem, p)

        def cancel(c, t, family):
            # rem -= c / t * family, where c is rem at the top t of family
            nonlocal den
            if not p and c % t:
                s = abs(t) // gcd(c, t)
                for k in rem:
                    rem[k] *= s
                den, c = den * s, c * s
            el._add_scaled(rem, -(c * t % p if p else c // t), family, p)

        # a-part into the window [0, D-1]
        while idx := [k[1] for k in rem if k[0] == "a"]:
            m = max(idx)
            if m >= d:
                k, c, t = m - d, rem[("a", m)], top
            else:
                k = min(idx)
                if k >= 0:
                    break
                c, t = rem[("a", k)], bottom
            cancel(c, t, [(("a", j + k), a) for j, a in support])
        # p-part: collapse entirely when J is inside
        if self.contains_j:
            for key in [k for k in rem if k[0] == "p"]:
                del rem[key]
        # s- and p-parts below the survivor cutoff, top level first; the
        # fold with top level n has top L * (alpha_{D-2n} + 1): L above
        # D/2, and 2L at D/2, reducible only when epsilon = alpha_0 = 1
        for kind, step in (("s", 1), ("p", 3)):
            while tops := [(k[-1], k) for k in rem
                           if k[0] == kind and k[-1] >= self._cutoff]:
                n, key = max(tops)
                cancel(rem[key], top2 if 2 * n == d else top,
                       _fold(support, d - n, step, key[:-1], p))
        return rem if p else {k: Fraction(c, den) for k, c in rem.items()}

    def to_vector(self, rem: dict) -> dict:
        """``{position: value}`` over ``survivor_keys`` of reduced terms."""
        # reduce_core leaves only survivor keys
        return {self._key_pos[key]: c for key, c in rem.items()}

    def from_vector(self, vec: dict) -> el.Element:
        """The element with ``{position: value}`` over ``survivor_keys``."""
        keys = self.survivor_keys
        return el.Element._of(self.field,
                              {keys[i]: c for i, c in vec.items()})

    def reduce(self, x: el.Element) -> el.Element:
        _check_field(self.field, x)
        vec = self.to_vector(self.reduce_core(dict(x.terms)))
        return self.from_vector(self.extension.residue(vec))


# -- ideals inside J -----------------------------------------------------------
#
# Sending p(r, 3i) to u^i + u^-i - 2 identifies, for each residue r, the
# span of the p(r, .) with the palindromic Laurent polynomials in u that
# vanish at u = 1.  s(3j) acts as multiplication by -3/8 (u^j + u^-j - 2);
# the a(i), and the s(j) with 3 not dividing j, act by scalars and by
# mixing the residues, which spans all endomorphisms of the pair.  So an
# ideal inside J is both residue copies of one principal ideal, generated
# by the gcd beta(u), palindromic of degree 2k, of the images of the
# generators' residue-1 and residue-2 coefficients.  Its members are the
# p-folds of the pattern beta(t^3), since s(3j) g = 3/4 g - 3/8 fold, so
# ``JIdeal.reduce`` is that pattern's sweep, with fold top 2 at level 3k.

class JIdeal:
    """An ideal contained in J, named by its monic coefficient tuple.

    ``coeffs[j-1]`` is the coefficient of p(1, 3j) in the canonical
    generator g; the top coefficient is 1.  The ideal's polynomial is
    beta = (b_k, ..., b_1, -2 sum b, b_1, ..., b_k) for k = len(coeffs).
    """

    def __init__(self, field: Field, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs or not coeffs[-1]:
            raise IdealArgumentError("tuple must have a nonzero top entry")
        if coeffs[-1] != field.one:
            inv = coeffs[-1].inverse()
            coeffs = tuple(c * inv for c in coeffs)
        self.field = field
        self.coeffs = coeffs
        mid = sum(coeffs, field.zero) * field.scalar(-2)
        alpha = [field.zero] * (6 * len(coeffs) + 1)
        alpha[::3] = coeffs[::-1] + (mid,) + coeffs
        self._folds = PatternIdeal(field, alpha)

    @property
    def level(self) -> int:
        return 3 * len(self.coeffs)

    @property
    def survivor_keys(self) -> list:
        """The p-keys below the level, whose images are a basis of J
        modulo the ideal: the p-survivors of the fold pattern."""
        return [k for k in self._folds.survivor_keys if k[0] == "p"]

    @property
    def codim_in_j(self) -> int:
        return len(self.survivor_keys)

    def generator(self) -> el.Element:
        return el.Element(self.field, {("p", 1, 3 * j): c
                                       for j, c in enumerate(self.coeffs, 1)})

    def __eq__(self, other):
        return (isinstance(other, JIdeal) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __repr__(self):
        return f"JIdeal{self.coeffs}"

    def basis(self, up_to: int) -> list[el.Element]:
        """Members with p-tails at levels self.level..up_to, by
        multiplication: s(level - self.level) g and its tau(0) image."""
        g, out = self.generator(), []
        for n in range(0, up_to - self.level + 1, 3):
            x = el.sigma(self.field, n) * g if n else g
            out += [x, el.apply(el.tau(0), x)]
        return out

    def reduce(self, x: el.Element) -> el.Element:
        """Canonical representative of x: p-support pushed below the level."""
        _check_field(self.field, x)
        terms = {k: c for k, c in x.terms.items() if k[0] != "p"}
        terms.update(self._folds.reduce_core(
            {k: c for k, c in x.terms.items() if k[0] == "p"}))
        return el.Element._of(self.field, terms)

    def contains(self, x: el.Element) -> bool:
        return self.reduce(x).is_zero()


def j_canonicalize(g: el.Element) -> JIdeal:
    """The coefficient tuple naming the ideal generated by g inside J."""
    if g.is_zero() or not g.in_p_span():
        raise IdealArgumentError("j_canonicalize needs a nonzero element of J")
    return j_ideal_of([g])


def j_ideal_of(generators) -> JIdeal:
    """The ideal of J generated by finitely many elements of J."""
    items = [g for g in generators if not g.is_zero()]
    if not items:
        raise IdealArgumentError("no nonzero generators")
    if any(not g.in_p_span() for g in items):
        raise IdealArgumentError("generators must lie in J")
    field = items[0].field
    p = field.characteristic
    polys = []
    for g in items:
        items[0]._check(g)
        for r in (1, 2):
            # u^m sum_i c_i (u^i + u^-i - 2) for the c_i of p(r, 3i)
            c = {k[2] // 3: v for k, v in g.terms.items() if k[1] == r}
            if c:
                m = max(c)
                poly = [0] * (2 * m + 1)
                for i, v in c.items():
                    poly[m - i] = poly[m + i] = v
                poly[m] = field._value(-2 * sum(c.values()))
                polys.append((poly, None))
    beta, _ = _gcd(p, polys)
    k = len(beta) // 2
    return JIdeal(field, [Scalar(field, c) for c in beta[k + 1:]])


# -- the classification record --------------------------------------------------

class IdealData:
    """Classification of a finitely generated ideal.

    ``kind`` is one of "zero", "full", "in_j", "pattern"; exactly one
    of ``j_ideal`` / ``pattern`` is populated for the last two.
    """

    def __init__(self, field: Field, kind: str, j_ideal: JIdeal = None,
                 pattern: PatternIdeal = None):
        self.field = field
        self.kind = kind
        self.j_ideal = j_ideal
        self.pattern = pattern

    def reduce(self, x: el.Element) -> el.Element:
        _check_field(self.field, x)
        if self.kind == "zero":
            return x
        if self.kind == "full":
            return el.zero(self.field)
        if self.kind == "in_j":
            return self.j_ideal.reduce(x)
        return self.pattern.reduce(x)

    def contains(self, x: el.Element) -> bool:
        return self.reduce(x).is_zero()

    def is_proper(self) -> bool:
        return self.kind not in ("zero", "full")

    def summary(self) -> dict:
        out = {"kind": self.kind, "characteristic": self.field.characteristic}
        if self.kind == "in_j":
            out["j_tuple"] = [str(c) for c in self.j_ideal.coeffs]
            out["codim_in_j"] = self.j_ideal.codim_in_j
        elif self.kind == "pattern":
            pat = self.pattern
            out["pattern"] = [str(c) for c in pat.alpha]
            out["epsilon"] = pat.epsilon
            out["contains_j"] = pat.contains_j
            out["extension_dim"] = len(pat.extension_rows)
            out["quotient_dim"] = (len(pat.survivor_keys)
                                   - len(pat.extension_rows))
        return out


def minimal_ideal_basis(field: Field, pattern,
                        up_to: int) -> list[el.Element]:
    """Spanning elements of the minimal ideal with the given pattern.

    Emits the shifted pattern elements x_k for \\|k\\| <= up_to, the
    folded s-elements with top level up to up_to, and either the folded
    p-elements (when the pattern's residue sums vanish) or the plain
    p-basis of J (which the ideal then contains).
    """
    alpha = [c if isinstance(c, Scalar) else field.from_fraction(c)
             for c in pattern]
    ideal = PatternIdeal(field, alpha)
    d = ideal.degree
    out = [ideal.x_family(k) for k in range(-up_to, up_to + 1)]
    top_k = d - ideal._cutoff
    for k in range(d - up_to, top_k + 1):
        y = ideal.y_family(k)
        if y:
            out.append(y)
    if ideal.contains_j:
        for n in range(3, up_to + 1, 3):
            out.append(el.pi(field, 1, n))
            out.append(el.pi(field, 2, n))
    else:
        for k in range(d - up_to, top_k + 1):
            for r in (1, 2):
                p = ideal.p_family(k, r)
                if p:
                    out.append(p)
    return [x for x in out if x]


# -- the general classification engine -------------------------------------------

def _pattern_of_pure_a(x: el.Element) -> tuple:
    """Raw coefficients of a pure-a element, lowest exponent moved to 0."""
    idx = {k[1]: c for k, c in x.terms.items()}
    zero = x.field.zero.value
    return tuple(idx.get(i, zero) for i in range(min(idx), max(idx) + 1))


def _closure(ideal: PatternIdeal,
             seeds: list[el.Element]) -> el.Element | None:
    """Row-reduce seed representatives and close their span under
    multiplication, stopping at its first pure-a member.

    The span is kept in one ``Rref`` with the a-window columns rotated
    to the end, so an insert pivots there exactly when the span gains a
    pure-a member; that member is returned.  A closure that finds none
    runs to the end, so its span is closed: its rows, unrotated, go into
    ``ideal.extension`` (the RREF of a span is unique, so the pivots do
    not depend on the detour), and the result is None.
    """
    p, d, keys = ideal.p, ideal.degree, ideal.survivor_keys
    n = len(keys)
    rotated = keys[d:] + keys[:d]  # column j of rr is survivor (j + d) % n
    col = {k: j for j, k in enumerate(rotated)}
    rr, queue = Rref(p), []
    products = (ideal.reduce_core(dict(s.terms)) for s in seeds)

    def times_keys(w):
        # w * key for each survivor key, as integer terms: scaling by 8
        # and by w's denominator leaves the span alone
        w = {rotated[j]: c for j, c in el._integral(w, p)[1].items()}
        for b in keys:
            yield el._products(w, {b: 1}, p)

    while True:
        for terms in products:  # reduce_core leaves only survivor keys
            w = {col[k]: c for k, c in terms.items()}
            if rr.insert(w):
                piv = next(reversed(rr.rows))  # the new row's, added last
                if piv >= n - d:
                    return el.Element._of(ideal.field, {
                        rotated[j]: c for j, c in rr.rows[piv].items()})
                queue.append(w)
        if not queue:
            break
        # fresh products: reduce_core may consume their terms
        products = map(ideal.reduce_core, times_keys(queue.pop()))
    for row in rr.rows.values():
        ideal.extension.insert({(j + d) % n: c for j, c in row.items()})
    return None


def ideal_of(generators) -> IdealData:
    """Classify the two-sided ideal generated by finitely many elements."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        field = generators[0].field if generators else None
        if field is None:
            raise IdealArgumentError("need at least one element")
        return IdealData(field, "zero")
    field = gens[0].field
    for g in gens[1:]:
        gens[0]._check(g)
    if all(g.in_p_span() for g in gens):
        return IdealData(field, "in_j", j_ideal=j_ideal_of(gens))

    # harvest pure-a members: generators and their products with the
    # first two axes; their patterns and, for palindromic symmetry, the
    # reversed ones, which are up to sign the patterns of the reflections
    pool = []
    a0, a1 = el.axis(field, 0), el.axis(field, 1)
    for g in gens:
        for h in (g, g * a0, g * a1):
            if not (h.is_zero() or h.in_p_span()):
                pool.append(_pattern_of_pure_a(pure_a_extract(h)))

    p = field.characteristic
    while True:
        # duplicates leave the gcd as it is: pass each pattern once
        alpha, _ = _gcd(p, [(pat, None) for pat in dict.fromkeys(
            q for pat in pool for q in (pat, pat[::-1]))])
        if sum(alpha) % p if p else sum(alpha):
            return IdealData(field, "full")

        ideal = PatternIdeal(field, [Scalar(field, c) for c in alpha])
        pure = _closure(ideal,
                        list(gens) + [el.apply(el.tau(1), g) for g in gens])

        # a closure stopped at a pure-a member shrinks the gcd; the pool
        # restarts from the pattern, gcd(pool), palindromic up to sign
        if pure is not None:
            pool = [tuple(alpha), _pattern_of_pure_a(pure)]
            continue

        # J lies in the ideal when the extension absorbs p(1,3) and p(2,3)
        if not ideal.contains_j:
            ideal.contains_j = all(
                ideal.reduce(el.pi(field, r, 3)).is_zero() for r in (1, 2))
        return IdealData(field, "pattern", pattern=ideal)


def membership(x: el.Element, ideal: IdealData) -> bool:
    return ideal.contains(x)


def aut_invariance_check(ideal: IdealData, sample_bound: int) -> dict:
    """Verify symmetry-images of sampled ideal members are members."""
    field = ideal.field
    sample: list[el.Element] = []
    if ideal.kind == "in_j":
        sample = ideal.j_ideal.basis(ideal.j_ideal.level + sample_bound)
    elif ideal.kind == "pattern":
        pat = ideal.pattern
        sample = minimal_ideal_basis(field, pat.alpha, sample_bound)
        sample += [pat.from_vector(row) for row in pat.extension_rows]
    auts = [el.tau(0), el.tau(1), el.theta(1), el.theta(-3)]
    failures = []
    checked = 0
    for x in sample:
        for aut in auts:
            checked += 1
            if not ideal.contains(el.apply(aut, x)):
                failures.append((repr(aut), repr(x)))  # pragma: no cover
    return {"checked": checked, "failures": failures, "ok": not failures}
