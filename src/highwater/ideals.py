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

``ideal_of`` pools one pure-a member per generator outside J and closes
the generators (plus p-folds when t^3 - 1 divides the pattern) under
multiplication.  Every seed is a generator or in the minimal ideal of a
pattern drawn from the pool and its tau(0) images; tau(0), the Miyamoto
map of a(0), keeps every ideal, so the result is the generated ideal.
A pool member is g itself or h - theta(3) h (``pure_a_extract``): theta(3)
is the one map outside the Miyamoto group that ``ideal_of`` applies, and
a test checks it against an extraction by theta(6) = tau(6) tau(0).

Both families find their generator by the same Euclid (``_gcd``) and
reduce by ``PatternIdeal.reduce_core``: the a-part, as a polynomial in t,
becomes its remainder mod the pattern, by synthetic division over near
levels and memoised powers of t across far gaps (Fiduccia, 1985), and the
s- and p-parts go by folds, one level at a time.  Reduction against an
ideal produces a canonical representative of the coset with a-support
inside [0, D-1], s- and p-support below the survivor cutoff, and
extension coordinates eliminated; membership is reduction to zero.

Over Q, ``ideal_of`` works on integers: patterns are keyed as coprime
integer tuples, the Euclid is a primitive remainder sequence over Z, and
the closure reduces and row-reduces integer numerators.  ``Fraction``s
are made only where values leave: the monic gcd, ``PatternIdeal.alpha``,
its ``extension`` rows and what ``reduce`` returns.
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
    """A nonzero pure-a element of the ideal generated by g (g not in J):
    g when g is pure-a, else h - theta(3) h for h = g, or a(0) g when g has
    no a-part; theta(3) fixes every s- and p-key."""
    if g.is_zero() or g.in_p_span():
        raise IdealArgumentError("pure_a_extract needs a generator outside J")
    if g.is_pure_a():
        return g
    h = g if not g.part("a").is_zero() else el.axis(g.field, 0) * g
    return h - el.apply(el.theta(3), h)


# -- polynomial gcd with optional shift-combination tracking -------------------

def _poly_trim(poly: list) -> list:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _primitive(poly, p: int, comb=None) -> tuple:
    """``(poly, comb)`` at exponent 0, scaled to be monic over F_p and over Q
    to coprime integers with a positive lead: a key up to scalars."""
    low = next(i for i, c in enumerate(poly) if c)
    if p:
        s = pow(poly[-1], -1, p)
        poly = poly[low:] if s == 1 else [c * s % p for c in poly[low:]]
    else:
        den = lcm(*[c.denominator for c in poly])
        poly = [c.numerator * (den // c.denominator) for c in poly[low:]]
        g = gcd(*poly) if poly[-1] > 0 else -gcd(*poly)
        poly = [c // g for c in poly] if g != 1 else poly
        s = comb and Fraction(den, g)  # the scale, made for a tracked comb
    if comb is not None:
        comb = {(idx, sh - low): v * s % p if p else v * s
                for (idx, sh), v in comb.items()}
    return tuple(poly), comb


def _euclid(a: tuple, b: tuple, p: int) -> tuple:
    """gcd of ``(poly, comb)`` pairs in ``_primitive`` form: raw values, low
    order first, and ``{(input_index, shift): raw value}`` over the shifted
    inputs, or None when untracked.  Over F_p the divisor is monic; over Q
    this is the primitive remainder sequence over Z (Collins, 1967)."""
    while b[0]:
        r, (bpoly, bcomb) = list(a[0]), b
        rcomb = None if a[1] is None else dict(a[1])
        db, lead = len(bpoly) - 1, bpoly[-1]
        while _poly_trim(r) and len(r) - 1 >= db:
            c, k = r[-1], len(r) - 1 - db
            if not p:  # r = m * r - c / lead * m * t^k * b stays integral
                g = gcd(c, lead)
                c, m = c // g, lead // g
                if m != 1:
                    r = [v * m for v in r]
                    rcomb = rcomb and {key: v * m for key, v in rcomb.items()}
            for i, bc in enumerate(bpoly):
                v = r[k + i] - c * bc
                r[k + i] = v % p if p else v
            if rcomb is not None:  # rcomb -= c * t^k * bcomb
                el._add_scaled(rcomb, -c, [((idx, sh + k), v) for (idx, sh), v
                                           in bcomb.items()], p)
        a, b = b, (_primitive(r, p, rcomb) if r else ((), rcomb))
    return a


def _gcd(p: int, items: list) -> tuple:
    """The monic gcd ``(poly, comb)`` of pairs in ``_primitive`` form; over
    Q its values are ``Fraction``s, made once at the end."""
    acc = items[0]
    for item in items[1:]:
        acc = _euclid(acc, item, p)
    if p:
        return acc
    (poly, comb), lead = acc, acc[0][-1]
    return tuple(Fraction(c, lead) for c in poly), comb and {
        key: v / lead for key, v in comb.items()}


def laurent_gcd(field: Field, patterns):
    """Monic gcd of shift-equivalence classes of coefficient patterns.

    Each input is a sequence of coefficients (rationals or scalars)
    read as a polynomial with lowest exponent 0.  Returns
    ``(gcd_coeffs, combination)`` where combination is a list of
    ``(input_index, shift, coeff)`` triples expressing the gcd as a sum
    of shifted scalar multiples of the inputs; the coefficients are
    ``Scalar``s.  Over Q the Euclid runs on integer polynomials and keeps
    the combination rational; ``ideal_of``, which needs only the gcd, runs
    it untracked.
    """
    items, p = [], field.characteristic
    for idx, pat in enumerate(patterns):
        # a Scalar must be of this field: _check raises, or returns None
        poly = _poly_trim([field.zero._check(c) or c.value
                           if isinstance(c, Scalar) else field._value(c)
                           for c in pat])
        if poly:
            items.append(_primitive(poly, p, {(idx, 0): field.one.value}))
    if not items:
        raise IdealArgumentError("all patterns are zero")
    poly, comb = _gcd(p, items)
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

    Values are sparse dicts without zeros: ``{key: value}`` in and out of
    ``reduce_core``, ``{position: value}`` over ``survivor_keys`` for
    ``to_vector``, ``from_vector`` and the ``extension`` rows.  Inside, the
    work is on integers: the constructor checks L * alpha, for L the lcm
    of alpha's denominators (1 over F_p), and ``reduce_core`` folds integer
    numerators over one denominator against the families times L; only
    its a-part mod alpha runs on ``Fraction``s, when L > 1.  Otherwise
    ``Fraction``s are made only for what leaves: ``alpha`` holds
    ``Scalar``s of them, the ``extension`` rows hold them, and
    ``reduce_core`` makes one per output term unless asked for integers.
    """

    def __init__(self, field: Field, alpha):
        alpha = tuple(alpha)
        for c in alpha:
            field.zero._check(c)  # a Scalar of this field, or raise
        # L * alpha as ints, L the lcm of alpha's denominators (1 over F_p)
        p = field.characteristic
        a = [c.value for c in alpha]
        L = lcm(*(c.denominator for c in a))
        a = [c.numerator * (L // c.denominator) for c in a]
        eps = 1 if a and a[0] == L else -1
        if (len(a) < 2 or a[-1] != L or (sum(a) % p if p else sum(a))
                or a != [eps * c % p if p else eps * c for c in a[::-1]]):
            raise IdealArgumentError("pattern must be monic of degree >= 1, "
                                     "palindromic up to sign, of sum 0")
        self.field, self.p, self.alpha, self.epsilon = field, p, alpha, eps
        self.degree = d = len(a) - 1
        self.contains_j = any(sum(a[r::3]) % p if p else sum(a[r::3])
                              for r in (1, 2))
        # the lowest s- and p-level that the families reduce
        self._cutoff = cut = (d // 2 if d % 2 == 0 and eps == 1
                              else d // 2 + 1)
        # the survivors: the a-window, then the s- and p-levels below it
        self.survivor_keys = [("a", i) for i in range(d)]
        self.survivor_keys += [("s", n) for n in range(1, cut)]
        if not self.contains_j:
            self.survivor_keys += [("p", r, n) for n in range(3, cut, 3)
                                   for r in (1, 2)]
        self._key_pos = {k: i for i, k in enumerate(self.survivor_keys)}
        self.extension = Rref(self.p)
        # (j, L * alpha_j) for the nonzero alpha_j, and the fold tops L and
        # 2L, inverted over F_p
        self._scale = L
        self._support = [(j, c) for j, c in enumerate(a) if c]
        tops = (L, 2 * L)
        self._tops = [pow(t, -1, p) for t in tops] if p else tops
        # (D - j, alpha_j) as raw values (over Q ints when L = 1) for the
        # nonzero alpha_j below the top; the squares t^(2^k) mod alpha
        self._tail = [(d - j, c if L == 1 else Fraction(c, L))
                      for j, c in self._support[:-1]]
        self._squares = []

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

    def _sweep(self, r: list) -> list:
        """The last D of top-first values r, at least D, once synthetic
        division by alpha cancels the others; may consume r."""
        d, p, tail = self.degree, self.p, self._tail
        for i in range(len(r) - d):
            if c := r[i] % p if p else r[i]:
                for off, a in tail:
                    r[i + off] -= c * a
        return [c % p for c in r[-d:]] if p else r[-d:]

    def _mul(self, u: list, v: list) -> list:
        """u v mod alpha, for u and v as ``_sweep`` returns them."""
        out = [0] * (2 * self.degree - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v, i):
                    out[j] += a * b
        return self._sweep(out)

    def _times_power(self, v: list, g: int) -> list:
        """t^g v mod alpha, for v as ``_sweep`` returns it, by the squares."""
        sq = self._squares
        for k in range(g.bit_length()):
            if k == len(sq):  # t mod alpha, then each square of the last
                sq.append(self._mul(sq[-1], sq[-1]) if sq else
                          self._sweep([0] * (self.degree - 1) + [1, 0]))
            if g >> k & 1:
                v = self._mul(v, sq[k])
        return v

    def _window(self, terms: list) -> list:
        """sum c t^n mod alpha over the ``(n, c)`` of ``terms``, distinct
        n >= D, as ``_sweep`` returns it.  Top first, a gap of g levels is
        swept for g S multiply-adds, S the terms of alpha, or crossed by
        squares for about D (D + S) per bit of g, whichever is fewer."""
        d, s = self.degree, len(self._support)
        terms.sort(reverse=True)
        terms.append((0, 0))  # the last gap ends at level 0
        base, r = terms[0][0], [0] * d
        for n, c in terms:
            g = base - n
            if g * s <= g.bit_length() * d * (d + s):
                r += [0] * g
            else:
                r = self._times_power(self._sweep(r), g)
            r[-1] += c
            base = n
        return self._sweep(r)

    def reduce_core(self, rem: dict, integral: bool = False) -> dict:
        """Reduce raw terms ``{key: value}`` against the minimal-ideal
        families only; may consume ``rem``, and returns the result (with
        ``integral``, over Q, its numerators over a positive integer).  As
        alpha is palindromic up to sign, t^-m mod alpha is the reversal of
        t^(m + D - 1) mod alpha: levels below 0 go by ``_window`` too."""
        d, p, support = self.degree, self.p, self._support
        top, top2 = self._tops
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

        if self.contains_j:  # J is inside: the p-part goes
            rem = {k: c for k, c in rem.items() if k[0] != "p"}
        if far := [k for k in rem if k[0] == "a" and not 0 <= k[1] < d]:
            high = [(k[1], rem.pop(k)) for k in far if k[1] > 0]
            low = [(d - 1 - k[1], rem.pop(k)) for k in far if k[1] < 0]
            w = self._window(high) if high else [0] * d
            if low:
                w = [a + b for a, b in zip(w, reversed(self._window(low)))]
            if self._scale > 1:  # Fractions: over one denominator again
                m = lcm(*(c.denominator for c in w))
                rem = {k: c * m for k, c in rem.items()}
                den, w = den * m, [int(c * m) for c in w]
            keys = self.survivor_keys[d - 1::-1]  # a(D - 1), ..., a(0)
            el._add_scaled(rem, 1, [kc for kc in zip(keys, w) if kc[1]], p)
        hi = {}  # the top level in rem of s, p(1, .) and p(2, .)
        for k in rem:
            hi[k[:-1]] = max(k[-1], hi.get(k[:-1], k[-1]))
        # s-, p(1, .)- and p(2, .)-parts, top level first, down to the
        # survivor cutoff; the fold with top level n has top L * (alpha_{D-2n}
        # + 1): L above D/2, and 2L at D/2, reducible only when epsilon = 1
        for head, step in ((("s",), 1), (("p", 1), 3), (("p", 2), 3)):
            for n in range(hi.get(head, 0), self._cutoff - 1, -step):
                if c := rem.get(head + (n,)):
                    cancel(c, top2 if 2 * n == d else top,
                           _fold(support, d - n, step, head, p))
        return rem if p or integral else {
            k: Fraction(c, den) for k, c in rem.items()}

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
        for c in coeffs:
            field.zero._check(c)  # a Scalar of this field, or raise
        if not coeffs or not coeffs[-1]:
            raise IdealArgumentError("tuple must have a nonzero top entry")
        inv = coeffs[-1].inverse()  # monic
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
    polys, p = [], field.characteristic
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
                polys.append(_primitive(poly, p))
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
            pat, ext = self.pattern, len(self.pattern.extension.rows)
            out.update(pattern=[str(c) for c in pat.alpha],
                       epsilon=pat.epsilon, contains_j=pat.contains_j,
                       extension_dim=ext,
                       quotient_dim=len(pat.survivor_keys) - ext)
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
    folds = range(ideal.degree - up_to, ideal.degree - ideal._cutoff + 1)
    out = [ideal.x_family(k) for k in range(-up_to, up_to + 1)]
    out += [ideal.y_family(k) for k in folds]
    if ideal.contains_j:
        out += [el.pi(field, r, n) for n in range(3, up_to + 1, 3)
                for r in (1, 2)]
    else:
        out += [ideal.p_family(k, r) for k in folds for r in (1, 2)]
    return [x for x in out if x]


# -- the general classification engine -------------------------------------------

def _closure(ideal: PatternIdeal, seeds: list[el.Element]) -> tuple | None:
    """Row-reduce seed representatives and close their span under
    multiplication, stopping at its first pure-a member.

    The span is kept in one integral ``Rref`` with the a-window columns
    rotated to the end, so an insert pivots there exactly when the span
    gains a pure-a member; its pattern is returned.  A closure that finds
    none runs to the end, so its span is closed: its rows, unrotated and
    with unit pivots, go into ``ideal.extension`` (the RREF of a span is
    unique, so the pivots do not depend on the detour); the result is None.
    """
    p, d, keys = ideal.p, ideal.degree, ideal.survivor_keys
    n = len(keys)
    rotated = keys[d:] + keys[:d]  # column j of rr is survivor (j + d) % n
    col = {k: j for j, k in enumerate(rotated)}
    rr, queue = Rref(p, integral=True), []
    products = (dict(s.terms) for s in seeds)

    def times_keys(w):
        # w * key for each survivor key, as integer terms: scaling by 8
        # leaves the span alone
        w = {rotated[j]: c for j, c in w.items()}
        for b in keys:
            yield el._products(w, {b: 1}, p)

    while True:
        for terms in products:  # reduce_core leaves only survivor keys
            terms = ideal.reduce_core(terms, integral=True)
            w = {col[k]: c for k, c in terms.items()}
            if w and rr.insert(w):
                piv = next(reversed(rr.rows))  # the new row's, added last
                if piv >= n - d:  # columns n - d, ..., n - 1 are a(0), ...
                    row = rr.rows[piv]
                    return _primitive([row.get(j, 0) for j in range(
                        piv, max(row) + 1)], p)[0]
                queue.append(w)
        if not queue:
            break
        # fresh products: reduce_core may consume their terms
        products = times_keys(queue.pop())
    for piv, row in rr.rows.items():
        top = row[piv]  # 1 over F_p
        ideal.extension.insert({(j + d) % n: c if p else Fraction(c, top)
                                for j, c in row.items()})
    return None


def ideal_of(generators) -> IdealData:
    """Classify the two-sided ideal generated by finitely many elements."""
    generators = list(generators)
    if not generators:
        raise IdealArgumentError("need at least one element")
    for g in generators:  # an Element, over the field of the first
        el.Element._check(generators[0], g)
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return IdealData(generators[0].field, "zero")
    field = gens[0].field
    if all(g.in_p_span() for g in gens):
        return IdealData(field, "in_j", j_ideal=j_ideal_of(gens))

    # the pool: the pattern of one pure-a member per generator outside J;
    # the gcd also takes each reversal, the tau(0) image's up to sign
    pool, p = [], field.characteristic
    for g in gens:
        if not g.in_p_span():
            c = {k[1]: v for k, v in pure_a_extract(g).terms.items()}
            pool.append(_primitive([c.get(i, 0) for i in range(
                min(c), max(c) + 1)], p)[0])

    while True:
        # patterns are keyed up to scalars, and multiples leave the gcd as
        # it is: pass each pattern once
        alpha, _ = _gcd(p, [(pat, None) for pat in dict.fromkeys(
            q for pat in pool for q in (pat, _primitive(pat[::-1], p)[0]))])
        key = _primitive(alpha, p)[0]
        if sum(key) % p if p else sum(key):
            return IdealData(field, "full")

        # seeds: the generators and, when t^3 - 1 | alpha, two p-folds of
        # each residue class but D's, which reduce_core cancels; two reach
        # the rest.  Folds of alpha, from gens and tau(0), a Miyamoto map,
        # lie in (gens), so every seed does and the closure is (gens)
        ideal = PatternIdeal(field, [Scalar(field, c) for c in alpha])
        d, seeds = ideal.degree, list(gens)
        if not ideal.contains_j and any((d - j) % 3 for j, _ in ideal._support):
            seeds += [ideal.p_family(c, r) for c in (d - 1, d - 2, d - 4, d - 5)
                      for r in (1, 2)]
        pure = _closure(ideal, seeds)

        # a closure stopped at a pure-a member shrinks the gcd; the pool
        # restarts from the pattern, gcd(pool), palindromic up to sign
        if pure is not None:
            pool = [key, pure]
            continue

        # J is inside when p(1,3) is: then so is tau(0) p(1,3) = -p(2,3)
        if not ideal.contains_j:
            ideal.contains_j = ideal.reduce(el.pi(field, 1, 3)).is_zero()
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
    failures = [(repr(aut), repr(x)) for x in sample for aut in auts
                if not ideal.contains(el.apply(aut, x))]
    return {"checked": len(sample) * len(auts), "failures": failures,
            "ok": not failures}
